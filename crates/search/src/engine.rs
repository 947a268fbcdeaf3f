//! The embedded search engine.
//!
//! Storage side: a RAM hash table of bucket heads over *chained hash
//! buckets* in flash (see [`crate::triple`] for the page layout), fed by a
//! small RAM insertion buffer through the *tail* of the index log. Query
//! side: one backward cursor per query keyword, merged on descending
//! docid, scoring TF-IDF in pipeline into a bounded top-N heap. RAM use is
//! enforced end-to-end through [`pds_mcu::RamBudget`].
//!
//! Every page of the index log is one record that fills its flash page
//! ([`LogWriter::append_page`]), addressed by its page index, which is
//! its ordinal: the engine reads it back through the record log's one
//! verified read ([`LogWriter::read_filled_page`]: CRC and framing, a
//! failing page read again), so a read disturb costs a read, never an
//! answer, and a page that fails three reads is
//! [`FlashError::CorruptPage`]. The framing takes a page's first 8
//! bytes; a bucket page is the `page_size − 8` after them.
//!
//! ## The index log: chains below, tail above
//!
//! NAND programs whole pages, and a program costs eight reads, so a page
//! is worth writing only full. The insertion buffer holds too few triples
//! to fill a page *per bucket*; flushed bucket by bucket it would program
//! pages a few percent full and make every chain as many pages long. So
//! the buffer is flushed **whole**: all of it, bucket after bucket in
//! insertion order, into full *staged* pages appended to the index log —
//! but for the triples of a last page they do not fill, which stay in the
//! buffer to be staged with the next buffer-full, unless a sync or a
//! drain needs the buffer empty. (A buffer-full that just misses a page's
//! worth would otherwise program a page of a few triples, which every
//! walk of their buckets then reads: on the secure gateway's 2 KB pages
//! a buffer-full of 40-word e-mails fills five pages with a few triples
//! to spare, and one stage in ten spilled into a sixth — one in five once
//! a page was 8 bytes shorter.) The pages past `tail_start` — the log's tail — are those staged pages:
//! a sequential log absorbing inserts, the first half of the tutorial's
//! recipe. The second half, "timely reorganise", is the **drain**: when
//! the tail reaches `num_buckets / 2` pages (half a page per bucket) it is
//! read back in passes, each gathering as many consecutive buckets as fit
//! into the *gather* (below), and every bucket's triples are appended to
//! its chain *topping up the head*: a partial head page is re-read and
//! programmed again with the new triples behind its own, so every chain
//! page but the head is full. `(heads, tail_start)` change together after
//! the drain's last program; until then the tail and the old heads stand.
//! Staged pages that were drained and head pages that were superseded
//! stay in the log as garbage until
//! [`reorganize`](SearchEngine::reorganize) rewrites it.
//!
//! ## The drain's gather
//!
//! A pass gathers into the insertion buffer it has just emptied, grown for
//! the drain by as many triples as the RAM the token has free holds, up to
//! the tail's: the drain reserves `min(tail triples − cap, free / 16)`
//! more triples, and holds them to its end (the buffer's own triples stay
//! in its own reservation). The tail's triples per bucket — which size the
//! gather and the passes' windows — are a *tally* `stage()` keeps as it
//! programs each page, and a wake as it reads each kept page once, 2 bytes
//! a bucket reserved once; a drain never counts them. So a drain makes
//! fewer than two gathering passes per gather-full of tail triples. At `(64, 256)` — the
//! test and population gateways' shape — on 2 KB pages and a 64 KB token
//! the gather is 3 659 triples against a tail of at most 16 flushes of
//! 256: two gathering passes where the buffer alone makes about 18, and
//! the worst ingest stall of a seeded 2 400-document corpus falls from 380
//! reads and 104 programs to 112 and 103. At the secure gateway's
//! `(128, 768)` (`Pds::new`) the gather is 3 419 triples against a
//! 64-page tail of about 9 700 on a corpus of 40-word e-mails: three
//! gathering passes a drain, a drain about a third as often, and a worst
//! stall over 3 000 of them of 228 reads and 199 programs, where
//! `(64, 256)` stalls at 112 and 98: a drain at `(128, 768)` tops up
//! twice the heads. With no RAM free the gather is the buffer alone. A
//! bucket's triples reach its chain in tail order either way, so its
//! triples and df table do not depend on the RAM; only where its pages
//! end may, when it took more than one pass.
//!
//! With one level, a walk reads `N / (2 · cap)` pages whatever the bucket
//! count (`N` triples indexed, `cap` the buffer: fewer buckets buy denser
//! pages and proportionally longer chains). With the tail it reads the
//! bucket's postings in full pages — a chain page names each of its
//! bucket's terms once ([`crate::triple`]), about 240 postings on 2 KB —
//! plus the staged pages that may hold the term.
//!
//! ## The tail's bucket spans and term filters
//!
//! A staged page is filled bucket after bucket in ascending order, so
//! every triple on it belongs to a bucket between those of its first and
//! its last triple: its *span*. Beside it the engine keeps the page's
//! *term filter*: a bit array of five bits per triple a worst-case page
//! holds ([`triples_per_page`]: 680 bits on 2 KB pages for at most 135
//! terms, 168 on 512 B), in which each term of the page's dictionary sets
//! three bits drawn from its hash — not from its low bits, which pick the
//! bucket. A term whose three bits are not all set has no posting on the
//! page; the ≈ 114 terms of a 2 KB staged page leave a term of none of
//! them about a 6 % chance of a false match, which costs one read, never
//! an answer. (Eight bits per triple and five a term make that 1 %, but
//! save only 1 % more of `token_query`'s reads and leave a 16 KB token
//! one 2 KB query keyword fewer; four bits per triple save 1 % fewer and
//! leave it as many.) Both live in one RAM table, an entry a page,
//! reserved once beside the heads and as long as the longest tail a drain
//! meets (`num_buckets / 2 − 1` pages plus a buffer-full: 33 entries at
//! `(64, 256)` on 2 KB pages, of 4 + 85 bytes, 2 937 bytes in all, where
//! the spans alone took 132; 69 entries, 6 141 bytes, at `(128, 768)`;
//! [`SearchEngine::resident_bytes`] counts it with the rest: 7 417 and
//! 19 197 bytes in all). `stage()` notes the span and the filter of each
//! page from the image it has just laid out — no read. A walk for a term
//! reads only the tail pages whose span meets its bucket and whose filter
//! may hold the term; each gathering pass of a drain, which asks for a
//! window of buckets and not a term, reads those whose span meets its
//! window. A wake reads each page of the tail a checkpoint kept once and
//! notes it through the same code, so it walks as it did before the
//! power cycle. An entry that is not known — a tail page past the table,
//! or a kept page a wake could not read — is the whole span and a filter
//! of all ones: "read the page". What a failed drain programmed inside
//! the tail is noted as holding nothing, the empty span and a filter of
//! all zeros. Reading a page is never wrong: the `STAGED` mark is still
//! checked on every page read.
//!
//! ## One walk per query keyword: df from the chain heads
//!
//! TF-IDF needs each query keyword's df before its first score. The
//! drain, which reads every head it extends anyway, has the new head
//! carry its bucket's *df table* (see [`crate::triple`]): per term of the
//! chain, its postings there. So a query walks each of its distinct
//! keywords once before it scores (`walk_term`): it counts the keyword's
//! pending triples and the tail pages that may hold it, and reads
//! one page of the chain — its head — where the scoring cursor reads all
//! of it; `reorganize` writes the tables of the chains it repacks.
//!
//! The same walk keeps the keyword's live postings of every page it
//! reads — the tail pages and the head — `(doc, tf)` in 6 bytes, in the
//! page its cursor will own, in the order the cursor meets them (341 on
//! 2 KB pages). The cursor then takes the pending triples, the kept
//! postings and the chain below the head, and reads no page the walk
//! read again. When a page's postings do not fit beside those before,
//! keeping stops there and the cursor's walk starts at that page: the
//! starting point is all that differs. On a page the walk and the cursor
//! look the term up in the page's dictionary once and pass over the
//! other terms' postings by their one-byte index; a page without the
//! term is passed over whole. A query's RAM is one
//! page per keyword and the page the walks read into, held until the
//! last cursor is built: `(k + 1)` pages for `k` keywords, the top-N heap
//! reserved after that page is released.
//!
//! The chain is walked to count df only when its table cannot answer:
//!
//! - the table ran out of entries before the term came (a bucket of more
//!   terms than half a page holds entries);
//! - a document was deleted since the last `reorganize` — a table counts
//!   postings, live or not — and a recovery counts every tombstone it
//!   replays as such a deletion.
//!
//! A head keeps the table's room: it takes the last triples only when the
//! table fits beside them, so a page below a head is full — the next
//! triple did not fit — or took every triple that was left when they did
//! not fit beside the table (the head then holds the table alone).

use std::collections::btree_map::Entry;

use pds_flash::{Flash, FlashError, LogWriter, PAGE_RECORD};
use pds_mcu::{RamBudget, RamError, TopN};
use pds_obs::wire::Reader;

#[cfg(test)]
mod filter_sweep;
mod recovery;
#[cfg(test)]
mod wake_sweep;

pub use recovery::{EngineManifest, EngineRecovery, RebuildReason};

use crate::docs::DocStore;
use crate::tokenize::{term_hash, tokenize};
use crate::triple::{
    max_table_entries, put_table, triples_per_page, BucketPage, DocId, PageFill, Triple, NO_PREV,
    STAGED,
};

/// Errors of the search engine.
#[derive(Debug)]
pub enum SearchError {
    /// Underlying flash failure (exhaustion, corruption …).
    Flash(FlashError),
    /// The MCU RAM budget cannot accommodate the operation.
    Ram(RamError),
    /// An internal index invariant does not hold (empty bucket table,
    /// cursor consumed past its end). Surfaced as an error instead of a
    /// panic: on an unattended token a corrupt index must degrade into a
    /// failed query, never a crash.
    CorruptIndex(&'static str),
}

impl From<FlashError> for SearchError {
    fn from(e: FlashError) -> Self {
        SearchError::Flash(e)
    }
}

impl From<RamError> for SearchError {
    fn from(e: RamError) -> Self {
        SearchError::Ram(e)
    }
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::Flash(e) => write!(f, "flash: {e}"),
            SearchError::Ram(e) => write!(f, "ram: {e}"),
            SearchError::CorruptIndex(what) => write!(f, "corrupt index: {what}"),
        }
    }
}

impl std::error::Error for SearchError {}

/// How the engine obtains per-term document frequencies for IDF. There
/// is one way: the type and [`SearchEngine::new`]'s parameter remain
/// only because the performance ledger's workloads (`ledger/`) name
/// them, and go once those calls stop doing so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DfStrategy {
    /// Count df before scoring, in one walk per query keyword: its
    /// pending triples, the tail pages that may hold the keyword and the
    /// df table its chain's head carries — one page of the chain (the
    /// whole chain only when the table cannot answer: a deletion since
    /// the last reorganisation, or a term the table had no room for) —
    /// keeping the keyword's postings on the pages it reads for scoring.
    /// One page of query RAM beside the cursors'.
    TwoPass,
}

/// Match semantics of a multi-keyword query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Rank every document containing *any* keyword (disjunctive TF-IDF,
    /// the tutorial's default).
    Any,
    /// Only documents containing *all* keywords qualify (conjunctive);
    /// qualifying documents still rank by their TF-IDF sum.
    All,
}

/// One query answer: a document and its TF-IDF score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// The matching document.
    pub doc: DocId,
    /// TF-IDF relevance.
    pub score: f64,
}

/// Score/doc pair with a total order for the bounded heap. Ties on score
/// break toward the larger docid (most recent document), deterministically
/// mirrored by the test oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Scored {
    score: f64,
    doc: DocId,
}

impl Eq for Scored {}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then(self.doc.cmp(&other.doc))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The embedded search engine.
pub struct SearchEngine {
    flash: Flash,
    ram: RamBudget,
    num_buckets: usize,
    /// Per-bucket head: index of the most recent chain page in `index`,
    /// `NO_PREV` when the bucket has no flash page yet.
    heads: Vec<u32>,
    /// The index log: bucket pages, each a record that fills its page,
    /// append-only.
    index: LogWriter,
    /// Where the tail of `index` starts: the pages from here on are
    /// staged pages not yet drained into the chains (module docs).
    tail_start: u32,
    /// What RAM knows of each tail page — its bucket span and its term
    /// filter — entry `i` that of page `tail_start + i` (module docs): as
    /// many entries as a tail holds when a drain meets it, reserved once
    /// and filled in place.
    tail: TailTable,
    /// Triples per bucket on the tail's staged pages, as `stage()`
    /// programmed them or a wake read them (a count may saturate: it only
    /// sizes a drain's windows), 2 bytes a bucket reserved once.
    tally: Vec<u16>,
    /// Identity of `index`: bumped whenever a fresh log replaces it, so
    /// a checkpoint can say which log it describes.
    epoch: u32,
    /// The index-checkpoint log (see [`recovery`]).
    checkpoints: LogWriter,
    /// Frontier of the last durable checkpoint.
    durable: recovery::Frontier,
    /// Per-bucket RAM insertion buffers.
    pending: Vec<Vec<Triple>>,
    pending_total: usize,
    /// Maximum triples buffered in RAM before a flush.
    pending_cap: usize,
    _pending_reservation: pds_mcu::Reservation,
    docs: DocStore,
    /// Deleted docids (RAM mirror of the tombstone log; ~4 B each,
    /// charged to the budget). Deleted documents are filtered from every
    /// query and physically purged at the next reorganization.
    deleted: std::collections::HashSet<DocId>,
    tombstones: pds_flash::LogWriter,
    deleted_reservation: pds_mcu::Reservation,
    /// Whether a document was deleted since the last reorganisation (or
    /// a recovery replayed a tombstone): the heads' df tables count
    /// postings, live or not, so df is then counted by a walk.
    unpurged_deletions: bool,
}

/// A chain page that does not parse as one.
const UNDECODABLE: SearchError = SearchError::CorruptIndex("undecodable bucket page");

/// Bytes budgeted per entry of `index_text`'s per-document tf map.
const TF_ENTRY_BYTES: usize = 16;

/// The hash bucket of `term` among `num_buckets`.
fn bucket_of(term: u64, num_buckets: usize) -> usize {
    let n = num_buckets as u64;
    // The same bucket either way; a drain asks for every triple of the
    // tail once per pass, and a division is a quarter of it.
    if n.is_power_of_two() {
        (term & (n - 1)) as usize
    } else {
        (term % n) as usize
    }
}

/// Bytes of a bucket page on flash pages of `page_size` bytes: the
/// record that fills the page ([`PAGE_RECORD`]), 8 bytes short of it.
fn bucket_bytes(page_size: usize) -> usize {
    page_size - PAGE_RECORD.start
}

/// Tail pages at which the tail is drained: half a page per bucket.
fn drain_length(num_buckets: usize) -> usize {
    (num_buckets / 2).max(1)
}

/// The longest tail a drain meets: one page short of its length, plus a
/// buffer-full just staged.
fn max_tail(num_buckets: usize, buffer_triples: usize, page_size: usize) -> usize {
    let per_page = triples_per_page(bucket_bytes(page_size)).max(1);
    drain_length(num_buckets) - 1 + buffer_triples.div_ceil(per_page)
}

/// The buckets a tail page can hold triples of, `first..=last` (module
/// docs), in 4 bytes: a bucket past `u16::MAX` counts as `u16::MAX`, which
/// keeps every bucket of a page inside its span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    first: u16,
    last: u16,
}

impl Span {
    /// Not known (past the table's end, or a kept page a wake could not
    /// read): read the page.
    const UNKNOWN: Span = Span {
        first: 0,
        last: u16::MAX,
    };
    /// No bucket: a page a failed drain left among the tail.
    const NOTHING: Span = Span {
        first: u16::MAX,
        last: 0,
    };

    /// The span of a staged page. `stage()` fills a page with buckets in
    /// ascending order, so its first and last triple bound every other.
    fn of(page: &BucketPage<'_>, num_buckets: usize) -> Span {
        let bucket = |t: Triple| narrow(bucket_of(t.term, num_buckets));
        let mut triples = page.triples();
        match (triples.next(), triples.next_back()) {
            (Some(first), last) => Span {
                first: bucket(first),
                last: bucket(last.unwrap_or(first)),
            },
            (None, _) => Span::NOTHING,
        }
    }

    /// Whether a triple of a bucket in `lo..=hi` can lie on the page.
    fn meets(self, lo: usize, hi: usize) -> bool {
        self.first <= narrow(hi) && narrow(lo) <= self.last
    }
}

/// A bucket as a span stores it.
fn narrow(bucket: usize) -> u16 {
    u16::try_from(bucket).unwrap_or(u16::MAX)
}

/// Count the triples of the staged page `page` into `tally`, per bucket;
/// a count saturates (it only sizes a drain's windows).
fn add_to_tally(tally: &mut [u16], page: &BucketPage<'_>, num_buckets: usize) {
    for t in page.triples() {
        if let Some(c) = tally.get_mut(bucket_of(t.term, num_buckets)) {
            *c = c.saturating_add(1);
        }
    }
}

/// Bit positions a term sets in a page's filter: a false match of about
/// 6 % at the ≈ 6 bits a term of a 2 KB staged page, 9 % at the 5 of a
/// page of nothing but new terms.
const FILTER_PROBES: u32 = 3;

/// The bits of a page's term filter that `term` sets, among `bits`: three
/// positions by double hashing a multiplicative hash of the term, each
/// 32-bit probe scaled into `0..bits` by a multiply, not a division (a
/// page's filter is built on every staged program). Not of its low bits,
/// which pick the bucket — the page's terms of one bucket share them.
fn filter_probes(term: u64, bits: usize) -> impl Iterator<Item = usize> {
    let h = (term >> 16).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let (h1, h2) = ((h >> 32) as u32, h as u32 | 1);
    let bits = bits as u64;
    (0..FILTER_PROBES).map(move |i| {
        let probe = h1.wrapping_add(i.wrapping_mul(h2));
        ((u64::from(probe) * bits) >> 32) as usize
    })
}

/// What RAM knows of each page of the tail (module docs): entry `i`, that
/// of page `tail_start + i`, is the page's bucket span and its term
/// filter, a bit array of five bits per triple of a worst-case page
/// ([`triples_per_page`]). A filter of all ones is *unknown* and one of
/// all zeros *nothing*, as the spans' [`Span::UNKNOWN`] and
/// [`Span::NOTHING`]; past the table's end every page is unknown.
struct TailTable {
    spans: Vec<Span>,
    /// Bytes of one page's filter.
    filter_len: usize,
    /// `filter_len` bytes an entry.
    filters: Vec<u8>,
}

impl TailTable {
    /// A table of `pages` entries, every one unknown, for pages of
    /// `page_size` bytes.
    fn new(pages: usize, page_size: usize) -> TailTable {
        let filter_len = TailTable::filter_len(page_size);
        TailTable {
            spans: vec![Span::UNKNOWN; pages],
            filter_len,
            filters: vec![0xFF; pages * filter_len],
        }
    }

    /// Bytes of a page's filter: five bits per triple a worst-case page
    /// holds, so 5 bits a term at worst.
    fn filter_len(page_size: usize) -> usize {
        (5 * triples_per_page(bucket_bytes(page_size)))
            .div_ceil(8)
            .max(1)
    }

    /// Bytes an entry takes: the RAM a table of `pages` entries charges
    /// is `pages` times this.
    fn entry_bytes(page_size: usize) -> usize {
        std::mem::size_of::<Span>() + TailTable::filter_len(page_size)
    }

    /// The filter of entry `i`, `None` past the table's end.
    fn filter(&self, i: usize) -> Option<&[u8]> {
        self.filters
            .get(i * self.filter_len..(i + 1) * self.filter_len)
    }

    /// The span of the `i`-th tail page.
    fn span(&self, i: u32) -> Span {
        self.spans.get(i as usize).copied().unwrap_or(Span::UNKNOWN)
    }

    /// Whether the `i`-th tail page may hold a posting of `term`: every
    /// bit the term sets is set in its filter. A false match costs a
    /// read; a page that holds the term always matches.
    fn may_hold(&self, i: u32, term: u64) -> bool {
        let Some(filter) = self.filter(i as usize) else {
            return true;
        };
        let mut probes = filter_probes(term, filter.len() * 8);
        probes.all(|bit| filter[bit / 8] & (1 << (bit % 8)) != 0)
    }

    /// Note what the `i`-th tail page holds: the span and the filter of
    /// the staged page `page`, built from its image — no read — or, for
    /// `None`, nothing (a page a failed drain left among the tail). Past
    /// the table's end the page stays unknown.
    fn set(&mut self, i: u32, page: Option<&BucketPage<'_>>, num_buckets: usize) {
        let i = i as usize;
        let Some(span) = self.spans.get_mut(i) else {
            return;
        };
        *span = page.map_or(Span::NOTHING, |page| Span::of(page, num_buckets));
        let filter = &mut self.filters[i * self.filter_len..(i + 1) * self.filter_len];
        filter.fill(0);
        for term in page.into_iter().flat_map(BucketPage::dictionary) {
            for bit in filter_probes(term, filter.len() * 8) {
                filter[bit / 8] |= 1 << (bit % 8);
            }
        }
    }

    /// Every entry unknown: a tail that starts afresh.
    fn forget(&mut self) {
        self.spans.fill(Span::UNKNOWN);
        self.filters.fill(0xFF);
    }
}

impl SearchEngine {
    /// Create an engine with `num_buckets` hash buckets and a RAM
    /// insertion buffer of `buffer_triples` triples.
    pub fn new(
        flash: &Flash,
        ram: &RamBudget,
        num_buckets: usize,
        buffer_triples: usize,
        _df: DfStrategy,
    ) -> Result<Self, SearchError> {
        // pds-lint: allow(panic.assert) — construction-time shape check on
        // caller-chosen constants, not data-dependent; cannot fire at query time
        assert!(num_buckets > 0 && buffer_triples > 0);
        let page_size = flash.geometry().page_size;
        let reservation = ram.reserve(SearchEngine::resident_bytes(
            num_buckets,
            buffer_triples,
            page_size,
        ))?;
        Ok(SearchEngine {
            flash: flash.clone(),
            ram: ram.clone(),
            num_buckets,
            heads: vec![NO_PREV; num_buckets],
            index: flash.new_log(),
            tail_start: 0,
            tail: TailTable::new(max_tail(num_buckets, buffer_triples, page_size), page_size),
            tally: vec![0; num_buckets],
            epoch: 0,
            checkpoints: flash.new_log(),
            durable: recovery::Frontier::origin(0),
            pending: vec![Vec::new(); num_buckets],
            pending_total: 0,
            pending_cap: buffer_triples,
            _pending_reservation: reservation,
            docs: DocStore::new(flash),
            deleted: std::collections::HashSet::new(),
            tombstones: flash.new_log(),
            deleted_reservation: ram.reserve(0)?,
            unpurged_deletions: false,
        })
    }

    /// The RAM an engine of `num_buckets` buckets and a `buffer_triples`
    /// insertion buffer on pages of `page_size` bytes reserves in
    /// [`new`](Self::new) for its life: per bucket its chain's head (4 B)
    /// and its tail tally (2 B), the tail table (a span and a term filter
    /// for each page of the longest tail a drain meets) and the buffer's
    /// triples. What a device has spent before its first query.
    pub fn resident_bytes(num_buckets: usize, buffer_triples: usize, page_size: usize) -> usize {
        let head_bytes = num_buckets * (4 + 2);
        let tail_bytes =
            max_tail(num_buckets, buffer_triples, page_size) * TailTable::entry_bytes(page_size);
        head_bytes + tail_bytes + buffer_triples * std::mem::size_of::<Triple>()
    }

    fn bucket_of(&self, term: u64) -> usize {
        bucket_of(term, self.num_buckets)
    }

    /// Number of indexed documents (live + deleted; docids are dense).
    pub fn num_docs(&self) -> u32 {
        self.docs.len() as u32
    }

    /// Number of live (non-deleted) documents — the `|{doc}|` of the
    /// TF-IDF formula.
    pub fn num_live_docs(&self) -> u32 {
        self.num_docs() - self.deleted.len() as u32
    }

    /// Pages currently in the index log: chain pages, the tail, and
    /// what drains have left behind.
    pub fn num_index_pages(&self) -> u32 {
        self.index.num_pages()
    }

    /// Pages of the index log's tail: staged, not yet drained.
    pub fn num_tail_pages(&self) -> u32 {
        self.index.num_pages() - self.tail_start
    }

    /// Retrieve a document's raw content (deleted documents are gone).
    pub fn get_document(&self, doc: DocId) -> Result<Vec<u8>, SearchError> {
        if self.deleted.contains(&doc) {
            return Err(SearchError::Flash(pds_flash::FlashError::BadRecordAddr));
        }
        Ok(self.docs.get(doc)?)
    }

    /// Delete a document: a tombstone is appended durably, the docid is
    /// filtered from every subsequent query, and the next
    /// [`reorganize`](Self::reorganize) purges its index triples
    /// physically. Idempotent.
    pub fn delete_document(&mut self, doc: DocId) -> Result<(), SearchError> {
        if doc >= self.num_docs() || self.deleted.contains(&doc) {
            return Ok(());
        }
        self.tombstones.append(&doc.to_le_bytes())?;
        self.note_deleted(doc)
    }

    /// Register `doc` as deleted in RAM without touching the tombstone
    /// log — shared by [`delete_document`](Self::delete_document) (which
    /// appends the tombstone first) and crash recovery (which replays
    /// tombstones already on flash).
    fn note_deleted(&mut self, doc: DocId) -> Result<(), SearchError> {
        self.deleted_reservation.grow(4)?;
        self.deleted.insert(doc);
        self.unpurged_deletions = true;
        Ok(())
    }

    /// Number of deleted (tombstoned, not yet purged) documents.
    pub fn num_deleted(&self) -> usize {
        self.deleted.len()
    }

    /// Index one document; returns its docid.
    pub fn index_document(&mut self, text: &str) -> Result<DocId, SearchError> {
        let doc = self.docs.append(text.as_bytes())?;
        self.index_text(doc, text)?;
        Ok(doc)
    }

    /// Build index triples for an already-stored document — the indexing
    /// half of [`index_document`](Self::index_document), reused by
    /// [`recover`](Self::recover) for the documents past the last index
    /// checkpoint (every document when there is none), whose content is
    /// already in the document log.
    fn index_text(&mut self, doc: DocId, text: &str) -> Result<(), SearchError> {
        let tokens = tokenize(text);
        // Room is made before the document, not under it: the page a
        // flush or a drain works through is then never held together
        // with the document's own aggregation below.
        if self.pending_total + tokens.len() > self.pending_cap || self.tail_is_due() {
            self.make_room()?;
        }
        // Per-document term-frequency aggregation: transient RAM
        // proportional to the document's distinct terms. BTreeMap, not
        // HashMap: triples must reach the bucket buffers in a stable
        // order, or the buffer-full flush point — and with it the page
        // packing and the flash IO counters — would vary per process
        // with the hash seed, breaking `report --check` baselines.
        // The map is charged by the entry, as it grows.
        let mut tf: std::collections::BTreeMap<u64, u16> = std::collections::BTreeMap::new();
        let mut tf_guard = self.ram.reserve(0)?;
        for tok in &tokens {
            let e = match tf.entry(term_hash(tok)) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    tf_guard.grow(TF_ENTRY_BYTES)?;
                    e.insert(0)
                }
            };
            *e = e.saturating_add(1);
        }
        for (term, count) in tf {
            // Only a document with more distinct terms than the whole
            // buffer holds gets here with the buffer full.
            if self.pending_total == self.pending_cap {
                self.make_room()?;
            }
            let b = self.bucket_of(term);
            self.pending[b].push(Triple {
                term,
                doc,
                tf: count,
            });
            self.pending_total += 1;
        }
        Ok(())
    }

    /// Whether the tail has reached the length at which it is drained:
    /// half a page per bucket.
    fn tail_is_due(&self) -> bool {
        self.num_tail_pages() as usize >= drain_length(self.num_buckets)
    }

    /// Empty the insertion buffer into the tail, and the tail into the
    /// chains once it is long enough. The stage keeps a last page it does
    /// not fill in the buffer, unless a drain follows: a drain gathers
    /// into an empty buffer.
    fn make_room(&mut self) -> Result<(), SearchError> {
        self.stage(false)?;
        if self.tail_is_due() {
            self.stage(true)?;
            self.drain()?;
        }
        Ok(())
    }

    /// Stage the insertion buffer: its triples, bucket after bucket in
    /// insertion order, into full staged pages appended to the tail, each
    /// page's span and triples noted from the image it was laid out in.
    /// The triples of a last page they do not fill stay in the buffer, to
    /// be staged with what comes after them, unless `whole` asks for every
    /// triple on flash or no page filled: a staged page is full but at a
    /// sync, so a buffer-full of triples whose pages just miss a page's
    /// worth programs no page of a few. A page that fails to program
    /// takes its triples with it; the buffer is empty afterwards then.
    fn stage(&mut self, whole: bool) -> Result<(), SearchError> {
        if self.pending_total == 0 {
            return Ok(());
        }
        let page_size = self.flash.geometry().page_size;
        let _page_guard = self.ram.reserve(page_size)?;
        let mut buf = vec![0u8; bucket_bytes(page_size)];
        let mut page = PageFill::start(&mut buf, STAGED);
        // Where the page being filled starts — bucket, and triple in it —
        // and whether a page before it filled.
        let (mut from, mut filled) = ((0, 0), false);
        let mut staged = Ok(());
        for b in 0..self.num_buckets {
            page.next_bucket();
            let mut i = 0;
            while let Some(&t) = self.pending[b].get(i).filter(|_| staged.is_ok()) {
                if page.push(&mut buf, t) {
                    i += 1;
                } else if page.is_empty() {
                    staged = Err(SearchError::CorruptIndex("a posting larger than a page"));
                } else {
                    staged = self.program_staged(&buf);
                    page = PageFill::start(&mut buf, STAGED);
                    (from, filled) = ((b, i), true);
                }
            }
        }
        let keep = staged.is_ok() && filled && !whole;
        if staged.is_ok() && !keep && !page.is_empty() {
            staged = self.program_staged(&buf);
        }
        // Every triple before the kept page's first goes, or all of them.
        let (bucket, i) = if keep { from } else { (self.num_buckets, 0) };
        self.pending[..bucket].iter_mut().for_each(Vec::clear);
        if let Some(pending) = self.pending.get_mut(bucket) {
            pending.drain(..i);
        }
        self.pending_total = if keep { page.len() } else { 0 };
        staged
    }

    /// Program the staged page laid out in `buf` at the end of the tail,
    /// and note it ([`note_tail_page`](Self::note_tail_page)) — not when
    /// it fails to program.
    fn program_staged(&mut self, buf: &[u8]) -> Result<(), SearchError> {
        let page = BucketPage::parse(buf).ok_or(UNDECODABLE)?;
        let at = self.index.append_page(buf)?;
        self.note_tail_page(at, Some(&page));
        Ok(())
    }

    /// Note what tail page `at` holds: the span and the term filter of
    /// the staged page `staged`, and its triples counted into the tally;
    /// for `None`, nothing (a page a failed drain left among the tail).
    fn note_tail_page(&mut self, at: u32, staged: Option<&BucketPage<'_>>) {
        (self.tail).set(at - self.tail_start, staged, self.num_buckets);
        if let Some(staged) = staged {
            add_to_tally(&mut self.tally, staged, self.num_buckets);
        }
    }

    /// Page `page` of the tail read into `buf`: its view if it is a
    /// staged page, `None` for anything else found there (chain pages of
    /// a drain that failed part-way).
    fn staged_page<'b>(
        &self,
        page: u32,
        buf: &'b mut [u8],
    ) -> Result<Option<BucketPage<'b>>, SearchError> {
        Ok(Some(self.bucket_page(page, buf)?).filter(|p| p.prev == STAGED))
    }

    /// The span of tail page `page`.
    fn span(&self, page: u32) -> Span {
        self.tail.span(page.wrapping_sub(self.tail_start))
    }

    /// Move the tail into the bucket chains (module docs), each new head
    /// with its chain's df table. Called with the insertion buffer empty:
    /// each pass gathers into it, grown by as many triples as the RAM left
    /// free holds — the *gather*, at most the tail's triples. Worst case
    /// `passes × tail pages + num_buckets` page reads, `passes` being
    /// fewer than two per gather-full of tail triples — a gathering pass
    /// reads only the pages whose span meets its window — and
    /// `3 × num_buckets + tail pages` programs
    /// (a head topped up, the page it spills into and a head holding the
    /// table alone per bucket, the rest in full pages). Nothing the engine
    /// answers from changes before the last program: a failed drain
    /// leaves garbage among the tail, noted as holding nothing so that no
    /// walk reads it, and the previous heads and tail standing.
    fn drain(&mut self) -> Result<(), SearchError> {
        let tail = self.tail_start..self.index.num_pages();
        if tail.is_empty() {
            return Ok(());
        }
        let page_size = self.flash.geometry().page_size;
        let _guard = self.ram.reserve(drain_bytes(page_size, self.num_buckets))?;
        let mut buf = vec![0u8; page_size];
        let mut table = Vec::with_capacity(max_table_entries(bucket_bytes(page_size)));
        let mut new_heads = self.heads.clone();
        let drained = self.drain_passes(tail.clone(), &mut new_heads, &mut buf, &mut table);
        if drained.is_err() {
            // What a pass had gathered is still in the tail.
            self.pending.iter_mut().for_each(Vec::clear);
            self.pending_total = 0;
            for page in tail.end..self.index.num_pages() {
                self.note_tail_page(page, None);
            }
            return drained;
        }
        self.heads = new_heads;
        self.tail_start = self.index.num_pages();
        self.tail.forget();
        self.tally.fill(0);
        Ok(())
    }

    fn drain_passes(
        &mut self,
        tail: std::ops::Range<u32>,
        new_heads: &mut [u32],
        buf: &mut [u8],
        table: &mut Vec<(u64, u32)>,
    ) -> Result<(), SearchError> {
        // The tally only sizes the windows — a pass gathers what fits and
        // says whether more is to come — so a count may saturate.
        let triples: usize = self.tally.iter().map(|&c| usize::from(c)).sum();
        // The gather: the buffer's own triples and as many more as the
        // free RAM holds, held to the drain's end. With none free it is
        // the buffer alone.
        let size = std::mem::size_of::<Triple>();
        let extra = (triples.saturating_sub(self.pending_cap)).min(self.ram.available() / size);
        let _gather_guard = self.ram.reserve(extra * size)?;
        let gather = self.pending_cap + extra;
        let mut lo = 0;
        while lo < self.num_buckets {
            // A window of consecutive buckets that fit the gather
            // together — or one bucket alone that does not, drained in
            // as many passes as it takes.
            let mut fits = usize::from(self.tally[lo]);
            let mut hi = lo + 1;
            while hi < self.num_buckets && fits + usize::from(self.tally[hi]) <= gather {
                fits += usize::from(self.tally[hi]);
                hi += 1;
            }
            let (mut done, mut more) = (0, fits > 0);
            while more {
                more = self.gather(tail.clone(), lo..hi, done, gather, buf)?;
                done += self.pending_total;
                for (b, head) in (lo..hi).zip(&mut new_heads[lo..hi]) {
                    self.extend_chain(b, head, buf, table)?;
                }
            }
            lo = hi;
        }
        Ok(())
    }

    /// One pass over the tail pages whose span meets `buckets`, oldest
    /// first: the triples of `buckets` past the first `skip` of them go
    /// to the insertion buffer, in order, until it holds `gather`. Whether
    /// it filled with more to come.
    fn gather(
        &mut self,
        tail: std::ops::Range<u32>,
        buckets: std::ops::Range<usize>,
        skip: usize,
        gather: usize,
        buf: &mut [u8],
    ) -> Result<bool, SearchError> {
        let mut skipped = 0;
        for page in tail {
            if !self.span(page).meets(buckets.start, buckets.end - 1) {
                continue;
            }
            let Some(staged) = self.staged_page(page, buf)? else {
                continue;
            };
            for t in staged.triples() {
                let b = self.bucket_of(t.term);
                if !buckets.contains(&b) {
                    continue;
                }
                if skipped < skip {
                    skipped += 1;
                } else if self.pending_total == gather {
                    return Ok(true);
                } else {
                    self.pending[b].push(t);
                    self.pending_total += 1;
                }
            }
        }
        Ok(false)
    }

    /// Append what a pass gathered for bucket `b` to its chain, whose
    /// head is `head`, and count it into the chain's df table (in
    /// `table`, which the caller has reserved). A head is read back, its
    /// table erased, and topped up in place with the new triples behind
    /// its own (it keeps its `prev`: the page it replaces drops out of the
    /// chain); [`ChainWriter`] lays the rest out in fresh pages, with the
    /// table on the new head.
    fn extend_chain(
        &mut self,
        b: usize,
        head: &mut u32,
        buf: &mut [u8],
        table: &mut Vec<(u64, u32)>,
    ) -> Result<(), SearchError> {
        let gathered = std::mem::take(&mut self.pending[b]);
        self.pending_total -= gathered.len();
        if gathered.is_empty() {
            return Ok(());
        }
        table.clear();
        let (page, mut complete) = match *head {
            NO_PREV => (PageFill::start(&mut buf[PAGE_RECORD], NO_PREV), true),
            at => {
                // The head's postings stay in `buf` to be topped up; its
                // table is taken out to count on, and erased there.
                let rec = self.read_index_page(at, buf)?;
                let old = BucketPage::parse(rec).and_then(|page| page.table());
                let old = old.ok_or(UNDECODABLE)?;
                table.extend(old.entries());
                let complete = old.is_complete();
                (PageFill::resume(rec).ok_or(UNDECODABLE)?, complete)
            }
        };
        let buf = &mut buf[PAGE_RECORD];
        let limit = max_table_entries(buf.len());
        for t in &gathered {
            complete = count_posting(table, t.term, limit, complete);
        }
        let mut writer = ChainWriter {
            rest: page.len() + gathered.len(),
            page,
            table: (table, complete),
        };
        writer.feed(&mut self.index, buf, gathered.into_iter(), head)
    }

    /// Write every pending triple (to the tail: a sync never drains, it
    /// stays one or two programs) and document chunk to flash, then
    /// checkpoint the index so the next power cycle keeps it.
    pub fn flush(&mut self) -> Result<(), SearchError> {
        self.stage(true)?;
        self.docs.flush()?;
        // Tombstones too — a deletion the user was told about must not
        // evaporate in a crash.
        self.tombstones.flush()?;
        // Last: a checkpoint may only name pages already on flash.
        self.write_checkpoint()
    }

    /// One step of a walk: read page `page` of the index log into `buf`
    /// and parse it where it lies. Every walk — df counting, the query
    /// cursors, the drain, reorganisation — takes its steps here, through
    /// one page buffer it keeps for the whole walk.
    fn bucket_page<'b>(&self, page: u32, buf: &'b mut [u8]) -> Result<BucketPage<'b>, SearchError> {
        BucketPage::parse(self.read_index_page(page, buf)?).ok_or(UNDECODABLE)
    }

    /// Read page `page` of the index log into `buf`, a page, verified by
    /// the record log ([`LogWriter::read_filled_page`]): the bucket page,
    /// at `buf[PAGE_RECORD]`.
    fn read_index_page<'b>(
        &self,
        page: u32,
        buf: &'b mut [u8],
    ) -> Result<&'b mut [u8], SearchError> {
        Ok(LogWriter::read_filled_page(
            &self.flash,
            self.index.blocks(),
            page,
            buf,
        )?)
    }

    /// Whether `t` is a live posting of `term`.
    fn is_live(&self, t: &Triple, term: u64) -> bool {
        t.term == term && !self.deleted.contains(&t.doc)
    }

    /// A query's one walk of `term`'s bucket (module docs), each page read
    /// into `read`: the term's df — its pending triples, the tail pages
    /// that may hold the term, and its chain's head's df table, or the
    /// whole chain when the table cannot answer (a deletion since the last
    /// reorganisation made its counts stale, or it ran out of room before
    /// the term came) — with the term's live postings on the pages it
    /// reads kept in `keep`, newest first, as long as each page's fit
    /// beside those before.
    fn walk_term(
        &self,
        term: u64,
        read: &mut [u8],
        keep: &mut [u8],
    ) -> Result<Walked, SearchError> {
        let b = self.bucket_of(term);
        let mut df = self.pending[b]
            .iter()
            .filter(|t| self.is_live(t, term))
            .count();
        let mut walk = Walk::of_term(self, term, self.index.num_pages());
        let (mut kept, mut resume) = (0, None);
        while let Some(page) = walk.next_page(self, read)? {
            let chain = match walk.at_head && !self.unpurged_deletions {
                true => page.table().ok_or(UNDECODABLE)?.df(term),
                false => None,
            };
            let keeping = resume.is_none();
            if let (Some(chain), false) = (chain, keeping) {
                df += chain as usize;
                break;
            }
            // The page's postings are copied behind those kept as they
            // are counted, and kept if they all fit.
            let mut postings = 0;
            let of_term = page.term_index(term).map(|index| page.postings_at(index));
            for (doc, tf) in of_term.into_iter().flatten().rev() {
                if self.deleted.contains(&doc) {
                    continue;
                }
                let at = (kept + postings) * KEPT_LEN;
                if let Some(slot) = keep.get_mut(at..at + KEPT_LEN).filter(|_| keeping) {
                    slot.copy_from_slice(&kept_posting(doc, tf));
                }
                postings += 1;
            }
            if keeping {
                match (kept + postings) * KEPT_LEN <= keep.len() {
                    true => kept += postings,
                    // The cursor reads again from this page on.
                    false => resume = Some(walk.at_loaded(self)),
                }
            }
            if let Some(chain) = chain {
                df += chain as usize;
                break;
            }
            df += postings;
        }
        Ok(Walked {
            df: df as u32,
            kept,
            skipped: walk.tail_skips,
            resume: resume.unwrap_or_else(|| walk.rest()),
        })
    }

    /// Document frequency of one term: the df half of its query walk
    /// ([`walk_term`](Self::walk_term)), keeping nothing.
    #[cfg(test)]
    pub(crate) fn count_df(&self, term: u64) -> Result<u32, SearchError> {
        let _page_guard = self.ram.reserve(self.flash.geometry().page_size)?;
        let mut read = vec![0u8; self.flash.geometry().page_size];
        Ok(self.walk_term(term, &mut read, &mut [])?.df)
    }

    /// Every triple of `bucket` a walk of it meets, live or not, in walk
    /// order: the bucket's pending triples newest first, then each page of
    /// a walk of the whole bucket — the tail pages whose span can hold it,
    /// then its chain from the head — back to front. What the index holds
    /// of the bucket, whatever its pages look like.
    #[cfg(test)]
    pub(crate) fn bucket_in_walk_order(&self, bucket: usize) -> Result<Vec<Triple>, SearchError> {
        let mut triples: Vec<Triple> = self.pending[bucket].iter().rev().copied().collect();
        let mut buf = vec![0u8; self.flash.geometry().page_size];
        let mut walk = Walk::of(self, bucket, self.index.num_pages());
        while walk.load_next(self, &mut buf)? {
            let page = BucketPage::parse(&buf[PAGE_RECORD]).ok_or(UNDECODABLE)?;
            let of_bucket = |t: &Triple| self.bucket_of(t.term) == bucket;
            triples.extend(page.triples().rev().filter(of_bucket));
        }
        Ok(triples)
    }

    /// The pages a walk of `term`'s bucket for `term` reads, its whole
    /// chain included: `(tail, chain)` — the tail pages its filters let
    /// through, as a df count reads them.
    #[cfg(test)]
    pub(crate) fn walk_pages(&self, term: u64) -> Result<(u64, u64), SearchError> {
        let b = self.bucket_of(term);
        let mut buf = vec![0u8; self.flash.geometry().page_size];
        let (mut walk, mut pages) = (Walk::of_term(self, term, self.index.num_pages()), 0);
        while walk.load_next(self, &mut buf)? {
            pages += 1;
        }
        let (mut chain, mut page) = (0, self.heads[b]);
        while page != NO_PREV {
            chain += 1;
            page = self.bucket_page(page, &mut buf)?.prev;
        }
        Ok((pages - chain, chain))
    }

    /// The pages a query's walk of `term` loads that hold postings of it,
    /// in walk order: each page's place in the index log and its postings
    /// of the term, live or not.
    #[cfg(test)]
    pub(crate) fn pages_yielding(&self, term: u64) -> Result<Vec<(u32, usize)>, SearchError> {
        let mut buf = vec![0u8; self.flash.geometry().page_size];
        let mut walk = Walk::of_term(self, term, self.index.num_pages());
        let mut pages = Vec::new();
        while let Some(page) = walk.next_page(self, &mut buf)? {
            if let Some(index) = page.term_index(term) {
                pages.push((walk.loaded, page.postings_at(index).count()));
            }
        }
        Ok(pages)
    }

    /// Every tail page's term filter unknown, as a kept page a wake could
    /// not read is left: a walk reads each tail page whose span holds its
    /// bucket.
    #[cfg(test)]
    pub(crate) fn forget_tail_filters(&mut self) {
        self.tail.filters.fill(0xFF);
    }

    /// Ballast: all the budget has free but what a drain reserves before
    /// it gathers. While it is held every drain gathers into the
    /// insertion buffer alone.
    #[cfg(test)]
    pub(crate) fn drain_only_ballast(&self) -> pds_mcu::Reservation {
        let page_size = self.flash.geometry().page_size;
        let ballast = self.ram.available() - drain_bytes(page_size, self.num_buckets);
        self.ram.reserve(ballast).unwrap()
    }

    /// TF-IDF top-`n` search with disjunctive (ANY) semantics.
    ///
    /// RAM: one flash-page cursor per query keyword and the page the
    /// keywords' df walks read into, reserved from the budget before the
    /// first read, then the bounded top-N heap once that page is
    /// released; the query fails with [`SearchError::Ram`] if the device
    /// cannot afford it — exactly the failure a too-small MCU would hit.
    pub fn search(&self, keywords: &[&str], n: usize) -> Result<Vec<SearchHit>, SearchError> {
        self.search_mode(keywords, n, SearchMode::Any)
    }

    /// [`search`](Self::search) restricted to the docid prefix below
    /// `visible` — the snapshot-pinned read of the MVCC layer (docids
    /// are dense and increasing, so a snapshot's view of the corpus is
    /// a prefix). Ranking weights (IDF) still reflect the live corpus;
    /// only *membership* is pinned, which keeps the query at identical
    /// I/O cost. A top-`n` cannot be post-filtered from an unbounded
    /// search (later documents would evict visible ones from the heap),
    /// so the bound applies inside the merge.
    pub fn search_visible(
        &self,
        keywords: &[&str],
        n: usize,
        visible: DocId,
    ) -> Result<Vec<SearchHit>, SearchError> {
        self.search_bounded(keywords, n, SearchMode::Any, Some(visible))
    }

    /// TF-IDF top-`n` search with explicit match semantics. The pipeline
    /// is identical for both modes — conjunctive filtering happens for
    /// free at the merge point, where all of a document's triples are in
    /// RAM simultaneously.
    pub fn search_mode(
        &self,
        keywords: &[&str],
        n: usize,
        mode: SearchMode,
    ) -> Result<Vec<SearchHit>, SearchError> {
        self.search_bounded(keywords, n, mode, None)
    }

    fn search_bounded(
        &self,
        keywords: &[&str],
        n: usize,
        mode: SearchMode,
        visible: Option<DocId>,
    ) -> Result<Vec<SearchHit>, SearchError> {
        let span = pds_obs::span!(
            "search.query",
            "search.keywords" => keywords.len() as u64,
            "search.mode" => match mode {
                SearchMode::Any => "any",
                SearchMode::All => "all",
            },
        );
        let io_before = self.flash.stats();
        let num_docs = self.num_live_docs();
        // The query's distinct terms, tokenised and hashed once: a keyword
        // given twice is walked once and matches once.
        let mut terms: Vec<u64> = keywords
            .iter()
            .flat_map(|kw| tokenize(kw))
            .map(|tok| term_hash(&tok))
            .collect();
        terms.sort_unstable();
        terms.dedup();
        if num_docs == 0 || terms.is_empty() {
            return Ok(Vec::new());
        }

        // One page per keyword for its cursor, and the page its walk
        // reads into, held until the last cursor is built.
        let page_size = self.flash.geometry().page_size;
        let read_guard = self.ram.reserve(page_size)?;
        let cursor_guard = self.ram.reserve(terms.len() * page_size)?;
        // Validate the paper's "1 RAM page per query keyword" claim
        // against what was actually reserved for the cursors.
        let pages_per_kw = cursor_guard.bytes().div_ceil(page_size) as u64 / terms.len() as u64;
        span.set("search.ram_pages_per_keyword", pages_per_kw);
        if pages_per_kw > pds_obs::budgets::RAM_PAGES_PER_QUERY_KEYWORD {
            pds_obs::counter("search.ram_claim_violations").inc();
        }
        // One walk per term counts its df and keeps the postings of the
        // pages it reads in its cursor's page; terms with df = 0 get no
        // cursor.
        let mut read = vec![0u8; page_size];
        let mut walked = Vec::with_capacity(terms.len());
        let (mut kept, mut skipped) = (0, 0);
        for &term in &terms {
            let mut page = vec![0u8; page_size];
            let walk = self.walk_term(term, &mut read, &mut page)?;
            kept += walk.kept as u64;
            skipped += u64::from(walk.skipped);
            if walk.df > 0 {
                walked.push((term, walk, page));
            }
        }
        span.set("search.tail_postings_kept", kept);
        pds_obs::counter!("search.tail_postings_kept").add(kept);
        // Conjunctive semantics: a keyword absent from the corpus makes
        // the whole conjunction empty.
        if walked.is_empty() || (mode == SearchMode::All && walked.len() < terms.len()) {
            note_skipped(&span, skipped);
            return Ok(Vec::new());
        }
        let mut cursors: Vec<ChainCursor> = (walked.into_iter())
            .map(|(term, walk, page)| {
                let idf = (num_docs as f64 / walk.df as f64).ln();
                ChainCursor::new(self, term, idf, page, walk.kept, walk.resume)
            })
            .collect::<Result<_, _>>()?;
        drop((read, read_guard));

        let mut top: TopN<Scored> = TopN::new(&self.ram, n)?;
        // Pipeline merge on descending docid: triples with an equal docid
        // arrive at the same time, so each document's score completes
        // before the next document starts.
        while let Some(doc) = cursors.iter().filter_map(|c| c.current_doc()).max() {
            let mut score = 0.0;
            let mut matched_terms = 0usize;
            for c in &mut cursors {
                let mut cursor_matched = false;
                while c.current_doc() == Some(doc) {
                    let (tf, idf) = c.take()?;
                    score += tf as f64 * idf;
                    cursor_matched = true;
                }
                if cursor_matched {
                    matched_terms += 1;
                }
            }
            let in_view = visible.is_none_or(|v| doc < v);
            if in_view && (mode == SearchMode::Any || matched_terms == cursors.len()) {
                top.offer(Scored { score, doc });
            }
        }
        let reread: u64 = cursors.iter().map(|c| u64::from(c.walk.tail_reads)).sum();
        span.set("search.tail_pages_reread", reread);
        pds_obs::counter!("search.tail_pages_reread").add(reread);
        skipped += cursors
            .iter()
            .map(|c| u64::from(c.walk.tail_skips))
            .sum::<u64>();
        note_skipped(&span, skipped);
        let hits: Vec<SearchHit> = top
            .into_sorted_desc()
            .into_iter()
            .map(|s| SearchHit {
                doc: s.doc,
                score: s.score,
            })
            .collect();
        span.set("search.hits", hits.len() as u64);
        (self.flash.stats() - io_before).attach_to_span(&span);
        Ok(hits)
    }

    /// Reorganize the index: rewrite every bucket chain into densely
    /// packed pages in a fresh log, then reclaim the old log wholesale.
    ///
    /// The chain of a bucket is already globally sorted by docid (pages
    /// are flushed in docid order and docids only grow), so the rewrite is
    /// a single forward pass with two RAM pages, beside a second head
    /// table until the swap — the "reorganization process only uses log
    /// structures" rule of the tutorial, and it is interruptible: the old
    /// index stays valid until the swap.
    pub fn reorganize(&mut self) -> Result<(), SearchError> {
        // What the pass holds until the swap — the heads-to-be, 4 bytes a
        // bucket beside the resident heads, its two pages and a chain's df
        // table — charged before the flush and the drain it starts with
        // write anything.
        let page_size = self.flash.geometry().page_size;
        let held =
            (self.ram).reserve(4 * self.num_buckets + 2 * page_size + table_bytes(page_size))?;
        // Stabilize RAM state first, then the log's: everything into the
        // chains, which are what is rewritten.
        self.flush()?;
        self.drain()?;
        let mut new_log = self.flash.new_log();
        let new_heads = match self.repack(&mut new_log) {
            Ok(heads) => heads,
            Err(e) => {
                // The blocks the new log claimed go back; the old index
                // stands.
                new_log.discard();
                return Err(e);
            }
        };
        // Atomic swap, then block-grain reclamation of the old index.
        let old = std::mem::replace(&mut self.index, new_log);
        old.discard();
        self.heads = new_heads;
        drop(held);
        self.unpurged_deletions = false;
        self.tail_start = self.index.num_pages();
        self.tail.forget();
        // A new log: the old one's checkpoints must stop matching before
        // this one has its own.
        self.epoch = self.epoch.wrapping_add(1);
        self.write_checkpoint()
    }

    /// Rewrite every chain into `new_log`, purged of deleted documents
    /// and laid out by [`ChainWriter`], each head with the df table of the
    /// purged chain; the new heads. Two pages of RAM and a table, which
    /// the caller has reserved: the page read and the page filled in
    /// place.
    fn repack(&self, new_log: &mut LogWriter) -> Result<Vec<u32>, SearchError> {
        let page_size = self.flash.geometry().page_size;
        let limit = max_table_entries(bucket_bytes(page_size));
        let mut new_heads = vec![NO_PREV; self.num_buckets];
        let mut buf = vec![0u8; page_size];
        let mut out = vec![0u8; bucket_bytes(page_size)];
        let mut table = Vec::with_capacity(limit);
        let live = |t: &Triple| !self.deleted.contains(&t.doc);
        for (b, new_head) in new_heads.iter_mut().enumerate() {
            // Collect the chain page indexes (newest → oldest): a list as
            // long as the chain, charged as it grows. The walk counts the
            // live postings into the purged chain's table as it goes.
            let mut chain = Vec::new();
            let mut chain_guard = self.ram.reserve(0)?;
            let (mut postings, mut complete) = (0, true);
            table.clear();
            let mut page = self.heads[b];
            while page != NO_PREV {
                chain_guard.grow(std::mem::size_of::<u32>())?;
                chain.push(page);
                let read = self.bucket_page(page, &mut buf)?;
                for t in read.triples().filter(live) {
                    complete = count_posting(&mut table, t.term, limit, complete);
                    postings += 1;
                }
                page = read.prev;
            }
            if postings == 0 {
                continue;
            }
            // Re-read oldest → newest, repacking; the triples of
            // tombstoned documents are purged physically.
            let mut writer = ChainWriter {
                rest: postings,
                page: PageFill::start(&mut out, NO_PREV),
                table: (&table, complete),
            };
            for &p in chain.iter().rev() {
                let page = self.bucket_page(p, &mut buf)?;
                writer.feed(new_log, &mut out, page.triples().filter(live), new_head)?;
            }
        }
        Ok(new_heads)
    }
}

/// Publish the tail pages a query's walks passed over by their term
/// filters — each a read saved — on its span and counter.
fn note_skipped(span: &pds_obs::trace::SpanGuard, skipped: u64) {
    span.set("search.tail_pages_skipped", skipped);
    pds_obs::counter!("search.tail_pages_skipped").add(skipped);
}

/// Bytes a drain reserves before it gathers: one page, a head's df
/// table and the heads-to-be.
fn drain_bytes(page_size: usize, num_buckets: usize) -> usize {
    page_size + table_bytes(page_size) + 4 * num_buckets
}

/// Bytes a df table being built is charged: [`max_table_entries`] of
/// them, as RAM holds an entry.
fn table_bytes(page_size: usize) -> usize {
    max_table_entries(bucket_bytes(page_size)) * std::mem::size_of::<(u64, u32)>()
}

/// Count one posting of `term` into `table`, a df table ascending by
/// term that is `complete` or not: one more for a term it holds, a new
/// entry while it is complete and below `limit` entries; anything else
/// leaves it incomplete. Whether it still is complete.
fn count_posting(table: &mut Vec<(u64, u32)>, term: u64, limit: usize, complete: bool) -> bool {
    match table.binary_search_by_key(&term, |e| e.0) {
        Ok(i) => {
            table[i].1 = table[i].1.saturating_add(1);
            complete
        }
        Err(i) if complete && table.len() < limit => {
            table.insert(i, (term, 1));
            true
        }
        Err(_) => false,
    }
}

/// The pages that end a chain, laid out and programmed as its triples
/// come, oldest first: a page takes triples until the next does not fit,
/// except the one that takes the last triple with room left beside the
/// chain's df table — the head. When the last triples leave no room for
/// the table, their page is programmed as it is and the head holds the
/// table alone. So every page below a head is full or holds more than
/// fits beside its bucket's table, and a head always has the table's
/// room.
struct ChainWriter<'t> {
    /// Triples not yet programmed, those of the page being filled
    /// included: more than none until the head is programmed (a writer
    /// starts with some).
    rest: usize,
    /// The page being filled, whose link its image holds.
    page: PageFill,
    /// The chain's df table and whether it is complete.
    table: (&'t [(u64, u32)], bool),
}

impl ChainWriter<'_> {
    /// Lay `triples` out in the page image `buf`, programming each page
    /// into `log` once the next triple does not fit — the head with the
    /// table, once it holds the last triple — and pointing `head` at it.
    /// Once the head is programmed there is nothing left to feed.
    fn feed(
        &mut self,
        log: &mut LogWriter,
        buf: &mut [u8],
        triples: impl Iterator<Item = Triple>,
        head: &mut u32,
    ) -> Result<(), SearchError> {
        let (table, complete) = self.table;
        for t in triples {
            if self.rest == 0 {
                break;
            }
            if !self.page.push(buf, t) {
                self.program(log, buf, head)?;
                if !self.page.push(buf, t) {
                    return Err(SearchError::CorruptIndex("a posting larger than a page"));
                }
            }
            if self.page.len() == self.rest {
                if !self.page.fits_table(buf.len(), table.len()) {
                    self.program(log, buf, head)?;
                }
                put_table(buf, table, complete);
                return self.program(log, buf, head);
            }
        }
        Ok(())
    }

    /// Program the page laid out in `buf` into `log`, point `head` at it
    /// and start the next page, linked to it.
    fn program(
        &mut self,
        log: &mut LogWriter,
        buf: &mut [u8],
        head: &mut u32,
    ) -> Result<(), SearchError> {
        *head = log.append_page(buf)?;
        pds_obs::counter!("search.chain_pages_programmed").inc();
        pds_obs::counter!("search.chain_postings_programmed").add(self.page.len() as u64);
        self.rest -= self.page.len();
        self.page = PageFill::start(buf, *head);
        Ok(())
    }
}

/// Where a backward walk of one bucket stands: the pages still to read,
/// newest first — the tail pages whose span holds the bucket, last page
/// to first, then the bucket's chain from its head. A walk for one term
/// passes over the tail pages whose filter rules the term out. Everything
/// in the tail is newer than everything in a chain, flushes land in the
/// tail in docid order and a bucket's run inside a flush is in insertion
/// order, so the postings of a term come by in descending docid all the
/// way.
#[derive(Debug, Clone, Copy)]
struct Walk {
    bucket: usize,
    /// The term walked for, `None` for a walk of the whole bucket.
    term: Option<u64>,
    /// Pages of the tail not yet passed: `tail_start..tail_left`.
    tail_left: u32,
    /// Next chain page, `NO_PREV` past the oldest.
    chain_next: u32,
    /// The page loaded last.
    loaded: u32,
    /// Whether the page loaded last is a tail page.
    in_tail: bool,
    /// Whether the page loaded last is the chain's head.
    at_head: bool,
    /// Tail pages read.
    tail_reads: u32,
    /// Tail pages whose span holds the bucket passed over unread: their
    /// filter rules the term out.
    tail_skips: u32,
}

impl Walk {
    /// A walk of `bucket` that starts at the tail pages below `tail_end`
    /// (the index log's length for the whole tail).
    fn of(engine: &SearchEngine, bucket: usize, tail_end: u32) -> Walk {
        Walk {
            bucket,
            term: None,
            tail_left: tail_end,
            chain_next: engine.heads[bucket],
            loaded: NO_PREV,
            in_tail: false,
            at_head: false,
            tail_reads: 0,
            tail_skips: 0,
        }
    }

    /// A walk of `term`'s bucket for `term`, from the tail pages below
    /// `tail_end`.
    fn of_term(engine: &SearchEngine, term: u64, tail_end: u32) -> Walk {
        Walk {
            term: Some(term),
            ..Walk::of(engine, engine.bucket_of(term), tail_end)
        }
    }

    /// The rest of the walk, the page loaded last included: where a
    /// cursor starts that did not keep that page's postings.
    fn at_loaded(&self, engine: &SearchEngine) -> Walk {
        let from = |tail_end| Walk {
            term: self.term,
            ..Walk::of(engine, self.bucket, tail_end)
        };
        match self.in_tail {
            true => from(self.loaded + 1),
            false => Walk {
                chain_next: self.loaded,
                ..from(engine.tail_start)
            },
        }
    }

    /// The rest of the walk, past the page loaded last: where a cursor
    /// starts that kept every posting the walk read.
    fn rest(&self) -> Walk {
        Walk {
            tail_reads: 0,
            tail_skips: 0,
            ..*self
        }
    }

    /// Read the walk's next page into `buf`; `false` when there is none.
    /// A tail page holds triples of a run of buckets and a chain page
    /// those of every term of the bucket: the caller parses the page and
    /// filters by term either way.
    fn load_next(&mut self, e: &SearchEngine, buf: &mut [u8]) -> Result<bool, SearchError> {
        let link = |page: &[u8]| {
            BucketPage::frame(page)
                .map(|page| page.prev)
                .ok_or(UNDECODABLE)
        };
        while self.tail_left > e.tail_start {
            self.tail_left -= 1;
            let i = self.tail_left - e.tail_start;
            if !e.tail.span(i).meets(self.bucket, self.bucket) {
                continue;
            }
            if self.term.is_some_and(|term| !e.tail.may_hold(i, term)) {
                self.tail_skips += 1;
                continue;
            }
            self.tail_reads += 1;
            if link(e.read_index_page(self.tail_left, buf)?)? == STAGED {
                (self.loaded, self.in_tail) = (self.tail_left, true);
                return Ok(true);
            }
        }
        if self.chain_next == NO_PREV {
            return Ok(false);
        }
        self.in_tail = false;
        self.at_head = self.chain_next == e.heads[self.bucket];
        self.loaded = self.chain_next;
        self.chain_next = link(e.read_index_page(self.chain_next, buf)?)?;
        Ok(true)
    }

    /// [`load_next`](Self::load_next), and the page parsed.
    fn next_page<'b>(
        &mut self,
        e: &SearchEngine,
        buf: &'b mut [u8],
    ) -> Result<Option<BucketPage<'b>>, SearchError> {
        match self.load_next(e, buf)? {
            true => Ok(Some(
                BucketPage::parse(&buf[PAGE_RECORD]).ok_or(UNDECODABLE)?,
            )),
            false => Ok(None),
        }
    }
}

/// What a query's walk of one term's bucket found
/// ([`SearchEngine::walk_term`]).
struct Walked {
    /// The term's document frequency.
    df: u32,
    /// Its live postings kept in the cursor's page.
    kept: usize,
    /// Tail pages the walk passed over by their filter.
    skipped: u32,
    /// The rest of the walk, for the cursor: from the first page whose
    /// postings did not fit, or past the last page read when all did.
    resume: Walk,
}

/// Bytes a posting kept in a cursor's page takes: its docid and tf.
const KEPT_LEN: usize = 6;

/// A posting as a cursor's page keeps it.
fn kept_posting(doc: DocId, tf: u16) -> [u8; KEPT_LEN] {
    let mut bytes = [0u8; KEPT_LEN];
    bytes[..4].copy_from_slice(&doc.to_le_bytes());
    bytes[4..].copy_from_slice(&tf.to_le_bytes());
    bytes
}

/// The `i`-th posting kept in a cursor's page.
fn kept_at(page: &[u8], i: usize) -> Option<(DocId, u16)> {
    let mut r = Reader::new(page.get(i * KEPT_LEN..)?);
    Some((r.u32()?, r.u16()?))
}

/// What the slots a cursor consumes are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slots {
    /// The bucket's pending triples.
    Pending,
    /// The postings its walk kept in the cursor's page.
    Kept,
    /// The page of the walk loaded last.
    Page,
}

/// Backward cursor over one term's postings: the bucket's pending RAM
/// triples first (they are the most recent), then the postings the
/// term's walk kept in the cursor's page, then the pages of the rest of
/// its [`Walk`], each read into that page — the one the query's
/// reservation paid for — and walked there, back to front.
struct ChainCursor<'a> {
    engine: &'a SearchEngine,
    term: u64,
    idf: f64,
    /// The kept postings, newest first, until they are consumed; then
    /// the image of the page being consumed.
    page: Vec<u8>,
    /// What the slots being consumed are.
    slots: Slots,
    /// Slots of the current source not yet looked at: the next candidate
    /// is slot `left - 1` (the kept postings count down from the newest).
    left: usize,
    /// The term's dictionary index on the page loaded last.
    index: u8,
    /// The postings kept in `page`.
    kept: usize,
    /// The pages still to load.
    walk: Walk,
    /// The live posting of the term the cursor stands on, `None` once
    /// the walk is exhausted.
    current: Option<(DocId, u16)>,
}

impl<'a> ChainCursor<'a> {
    /// A cursor over `term`'s postings whose `page` holds `kept` of them,
    /// the rest read by `walk`.
    fn new(
        engine: &'a SearchEngine,
        term: u64,
        idf: f64,
        page: Vec<u8>,
        kept: usize,
        walk: Walk,
    ) -> Result<Self, SearchError> {
        let mut c = ChainCursor {
            engine,
            term,
            idf,
            page,
            slots: Slots::Pending,
            left: engine.pending[walk.bucket].len(),
            index: 0,
            kept,
            walk,
            current: None,
        };
        c.advance()?;
        Ok(c)
    }

    /// Move to the next live posting of the term, towards older
    /// documents, loading pages as the slots run out.
    fn advance(&mut self) -> Result<(), SearchError> {
        let e = self.engine;
        loop {
            // Parsed when it was loaded: framed again, not checked again.
            let page = match self.slots {
                Slots::Page => Some(BucketPage::frame(&self.page[PAGE_RECORD]).ok_or(UNDECODABLE)?),
                _ => None,
            };
            let pending = &e.pending[self.walk.bucket];
            while self.left > 0 {
                self.left -= 1;
                let live = |posting: Option<(DocId, u16)>| {
                    posting.filter(|(doc, _)| !e.deleted.contains(doc))
                };
                let posting = match (&page, self.slots) {
                    (Some(page), _) => live(page.posting_at(self.left, self.index)),
                    (None, Slots::Kept) => kept_at(&self.page, self.kept - 1 - self.left),
                    (None, _) => live(
                        (pending.get(self.left))
                            .filter(|t| t.term == self.term)
                            .map(|t| (t.doc, t.tf)),
                    ),
                };
                if posting.is_some() {
                    self.current = posting;
                    return Ok(());
                }
            }
            if self.slots == Slots::Pending && self.kept > 0 {
                (self.left, self.slots) = (self.kept, Slots::Kept);
                continue;
            }
            let Some(loaded) = self.walk.next_page(e, &mut self.page)? else {
                self.current = None;
                return Ok(());
            };
            // A page without the term is passed over whole.
            (self.left, self.index) = match loaded.term_index(self.term) {
                Some(index) => (loaded.len(), index),
                None => (0, 0),
            };
            self.slots = Slots::Page;
        }
    }

    /// Docid this cursor currently points at (descending over time).
    fn current_doc(&self) -> Option<DocId> {
        self.current.map(|(doc, _)| doc)
    }

    /// Consume the current triple, returning `(tf, idf)`.
    fn take(&mut self) -> Result<(u16, f64), SearchError> {
        let (_, tf) = self
            .current
            .ok_or(SearchError::CorruptIndex("take() on exhausted cursor"))?;
        self.advance()?;
        Ok((tf, self.idf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::NaiveSearch;
    use crate::triple::{
        DF_ENTRY_LEN, MAX_TERMS, PAGE_HEADER, POSTING_LEN, TABLE_TRAILER, TERM_LEN,
    };
    use pds_flash::BlockId;
    use pds_mcu::HardwareProfile;

    fn setup() -> (Flash, RamBudget, SearchEngine) {
        let profile = HardwareProfile::test_profile();
        let flash = Flash::new(profile.flash);
        let ram = RamBudget::new(profile.ram_bytes);
        let engine = SearchEngine::new(&flash, &ram, 16, 64, DfStrategy::TwoPass).unwrap();
        (flash, ram, engine)
    }

    const CORPUS: &[&str] = &[
        "medical record blood pressure normal",
        "bank statement monthly salary deposit",
        "email about blood test results pending",
        "photo album summer holidays",
        "blood donation appointment tuesday",
        "insurance claim car accident report",
        "email salary negotiation meeting",
        "prescription blood pressure medication dosage",
    ];

    fn engine_with_corpus() -> (Flash, RamBudget, SearchEngine) {
        let (f, r, mut e) = setup();
        for doc in CORPUS {
            e.index_document(doc).unwrap();
        }
        (f, r, e)
    }

    #[test]
    fn single_keyword_matches_oracle() {
        let (_f, _r, e) = engine_with_corpus();
        let mut oracle = NaiveSearch::new();
        for doc in CORPUS {
            oracle.index(doc);
        }
        let hits = e.search(&["blood"], 10).unwrap();
        let expected = oracle.search(&["blood"], 10);
        assert_eq!(
            hits.iter().map(|h| h.doc).collect::<Vec<_>>(),
            expected.iter().map(|h| h.doc).collect::<Vec<_>>()
        );
        for (h, o) in hits.iter().zip(&expected) {
            assert!((h.score - o.score).abs() < 1e-9);
        }
    }

    #[test]
    fn multi_keyword_scores_accumulate() {
        let (_f, _r, e) = engine_with_corpus();
        let mut oracle = NaiveSearch::new();
        for doc in CORPUS {
            oracle.index(doc);
        }
        let hits = e.search(&["blood", "pressure"], 3).unwrap();
        let expected = oracle.search(&["blood", "pressure"], 3);
        assert_eq!(
            hits.iter().map(|h| h.doc).collect::<Vec<_>>(),
            expected.iter().map(|h| h.doc).collect::<Vec<_>>()
        );
        // Doc 0 and doc 7 contain both terms; they must outrank
        // single-term matches.
        assert!(hits[0].doc == 0 || hits[0].doc == 7);
    }

    #[test]
    fn search_visible_pins_the_docid_prefix() {
        let (_f, _r, e) = engine_with_corpus();
        // Docs 0, 2, 4, 7 contain "blood"; a snapshot over the first
        // three documents only sees docs 0 and 2.
        let hits = e.search_visible(&["blood"], 10, 3).unwrap();
        let mut docs: Vec<_> = hits.iter().map(|h| h.doc).collect();
        docs.sort_unstable();
        assert_eq!(docs, vec![0, 2]);
        // A top-1 under the bound must come from the prefix even though
        // a later document scores at least as high unbounded.
        let top1 = e.search_visible(&["blood"], 1, 3).unwrap();
        assert_eq!(top1.len(), 1);
        assert!(top1[0].doc < 3);
        // Bound at the full corpus = unbounded search.
        let all = e.search(&["blood"], 10).unwrap();
        let bounded = e.search_visible(&["blood"], 10, 8).unwrap();
        assert_eq!(
            all.iter().map(|h| h.doc).collect::<Vec<_>>(),
            bounded.iter().map(|h| h.doc).collect::<Vec<_>>()
        );
        // An empty view sees nothing.
        assert!(e.search_visible(&["blood"], 10, 0).unwrap().is_empty());
    }

    #[test]
    fn unknown_keyword_yields_nothing() {
        let (_f, _r, e) = engine_with_corpus();
        assert!(e.search(&["zzzunknown"], 5).unwrap().is_empty());
        assert!(e.search(&[], 5).unwrap().is_empty());
    }

    #[test]
    fn search_spanning_flash_and_pending() {
        // Small buffer forces some triples to flash while others remain
        // pending; results must be identical to the oracle regardless.
        let profile = HardwareProfile::test_profile();
        let flash = Flash::new(profile.flash);
        let ram = RamBudget::new(profile.ram_bytes);
        let mut e = SearchEngine::new(&flash, &ram, 4, 8, DfStrategy::TwoPass).unwrap();
        let mut oracle = NaiveSearch::new();
        for doc in CORPUS {
            e.index_document(doc).unwrap();
            oracle.index(doc);
        }
        assert!(e.num_index_pages() > 0, "buffer must have spilled");
        let hits = e.search(&["email", "salary"], 5).unwrap();
        let expected = oracle.search(&["email", "salary"], 5);
        assert_eq!(
            hits.iter().map(|h| h.doc).collect::<Vec<_>>(),
            expected.iter().map(|h| h.doc).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reorganization_preserves_results_and_packs_pages() {
        let profile = HardwareProfile::test_profile();
        let flash = Flash::new(profile.flash);
        let ram = RamBudget::new(profile.ram_bytes);
        let mut e = SearchEngine::new(&flash, &ram, 4, 8, DfStrategy::TwoPass).unwrap();
        for i in 0..50 {
            e.index_document(&format!(
                "record number {i} category c{} blood sample",
                i % 5
            ))
            .unwrap();
        }
        let before_hits = e.search(&["blood"], 10).unwrap();
        let before_pages = e.num_index_pages();
        e.reorganize().unwrap();
        let after_hits = e.search(&["blood"], 10).unwrap();
        assert_eq!(
            before_hits.iter().map(|h| h.doc).collect::<Vec<_>>(),
            after_hits.iter().map(|h| h.doc).collect::<Vec<_>>()
        );
        assert!(
            e.num_index_pages() <= before_pages,
            "reorganization must not grow the index"
        );
    }

    #[test]
    fn query_ram_is_one_page_per_keyword_plus_topn() {
        let (_f, ram, mut e) = engine_with_corpus();
        let page = e.flash.geometry().page_size;
        // The same RAM wherever the postings are: all in the buffer, in
        // the tail, in the chains — one page per keyword and the page the
        // walks read into, to the byte (the heap comes after that page is
        // released, and is smaller).
        for round in 0..3 {
            let baseline = ram.used();
            ram.reset_high_water();
            e.search(&["blood", "pressure", "salary"], 5).unwrap();
            let peak = ram.high_water() - baseline;
            assert_eq!(peak, (3 + 1) * page, "round {round}");
            assert_eq!(ram.used(), baseline, "query RAM fully released");
            match round {
                0 => e.flush().unwrap(),
                _ => e.drain().unwrap(),
            }
        }
        assert_eq!((e.num_tail_pages(), e.pending_total), (0, 0));
        assert_eq!(pds_obs::counter("search.ram_claim_violations").get(), 0);
    }

    #[test]
    fn query_fails_cleanly_when_ram_too_small() {
        let flash = Flash::small(256);
        let ram = RamBudget::new(2048); // engine residents eat most of this
        let mut e = SearchEngine::new(&flash, &ram, 8, 64, DfStrategy::TwoPass).unwrap();
        e.index_document("alpha beta gamma").unwrap();
        e.flush().unwrap();
        // 3 cursors and the walks' page need 4 × 512 B; only ~1 KB
        // remains. Nothing is read, and nothing stays reserved.
        let (used, reads) = (ram.used(), flash.stats().page_reads);
        let err = e.search(&["alpha", "beta", "gamma"], 5).unwrap_err();
        assert!(matches!(err, SearchError::Ram(_)));
        assert_eq!((ram.used(), flash.stats().page_reads), (used, reads));
    }

    #[test]
    fn deleted_documents_vanish_from_queries_and_fetches() {
        let (_f, _r, mut e) = engine_with_corpus();
        let mut oracle = NaiveSearch::new();
        for doc in CORPUS {
            oracle.index(doc);
        }
        // Doc 4 ("blood donation appointment tuesday") is deleted.
        e.delete_document(4).unwrap();
        oracle.delete(4);
        let hits = e.search(&["blood"], 10).unwrap();
        assert!(hits.iter().all(|h| h.doc != 4));
        let expected = oracle.search(&["blood"], 10);
        assert_eq!(
            hits.iter().map(|h| h.doc).collect::<Vec<_>>(),
            expected.iter().map(|h| h.doc).collect::<Vec<_>>(),
            "idf must reflect the live corpus"
        );
        assert!(e.get_document(4).is_err());
        assert_eq!(e.num_deleted(), 1);
        assert_eq!(e.num_live_docs(), CORPUS.len() as u32 - 1);
        // Idempotent, and out-of-range is a no-op.
        e.delete_document(4).unwrap();
        e.delete_document(999).unwrap();
        assert_eq!(e.num_deleted(), 1);
    }

    #[test]
    fn reorganize_purges_deleted_triples_physically() {
        let profile = HardwareProfile::test_profile();
        let flash = Flash::new(profile.flash);
        let ram = RamBudget::new(profile.ram_bytes);
        let mut e = SearchEngine::new(&flash, &ram, 4, 16, DfStrategy::TwoPass).unwrap();
        for i in 0..60 {
            e.index_document(&format!("record {i} blood marker"))
                .unwrap();
        }
        for doc in 0..30 {
            e.delete_document(doc).unwrap();
        }
        let before = {
            e.flush().unwrap();
            e.num_index_pages()
        };
        e.reorganize().unwrap();
        assert!(
            e.num_index_pages() < before,
            "purging half the corpus must shrink the index: {} -> {}",
            before,
            e.num_index_pages()
        );
        let hits = e.search(&["blood"], 60).unwrap();
        assert_eq!(hits.len(), 30);
        assert!(hits.iter().all(|h| h.doc >= 30));
    }

    #[test]
    fn conjunctive_mode_filters_to_all_keywords() {
        let (_f, _r, e) = engine_with_corpus();
        let mut oracle = NaiveSearch::new();
        for doc in CORPUS {
            oracle.index(doc);
        }
        let all = e
            .search_mode(&["blood", "pressure"], 10, SearchMode::All)
            .unwrap();
        let expected = oracle.search_all(&["blood", "pressure"], 10);
        assert_eq!(
            all.iter().map(|h| h.doc).collect::<Vec<_>>(),
            expected.iter().map(|h| h.doc).collect::<Vec<_>>()
        );
        // Only docs 0 and 7 contain both words.
        let mut docs: Vec<u32> = all.iter().map(|h| h.doc).collect();
        docs.sort_unstable();
        assert_eq!(docs, vec![0, 7]);
        // ANY mode returns strictly more.
        let any = e.search(&["blood", "pressure"], 10).unwrap();
        assert!(any.len() > all.len());
        // A keyword absent from the corpus empties the conjunction.
        assert!(e
            .search_mode(&["blood", "zzznothing"], 10, SearchMode::All)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn conjunctive_matches_oracle_on_larger_corpus() {
        let profile = HardwareProfile::test_profile();
        let flash = Flash::new(profile.flash);
        let ram = RamBudget::new(profile.ram_bytes);
        let mut e = SearchEngine::new(&flash, &ram, 32, 128, DfStrategy::TwoPass).unwrap();
        let mut oracle = NaiveSearch::new();
        for i in 0..200 {
            let text = format!("item {i} t{} u{} shared", i % 5, i % 8);
            e.index_document(&text).unwrap();
            oracle.index(&text);
        }
        for query in [vec!["t3", "u5"], vec!["shared", "t1"], vec!["t0", "u0"]] {
            let got = e.search_mode(&query, 15, SearchMode::All).unwrap();
            let expected = oracle.search_all(&query, 15);
            assert_eq!(
                got.iter().map(|h| h.doc).collect::<Vec<_>>(),
                expected.iter().map(|h| h.doc).collect::<Vec<_>>(),
                "query {query:?}"
            );
        }
    }

    #[test]
    fn recover_rebuilds_index_and_reapplies_tombstones() {
        let (flash, ram, mut e) = setup();
        for text in CORPUS {
            e.index_document(text).unwrap();
        }
        e.delete_document(1).unwrap();
        e.flush().unwrap();
        let manifest = e.manifest();
        let before = e.search(&["blood"], 10).unwrap();
        drop(e);

        let rebooted = flash.reboot();
        let ram2 = RamBudget::new(ram.capacity());
        let (recovered, report) = SearchEngine::recover(&rebooted, &ram2, &manifest).unwrap();
        assert_eq!(report.docs_recovered as usize, CORPUS.len());
        assert_eq!(report.docs_lost, 0);
        assert_eq!(report.tombstones_applied, 1);
        assert_eq!(recovered.num_deleted(), 1);
        let after = recovered.search(&["blood"], 10).unwrap();
        assert_eq!(
            after.iter().map(|h| h.doc).collect::<Vec<_>>(),
            before.iter().map(|h| h.doc).collect::<Vec<_>>(),
        );
        // Document bytes survived verbatim (doc 1 is tombstoned).
        for (i, text) in CORPUS.iter().enumerate() {
            if i == 1 {
                assert!(recovered.get_document(1).is_err());
            } else {
                assert_eq!(recovered.get_document(i as DocId).unwrap(), text.as_bytes());
            }
        }
    }

    /// Page `page` of the index log, decoded by the owned decoder the
    /// engine used before it walked pages in place.
    fn reference_page(e: &SearchEngine, page: u32) -> (u32, Vec<Triple>) {
        let mut buf = vec![0u8; e.flash.geometry().page_size];
        let addr = e.index.page_addr(page).unwrap();
        e.flash.read_page(addr, &mut buf).unwrap();
        crate::triple::reference_decode_page(&buf[PAGE_RECORD]).unwrap()
    }

    /// The bytes a page holding `triples` uses — header, postings,
    /// dictionary and trailer — and its dictionary's entries.
    fn used_bytes(triples: &[Triple]) -> (usize, usize) {
        let mut terms: Vec<u64> = triples.iter().map(|t| t.term).collect();
        terms.sort_unstable();
        terms.dedup();
        let postings = triples.len() * POSTING_LEN + terms.len() * TERM_LEN;
        (PAGE_HEADER + TABLE_TRAILER + postings, terms.len())
    }

    /// The pages of `bucket`'s chain, newest first.
    fn reference_chain(e: &SearchEngine, bucket: usize) -> Vec<Vec<Triple>> {
        let mut pages = Vec::new();
        let mut page = e.heads[bucket];
        while page != NO_PREV {
            let (prev, triples) = reference_page(e, page);
            pages.push(triples);
            page = prev;
        }
        pages
    }

    /// The tail pages a walk of `bucket` reads, newest first, each with
    /// the triples it yields: a staged page when the buckets of its first
    /// and last triples enclose `bucket` and, for a walk of `term`, its
    /// filter lets the term through — always when the page holds the term
    /// (asserted), and on a false match — and every page past the table's
    /// length, of which only the staged ones yield. The model of an engine
    /// that has not lost its spans to a power cycle.
    fn reference_tail(
        e: &SearchEngine,
        bucket: usize,
        term: Option<u64>,
    ) -> Vec<Option<Vec<Triple>>> {
        let mut pages = Vec::new();
        for page in (e.tail_start..e.index.num_pages()).rev() {
            let (prev, triples) = reference_page(e, page);
            let i = page - e.tail_start;
            let past_table = i as usize >= e.tail.spans.len();
            let spanned = prev == STAGED && {
                let bucket_at = |t: Option<&Triple>| e.bucket_of(t.unwrap().term);
                (bucket_at(triples.first())..=bucket_at(triples.last())).contains(&bucket)
            };
            let passes = term.is_none_or(|term| {
                let holds = prev == STAGED && triples.iter().any(|t| t.term == term);
                let may = e.tail.may_hold(i, term);
                assert!(may || !holds, "page {page} holds {term:#x}");
                may
            });
            if (spanned && passes) || past_table {
                pages.push((prev == STAGED).then_some(triples));
            }
        }
        pages
    }

    /// The pages a walk of `bucket` yields, newest first: the staged
    /// pages of [`reference_tail`], then the bucket's chain.
    fn reference_walk(e: &SearchEngine, bucket: usize) -> Vec<Vec<Triple>> {
        let mut pages: Vec<_> = (reference_tail(e, bucket, None).into_iter())
            .flatten()
            .collect();
        pages.extend(reference_chain(e, bucket));
        pages
    }

    /// The page reads of a walk of `term`'s bucket for `term`.
    fn reference_reads(e: &SearchEngine, term: u64) -> u64 {
        let b = e.bucket_of(term);
        (reference_tail(e, b, Some(term)).len() + reference_chain(e, b).len()) as u64
    }

    /// The df table of `bucket`'s head, read off the page by hand: its
    /// entries and whether it is complete (none, and not, for a page
    /// without one or a bucket without a chain).
    fn reference_table(e: &SearchEngine, bucket: usize) -> (Vec<(u64, u32)>, bool) {
        if e.heads[bucket] == NO_PREV {
            return (Vec::new(), false);
        }
        let mut page = vec![0u8; e.flash.geometry().page_size];
        let addr = e.index.page_addr(e.heads[bucket]).unwrap();
        e.flash.read_page(addr, &mut page).unwrap();
        let buf = &page[PAGE_RECORD];
        let trailer = buf.len() - 2;
        let word = u16::from_le_bytes([buf[trailer], buf[trailer + 1]]);
        if word == u16::MAX {
            return (Vec::new(), false);
        }
        // The table lies below the dictionary, 8 bytes an entry.
        let end = trailer - 8 * usize::from(buf[6]);
        let n = usize::from(word & 0x7FFF);
        let entries = buf[end - 12 * n..end]
            .chunks(12)
            .map(|c| {
                let term = u64::from_le_bytes(c[..8].try_into().unwrap());
                (term, u32::from_le_bytes(c[8..].try_into().unwrap()))
            })
            .collect();
        (entries, word & 0x8000 != 0)
    }

    /// Whether the df table of `term`'s bucket answers for its chain: no
    /// deletion since the last reorganisation, and the term is in the
    /// table or the table is complete.
    fn table_answers(e: &SearchEngine, term: u64) -> bool {
        let (entries, complete) = reference_table(e, e.bucket_of(term));
        !e.unpurged_deletions && (complete || entries.iter().any(|&(t, _)| t == term))
    }

    /// The page reads of counting `term`'s df: the tail pages a walk of
    /// its bucket reads, then the chain's head when its df table answers,
    /// else the whole chain.
    fn reference_df_reads(e: &SearchEngine, term: u64) -> u64 {
        let b = e.bucket_of(term);
        let chain = reference_chain(e, b).len();
        let chain_reads = if table_answers(e, term) {
            chain.min(1)
        } else {
            chain
        };
        (reference_tail(e, b, Some(term)).len() + chain_reads) as u64
    }

    /// The pages a query's cursor of `term` reads after the term's df
    /// walk, `(tail, chain)`: the walk keeps the live postings of each
    /// page it reads, 6 B each in a page, until a page's do not fit beside
    /// those before, and the cursor reads the bucket's walk from that page
    /// on — or, when all fit, the chain pages below those the df walk
    /// read.
    fn reference_cursor_reads(e: &SearchEngine, term: u64) -> (u64, u64) {
        let b = e.bucket_of(term);
        let (tail, chain) = (reference_tail(e, b, Some(term)), reference_chain(e, b));
        let counted = match table_answers(e, term) {
            true => chain.len().min(1),
            false => chain.len(),
        };
        let pages = (tail.iter().map(Option::as_ref)).chain(chain.iter().map(Some));
        let mut kept = 0;
        for (i, page) in pages.take(tail.len() + counted).enumerate() {
            let postings = page
                .into_iter()
                .flatten()
                .filter(|t| e.is_live(t, term))
                .count();
            if (kept + postings) * 6 > e.flash.geometry().page_size {
                let chain_from = i.saturating_sub(tail.len());
                let tail_again = tail.len().saturating_sub(i);
                return (tail_again as u64, (chain.len() - chain_from) as u64);
            }
            kept += postings;
        }
        (0, (chain.len() - counted) as u64)
    }

    /// `search` against the oracle, hit for hit and score for score, and
    /// its page reads against the cost model of one walk per distinct
    /// query term: the term's df is counted ([`reference_df_reads`]) and,
    /// when it occurs at all, its cursor reads what the walk could not
    /// keep ([`reference_cursor_reads`]).
    fn assert_search_and_its_reads(e: &SearchEngine, oracle: &NaiveSearch, query: &[&str]) -> u64 {
        let mut terms: Vec<u64> = (query.iter())
            .flat_map(|kw| tokenize(kw))
            .map(|t| term_hash(&t))
            .collect();
        terms.sort_unstable();
        terms.dedup();
        let mut want_reads = 0u64;
        for term in terms {
            want_reads += reference_df_reads(e, term);
            if oracle.df(term) > 0 {
                let (tail, chain) = reference_cursor_reads(e, term);
                want_reads += tail + chain;
            }
        }
        let before = e.flash.stats();
        let hits = e.search(query, 10).unwrap();
        assert_eq!(
            (e.flash.stats() - before).page_reads,
            want_reads,
            "{query:?}"
        );
        let expected = oracle.search(query, 10);
        assert_eq!(hits.len(), expected.len(), "{query:?}");
        for (h, x) in hits.iter().zip(&expected) {
            assert_eq!(h.doc, x.doc, "{query:?}");
            assert_eq!(h.score.to_bits(), x.score.to_bits(), "{query:?}");
        }
        want_reads
    }

    /// Every word's df against the oracle, and its page reads against
    /// [`reference_df_reads`]; how many of the counts the heads' tables
    /// answered and how many walked a chain of more than one page.
    fn assert_counts_and_their_reads(
        e: &SearchEngine,
        oracle: &NaiveSearch,
        words: &[String],
    ) -> (usize, usize) {
        let (mut answered, mut walked) = (0, 0);
        for word in words {
            let term = term_hash(word);
            let before = e.flash.stats();
            let df = e.count_df(term).unwrap();
            let reads = (e.flash.stats() - before).page_reads;
            assert_eq!(df, oracle.df(term), "{word}");
            assert_eq!(reads, reference_df_reads(e, term), "{word}");
            let chain = reference_chain(e, e.bucket_of(term)).len();
            match table_answers(e, term) {
                true => answered += 1,
                false => walked += usize::from(chain > 1),
            }
        }
        (answered, walked)
    }

    /// The live postings of `term` on the tail pages a walk of its
    /// bucket reads.
    fn tail_postings(e: &SearchEngine, term: u64) -> usize {
        let pages = reference_tail(e, e.bucket_of(term), Some(term));
        let triples = pages.iter().flatten().flatten();
        triples.filter(|t| e.is_live(t, term)).count()
    }

    /// Every word's df, and every query's ranked hits — `search`,
    /// `SearchMode::All` and `search_visible` at three bounds — against
    /// the oracle, scores as bits.
    fn assert_exact(
        e: &SearchEngine,
        oracle: &NaiveSearch,
        words: &[String],
        queries: &[&[&str]],
        ctx: &str,
    ) {
        for word in words {
            let term = term_hash(word);
            assert_eq!(e.count_df(term).unwrap(), oracle.df(term), "{ctx}: {word}");
        }
        let bits = |hits: &[SearchHit]| -> Vec<(DocId, u64)> {
            hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
        };
        let docs = e.num_docs();
        for &q in queries {
            let ctx = format!("{ctx}: {q:?}");
            assert_eq!(
                bits(&e.search(q, 10).unwrap()),
                bits(&oracle.search(q, 10)),
                "{ctx}"
            );
            assert_eq!(
                bits(&e.search_mode(q, 10, SearchMode::All).unwrap()),
                bits(&oracle.search_all(q, 10)),
                "{ctx} (all)"
            );
            for visible in [0, docs / 2, docs - 1] {
                let mut want = oracle.search(q, docs as usize);
                want.retain(|h| h.doc < visible);
                want.truncate(10);
                assert_eq!(
                    bits(&e.search_visible(q, 10, visible).unwrap()),
                    bits(&want),
                    "{ctx} (visible < {visible})"
                );
            }
        }
    }

    #[test]
    fn every_case_a_querys_walk_meets_matches_the_oracle_bit_for_bit() {
        use pds_obs::rng::{Rng, SeedableRng, StdRng};
        // 512 B pages: a 512 B cursor page holds 85 postings of 6 B, and
        // `common`, in every document, has more than that in the tail.
        let flash = Flash::new(pds_flash::FlashGeometry::new(512, 8, 1024));
        let ram = RamBudget::new(64 * 1024);
        let mut e = SearchEngine::new(&flash, &ram, 64, 256, DfStrategy::TwoPass).unwrap();
        let mut oracle = NaiveSearch::new();
        let mut rng = StdRng::seed_from_u64(0x3601);
        let mut index = |e: &mut SearchEngine, oracle: &mut NaiveSearch| {
            let i = e.num_docs();
            let mut words = vec!["common".to_string(), format!("tag{i}")];
            for _ in 0..rng.gen_range(3..7) {
                words.push(format!("w{}", rng.gen_range(0..60 * 60) / 60));
            }
            e.index_document(&words.join(" ")).unwrap();
            oracle.index(&words.join(" "));
        };
        let common = term_hash("common");
        while e.num_docs() < 300 || tail_postings(&e, common) <= 85 {
            assert!(e.num_docs() < 2000);
            index(&mut e, &mut oracle);
        }
        let words: Vec<String> = (0..60)
            .map(|w| format!("w{w}"))
            .chain(["common", "absent", "tag7", "tag299"].map(String::from))
            .collect();
        let queries: [&[&str]; 8] = [
            &["common"],
            // Duplicated keywords.
            &["common", "common"],
            &["w3", "common", "w3"],
            &["w0"],
            &["w1", "w2"],
            &["w5", "absent"],
            &["absent"],
            &["tag7", "common", "w10"],
        ];
        assert!(e.pending_total > 0 && e.num_tail_pages() > 0);
        assert_exact(&e, &oracle, &words, &queries, "ingested");
        // Deletions since the last reorganisation: a document in the
        // chains, some in the tail, the one still in the buffer.
        let last = e.num_docs() - 1;
        for doc in [3, last - 60, last - 40, last - 39, last] {
            e.delete_document(doc).unwrap();
            oracle.delete(doc);
        }
        assert!(tail_postings(&e, common) > 85);
        assert_exact(&e, &oracle, &words, &queries, "deleted");
        // Recovered: the wake noted the kept tail's spans and filters as
        // the engine that kept running had them.
        e.flush().unwrap();
        let ram2 = RamBudget::new(64 * 1024);
        let (woken, _) = SearchEngine::recover(&flash.reboot(), &ram2, &e.manifest()).unwrap();
        assert_eq!(
            (&woken.tail.spans, &woken.tail.filters, &woken.tally),
            (&e.tail.spans, &e.tail.filters, &e.tally)
        );
        let mut e = woken;
        assert!(tail_postings(&e, common) > 85);
        assert_exact(&e, &oracle, &words, &queries, "recovered");
        // Reorganised, then more documents and a deletion after it.
        e.reorganize().unwrap();
        assert_exact(&e, &oracle, &words, &queries, "reorganised");
        for _ in 0..80 {
            index(&mut e, &mut oracle);
        }
        e.delete_document(last + 5).unwrap();
        oracle.delete(last + 5);
        assert_exact(&e, &oracle, &words, &queries, "reorganised, more, deleted");
    }

    /// 512 B pages, 64 buckets and a 256-triple buffer, fed seeded
    /// documents that all hold `common` until more of its postings lie in
    /// the tail than a 512 B cursor page keeps (85 of 6 B): the engine
    /// and its oracle.
    fn overflowing_engine() -> (SearchEngine, NaiveSearch) {
        use pds_obs::rng::{Rng, SeedableRng, StdRng};
        let flash = Flash::new(pds_flash::FlashGeometry::new(512, 8, 1024));
        let ram = RamBudget::new(64 * 1024);
        let mut e = SearchEngine::new(&flash, &ram, 64, 256, DfStrategy::TwoPass).unwrap();
        let mut oracle = NaiveSearch::new();
        let mut rng = StdRng::seed_from_u64(0x3602);
        while e.num_docs() < 300 || tail_postings(&e, term_hash("common")) <= 85 {
            assert!(e.num_docs() < 2000);
            let mut words = vec!["common".to_string(), format!("tag{}", e.num_docs())];
            for _ in 0..rng.gen_range(3..7) {
                words.push(format!("w{}", rng.gen_range(0..60 * 60) / 60));
            }
            e.index_document(&words.join(" ")).unwrap();
            oracle.index(&words.join(" "));
        }
        (e, oracle)
    }

    #[test]
    fn a_term_whose_tail_postings_overflow_its_page_reads_the_tail_again_from_there() {
        let (e, oracle) = overflowing_engine();
        let common = term_hash("common");
        let b = e.bucket_of(common);
        let tail = reference_tail(&e, b, Some(common)).len() as u64;
        let rereads = reference_cursor_reads(&e, common).0;
        assert!(0 < rereads && rereads < tail, "{rereads} of {tail}");
        // What the walk kept: the postings of the tail pages before the
        // one that did not fit.
        let kept = tail_postings(&e, common) - {
            let pages = reference_tail(&e, b, Some(common));
            let from = pages.len() - rereads as usize;
            let again = pages[from..].iter().flatten().flatten();
            again.filter(|t| e.is_live(t, common)).count()
        };
        assert!(kept <= 85, "{kept}");
        // Hits and scores as the oracle's, and the reads of the df walk,
        // then of the chain and of the tail from the page that did not fit.
        let chain = reference_chain(&e, b).len() as u64;
        let reads = assert_search_and_its_reads(&e, &oracle, &["common"]);
        assert_eq!(reads, reference_df_reads(&e, common) + chain + rereads);
        // As measured (seeded: exact; (11, 5, 1, 79) while a bucket page
        // took the whole 512 B, not a record 8 B short of it, (12, 6, 1,
        // 82) while a stage programmed its last page partial, and (16, 7,
        // 2, 80) when a page repeated the term in every 14-byte triple and
        // the cursor read the head again).
        assert_eq!((reads, tail, rereads, kept), (14, 6, 2, 75));
        // The query's span says what was kept and read again.
        let (_, root) = pds_obs::trace::trace("query", || e.search(&["common"], 10).unwrap());
        let query = root.find("search.query").unwrap();
        assert_eq!(
            (query.attr_u64("search.tail_postings_kept"))
                .zip(query.attr_u64("search.tail_pages_reread")),
            Some((kept as u64, rereads))
        );
    }

    #[test]
    fn a_repeated_keyword_is_walked_once() {
        let (e, oracle) = overflowing_engine();
        let once = assert_search_and_its_reads(&e, &oracle, &["common", "w3"]);
        assert!(once > 0);
        for query in [
            &["common", "common", "w3"][..],
            &["w3", "common", "w3", "common"],
        ] {
            assert_eq!(assert_search_and_its_reads(&e, &oracle, query), once);
            assert_eq!(
                e.search(query, 10).unwrap(),
                e.search(&["common", "w3"], 10).unwrap()
            );
        }
    }

    #[test]
    fn with_every_tail_filter_unknown_a_search_reads_what_the_spans_say() {
        // Every filter unknown, set by hand, the spans kept: every walk
        // reads each tail page whose span holds its bucket. The answers
        // are the oracle's and the reads those of a walk of the spanned
        // pages ([`assert_search_and_its_reads`]), as measured before the
        // tail's pages had term filters (seeded: exact; the first two on
        // 512 B pages one fewer while a bucket page took the whole page,
        // not a record 8 B short of it). Since a stage keeps its last
        // partial page in the buffer the token's tail pages are full, each
        // spanning more buckets, and its stops meet a longer tail: 14, 25,
        // 10, 20, 20, 10 and 15, 27, 11, 22, 22, 11 reads before.
        let queries: [&[&str]; 6] = [
            &["common"],
            &["common", "w3"],
            &["w0"],
            &["w1", "w2"],
            &["tag7", "w10"],
            &["absent"],
        ];
        let (mut e, oracle) = overflowing_engine();
        e.forget_tail_filters();
        let small = queries.map(|q| assert_search_and_its_reads(&e, &oracle, q));
        // The token's sizing on 2 KB pages, mid-ingest and synced.
        use pds_obs::rng::{Rng, SeedableRng, StdRng};
        let flash = Flash::new(pds_flash::FlashGeometry::new(2048, 64, 256));
        let ram = RamBudget::new(64 * 1024);
        let mut e = SearchEngine::new(&flash, &ram, 64, 256, DfStrategy::TwoPass).unwrap();
        let mut oracle = NaiveSearch::new();
        let mut rng = StdRng::seed_from_u64(0x4601);
        for i in 0..1200 {
            let mut words = vec![format!("tag{i}"), "common".to_string()];
            words.extend((0..10).map(|_| format!("w{}", rng.gen_range(0..400 * 400) / 400)));
            e.index_document(&words.join(" ")).unwrap();
            oracle.index(&words.join(" "));
        }
        let mut token = Vec::new();
        for synced in [false, true] {
            if synced {
                e.flush().unwrap();
            }
            e.forget_tail_filters();
            assert!(e.num_tail_pages() > 1);
            token.push(queries.map(|q| assert_search_and_its_reads(&e, &oracle, q)));
        }
        assert_eq!(
            (small, &token[..]),
            (
                [14, 18, 4, 8, 9, 4],
                &[[33, 61, 28, 55, 56, 28], [35, 64, 29, 57, 58, 29]][..]
            )
        );
    }

    #[test]
    fn a_filter_collision_costs_a_read_never_an_answer() {
        // Two words of one bucket (of 16) that set the same three bits of
        // a 512 B page's 168-bit filter: drawn until a pair turns up.
        let bits = 8 * TailTable::filter_len(512);
        let key = |w: &str| {
            let term = term_hash(w);
            let mut probes: Vec<usize> = filter_probes(term, bits).collect();
            probes.sort_unstable();
            (bucket_of(term, 16), probes)
        };
        let mut seen = std::collections::BTreeMap::new();
        let (held, twin) = (0..100_000)
            .map(|i| format!("x{i}"))
            .find_map(|w| seen.insert(key(&w), w.clone()).map(|first| (first, w)))
            .unwrap();
        let (held_term, twin_term) = (term_hash(&held), term_hash(&twin));
        assert_ne!(held_term, twin_term);
        // `held` in one document of ten, `twin` in none; staged pages on
        // the tail that hold `held`, and others whose span holds its
        // bucket but that do not.
        let flash = Flash::new(pds_flash::FlashGeometry::new(512, 8, 1024));
        let ram = RamBudget::new(64 * 1024);
        let mut e = SearchEngine::new(&flash, &ram, 16, 64, DfStrategy::TwoPass).unwrap();
        let mut oracle = NaiveSearch::new();
        let mut index = |e: &mut SearchEngine, text: String| {
            e.index_document(&text).unwrap();
            oracle.index(&text);
        };
        let mut i = 0;
        while i < 120 || e.num_tail_pages() < 4 {
            let words = format!("f{i} g{} h{}", i % 9, i % 23);
            match i % 10 {
                3 => index(&mut e, format!("{held} {words}")),
                _ => index(&mut e, words),
            }
            i += 1;
        }
        e.flush().unwrap();
        let bucket = e.bucket_of(held_term);
        let spanned = reference_tail(&e, bucket, None);
        let holding = |term| {
            let pages = spanned.iter().flatten();
            pages.filter(|p| p.iter().any(|t| t.term == term)).count()
        };
        let with_held = holding(held_term);
        assert!(
            0 < with_held && with_held < spanned.len(),
            "{with_held} of {}",
            spanned.len()
        );
        // The pages that hold `held` let `twin` through as well — a false
        // match, a read that finds nothing — and the others neither.
        assert_eq!(holding(twin_term), 0);
        assert_eq!(reference_tail(&e, bucket, Some(twin_term)).len(), with_held);
        assert_eq!(reference_tail(&e, bucket, Some(held_term)).len(), with_held);
        for query in [
            &[twin.as_str()][..],
            &[held.as_str()],
            &[held.as_str(), twin.as_str()],
        ] {
            assert_search_and_its_reads(&e, &oracle, query);
        }
        // The query's span says how many it passed over.
        let (_, root) = pds_obs::trace::trace("query", || e.search(&[twin.as_str()], 10).unwrap());
        let skipped = root
            .find("search.query")
            .unwrap()
            .attr_u64("search.tail_pages_skipped");
        assert_eq!(skipped, Some((spanned.len() - with_held) as u64));
        // Once a document holds `twin`, it is found among them.
        e.index_document(&twin).unwrap();
        oracle.index(&twin);
        e.flush().unwrap();
        assert_search_and_its_reads(&e, &oracle, &[twin.as_str(), held.as_str()]);
        assert_eq!(e.count_df(twin_term).unwrap(), 1);
    }

    #[test]
    fn a_df_table_that_ran_out_of_room_is_walked_past_for_the_terms_it_lacks() {
        // 400 words over eight buckets on 512 B pages: ≈ 50 terms a
        // bucket, where a head's table holds 21.
        let flash = Flash::new(pds_flash::FlashGeometry::new(512, 8, 1024));
        let ram = RamBudget::new(64 * 1024);
        let mut e = SearchEngine::new(&flash, &ram, 8, 64, DfStrategy::TwoPass).unwrap();
        let mut oracle = NaiveSearch::new();
        let mut rng = {
            use pds_obs::rng::SeedableRng;
            pds_obs::rng::StdRng::seed_from_u64(0xDF)
        };
        // 400 documents and on, until postings are in the buffer, the
        // tail and the chains.
        while e.num_docs() < 400 || e.pending_total == 0 || e.num_tail_pages() == 0 {
            use pds_obs::rng::Rng;
            assert!(e.num_docs() < 1000);
            let words: Vec<String> = (0..6)
                .map(|_| format!("v{}", rng.gen_range(0..400 * 400) / 400))
                .collect();
            e.index_document(&words.join(" ")).unwrap();
            oracle.index(&words.join(" "));
        }
        let words: Vec<String> = (0..400)
            .map(|w| format!("v{w}"))
            .chain(["absent".into()])
            .collect();
        let mid_ingest = assert_counts_and_their_reads(&e, &oracle, &words);
        e.flush().unwrap();
        e.drain().unwrap();
        for b in 0..8 {
            let (entries, complete) = reference_table(&e, b);
            assert_eq!((entries.len(), complete), (max_table_entries(512), false));
        }
        // The tables hold the terms their chains met first: the frequent
        // ones. A term they lack is counted by a walk, exactly.
        let (answered, walked) = assert_counts_and_their_reads(&e, &oracle, &words);
        assert!(answered >= 8 * 21 && walked > 0, "{answered} / {walked}");
        assert!(mid_ingest.0 > 0 && mid_ingest.1 > 0, "{mid_ingest:?}");
        for query in [&["v0"][..], &["v1", "v250"], &["v399", "absent"]] {
            assert_search_and_its_reads(&e, &oracle, query);
        }
        // Reorganised: the tables are rebuilt, and as full.
        e.reorganize().unwrap();
        assert_eq!(
            assert_counts_and_their_reads(&e, &oracle, &words),
            (answered, walked)
        );
    }

    #[test]
    fn after_a_deletion_df_is_walked_until_the_next_reorganisation() {
        let profile = HardwareProfile::test_profile();
        let flash = Flash::new(profile.flash);
        let ram = RamBudget::new(profile.ram_bytes);
        let mut e = SearchEngine::new(&flash, &ram, 8, 64, DfStrategy::TwoPass).unwrap();
        let mut oracle = NaiveSearch::new();
        // 23 terms over eight buckets: every head's table is complete.
        let entry = |i: usize| format!("entry shared topic t{} k{}", i % 7, i % 13);
        for i in 0..400 {
            e.index_document(&entry(i)).unwrap();
            oracle.index(&entry(i));
        }
        let words: Vec<String> = (["shared", "topic", "entry", "absent"].map(String::from))
            .into_iter()
            .chain((0..7).map(|i| format!("t{i}")))
            .chain((0..13).map(|i| format!("k{i}")))
            .collect();
        // Everything in the chains and checkpointed, the tail empty: a
        // recovered engine reads what this one does.
        let settle = |e: &mut SearchEngine| {
            e.flush().unwrap();
            e.drain().unwrap();
            e.flush().unwrap();
            assert_eq!(e.num_tail_pages(), 0);
        };
        settle(&mut e);
        let all = words.len() - 1;
        let check = |e: &SearchEngine, oracle: &NaiveSearch, tables: bool, ctx: &str| {
            let (answered, walked) = assert_counts_and_their_reads(e, oracle, &words);
            assert_eq!(e.unpurged_deletions, !tables, "{ctx}");
            match tables {
                true => assert_eq!(answered, words.len(), "{ctx}"),
                false => assert!(answered == 0 && walked >= all, "{ctx}: {walked}"),
            }
            for query in NOTE_QUERIES {
                assert_search_and_its_reads(e, oracle, query);
            }
        };
        check(&e, &oracle, true, "no deletion");
        // Delete → query: the tables count the document's postings.
        e.delete_document(5).unwrap();
        oracle.delete(5);
        check(&e, &oracle, false, "deleted");
        // Delete → reorganise → query: purged, the tables count again.
        e.reorganize().unwrap();
        check(&e, &oracle, true, "reorganised");
        // Delete → power cycle → query: the replayed tombstones are
        // deletions too — both, though the reorganisation purged one.
        e.delete_document(17).unwrap();
        oracle.delete(17);
        settle(&mut e);
        let manifest = e.manifest();
        let ram2 = RamBudget::new(ram.capacity());
        let (mut recovered, report) =
            SearchEngine::recover(&flash.reboot(), &ram2, &manifest).unwrap();
        assert_eq!((report.tombstones_applied, report.docs_replayed), (2, 0));
        check(&recovered, &oracle, false, "recovered");
        recovered.reorganize().unwrap();
        check(&recovered, &oracle, true, "recovered, reorganised");
        // A power cycle with no deletion since: still the replayed
        // tombstones, and a walk until the next reorganisation.
        settle(&mut recovered);
        let manifest = recovered.manifest();
        let ram3 = RamBudget::new(ram.capacity());
        let (mut again, _) =
            SearchEngine::recover(&recovered.flash.reboot(), &ram3, &manifest).unwrap();
        check(&again, &oracle, false, "recovered twice");
        again.reorganize().unwrap();
        check(&again, &oracle, true, "recovered twice, reorganised");
    }

    #[test]
    fn a_head_whose_df_table_lies_is_a_corrupt_index_never_a_panic() {
        let (mut e, _ram, _) = engine_with_long_chains();
        let term = term_hash("shared");
        let b = e.bucket_of(term);
        let mut page = vec![0u8; e.flash.geometry().page_size];
        let addr = e.index.page_addr(e.heads[b]).unwrap();
        e.flash.read_page(addr, &mut page).unwrap();
        let head = page[PAGE_RECORD].to_vec();
        let (entries, _) = reference_table(&e, b);
        assert!(entries.len() >= 2, "{entries:?}");
        let trailer = head.len() - 2;
        let first = trailer - 8 * usize::from(head[6]) - 12 * entries.len();
        // Two entries swapped; a term twice; an entry count whose bytes
        // reach into the postings.
        let mut swapped = head.clone();
        swapped[first..first + 12].copy_from_slice(&head[first + 12..first + 24]);
        swapped[first + 12..first + 24].copy_from_slice(&head[first..first + 12]);
        let mut twice = head.clone();
        twice.copy_within(first..first + 8, first + 12);
        let mut lying = head.clone();
        lying[trailer..].copy_from_slice(&(0x8000u16 | 0x7FFE).to_le_bytes());
        // A term index past the dictionary (a head that holds its table
        // alone is made to claim a posting for it); a dictionary count
        // whose bytes reach into the postings.
        let mut past = head.clone();
        let postings = u16::from_le_bytes([head[4], head[5]]).max(1);
        past[4..6].copy_from_slice(&postings.to_le_bytes());
        past[PAGE_HEADER + POSTING_LEN - 1] = head[6];
        let mut overlapping = head.clone();
        overlapping[6] = 0xFF;
        for corrupt in [swapped, twice, lying, past, overlapping] {
            e.heads[b] = e.index.append_page(&corrupt).unwrap();
            let err = e.count_df(term).unwrap_err();
            assert!(matches!(err, SearchError::CorruptIndex(_)), "{err}");
            let err = e.search(&["shared"], 10).unwrap_err();
            assert!(matches!(err, SearchError::CorruptIndex(_)), "{err}");
        }
    }

    #[test]
    fn a_chain_of_many_pages_with_tombstones_on_page_boundaries() {
        let profile = HardwareProfile::test_profile();
        let flash = Flash::new(profile.flash);
        let ram = RamBudget::new(profile.ram_bytes);
        let mut e = SearchEngine::new(&flash, &ram, 8, 64, DfStrategy::TwoPass).unwrap();
        let mut oracle = NaiveSearch::new();
        let shared = term_hash("shared");
        let bucket = e.bucket_of(shared);
        // 400 documents at least, and until there are postings in all
        // three places: the buffer, the tail, the chain.
        for i in 0.. {
            if i >= 400 && !e.pending[bucket].is_empty() && e.num_tail_pages() >= 2 {
                break;
            }
            let text = format!("note {i} shared topic t{} k{}", i % 7, i % 13);
            e.index_document(&text).unwrap();
            oracle.index(&text);
        }
        let chain = reference_walk(&e, bucket);
        assert!(chain.len() >= 5, "{} pages", chain.len());
        // Tombstone the documents whose `shared` triple is the last one
        // on its page and the first one on the next: the cursor crosses
        // a page boundary on a deleted document, both ways.
        let of_term = |page: &Vec<Triple>| -> Vec<DocId> {
            (page.iter().filter(|t| t.term == shared))
                .map(|t| t.doc)
                .collect()
        };
        let mut edges = Vec::new();
        // The five newest pages that hold it (a head may hold its df
        // table alone).
        let holding: Vec<Vec<DocId>> = (chain.iter().map(of_term))
            .filter(|docs| !docs.is_empty())
            .take(5)
            .collect();
        assert_eq!(holding.len(), 5);
        for docs in holding {
            edges.extend([docs[0], docs[docs.len() - 1]]);
        }
        edges.dedup();
        let reads = [vec!["shared"], vec!["shared", "t3"], vec!["absent", "k5"]]
            .map(|query| assert_search_and_its_reads(&e, &oracle, &query));
        // As measured (seeded: exact). Of the two tail pages, each walk
        // reads those whose span holds its bucket and whose filter may
        // hold its term, each count reads its chain's head alone, and the
        // cursors read no page the counts kept: neither a tail page nor
        // the head. (19 for the third query when a walk read every tail
        // page its span let through: `absent` is on neither; 29, 38 and 29
        // reads when the cursors read every head again and a page repeated
        // the term in every 14-byte triple; [20, 27, 17] while a page took
        // the whole 512 B, not a record 8 B short of it, and [20, 27, 18]
        // while a stage programmed its last page partial.)
        assert_eq!(reads, [18, 26, 19]);
        for doc in edges {
            e.delete_document(doc).unwrap();
            oracle.delete(doc);
        }
        for query in [
            vec!["shared"],
            vec!["shared", "t3"],
            vec!["t1", "k5", "note"],
        ] {
            assert_search_and_its_reads(&e, &oracle, &query);
        }
        // Flushed and reorganised, the same answers from repacked pages.
        e.reorganize().unwrap();
        for query in [
            vec!["shared"],
            vec!["shared", "t3"],
            vec!["t1", "k5", "note"],
        ] {
            assert_search_and_its_reads(&e, &oracle, &query);
        }
    }

    /// The token's sizing on the token's pages, fed `docs` seeded
    /// documents of ≈ 10 distinct Zipf-ish terms. Returns the engine, how
    /// many triples went to each bucket, and the most page reads and page
    /// programs any one `index_document` cost.
    fn token_sized_engine(docs: usize) -> (Flash, SearchEngine, Vec<usize>, (u64, u64)) {
        token_sized_engine_on(docs, false)
    }

    /// [`token_sized_engine`], its budget ballasted or not
    /// ([`SearchEngine::drain_only_ballast`]).
    fn token_sized_engine_on(
        docs: usize,
        ballasted: bool,
    ) -> (Flash, SearchEngine, Vec<usize>, (u64, u64)) {
        use pds_obs::rng::{Rng, SeedableRng, StdRng};
        let flash = Flash::new(pds_flash::FlashGeometry::new(2048, 64, 256));
        let ram = RamBudget::new(64 * 1024);
        let mut e = SearchEngine::new(&flash, &ram, 64, 256, DfStrategy::TwoPass).unwrap();
        let _ballast = ballasted.then(|| e.drain_only_ballast());
        let mut rng = StdRng::seed_from_u64(0x24C0);
        let mut per_bucket = vec![0usize; 64];
        let mut worst = (0, 0);
        for i in 0..docs {
            let mut words = vec![format!("tag{i}"), "common".to_string()];
            words.extend((0..10).map(|_| format!("w{}", rng.gen_range(0..400 * 400) / 400)));
            let mut terms: Vec<u64> = words.iter().map(|w| term_hash(w)).collect();
            terms.sort_unstable();
            terms.dedup();
            for term in terms {
                per_bucket[e.bucket_of(term)] += 1;
            }
            let before = flash.stats();
            e.index_document(&words.join(" ")).unwrap();
            let io = flash.stats() - before;
            worst = (worst.0.max(io.page_reads), worst.1.max(io.page_programs));
        }
        (flash, e, per_bucket, worst)
    }

    #[test]
    fn a_drain_stalls_one_ingest_by_a_bounded_amount() {
        let (_flash, e, _, (reads, programs)) = token_sized_engine(2400);
        let cap = triples_per_page(2048);
        // The longest tail a drain meets: one short of its length, plus
        // the buffer just staged.
        let tail = 64 / 2 - 1 + 256usize.div_ceil(cap);
        // The gather: the buffer, and as many more triples as the RAM
        // left beside the residents and the drain's own reservation holds
        // (nothing else is held between documents).
        let free = e.ram.available() - drain_bytes(2048, 64);
        let gather = 256 + free / std::mem::size_of::<Triple>();
        // Two consecutive windows hold more than one gather, so there
        // are fewer than two passes per gather-full of tail triples (a
        // page holds at most a posting of one term per 7 bytes); the
        // tally `stage()` kept sizes the windows, so no pass counts, and
        // each bucket's head is read once.
        let most = (2048 - PAGE_HEADER - TABLE_TRAILER - TERM_LEN) / POSTING_LEN;
        let passes = 2 * (tail * most).div_ceil(gather);
        assert!(reads as usize <= passes * tail + 64, "{reads} reads");
        // The staged buffer; per bucket a topped-up head and the page
        // the top-up spilled into; the tail's triples in full pages; the
        // document's own page at most. (A head that holds its table
        // alone — when the triples left fill no page but do not fit
        // beside the table — is one more program for its bucket, rarely
        // enough that the bound holds.)
        assert!(
            programs as usize <= 2 + 2 * 64 + tail + 1,
            "{programs} programs"
        );
        // As measured on this corpus (seeded: exact). Each of the two
        // gathering passes reads only the pages whose span meets its
        // window. A drain that gathers into the buffer alone stalls the
        // ingest by 800 reads and 100 programs
        // (`a_drain_gathers_the_same_chains_on_any_budget`). With a
        // counting pass over the whole tail and 14-byte triples, 144 reads
        // and 109 programs; 112 and 103 (380 and 104 gathering into the
        // buffer alone) while a stage programmed its last page partial:
        // the tail's pages are full since, more triples a pass reads past.
        assert_eq!((reads, programs), (128, 99));
    }

    #[test]
    fn every_head_a_search_meets_is_read_once() {
        // A search reads each page of each keyword's walk once: the df
        // walk reads the head for its table and keeps the head's postings
        // of the keyword behind its tail postings, so the cursor starts
        // below the head. (A cursor used to read the head again, as its
        // first chain page.)
        let (flash, mut e, _, _) = token_sized_engine(600);
        let queries: [&[&str]; 3] = [&["w0"], &["w17", "tag5"], &["w1", "w2", "w3", "w4"]];
        for synced in [false, true] {
            if synced {
                e.flush().unwrap();
            }
            for query in queries {
                let mut buckets: Vec<usize> =
                    query.iter().map(|w| e.bucket_of(term_hash(w))).collect();
                buckets.sort_unstable();
                buckets.dedup();
                assert_eq!(
                    buckets.len(),
                    query.len(),
                    "{query:?}: one keyword a bucket"
                );
                let mut want = 0;
                for word in query {
                    let term = term_hash(word);
                    let b = e.bucket_of(term);
                    let chain = reference_chain(&e, b).len() as u64;
                    assert!(chain > 0 && table_answers(&e, term), "{word}");
                    assert!(e.count_df(term).unwrap() > 0, "{word}");
                    assert_eq!(reference_cursor_reads(&e, term), (0, chain - 1), "{word}");
                    want += reference_tail(&e, b, Some(term)).len() as u64 + chain;
                }
                let before = flash.stats();
                e.search(query, 10).unwrap();
                assert_eq!((flash.stats() - before).page_reads, want, "{query:?}");
            }
        }
    }

    /// The ranked hits of `query`, scores as bits.
    fn hit_bits(e: &SearchEngine, query: &[&str]) -> Vec<(DocId, u64)> {
        let hits = e.search(query, 10).unwrap();
        hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
    }

    #[test]
    fn a_drain_gathers_the_same_chains_on_any_budget() {
        // Each corpus twice: on a budget whose ballast leaves a drain
        // nothing to gather into beyond the insertion buffer, and on the
        // roomy one. The chains and the answers are the same; the roomy
        // drains read fewer pages and program no more.
        let queries: [&[&str]; 4] = [
            &["common"],
            &["w0", "w17"],
            &["tag5", "w3", "absent"],
            &["h49", "h119", "w3"],
        ];
        for skewed in [false, true] {
            let corpus = |ballasted| match skewed {
                false => {
                    let (_, e, _, worst) = token_sized_engine_on(2400, ballasted);
                    (e, worst)
                }
                true => (skewed_engine_on(ballasted).0, (0, 0)),
            };
            let (mut tight, tight_worst) = corpus(true);
            let (mut roomy, _) = corpus(false);
            let (t, r) = (tight.flash.stats(), roomy.flash.stats());
            let ctx = format!("skewed {skewed}: {r:?} against {t:?}");
            assert!(r.page_programs <= t.page_programs, "{ctx}");
            assert!(r.page_reads < t.page_reads, "{ctx}");
            if !skewed {
                // The stall of a drain that gathers into the buffer alone
                // (411 and 110 with a counting pass and 14-byte triples,
                // 380 and 104 while a stage programmed its last page
                // partial).
                assert_eq!(tight_worst, (800, 100));
            }
            for settled in [false, true] {
                if settled {
                    for e in [&mut tight, &mut roomy] {
                        e.flush().unwrap();
                        e.drain().unwrap();
                    }
                }
                assert_eq!(chain_digest(&tight), chain_digest(&roomy), "{ctx}");
                for query in queries {
                    assert_eq!(
                        hit_bits(&tight, query),
                        hit_bits(&roomy, query),
                        "{query:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_documents_tf_map_is_charged_by_its_distinct_terms() {
        // 2 000 distinct terms, and a buffer that takes them all: the
        // ingest holds the tf map and nothing else.
        let text: Vec<String> = (0..2000).map(|i| format!("t{i} t{i}")).collect();
        let text = text.join(" ");
        let flash = Flash::new(pds_flash::FlashGeometry::new(2048, 64, 256));
        let ram = RamBudget::new(128 * 1024);
        let mut e = SearchEngine::new(&flash, &ram, 64, 2048, DfStrategy::TwoPass).unwrap();
        let base = ram.used();
        ram.reset_high_water();
        e.index_document(&text).unwrap();
        assert!(
            ram.high_water() - base >= 2000 * TF_ENTRY_BYTES,
            "{}",
            ram.high_water()
        );
        assert_eq!(ram.used(), base);
        // A budget with room for fewer entries than the document has
        // terms refuses it.
        let ram = RamBudget::new(128 * 1024);
        let mut e = SearchEngine::new(&flash, &ram, 64, 2048, DfStrategy::TwoPass).unwrap();
        let _ballast = ram
            .reserve(ram.available() - 1999 * TF_ENTRY_BYTES)
            .unwrap();
        let err = e.index_document(&text).unwrap_err();
        assert!(matches!(err, SearchError::Ram(_)), "{err}");
    }

    /// SHA-256 of every bucket's chain as the engine answers from it: per
    /// bucket, its triples oldest to newest as `(term, doc, tf)`, then its
    /// head's df entries and `complete` flag. Neither page boundaries nor
    /// log positions enter it.
    fn chain_digest(e: &SearchEngine) -> String {
        let mut hash = pds_crypto::Sha256::new();
        for b in 0..e.num_buckets {
            let triples: Vec<Triple> = reference_chain(e, b).into_iter().rev().flatten().collect();
            let (entries, complete) = reference_table(e, b);
            hash.update(&(b as u32).to_le_bytes());
            hash.update(&(triples.len() as u32).to_le_bytes());
            for t in triples {
                hash.update(&t.term.to_le_bytes());
                hash.update(&t.doc.to_le_bytes());
                hash.update(&t.tf.to_le_bytes());
            }
            hash.update(&(entries.len() as u32).to_le_bytes());
            for (term, df) in entries {
                hash.update(&term.to_le_bytes());
                hash.update(&df.to_le_bytes());
            }
            hash.update(&[u8::from(complete)]);
        }
        hash.finalize().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// 300 seeded documents on 512 B pages, 64 buckets and a 256-triple
    /// buffer, half of each document's terms in bucket 0. Returns the
    /// engine and the most triples one drain moved into one chain: more
    /// than the buffer holds.
    fn skewed_engine() -> (SearchEngine, usize) {
        skewed_engine_on(false)
    }

    /// [`skewed_engine`], its budget ballasted or not
    /// ([`SearchEngine::drain_only_ballast`]).
    fn skewed_engine_on(ballasted: bool) -> (SearchEngine, usize) {
        use pds_obs::rng::{Rng, SeedableRng, StdRng};
        let flash = Flash::new(pds_flash::FlashGeometry::new(512, 8, 1024));
        let ram = RamBudget::new(64 * 1024);
        let mut e = SearchEngine::new(&flash, &ram, 64, 256, DfStrategy::TwoPass).unwrap();
        let _ballast = ballasted.then(|| e.drain_only_ballast());
        let hot: Vec<String> = (0..)
            .map(|k| format!("h{k}"))
            .filter(|w| bucket_of(term_hash(w), 64) == 0)
            .take(6)
            .collect();
        let mut rng = StdRng::seed_from_u64(0x5CE);
        let chained = |e: &SearchEngine| -> Vec<usize> {
            (0..64)
                .map(|b| reference_chain(e, b).iter().map(Vec::len).sum())
                .collect()
        };
        let (mut before, mut most) = (chained(&e), 0);
        for i in 0..300 {
            let mut words = hot.clone();
            words.push(format!("tag{i}"));
            words.extend((0..5).map(|_| format!("w{}", rng.gen_range(0..400 * 400) / 400)));
            let tail_start = e.tail_start;
            e.index_document(&words.join(" ")).unwrap();
            if e.tail_start != tail_start {
                let after = chained(&e);
                most = (after.iter().zip(&before)).fold(most, |m, (a, b)| m.max(a - b));
                before = after;
            }
        }
        (e, most)
    }

    #[test]
    fn drained_chains_are_pinned() {
        // The chains a drain leaves are pinned, not the passes it makes:
        // as ingest left them, then with the rest drained after a sync.
        // (The skewed corpus as ingest left it is the one digest that
        // moved when a page began naming each term once: on 512 B pages a
        // buffer-full of its six hot terms stages into fewer pages, so
        // its drains come at other documents. What a drain of the whole
        // tail leaves is as it was. The three as-ingest-left digests moved
        // again when a stage began keeping its last partial page in the
        // buffer, and the three after a whole drain did not.)
        let mut digests = Vec::new();
        for docs in [600, 2400] {
            let (_flash, mut e, _, _) = token_sized_engine(docs);
            digests.push(chain_digest(&e));
            e.flush().unwrap();
            e.drain().unwrap();
            digests.push(chain_digest(&e));
        }
        let (mut e, most) = skewed_engine();
        assert!(most > 256, "{most} triples");
        digests.push(chain_digest(&e));
        e.flush().unwrap();
        e.drain().unwrap();
        digests.push(chain_digest(&e));
        assert_eq!(
            digests,
            [
                "ec0181ce563284ce677afa2f412a1469b095ebf0257ebdb3eb31d112336f52b3",
                "ba16647bbe0c94ce4c0b4fc5ffb944f240033f06e98ad7d0199458b8f95508d3",
                "1ff2d8d483759eca41dc529fee9349722f14ae29a490ffa6a5ddc7134ae547d6",
                "6bb8a1dfe5bf0c8e2cf357f657a93a8b70c4c4f728bea103d049da21532d6f96",
                "fe816cd2f56458cbf4a1ddde0e667758887d33a4b62a8242770a53d693df22dc",
                "7a021902365eda590717053eb332d785b00b5cf1d963a4fe2d532328df2b4b67",
            ]
        );
    }

    #[test]
    fn index_pages_are_programmed_full_at_n_and_4n() {
        for docs in [600, 2400] {
            let (_flash, mut e, per_bucket, _) = token_sized_engine(docs);
            e.flush().unwrap();
            let triples: usize = per_bucket.iter().sum();
            let cap = triples_per_page(2048);
            let pages = e.num_index_pages() as usize;
            // Per 1 000 triples: 1 000 / 145 ≈ 7 pages if every page
            // were written once and full, ≈ 115 when each buffer-full
            // evicted one bucket. Staging costs ≈ 8 (two pages per 256
            // triples) and a drain at most a head page per bucket and
            // the drained triples in full pages, every 32 staged pages.
            let per_1000 = pages * 1000 / triples;
            assert!(
                per_1000 <= 35,
                "{docs} docs: {per_1000} pages per 1000 triples"
            );
            // Every chain page but the head is full — less than a new
            // term's 15 bytes left, or 255 terms — or took every triple
            // left when they filled no page but did not fit beside the
            // bucket's df table (which only grows).
            for b in 0..64 {
                let table = reference_table(&e, b).0.len() * DF_ENTRY_LEN;
                let chain = reference_chain(&e, b);
                for page in chain.iter().skip(1) {
                    let (used, terms) = used_bytes(page);
                    let page_bytes = bucket_bytes(2048);
                    assert!(
                        used + POSTING_LEN + TERM_LEN > page_bytes
                            || terms == MAX_TERMS
                            || used + table > page_bytes,
                        "{docs} docs, bucket {b}: {} triples, {used} bytes",
                        page.len()
                    );
                    assert!(page.len() >= cap.min(table), "{docs} docs, bucket {b}");
                }
            }
        }
    }

    #[test]
    fn a_walk_reads_the_postings_in_full_pages_and_a_bounded_tail() {
        let words = ["common", "w0", "w17", "tag5", "absent"];
        let mut measured = Vec::new();
        for docs in [600, 2400] {
            let (flash, mut e, per_bucket, _) = token_sized_engine(docs);
            for synced in [false, true] {
                if synced {
                    e.flush().unwrap();
                }
                let tail_pages = e.num_tail_pages() as usize;
                assert!(tail_pages <= 64 / 2 + 1);
                let (mut tail_reads, mut reads, mut df_reads) = (0, 0, 0);
                for word in words {
                    let term = term_hash(word);
                    let b = e.bucket_of(term);
                    let before = flash.stats();
                    // A cursor that walks all the term's walk: nothing kept.
                    let walk = Walk::of_term(&e, term, e.index.num_pages());
                    let mut cursor =
                        ChainCursor::new(&e, term, 1.0, vec![0; 2048], 0, walk).unwrap();
                    while cursor.current_doc().is_some() {
                        cursor.take().unwrap();
                    }
                    let walk = (flash.stats() - before).page_reads;
                    assert_eq!(walk, reference_reads(&e, term), "{docs} docs, {word}");
                    // The bucket's postings in pages full but the head's
                    // or fuller than a head beside its table, and the tail
                    // pages whose span holds the bucket and whose filter
                    // may hold the term.
                    let chain = reference_chain(&e, b).len();
                    let table = reference_table(&e, b).0.len() * DF_ENTRY_LEN;
                    let room = (bucket_bytes(2048) - PAGE_HEADER - TABLE_TRAILER - table) / 15;
                    assert!(
                        chain <= per_bucket[b].div_ceil(room + 1) + 1,
                        "{docs} docs, {word}"
                    );
                    tail_reads += reference_tail(&e, b, Some(term)).len();
                    reads += walk as usize;
                    // Its df: those tail pages and the chain's head.
                    let before = flash.stats();
                    e.count_df(term).unwrap();
                    let count = (flash.stats() - before).page_reads;
                    assert_eq!(count, reference_df_reads(&e, term), "{docs} docs, {word}");
                    assert!(table_answers(&e, term), "{docs} docs, {word}");
                    df_reads += count as usize;
                }
                measured.push((tail_pages * words.len(), tail_reads, reads, df_reads));
            }
        }
        // As measured (seeded: exact): per corpus and sync state, the
        // tail pages the five walks would read if each read the whole
        // tail, those they do read, their page reads in all, and those of
        // the five df counts: a span rules out half the tail and a filter
        // most of the rest — `common`, in every document, is on every page
        // its span lets through — and a count reads the chain's head
        // alone. (The walks read 60, 65, 10 and 15 tail pages when only
        // the spans ruled pages out, 66, 71, 30 and 35 pages in all; 68,
        // 73, 46 and 51 when a page repeated the term in every 14-byte
        // triple; 20, 24, 5 and 6 tail pages with eight filter bits a
        // triple and five a term; (120, 20, 26, 25), (125, 22, 28, 27),
        // (20, 6, 26, 11) and (25, 7, 27, 12) while a stage programmed its
        // last page partial, the 2 400 documents' tail then 4 pages long.)
        assert_eq!(
            measured,
            [
                (65, 20, 27, 25),
                (70, 21, 28, 26),
                (115, 44, 62, 49),
                (125, 46, 64, 51)
            ]
        );
    }

    /// An engine of four buckets, flushed and drained, whose longest
    /// chain is at least 16 pages: the engine, its budget and that
    /// chain's length.
    fn engine_with_long_chains() -> (SearchEngine, RamBudget, usize) {
        let profile = HardwareProfile::test_profile();
        let flash = Flash::new(profile.flash);
        let ram = RamBudget::new(profile.ram_bytes);
        let mut e = SearchEngine::new(&flash, &ram, 4, 64, DfStrategy::TwoPass).unwrap();
        for i in 0..600 {
            e.index_document(&format!("note {i} shared topic t{}", i % 7))
                .unwrap();
        }
        e.flush().unwrap();
        e.drain().unwrap();
        let longest = (0..4).map(|b| reference_chain(&e, b).len()).max().unwrap();
        assert!(longest >= 16, "{longest} pages");
        (e, ram, longest)
    }

    #[test]
    fn reorganize_charges_the_chain_list_it_holds() {
        let (mut e, ram, longest) = engine_with_long_chains();
        let before = e.search(&["shared", "t3"], 10).unwrap();
        // A budget that admits the pass's two pages, its df table and the
        // heads-to-be but not the list of the longest chain's page indexes.
        let page = e.flash.geometry().page_size;
        let pass = 2 * page + table_bytes(page) + 4 * e.num_buckets;
        let ballast = ram.reserve(ram.available() - pass - 4 * (longest - 1));
        let err = e.reorganize().unwrap_err();
        assert!(matches!(err, SearchError::Ram(_)), "{err}");
        // The old index stands, and with four more bytes the pass runs.
        drop(ballast);
        assert_eq!(e.search(&["shared", "t3"], 10).unwrap(), before);
        let ballast = ram.reserve(ram.available() - pass - 4 * longest);
        e.reorganize().unwrap();
        drop(ballast);
        assert_eq!(e.search(&["shared", "t3"], 10).unwrap(), before);
    }

    #[test]
    fn reorganize_charges_the_heads_to_be_before_it_writes() {
        let (mut e, ram, _) = engine_with_long_chains();
        let before = e.search(&["shared", "t3"], 10).unwrap();
        let (free, programs) = (e.flash.free_blocks(), e.flash.stats().page_programs);
        // The pass's two pages, one head table short.
        let page = e.flash.geometry().page_size;
        let ballast = ram.reserve(ram.available() - 2 * page);
        let err = e.reorganize().unwrap_err();
        assert!(matches!(err, SearchError::Ram(_)), "{err}");
        assert_eq!(e.flash.stats().page_programs, programs, "nothing written");
        assert_eq!(e.flash.free_blocks(), free, "no block claimed");
        drop(ballast);
        assert_eq!(e.search(&["shared", "t3"], 10).unwrap(), before);
    }

    /// Blocks held by the engine's four logs.
    fn held_blocks(e: &SearchEngine) -> usize {
        let m = e.manifest();
        [
            m.doc_blocks,
            m.tombstone_blocks,
            m.index_blocks,
            m.checkpoint_blocks,
        ]
        .iter()
        .map(Vec::len)
        .sum()
    }

    /// Document `i` of the failed-drain corpus.
    fn note(i: usize) -> String {
        format!("note {i} shared topic t{} k{}", i % 7, i % 13)
    }

    const NOTE_QUERIES: [&[&str]; 3] = [&["shared"], &["shared", "t3"], &["t1", "k5", "note"]];

    /// An engine whose drain has just failed for want of blocks: the
    /// tail run past its length by syncs (they never drain), on a log
    /// whose last block has room for some of the drain's programs but not
    /// all of them. Returns the engine, its oracle, the blocks held back,
    /// the documents indexed and the index pages before the drain.
    fn engine_after_a_failed_drain() -> (Flash, SearchEngine, NaiveSearch, Vec<BlockId>, usize, u32)
    {
        let flash = Flash::new(pds_flash::FlashGeometry::new(512, 4, 512));
        let ram = RamBudget::new(32 * 1024);
        let mut e = SearchEngine::new(&flash, &ram, 16, 64, DfStrategy::TwoPass).unwrap();
        let mut oracle = NaiveSearch::new();
        let mut i = 0;
        while i < 150 || !e.tail_is_due() || e.num_index_pages().is_multiple_of(4) {
            e.index_document(&note(i)).unwrap();
            oracle.index(&note(i));
            if i >= 150 {
                e.flush().unwrap();
            }
            i += 1;
        }
        let ballast: Vec<_> = std::iter::from_fn(|| flash.alloc_block().ok()).collect();
        let (heads, tail_start, pages) = (e.heads.clone(), e.tail_start, e.num_index_pages());
        let err = e.drain().unwrap_err();
        assert!(matches!(err, SearchError::Flash(_)), "{err}");
        assert!(
            e.num_index_pages() > pages,
            "the drain must have programmed"
        );
        assert_eq!(
            (&e.heads, e.tail_start, e.pending_total),
            (&heads, tail_start, 0)
        );
        // Every block is free, held by one of the engine's logs or held
        // back: what the drain claimed is in the index log.
        assert_eq!(
            flash.free_blocks() + held_blocks(&e) + ballast.len(),
            flash.geometry().num_blocks()
        );
        (flash, e, oracle, ballast, i, pages)
    }

    #[test]
    fn a_failed_drain_leaves_the_previous_heads_and_tail_standing() {
        let (flash, mut e, mut oracle, ballast, i, _) = engine_after_a_failed_drain();
        let tail_start = e.tail_start;
        for query in NOTE_QUERIES {
            let got = e.search(query, 10).unwrap();
            let want = oracle.search(query, 10);
            assert_eq!(
                got.iter().map(|h| h.doc).collect::<Vec<_>>(),
                want.iter().map(|h| h.doc).collect::<Vec<_>>(),
                "{query:?}"
            );
        }
        // With blocks to write to, the next document's drain goes
        // through, over the garbage the failed one left among the tail.
        for b in ballast {
            flash.free_block(b);
        }
        e.index_document(&note(i)).unwrap();
        oracle.index(&note(i));
        assert!(e.tail_start > tail_start && !e.tail_is_due());
        for query in NOTE_QUERIES {
            assert_search_and_its_reads(&e, &oracle, query);
        }
    }

    #[test]
    fn a_failed_drains_pages_are_skipped_unread() {
        let (_flash, e, oracle, _ballast, _, pages) = engine_after_a_failed_drain();
        // What the drain programmed is noted as holding nothing, as far
        // as the span table reaches...
        let in_table = |p: &u32| ((p - e.tail_start) as usize) < e.tail.spans.len();
        let garbage: Vec<u32> = (pages..e.num_index_pages()).filter(in_table).collect();
        assert!(!garbage.is_empty());
        for &page in &garbage {
            assert_eq!(e.span(page), Span::NOTHING, "page {page}");
        }
        // ...and no walk reads it: the model reads a page a failed drain
        // left only past the table.
        for query in NOTE_QUERIES {
            assert_search_and_its_reads(&e, &oracle, query);
        }
    }

    #[test]
    fn after_a_wake_every_walk_and_the_next_drain_read_as_before() {
        let (flash, mut e, _, _) = token_sized_engine(600);
        e.flush().unwrap();
        let tail = e.num_tail_pages();
        assert!(tail > 1, "{tail} pages");
        let ram = RamBudget::new(64 * 1024);
        let (mut woken, report) =
            SearchEngine::recover(&flash.reboot(), &ram, &e.manifest()).unwrap();
        assert_eq!(
            (report.index_pages_kept, report.docs_replayed),
            (e.num_index_pages(), 0)
        );
        assert_eq!(woken.num_tail_pages(), tail);
        let reads = |e: &SearchEngine, term: u64| {
            let before = e.flash.stats();
            let df = e.count_df(term).unwrap();
            (df, (e.flash.stats() - before).page_reads)
        };
        // The wake read the kept tail once and noted every page: each
        // count reads the tail pages its spans and filters let through,
        // then the chain's head, as the engine that kept running does,
        // and a query answers alike.
        let mut counted = Vec::new();
        for word in ["common", "w0", "w17", "tag5", "absent"] {
            let term = term_hash(word);
            let (df, kept) = reads(&e, term);
            assert_eq!(kept, reference_df_reads(&e, term), "{word}");
            assert_eq!(reads(&woken, term), (df, kept), "{word}");
            counted.push((df, kept));
            assert_eq!(
                woken.search(&[word, "common"], 10).unwrap(),
                e.search(&[word, "common"], 10).unwrap()
            );
        }
        // As measured (seeded: exact): df and reads per word. While a wake
        // left the tail unknown, each count after it read every kept tail
        // page and the head, 15 reads.
        assert_eq!(counted, [(600, 15), (21, 4), (8, 4), (1, 1), (0, 2)]);
        // A drain right after the wake: its tally is the one `stage()`
        // kept, so it reads and programs what the other engine's does —
        // no counting pass first.
        let drain = |e: &mut SearchEngine| {
            let before = e.flash.stats();
            e.drain().unwrap();
            let io = e.flash.stats() - before;
            (io.page_reads, io.page_programs)
        };
        assert_eq!(drain(&mut woken), drain(&mut e));
        assert_eq!(
            woken.search(&["w0", "common", "tag5"], 10).unwrap(),
            e.search(&["w0", "common", "tag5"], 10).unwrap()
        );
    }

    #[test]
    fn a_failed_reorganize_returns_the_blocks_of_its_new_log() {
        let profile = HardwareProfile::test_profile();
        let flash = Flash::new(profile.flash);
        let ram = RamBudget::new(profile.ram_bytes);
        let mut e = SearchEngine::new(&flash, &ram, 4, 64, DfStrategy::TwoPass).unwrap();
        for i in 0..600 {
            e.index_document(&note(i)).unwrap();
        }
        // Everything in the chains and checkpointed: the reorganisation
        // programs nothing before its new log.
        e.flush().unwrap();
        e.drain().unwrap();
        e.flush().unwrap();
        let total = flash.geometry().num_blocks();
        assert_eq!(flash.free_blocks() + held_blocks(&e), total);
        let before = e.search(&["shared", "t3"], 10).unwrap();
        // One free block: the new log claims it and runs out in the next.
        let mut ballast: Vec<_> = std::iter::from_fn(|| flash.alloc_block().ok()).collect();
        flash.free_block(ballast.pop().unwrap());
        let err = e.reorganize().unwrap_err();
        assert!(matches!(err, SearchError::Flash(_)), "{err}");
        assert_eq!(flash.free_blocks(), 1, "the new log's block is back");
        assert_eq!(flash.free_blocks() + held_blocks(&e) + ballast.len(), total);
        assert_eq!(e.search(&["shared", "t3"], 10).unwrap(), before);
        for b in ballast {
            flash.free_block(b);
        }
        e.reorganize().unwrap();
        assert_eq!(flash.free_blocks() + held_blocks(&e), total);
        assert_eq!(e.search(&["shared", "t3"], 10).unwrap(), before);
    }

    #[test]
    fn many_documents_exact_top_n() {
        let profile = HardwareProfile::test_profile();
        let flash = Flash::new(profile.flash);
        let ram = RamBudget::new(profile.ram_bytes);
        let mut e = SearchEngine::new(&flash, &ram, 32, 128, DfStrategy::TwoPass).unwrap();
        let mut oracle = NaiveSearch::new();
        for i in 0..300 {
            let text = format!(
                "entry {i} topic t{} keyword k{} shared common",
                i % 7,
                i % 13
            );
            e.index_document(&text).unwrap();
            oracle.index(&text);
        }
        for query in [vec!["shared"], vec!["t3", "k5"], vec!["common", "t1"]] {
            let hits = e.search(&query, 10).unwrap();
            let expected = oracle.search(&query, 10);
            assert_eq!(
                hits.iter().map(|h| h.doc).collect::<Vec<_>>(),
                expected.iter().map(|h| h.doc).collect::<Vec<_>>(),
                "query {query:?}"
            );
        }
    }
}
