//! The embedded search engine.
//!
//! Storage side: a RAM hash table of bucket heads over *chained hash
//! buckets* in flash (see [`crate::triple`] for the page layout), fed by a
//! small RAM insertion buffer through the *tail* of the index log. Query
//! side: one backward cursor per query keyword, merged on descending
//! docid, scoring TF-IDF in pipeline into a bounded top-N heap. RAM use is
//! enforced end-to-end through [`pds_mcu::RamBudget`].
//!
//! ## The index log: chains below, tail above
//!
//! NAND programs whole pages, and a program costs eight reads, so a page
//! is worth writing only full. The insertion buffer holds too few triples
//! to fill a page *per bucket*; flushed bucket by bucket it would program
//! pages a few percent full and make every chain as many pages long. So
//! the buffer is flushed **whole**: all of it, bucket after bucket in
//! insertion order, into full *staged* pages appended to the index log.
//! The pages past `tail_start` — the log's tail — are those staged pages:
//! a sequential log absorbing inserts, the first half of the tutorial's
//! recipe. The second half, "timely reorganise", is the **drain**: when
//! the tail reaches `num_buckets / 2` pages (half a page per bucket) it is
//! read back in passes, each gathering into the emptied insertion buffer
//! as many consecutive buckets as fit, and every bucket's triples are
//! appended to its chain *topping up the head*: a partial head page is
//! re-read and programmed again with the new triples behind its own, so
//! every chain page but the head is full. `(heads, tail_start)` change
//! together after the drain's last program; until then the tail and the
//! old heads stand. Staged pages that were drained and head pages that
//! were superseded stay in the log as garbage until
//! [`reorganize`](SearchEngine::reorganize) rewrites it.
//!
//! With one level, a walk reads `N / (2 · cap)` pages whatever the bucket
//! count (`N` triples indexed, `cap` the buffer: fewer buckets buy denser
//! pages and proportionally longer chains). With the tail it reads the
//! bucket's postings in full pages, plus the staged pages that can hold
//! the bucket.
//!
//! ## The tail's bucket spans
//!
//! A staged page is filled bucket after bucket in ascending order, so
//! every triple on it belongs to a bucket between those of its first and
//! its last triple: its *span*. The engine keeps each tail page's span in
//! RAM, 4 bytes a page, in a table reserved once beside the heads and as
//! long as the longest tail a drain meets (`num_buckets / 2 − 1` pages
//! plus a buffer-full: 33 entries at `(64, 256)` on 2 KB pages).
//! `stage()` notes the span of each page from the image it has just
//! laid out — no read. A walk, and each gathering pass of a drain, reads
//! only the tail pages whose span meets its bucket (its window of
//! buckets); the drain's counting pass still reads them all. An entry
//! that is not known — a tail page past the table, or any page of the
//! tail a recovery kept, which it does not read — means "read the page",
//! and the counting pass notes what it finds, so a drain right after a
//! recovery skips too. What a failed drain programmed inside the tail is
//! noted as holding nothing. Reading a page is never wrong: the `STAGED`
//! mark is still checked on every page read.
//!
//! ## df from the chain heads
//!
//! TF-IDF needs each query keyword's df before its first score. The
//! drain, which reads every head it extends anyway, has the new head
//! carry its bucket's *df table* (see [`crate::triple`]): per term of the
//! chain, its postings there. So `count_df` counts the keyword's pending
//! triples and the tail pages that can hold its bucket, as a walk does,
//! and reads one page of the chain — its head — where a walk reads all
//! of it; `reorganize` writes the tables of the chains it repacks. The
//! chain is walked only when its table cannot answer:
//!
//! - the table ran out of entries before the term came (a bucket of more
//!   terms than half a page holds entries);
//! - a document was deleted since the last `reorganize` — a table counts
//!   postings, live or not — and a recovery counts every tombstone it
//!   replays as such a deletion.
//!
//! A head keeps the table's room: its triples are as many as fit beside
//! it, so a page below a head is full, or took every triple that was
//! left when they filled no page but did not fit beside the table (the
//! head then holds the table alone).

use pds_flash::{Flash, FlashError, LogWriter};
use pds_mcu::{RamBudget, RamError, TopN};

mod recovery;

pub use recovery::{EngineManifest, EngineRecovery, RebuildReason};

use crate::docs::DocStore;
use crate::tokenize::{term_hash, tokenize};
use crate::triple::{
    fill_page, head_room, max_table_entries, put_table, triples_per_page, BucketPage, DocId,
    Triple, DF_ENTRY_LEN, NO_PREV, STAGED, TABLE_TRAILER,
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
    /// Count df before scoring: each query keyword's pending triples,
    /// the tail pages that can hold its bucket, and the df table its
    /// chain's head carries — one page of the chain where scoring reads
    /// all of it (the whole chain only when the table cannot answer: a
    /// deletion since the last reorganisation, or a term the table had
    /// no room for). Zero additional query RAM.
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
    /// The index log (raw bucket pages, append-only).
    index: LogWriter,
    /// Where the tail of `index` starts: the pages from here on are
    /// staged pages not yet drained into the chains (module docs).
    tail_start: u32,
    /// The bucket span of each tail page, `spans[i]` that of page
    /// `tail_start + i` (module docs): as many entries as a tail holds
    /// when a drain meets it, reserved once and filled in place.
    spans: Vec<Span>,
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

/// Tail pages at which the tail is drained: half a page per bucket.
fn drain_length(num_buckets: usize) -> usize {
    (num_buckets / 2).max(1)
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
    /// Not known (after a recovery, past the table's end): read the page.
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

/// Note the span of the `i`-th tail page; past the table's end it stays
/// unknown.
fn set_span(spans: &mut [Span], i: u32, span: Span) {
    if let Some(entry) = spans.get_mut(i as usize) {
        *entry = span;
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
        // Charge the permanent RAM residents: bucket heads, the tail's
        // spans and the insertion buffer.
        let head_bytes = num_buckets * 4;
        // The longest tail a drain meets: one page short of its length,
        // plus a buffer-full just staged.
        let per_page = triples_per_page(flash.geometry().page_size).max(1);
        let max_tail = drain_length(num_buckets) - 1 + buffer_triples.div_ceil(per_page);
        let span_bytes = max_tail * std::mem::size_of::<Span>();
        let buf_bytes = buffer_triples * std::mem::size_of::<Triple>();
        let reservation = ram.reserve(head_bytes + span_bytes + buf_bytes)?;
        Ok(SearchEngine {
            flash: flash.clone(),
            ram: ram.clone(),
            num_buckets,
            heads: vec![NO_PREV; num_buckets],
            index: flash.new_log(),
            tail_start: 0,
            spans: vec![Span::UNKNOWN; max_tail],
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
        let mut tf: std::collections::BTreeMap<u64, u16> = std::collections::BTreeMap::new();
        let _tf_guard = self.ram.reserve(tokens.len().min(1024) * TF_ENTRY_BYTES)?;
        for tok in &tokens {
            let e = tf.entry(term_hash(tok)).or_insert(0);
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
    /// chains once it is long enough.
    fn make_room(&mut self) -> Result<(), SearchError> {
        self.stage()?;
        if self.tail_is_due() {
            self.drain()?;
        }
        Ok(())
    }

    /// Flush the insertion buffer whole: every pending triple, bucket
    /// after bucket in insertion order, into full staged pages appended
    /// to the tail, each page's span noted from the image it was laid out
    /// in. A page that fails to program takes its triples with it; the
    /// buffer is empty afterwards either way.
    fn stage(&mut self) -> Result<(), SearchError> {
        if self.pending_total == 0 {
            return Ok(());
        }
        let page_size = self.flash.geometry().page_size;
        let _page_guard = self.ram.reserve(page_size)?;
        let mut buf = vec![0u8; page_size];
        let mut stream = self.pending.iter_mut().flat_map(|b| b.drain(..));
        let mut staged = Ok(());
        while staged.is_ok() {
            buf.fill(0xFF);
            if fill_page(&mut buf, STAGED, 0, stream.by_ref()) == 0 {
                break;
            }
            let span = BucketPage::parse(&buf)
                .map_or(Span::UNKNOWN, |page| Span::of(&page, self.num_buckets));
            staged = (self.index.append_raw_page(&buf))
                .map(|page| set_span(&mut self.spans, page - self.tail_start, span));
        }
        stream.for_each(drop);
        self.pending_total = 0;
        Ok(staged?)
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
        let i = page.wrapping_sub(self.tail_start) as usize;
        self.spans.get(i).copied().unwrap_or(Span::UNKNOWN)
    }

    /// Move the tail into the bucket chains (module docs), each new head
    /// with its chain's df table. Called with
    /// the insertion buffer empty: the buffer is what each pass gathers
    /// into. Worst case `passes × tail pages + num_buckets` page reads,
    /// `passes` being one to count and fewer than two per buffer-full of
    /// tail triples — a gathering pass reads only the pages whose span
    /// meets its window — and `3 × num_buckets + tail pages` programs (a
    /// head topped up, the page it spills into and a head holding the
    /// table alone per bucket, the rest in full pages). Nothing the engine answers from changes before
    /// the last program: a failed drain leaves garbage among the tail,
    /// noted as holding nothing so that no walk reads it, and the
    /// previous heads and tail standing.
    fn drain(&mut self) -> Result<(), SearchError> {
        let tail = self.tail_start..self.index.num_pages();
        if tail.is_empty() {
            return Ok(());
        }
        let page_size = self.flash.geometry().page_size;
        // One page, a head's df table, the per-bucket tally and the
        // heads-to-be.
        let _guard =
            (self.ram).reserve(page_size + table_bytes(page_size) + (2 + 4) * self.num_buckets)?;
        let mut buf = vec![0u8; page_size];
        let mut table = Vec::with_capacity(max_table_entries(page_size));
        let mut new_heads = self.heads.clone();
        let drained = self.drain_passes(tail.clone(), &mut new_heads, &mut buf, &mut table);
        if drained.is_err() {
            // What a pass had gathered is still in the tail.
            self.pending.iter_mut().for_each(Vec::clear);
            self.pending_total = 0;
            for page in tail.end..self.index.num_pages() {
                set_span(&mut self.spans, page - self.tail_start, Span::NOTHING);
            }
            return drained;
        }
        self.heads = new_heads;
        self.tail_start = self.index.num_pages();
        self.spans.fill(Span::UNKNOWN);
        Ok(())
    }

    fn drain_passes(
        &mut self,
        tail: std::ops::Range<u32>,
        new_heads: &mut [u32],
        buf: &mut [u8],
        table: &mut Vec<(u64, u32)>,
    ) -> Result<(), SearchError> {
        // Triples per bucket in the tail. The tally only sizes the
        // windows — a pass gathers what fits and says whether more is to
        // come — so a count may saturate. Every page is read here, so the
        // spans a recovery left unknown are known to the passes.
        let mut counts = vec![0u16; self.num_buckets];
        for page in tail.clone() {
            let span = match self.staged_page(page, buf)? {
                Some(staged) => {
                    for t in staged.triples() {
                        let c = &mut counts[self.bucket_of(t.term)];
                        *c = c.saturating_add(1);
                    }
                    Span::of(&staged, self.num_buckets)
                }
                None => Span::NOTHING,
            };
            set_span(&mut self.spans, page - self.tail_start, span);
        }
        let mut lo = 0;
        while lo < self.num_buckets {
            // A window of consecutive buckets that fit the buffer
            // together — or one bucket alone that does not, drained in
            // as many passes as it takes.
            let mut fits = usize::from(counts[lo]);
            let mut hi = lo + 1;
            while hi < self.num_buckets && fits + usize::from(counts[hi]) <= self.pending_cap {
                fits += usize::from(counts[hi]);
                hi += 1;
            }
            let (mut done, mut more) = (0, fits > 0);
            while more {
                more = self.gather(tail.clone(), lo..hi, done, buf)?;
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
    /// to the insertion buffer, in order, until it is full. Whether it
    /// filled with more to come.
    fn gather(
        &mut self,
        tail: std::ops::Range<u32>,
        buckets: std::ops::Range<usize>,
        skip: usize,
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
                } else if self.pending_total == self.pending_cap {
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
    /// `table`, which the caller has reserved). A partial head page is
    /// read back and programmed again with the new triples behind its own
    /// (it keeps its `prev`: the page it replaces drops out of the
    /// chain); the rest goes into fresh pages, laid out by [`ChainWriter`]
    /// with the table on the new head.
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
        let page_size = buf.len();
        table.clear();
        let (mut prev, mut filled, mut complete) = (NO_PREV, 0, true);
        if *head == NO_PREV {
            buf.fill(0xFF);
        } else {
            // The head's triples stay in `buf` to be topped up; its table
            // is taken out to count on, and erased there.
            let page = self.bucket_page(*head, buf)?;
            let old = page.table().ok_or(UNDECODABLE)?;
            table.extend(old.entries());
            (prev, filled, complete) = (page.prev, page.len(), old.is_complete());
            let table_at = page_size - TABLE_TRAILER - old.len() * DF_ENTRY_LEN;
            buf[table_at..].fill(0xFF);
        }
        let limit = max_table_entries(page_size);
        for t in &gathered {
            complete = count_posting(table, t.term, limit, complete);
        }
        let mut writer = ChainWriter {
            rest: filled + gathered.len(),
            filled,
            prev,
            table: (table, complete),
        };
        writer.feed(&mut self.index, buf, gathered.into_iter(), head)
    }

    /// Write every pending triple (to the tail: a sync never drains, it
    /// stays one or two programs) and document chunk to flash, then
    /// checkpoint the index so the next power cycle keeps it.
    pub fn flush(&mut self) -> Result<(), SearchError> {
        self.stage()?;
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
        let addr = self.index.page_addr(page)?;
        self.flash.read_page(addr, buf)?;
        BucketPage::parse(buf).ok_or(UNDECODABLE)
    }

    /// Whether `t` is a live posting of `term`.
    fn is_live(&self, t: &Triple, term: u64) -> bool {
        t.term == term && !self.deleted.contains(&t.doc)
    }

    /// Document frequency of one term, counted before scoring, with a single
    /// reusable page buffer: the bucket's pending triples and the tail
    /// pages that can hold it are counted, and the chain is its head's df
    /// table — one page. The rest of the chain is walked only when the
    /// table cannot answer: a deletion since the last reorganisation made
    /// its counts stale, or it ran out of room before the term came.
    pub(crate) fn count_df(&self, term: u64) -> Result<u32, SearchError> {
        let b = self.bucket_of(term);
        let mut df = self.pending[b]
            .iter()
            .filter(|t| self.is_live(t, term))
            .count();
        let _page_guard = self.ram.reserve(self.flash.geometry().page_size)?;
        let mut buf = vec![0u8; self.flash.geometry().page_size];
        let mut walk = Walk::of(self, b);
        while walk.load_next(self, &mut buf)? {
            let page = BucketPage::parse(&buf).ok_or(UNDECODABLE)?;
            if walk.at_head && !self.unpurged_deletions {
                if let Some(chain) = page.table().ok_or(UNDECODABLE)?.df(term) {
                    return Ok(df as u32 + chain);
                }
            }
            df += page.triples().filter(|t| self.is_live(t, term)).count();
        }
        Ok(df as u32)
    }

    /// The pages a walk of `term`'s bucket reads: `(tail, chain)`.
    #[cfg(test)]
    pub(crate) fn walk_pages(&self, term: u64) -> Result<(u64, u64), SearchError> {
        let b = self.bucket_of(term);
        let mut buf = vec![0u8; self.flash.geometry().page_size];
        let (mut walk, mut pages) = (Walk::of(self, b), 0);
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

    /// TF-IDF top-`n` search with disjunctive (ANY) semantics.
    ///
    /// RAM: one flash-page cursor per query keyword + the bounded top-N
    /// heap, all reserved from the budget up front; the query fails with
    /// [`SearchError::Ram`] if the device cannot afford it — exactly the
    /// failure a too-small MCU would hit.
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
        if num_docs == 0 || keywords.is_empty() {
            return Ok(Vec::new());
        }
        // The query's terms, tokenised and hashed once, in request order.
        let mut requested: Vec<u64> = keywords
            .iter()
            .flat_map(|kw| tokenize(kw))
            .map(|tok| term_hash(&tok))
            .collect();
        // Resolve term → (term, idf), dropping terms with df = 0.
        let mut terms: Vec<(u64, f64)> = Vec::new();
        for &term in &requested {
            let df = self.count_df(term)?;
            if df > 0 {
                let idf = (num_docs as f64 / df as f64).ln();
                terms.push((term, idf));
            }
        }
        terms.sort_by_key(|(t, _)| *t);
        terms.dedup_by_key(|(t, _)| *t);
        if terms.is_empty() {
            return Ok(Vec::new());
        }
        // Conjunctive semantics: a keyword absent from the corpus makes
        // the whole conjunction empty. (Duplicated query keywords only
        // need to match once, hence the dedups.)
        requested.sort_unstable();
        requested.dedup();
        if mode == SearchMode::All && terms.len() < requested.len() {
            return Ok(Vec::new());
        }

        // One chain cursor (one RAM page) per keyword.
        let page_size = self.flash.geometry().page_size;
        let _cursor_guard = self.ram.reserve(terms.len() * page_size)?;
        // Validate the paper's "1 RAM page per query keyword" claim
        // against what was actually reserved for the cursors.
        let pages_per_kw = _cursor_guard.bytes().div_ceil(page_size) as u64 / terms.len() as u64;
        span.set("search.ram_pages_per_keyword", pages_per_kw);
        if pages_per_kw > pds_obs::budgets::RAM_PAGES_PER_QUERY_KEYWORD {
            pds_obs::counter("search.ram_claim_violations").inc();
        }
        let mut cursors: Vec<ChainCursor> = terms
            .iter()
            .map(|(term, idf)| ChainCursor::new(self, *term, *idf))
            .collect::<Result<_, _>>()?;

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
        self.spans.fill(Span::UNKNOWN);
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
        let limit = max_table_entries(page_size);
        let mut new_heads = vec![NO_PREV; self.num_buckets];
        let mut buf = vec![0u8; page_size];
        let mut out = vec![0xFFu8; page_size];
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
                filled: 0,
                prev: NO_PREV,
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

/// Bytes a df table being built is charged: [`max_table_entries`] of
/// them, as RAM holds an entry.
fn table_bytes(page_size: usize) -> usize {
    max_table_entries(page_size) * std::mem::size_of::<(u64, u32)>()
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
/// come, oldest first: a page takes a full page of triples, except the
/// one that can take every triple left beside the chain's df table — the
/// head. When those left do not fit beside the table but fill no page, a
/// page takes them all and the head holds the table alone. So every page
/// below a head is full or holds more triples than fit beside its
/// bucket's table, and a head always has the table's room.
struct ChainWriter<'t> {
    /// Triples not yet programmed, those of the page being filled
    /// included: more than none until the head is programmed (a writer
    /// starts with some).
    rest: usize,
    /// Triples already on the page being filled.
    filled: usize,
    /// The link of the page being filled.
    prev: u32,
    /// The chain's df table and whether it is complete.
    table: (&'t [(u64, u32)], bool),
}

impl ChainWriter<'_> {
    /// Lay `triples` out in the page image `buf`, programming each page
    /// into `log` once it holds all it takes — the head with the table,
    /// once `rest` is down to it — and pointing `head` at it. Once the
    /// head is programmed there is nothing left to feed.
    fn feed(
        &mut self,
        log: &mut LogWriter,
        buf: &mut [u8],
        mut triples: impl Iterator<Item = Triple>,
        head: &mut u32,
    ) -> Result<(), SearchError> {
        let (page_size, (table, complete)) = (buf.len(), self.table);
        if self.rest == 0 {
            return Ok(());
        }
        loop {
            let at_head = self.rest <= head_room(page_size, table.len());
            let take = match at_head {
                true => self.rest,
                false => self.rest.min(triples_per_page(page_size)),
            };
            let more = take - self.filled;
            self.filled = fill_page(buf, self.prev, self.filled, triples.by_ref().take(more));
            if self.filled < take {
                return Ok(());
            }
            if at_head {
                put_table(buf, table, complete);
            }
            *head = log.append_raw_page(buf)?;
            (self.rest, self.filled, self.prev) = (self.rest - take, 0, *head);
            buf.fill(0xFF);
            if at_head {
                return Ok(());
            }
        }
    }
}

/// Where a backward walk of one bucket stands: the pages still to read,
/// newest first — the tail pages whose span holds the bucket, last page
/// to first, then the bucket's chain from its head. Everything in the
/// tail is newer than everything in a chain, flushes land in the tail in
/// docid order and a bucket's run inside a flush is in insertion order,
/// so the postings of a term come by in descending docid all the way.
struct Walk {
    bucket: usize,
    /// Pages of the tail not yet passed: `tail_start..tail_left`.
    tail_left: u32,
    /// Next chain page, `NO_PREV` past the oldest.
    chain_next: u32,
    /// Whether the page loaded last is the chain's head.
    at_head: bool,
}

impl Walk {
    fn of(engine: &SearchEngine, bucket: usize) -> Walk {
        Walk {
            bucket,
            tail_left: engine.index.num_pages(),
            chain_next: engine.heads[bucket],
            at_head: false,
        }
    }

    /// Read the walk's next page into `buf`; `false` when there is none.
    /// A tail page holds triples of a run of buckets and a chain page
    /// those of every term of the bucket: the caller filters by term
    /// either way.
    fn load_next(&mut self, e: &SearchEngine, buf: &mut [u8]) -> Result<bool, SearchError> {
        while self.tail_left > e.tail_start {
            self.tail_left -= 1;
            if e.span(self.tail_left).meets(self.bucket, self.bucket)
                && e.staged_page(self.tail_left, buf)?.is_some()
            {
                return Ok(true);
            }
        }
        if self.chain_next == NO_PREV {
            return Ok(false);
        }
        self.at_head = self.chain_next == e.heads[self.bucket];
        self.chain_next = e.bucket_page(self.chain_next, buf)?.prev;
        Ok(true)
    }
}

/// Backward cursor over one term's postings: the bucket's pending RAM
/// triples first (they are the most recent), then the pages of its
/// [`Walk`], each read into the one page buffer the cursor owns — the
/// page the query's `terms × page_size` reservation paid for — and
/// walked there, back to front.
struct ChainCursor<'a> {
    engine: &'a SearchEngine,
    term: u64,
    idf: f64,
    /// Image of the page being consumed (unused while the pending
    /// buffer is).
    page: Vec<u8>,
    /// Whether the slots being consumed are those of `page` (else the
    /// bucket's pending buffer).
    on_flash: bool,
    /// Slots of the current source not yet looked at: the next candidate
    /// is slot `left - 1`.
    left: usize,
    /// The pages still to load.
    walk: Walk,
    /// The live posting of the term the cursor stands on, `None` once
    /// the walk is exhausted.
    current: Option<(DocId, u16)>,
}

impl<'a> ChainCursor<'a> {
    fn new(engine: &'a SearchEngine, term: u64, idf: f64) -> Result<Self, SearchError> {
        let b = engine.bucket_of(term);
        let mut c = ChainCursor {
            engine,
            term,
            idf,
            page: vec![0u8; engine.flash.geometry().page_size],
            on_flash: false,
            left: engine.pending[b].len(),
            walk: Walk::of(engine, b),
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
            let page = match self.on_flash {
                true => Some(BucketPage::parse(&self.page).ok_or(UNDECODABLE)?),
                false => None,
            };
            let pending = &e.pending[e.bucket_of(self.term)];
            while self.left > 0 {
                self.left -= 1;
                let slot = match &page {
                    Some(page) => page.get(self.left),
                    None => pending.get(self.left).copied(),
                };
                if let Some(t) = slot.filter(|t| e.is_live(t, self.term)) {
                    self.current = Some((t.doc, t.tf));
                    return Ok(());
                }
            }
            if !self.walk.load_next(e, &mut self.page)? {
                self.current = None;
                return Ok(());
            }
            let loaded = BucketPage::parse(&self.page).ok_or(UNDECODABLE)?;
            (self.left, self.on_flash) = (loaded.len(), true);
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
        // the tail, in the chains — one page per keyword and the heap,
        // to the byte (the df pass's one page is released before).
        for round in 0..3 {
            let baseline = ram.used();
            ram.reset_high_water();
            e.search(&["blood", "pressure", "salary"], 5).unwrap();
            let peak = ram.high_water() - baseline;
            assert_eq!(peak, 3 * page + 5 * 16, "round {round}");
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
        // 3 cursors need 3 × 512 B; only ~1 KB remains.
        let err = e.search(&["alpha", "beta", "gamma"], 5).unwrap_err();
        assert!(matches!(err, SearchError::Ram(_)));
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
        crate::triple::reference_decode_page(&buf).unwrap()
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
    /// and last triples enclose `bucket`, and every page past the span
    /// table's length, of which only the staged ones yield. The model of
    /// an engine that has not lost its spans to a power cycle.
    fn reference_tail(e: &SearchEngine, bucket: usize) -> Vec<Option<Vec<Triple>>> {
        let mut pages = Vec::new();
        for page in (e.tail_start..e.index.num_pages()).rev() {
            let (prev, triples) = reference_page(e, page);
            let past_table = (page - e.tail_start) as usize >= e.spans.len();
            let spanned = prev == STAGED && {
                let bucket_at = |t: Option<&Triple>| e.bucket_of(t.unwrap().term);
                (bucket_at(triples.first())..=bucket_at(triples.last())).contains(&bucket)
            };
            if spanned || past_table {
                pages.push((prev == STAGED).then_some(triples));
            }
        }
        pages
    }

    /// The pages a walk of `bucket` yields, newest first: the staged
    /// pages of [`reference_tail`], then the bucket's chain.
    fn reference_walk(e: &SearchEngine, bucket: usize) -> Vec<Vec<Triple>> {
        let mut pages: Vec<_> = reference_tail(e, bucket).into_iter().flatten().collect();
        pages.extend(reference_chain(e, bucket));
        pages
    }

    /// The page reads of a walk of `bucket`.
    fn reference_reads(e: &SearchEngine, bucket: usize) -> u64 {
        (reference_tail(e, bucket).len() + reference_chain(e, bucket).len()) as u64
    }

    /// The df table of `bucket`'s head, read off the page by hand: its
    /// entries and whether it is complete (none, and not, for a page
    /// without one or a bucket without a chain).
    fn reference_table(e: &SearchEngine, bucket: usize) -> (Vec<(u64, u32)>, bool) {
        if e.heads[bucket] == NO_PREV {
            return (Vec::new(), false);
        }
        let mut buf = vec![0u8; e.flash.geometry().page_size];
        let addr = e.index.page_addr(e.heads[bucket]).unwrap();
        e.flash.read_page(addr, &mut buf).unwrap();
        let end = buf.len() - 2;
        let word = u16::from_le_bytes([buf[end], buf[end + 1]]);
        if word == u16::MAX {
            return (Vec::new(), false);
        }
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
        (reference_tail(e, b).len() + chain_reads) as u64
    }

    /// `search` against the oracle, hit for hit and score for score, and
    /// its page reads against the two-pass cost model: each distinct
    /// query term is counted ([`reference_df_reads`]) and, when it
    /// occurs at all, walks its bucket — the tail pages that can hold it,
    /// then the chain — to merge.
    fn assert_search_and_its_reads(e: &SearchEngine, oracle: &NaiveSearch, query: &[&str]) -> u64 {
        let mut terms: Vec<u64> = (query.iter())
            .flat_map(|kw| tokenize(kw))
            .map(|t| term_hash(&t))
            .collect();
        terms.sort_unstable();
        terms.dedup();
        let mut want_reads = 0u64;
        for term in terms {
            let b = e.bucket_of(term);
            let live = |t: &&Triple| t.term == term && !e.deleted.contains(&t.doc);
            let df = reference_walk(e, b).iter().flatten().filter(live).count()
                + e.pending[b].iter().filter(live).count();
            want_reads +=
                reference_df_reads(e, term) + if df > 0 { reference_reads(e, b) } else { 0 };
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
        let page_size = e.flash.geometry().page_size;
        let mut head = vec![0u8; page_size];
        e.flash
            .read_page(e.index.page_addr(e.heads[b]).unwrap(), &mut head)
            .unwrap();
        let (entries, _) = reference_table(&e, b);
        assert!(entries.len() >= 2, "{entries:?}");
        let trailer = page_size - 2;
        let first = trailer - 12 * entries.len();
        // Two entries swapped; a term twice; an entry count whose bytes
        // reach into the triples.
        let mut swapped = head.clone();
        swapped[first..first + 12].copy_from_slice(&head[first + 12..first + 24]);
        swapped[first + 12..first + 24].copy_from_slice(&head[first..first + 12]);
        let mut twice = head.clone();
        twice.copy_within(first..first + 8, first + 12);
        let mut lying = head.clone();
        lying[trailer..].copy_from_slice(&(0x8000u16 | 0x7FFE).to_le_bytes());
        for corrupt in [swapped, twice, lying] {
            e.heads[b] = e.index.append_raw_page(&corrupt).unwrap();
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
        for i in 0..400 {
            let text = format!("note {i} shared topic t{} k{}", i % 7, i % 13);
            e.index_document(&text).unwrap();
            oracle.index(&text);
        }
        let shared = term_hash("shared");
        let bucket = e.bucket_of(shared);
        // Postings in all three places: the buffer, the tail, the chain.
        assert!(!e.pending[bucket].is_empty());
        assert!(e.num_tail_pages() >= 2, "{} pages", e.num_tail_pages());
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
        for page in &chain[..5] {
            let docs = of_term(page);
            edges.extend([docs[0], docs[docs.len() - 1]]);
        }
        edges.dedup();
        let reads = [vec!["shared"], vec!["shared", "t3"], vec!["absent", "k5"]]
            .map(|query| assert_search_and_its_reads(&e, &oracle, &query));
        // As measured (seeded: exact). Of the two tail pages, `shared`'s
        // bucket lies in both spans and those of `t3`, `absent` and `k5`
        // in one: every walk of theirs skips a page (52, 66 and 41 reads
        // when every walk read the whole tail), and each count reads its
        // chain's head alone (52, 64 and 38 when a count walked it).
        assert_eq!(reads, [31, 41, 30]);
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
        use pds_obs::rng::{Rng, SeedableRng, StdRng};
        let flash = Flash::new(pds_flash::FlashGeometry::new(2048, 64, 256));
        let ram = RamBudget::new(64 * 1024);
        let mut e = SearchEngine::new(&flash, &ram, 64, 256, DfStrategy::TwoPass).unwrap();
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
        let (_flash, _e, _, (reads, programs)) = token_sized_engine(2400);
        let cap = triples_per_page(2048);
        // The longest tail a drain meets: one short of its length, plus
        // the buffer just staged.
        let tail = 64 / 2 - 1 + 256usize.div_ceil(cap);
        // Two consecutive windows hold more than one buffer, so there
        // are fewer than two passes per buffer-full of tail triples; one
        // more pass counts, and each bucket's head is read once.
        let passes = 1 + 2 * (tail * cap).div_ceil(256);
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
        // As measured on this corpus (seeded: exact). The counting pass
        // reads the whole tail, a gathering pass only the pages whose
        // span meets its window: 694 reads when every pass read them all.
        // 109 programs before heads carried df tables.
        assert_eq!((reads, programs), (411, 110));
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
            // Every chain page but the head is full, or took every
            // triple left when they filled no page but did not fit beside
            // the bucket's df table (which only grows).
            for b in 0..64 {
                let room = head_room(2048, reference_table(&e, b).0.len());
                let chain = reference_chain(&e, b);
                for page in chain.iter().skip(1) {
                    assert!(
                        page.len() == cap || page.len() > room,
                        "{docs} docs, bucket {b}: {} triples",
                        page.len()
                    );
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
                    let mut cursor = ChainCursor::new(&e, term, 1.0).unwrap();
                    while cursor.current_doc().is_some() {
                        cursor.take().unwrap();
                    }
                    let walk = (flash.stats() - before).page_reads;
                    assert_eq!(walk, reference_reads(&e, b), "{docs} docs, {word}");
                    // The bucket's postings in pages full but the head's
                    // or fuller than a head beside its table, and the tail
                    // pages whose span holds the bucket.
                    let chain = reference_chain(&e, b).len();
                    let room = head_room(2048, reference_table(&e, b).0.len());
                    assert!(
                        chain <= per_bucket[b].div_ceil(room + 1) + 1,
                        "{docs} docs, {word}"
                    );
                    tail_reads += reference_tail(&e, b).len();
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
        // the five df counts: half the tail is skipped, and a count reads
        // the chain's head alone. (The walks read 67, 72, 43 and 48 pages
        // when every page below a head was full.)
        assert_eq!(
            measured,
            [
                (120, 60, 68, 65),
                (125, 65, 73, 70),
                (20, 10, 46, 15),
                (25, 15, 51, 20)
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
        let in_table = |p: &u32| ((p - e.tail_start) as usize) < e.spans.len();
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
    fn the_first_walk_after_a_recovery_reads_every_checkpointed_tail_page() {
        let (flash, mut e, _, _) = token_sized_engine(600);
        e.flush().unwrap();
        let tail = u64::from(e.num_tail_pages());
        assert!(tail > 1, "{tail} pages");
        let ram = RamBudget::new(64 * 1024);
        let (mut recovered, report) =
            SearchEngine::recover(&flash.reboot(), &ram, &e.manifest()).unwrap();
        assert_eq!(
            (report.index_pages_kept, report.docs_replayed),
            (e.num_index_pages(), 0)
        );
        let reads = |e: &SearchEngine, term: u64| {
            let before = e.flash.stats();
            let df = e.count_df(term).unwrap();
            (df, (e.flash.stats() - before).page_reads)
        };
        for word in ["common", "w0", "w17", "tag5", "absent"] {
            let term = term_hash(word);
            let b = e.bucket_of(term);
            let (df, kept) = reads(&e, term);
            assert_eq!(kept, reference_df_reads(&e, term), "{word}");
            // The recovered engine's spans are unknown until a drain
            // reads the tail: every count reads every tail page, then the
            // chain's head, and answers as the engine that kept its spans.
            let chain = reference_chain(&e, b).len().min(1) as u64;
            for _ in 0..2 {
                assert_eq!(reads(&recovered, term), (df, tail + chain), "{word}");
            }
            assert_eq!(
                recovered.search(&[word, "common"], 10).unwrap(),
                e.search(&[word, "common"], 10).unwrap()
            );
        }
        // A drain right after the recovery: its counting pass notes every
        // span, so its gathering passes skip what the other engine's do.
        let drain = |e: &mut SearchEngine| {
            let before = e.flash.stats();
            e.drain().unwrap();
            let io = e.flash.stats() - before;
            (io.page_reads, io.page_programs)
        };
        assert_eq!(drain(&mut recovered), drain(&mut e));
        assert_eq!(
            recovered.search(&["w0", "common", "tag5"], 10).unwrap(),
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
