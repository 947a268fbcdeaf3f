//! Index triples and their page layout.
//!
//! "Inverted index: stores triples (keyword, docid, weight)". The keyword
//! is stored as a 64-bit hash (collisions are negligible and a false merge
//! would only add a spurious score contribution); the weight is the term
//! frequency in the document (the `weight_{ti,doc}` factor of the
//! tutorial's TF-IDF formula).
//!
//! ## Bucket page layout (a record that fills its flash page)
//!
//! A bucket page is one record of the index log that fills its flash
//! page ([`LogWriter::append_page`](pds_flash::LogWriter::append_page)):
//! the log's page header and the record's length prefix take the page's
//! first 8 bytes, with the CRC that every read verifies, and the bucket
//! page is the `page_size − 8` bytes after them — 2 040 on a 2 KB page,
//! 504 on 512 B. Every size below is of those bytes.
//!
//! ```text
//! [prev_page: u32]  index of the previous page of this bucket chain
//!                   within the index log, u32::MAX = end of chain
//! [count: u16]      number of postings
//! [terms: u8]       entries of the page's term dictionary (at most 255)
//! count × [docid: u32][tf: u16][term: u8]   the postings, each term as
//!                   its index in the dictionary: 7 B at a fixed stride
//! … erased (0xFF) …
//! entries × [term_hash: u64][df: u32]   a head's df table, ascending term
//! terms × [term_hash: u64]   the dictionary, entry 0 last: it grows down
//!                   from the trailer as the postings grow up
//! [table: u16]      the page's last two bytes: 0xFFFF = no table, else
//!                   bit 15 = complete, bits 0..=14 = entries (at most
//!                   max_table_entries: half the page)
//! ```
//!
//! A page names each of its terms once: a posting of a term the page
//! already holds costs 7 bytes, one of a new term 15 (8 more for its
//! dictionary entry). A 2 KB chain page holds one bucket — a few dozen
//! terms — and so about 1.8× the postings of a page that repeated the
//! term in every triple (14 bytes each, 145 to a page); at worst, every
//! posting a new term, a page holds 135. A page closes at 255 entries.
//!
//! The index log holds two kinds of page in this one layout. A *chain*
//! page belongs to one bucket and links to the bucket's previous page. A
//! *staged* page — `prev` = [`STAGED`] — is a page of the log's tail: a
//! slice of the insertion buffer as it was flushed, bucket after bucket,
//! linked to nothing; it is found by its position (see
//! [`SearchEngine`](crate::SearchEngine)) and the marker only tells it
//! from whatever else a failed drain may have left among the tail.
//!
//! ## Laying a page out
//!
//! [`PageFill`] lays a page out in its image, in place, one posting at a
//! time, and says when the next one does not fit. It looks a posting's
//! term up among the dictionary entries of the bucket being laid out
//! only — a chain page holds one bucket, a staged page holds its buckets
//! one after the other ([`PageFill::next_bucket`]), and a term belongs to
//! one bucket — through a table of entry numbers it keeps beside the
//! page, open-addressed by the term's hash, so that a lookup reads about
//! one entry. Picked up from a chain page read back
//! ([`PageFill::resume`], which erases its df table), it tops that page
//! up.
//!
//! ## The head's df table
//!
//! The *head* of a chain — its newest page — carries the bucket's df
//! table between its postings and its dictionary: one `(term, df)` entry
//! per term with a posting anywhere in the chain, counting postings (live
//! or not), so that a term's df over the chain is one page read. A table
//! is *complete* when it holds every term of the chain; one that ran out
//! of entries ([`max_table_entries`]) holds the terms it met first and is
//! not, and a term it lacks is then counted by a walk. Only the head's
//! table is ever read: staged pages and the pages below a head carry
//! none (an erased trailer).
//!
//! ## One parser: the view
//!
//! A bucket page is read through [`BucketPage`], a view over the page
//! buffer it was read into: [`BucketPage::parse`] is the page format's
//! only parser (the posting and dictionary counts are checked against the
//! bytes in hand, and every posting's term index against the dictionary,
//! before anything is looked at), [`BucketPage::triples`] decodes each
//! posting as the walk reaches it, from either end, and
//! [`BucketPage::table`] checks the df table only when it is asked for —
//! a walk never looks at one. Every chain walk of the engine — df
//! counting, the query cursors, reorganisation, recovery's soundness
//! check — is that view over one reused page buffer; the owned
//! [`decode_page`] is the view collected.

use pds_obs::wire::Reader;

/// Document identifier. "Document ids are generated in increasing order" —
/// the property the pipeline merge relies on.
pub type DocId = u32;

/// End-of-chain marker in a bucket page header.
pub const NO_PREV: u32 = u32::MAX;

/// `prev` of a staged page: not a link, the mark of a page of the tail.
pub const STAGED: u32 = u32::MAX - 1;

/// Size of the bucket-page header: link, posting count, dictionary count.
pub const PAGE_HEADER: usize = 7;

/// Size of the df-table trailer, the page's last two bytes.
pub const TABLE_TRAILER: usize = 2;

/// Bytes per df-table entry: `[term_hash: u64][df: u32]`.
pub const DF_ENTRY_LEN: usize = 12;

/// Bytes per posting: `[docid: u32][tf: u16][term index: u8]`.
pub const POSTING_LEN: usize = 7;

/// Bytes per dictionary entry: `[term_hash: u64]`.
pub const TERM_LEN: usize = 8;

/// The most dictionary entries a page holds: a term index is one byte.
pub const MAX_TERMS: usize = 255;

/// The trailer of a page without a df table: erased cells.
const NO_TABLE: u16 = u16::MAX;

/// The trailer bit of a complete df table.
const COMPLETE: u16 = 0x8000;

/// One inverted-index entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Triple {
    /// FNV-1a hash of the term.
    pub term: u64,
    /// The document containing the term.
    pub doc: DocId,
    /// Term frequency in the document.
    pub tf: u16,
}

/// The fewest triples a full bucket page of `page_size` bytes holds:
/// those of a page where every posting is a new term, 15 bytes each, or
/// that closed at [`MAX_TERMS`] entries. What a buffer-full of triples is
/// sized against: it never takes more pages than this says.
pub fn triples_per_page(page_size: usize) -> usize {
    let bytes = page_size.saturating_sub(PAGE_HEADER + TABLE_TRAILER);
    (bytes / (POSTING_LEN + TERM_LEN)).min(MAX_TERMS)
}

/// The most entries a head's df table holds: half the page, so that a
/// head always has room for half a page of postings beside it.
pub fn max_table_entries(page_size: usize) -> usize {
    page_size / 2 / DF_ENTRY_LEN
}

/// A bucket page being laid out in its page image, in place (module
/// docs): how many postings and dictionary entries the image holds — its
/// header says the same after every [`push`](Self::push) — where the
/// entries of the bucket being laid out begin, and where each entry is
/// found by its term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFill {
    count: usize,
    terms: usize,
    /// The first dictionary entry of the bucket being laid out: a lookup
    /// takes no entry below it.
    bucket_from: usize,
    /// An open-addressed table over the dictionary: from the slot of a
    /// term's hash ([`slot_of`]) on, the slots hold entries plus one, up
    /// to an empty one (0). At most half of them are taken, so a lookup
    /// reads about one entry.
    slots: [u8; SLOTS],
}

/// Slots of [`PageFill`]'s table: twice the most entries a page holds.
const SLOTS: usize = 2 * (MAX_TERMS + 1);

/// The first slot a lookup of `term` tries: the top bits of a
/// multiplicative hash (the bucket is in the low bits, which all of a
/// bucket's terms share).
fn slot_of(term: u64) -> usize {
    (term.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SLOTS.trailing_zeros())) as usize
}

impl PageFill {
    /// Start an empty page linked to `prev` in `buf`, erased first.
    pub fn start(buf: &mut [u8], prev: u32) -> PageFill {
        buf.fill(0xFF);
        if let Some(link) = buf.get_mut(0..4) {
            link.copy_from_slice(&prev.to_le_bytes());
        }
        let fill = PageFill {
            count: 0,
            terms: 0,
            bucket_from: 0,
            slots: [0; SLOTS],
        };
        fill.write_counts(buf);
        fill
    }

    /// Go on filling the page whose image `buf` holds — a chain page read
    /// back to be topped up: one bucket, so every entry of its dictionary
    /// is looked at. Its df table, if it carries one, is erased; its
    /// postings and dictionary stay. `None`, the image untouched, for a
    /// page or table that does not parse.
    pub fn resume(buf: &mut [u8]) -> Option<PageFill> {
        let trailer = buf.len() - TABLE_TRAILER;
        let (mut fill, table) = {
            let page = BucketPage::parse(buf)?;
            let mut fill = PageFill {
                count: page.len(),
                terms: page.terms(),
                bucket_from: 0,
                slots: [0; SLOTS],
            };
            for i in 0..page.terms() {
                let (_, empty) = fill.find(page.dict, term_at(page.dict, i)?);
                fill.slots[empty] = i as u8 + 1;
            }
            let end = trailer - page.dict.len();
            (fill, end - page.table()?.len() * DF_ENTRY_LEN..end)
        };
        buf[table].fill(0xFF);
        buf[trailer..].fill(0xFF);
        fill.bucket_from = 0;
        Some(fill)
    }

    /// Postings on the page.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True for a page without postings.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The triples pushed from now on belong to another bucket than those
    /// before: their terms are looked up among the entries added from now
    /// on only.
    pub fn next_bucket(&mut self) {
        self.bucket_from = self.terms;
    }

    /// Bytes the page uses: header, postings, dictionary and trailer.
    fn used(&self) -> usize {
        PAGE_HEADER + self.count * POSTING_LEN + self.terms * TERM_LEN + TABLE_TRAILER
    }

    /// Whether a df table of `entries` fits beside what the page of
    /// `page_size` bytes holds.
    pub fn fits_table(&self, page_size: usize, entries: usize) -> bool {
        self.used() + entries * DF_ENTRY_LEN <= page_size
    }

    /// Lay `t` out behind the page's postings in `buf`, with its term's
    /// dictionary entry if the page has none yet. `false`, the image as it
    /// was, when it does not fit: the page is full.
    pub fn push(&mut self, buf: &mut [u8], t: Triple) -> bool {
        let dict_end = buf.len().saturating_sub(TABLE_TRAILER);
        let (known, empty) = self.find(buf.get(..dict_end).unwrap_or_default(), t.term);
        let need = POSTING_LEN + if known.is_none() { TERM_LEN } else { 0 };
        if self.used() + need > buf.len() || (known.is_none() && self.terms == MAX_TERMS) {
            return false;
        }
        let index = known.unwrap_or_else(|| {
            let at = dict_end - (self.terms + 1) * TERM_LEN;
            buf[at..at + TERM_LEN].copy_from_slice(&t.term.to_le_bytes());
            self.terms += 1;
            self.slots[empty] = self.terms as u8;
            self.terms - 1
        });
        let at = PAGE_HEADER + self.count * POSTING_LEN;
        buf[at..at + 4].copy_from_slice(&t.doc.to_le_bytes());
        buf[at + 4..at + 6].copy_from_slice(&t.tf.to_le_bytes());
        buf[at + 6] = index as u8;
        self.count += 1;
        self.write_counts(buf);
        true
    }

    /// The dictionary entry of `term` among those of the bucket being laid
    /// out, looked up in `dict` (the page below its trailer) through the
    /// table; and the empty slot that ended the lookup, where a new entry
    /// of `term` goes.
    fn find(&self, dict: &[u8], term: u64) -> (Option<usize>, usize) {
        let mut slot = slot_of(term);
        loop {
            match usize::from(self.slots[slot]) {
                0 => return (None, slot),
                taken if taken > self.bucket_from && term_at(dict, taken - 1) == Some(term) => {
                    return (Some(taken - 1), slot);
                }
                _ => slot = (slot + 1) % SLOTS,
            }
        }
    }

    /// The header's counts.
    fn write_counts(&self, buf: &mut [u8]) {
        if let Some(counts) = buf.get_mut(4..PAGE_HEADER) {
            counts[..2].copy_from_slice(&(self.count as u16).to_le_bytes());
            counts[2] = self.terms as u8;
        }
    }
}

/// Whether the dictionary entry `entry` is `term`: one 8-byte compare.
fn entry_is(entry: &[u8], term: u64) -> bool {
    <[u8; TERM_LEN]>::try_from(entry).is_ok_and(|bytes| u64::from_le_bytes(bytes) == term)
}

/// Dictionary entry `i` of `dict`, entries ending where it ends (entry 0
/// last); `None` past its start.
fn term_at(dict: &[u8], i: usize) -> Option<u64> {
    let end = dict.len().checked_sub(i.checked_mul(TERM_LEN)?)?;
    let bytes = dict.get(end.checked_sub(TERM_LEN)?..end)?;
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

/// Write a head's df table — `entries` ascending by term, which must fit
/// between the postings and the dictionary [`PageFill`] laid out
/// ([`PageFill::fits_table`]) — and its trailer into the page image `buf`.
pub fn put_table(buf: &mut [u8], entries: &[(u64, u32)], complete: bool) {
    let trailer = buf.len() - TABLE_TRAILER;
    let end = trailer - usize::from(buf[PAGE_HEADER - 1]) * TERM_LEN;
    let start = end - entries.len() * DF_ENTRY_LEN;
    for (slot, &(term, df)) in buf[start..end].chunks_exact_mut(DF_ENTRY_LEN).zip(entries) {
        slot[..8].copy_from_slice(&term.to_le_bytes());
        slot[8..].copy_from_slice(&df.to_le_bytes());
    }
    let word = entries.len() as u16 | if complete { COMPLETE } else { 0 };
    buf[trailer..].copy_from_slice(&word.to_le_bytes());
}

/// A bucket page read where it lies: the chain link, the postings and
/// the dictionary of a page image laid out by [`PageFill`], borrowed, and
/// the image itself for its df table.
#[derive(Debug, Clone, Copy)]
pub struct BucketPage<'a> {
    /// Index of the previous page of this bucket chain, [`NO_PREV`] at
    /// the end of the chain.
    pub prev: u32,
    /// `count × POSTING_LEN` bytes.
    postings: &'a [u8],
    /// `terms × TERM_LEN` bytes, entry 0 last.
    dict: &'a [u8],
    /// The whole image.
    image: &'a [u8],
}

/// A head's df table, borrowed from its page: entries ascending by term
/// (checked when the page's [`BucketPage::table`] is taken).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DfTable<'a> {
    /// `entries × DF_ENTRY_LEN` bytes.
    entries: &'a [u8],
    complete: bool,
}

impl<'a> DfTable<'a> {
    /// The table of a page that carries none: nothing is known.
    const NONE: DfTable<'static> = DfTable {
        entries: &[],
        complete: false,
    };

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len() / DF_ENTRY_LEN
    }

    /// True for a table without entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether every term of the chain has its entry.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The entries, ascending by term.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u32)> + 'a {
        self.entries.chunks_exact(DF_ENTRY_LEN).map(entry)
    }

    /// `term`'s df over the chain: its entry, 0 when a complete table
    /// lacks it, `None` when an incomplete one does — the chain must be
    /// walked. A binary search: no more than `log₂ entries` are decoded.
    pub fn df(&self, term: u64) -> Option<u32> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let (at, df) = entry(self.entries.get(mid * DF_ENTRY_LEN..)?);
            match at.cmp(&term) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(df),
            }
        }
        self.complete.then_some(0)
    }
}

/// The df-table entry at the front of `slot`.
fn entry(slot: &[u8]) -> (u64, u32) {
    let term = slot.get(..8).and_then(|b| <[u8; 8]>::try_from(b).ok());
    let df = slot.get(8..12).and_then(|b| <[u8; 4]>::try_from(b).ok());
    (
        term.map_or(0, u64::from_le_bytes),
        df.map_or(0, u32::from_le_bytes),
    )
}

impl<'a> BucketPage<'a> {
    /// Parse a page image; `None` on a short buffer, a posting count or a
    /// dictionary count whose bytes overlap each other or pass the page,
    /// or a posting whose term index is past the dictionary (torn or
    /// corrupt flash). Linear in the postings, which the page bounds. The
    /// engine maps `None` to `SearchError::CorruptIndex`.
    pub fn parse(buf: &'a [u8]) -> Option<Self> {
        let page = Self::frame(buf)?;
        let terms = page.terms();
        let indexes = page.postings.chunks_exact(POSTING_LEN);
        indexes
            .map(|slot| usize::from(slot[POSTING_LEN - 1]))
            .all(|index| index < terms)
            .then_some(page)
    }

    /// The view of a page image [`parse`](Self::parse) accepted before,
    /// framed again without looking at its postings: for a reader that
    /// keeps the image and takes its postings one at a time. On an image
    /// `parse` would refuse, a posting whose term index is past the
    /// dictionary is `None` from [`get`](Self::get).
    pub(crate) fn frame(buf: &'a [u8]) -> Option<Self> {
        let mut r = Reader::new(buf);
        let prev = r.u32()?;
        let count = usize::from(r.u16()?);
        let terms = usize::from(r.u8()?);
        let trailer = buf.len().checked_sub(TABLE_TRAILER)?;
        let dict_at = trailer.checked_sub(terms * TERM_LEN)?;
        let postings_end = PAGE_HEADER + count * POSTING_LEN;
        let postings = buf
            .get(PAGE_HEADER..postings_end)
            .filter(|_| postings_end <= dict_at)?;
        Some(BucketPage {
            prev,
            postings,
            dict: &buf[dict_at..trailer],
            image: buf,
        })
    }

    /// The page's df table, [`DfTable`]'s empty incomplete one when it
    /// carries none. `None` — corrupt — when its entry count claims bytes
    /// that overlap the postings or more entries than
    /// [`max_table_entries`], or its terms are not strictly ascending
    /// (unsorted or duplicated). Linear in the entries, which the page
    /// bounds.
    pub fn table(&self) -> Option<DfTable<'a>> {
        let postings_end = PAGE_HEADER + self.postings.len();
        let trailer = self.image.len() - TABLE_TRAILER;
        let dict_at = trailer - self.dict.len();
        let mut r = Reader::new(self.image.get(trailer..)?);
        let word = r.u16()?;
        if word == NO_TABLE {
            return Some(DfTable::NONE);
        }
        let entries = usize::from(word & !COMPLETE);
        if entries > max_table_entries(self.image.len()) {
            return None;
        }
        let start =
            (dict_at.checked_sub(entries * DF_ENTRY_LEN)).filter(|&at| at >= postings_end)?;
        let table = DfTable {
            entries: &self.image[start..dict_at],
            complete: word & COMPLETE != 0,
        };
        let ascending = (table.entries().zip(table.entries().skip(1))).all(|(a, b)| a.0 < b.0);
        ascending.then_some(table)
    }

    /// Number of postings on the page.
    pub fn len(&self) -> usize {
        self.postings.len() / POSTING_LEN
    }

    /// True for a page without postings.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// Entries of the page's term dictionary.
    pub fn terms(&self) -> usize {
        self.dict.len() / TERM_LEN
    }

    /// The triple of posting `i`, `None` past the last one.
    pub fn get(&self, i: usize) -> Option<Triple> {
        let at = i.checked_mul(POSTING_LEN)?;
        let slot = self.postings.get(at..at.checked_add(POSTING_LEN)?)?;
        posting(slot, self.dict)
    }

    /// The terms of the page's dictionary, newest entry first: each term
    /// with a posting on the page, once.
    pub fn dictionary(&self) -> impl Iterator<Item = u64> + 'a {
        (self.dict.chunks_exact(TERM_LEN))
            .filter_map(|entry| Some(u64::from_le_bytes(entry.try_into().ok()?)))
    }

    /// The dictionary index of `term` on the page, `None` when the page
    /// holds no posting of it: a look at the dictionary, no posting read.
    pub fn term_index(&self, term: u64) -> Option<u8> {
        // Entry 0 is last: the first chunk is the newest entry.
        let chunk = (self.dict.chunks_exact(TERM_LEN)).position(|entry| entry_is(entry, term))?;
        u8::try_from(self.terms() - 1 - chunk).ok()
    }

    /// `(doc, tf)` of posting `i` if its term is the one at dictionary
    /// `index`; `None` for another term's, or past the last posting.
    pub fn posting_at(&self, i: usize, index: u8) -> Option<(DocId, u16)> {
        let at = i.checked_mul(POSTING_LEN)?;
        let slot = self.postings.get(at..at.checked_add(POSTING_LEN)?)?;
        doc_and_tf(slot, index)
    }

    /// `(doc, tf)` of every posting of the term at dictionary `index`, in
    /// posting order: the others' are skipped by their index byte alone.
    pub fn postings_at(&self, index: u8) -> impl DoubleEndedIterator<Item = (DocId, u16)> + 'a {
        (self.postings.chunks_exact(POSTING_LEN)).filter_map(move |slot| doc_and_tf(slot, index))
    }

    /// The triples in posting order (ascending docid within a chain), each
    /// decoded as the walk reaches it.
    pub fn triples(&self) -> impl DoubleEndedIterator<Item = Triple> + 'a {
        let dict = self.dict;
        (self.postings.chunks_exact(POSTING_LEN)).filter_map(move |slot| posting(slot, dict))
    }
}

/// The triple of the posting `slot`, its term an entry of `dict`.
fn posting(slot: &[u8], dict: &[u8]) -> Option<Triple> {
    let slot: &[u8; POSTING_LEN] = slot.try_into().ok()?;
    let [d0, d1, d2, d3, t0, t1, index] = *slot;
    Some(Triple {
        term: term_at(dict, usize::from(index))?,
        doc: u32::from_le_bytes([d0, d1, d2, d3]),
        tf: u16::from_le_bytes([t0, t1]),
    })
}

/// `(doc, tf)` of the posting `slot` if its term index is `index`.
fn doc_and_tf(slot: &[u8], index: u8) -> Option<(DocId, u16)> {
    let slot: &[u8; POSTING_LEN] = slot.try_into().ok()?;
    let [d0, d1, d2, d3, t0, t1, at] = *slot;
    (at == index).then(|| {
        (
            u32::from_le_bytes([d0, d1, d2, d3]),
            u16::from_le_bytes([t0, t1]),
        )
    })
}

/// Decode one bucket page into `(prev, triples)`: [`BucketPage::parse`],
/// collected.
pub fn decode_page(buf: &[u8]) -> Option<(u32, Vec<Triple>)> {
    let page = BucketPage::parse(buf)?;
    Some((page.prev, page.triples().collect()))
}

/// Encode one bucket page: `triples` pushed into a fresh image of
/// `0xFF` — one bucket, the layout of a chain page and the one the
/// format tests build their pages with.
#[cfg(test)]
pub(crate) fn encode_page(page_size: usize, prev: u32, triples: &[Triple]) -> Vec<u8> {
    let mut buf = vec![0u8; page_size];
    let mut fill = PageFill::start(&mut buf, prev);
    for &t in triples {
        assert!(
            fill.push(&mut buf, t),
            "{} triples fill no page",
            triples.len()
        );
    }
    buf
}

/// Encode a head page: [`encode_page`] and a df table beside it.
#[cfg(test)]
pub(crate) fn encode_head(
    page_size: usize,
    prev: u32,
    triples: &[Triple],
    entries: &[(u64, u32)],
    complete: bool,
) -> Vec<u8> {
    let mut buf = encode_page(page_size, prev, triples);
    put_table(&mut buf, entries, complete);
    buf
}

/// An owned bucket-page decoder written from the layout alone, apart
/// from the view: the reference the differential tests of the
/// bucket-page format compare against.
#[cfg(test)]
pub(crate) fn reference_decode_page(buf: &[u8]) -> Option<(u32, Vec<Triple>)> {
    let mut r = Reader::new(buf);
    let prev = r.u32()?;
    let count = usize::from(r.u16()?);
    let terms = usize::from(r.u8()?);
    let end = buf.len().checked_sub(2)?;
    let dict_start = end.checked_sub(8 * terms)?;
    if 7 + 7 * count > dict_start {
        return None;
    }
    let dict: Vec<u64> = (1..=terms)
        .map(|i| u64::from_le_bytes(buf[end - 8 * i..end - 8 * (i - 1)].try_into().unwrap()))
        .collect();
    let mut triples = Vec::with_capacity(count);
    for _ in 0..count {
        let (doc, tf, index) = (r.u32()?, r.u16()?, r.u8()?);
        let term = *dict.get(usize::from(index))?;
        triples.push(Triple { term, doc, tf });
    }
    Some((prev, triples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::rng::{sweep_seeds, Rng, SeedableRng, StdRng};

    /// What a page decodes to: the chain link and the triples (which the
    /// reference must agree on), and the df table's entries and flag —
    /// an erased trailer reads as the empty incomplete table: both say
    /// that nothing is known.
    type Decoded = (u32, Vec<Triple>, Vec<(u64, u32)>, bool);

    /// Up to `most` triples over a vocabulary of `vocabulary` random
    /// terms, as many as fit on one page of `page_size` bytes beside a
    /// table of `entries`.
    fn page_of(
        rng: &mut StdRng,
        page_size: usize,
        most: usize,
        vocabulary: usize,
        entries: usize,
    ) -> Vec<Triple> {
        let words: Vec<u64> = (0..vocabulary.max(1)).map(|_| rng.gen()).collect();
        let mut buf = vec![0u8; page_size];
        let mut fill = PageFill::start(&mut buf, NO_PREV);
        let mut triples = Vec::new();
        while triples.len() < most {
            let t = Triple {
                term: words[rng.gen_range(0..words.len())],
                doc: rng.gen(),
                tf: rng.gen(),
            };
            let (mut tried, mut trial) = (fill, buf.clone());
            if !tried.push(&mut trial, t) || !tried.fits_table(page_size, entries) {
                break;
            }
            (fill, buf) = (tried, trial);
            triples.push(t);
        }
        triples
    }

    #[test]
    fn bucket_pages_and_the_reference_keep_the_decoder_contract() {
        use pds_obs::wire::{sweep, Tail};
        const PAGE: usize = 512;
        let mut lying = encode_page(PAGE, 7, &[]);
        lying[4..6].fill(0xFF);
        // A df table claiming more entries than the page holds.
        let mut lying_table = encode_head(PAGE, 7, &[], &[], true);
        lying_table[PAGE - 2..].copy_from_slice(&0xFFFEu16.to_le_bytes());
        // Ten postings of two terms and a table of twenty entries.
        let two: Vec<Triple> = (0..10)
            .map(|i| Triple {
                term: 100 + i % 2,
                doc: i as u32,
                tf: 1,
            })
            .collect();
        let entries: Vec<(u64, u32)> = (0..20).map(|i| (i, 1)).collect();
        let head = encode_head(PAGE, 7, &two, &entries, true);
        // A term index past the dictionary.
        let mut past = head.clone();
        past[PAGE_HEADER + POSTING_LEN + 6] = 2;
        // A dictionary count whose bytes reach into the postings...
        let mut over_postings = head.clone();
        over_postings[6] = 60;
        // ...or one that leaves the postings clear but pushes the table
        // into them.
        let mut over_table = head.clone();
        over_table[6] = 32;
        assert!(BucketPage::parse(&over_table).is_some());
        sweep(
            "bucket page vs reference",
            Tail::Padded,
            &[
                &lying,
                &lying[..6],
                &lying_table,
                &past,
                &over_postings,
                &over_table,
            ],
            |rng| {
                let most = rng.gen_range(0..=triples_per_page(PAGE) * 2);
                let vocabulary = rng.gen_range(1..=most.max(1));
                let triples = page_of(rng, PAGE, most, vocabulary, 0);
                let room = PageFill::resume(&mut encode_page(PAGE, 0, &triples)).unwrap();
                let mut most = 0;
                while most < max_table_entries(PAGE) && room.fits_table(PAGE, most + 1) {
                    most += 1;
                }
                let mut entries: Vec<(u64, u32)> = (0..rng.gen_range(0..=most))
                    .map(|_| (rng.gen(), rng.gen()))
                    .collect();
                entries.sort_unstable_by_key(|e| e.0);
                entries.dedup_by_key(|e| e.0);
                let complete = rng.gen();
                (rng.gen::<u32>(), triples, entries, complete)
            },
            |(prev, triples, entries, complete)| match (entries.is_empty(), complete) {
                (true, false) => encode_page(PAGE, *prev, triples),
                _ => encode_head(PAGE, *prev, triples, entries, *complete),
            },
            |buf| -> Option<Decoded> {
                let got = decode_page(buf);
                assert_eq!(got, reference_decode_page(buf), "{buf:02x?}");
                let table = BucketPage::parse(buf)?.table()?;
                let (prev, triples) = got?;
                Some((
                    prev,
                    triples,
                    table.entries().collect(),
                    table.is_complete(),
                ))
            },
        );
    }

    /// Fill a page from `triples` until one does not fit, in buckets of
    /// `bucket_of` told apart as they change, and check it: what it
    /// decodes to is what went in, it names each of its terms once, and
    /// the triple it refused would pass its bytes or its 255 entries. How
    /// many went in.
    fn fill_and_check(
        buf: &mut [u8],
        mut fill: PageFill,
        old: &[Triple],
        triples: &[Triple],
        bucket_of: impl Fn(u64) -> u64,
        ctx: &str,
    ) -> usize {
        let page_size = buf.len();
        let mut bucket = None;
        let mut took = 0;
        for &t in triples {
            if bucket.is_some_and(|b| b != bucket_of(t.term)) {
                fill.next_bucket();
            }
            bucket = Some(bucket_of(t.term));
            if !fill.push(buf, t) {
                break;
            }
            took += 1;
        }
        let on_page: Vec<Triple> = old.iter().chain(&triples[..took]).copied().collect();
        let page = BucketPage::parse(buf).unwrap();
        assert_eq!(page.triples().collect::<Vec<_>>(), on_page, "{ctx}");
        assert_eq!(reference_decode_page(buf).unwrap().1, on_page, "{ctx}");
        let mut distinct: Vec<u64> = on_page.iter().map(|t| t.term).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(page.terms(), distinct.len(), "{ctx}");
        assert_eq!((fill.len(), page.len()), (on_page.len(), on_page.len()));
        if let Some(refused) = triples.get(took) {
            let used = PAGE_HEADER + TABLE_TRAILER + on_page.len() * POSTING_LEN;
            let used = used + distinct.len() * TERM_LEN;
            let known = distinct.contains(&refused.term);
            let need = POSTING_LEN + if known { 0 } else { TERM_LEN };
            assert!(
                used + need > page_size || (!known && distinct.len() == MAX_TERMS),
                "{ctx}: refused with {used} of {page_size} bytes used"
            );
            assert!(on_page.len() >= triples_per_page(page_size), "{ctx}");
        }
        took
    }

    #[test]
    fn bucket_pages_round_trip_sweep() {
        for seed in 0..sweep_seeds(48) {
            let mut rng = StdRng::seed_from_u64(0x44_0000 + seed);
            for page_size in [512, 2048, 4096] {
                // From one term a page to every posting a new term.
                let vocabulary = match seed % 4 {
                    0 => 1,
                    1 => rng.gen_range(2..64),
                    2 => rng.gen_range(64..1024),
                    _ => usize::MAX,
                };
                let words: Vec<u64> = (0..vocabulary.min(4096)).map(|_| rng.gen()).collect();
                let mut triple = |doc: u32| Triple {
                    term: match vocabulary {
                        usize::MAX => rng.gen(),
                        _ => words[rng.gen_range(0..words.len())],
                    },
                    doc,
                    tf: rng.gen(),
                };
                let stream: Vec<Triple> = (0..page_size as u32).map(&mut triple).collect();
                let ctx = format!("seed {seed}, {page_size} B, vocabulary {vocabulary}");
                // A chain page, filled to the brim.
                let mut buf = vec![0u8; page_size];
                let fill = PageFill::start(&mut buf, 9);
                let took = fill_and_check(&mut buf, fill, &[], &stream, |_| 0, &ctx);
                assert!(took < stream.len(), "{ctx}: the page never filled");
                // A staged page: buckets in ascending order, each looked
                // up among its own entries only.
                let buckets = rng.gen_range(1..128u64);
                let mut staged = stream.clone();
                staged.sort_by_key(|t| t.term % buckets);
                let fill = PageFill::start(&mut buf, STAGED);
                fill_and_check(&mut buf, fill, &[], &staged, |t| t % buckets, &ctx);
                // A head topped up in place: part of a page beside a
                // table, read back, its table erased, filled again.
                let first = rng.gen_range(0..=took);
                let fill = PageFill::start(&mut buf, 5);
                fill_and_check(&mut buf, fill, &[], &stream[..first], |_| 0, &ctx);
                let room = PageFill::resume(&mut buf).unwrap();
                let entries = rng.gen_range(0..=max_table_entries(page_size));
                let mut entries: Vec<(u64, u32)> =
                    (0..entries).map(|_| (rng.gen(), rng.gen())).collect();
                entries.sort_unstable_by_key(|e| e.0);
                entries.dedup_by_key(|e| e.0);
                while !room.fits_table(page_size, entries.len()) {
                    entries.pop();
                }
                put_table(&mut buf, &entries, true);
                let table = BucketPage::parse(&buf).unwrap().table().unwrap();
                assert_eq!(table.entries().collect::<Vec<_>>(), entries, "{ctx}");
                let fill = PageFill::resume(&mut buf).unwrap();
                assert_eq!(
                    BucketPage::parse(&buf).unwrap().table(),
                    Some(DfTable::NONE)
                );
                let rest = &stream[first..];
                let more = fill_and_check(&mut buf, fill, &stream[..first], rest, |_| 0, &ctx);
                assert_eq!(first + more, took, "{ctx}: a top-up packs as a fresh page");
                let page = BucketPage::parse(&buf).unwrap();
                assert_eq!(page.prev, 5, "{ctx}");
            }
        }
    }

    fn triples(n: u64) -> Vec<Triple> {
        (0..n)
            .map(|i| Triple {
                term: i,
                doc: i as u32,
                tf: 1,
            })
            .collect()
    }

    #[test]
    fn a_df_table_answers_by_binary_search_and_says_when_it_cannot() {
        let entries: Vec<(u64, u32)> = (1..=20).map(|i| (i * 10, i as u32)).collect();
        for complete in [true, false] {
            let page = encode_head(512, 3, &triples(9), &entries, complete);
            let table = BucketPage::parse(&page).unwrap().table().unwrap();
            assert_eq!((table.len(), table.is_complete()), (20, complete));
            assert_eq!(table.entries().collect::<Vec<_>>(), entries);
            for &(term, df) in &entries {
                assert_eq!(table.df(term), Some(df));
            }
            for absent in [0, 15, 205, u64::MAX] {
                assert_eq!(table.df(absent), complete.then_some(0), "{absent}");
            }
        }
        // No table: nothing is known.
        let page = encode_page(512, 3, &triples(9));
        let table = BucketPage::parse(&page).unwrap().table().unwrap();
        assert_eq!((table.len(), table.df(0)), (0, None));
        // A full page keeps the trailer out of its postings and dictionary.
        let full = encode_page(512, 3, &triples(triples_per_page(512) as u64));
        assert!(BucketPage::parse(&full).unwrap().table().is_some());
    }

    #[test]
    fn a_df_table_that_lies_is_refused() {
        let entries: Vec<(u64, u32)> = (1..=10).map(|i| (i * 10, 1)).collect();
        let refused = |page: &[u8]| BucketPage::parse(page).unwrap().table().is_none();
        let head = |entries: &[(u64, u32)]| encode_head(512, 3, &triples(20), entries, true);
        assert!(!refused(&head(&entries)));
        // Unsorted, and a duplicate term.
        let mut swapped = entries.clone();
        swapped.swap(3, 4);
        assert!(refused(&head(&swapped)));
        let mut twice = entries.clone();
        twice[5].0 = twice[4].0;
        assert!(refused(&head(&twice)));
        // An entry count whose bytes reach into the postings, or past the
        // page's start.
        let used = PAGE_HEADER + TABLE_TRAILER + 20 * (POSTING_LEN + TERM_LEN);
        let room = (512 - used) / DF_ENTRY_LEN;
        for count in [room as u16 + 1, 0x7FFE] {
            let mut page = head(&entries);
            page[510..].copy_from_slice(&(count | COMPLETE).to_le_bytes());
            assert!(refused(&page), "{count}");
        }
        // More entries than a table holds, though the page has room.
        let mut entries: Vec<(u64, u32)> = (0..=21).map(|i| (i, 1)).collect();
        assert!(refused(&encode_head(512, 3, &[], &entries, true)));
        entries.pop();
        assert!(!refused(&encode_head(512, 3, &[], &entries, true)));
        // A buffer too short for the trailer beside the dictionary.
        let page = head(&entries[..1]);
        assert!(BucketPage::parse(&page[..=PAGE_HEADER + 20 * POSTING_LEN]).is_none());
    }

    #[test]
    fn triple_round_trip() {
        let t = Triple {
            term: 0xDEADBEEFCAFEF00D,
            doc: 42,
            tf: 7,
        };
        let page = encode_page(512, 1, &[t]);
        let view = BucketPage::parse(&page).unwrap();
        assert_eq!((view.len(), view.terms(), view.get(0)), (1, 1, Some(t)));
        assert_eq!(view.get(1), None);
        // Cut before the dictionary entry's last byte, the page is refused.
        assert_eq!(decode_page(&page[..PAGE_HEADER + POSTING_LEN + 9]), None);
    }

    #[test]
    fn page_round_trip() {
        let triples: Vec<Triple> = (0..10)
            .map(|i| Triple {
                term: i as u64 % 3,
                doc: i * 3,
                tf: i as u16,
            })
            .collect();
        let page = encode_page(512, 77, &triples);
        assert_eq!(page.len(), 512);
        assert_eq!(BucketPage::parse(&page).unwrap().terms(), 3);
        let (prev, back) = decode_page(&page).unwrap();
        assert_eq!(prev, 77);
        assert_eq!(back, triples);
    }

    #[test]
    fn capacity_matches_layout() {
        // Every posting a new term: 15 bytes each.
        assert_eq!(triples_per_page(512), (512 - 9) / 15);
        assert_eq!(triples_per_page(2048), 135);
        // A page closes at 255 entries.
        assert_eq!(triples_per_page(4096), 255);
        assert_eq!(max_table_entries(512), 21);
        assert_eq!(max_table_entries(2048), 85);
        for page_size in [512, 2048, 4096] {
            let n = triples_per_page(page_size);
            let distinct = triples(n as u64);
            let page = encode_page(page_size, NO_PREV, &distinct);
            let (prev, back) = decode_page(&page).unwrap();
            assert_eq!((prev, back.len()), (NO_PREV, n));
            // One term: 7 bytes a posting.
            let one = vec![
                Triple {
                    term: 1,
                    doc: 2,
                    tf: 3
                };
                (page_size - 9 - 8) / 7
            ];
            let page = encode_page(page_size, NO_PREV, &one);
            assert_eq!(decode_page(&page).unwrap().1, one);
        }
    }
}
