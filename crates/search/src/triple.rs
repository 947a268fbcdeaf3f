//! Index triples and their page layout.
//!
//! "Inverted index: stores triples (keyword, docid, weight)". The keyword
//! is stored as a 64-bit hash (collisions are negligible and a false merge
//! would only add a spurious score contribution); the weight is the term
//! frequency in the document (the `weight_{ti,doc}` factor of the
//! tutorial's TF-IDF formula).
//!
//! ## Bucket page layout (raw log page)
//!
//! ```text
//! [prev_page: u32]  index of the previous page of this bucket chain
//!                   within the index log, u32::MAX = end of chain
//! [count: u16]      number of triples
//! count × [term_hash: u64][docid: u32][tf: u16]
//! … erased (0xFF) …
//! entries × [term_hash: u64][df: u32]   the df table, ascending term
//! [table: u16]      the page's last two bytes: 0xFFFF = no table, else
//!                   bit 15 = complete, bits 0..=14 = entries (at most
//!                   max_table_entries: half the page)
//! ```
//!
//! The index log holds two kinds of page in this one layout. A *chain*
//! page belongs to one bucket and links to the bucket's previous page. A
//! *staged* page — `prev` = [`STAGED`] — is a page of the log's tail: a
//! slice of the insertion buffer as it was flushed, bucket after bucket,
//! linked to nothing; it is found by its position (see
//! [`SearchEngine`](crate::SearchEngine)) and the marker only tells it
//! from whatever else a failed drain may have left among the tail.
//!
//! ## The head's df table
//!
//! The *head* of a chain — its newest page — carries the bucket's df
//! table behind its triples: one `(term, df)` entry per term with a
//! posting anywhere in the chain, counting postings (live or not), so
//! that a term's df over the chain is one page read. A table is
//! *complete* when it holds every term of the chain; one that ran out of
//! entries ([`max_table_entries`]) holds the terms it met first and is
//! not, and a term it lacks is then counted by a walk. Only the head's
//! table is ever read: staged pages and the pages below a head carry
//! none (an erased trailer). The two-byte trailer fits the slack every
//! page size leaves behind its last triple slot: [`triples_per_page`]
//! keeps it out of the slots.
//!
//! ## One parser: the view
//!
//! A bucket page is read through [`BucketPage`], a view over the page
//! buffer it was read into: [`BucketPage::parse`] is the page format's
//! only parser (the slot count is checked against the bytes in hand
//! before anything is looked at), [`BucketPage::triples`] decodes
//! each triple as the walk reaches it, from either end, and
//! [`BucketPage::table`] checks the df table only when it is asked for —
//! a walk never looks at one. Every chain walk
//! of the engine — df counting, the query cursors, reorganisation,
//! recovery's soundness check — is that view over one reused page
//! buffer; the owned [`decode_page`] is the view collected.

use pds_obs::wire::Reader;

/// Document identifier. "Document ids are generated in increasing order" —
/// the property the pipeline merge relies on.
pub type DocId = u32;

/// End-of-chain marker in a bucket page header.
pub const NO_PREV: u32 = u32::MAX;

/// `prev` of a staged page: not a link, the mark of a page of the tail.
pub const STAGED: u32 = u32::MAX - 1;

/// Size of the bucket-page header.
pub const PAGE_HEADER: usize = 6;

/// Size of the df-table trailer, the page's last two bytes.
pub const TABLE_TRAILER: usize = 2;

/// Bytes per df-table entry: `[term_hash: u64][df: u32]`.
pub const DF_ENTRY_LEN: usize = 12;

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

/// Bytes per serialized triple.
pub const TRIPLE_LEN: usize = 14;

impl Triple {
    /// Serialize into `buf` at `off`.
    pub fn write(&self, buf: &mut [u8], off: usize) {
        buf[off..off + 8].copy_from_slice(&self.term.to_le_bytes());
        buf[off + 8..off + 12].copy_from_slice(&self.doc.to_le_bytes());
        buf[off + 12..off + 14].copy_from_slice(&self.tf.to_le_bytes());
    }

    /// Read the next triple off the cursor; `None` when the bytes run
    /// out (a corrupt page must degrade into a failed query, never a
    /// panic on the unattended token).
    pub fn read(r: &mut Reader<'_>) -> Option<Triple> {
        Some(Triple {
            term: r.u64()?,
            doc: r.u32()?,
            tf: r.u16()?,
        })
    }
}

/// How many triples fit in one bucket page of `page_size` bytes, the
/// table trailer kept clear (at every power-of-two page size it sits in
/// the slack behind the last slot: the count is the same without it).
pub fn triples_per_page(page_size: usize) -> usize {
    page_size.saturating_sub(PAGE_HEADER + TABLE_TRAILER) / TRIPLE_LEN
}

/// How many triples fit on a head page beside a df table of `entries`.
pub fn head_room(page_size: usize, entries: usize) -> usize {
    (page_size.saturating_sub(PAGE_HEADER + TABLE_TRAILER)).saturating_sub(entries * DF_ENTRY_LEN)
        / TRIPLE_LEN
}

/// The most entries a head's df table holds: half the page, so that a
/// head always has room for half a page of triples beside it.
pub fn max_table_entries(page_size: usize) -> usize {
    page_size.saturating_sub(PAGE_HEADER + TABLE_TRAILER) / 2 / DF_ENTRY_LEN
}

/// Encode one bucket page: [`fill_page`] over a fresh page of `0xFF` — the
/// layout the format tests build their pages with.
#[cfg(test)]
pub(crate) fn encode_page(page_size: usize, prev: u32, triples: &[Triple]) -> Vec<u8> {
    debug_assert!(triples.len() <= triples_per_page(page_size));
    let mut buf = vec![0xFFu8; page_size];
    fill_page(&mut buf, prev, 0, triples.iter().copied());
    buf
}

/// Encode a head page: [`encode_page`] and a df table behind it.
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

/// Lay a bucket page out in the page image `buf`, in place: slots below
/// `from` stay as they are, `triples` go into the slots from `from` on
/// until they or the page run out, and the header is written for the
/// lot. Returns the page's triple count. With `from` = 0 over a buffer of
/// `0xFF` it lays a page out whole; called again with the count it
/// returned it goes on filling the same page; with the count and `prev`
/// of a page just read into `buf` it tops that page up.
pub fn fill_page(
    buf: &mut [u8],
    prev: u32,
    from: usize,
    triples: impl Iterator<Item = Triple>,
) -> usize {
    let room = triples_per_page(buf.len()).saturating_sub(from);
    let mut count = from;
    for t in triples.take(room) {
        t.write(buf, PAGE_HEADER + count * TRIPLE_LEN);
        count += 1;
    }
    buf[0..4].copy_from_slice(&prev.to_le_bytes());
    buf[4..6].copy_from_slice(&(count as u16).to_le_bytes());
    count
}

/// Write a head's df table — `entries` ascending by term, which must fit
/// between the triples [`fill_page`] laid out and the trailer — and its
/// trailer into the page image `buf`.
pub fn put_table(buf: &mut [u8], entries: &[(u64, u32)], complete: bool) {
    let trailer = buf.len() - TABLE_TRAILER;
    let start = trailer - entries.len() * DF_ENTRY_LEN;
    for (slot, &(term, df)) in buf[start..trailer]
        .chunks_exact_mut(DF_ENTRY_LEN)
        .zip(entries)
    {
        slot[..8].copy_from_slice(&term.to_le_bytes());
        slot[8..].copy_from_slice(&df.to_le_bytes());
    }
    let word = entries.len() as u16 | if complete { COMPLETE } else { 0 };
    buf[trailer..].copy_from_slice(&word.to_le_bytes());
}

/// A bucket page read where it lies: the chain link and the triple
/// slots of a page image laid out by [`fill_page`], borrowed, and the
/// image itself for its df table.
#[derive(Debug, Clone, Copy)]
pub struct BucketPage<'a> {
    /// Index of the previous page of this bucket chain, [`NO_PREV`] at
    /// the end of the chain.
    pub prev: u32,
    /// `count × TRIPLE_LEN` bytes.
    slots: &'a [u8],
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
    /// Parse a page image; `None` on a short buffer or a slot count
    /// pointing past the page (torn or corrupt flash). The engine maps
    /// `None` to `SearchError::CorruptIndex`.
    pub fn parse(buf: &'a [u8]) -> Option<Self> {
        let mut r = Reader::new(buf);
        let prev = r.u32()?;
        let count = r.count16(TRIPLE_LEN)?;
        let slots = r.bytes(count * TRIPLE_LEN)?;
        Some(BucketPage {
            prev,
            slots,
            image: buf,
        })
    }

    /// The page's df table, [`DfTable`]'s empty incomplete one when it
    /// carries none. `None` — corrupt — when the trailer does not fit
    /// behind the triples, or its entry count claims bytes that overlap
    /// them or more entries than [`max_table_entries`], or its terms are
    /// not strictly ascending (unsorted or duplicated). Linear in the
    /// entries, which the page bounds.
    pub fn table(&self) -> Option<DfTable<'a>> {
        let slots_end = PAGE_HEADER + self.slots.len();
        let trailer = self.image.len().checked_sub(TABLE_TRAILER)?;
        let mut r = Reader::new(self.image.get(trailer..)?);
        let word = r.u16()?;
        if trailer < slots_end {
            return None;
        }
        if word == NO_TABLE {
            return Some(DfTable::NONE);
        }
        let entries = usize::from(word & !COMPLETE);
        if entries > max_table_entries(self.image.len()) {
            return None;
        }
        let start = (trailer.checked_sub(entries * DF_ENTRY_LEN)).filter(|&at| at >= slots_end)?;
        let table = DfTable {
            entries: &self.image[start..trailer],
            complete: word & COMPLETE != 0,
        };
        let ascending = (table.entries().zip(table.entries().skip(1))).all(|(a, b)| a.0 < b.0);
        ascending.then_some(table)
    }

    /// Number of triples on the page.
    pub fn len(&self) -> usize {
        self.slots.len() / TRIPLE_LEN
    }

    /// True for a page without triples.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The triple in slot `i`, `None` past the last one.
    pub fn get(&self, i: usize) -> Option<Triple> {
        let at = i.checked_mul(TRIPLE_LEN)?;
        let slot = self.slots.get(at..at.checked_add(TRIPLE_LEN)?)?;
        Triple::read(&mut Reader::new(slot))
    }

    /// The triples in slot order (ascending docid within a chain), each
    /// decoded as the walk reaches it.
    pub fn triples(&self) -> impl DoubleEndedIterator<Item = Triple> + 'a {
        self.slots
            .chunks_exact(TRIPLE_LEN)
            .filter_map(|slot| Triple::read(&mut Reader::new(slot)))
    }
}

/// Decode one bucket page into `(prev, triples)`: [`BucketPage::parse`],
/// collected.
pub fn decode_page(buf: &[u8]) -> Option<(u32, Vec<Triple>)> {
    let page = BucketPage::parse(buf)?;
    Some((page.prev, page.triples().collect()))
}

/// The owned bucket-page decoder as it stood before pages were walked
/// in place, kept verbatim: the reference the differential tests of the
/// bucket-page format compare against.
#[cfg(test)]
pub(crate) fn reference_decode_page(buf: &[u8]) -> Option<(u32, Vec<Triple>)> {
    fn read(r: &mut Reader<'_>) -> Option<Triple> {
        Some(Triple {
            term: r.u64()?,
            doc: r.u32()?,
            tf: r.u16()?,
        })
    }
    let mut r = Reader::new(buf);
    let prev = r.u32()?;
    let count = r.count16(TRIPLE_LEN)?;
    let mut triples = Vec::with_capacity(count);
    for _ in 0..count {
        triples.push(read(&mut r)?);
    }
    Some((prev, triples))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a page decodes to: the chain link and the triples (which the
    /// reference must agree on), and the df table's entries and flag —
    /// an erased trailer reads as the empty incomplete table: both say
    /// that nothing is known.
    type Decoded = (u32, Vec<Triple>, Vec<(u64, u32)>, bool);

    #[test]
    fn bucket_pages_and_the_reference_keep_the_decoder_contract() {
        use pds_obs::rng::Rng;
        use pds_obs::wire::{sweep, Tail};
        const PAGE: usize = 512;
        let mut lying = encode_page(PAGE, 7, &[]);
        lying[4..6].fill(0xFF);
        // A df table claiming more entries than the page holds.
        let mut lying_table = encode_head(PAGE, 7, &[], &[], true);
        lying_table[PAGE - 2..].copy_from_slice(&0xFFFEu16.to_le_bytes());
        sweep(
            "bucket page vs reference",
            Tail::Padded,
            &[&lying, &lying[..6], &lying_table],
            |rng| {
                let triples = (0..rng.gen_range(0..=triples_per_page(PAGE)))
                    .map(|_| Triple {
                        term: rng.gen(),
                        doc: rng.gen(),
                        tf: rng.gen(),
                    })
                    .collect::<Vec<_>>();
                let room = (head_room(PAGE, 0) - triples.len()) * TRIPLE_LEN / DF_ENTRY_LEN;
                let most = room.min(max_table_entries(PAGE));
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
        // A full page keeps the trailer out of its last slot.
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
        // An entry count whose bytes reach into the triples, or past the
        // page's start.
        let room = (512 - PAGE_HEADER - TABLE_TRAILER - 20 * TRIPLE_LEN) / DF_ENTRY_LEN;
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
        // A buffer too short for the trailer behind the triples.
        let page = head(&entries);
        assert!(refused(&page[..=PAGE_HEADER + 20 * TRIPLE_LEN]));
    }

    #[test]
    fn triple_round_trip() {
        let t = Triple {
            term: 0xDEADBEEFCAFEF00D,
            doc: 42,
            tf: 7,
        };
        let mut buf = vec![0u8; TRIPLE_LEN];
        t.write(&mut buf, 0);
        assert_eq!(Triple::read(&mut Reader::new(&buf)), Some(t));
        assert_eq!(Triple::read(&mut Reader::new(&buf[1..])), None);
    }

    #[test]
    fn page_round_trip() {
        let triples: Vec<Triple> = (0..10)
            .map(|i| Triple {
                term: i as u64,
                doc: i * 3,
                tf: i as u16,
            })
            .collect();
        let page = encode_page(512, 77, &triples);
        assert_eq!(page.len(), 512);
        let (prev, back) = decode_page(&page).unwrap();
        assert_eq!(prev, 77);
        assert_eq!(back, triples);
    }

    #[test]
    fn capacity_matches_layout() {
        assert_eq!(triples_per_page(512), (512 - 6) / 14);
        assert_eq!(triples_per_page(2048), (2048 - 6) / 14);
        assert_eq!(head_room(2048, 36), (2048 - 8 - 36 * 12) / 14);
        assert_eq!(head_room(512, max_table_entries(512)), 18);
        let n = triples_per_page(512);
        let triples = vec![
            Triple {
                term: 1,
                doc: 2,
                tf: 3
            };
            n
        ];
        let page = encode_page(512, NO_PREV, &triples);
        let (prev, back) = decode_page(&page).unwrap();
        assert_eq!(prev, NO_PREV);
        assert_eq!(back.len(), n);
    }
}
