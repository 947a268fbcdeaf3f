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
//! ## One parser: the view
//!
//! A bucket page is read through [`BucketPage`], a view over the page
//! buffer it was read into: [`BucketPage::parse`] is the page format's
//! only parser (the slot count is checked against the bytes in hand
//! before anything is looked at) and [`BucketPage::triples`] decodes
//! each triple as the walk reaches it, from either end. Every chain walk
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

/// How many triples fit in one bucket page of `page_size` bytes.
pub fn triples_per_page(page_size: usize) -> usize {
    (page_size - PAGE_HEADER) / TRIPLE_LEN
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

/// A bucket page read where it lies: the chain link and the triple
/// slots of a page image laid out by [`fill_page`], borrowed.
#[derive(Debug, Clone, Copy)]
pub struct BucketPage<'a> {
    /// Index of the previous page of this bucket chain, [`NO_PREV`] at
    /// the end of the chain.
    pub prev: u32,
    /// `count × TRIPLE_LEN` bytes.
    slots: &'a [u8],
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
        Some(BucketPage { prev, slots })
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

    #[test]
    fn bucket_pages_and_the_reference_keep_the_decoder_contract() {
        use pds_obs::rng::Rng;
        use pds_obs::wire::{sweep, Tail};
        const PAGE: usize = 512;
        let mut lying = encode_page(PAGE, 7, &[]);
        lying[4..6].fill(0xFF);
        sweep(
            "bucket page vs reference",
            Tail::Padded,
            &[&lying, &lying[..6]],
            |rng| {
                let triples = (0..rng.gen_range(0..=triples_per_page(PAGE)))
                    .map(|_| Triple {
                        term: rng.gen(),
                        doc: rng.gen(),
                        tf: rng.gen(),
                    })
                    .collect::<Vec<_>>();
                (rng.gen::<u32>(), triples)
            },
            |(prev, triples)| encode_page(PAGE, *prev, triples),
            |buf| {
                let got = decode_page(buf);
                assert_eq!(got, reference_decode_page(buf), "{buf:02x?}");
                got
            },
        );
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
