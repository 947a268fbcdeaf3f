//! PBFilter — the sequential selection index of the tutorial.
//!
//! "Log1: «Keys» (vertical partition), stores the index key, filled at
//! tuple insertion. Log2: «Bloom Filters», 1 BF built for each page in
//! «Keys»; BF is a probabilistic summary (~2 B/key)."
//!
//! The summarised-log recipe (`summary_log.rs`) with `(key, rowid)`
//! entries and one Bloom filter per Keys page. Lookup
//! (`CUSTOMER.CITY = 'Lyon'`) probes every page whose filter answers
//! *positive*: `|Log2| I/O + 1 I/O per (true or false) positive page` —
//! the slide's 640-IO table scan collapses to a 17-IO summary scan.

use pds_crypto::{BloomFilter, BloomRef, KeyHash};
use pds_flash::{Flash, FlashError};
use pds_obs::wire::Reader;

use crate::sort::{read_entry, write_entry, SortEntry, SortEntryRef};
use crate::summary_log::{Front, SummaryLog};
use crate::table::RowId;

/// Entry codec and summary of the index: `(key, rowid)` entries (the
/// layout the sort and the tree share), one Bloom filter per page.
struct KeysFront {
    /// Bloom-filter budget in bits per key (the tutorial's figure is 16,
    /// i.e. ~2 bytes/key; exposed as a dial for the A1 ablation).
    bits_per_key: usize,
}

impl Front for KeysFront {
    type Entry = SortEntry;
    type EntryRef<'a> = SortEntryRef<'a>;
    type Summary<'a> = BloomRef<'a>;

    fn encode((key, rowid): &SortEntry, out: &mut Vec<u8>) {
        write_entry(out, key, *rowid);
    }

    fn decode<'a>(r: &mut Reader<'a>) -> Option<SortEntryRef<'a>> {
        read_entry(r)
    }

    fn to_owned((key, rowid): SortEntryRef<'_>) -> SortEntry {
        (key.to_vec(), rowid)
    }

    fn summarise(&self, page: &[SortEntry]) -> Vec<u8> {
        let num_bits = (page.len() * self.bits_per_key).max(8);
        let hashes = ((self.bits_per_key as f64 * 0.693).round() as u32).max(1);
        let mut bf = BloomFilter::new(num_bits, hashes);
        for (key, _) in page {
            bf.insert(key);
        }
        bf.to_bytes()
    }

    fn summary(rec: &[u8]) -> Option<BloomRef<'_>> {
        BloomRef::parse(rec)
    }
}

/// The two-log selection index.
pub struct PBFilter {
    /// Log1 «Keys» + Log2 «Bloom Filters».
    log: SummaryLog<KeysFront>,
}

impl PBFilter {
    /// An empty index on `flash` with the tutorial's ~2 B/key summaries.
    pub fn new(flash: &Flash) -> Self {
        Self::with_bits_per_key(flash, 16)
    }

    /// An empty index with an explicit Bloom budget (bits per key).
    pub fn with_bits_per_key(flash: &Flash, bits_per_key: usize) -> Self {
        // pds-lint: allow(panic.assert) — construction-time shape check on a
        // caller-chosen constant (Bloom budget dial); not data-dependent.
        assert!(bits_per_key >= 1);
        PBFilter {
            log: SummaryLog::new(flash, KeysFront { bits_per_key }),
        }
    }

    /// Pages in the Keys log (flushed).
    pub fn num_key_pages(&self) -> u32 {
        self.log.num_data_pages()
    }

    /// Pages in the summary log (flushed).
    pub fn num_summary_pages(&self) -> u32 {
        self.log.num_summary_pages()
    }

    /// True until the first entry is inserted.
    pub fn is_empty(&self) -> bool {
        self.log.num_data_pages() == 0 && self.log.open_entries().is_empty()
    }

    /// Index one `(key, rowid)` pair, appending a Keys page (and its
    /// summary) whenever the current page fills. A key no page can hold
    /// is [`FlashError::RecordTooLarge`].
    pub fn insert(&mut self, key: &[u8], rowid: RowId) -> Result<(), FlashError> {
        self.log.push((key.to_vec(), rowid))
    }

    /// Force pending entries to flash (end of an insertion batch).
    pub fn flush(&mut self) -> Result<(), FlashError> {
        self.log.flush()
    }

    /// Erase blocks of both logs — what crash recovery frees before
    /// rebuilding the index from its base table (a PBFilter is derived
    /// state; its RAM-buffered tail makes page-level recovery moot).
    pub fn blocks(&self) -> Vec<pds_flash::BlockId> {
        self.log.blocks()
    }

    /// All rowids whose key equals `key`, in ascending rowid order. The
    /// key is hashed once; every summary is probed with those two words
    /// where it lies, and the keys of a positive page are compared in
    /// the one page buffer the lookup holds.
    pub fn lookup(&self, key: &[u8]) -> Result<Vec<RowId>, FlashError> {
        let mut hits = Vec::new();
        let hash = KeyHash::of(key);
        let mut page = Vec::new();
        self.log.for_each_summary(|ordinal, bf| {
            if bf.contains(hash) {
                self.log.for_each_entry(ordinal, &mut page, |(k, rowid)| {
                    if k == key {
                        hits.push(rowid);
                    }
                })?;
            }
            Ok(())
        })?;
        let open = self.log.open_entries().iter();
        hits.extend(open.filter(|(k, _)| k == key).map(|(_, rowid)| *rowid));
        Ok(hits)
    }

    /// Lazy iterator over every `(key, rowid)` entry in insertion order,
    /// holding one decoded page in RAM — the reorganization input stream.
    pub fn entries(&self) -> PBFilterEntries<'_> {
        PBFilterEntries {
            idx: self,
            next_page: 0,
            current: Vec::new().into_iter(),
        }
    }

    /// Discard the index, reclaiming its blocks.
    pub fn discard(self) {
        self.log.discard();
    }
}

/// Streaming entry iterator over a [`PBFilter`] (see
/// [`PBFilter::entries`]).
pub struct PBFilterEntries<'a> {
    idx: &'a PBFilter,
    /// Next Keys page to load; one past the flushed pages once the
    /// RAM-pending page has been served too.
    next_page: u32,
    current: std::vec::IntoIter<SortEntry>,
}

impl Iterator for PBFilterEntries<'_> {
    type Item = Result<SortEntry, FlashError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(entry) = self.current.next() {
                return Some(Ok(entry));
            }
            let log = &self.idx.log;
            let loaded = match self.next_page.cmp(&log.num_data_pages()) {
                std::cmp::Ordering::Less => log.read_page(self.next_page),
                std::cmp::Ordering::Equal => Ok(log.open_entries().to_vec()),
                std::cmp::Ordering::Greater => return None,
            };
            self.next_page += 1;
            match loaded {
                Ok(entries) => self.current = entries.into_iter(),
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::rng::{Rng, SeedableRng, StdRng};

    fn flash() -> Flash {
        Flash::small(128)
    }

    #[test]
    fn keys_pages_and_their_filters_keep_the_decoder_contract() {
        let front = KeysFront { bits_per_key: 16 };
        crate::summary_log::sweep_front(
            "keys",
            &front,
            |rng| (b"key".repeat(rng.gen_range(0..9usize)), rng.gen()),
            reference_read_entry,
        );
    }

    /// The owned `(key, rowid)` decoder as it stood before Keys pages
    /// were walked in place, kept verbatim.
    fn reference_read_entry(r: &mut Reader<'_>) -> Option<SortEntry> {
        let key = r.prefixed()?.to_vec();
        Some((key, r.u32()?))
    }

    /// `lookup` as it stood before summaries were probed and Keys pages
    /// compared in place: an owned filter per summary, the key hashed
    /// once per filter, every positive page decoded into owned entries.
    fn reference_lookup(idx: &PBFilter, key: &[u8]) -> Vec<RowId> {
        let mut hits = Vec::new();
        let matching = |entries: &[SortEntry], hits: &mut Vec<RowId>| {
            hits.extend(
                entries
                    .iter()
                    .filter(|(k, _)| k.as_slice() == key)
                    .map(|(_, rowid)| *rowid),
            );
        };
        for (page, rec) in idx.log.reference_summaries().unwrap().iter().enumerate() {
            if BloomFilter::from_bytes(rec).unwrap().maybe_contains(key) {
                let entries = idx
                    .log
                    .reference_read_page(page as u32, reference_read_entry);
                matching(&entries.unwrap(), &mut hits);
            }
        }
        matching(idx.log.open_entries(), &mut hits);
        hits
    }

    #[test]
    fn lookup_equals_the_reference_and_reads_the_same_pages() {
        for case in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(0x9BF1 + case);
            let f = Flash::small(512);
            let mut idx = PBFilter::new(&f);
            let domain = rng.gen_range(1u32..400);
            let n = [0u32, 1, 60, 2000, 5000][case as usize % 5];
            for i in 0..n {
                let key = format!("C{}", rng.gen_range(0..domain));
                idx.insert(key.as_bytes(), i).unwrap();
            }
            if case % 2 == 0 {
                idx.flush().unwrap();
            }
            for probe in 0..domain.min(40) + 2 {
                let key = format!("C{probe}");
                let before = f.stats();
                let got = idx.lookup(key.as_bytes()).unwrap();
                let mid = f.stats();
                let want = reference_lookup(&idx, key.as_bytes());
                let after = f.stats();
                assert_eq!(got, want, "case {case} key {key}");
                assert_eq!(
                    (mid - before).page_reads,
                    (after - mid).page_reads,
                    "case {case} key {key}"
                );
            }
        }
    }

    /// Insert `n` city keys: city = "C{i % cities}", rowid = i.
    fn build(n: u32, cities: u32) -> (Flash, PBFilter) {
        let f = flash();
        let mut idx = PBFilter::new(&f);
        for i in 0..n {
            let city = format!("C{}", i % cities);
            idx.insert(city.as_bytes(), i).unwrap();
        }
        (f, idx)
    }

    #[test]
    fn lookup_finds_all_and_only_matches() {
        let (_f, idx) = build(500, 10);
        let hits = idx.lookup(b"C3").unwrap();
        let expected: Vec<RowId> = (0..500).filter(|i| i % 10 == 3).collect();
        assert_eq!(hits, expected, "ascending rowids, complete");
        assert!(idx.lookup(b"C99").unwrap().is_empty());
    }

    #[test]
    fn pending_entries_are_visible_before_flush() {
        let f = flash();
        let mut idx = PBFilter::new(&f);
        idx.insert(b"Lyon", 7).unwrap();
        assert_eq!(idx.lookup(b"Lyon").unwrap(), vec![7]);
        assert_eq!(idx.num_key_pages(), 0);
    }

    #[test]
    fn summary_scan_beats_key_scan() {
        // Domain (500 cities) far above the per-page key capacity, as in
        // the slide's CUSTOMER.CITY example: most Keys pages contain no
        // match, and their Bloom filters prune them.
        let (f, mut idx) = build(2000, 500);
        idx.flush().unwrap();
        let key_pages = idx.num_key_pages() as u64;
        let before = f.stats();
        idx.lookup(b"C7").unwrap();
        let delta = f.stats() - before;
        assert!(
            delta.page_reads < key_pages,
            "lookup read {} pages, full key scan would read {}",
            delta.page_reads,
            key_pages
        );
        // Summary log is much smaller than the keys log.
        assert!(idx.num_summary_pages() < idx.num_key_pages() / 2);
    }

    #[test]
    fn no_false_negatives_ever() {
        let (_f, idx) = build(1000, 100);
        for c in 0..100 {
            let key = format!("C{c}");
            let hits = idx.lookup(key.as_bytes()).unwrap();
            assert_eq!(hits.len(), 10, "city {key}");
        }
    }

    #[test]
    fn entries_stream_everything_in_insertion_order() {
        // 300 keys: flushed Keys pages, then the RAM-pending page.
        let (_f, idx) = build(300, 7);
        assert!(idx.num_key_pages() > 0 && !idx.log.open_entries().is_empty());
        let mut n = 0u32;
        for entry in idx.entries() {
            let (key, rowid) = entry.unwrap();
            assert_eq!(key, format!("C{}", rowid % 7).as_bytes());
            assert_eq!(rowid, n);
            n += 1;
        }
        assert_eq!(n, 300);
    }

    #[test]
    fn oversized_key_is_a_typed_error_not_a_torn_page() {
        // 512-byte pages hold a 504-byte record (8 bytes of frame: the
        // page header and the record's length prefix): 2 count + 2 klen
        // + key + 4 rowid must fit one.
        let f = flash();
        let mut idx = PBFilter::new(&f);
        idx.insert(b"Lyon", 1).unwrap();
        assert_eq!(
            idx.insert(&[7u8; 497], 2),
            Err(FlashError::RecordTooLarge { len: 503, max: 502 })
        );
        idx.insert(&[7u8; 496], 3).unwrap();
        idx.flush().unwrap();
        assert_eq!(idx.entries().count(), 2, "the refused key left nothing");
        assert_eq!(idx.lookup(b"Lyon").unwrap(), vec![1]);
        // The largest entry is one page of its own, read in one go.
        assert_eq!(idx.num_key_pages(), 2);
        let before = f.stats().page_reads;
        assert_eq!(idx.lookup(&[7u8; 496]).unwrap(), vec![3]);
        assert!(
            f.stats().page_reads - before <= 3,
            "1 summary page + 2 probes at most"
        );
    }

    #[test]
    fn insertion_is_pure_sequential_writes() {
        let f = flash();
        let mut idx = PBFilter::new(&f);
        for i in 0..3000u32 {
            idx.insert(format!("K{}", i % 20).as_bytes(), i).unwrap();
        }
        idx.flush().unwrap();
        // Two interleaved logs: programs alternate between them, but each
        // log itself never rewrites a page; erases stay zero.
        assert_eq!(f.stats().block_erases, 0);
    }

    #[test]
    fn prop_lookup_matches_linear_scan() {
        for case in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(0x9BF0 + case);
            let keys: Vec<u8> = (0..rng.gen_range(1usize..300))
                .map(|_| rng.gen_range(0u8..8))
                .collect();
            let f = flash();
            let mut idx = PBFilter::new(&f);
            for (i, k) in keys.iter().enumerate() {
                idx.insert(&[*k], i as RowId).unwrap();
            }
            for probe in 0u8..8 {
                let expected: Vec<RowId> = keys
                    .iter()
                    .enumerate()
                    .filter(|(_, k)| **k == probe)
                    .map(|(i, _)| i as RowId)
                    .collect();
                assert_eq!(idx.lookup(&[probe]).unwrap(), expected, "case {case}");
            }
        }
    }

    #[test]
    fn entries_in_log_order_and_answers_are_pinned() {
        let mut rng = StdRng::seed_from_u64(0x91D5_0001);
        let key = |k: u32| format!("key-{k:0w$}", w = 1 + (k % 12) as usize).into_bytes();
        let f = flash();
        let mut idx = PBFilter::new(&f);
        let mut answers = Vec::new();
        for rowid in 0..2500u32 {
            idx.insert(&key(rng.gen_range(0..150)), rowid).unwrap();
            match rng.gen_range(0..60u32) {
                0 => idx.flush().unwrap(),
                1..=3 => answers.push(idx.lookup(&key(rng.gen_range(0..160))).unwrap()),
                _ => {}
            }
        }
        answers.extend((0..160).map(|k| idx.lookup(&key(k)).unwrap()));
        let entries = idx.log.entries_in_log_order().unwrap();
        assert_eq!(entries.len(), 2500);
        assert_eq!(
            crate::debug_digest(&(entries, answers)),
            "c9c34d2f0fefd6d884329a0c064d7302ffd0e19e0a73f2f61fc04dd6da5b2ca4"
        );
    }
}
