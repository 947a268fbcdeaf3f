//! Embedded key-value store — the tutorial's "noSQL & key-value stores"
//! challenge.
//!
//! The cited state of the art (SkimpyStash, SILT, LogBase) keeps "an
//! index in RAM to index that log (~1 B per key-value pair)" — which the
//! tutorial rules "incompatible with small RAM". This store is the
//! summarised-log recipe (`summary_log.rs`) instead, with versions
//! as entries and one Bloom filter per data page:
//!
//! * puts (and deletes, as tombstones) append; the *latest* version of a
//!   key wins;
//! * `get` probes positive pages **newest first** and stops at the first
//!   version found — RAM stays at one page no matter how many keys live
//!   in the store;
//! * a **compaction** (the reorganization of this model) rewrites only
//!   live versions into a fresh log and reclaims the old one wholesale.

use std::collections::BTreeSet;

use pds_crypto::{BloomFilter, BloomRef, KeyHash};
use pds_flash::{Flash, FlashError};
use pds_obs::wire::{put_prefixed, Reader};

use crate::summary_log::{Front, SummaryLog};

/// Entry kinds in the data log.
const KIND_PUT: u8 = 0;
const KIND_DELETE: u8 = 1;

/// One version in the data log: `kind u8 ‖ klen u16 ‖ key ‖ vlen u16 ‖
/// value`.
#[derive(Debug, Clone, PartialEq)]
struct Version {
    kind: u8,
    key: Vec<u8>,
    value: Vec<u8>,
}

/// A [`Version`] read where it lies: key and value are slices of the
/// data page.
#[derive(Clone, Copy)]
struct VersionRef<'a> {
    kind: u8,
    key: &'a [u8],
    value: &'a [u8],
}

/// Entry codec and summary of the store: one Bloom filter over the keys
/// of each page.
struct VersionsFront;

impl Front for VersionsFront {
    type Entry = Version;
    type EntryRef<'a> = VersionRef<'a>;
    type Summary<'a> = BloomRef<'a>;

    fn encode(v: &Version, out: &mut Vec<u8>) {
        out.push(v.kind);
        put_prefixed(out, &v.key);
        put_prefixed(out, &v.value);
    }

    fn decode<'a>(r: &mut Reader<'a>) -> Option<VersionRef<'a>> {
        Some(VersionRef {
            kind: r.u8()?,
            key: r.prefixed()?,
            value: r.prefixed()?,
        })
    }

    fn to_owned(v: VersionRef<'_>) -> Version {
        Version {
            kind: v.kind,
            key: v.key.to_vec(),
            value: v.value.to_vec(),
        }
    }

    fn summarise(&self, page: &[Version]) -> Vec<u8> {
        let mut bf = BloomFilter::per_key_16bits(page.len());
        for v in page {
            bf.insert(&v.key);
        }
        bf.to_bytes()
    }

    fn summary(rec: &[u8]) -> Option<BloomRef<'_>> {
        BloomRef::parse(rec)
    }
}

/// A log-structured key-value store with Bloom page summaries.
pub struct KvStore {
    flash: Flash,
    log: SummaryLog<VersionsFront>,
    /// Versions appended (puts + deletes), live or stale.
    versions: u64,
}

impl KvStore {
    /// An empty store on `flash`.
    pub fn new(flash: &Flash) -> Self {
        KvStore {
            flash: flash.clone(),
            log: SummaryLog::new(flash, VersionsFront),
            versions: 0,
        }
    }

    /// Data pages written.
    pub fn num_data_pages(&self) -> u32 {
        self.log.num_data_pages()
    }

    /// Versions appended (puts + deletes), live or stale.
    pub fn num_versions(&self) -> u64 {
        self.versions
    }

    /// Store `key → value` (a new version shadows any older one).
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), FlashError> {
        self.append_version(KIND_PUT, key, value)
    }

    /// Delete `key` (a tombstone shadows older versions).
    pub fn delete(&mut self, key: &[u8]) -> Result<(), FlashError> {
        self.append_version(KIND_DELETE, key, &[])
    }

    fn append_version(&mut self, kind: u8, key: &[u8], value: &[u8]) -> Result<(), FlashError> {
        self.log.push(Version {
            kind,
            key: key.to_vec(),
            value: value.to_vec(),
        })?;
        self.versions += 1;
        Ok(())
    }

    /// Force buffered entries to flash.
    pub fn flush(&mut self) -> Result<(), FlashError> {
        self.log.flush()
    }

    /// Latest value of `key`, `None` if absent or deleted.
    ///
    /// The most recent version wins, so the data pages are probed newest
    /// first and the probe stops at the first page that actually
    /// contains the key. Summaries only append, so finding the newest
    /// positive page takes one forward scan of them: each is probed
    /// where it lies with the key's one hash, and all the scan keeps is
    /// the ordinals of the positive pages (4 bytes each — the filters
    /// themselves never leave the summary page's buffer).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, FlashError> {
        // Most recent first: the RAM-pending entries.
        if let Some(v) = self.log.open_entries().iter().rfind(|v| v.key == key) {
            return Ok((v.kind == KIND_PUT).then(|| v.value.clone()));
        }
        let hash = KeyHash::of(key);
        let mut positive: Vec<u32> = Vec::new();
        self.log.for_each_summary(|page, bf| {
            if bf.contains(hash) {
                positive.push(page);
            }
            Ok(())
        })?;
        let mut buf = Vec::new();
        for &page in positive.iter().rev() {
            // The last version of the key on the page is its newest.
            let mut newest = None;
            self.log.for_each_entry(page, &mut buf, |v| {
                if v.key == key {
                    newest = Some((v.kind == KIND_PUT).then(|| v.value.to_vec()));
                }
            })?;
            if let Some(value) = newest {
                return Ok(value);
            }
            // False positive: keep scanning older pages.
        }
        Ok(None)
    }

    /// Compaction: rewrite only the *live* versions into a fresh store
    /// and reclaim this one's blocks wholesale. RAM: one page buffer +
    /// the set of keys already emitted (charged to the caller's budget in
    /// a full deployment; bounded by the live-key count).
    pub fn compact(self) -> Result<KvStore, FlashError> {
        let mut new = KvStore::new(&self.flash);
        let mut seen: BTreeSet<Vec<u8>> = BTreeSet::new();
        // Newest → oldest: first version of a key seen is the live one.
        let mut live: Vec<Version> = Vec::new();
        let mut keep_newest = |page: Vec<Version>| {
            for v in page.into_iter().rev() {
                if seen.insert(v.key.clone()) && v.kind == KIND_PUT {
                    live.push(v);
                }
            }
        };
        keep_newest(self.log.open_entries().to_vec());
        for page in (0..self.log.num_data_pages()).rev() {
            keep_newest(self.log.read_page(page)?);
        }
        // Rewrite live pairs (oldest-first for stable ordering).
        for v in live.into_iter().rev() {
            new.put(&v.key, &v.value)?;
        }
        new.flush()?;
        // Reclaim the old logs at block grain.
        self.log.discard();
        Ok(new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::rng::{Rng, SeedableRng, StdRng};
    use std::collections::HashMap;

    fn flash() -> Flash {
        Flash::small(256)
    }

    #[test]
    fn version_pages_and_their_filters_keep_the_decoder_contract() {
        crate::summary_log::sweep_front(
            "versions",
            &VersionsFront,
            |rng| Version {
                kind: rng.gen(),
                key: b"k".repeat(rng.gen_range(0..9usize)),
                value: b"value".repeat(rng.gen_range(0..5usize)),
            },
            reference_decode_version,
        );
    }

    /// The owned version decoder as it stood before data pages were
    /// walked in place, kept verbatim.
    fn reference_decode_version(r: &mut Reader<'_>) -> Option<Version> {
        Some(Version {
            kind: r.u8()?,
            key: r.prefixed()?.to_vec(),
            value: r.prefixed()?.to_vec(),
        })
    }

    /// `get` as it stood before summaries were probed in place: every
    /// summary of the store decoded into an owned filter first, then the
    /// positive pages newest first, each decoded into owned versions.
    fn reference_get(kv: &KvStore, key: &[u8]) -> Option<Vec<u8>> {
        if let Some(v) = kv.log.open_entries().iter().rfind(|v| v.key == key) {
            return (v.kind == KIND_PUT).then(|| v.value.clone());
        }
        let filters: Vec<BloomFilter> = (kv.log.reference_summaries().unwrap().iter())
            .map(|rec| BloomFilter::from_bytes(rec).unwrap())
            .collect();
        for (page, bf) in filters.iter().enumerate().rev() {
            if !bf.maybe_contains(key) {
                continue;
            }
            let versions = kv
                .log
                .reference_read_page(page as u32, reference_decode_version);
            if let Some(v) = versions.unwrap().into_iter().rfind(|v| v.key == key) {
                return (v.kind == KIND_PUT).then_some(v.value);
            }
        }
        None
    }

    /// `kv.get(key)`, checked against [`reference_get`]: the same answer
    /// for the same page reads.
    fn checked_get(kv: &KvStore, key: &[u8]) -> Option<Vec<u8>> {
        let before = kv.flash.stats();
        let got = kv.get(key).unwrap();
        let mid = kv.flash.stats();
        let want = reference_get(kv, key);
        let after = kv.flash.stats();
        assert_eq!(got, want, "key {key:02x?}");
        assert_eq!(
            (mid - before).page_reads,
            (after - mid).page_reads,
            "key {key:02x?}"
        );
        got
    }

    #[test]
    fn a_tombstone_on_the_newest_of_many_pages_ends_the_probe_there() {
        let f = Flash::small(2048);
        let mut kv = KvStore::new(&f);
        for i in 0..9000u32 {
            kv.put(format!("key-{}", i % 300).as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        kv.flush().unwrap();
        kv.delete(b"key-7").unwrap();
        kv.flush().unwrap();
        assert!(kv.num_data_pages() >= 200, "{}", kv.num_data_pages());
        let summary_pages = kv.log.num_summary_pages() as u64;
        let before = f.stats();
        assert_eq!(checked_get(&kv, b"key-7"), None);
        // The summary scan and the one page that holds the tombstone —
        // twice: `checked_get` runs the reference too.
        assert_eq!((f.stats() - before).page_reads, 2 * (summary_pages + 1));
        for k in [0u32, 8, 299] {
            let v = checked_get(&kv, format!("key-{k}").as_bytes()).unwrap();
            assert_eq!(u32::from_le_bytes(v.try_into().unwrap()) % 300, k);
        }
        assert_eq!(checked_get(&kv, b"key-300"), None);
    }

    #[test]
    fn put_get_roundtrip_and_shadowing() {
        let f = flash();
        let mut kv = KvStore::new(&f);
        kv.put(b"city", b"Lyon").unwrap();
        kv.put(b"name", b"Alice").unwrap();
        assert_eq!(checked_get(&kv, b"city").unwrap(), b"Lyon");
        kv.put(b"city", b"Paris").unwrap();
        assert_eq!(checked_get(&kv, b"city").unwrap(), b"Paris", "latest wins");
        assert_eq!(checked_get(&kv, b"unknown"), None);
    }

    #[test]
    fn tombstones_delete() {
        let f = flash();
        let mut kv = KvStore::new(&f);
        kv.put(b"k", b"v").unwrap();
        kv.flush().unwrap();
        kv.delete(b"k").unwrap();
        assert_eq!(checked_get(&kv, b"k"), None);
        kv.put(b"k", b"v2").unwrap();
        assert_eq!(checked_get(&kv, b"k").unwrap(), b"v2");
    }

    #[test]
    fn get_reads_few_pages_despite_many_versions() {
        let f = Flash::small(1024);
        let mut kv = KvStore::new(&f);
        for i in 0..2000u32 {
            kv.put(format!("key-{}", i % 100).as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        kv.flush().unwrap();
        f.reset_stats();
        let v = kv.get(b"key-50").unwrap().unwrap();
        assert_eq!(u32::from_le_bytes(v.try_into().unwrap()), 1950);
        let reads = f.stats().page_reads;
        // Summaries + the one (most recent) data page holding key-50.
        assert!(
            reads < kv.num_data_pages() as u64 / 3,
            "{reads} reads vs {} data pages",
            kv.num_data_pages()
        );
    }

    #[test]
    fn compaction_drops_stale_versions_and_preserves_state() {
        let f = Flash::small(1024);
        let before_free = f.free_blocks();
        let mut kv = KvStore::new(&f);
        for round in 0..10u32 {
            for k in 0..50u32 {
                kv.put(&k.to_le_bytes(), &(k * 1000 + round).to_le_bytes())
                    .unwrap();
            }
        }
        for k in 40..50u32 {
            kv.delete(&k.to_le_bytes()).unwrap();
        }
        kv.flush().unwrap();
        let pages_before = kv.num_data_pages();
        let kv = kv.compact().unwrap();
        assert!(kv.num_data_pages() < pages_before / 3, "compaction shrinks");
        for k in 0..40u32 {
            let v = checked_get(&kv, &k.to_le_bytes()).unwrap();
            assert_eq!(u32::from_le_bytes(v.try_into().unwrap()), k * 1000 + 9);
        }
        for k in 40..50u32 {
            assert_eq!(checked_get(&kv, &k.to_le_bytes()), None);
        }
        // No block leaked: only the compacted store holds blocks now.
        assert!(f.free_blocks() > before_free - 10);
    }

    #[test]
    fn damaged_data_pages_fail_the_query_and_never_panic() {
        use pds_flash::FaultPlan;
        // Raw data pages carry no CRC: a flipped bit in a count or length
        // field must come back as CorruptPage, not as an out-of-bounds
        // index. Every read flips one bit, so each seed damages each page
        // it reads somewhere else.
        let (mut corrupt_gets, mut corrupt_compactions) = (0, 0);
        for seed in 0..48u64 {
            let f = flash();
            let mut kv = KvStore::new(&f);
            for i in 0..400u32 {
                kv.put(format!("key-{}", i % 60).as_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
            kv.flush().unwrap();
            // Half the reads flip: a `get` must pass its summary pages'
            // CRC before it reaches a data page.
            f.inject_faults(FaultPlan::new(seed).read_flips(0.5));
            for k in 0..60u32 {
                match kv.get(format!("key-{k}").as_bytes()) {
                    Ok(_) => {}
                    Err(FlashError::CorruptPage(_)) => corrupt_gets += 1,
                    Err(e) => panic!("seed {seed}: {e:?}"),
                }
            }
            f.inject_faults(FaultPlan::new(seed).read_flips(1.0));
            match kv.compact() {
                Ok(_) => {}
                Err(FlashError::CorruptPage(_)) => corrupt_compactions += 1,
                Err(e) => panic!("seed {seed}: {e:?}"),
            }
        }
        assert!(corrupt_gets > 0 && corrupt_compactions > 0);
    }

    #[test]
    fn prop_matches_hashmap_model() {
        for case in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(0x4B00 + case);
            let f = Flash::small(1024);
            let mut kv = KvStore::new(&f);
            let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
            for _ in 0..rng.gen_range(1usize..400) {
                let op: u8 = rng.gen_range(0u8..3);
                let k = vec![rng.gen_range(0u8..20)];
                match op {
                    0 | 1 => {
                        let v = rng.gen::<u16>().to_le_bytes().to_vec();
                        kv.put(&k, &v).unwrap();
                        model.insert(k, v);
                    }
                    _ => {
                        kv.delete(&k).unwrap();
                        model.remove(&k);
                    }
                }
            }
            for key in 0u8..20 {
                let k = vec![key];
                assert_eq!(checked_get(&kv, &k), model.get(&k).cloned(), "case {case}");
            }
            // Compaction preserves the model too.
            let kv = kv.compact().unwrap();
            for key in 0u8..20 {
                let k = vec![key];
                assert_eq!(checked_get(&kv, &k), model.get(&k).cloned(), "case {case}");
            }
        }
    }

    #[test]
    fn entries_in_log_order_and_answers_are_pinned() {
        let mut rng = StdRng::seed_from_u64(0x91D5_0002);
        let key = |k: u32| format!("key-{k:0w$}", w = 1 + (k % 12) as usize).into_bytes();
        let f = flash();
        let mut kv = KvStore::new(&f);
        let mut answers = Vec::new();
        for _ in 0..1500 {
            let k = key(rng.gen_range(0..100));
            if rng.gen_range(0..4u32) == 0 {
                kv.delete(&k).unwrap();
            } else {
                let value: Vec<u8> = (0..rng.gen_range(0..40usize)).map(|_| rng.gen()).collect();
                kv.put(&k, &value).unwrap();
            }
            match rng.gen_range(0..60u32) {
                0 => kv.flush().unwrap(),
                1..=3 => answers.push(kv.get(&key(rng.gen_range(0..110))).unwrap()),
                _ => {}
            }
        }
        answers.extend((0..110).map(|k| kv.get(&key(k)).unwrap()));
        let entries = kv.log.entries_in_log_order().unwrap();
        assert_eq!(entries.len(), 1500);
        assert_eq!(
            crate::debug_digest(&(entries, answers)),
            "480faa78dd39ccb0417b071d9de1fb895c910e06d3e03339e0cff51d62d909b9"
        );
    }
}
