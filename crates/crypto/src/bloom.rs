//! Bloom filters — the probabilistic summaries of the PBFilter index.
//!
//! Part II: "Log2: «Bloom Filters» — 1 BF built for each page in «Keys»;
//! BF is a probabilistic summary (~2 B/key)". At ~2 bytes (16 bits) per
//! key the optimal number of hash functions is `k = 16·ln2 ≈ 11`, giving a
//! false-positive rate of about 0.05 % — which is why the tutorial's
//! summary scan costs "|Log2| I/O + 1 IO/result" with almost no wasted
//! page probes.
//!
//! Hashes are derived by double hashing (Kirsch–Mitzenmacher) from two
//! halves of a SHA-256 digest, so a filter is a plain bit array that can
//! be stored in, and reloaded from, a flash page.
//!
//! ## One parser, one probe
//!
//! A stored filter is read through [`BloomRef`], a view over the record
//! it lies in: [`BloomRef::parse`] is the format's only parser and
//! [`BloomRef::contains`] the only membership test. The owned
//! [`BloomFilter`] is what building a filter needs (`insert`), and its
//! `from_bytes` / `maybe_contains` are the view collected and the view
//! asked. The digest of a key does not depend on the filter, so it is a
//! value of its own ([`KeyHash`]): a summary scan hashes its key once and
//! probes every summary of the log with the same two words.

use pds_obs::wire::Reader;

use crate::hash::sha256;

/// The two hash words every probe position of a key derives from:
/// position `i` is `(h1 + i·h2) mod num_bits`. Computed once per key,
/// whatever the number of filters probed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyHash {
    h1: u64,
    h2: u64,
}

impl KeyHash {
    /// Hash `key` (one SHA-256).
    pub fn of(key: &[u8]) -> Self {
        let digest = sha256(key);
        let word = |at: usize| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&digest[at..at + 8]);
            u64::from_le_bytes(w)
        };
        KeyHash {
            h1: word(0),
            h2: word(8) | 1,
        }
    }

    /// The bit positions of this key in a filter of the given shape.
    fn positions(self, num_bits: usize, num_hashes: u32) -> impl Iterator<Item = usize> {
        let m = num_bits as u64;
        (0..num_hashes as u64)
            .map(move |i| (self.h1.wrapping_add(i.wrapping_mul(self.h2)) % m) as usize)
    }
}

/// A filter read where it lies: the header fields and the bit array of a
/// record produced by [`BloomFilter::to_bytes`], borrowed, not copied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BloomRef<'a> {
    bits: &'a [u8],
    num_bits: usize,
    num_hashes: u32,
    items: usize,
}

impl<'a> BloomRef<'a> {
    /// Parse `num_bits (u32) ‖ num_hashes (u32) ‖ items (u32) ‖ bits`;
    /// `None` unless the bit array is exactly as long as `num_bits` says,
    /// neither count is zero and there are no more hash functions than
    /// bits. The last bounds a probe's work by the record's length: a
    /// filter that claims 2³² hash functions is refused, not probed.
    pub fn parse(data: &'a [u8]) -> Option<Self> {
        let mut r = Reader::new(data);
        let num_bits = r.u32()? as usize;
        let num_hashes = r.u32()?;
        let items = r.u32()? as usize;
        if r.remaining() != num_bits.div_ceil(8)
            || num_bits == 0
            || num_hashes == 0
            || num_hashes as usize > num_bits
        {
            return None;
        }
        Some(BloomRef {
            bits: r.rest(),
            num_bits,
            num_hashes,
            items,
        })
    }

    /// Membership test: false ⇒ definitely absent (no false negatives);
    /// true ⇒ probably present.
    pub fn contains(&self, key: KeyHash) -> bool {
        key.positions(self.num_bits, self.num_hashes).all(|p| {
            self.bits
                .get(p / 8)
                .is_some_and(|b| b & (1 << (p % 8)) != 0)
        })
    }

    /// The owned filter with these bits.
    pub fn to_filter(&self) -> BloomFilter {
        BloomFilter {
            bits: self.bits.to_vec(),
            num_bits: self.num_bits,
            num_hashes: self.num_hashes,
            items: self.items,
        }
    }
}

/// A fixed-size Bloom filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u8>,
    num_bits: usize,
    num_hashes: u32,
    items: usize,
}

impl BloomFilter {
    /// A filter with `num_bits` bits and `num_hashes` hash functions.
    pub fn new(num_bits: usize, num_hashes: u32) -> Self {
        // Degenerate shapes are clamped rather than rejected: this
        // constructor runs on the unattended token (PBFilter page
        // flushes), where a panic is unrecoverable. More hash functions
        // than bits is one of them ([`BloomRef::parse`] refuses it).
        let num_bits = num_bits.max(1);
        let num_hashes = num_hashes
            .max(1)
            .min(u32::try_from(num_bits).unwrap_or(u32::MAX));
        BloomFilter {
            bits: vec![0; num_bits.div_ceil(8)],
            num_bits,
            num_hashes,
            items: 0,
        }
    }

    /// The tutorial's configuration: ~2 bytes (16 bits) per expected key,
    /// with the optimal `k = round(16·ln 2) = 11` hash functions.
    pub fn per_key_16bits(expected_keys: usize) -> Self {
        let num_bits = (expected_keys.max(1)) * 16;
        BloomFilter::new(num_bits, 11)
    }

    /// This filter as the view a stored one is read through.
    fn view(&self) -> BloomRef<'_> {
        BloomRef {
            bits: &self.bits,
            num_bits: self.num_bits,
            num_hashes: self.num_hashes,
            items: self.items,
        }
    }

    /// Insert a key.
    pub fn insert(&mut self, key: &[u8]) {
        for p in KeyHash::of(key).positions(self.num_bits, self.num_hashes) {
            self.bits[p / 8] |= 1 << (p % 8);
        }
        self.items += 1;
    }

    /// Membership test: false ⇒ definitely absent (no false negatives);
    /// true ⇒ probably present.
    pub fn maybe_contains(&self, key: &[u8]) -> bool {
        self.view().contains(KeyHash::of(key))
    }

    /// Number of inserted keys.
    pub fn len(&self) -> usize {
        self.items
    }

    /// True if no key was inserted.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Size of the bit array in bytes (what a summary page stores).
    pub fn byte_len(&self) -> usize {
        self.bits.len()
    }

    /// Serialize: `num_bits (u32) ‖ num_hashes (u32) ‖ items (u32) ‖ bits`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.bits.len());
        out.extend_from_slice(&(self.num_bits as u32).to_le_bytes());
        out.extend_from_slice(&self.num_hashes.to_le_bytes());
        out.extend_from_slice(&(self.items as u32).to_le_bytes());
        out.extend_from_slice(&self.bits);
        out
    }

    /// Deserialize a filter previously produced by
    /// [`to_bytes`](Self::to_bytes): [`BloomRef::parse`], collected.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        BloomRef::parse(data).map(|view| view.to_filter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::rng::{Rng, RngCore, SeedableRng, StdRng};

    /// The owned filter decoder and its membership test as they stood
    /// before summaries were probed in place, kept verbatim: SHA-256 per
    /// probe, the bits copied out of the record.
    struct ReferenceFilter {
        bits: Vec<u8>,
        num_bits: usize,
        num_hashes: u32,
    }

    impl ReferenceFilter {
        fn from_bytes(data: &[u8]) -> Option<Self> {
            let mut r = Reader::new(data);
            let num_bits = r.u32()? as usize;
            let num_hashes = r.u32()?;
            let _items = r.u32()? as usize;
            if r.remaining() != num_bits.div_ceil(8) || num_bits == 0 || num_hashes == 0 {
                return None;
            }
            Some(ReferenceFilter {
                bits: r.rest().to_vec(),
                num_bits,
                num_hashes,
            })
        }

        fn bit_positions(&self, key: &[u8]) -> impl Iterator<Item = usize> + '_ {
            let digest = sha256(key);
            let h1 = u64::from_le_bytes(digest[0..8].try_into().unwrap_or([0; 8]));
            let h2 = u64::from_le_bytes(digest[8..16].try_into().unwrap_or([0; 8])) | 1;
            let m = self.num_bits as u64;
            (0..self.num_hashes as u64)
                .map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % m) as usize)
        }

        fn maybe_contains(&self, key: &[u8]) -> bool {
            self.bit_positions(key)
                .all(|p| self.bits[p / 8] & (1 << (p % 8)) != 0)
        }
    }

    /// What the format accepts: the reference's acceptance set less the
    /// one refusal added since, more hash functions than bits.
    fn bounded(reference: Option<ReferenceFilter>) -> Option<ReferenceFilter> {
        reference.filter(|r| r.num_hashes as usize <= r.num_bits)
    }

    /// Keys probed against every filter image of the differential sweep:
    /// the inserted ones come from the same small domain.
    fn probe_keys() -> Vec<Vec<u8>> {
        (0..24u32)
            .map(|i| i.to_le_bytes()[..=(i as usize % 4)].to_vec())
            .collect()
    }

    #[test]
    fn filters_and_the_reference_keep_the_decoder_contract() {
        use pds_obs::wire::{sweep, Tail};
        let keys = probe_keys();
        // 2³² − 1 bits claimed over no bits at all.
        let lying = [0xFF, 0xFF, 0xFF, 0xFF, 11, 0, 0, 0, 0, 0, 0, 0];
        sweep(
            "BloomFilter vs reference",
            Tail::Exact,
            &[&lying],
            |rng| {
                // Shapes down to the degenerate ones `new` clamps: no
                // bits, no hash functions.
                let mut bf = BloomFilter::new(rng.gen_range(0..300usize), rng.gen_range(0..13u32));
                for _ in 0..rng.gen_range(0..16u32) {
                    bf.insert(&keys[rng.gen_range(0..keys.len())]);
                }
                bf
            },
            BloomFilter::to_bytes,
            |bytes| {
                let got = BloomFilter::from_bytes(bytes);
                let want = bounded(ReferenceFilter::from_bytes(bytes));
                assert_eq!(got.is_some(), want.is_some(), "{bytes:02x?}");
                if let (Some(got), Some(want)) = (&got, &want) {
                    assert_eq!(got.num_hashes, want.num_hashes);
                    for key in &keys {
                        assert_eq!(
                            got.maybe_contains(key),
                            want.maybe_contains(key),
                            "{key:02x?} in {bytes:02x?}"
                        );
                    }
                }
                got
            },
        );
    }

    #[test]
    fn in_place_probes_keep_the_decoder_contract() {
        use pds_obs::wire::{sweep, Tail};
        let keys = probe_keys();
        let hashes: Vec<KeyHash> = keys.iter().map(|k| KeyHash::of(k)).collect();
        sweep(
            "BloomRef vs reference",
            Tail::Exact,
            &[&[0xFF, 0xFF, 0xFF, 0xFF, 11, 0, 0, 0, 0, 0, 0, 0]],
            |rng| {
                let mut bf = BloomFilter::new(rng.gen_range(0..300usize), rng.gen_range(0..13u32));
                for _ in 0..rng.gen_range(0..16u32) {
                    bf.insert(&keys[rng.gen_range(0..keys.len())]);
                }
                bf.to_bytes()
            },
            Vec::clone,
            |bytes| {
                let view = BloomRef::parse(bytes);
                let want = bounded(ReferenceFilter::from_bytes(bytes));
                assert_eq!(view.is_some(), want.is_some(), "{bytes:02x?}");
                if let (Some(view), Some(want)) = (&view, &want) {
                    for (key, hash) in keys.iter().zip(&hashes) {
                        assert_eq!(view.contains(*hash), want.maybe_contains(key));
                    }
                }
                view.map(|_| bytes.to_vec())
            },
        );
    }

    #[test]
    fn a_summary_claiming_more_hash_functions_than_bits_is_refused() {
        // A well-formed record in every other respect: 64 bits, all set,
        // and 2³² − 1 hash functions — a probe would take minutes.
        let mut record = [0xFFu8; 12 + 8];
        record[..4].copy_from_slice(&64u32.to_le_bytes());
        record[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(BloomRef::parse(&record).is_none());
        assert!(BloomFilter::from_bytes(&record).is_none());
        // One hash function per bit is the most a record may claim.
        record[4..8].copy_from_slice(&64u32.to_le_bytes());
        assert!(BloomRef::parse(&record).is_some_and(|f| f.contains(KeyHash::of(b"k"))));
        record[4..8].copy_from_slice(&65u32.to_le_bytes());
        assert!(BloomRef::parse(&record).is_none());
        // A shape with more hash functions than bits is clamped when built.
        let bf = BloomFilter::new(5, 12);
        assert_eq!(BloomFilter::from_bytes(&bf.to_bytes()), Some(bf));
    }

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::per_key_16bits(100);
        for i in 0..100u32 {
            bf.insert(&i.to_le_bytes());
        }
        for i in 0..100u32 {
            assert!(bf.maybe_contains(&i.to_le_bytes()), "false negative on {i}");
        }
    }

    #[test]
    fn false_positive_rate_is_low_at_design_load() {
        let mut bf = BloomFilter::per_key_16bits(1000);
        for i in 0..1000u32 {
            bf.insert(&i.to_le_bytes());
        }
        let mut fp = 0;
        let probes = 20_000u32;
        for i in 1000..1000 + probes {
            if bf.maybe_contains(&i.to_le_bytes()) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        assert!(
            rate < 0.01,
            "expected ≲0.1% FPR at 16 bits/key, measured {rate}"
        );
    }

    #[test]
    fn serialization_round_trips() {
        let mut bf = BloomFilter::per_key_16bits(50);
        for i in 0..50u32 {
            bf.insert(&i.to_le_bytes());
        }
        let bytes = bf.to_bytes();
        let back = BloomFilter::from_bytes(&bytes).unwrap();
        assert_eq!(back, bf);
        assert!(BloomFilter::from_bytes(&bytes[..5]).is_none());
        assert!(BloomFilter::from_bytes(&[0; 12]).is_none());
    }

    #[test]
    fn footprint_is_two_bytes_per_key() {
        let bf = BloomFilter::per_key_16bits(1000);
        assert_eq!(bf.byte_len(), 2000);
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let bf = BloomFilter::per_key_16bits(10);
        assert!(bf.is_empty());
        assert!(!bf.maybe_contains(b"anything"));
    }

    #[test]
    fn prop_inserted_keys_always_found() {
        for case in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(0xB100 + case);
            let keys: Vec<Vec<u8>> = (0..rng.gen_range(1usize..200))
                .map(|_| {
                    let mut k = vec![0u8; rng.gen_range(1usize..16)];
                    rng.fill_bytes(&mut k);
                    k
                })
                .collect();
            let mut bf = BloomFilter::per_key_16bits(keys.len());
            for k in &keys {
                bf.insert(k);
            }
            for k in &keys {
                assert!(bf.maybe_contains(k), "case {case}");
            }
        }
    }
}
