//! In-tree deterministic pseudo-random numbers.
//!
//! The whole workspace must build with no network access, so nothing may
//! depend on the external `rand` crate. This module supplies the small
//! slice of its API the code base actually uses — `StdRng::seed_from_u64`,
//! `gen_range`, `gen_bool`, `fill_bytes`, `gen::<T>()` — backed by
//! xoshiro256++ (Blackman & Vigna) seeded through SplitMix64, the
//! textbook pairing. Every generator is deterministic from its seed:
//! experiments regenerate bit-identically.

use std::ops::{Range, RangeInclusive};

/// SplitMix64: the seed expander. One u64 of state, passes BigCrush on
/// its own; its stream is used to initialise the xoshiro state so that
/// similar seeds (0, 1, 2 …) still yield uncorrelated streams.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator at `state`.
    pub fn new(state: u64) -> Self {
        SplitMix64 { state }
    }

    /// Next value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The workspace's standard generator: xoshiro256++.
///
/// 256 bits of state, period 2^256 − 1, a rotate-add-xor-shift update —
/// a few ns per call with no multiplier on the output path.
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

/// Low-level generator interface (mirror of `rand::RngCore`).
pub trait RngCore {
    /// Next 64 uniform bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniform bits (upper half of the 64-bit draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// Seeding interface (mirror of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Construct deterministically from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        SplitMix64::next_u64(self)
    }
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        StdRng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }
}

impl SeedableRng for SplitMix64 {
    fn seed_from_u64(seed: u64) -> Self {
        SplitMix64::new(seed)
    }
}

/// Types producible uniformly from raw generator output (mirror of
/// sampling with `rand::distributions::Standard`).
pub trait Standard: Sized {
    /// Draw one uniform value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with the canonical 53-bit construction.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges a uniform value can be drawn from (mirror of
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draw a uniform value from the range. Panics on an empty range.
    fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Widening-multiply bounded draw: maps a 64-bit draw onto `[0, span)`
/// with negligible bias (Lemire's method without the rejection step —
/// bias ≤ span/2^64, irrelevant at simulation scale).
fn bounded_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! impl_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                self.start + bounded_u64(rng, span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end - start) as u64;
                if span == u64::MAX as $t as u64 && start == 0 {
                    return rng.next_u64() as $t;
                }
                start + bounded_u64(rng, span + 1) as $t
            }
        }
    )*};
}

impl_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + bounded_u64(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end as i128 - start as i128) as u64;
                (start as i128 + bounded_u64(rng, span.wrapping_add(1).max(1)) as i128) as $t
            }
        }
    )*};
}

impl_range_int!(i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

/// High-level convenience methods (mirror of `rand::Rng`), blanket-implemented
/// for every [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform value of type `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// A uniform value in `range`.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_in(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of [0,1]");
        f64::sample(self) < p
    }

    /// Fill a byte slice with uniform bytes (mirror of `rand::Rng::fill`).
    fn fill(&mut self, dest: &mut [u8])
    where
        Self: Sized,
    {
        self.fill_bytes(dest);
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, slice: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..slice.len()).rev() {
            let j = bounded_u64(self, i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniform element of a non-empty slice.
    fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T>
    where
        Self: Sized,
    {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[bounded_u64(self, slice.len() as u64) as usize])
        }
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// How many seeds a seeded sweep runs: `PDS_CRASH_SEEDS` when it holds a
/// number, else the sweep's own `default`. One variable widens every
/// sweep of the workspace at once.
pub fn sweep_seeds(default: u64) -> u64 {
    std::env::var("PDS_CRASH_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `rand`-compatible module layout so `use …::rngs::StdRng` keeps working.
pub mod rngs {
    pub use super::{SplitMix64, StdRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64.c stream.
        let mut sm = SplitMix64::new(0);
        let first = sm.next_u64();
        assert_eq!(first, 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&w));
            let x = rng.gen_range(0.0f64..1.0);
            assert!((0.0..1.0).contains(&x));
            let y = rng.gen_range(3u8..=5);
            assert!((3..=5).contains(&y));
        }
    }

    #[test]
    fn gen_bool_roughly_matches_p() {
        let mut rng = StdRng::seed_from_u64(99);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn uniformity_coarse_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut buckets = [0u32; 8];
        for _ in 0..8000 {
            buckets[rng.gen_range(0usize..8)] += 1;
        }
        for &b in &buckets {
            assert!((800..1200).contains(&b), "bucket {b} out of tolerance");
        }
    }
}
