//! Seeded input generation shared by the workloads. Every generator
//! takes an rng derived from the run's `--seed`; the program under
//! test only ever sees the generated inputs.

use pds_obs::rng::{Rng, SeedableRng, SplitMix64, StdRng};

/// An independent rng stream for one generator of one run.
pub fn stream(seed: u64, tag: &str) -> StdRng {
    let tag_hash = tag.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    StdRng::seed_from_u64(SplitMix64::new(seed ^ tag_hash).next_u64())
}

/// A skewed index in `0..n`: the minimum of two uniform draws, so low
/// indexes are up to twice as likely as the mean and high ones rare.
pub fn skewed(rng: &mut StdRng, n: usize) -> usize {
    rng.gen_range(0..n).min(rng.gen_range(0..n))
}

/// The `id`-th word of the synthetic vocabulary: one alphanumeric token
/// of more than one character that is not a stopword.
pub fn word(id: usize) -> String {
    format!("w{id}")
}

/// `n` skewed word ids from a `vocab`-word vocabulary.
pub fn words(rng: &mut StdRng, n: usize, vocab: usize) -> Vec<usize> {
    (0..n).map(|_| skewed(rng, vocab)).collect()
}

/// The words joined into document text.
pub fn text(ids: &[usize]) -> String {
    ids.iter().map(|id| word(*id)).collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_per_tag() {
        let a: u64 = stream(7, "docs").gen();
        let b: u64 = stream(7, "docs").gen();
        let c: u64 = stream(7, "rows").gen();
        let d: u64 = stream(8, "docs").gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn skew_favours_low_indexes() {
        let mut rng = stream(1, "skew");
        let low = (0..10_000).filter(|_| skewed(&mut rng, 100) < 50).count();
        // P(min < n/2) = 3/4.
        assert!((7_200..7_800).contains(&low), "{low}");
    }
}
