//! Security primitives against the weakly malicious SSI.
//!
//! "Weakly-Malicious (covert adversary = does not want to be detected) →
//! must be prevented! (via security primitives) see [ANP13\]." Two
//! mechanisms, composed:
//!
//! 1. **MAC-authenticated tuples** — the SSI cannot *forge or alter*
//!    tuples: authenticated decryption fails inside the first token that
//!    touches a forgery (probability 1 detection for alterations that
//!    reach a token).
//! 2. **Probabilistic spot-checking** — the SSI can still *drop* tuples.
//!    Contributions carry dense sequence numbers; a verifying token
//!    samples a fraction `s` of the expected sequence range and demands
//!    the matching tuples. Dropping a fraction `f` of N tuples escapes
//!    detection only if no dropped tuple is sampled:
//!    `P[detect] = 1 − (1−s)^{fN}` — overwhelming even for small `s`,
//!    which is the *deterrent*: a covert adversary that "does not want
//!    to be detected" simply stops cheating.
//!
//! Experiment E9 sweeps `(f, s)` and compares measured detection to the
//! analytic curve.

use std::collections::BTreeMap;

use pds_crypto::SymmetricKey;
use pds_obs::rng::Rng;

/// One spot-check trial outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckOutcome {
    /// No anomaly found in the sample.
    Clean,
    /// A sampled tuple was missing or failed authentication.
    Detected,
}

/// A store-and-forward SSI for the detection experiment: it holds the
/// authenticated tuples by sequence number and may cheat.
pub struct CheckedChannel {
    tuples: BTreeMap<u64, Vec<u8>>,
    expected: u64,
}

impl CheckedChannel {
    /// Collect `n` MAC-authenticated tuples from the population.
    pub fn collect(key: &SymmetricKey, n: u64) -> Self {
        let mut tuples = BTreeMap::new();
        for seq in 0..n {
            let body = format!("contribution-{seq}").into_bytes();
            let mut msg = seq.to_le_bytes().to_vec();
            msg.extend_from_slice(&body);
            let tag = key.mac_key().tag(&msg);
            let mut wire = msg;
            wire.extend_from_slice(&tag);
            tuples.insert(seq, wire);
        }
        CheckedChannel {
            tuples,
            expected: n,
        }
    }

    /// Expected tuple count (committed at collection time).
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// Adversary: silently drop a fraction `f` of the tuples.
    pub fn drop_fraction(&mut self, f: f64, rng: &mut impl Rng) -> u64 {
        let victims: Vec<u64> = self
            .tuples
            .keys()
            .copied()
            .filter(|_| rng.gen_bool(f))
            .collect();
        for v in &victims {
            self.tuples.remove(v);
        }
        victims.len() as u64
    }

    /// Adversary: alter a fraction `f` of the tuples (flip a byte).
    pub fn alter_fraction(&mut self, f: f64, rng: &mut impl Rng) -> u64 {
        let mut altered = 0;
        for wire in self.tuples.values_mut() {
            if rng.gen_bool(f) {
                let idx = rng.gen_range(0..wire.len());
                wire[idx] ^= 1;
                altered += 1;
            }
        }
        altered
    }

    /// Verifier token: sample each sequence number with probability
    /// `sample_rate` and demand + authenticate the tuple.
    pub fn spot_check(
        &self,
        key: &SymmetricKey,
        sample_rate: f64,
        rng: &mut impl Rng,
    ) -> CheckOutcome {
        for seq in 0..self.expected {
            if !rng.gen_bool(sample_rate) {
                continue;
            }
            match self.tuples.get(&seq) {
                None => return CheckOutcome::Detected, // dropped
                Some(wire) => {
                    if wire.len() < 32 {
                        return CheckOutcome::Detected;
                    }
                    let (msg, tag) = wire.split_at(wire.len() - 32);
                    if !key.mac_key().verify(msg, tag) {
                        return CheckOutcome::Detected; // altered/forged
                    }
                }
            }
        }
        CheckOutcome::Clean
    }
}

/// Analytic detection probability of dropping `dropped` tuples under
/// sampling rate `s`: `1 − (1−s)^dropped`.
pub fn analytic_detection(dropped: u64, sample_rate: f64) -> f64 {
    1.0 - (1.0 - sample_rate).powi(dropped as i32)
}

/// Run `trials` independent drop-and-check experiments; returns the
/// measured detection frequency.
pub fn measure_detection(
    n_tuples: u64,
    drop_rate: f64,
    sample_rate: f64,
    trials: u32,
    key: &SymmetricKey,
    rng: &mut impl Rng,
) -> f64 {
    let mut detected = 0u32;
    for _ in 0..trials {
        let mut ch = CheckedChannel::collect(key, n_tuples);
        ch.drop_fraction(drop_rate, rng);
        if ch.spot_check(key, sample_rate, rng) == CheckOutcome::Detected {
            detected += 1;
        }
    }
    detected as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::rng::SeedableRng;
    use pds_obs::rng::StdRng;

    fn key() -> SymmetricKey {
        SymmetricKey::from_seed(b"detection")
    }

    #[test]
    fn honest_channel_always_checks_clean() {
        let mut rng = StdRng::seed_from_u64(1);
        let ch = CheckedChannel::collect(&key(), 200);
        for _ in 0..10 {
            assert_eq!(ch.spot_check(&key(), 0.2, &mut rng), CheckOutcome::Clean);
        }
    }

    #[test]
    fn alterations_fail_authentication() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ch = CheckedChannel::collect(&key(), 100);
        let altered = ch.alter_fraction(1.0, &mut rng);
        assert_eq!(altered, 100);
        assert_eq!(ch.spot_check(&key(), 0.1, &mut rng), CheckOutcome::Detected);
    }

    #[test]
    fn heavy_dropping_is_detected_with_high_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = measure_detection(500, 0.2, 0.05, 40, &key(), &mut rng);
        // Analytic: 1-(1-0.05)^100 ≈ 0.994.
        assert!(p > 0.9, "measured {p}");
    }

    #[test]
    fn tiny_dropping_with_tiny_sampling_often_escapes() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = measure_detection(100, 0.01, 0.01, 60, &key(), &mut rng);
        assert!(p < 0.5, "≈1 drop sampled at 1% mostly escapes, got {p}");
    }

    #[test]
    fn measured_matches_analytic_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        // f·N = 50 dropped; analytic at s=0.02: 1-0.98^50 ≈ 0.64.
        let measured = measure_detection(500, 0.1, 0.02, 120, &key(), &mut rng);
        let analytic = analytic_detection(50, 0.02);
        assert!(
            (measured - analytic).abs() < 0.2,
            "measured {measured} vs analytic {analytic}"
        );
    }

    #[test]
    fn analytic_boundaries() {
        assert_eq!(analytic_detection(0, 0.5), 0.0);
        assert!((analytic_detection(1000, 0.01) - 1.0).abs() < 1e-4);
    }
}
