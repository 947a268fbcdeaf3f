//! The noise-based protocols (deterministic encryption + fake tuples).
//!
//! [TNP14\]'s second family: the grouping key is encrypted
//! **deterministically**, so the SSI can do the GROUP BY itself on opaque
//! values — one token visit per group instead of a whole reduction tree.
//! The price is frequency leakage: equal groups form visible equality
//! classes whose sizes mirror the true distribution. The fix is **fake
//! tuples** that only tokens can tell apart:
//!
//! * **Random (white) noise** — each token adds fakes drawn uniformly
//!   from the public domain, flattening the observed histogram towards
//!   uniform as the noise ratio grows.
//! * **Noise controlled by the complementary domain** — each token adds
//!   one fake for every domain value it does *not* hold, so every token
//!   appears to contribute to every group and class sizes become exactly
//!   equal: zero frequency signal, at a fake volume of `|domain|` per
//!   token.

use std::collections::BTreeMap;

use pds_obs::rng::Rng;

use crate::error::GlobalError;
use crate::query::{GroupByQuery, Population};
use crate::ssi::Ssi;
use crate::stats::ProtocolStats;
use crate::tuple::{ProtocolTuple, TupleKind};

/// Deterministically encrypt the grouping key and probabilistically
/// encrypt the payload of one tuple (the per-tuple token work of the
/// collection phase).
fn emit(
    key: &pds_crypto::SymmetricKey,
    t: &ProtocolTuple,
    stats: &mut ProtocolStats,
    wire: &mut Vec<(Vec<u8>, Vec<u8>)>,
    rng: &mut impl Rng,
) {
    let det = key.encrypt_det(t.group.as_bytes());
    let payload = t.seal(key, rng);
    stats.token_crypto_ops += 2;
    wire.push((det.0, payload));
}

/// Which fake-tuple strategy to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseStrategy {
    /// `fakes_per_token` fakes drawn uniformly from the domain.
    Random {
        /// Fakes each token adds.
        fakes_per_token: usize,
    },
    /// One fake for every domain value the token does not hold.
    Complementary,
}

/// Run a noise-based protocol.
pub fn noise_based(
    population: &mut Population,
    query: &GroupByQuery,
    ssi: &Ssi,
    strategy: NoiseStrategy,
    rng: &mut impl Rng,
) -> Result<(Vec<(String, u64)>, ProtocolStats), GlobalError> {
    let key = population.protocol_key.clone();
    let mut stats = ProtocolStats::default();
    let mut seq = 0u64;

    // Collection: (det(group), prob(payload)) pairs, reals + fakes.
    let mut wire: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let contribs = population.contributions(query)?;
    // Group contributions per token to compute complements.
    let mut per_token: BTreeMap<usize, Vec<(String, u64)>> = BTreeMap::new();
    for (i, g, v) in contribs {
        per_token.entry(i).or_default().push((g, v));
    }
    for i in 0..population.len() {
        let own = per_token.remove(&i).unwrap_or_default();
        for (g, v) in &own {
            emit(
                &key,
                &ProtocolTuple::real(g, *v, seq),
                &mut stats,
                &mut wire,
                rng,
            );
            seq += 1;
        }
        match strategy {
            NoiseStrategy::Random { fakes_per_token } => {
                for _ in 0..fakes_per_token {
                    let g = query.domain[rng.gen_range(0..query.domain.len())].clone();
                    emit(
                        &key,
                        &ProtocolTuple::fake(&g, seq),
                        &mut stats,
                        &mut wire,
                        rng,
                    );
                    seq += 1;
                    stats.fake_tuples += 1;
                }
            }
            NoiseStrategy::Complementary => {
                for g in &query.domain {
                    if !own.iter().any(|(og, _)| og == g) {
                        emit(
                            &key,
                            &ProtocolTuple::fake(g, seq),
                            &mut stats,
                            &mut wire,
                            rng,
                        );
                        seq += 1;
                        stats.fake_tuples += 1;
                    }
                }
            }
        }
    }

    // The SSI groups by deterministic ciphertext equality — this is the
    // information it gets to see, recorded as leakage.
    let mut classes: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();
    for (det, payload) in wire {
        stats.ssi_bytes += (det.len() + payload.len()) as u64;
        classes.entry(det).or_default().push(payload);
    }
    let sizes: Vec<u64> = classes.values().map(|v| v.len() as u64).collect();
    ssi.observe_classes(&sizes);

    // One token visit per class: decrypt, drop fakes, sum.
    let mut result: Vec<(String, u64)> = Vec::new();
    for payloads in classes.into_values() {
        stats.rounds += 1;
        let mut group: Option<String> = None;
        let mut sum = 0u64;
        let mut has_real = false;
        for ct in payloads {
            stats.token_tuples += 1;
            stats.token_crypto_ops += 1;
            let t = ProtocolTuple::open(&key, ct)?
                .ok_or(GlobalError::TamperingDetected("unauthentic payload"))?;
            if group.as_deref().is_some_and(|g| g != t.group) {
                return Err(GlobalError::TamperingDetected(
                    "class mixes groups: SSI mis-grouped",
                ));
            }
            group = Some(t.group.clone());
            if t.kind == TupleKind::Real {
                has_real = true;
                sum += t.value;
            }
        }
        if has_real {
            result.push((group.expect("non-empty class"), sum));
        }
    }
    result.sort();
    stats.publish();
    Ok((result, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::plaintext_groupby;
    use pds_obs::rng::SeedableRng;
    use pds_obs::rng::StdRng;

    fn setup(n: usize, seed: u64) -> (Population, GroupByQuery, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = GroupByQuery::bank_by_category();
        let pop = Population::synthetic(n, &q.domain, &mut rng).unwrap();
        (pop, q, rng)
    }

    #[test]
    fn random_noise_is_exact() {
        let (mut pop, q, mut rng) = setup(40, 1);
        let expected = plaintext_groupby(&mut pop, &q).unwrap();
        let ssi = Ssi::honest(5);
        let (result, stats) = noise_based(
            &mut pop,
            &q,
            &ssi,
            NoiseStrategy::Random { fakes_per_token: 3 },
            &mut rng,
        )
        .unwrap();
        assert_eq!(result, expected, "fakes never distort the result");
        assert_eq!(stats.fake_tuples, 40 * 3);
    }

    #[test]
    fn complementary_noise_is_exact_and_flat() {
        let (mut pop, q, mut rng) = setup(50, 2);
        let expected = plaintext_groupby(&mut pop, &q).unwrap();
        let ssi = Ssi::honest(6);
        let (result, _) =
            noise_based(&mut pop, &q, &ssi, NoiseStrategy::Complementary, &mut rng).unwrap();
        assert_eq!(result, expected);
        // Every token contributes (really or fake) to every domain value
        // at least once ⇒ class sizes are nearly equal ⇒ almost no
        // frequency signal.
        let signal = ssi.leakage().frequency_signal();
        assert!(
            signal < 0.25,
            "complementary noise must flatten classes, signal={signal}"
        );
    }

    #[test]
    fn no_noise_leaks_the_true_skew() {
        let (mut pop, q, mut rng) = setup(80, 3);
        let flat_ssi = Ssi::honest(7);
        noise_based(
            &mut pop,
            &q,
            &flat_ssi,
            NoiseStrategy::Random { fakes_per_token: 0 },
            &mut rng,
        )
        .unwrap();
        let raw_signal = flat_ssi.leakage().frequency_signal();
        // The synthetic population is skewed toward early categories, so
        // the undisguised classes show a strong signal.
        assert!(
            raw_signal > 0.3,
            "without noise the SSI sees the skew, signal={raw_signal}"
        );
        // More noise ⇒ weaker signal.
        let noisy_ssi = Ssi::honest(8);
        noise_based(
            &mut pop,
            &q,
            &noisy_ssi,
            NoiseStrategy::Random {
                fakes_per_token: 20,
            },
            &mut rng,
        )
        .unwrap();
        assert!(noisy_ssi.leakage().frequency_signal() < raw_signal);
    }

    #[test]
    fn one_round_per_group_not_per_tuple() {
        let (mut pop, q, mut rng) = setup(60, 4);
        let ssi = Ssi::honest(9);
        let (result, stats) = noise_based(
            &mut pop,
            &q,
            &ssi,
            NoiseStrategy::Random { fakes_per_token: 0 },
            &mut rng,
        )
        .unwrap();
        assert_eq!(stats.rounds as usize, result.len());
        assert!(stats.rounds as usize <= q.domain.len());
    }
}
