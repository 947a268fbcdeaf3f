//! The secure aggregation protocol (non-deterministic encryption).
//!
//! [TNP14\]'s first solution: contributions are encrypted
//! **probabilistically**, so the SSI sees only opaque, unlinkable blobs.
//! Its whole role is to *partition* the ciphertext set and route each
//! partition to some connected token; the token decrypts, partially
//! aggregates per group, re-encrypts the partial sums, and hands them
//! back. Partitions shrink the tuple set geometrically, so the run is a
//! reduction tree of depth `log_partition_size(N)`; the final token
//! releases only the authorized aggregate.
//!
//! Security: the SSI learns cardinalities and byte counts — nothing else
//! (verified by the leakage tests and reported in E6). Forged or
//! tampered ciphertexts fail authenticated decryption inside tokens and
//! abort the run with [`GlobalError::TamperingDetected`].
//!
//! ## Core and drivers
//!
//! The steps live here once, transport-free: [`seal_groups`] (what a
//! token does to `(group, value)` pairs before they leave it),
//! [`fold_partition`] (a serving token's work on one partition) and
//! [`Reduction`] (what the SSI decides between rounds, plus the *verify*
//! step that no hand-off was lost). Two drivers execute them:
//! [`secure_aggregation`] directly, in-process, with one running `rng`
//! and sequence counter; `pds_fleet::fleet_secure_aggregation` with
//! every hand-off a bus message and every token scheduler-hosted. Each
//! passes its own sequence numbering and RNG streams into the core.

use std::collections::BTreeMap;

use pds_crypto::SymmetricKey;
use pds_obs::rng::Rng;

use crate::error::GlobalError;
use crate::query::{GroupByQuery, Population};
use crate::ssi::Ssi;
use crate::stats::ProtocolStats;
use crate::tuple::{ProtocolTuple, TupleKind};

/// Tolerance policy for unauthentic ciphertexts during aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnTamper {
    /// Abort the run loudly (the deterrent the tutorial requires).
    Abort,
    /// Skip silently (used by experiments that measure the *damage* a
    /// covert adversary can do when tokens don't check).
    Skip,
}

/// Seal `(group, value)` pairs as real tuples — one symmetric crypto op
/// each. Tuple `k` carries sequence number `seq_of(k)`; the numbering
/// scheme and the `rng` stream are the calling driver's.
pub fn seal_groups(
    key: &SymmetricKey,
    groups: &[(String, u64)],
    seq_of: impl Fn(usize) -> u64,
    rng: &mut impl Rng,
) -> Vec<Vec<u8>> {
    groups
        .iter()
        .enumerate()
        .map(|(k, (g, v))| ProtocolTuple::real(g, *v, seq_of(k)).seal(key, rng))
        .collect()
}

/// A serving token's work on one partition: open every ciphertext (one
/// crypto op per chunk, authentic or not) and fold the real tuples per
/// group, sorted by group.
pub fn fold_partition(
    key: &SymmetricKey,
    chunks: Vec<Vec<u8>>,
    on_tamper: OnTamper,
) -> Result<Vec<(String, u64)>, GlobalError> {
    let mut groups: BTreeMap<String, u64> = BTreeMap::new();
    for ct in chunks {
        let Some(t) = ProtocolTuple::open(key, ct)? else {
            match on_tamper {
                OnTamper::Abort => {
                    return Err(GlobalError::TamperingDetected(
                        "unauthentic ciphertext in partition",
                    ))
                }
                OnTamper::Skip => continue,
            }
        };
        if t.kind == TupleKind::Real {
            *groups.entry(t.group).or_insert(0) += t.value;
        }
    }
    Ok(groups.into_iter().collect())
}

/// One round of the reduction tree, as the SSI hands it out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// Round number, from 0.
    pub index: u32,
    /// A single partition is left: its serving token releases the
    /// authorized result instead of re-sealing partials.
    pub last: bool,
    /// `(serving token, opaque ciphertexts)` per partition. Any enrolled
    /// token can serve; round-robin models "whichever token happens to
    /// connect".
    pub partitions: Vec<(usize, Vec<Vec<u8>>)>,
}

/// The SSI's side of the reduction tree: everything decided between
/// rounds, with no key and no transport. A driver alternates
/// [`Reduction::begin_round`] → one [`Reduction::returned`] per served
/// partition → [`Reduction::end_round`] until a round is `last` or
/// nothing is left to aggregate.
#[derive(Debug)]
pub struct Reduction {
    partition_size: usize,
    population: usize,
    next_token: usize,
    round: u32,
    rounds: u32,
    before_round: usize,
    outstanding: usize,
    partials_sent: usize,
}

impl Reduction {
    /// Plan a reduction. `partition_size` is the number of tuples a
    /// single token can absorb in one connection (bounded by its
    /// RAM/bandwidth); `population` the number of enrolled tokens.
    pub fn new(partition_size: usize, population: usize) -> Self {
        assert!(partition_size >= 2);
        Reduction {
            partition_size,
            population,
            next_token: 0,
            round: 0,
            rounds: 0,
            before_round: 0,
            outstanding: 0,
            partials_sent: 0,
        }
    }

    /// Partitions handed out so far — [`ProtocolStats::rounds`], the
    /// latency driver: each one needs a connected token.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Partition the tuples the SSI holds into the next round. `None`
    /// when it holds nothing (the population contributed nothing at
    /// all): the run releases an empty result.
    pub fn begin_round(&mut self, ssi: &Ssi, tuples: Vec<Vec<u8>>) -> Option<Round> {
        self.before_round = tuples.len();
        let parts = ssi.partition(tuples, self.partition_size);
        if parts.is_empty() {
            return None;
        }
        self.outstanding = parts.len();
        self.rounds += parts.len() as u32;
        let serve = |chunks| {
            self.next_token = (self.next_token + 1) % self.population.max(1);
            (self.next_token, chunks)
        };
        Some(Round {
            index: self.round,
            last: parts.len() == 1,
            partitions: parts.into_iter().map(serve).collect(),
        })
    }

    /// A partition of the open round came back with `partials` re-sealed
    /// tuples (0 from the releasing partition of the last round).
    pub fn returned(&mut self, partials: usize) -> Result<(), GlobalError> {
        self.outstanding = self
            .outstanding
            .checked_sub(1)
            .ok_or(GlobalError::Protocol("unexpected partition output"))?;
        self.partials_sent += partials;
        Ok(())
    }

    /// Close the open round. Verify: every partition handed out came
    /// back, and the `received` tuples the SSI now holds are exactly the
    /// partials the serving tokens sent — a lost hand-off aborts the run
    /// instead of silently shortening the result.
    ///
    /// Convergence guard: a partition of p tuples re-emits up to
    /// min(p, |groups|) partials, so a partition size at or below the
    /// group count can fail to shrink the tuple set. When a round makes
    /// no progress the SSI doubles the partition size — tuples are
    /// opaque, so this adaptation needs no knowledge of the data.
    pub fn end_round(&mut self, received: usize) -> Result<(), GlobalError> {
        if self.outstanding != 0 {
            return Err(GlobalError::Protocol(
                "partition lost: its serving token never answered",
            ));
        }
        if received != std::mem::take(&mut self.partials_sent) {
            return Err(GlobalError::Protocol(
                "partial aggregates lost on their way back to the SSI",
            ));
        }
        if received >= self.before_round {
            self.partition_size *= 2;
        }
        self.round += 1;
        Ok(())
    }
}

fn wire_bytes(tuples: &[Vec<u8>]) -> u64 {
    tuples.iter().map(|t| t.len() as u64).sum()
}

/// Run the secure aggregation protocol in-process: the direct driver of
/// the core above, with one running `rng` and sequence counter.
///
/// `partition_size` is the number of tuples a single token can absorb in
/// one connection (bounded by its RAM/bandwidth).
pub fn secure_aggregation(
    population: &mut Population,
    query: &GroupByQuery,
    ssi: &Ssi,
    partition_size: usize,
    on_tamper: OnTamper,
    rng: &mut impl Rng,
) -> Result<(Vec<(String, u64)>, ProtocolStats), GlobalError> {
    let key = population.protocol_key.clone();
    let mut stats = ProtocolStats::default();
    let mut plan = Reduction::new(partition_size, population.len());

    // Collection phase: every PDS encrypts its contributions.
    let mut wire: Vec<Vec<u8>> = Vec::new();
    for pds in &mut population.tokens {
        let groups = query.contributions_of(pds)?;
        let base = wire.len() as u64;
        wire.extend(seal_groups(&key, &groups, |k| base + k as u64, rng));
    }
    let mut seq = wire.len() as u64;
    stats.token_crypto_ops += seq;
    let mut tuples = ssi.collect(wire);
    stats.ssi_bytes += wire_bytes(&tuples);

    // Reduction tree: tokens aggregate partitions until one remains.
    let result = loop {
        let Some(round) = plan.begin_round(ssi, std::mem::take(&mut tuples)) else {
            break Vec::new();
        };
        let mut released = None;
        for (_token, chunks) in round.partitions {
            stats.token_tuples += chunks.len() as u64;
            stats.token_crypto_ops += chunks.len() as u64;
            let groups = fold_partition(&key, chunks, on_tamper)?;
            if round.last {
                // The final token releases the authorized result.
                plan.returned(0)?;
                released = Some(groups);
            } else {
                // Re-encrypt partial aggregates back to the SSI.
                let base = seq;
                let partials = seal_groups(&key, &groups, |k| base + k as u64, rng);
                seq += partials.len() as u64;
                stats.token_crypto_ops += partials.len() as u64;
                stats.ssi_bytes += wire_bytes(&partials);
                plan.returned(partials.len())?;
                tuples.extend(partials);
            }
        }
        plan.end_round(tuples.len())?;
        if let Some(groups) = released {
            break groups;
        }
    };
    stats.rounds = plan.rounds();
    stats.publish();
    Ok((result, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::plaintext_groupby;
    use crate::ssi::SsiThreat;
    use pds_obs::rng::SeedableRng;
    use pds_obs::rng::StdRng;

    fn setup(n: usize, seed: u64) -> (Population, GroupByQuery, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = GroupByQuery::bank_by_category();
        let pop = Population::synthetic(n, &q.domain, &mut rng).unwrap();
        (pop, q, rng)
    }

    #[test]
    fn result_matches_plaintext_reference() {
        let (mut pop, q, mut rng) = setup(40, 1);
        let expected = plaintext_groupby(&mut pop, &q).unwrap();
        let ssi = Ssi::honest(7);
        let (result, stats) =
            secure_aggregation(&mut pop, &q, &ssi, 8, OnTamper::Abort, &mut rng).unwrap();
        assert_eq!(result, expected);
        assert!(stats.rounds >= 2, "reduction tree has depth");
        assert!(stats.token_tuples > 0);
    }

    #[test]
    fn ssi_learns_no_equality_classes() {
        let (mut pop, q, mut rng) = setup(25, 2);
        let ssi = Ssi::honest(8);
        secure_aggregation(&mut pop, &q, &ssi, 8, OnTamper::Abort, &mut rng).unwrap();
        assert!(
            ssi.leakage().equality_class_sizes.is_empty(),
            "probabilistic encryption leaks no grouping information"
        );
        assert!(ssi.leakage().tuples_seen > 0);
    }

    #[test]
    fn forged_ciphertexts_abort_loudly() {
        let (mut pop, q, mut rng) = setup(20, 3);
        let ssi = Ssi::new(
            SsiThreat::WeaklyMalicious {
                drop_rate: 0.0,
                forge_rate: 0.2,
            },
            9,
        );
        let err = secure_aggregation(&mut pop, &q, &ssi, 8, OnTamper::Abort, &mut rng).unwrap_err();
        assert!(matches!(err, GlobalError::TamperingDetected(_)));
    }

    #[test]
    fn silent_drops_corrupt_the_result_when_unchecked() {
        // The motivation for the detection primitives: without checks a
        // covert adversary biases the statistics undetected.
        let (mut pop, q, mut rng) = setup(60, 4);
        let expected = plaintext_groupby(&mut pop, &q).unwrap();
        let ssi = Ssi::new(
            SsiThreat::WeaklyMalicious {
                drop_rate: 0.5,
                forge_rate: 0.0,
            },
            10,
        );
        let (result, _) =
            secure_aggregation(&mut pop, &q, &ssi, 8, OnTamper::Skip, &mut rng).unwrap();
        let sum = |r: &[(String, u64)]| r.iter().map(|(_, v)| *v).sum::<u64>();
        assert!(
            sum(&result) < sum(&expected),
            "half the contributions silently vanished"
        );
    }

    /// Drive a `Reduction` with no keys and no bus: a serving token
    /// answers a partition of `p` tuples with `min(p, groups)` opaque
    /// partials, except partition `lose.1` of round `lose.0`, which
    /// never answers. Returns each round's partition count and the
    /// plan's `rounds()` total.
    fn drive(
        tuples: usize,
        partition_size: usize,
        groups: usize,
        lose: Option<(u32, u32)>,
    ) -> Result<(Vec<usize>, u32), GlobalError> {
        let ssi = Ssi::honest(0);
        let mut plan = Reduction::new(partition_size, 5);
        let mut held = vec![vec![0u8; 4]; tuples];
        let mut shape = Vec::new();
        while let Some(round) = plan.begin_round(&ssi, std::mem::take(&mut held)) {
            shape.push(round.partitions.len());
            assert_eq!(round.index as usize, shape.len() - 1);
            assert_eq!(round.last, round.partitions.len() == 1);
            for (pi, (token, chunks)) in round.partitions.iter().enumerate() {
                assert!(*token < 5 && chunks.len() <= partition_size << round.index);
                if lose == Some((round.index, pi as u32)) {
                    continue;
                }
                let partials = if round.last {
                    0
                } else {
                    chunks.len().min(groups)
                };
                plan.returned(partials)?;
                held.extend(vec![vec![0u8; 4]; partials]);
            }
            plan.end_round(held.len())?;
            if round.last {
                break;
            }
        }
        Ok((shape, plan.rounds()))
    }

    #[test]
    fn reduction_plan_table() {
        // (tuples, partition size, groups) → partitions per round.
        let table: [(usize, usize, usize, &[usize]); 5] = [
            (100, 10, 3, &[10, 3, 1]), // shrinking rounds
            // |groups| ≥ partition size: rounds 0 and 1 re-emit all 32
            // tuples, so the size doubles 4 → 8 → 16 before progress.
            (32, 4, 8, &[8, 4, 2, 1]),
            (0, 8, 3, &[]),     // empty input: nothing handed out
            (5, 1000, 3, &[1]), // single partition ⇒ last round
            (9, 8, 6, &[2, 1]), // a ragged tail partition
        ];
        for (tuples, size, groups, want) in table {
            let (shape, rounds) = drive(tuples, size, groups, None).unwrap();
            assert_eq!(shape, want, "{tuples} tuples / {size} / {groups} groups");
            assert_eq!(rounds as usize, want.iter().sum::<usize>());
        }
    }

    #[test]
    fn reduction_verify_refuses_lost_work() {
        // A partition whose serving token never answers — mid-tree and
        // in the releasing round.
        for lose in [(0, 3), (2, 0)] {
            let err = drive(100, 10, 3, Some(lose)).unwrap_err();
            assert!(matches!(err, GlobalError::Protocol(m) if m.contains("partition lost")));
        }
        let ssi = Ssi::honest(0);
        let mut plan = Reduction::new(2, 3);
        let round = plan.begin_round(&ssi, vec![vec![1]; 4]).unwrap();
        assert_eq!(
            round.partitions.iter().map(|p| p.0).collect::<Vec<_>>(),
            [1, 2],
            "round-robin serving tokens"
        );
        plan.returned(2).unwrap();
        plan.returned(2).unwrap();
        // More outputs than partitions handed out.
        assert!(plan.returned(1).is_err());
        // Partials that never reached the SSI.
        let err = plan.end_round(3).unwrap_err();
        assert!(matches!(err, GlobalError::Protocol(m) if m.contains("partial aggregates lost")));
    }

    #[test]
    fn single_partition_degenerates_to_one_round() {
        let (mut pop, q, mut rng) = setup(5, 5);
        let expected = plaintext_groupby(&mut pop, &q).unwrap();
        let ssi = Ssi::honest(11);
        let (result, stats) =
            secure_aggregation(&mut pop, &q, &ssi, 1000, OnTamper::Abort, &mut rng).unwrap();
        assert_eq!(result, expected);
        assert_eq!(stats.rounds, 1);
    }
}
