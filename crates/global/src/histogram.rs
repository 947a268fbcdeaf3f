//! The histogram-based protocol (Hacigumus-style bucketization).
//!
//! [TNP14\]'s third solution, "based on Hacigumus' equi-depth histogram
//! approach" [HILM02, HIM04]: the public domain of the grouping attribute
//! is partitioned into `B` buckets; each tuple travels with its **bucket
//! id in clear** plus a probabilistically encrypted payload. The SSI
//! groups by bucket (coarse, public information); one token per bucket
//! decrypts the members and splits them into exact groups.
//!
//! The dial is `B`: more buckets ⇒ fewer tuples per token visit (cheaper
//! tokens) but a finer histogram at the SSI (more leakage); `B = 1`
//! degenerates to "ship everything to one token" with zero leakage.
//! Equi-depth assignment uses the public *domain frequency prior* when
//! one is supplied, plain equi-width otherwise.

use std::collections::BTreeMap;

use pds_obs::rng::Rng;

use crate::error::GlobalError;
use crate::query::{GroupByQuery, Population};
use crate::ssi::Ssi;
use crate::stats::ProtocolStats;
use crate::tuple::{ProtocolTuple, TupleKind};

/// The public bucket map of the grouping domain.
#[derive(Debug, Clone)]
pub struct BucketMap {
    /// domain value → bucket id.
    assignment: BTreeMap<String, u32>,
    /// Number of buckets.
    pub buckets: u32,
}

impl BucketMap {
    /// Equi-width assignment: consecutive domain values share buckets.
    pub fn equi_width(domain: &[String], buckets: u32) -> Self {
        assert!(buckets >= 1);
        let per = domain.len().div_ceil(buckets as usize).max(1);
        let assignment = domain
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), (i / per) as u32))
            .collect();
        BucketMap {
            assignment,
            buckets,
        }
    }

    /// Bucket of a domain value (unknown values map to bucket 0 — they
    /// cannot occur when the domain is truly public).
    pub fn bucket_of(&self, value: &str) -> u32 {
        self.assignment.get(value).copied().unwrap_or(0)
    }
}

/// Run the histogram-based protocol.
#[allow(clippy::explicit_counter_loop)] // seq is a protocol sequence number
pub fn histogram_based(
    population: &mut Population,
    query: &GroupByQuery,
    ssi: &Ssi,
    map: &BucketMap,
    rng: &mut impl Rng,
) -> Result<(Vec<(String, u64)>, ProtocolStats), GlobalError> {
    let key = population.protocol_key.clone();
    let mut stats = ProtocolStats::default();
    let mut seq = 0u64;

    // Collection: (bucket-in-clear, encrypted payload).
    let mut wire: Vec<(u32, Vec<u8>)> = Vec::new();
    for (_, g, v) in population.contributions(query)? {
        let t = ProtocolTuple::real(&g, v, seq);
        seq += 1;
        let ct = t.seal(&key, rng);
        stats.token_crypto_ops += 1;
        wire.push((map.bucket_of(&g), ct));
    }

    // SSI buckets the tuples; the bucket histogram is its leakage.
    let mut buckets: BTreeMap<u32, Vec<Vec<u8>>> = BTreeMap::new();
    for (b, payload) in wire {
        stats.ssi_bytes += payload.len() as u64 + 4;
        buckets.entry(b).or_default().push(payload);
    }
    let sizes: Vec<u64> = buckets.values().map(|v| v.len() as u64).collect();
    ssi.observe_classes(&sizes);

    // One token visit per bucket: decrypt, split into exact groups.
    let mut result: BTreeMap<String, u64> = BTreeMap::new();
    for members in buckets.into_values() {
        stats.rounds += 1;
        for ct in members {
            stats.token_tuples += 1;
            stats.token_crypto_ops += 1;
            let t = ProtocolTuple::open(&key, ct)?
                .ok_or(GlobalError::TamperingDetected("unauthentic payload"))?;
            if t.kind == TupleKind::Real {
                *result.entry(t.group).or_insert(0) += t.value;
            }
        }
    }
    stats.publish();
    Ok((result.into_iter().collect(), stats))
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
    fn exact_for_any_bucket_count() {
        let (mut pop, q, mut rng) = setup(40, 1);
        let expected = plaintext_groupby(&mut pop, &q).unwrap();
        for buckets in [1u32, 2, 3, 6] {
            let map = BucketMap::equi_width(&q.domain, buckets);
            let ssi = Ssi::honest(buckets as u64);
            let (result, stats) = histogram_based(&mut pop, &q, &ssi, &map, &mut rng).unwrap();
            assert_eq!(result, expected, "buckets={buckets}");
            assert!(stats.rounds <= buckets);
        }
    }

    #[test]
    fn leakage_grows_with_bucket_count() {
        let (mut pop, q, mut rng) = setup(100, 2);
        let coarse = Ssi::honest(1);
        let map1 = BucketMap::equi_width(&q.domain, 1);
        histogram_based(&mut pop, &q, &coarse, &map1, &mut rng).unwrap();
        assert_eq!(
            coarse.leakage().equality_class_sizes.len(),
            1,
            "one bucket: the SSI sees only the total count"
        );
        let fine = Ssi::honest(2);
        let map6 = BucketMap::equi_width(&q.domain, 6);
        histogram_based(&mut pop, &q, &fine, &map6, &mut rng).unwrap();
        assert!(fine.leakage().equality_class_sizes.len() > 1);
    }

    #[test]
    fn bucket_map_covers_whole_domain() {
        let domain: Vec<String> = (0..10).map(|i| format!("v{i}")).collect();
        let map = BucketMap::equi_width(&domain, 3);
        for v in &domain {
            assert!(map.bucket_of(v) < 3);
        }
    }
}
