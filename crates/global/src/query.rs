//! The query class, the population, and the plaintext reference.
//!
//! [TNP14\] targets "SQL (aggregate) queries" over all PDSs: the canonical
//! form is `SELECT g, SUM(m) FROM <table over every PDS> GROUP BY g`.
//! The grouping attribute has a *public domain* (city lists, spending
//! categories, diagnosis codes …) — public knowledge the noise and
//! histogram protocols both exploit.

use pds_core::{AccessContext, Pds, Purpose};
use pds_crypto::SymmetricKey;
use pds_obs::rng::Rng;

use crate::error::GlobalError;

/// The aggregate computed per group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// `SUM(measure_column)`.
    Sum,
    /// `COUNT(*)` (the measure column is ignored).
    Count,
}

/// A global GROUP-BY aggregate query.
#[derive(Debug, Clone)]
pub struct GroupByQuery {
    /// Table queried on every PDS.
    pub table: String,
    /// Grouping attribute.
    pub group_column: String,
    /// Summed attribute (ignored for COUNT).
    pub measure_column: String,
    /// Which aggregate to compute.
    pub measure: Measure,
    /// Public domain of the grouping attribute.
    pub domain: Vec<String>,
}

impl GroupByQuery {
    /// The running example of the experiments: national spending per
    /// category over everyone's BANK table.
    pub fn bank_by_category() -> Self {
        GroupByQuery {
            table: "BANK".to_string(),
            group_column: "category".to_string(),
            measure_column: "amount_cents".to_string(),
            measure: Measure::Sum,
            domain: pds_core::data::BANK_CATEGORIES
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }

    /// The access context a global query presents to each PDS: an
    /// anonymous statistics request (granted by the default policy for
    /// `Aggregate` only).
    pub fn context(&self) -> AccessContext {
        AccessContext::new("global-query", Purpose::Statistics)
    }

    /// One token's policy-gated `(group, value)` contributions to this
    /// query — the collection-phase input of every [TNP14\] protocol,
    /// whichever runtime hosts the token.
    pub fn contributions_of(&self, pds: &mut Pds) -> Result<Vec<(String, u64)>, GlobalError> {
        let ctx = self.context();
        Ok(match self.measure {
            Measure::Sum => {
                pds.group_contribution(&ctx, &self.table, &self.group_column, &self.measure_column)?
            }
            Measure::Count => pds.group_count(&ctx, &self.table, &self.group_column)?,
        })
    }
}

/// Manufacture synthetic token `i`: a slim PDS holding 1–3 bank records
/// whose categories are drawn from `domain` with a skew (earlier entries
/// are more frequent), enrolled under `protocol_key`. The draw order on
/// `rng` is part of every seeded experiment's identity — both
/// [`Population::synthetic`] (one shared stream) and the fleet's
/// per-token derived streams go through here.
pub fn synthetic_token(
    i: usize,
    domain: &[String],
    protocol_key: &SymmetricKey,
    rng: &mut impl Rng,
) -> Result<Pds, GlobalError> {
    let mut pds = Pds::slim(i as u64, &format!("user-{i}"))?;
    let records = rng.gen_range(1..=3);
    for day in 0..records {
        // Skewed category choice: index ~ min of two uniforms.
        let a = rng.gen_range(0..domain.len());
        let b = rng.gen_range(0..domain.len());
        let cat = &domain[a.min(b)];
        pds.ingest_bank(day, cat, rng.gen_range(100..10_000), "shop")?;
    }
    pds.enroll(protocol_key.clone());
    Ok(pds)
}

/// A population of enrolled PDSs sharing one protocol key.
pub struct Population {
    /// The tokens.
    pub tokens: Vec<Pds>,
    /// The shared protocol key (issued at manufacture; never at the SSI).
    pub protocol_key: SymmetricKey,
}

impl Population {
    /// Build `n` [`synthetic_token`]s under one fresh protocol key, all
    /// drawn from the one shared `rng`.
    pub fn synthetic(
        n: usize,
        domain: &[String],
        rng: &mut impl Rng,
    ) -> Result<Population, GlobalError> {
        let protocol_key = SymmetricKey::random(rng);
        let tokens = (0..n)
            .map(|i| synthetic_token(i, domain, &protocol_key, rng))
            .collect::<Result<_, _>>()?;
        Ok(Population {
            tokens,
            protocol_key,
        })
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Every token's policy-gated contribution to `query`, flattened as
    /// `(token index, group, value)`.
    pub fn contributions(
        &mut self,
        query: &GroupByQuery,
    ) -> Result<Vec<(usize, String, u64)>, GlobalError> {
        let mut out = Vec::new();
        for (i, pds) in self.tokens.iter_mut().enumerate() {
            for (g, v) in query.contributions_of(pds)? {
                out.push((i, g, v));
            }
        }
        Ok(out)
    }
}

/// The ground truth every protocol must reproduce exactly: the GROUP BY
/// computed with full visibility (what a trusted centralized server
/// would return).
pub fn plaintext_groupby(
    population: &mut Population,
    query: &GroupByQuery,
) -> Result<Vec<(String, u64)>, GlobalError> {
    let mut groups: std::collections::BTreeMap<String, u64> = Default::default();
    for (_, g, v) in population.contributions(query)? {
        *groups.entry(g).or_insert(0) += v;
    }
    Ok(groups.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::rng::SeedableRng;
    use pds_obs::rng::StdRng;

    #[test]
    fn synthetic_population_contributes() {
        let mut rng = StdRng::seed_from_u64(1);
        let q = GroupByQuery::bank_by_category();
        let mut pop = Population::synthetic(20, &q.domain, &mut rng).unwrap();
        assert_eq!(pop.len(), 20);
        let contribs = pop.contributions(&q).unwrap();
        assert!(contribs.len() >= 20);
        assert!(contribs.iter().all(|(_, g, _)| q.domain.contains(g)));
    }

    #[test]
    fn plaintext_reference_sums_everything() {
        let mut rng = StdRng::seed_from_u64(2);
        let q = GroupByQuery::bank_by_category();
        let mut pop = Population::synthetic(30, &q.domain, &mut rng).unwrap();
        let contribs = pop.contributions(&q).unwrap();
        let total: u64 = contribs.iter().map(|(_, _, v)| v).sum();
        let result = plaintext_groupby(&mut pop, &q).unwrap();
        let result_total: u64 = result.iter().map(|(_, v)| v).sum();
        assert_eq!(total, result_total);
        // Sorted unique groups.
        assert!(result.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn count_and_avg_decompose_correctly() {
        use crate::secure_agg::{secure_aggregation, OnTamper};
        use crate::ssi::Ssi;
        let mut rng = StdRng::seed_from_u64(9);
        let sum_q = GroupByQuery::bank_by_category();
        // `SELECT category, COUNT(*) … GROUP BY category`.
        let count_q = GroupByQuery {
            measure: Measure::Count,
            ..GroupByQuery::bank_by_category()
        };
        let mut pop = Population::synthetic(40, &sum_q.domain, &mut rng).unwrap();
        // COUNT through a real protocol equals the plaintext count.
        let expected_counts = plaintext_groupby(&mut pop, &count_q).unwrap();
        let ssi = Ssi::honest(1);
        let (counts, _) =
            secure_aggregation(&mut pop, &count_q, &ssi, 16, OnTamper::Abort, &mut rng).unwrap();
        assert_eq!(counts, expected_counts);
        // COUNT counts rows (each token ingested 1–3), not per-token
        // group contributions.
        let total: u64 = counts.iter().map(|(_, c)| c).sum();
        assert!(total as usize >= pop.len() && total as usize <= 3 * pop.len());
        // AVG = SUM/COUNT over the same grouping: both runs are exact,
        // so the average is too.
        let sums = plaintext_groupby(&mut pop, &sum_q).unwrap();
        assert_eq!(sums.len(), counts.len());
        for ((g, s), (cg, c)) in sums.iter().zip(&counts) {
            assert_eq!(g, cg);
            let avg = *s as f64 / *c as f64;
            assert!((100.0..10_000.0).contains(&avg), "{g}: avg {avg}");
        }
    }

    #[test]
    fn contribution_is_policy_gated() {
        let mut rng = StdRng::seed_from_u64(3);
        let q = GroupByQuery::bank_by_category();
        let mut pop = Population::synthetic(3, &q.domain, &mut rng).unwrap();
        // One user opts out of statistics entirely.
        pop.tokens[1].grant(pds_core::Rule::deny_all(
            pds_core::Collection::Table("BANK".into()),
            pds_core::Action::Aggregate,
            Some(Purpose::Statistics),
        ));
        let err = pop.contributions(&q).unwrap_err();
        assert!(matches!(err, GlobalError::Pds(_)), "opt-out surfaces");
    }
}
