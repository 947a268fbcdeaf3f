//! Deterministic cost baselines: capture the `pds-obs` registry after a
//! scoped `report` run, commit the file, and fail CI when a
//! deterministic metric drifts (`report --check BENCH_BASELINE.json`).
//!
//! What counts as deterministic: counters and gauges whose names carry
//! no wall-clock unit suffix (`_ns`/`_us`/`_ms`) and no `elapsed`
//! substring — flash page IO, search pages-per-keyword, `mcu.ram`
//! high-water marks, `bus.*` delivery/redelivery tallies, `recovery.*`,
//! the lint's posture (`lint.findings*`, `lint.waivers*`) — plus every
//! histogram's *count* (how many observations happened is control flow;
//! what they measured may be time). The `obs.events_dropped` counter
//! stands for flight frames lost to a full staging buffer. Wall-clock
//! values are machine-dependent and never baselined, and neither are the
//! counts that only measure how much source there is (`SOURCE_SIZE`).
//!
//! A baseline also records which experiments ran ([`Baseline::scope`])
//! and the environment knobs that shaped them ([`ENV_KNOBS`]), so a
//! `--check` replay re-runs the exact same shape before comparing.

use std::collections::BTreeMap;
use std::fmt;

use pds_obs::json::{self, Json};

/// Environment knobs recorded at `--baseline` time and re-applied at
/// `--check` time, so the replay runs the recorded experiment shape
/// regardless of the checking machine's environment.
pub const ENV_KNOBS: &[&str] = &[
    "PDS_E14_TOKENS",
    "PDS_E14_MAX_THREADS",
    "PDS_E14_LATENCY_US",
    "PDS_E16_TOKENS",
    "PDS_E16_MAX_THREADS",
    "PDS_E17_TOKENS",
    "PDS_E17_MAX_THREADS",
    "PDS_E17_CAP",
    "PDS_E18_CELLS",
    "PDS_E18_MAX_THREADS",
    "PDS_E19_TOKENS",
    "PDS_E19_MAX_THREADS",
];

/// Deterministic, but a measure of the source tree rather than of what
/// it does: every honest change moves them, so freezing them only makes
/// the gate cry drift. The lint's posture — findings and waivers — stays
/// frozen.
const SOURCE_SIZE: &[&str] = &[
    "lint.files_scanned",
    "lint.graph.functions",
    "lint.graph.edges",
];

/// Is this metric name safe to compare exactly across machines, and
/// worth comparing?
fn deterministic(name: &str) -> bool {
    !(name.ends_with("_ns")
        || name.ends_with("_us")
        || name.ends_with("_ms")
        || name.contains("elapsed")
        || SOURCE_SIZE.contains(&name))
}

/// A committed cost baseline: which experiments ran, under which env
/// knobs, and the deterministic metric values they produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// Experiment ids the capture ran (empty = every experiment).
    pub scope: Vec<String>,
    /// [`ENV_KNOBS`] that were set at capture time (absent = unset).
    pub env: BTreeMap<String, String>,
    /// Flat metric map: `counter:NAME`, `gauge:NAME`, `hist:NAME.count`.
    pub metrics: BTreeMap<String, u64>,
}

/// Snapshot the global registry's deterministic metrics plus the current
/// [`ENV_KNOBS`], tagged with the experiment scope that produced them.
pub fn capture(scope: &[String]) -> Baseline {
    let mut env = BTreeMap::new();
    for k in ENV_KNOBS {
        if let Ok(v) = std::env::var(k) {
            env.insert((*k).to_string(), v);
        }
    }
    let mut metrics = BTreeMap::new();
    for line in pds_obs::metrics::global().export_jsonl().lines() {
        let Some(j) = json::parse(line) else { continue };
        let (Some(ty), Some(name)) = (
            j.get("type").and_then(Json::as_str),
            j.get("name").and_then(Json::as_str),
        ) else {
            continue;
        };
        match ty {
            "counter" | "gauge" if deterministic(name) => {
                if let Some(v) = j.get("value").and_then(Json::as_u64) {
                    metrics.insert(format!("{ty}:{name}"), v);
                }
            }
            "histogram" => {
                if let Some(c) = j.get("count").and_then(Json::as_u64) {
                    metrics.insert(format!("hist:{name}.count"), c);
                }
            }
            _ => {}
        }
    }
    Baseline {
        scope: scope.to_vec(),
        env,
        metrics,
    }
}

impl Baseline {
    /// Re-apply the recorded env knobs (and clear unrecorded ones) so a
    /// `--check` replay runs the shape the baseline was captured under.
    pub fn apply_env(&self) {
        for k in ENV_KNOBS {
            match self.env.get(*k) {
                Some(v) => std::env::set_var(k, v),
                None => std::env::remove_var(k),
            }
        }
    }

    /// Serialize as a stable, diff-friendly JSON document (one metric
    /// per line, keys sorted — clean `git diff`s when regenerated).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"scope\": [");
        for (i, s) in self.scope.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, s);
        }
        out.push_str("],\n  \"env\": {");
        for (i, (k, v)) in self.env.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json::write_str(&mut out, k);
            out.push_str(": ");
            json::write_str(&mut out, v);
        }
        if !self.env.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json::write_str(&mut out, k);
            out.push_str(&format!(": {v}"));
        }
        if !self.metrics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parse a baseline document. `None` on malformed JSON or schema.
    pub fn parse(text: &str) -> Option<Baseline> {
        let j = json::parse(text)?;
        let scope = j
            .get("scope")?
            .as_arr()?
            .iter()
            .map(|s| s.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()?;
        let env = match j.get("env")? {
            Json::Obj(m) => m
                .iter()
                .map(|(k, v)| v.as_str().map(|v| (k.clone(), v.to_string())))
                .collect::<Option<BTreeMap<_, _>>>()?,
            _ => return None,
        };
        let metrics = match j.get("metrics")? {
            Json::Obj(m) => m
                .iter()
                .map(|(k, v)| v.as_u64().map(|v| (k.clone(), v)))
                .collect::<Option<BTreeMap<_, _>>>()?,
            _ => return None,
        };
        Some(Baseline {
            scope,
            env,
            metrics,
        })
    }

    /// Compare against a fresh capture: every mismatch, disappearance,
    /// and new arrival is one named [`Drift`]. Empty = the check passes.
    pub fn diff(&self, current: &Baseline) -> Vec<Drift> {
        let mut out = Vec::new();
        for (k, &b) in &self.metrics {
            match current.metrics.get(k) {
                Some(&c) if c == b => {}
                other => out.push(Drift {
                    metric: k.clone(),
                    baseline: Some(b),
                    current: other.copied(),
                }),
            }
        }
        for (k, &c) in &current.metrics {
            if !self.metrics.contains_key(k) {
                out.push(Drift {
                    metric: k.clone(),
                    baseline: None,
                    current: Some(c),
                });
            }
        }
        out
    }
}

/// One metric that no longer matches the committed baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Drift {
    /// Flat metric key (`counter:…`, `gauge:…`, `hist:….count`).
    pub metric: String,
    /// Committed value (`None` = metric is new since the baseline).
    pub baseline: Option<u64>,
    /// Re-measured value (`None` = metric vanished from the export).
    pub current: Option<u64>,
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.baseline, self.current) {
            (Some(b), Some(c)) => write!(f, "{}: baseline {b} -> current {c}", self.metric),
            (Some(b), None) => write!(f, "{}: baseline {b} -> missing", self.metric),
            (None, Some(c)) => write!(f, "{}: new metric (current {c})", self.metric),
            (None, None) => write!(f, "{}: unchanged", self.metric),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_names_are_not_deterministic() {
        assert!(deterministic("flash.page_reads"));
        assert!(deterministic("bus.redeliveries"));
        assert!(!deterministic("policy.decision_ns"));
        assert!(!deterministic("sync.round_us"));
        assert!(!deterministic("e2.elapsed_total"));
        // The lint's posture is frozen, the size of the source is not.
        assert!(deterministic("lint.findings.panic") && deterministic("lint.waivers"));
        assert!(!SOURCE_SIZE.iter().any(|name| deterministic(name)));
    }

    #[test]
    fn capture_filters_wall_clock_but_keeps_histogram_counts() {
        // Unique names: other tests share the process-global registry.
        pds_obs::metrics::counter("baseline.test.reads").add(7);
        pds_obs::metrics::counter("baseline.test.lat_ns").add(1234);
        pds_obs::metrics::gauge("baseline.test.peak").record_max(96);
        let h = pds_obs::metrics::histogram("baseline.test.op_ns");
        h.observe(10);
        h.observe(2000);
        let b = capture(&["e1".to_string()]);
        assert_eq!(b.metrics.get("counter:baseline.test.reads"), Some(&7));
        assert_eq!(b.metrics.get("gauge:baseline.test.peak"), Some(&96));
        assert_eq!(b.metrics.get("hist:baseline.test.op_ns.count"), Some(&2));
        assert!(!b.metrics.contains_key("counter:baseline.test.lat_ns"));
        assert!(b.metrics.contains_key("counter:obs.events_dropped"));
        assert_eq!(b.scope, vec!["e1"]);
    }

    #[test]
    fn json_round_trips() {
        let mut b = Baseline {
            scope: vec!["e1".into(), "e14".into()],
            env: BTreeMap::new(),
            metrics: BTreeMap::new(),
        };
        b.env.insert("PDS_E14_TOKENS".into(), "64".into());
        b.metrics.insert("counter:flash.page_reads".into(), 640);
        b.metrics.insert("hist:mcu.alloc.count".into(), 12);
        let text = b.to_json();
        assert_eq!(Baseline::parse(&text), Some(b));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(Baseline::parse("").is_none());
        assert!(Baseline::parse("{}").is_none());
        assert!(Baseline::parse(r#"{"scope":[],"env":{},"metrics":{"a":"x"}}"#).is_none());
        assert!(Baseline::parse(r#"{"scope":[1],"env":{},"metrics":{}}"#).is_none());
    }

    #[test]
    fn diff_names_every_kind_of_drift() {
        let mk = |pairs: &[(&str, u64)]| Baseline {
            scope: Vec::new(),
            env: BTreeMap::new(),
            metrics: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        };
        let base = mk(&[("counter:a", 1), ("counter:b", 2), ("gauge:gone", 3)]);
        let cur = mk(&[("counter:a", 1), ("counter:b", 5), ("hist:new.count", 4)]);
        let drifts = base.diff(&cur);
        assert_eq!(drifts.len(), 3);
        let find = |m: &str| drifts.iter().find(|d| d.metric == m).unwrap();
        assert_eq!(find("counter:b").current, Some(5));
        assert_eq!(find("gauge:gone").current, None);
        assert_eq!(find("hist:new.count").baseline, None);
        assert!(find("counter:b")
            .to_string()
            .contains("baseline 2 -> current 5"));
        assert!(base.diff(&base.clone()).is_empty());
    }

    #[test]
    fn apply_env_restores_the_recorded_shape() {
        let mut b = Baseline {
            scope: Vec::new(),
            env: BTreeMap::new(),
            metrics: BTreeMap::new(),
        };
        b.env.insert("PDS_E14_TOKENS".into(), "48".into());
        b.apply_env();
        assert_eq!(std::env::var("PDS_E14_TOKENS").as_deref(), Ok("48"));
        // An unrecorded knob is cleared, not inherited.
        assert!(std::env::var("PDS_E14_LATENCY_US").is_err());
        std::env::remove_var("PDS_E14_TOKENS");
    }
}
