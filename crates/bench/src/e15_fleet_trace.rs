//! E15 — fleet-trace critical path vs connectivity.
//!
//! The stitched causal trace (`pds-fleet`'s `FleetTraceBuilder`, asked
//! for by running the round inside a `pds_obs::trace::trace` scope) makes
//! the \[TNP14\] round's *causal* cost measurable: per phase, the
//! straggler hop whose delivery landed last, in bus ticks. E15 sweeps
//! connectivity and watches the critical path stretch — weakly-connected
//! tokens dilate causal time through retries and redeliveries while the
//! protocol result stays exact. Every number in this table is causal
//! (ticks, attempts, redeliveries, RAM high-water), so the table is
//! bit-for-bit deterministic and feeds the `report --check` baseline
//! gate as `fleet.trace.*` metrics.

use pds_fleet::{build_fleet, fleet_secure_aggregation, FleetConfig, OnTamper};
use pds_global::ssi::SsiThreat;
use pds_global::GroupByQuery;
use pds_obs::FleetTrace;

use crate::table::Table;

/// One sweep cell, entirely in causal units.
#[derive(Debug, Clone, PartialEq)]
pub struct E15Point {
    /// Connectivity (probability a token is online per tick).
    pub connectivity: f64,
    /// Phases the round was stitched into.
    pub phases: usize,
    /// Causal length of the round: sum of per-phase bus ticks.
    pub total_ticks: u64,
    /// Transmission attempts burned by the per-phase stragglers.
    pub straggler_attempts: u64,
    /// Duplicate re-deliveries absorbed by dedup on the critical path.
    pub redeliveries: u64,
    /// Largest per-token RAM high-water mark attributed in the trace.
    pub peak_ram: u64,
    /// Protocol result matched the plaintext reference.
    pub exact: bool,
}

/// Run one aggregation inside a trace scope and reduce the trace it
/// stitched there.
pub fn measure(connectivity: f64) -> E15Point {
    let mut cfg = FleetConfig::new(64, 4, 0xE15);
    cfg.partition_size = 16;
    cfg.bus.connectivity = connectivity;
    let query = GroupByQuery::bank_by_category();
    let mut fleet = build_fleet(&cfg, &query).expect("fleet build");
    let (rep, scope) = pds_obs::trace::trace("e15", || {
        fleet_secure_aggregation(
            &cfg,
            &query,
            &mut fleet,
            SsiThreat::HonestButCurious,
            OnTamper::Abort,
        )
    });
    let rep = rep.expect("fleet aggregation");
    let trace = FleetTrace::new(scope.find("fleet.agg").expect("stitched").clone());
    let cp = trace.critical_path();
    E15Point {
        connectivity,
        phases: trace.phases().len(),
        total_ticks: trace.total_ticks(),
        straggler_attempts: cp.iter().map(|h| h.attempts).sum(),
        redeliveries: cp.iter().map(|h| h.redeliveries).sum(),
        peak_ram: trace
            .per_token("mcu.ram.peak_bytes")
            .values()
            .copied()
            .max()
            .unwrap_or(0),
        exact: rep.result == rep.expected,
    }
}

/// Regenerate the E15 table (and publish the `fleet.trace.*` metrics).
pub fn run() -> Table {
    let mut t = Table::new(
        "E15 — fleet-trace critical path, 64 tokens × 4 workers \
         (causal bus ticks from the stitched trace)",
        &[
            "connectivity",
            "phases",
            "ticks",
            "dilation",
            "straggler attempts",
            "redeliveries",
            "peak RAM (B)",
            "exact",
        ],
    );
    let mut base_ticks = None;
    for connectivity in [1.0, 0.6, 0.3] {
        let p = measure(connectivity);
        let base = *base_ticks.get_or_insert(p.total_ticks.max(1));
        let pct = (connectivity * 100.0) as u64;
        pds_obs::metrics::counter("fleet.trace.phases").add(p.phases as u64);
        pds_obs::metrics::counter("fleet.trace.straggler_attempts").add(p.straggler_attempts);
        pds_obs::metrics::counter("fleet.trace.redeliveries").add(p.redeliveries);
        pds_obs::metrics::gauge(&format!("fleet.trace.ticks.c{pct}")).set(p.total_ticks);
        t.row(vec![
            format!("{connectivity:.1}"),
            p.phases.to_string(),
            p.total_ticks.to_string(),
            format!("{:.2}x", p.total_ticks as f64 / base as f64),
            p.straggler_attempts.to_string(),
            p.redeliveries.to_string(),
            p.peak_ram.to_string(),
            if p.exact { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.note(
        "ticks = causal round length from the stitched fleet trace (sum of per-phase \
         bus ticks); dilation = ticks vs the fully-connected run of the same seed",
    );
    t.note(
        "straggler attempts/redeliveries: transmission attempts and dedup-absorbed \
         duplicates of each phase's last-delivered hop (the critical path)",
    );
    t.note("all columns are causal, so this table is baseline-checked by `report --check`");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn causal_cells_are_deterministic_and_exact() {
        let a = measure(1.0);
        assert_eq!(a, measure(1.0), "same seed, same causal trace");
        assert!(a.exact);
        assert!(a.phases >= 3);
        assert!(a.total_ticks > 0);
        assert!(a.peak_ram > 0, "RAM attribution rode along");
    }

    #[test]
    fn weak_connectivity_dilates_the_critical_path() {
        let solid = measure(1.0);
        let weak = measure(0.3);
        assert!(weak.total_ticks > solid.total_ticks);
        assert!(weak.exact, "time dilates, correctness doesn't");
    }
}
