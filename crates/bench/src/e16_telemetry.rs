//! E16 — in-band fleet telemetry: rollup convergence and overhead.
//!
//! The telemetry plane rides the same store-and-forward bus as the
//! \[TNP14\] protocol itself (`pds-fleet::telemetry`): every token mails
//! its metric deltas to the collector role, which folds them into
//! tick-indexed rollups and a health verdict. E16 sweeps fleet size ×
//! connectivity and reports what that costs and how it behaves:
//!
//! * **overhead** — telemetry envelopes and payload bytes as a
//!   percentage of *all* bus traffic (the protocol plus the telemetry
//!   itself), the number a 1M-token deployment planner needs;
//! * **convergence** — bus ticks the final flush takes until the last
//!   envelope lands in the collector (the rollup's staleness bound on
//!   a weak fabric);
//! * **determinism** — every cell is re-run at 1 worker thread and the
//!   entire `TelemetrySummary` (rollup, health verdict, collector
//!   accounting) must be bit-identical to the multi-threaded run.
//!
//! Environment knobs: `PDS_E16_TOKENS` (cap on the 64/256/512 sweep,
//! default 512), `PDS_E16_MAX_THREADS` (default 4).

use pds_fleet::{build_fleet, fleet_secure_aggregation, FleetConfig, OnTamper};
use pds_global::ssi::SsiThreat;
use pds_global::GroupByQuery;

use crate::env_u64;
use crate::table::Table;

/// One sweep cell.
pub struct E16Point {
    /// Telemetry envelopes mailed.
    pub tele_msgs: u64,
    /// Telemetry payload bytes mailed.
    pub tele_bytes: u64,
    /// All messages the bus accepted (protocol + telemetry).
    pub bus_msgs: u64,
    /// All payload bytes the bus accepted.
    pub bus_bytes: u64,
    /// Deltas the collector folded.
    pub deltas_folded: u64,
    /// Live tick buckets in the collector ring.
    pub buckets: usize,
    /// Endpoints that reported (tokens + SSI + collector).
    pub sources: usize,
    /// Ticks the final telemetry flush took to converge.
    pub convergence_ticks: u64,
    /// The standard SLO verdict.
    pub healthy: bool,
    /// Protocol result matched the plaintext reference.
    pub exact: bool,
    /// The full telemetry summary, for cross-thread comparison.
    pub summary: pds_fleet::TelemetrySummary,
}

/// Run one telemetry-instrumented fleet aggregation.
pub fn measure(tokens: usize, workers: usize, connectivity: f64) -> E16Point {
    let mut cfg = FleetConfig::new(tokens, workers, 0xE16);
    cfg.partition_size = 32;
    cfg.bus.connectivity = connectivity;
    cfg.telemetry = true;
    let query = GroupByQuery::bank_by_category();
    let mut fleet = build_fleet(&cfg, &query).expect("fleet build");
    let rep = fleet_secure_aggregation(
        &cfg,
        &query,
        &mut fleet,
        SsiThreat::HonestButCurious,
        OnTamper::Abort,
    )
    .expect("fleet aggregation");
    let tele = rep.telemetry.expect("telemetry requested");
    E16Point {
        tele_msgs: tele.msgs,
        tele_bytes: tele.bytes,
        bus_msgs: rep.bus.sent,
        bus_bytes: rep.bus.payload_bytes,
        deltas_folded: tele.stats.deltas_folded,
        buckets: tele.buckets,
        sources: tele.sources,
        convergence_ticks: tele.convergence_ticks,
        healthy: tele.health.healthy,
        exact: rep.result == rep.expected,
        summary: tele,
    }
}

fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", 100.0 * part as f64 / whole as f64)
    }
}

/// Regenerate the E16 table.
pub fn run() -> Table {
    let cap = env_u64("PDS_E16_TOKENS", 512) as usize;
    let workers = env_u64("PDS_E16_MAX_THREADS", 4).max(1) as usize;
    let sizes: Vec<usize> = [64, 256, 512]
        .into_iter()
        .filter(|t| *t <= cap.max(64))
        .collect();

    let mut t = Table::new(
        "E16 — in-band fleet telemetry: rollup convergence and overhead \
         (deltas over the store-and-forward bus)",
        &[
            "tokens",
            "connectivity",
            "tele msgs",
            "msg ovh",
            "tele bytes",
            "byte ovh",
            "folded",
            "buckets",
            "converge (ticks)",
            "health",
            "exact",
            "determ",
        ],
    );

    for connectivity in [1.0, 0.3] {
        for &tokens in &sizes {
            let p = measure(tokens, workers, connectivity);
            // The determinism contract, re-proven per cell: the entire
            // telemetry summary is bit-identical at 1 worker.
            let solo = measure(tokens, 1, connectivity);
            let deterministic = p.summary == solo.summary;
            t.row(vec![
                tokens.to_string(),
                format!("{connectivity:.1}"),
                p.tele_msgs.to_string(),
                pct(p.tele_msgs, p.bus_msgs),
                p.tele_bytes.to_string(),
                pct(p.tele_bytes, p.bus_bytes),
                p.deltas_folded.to_string(),
                p.buckets.to_string(),
                p.convergence_ticks.to_string(),
                if p.healthy { "HEALTHY" } else { "UNHEALTHY" }.to_string(),
                if p.exact { "yes" } else { "NO" }.to_string(),
                if deterministic { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    t.note(
        "msg/byte ovh = telemetry envelopes (bytes) as % of all bus traffic, \
         protocol + telemetry included",
    );
    t.note(
        "converge = bus ticks of the final flush until the last envelope lands \
         in the collector (rollup staleness bound)",
    );
    t.note(
        "determ = TelemetrySummary (rollup, health verdict, collector accounting) \
         bit-identical when the same cell runs at 1 worker thread",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_cell_is_healthy_exact_and_thread_independent() {
        let a = measure(48, 1, 0.5);
        let b = measure(48, 4, 0.5);
        assert!(a.exact && a.healthy, "{}", a.summary.health.render());
        assert_eq!(a.summary, b.summary);
        assert!(a.tele_msgs > 0 && a.tele_msgs < a.bus_msgs);
        // Envelopes now drain inside the phases' own tick loops, so the
        // final flush converges (near-)instantly.
        assert!(a.convergence_ticks < 100);
    }
}
