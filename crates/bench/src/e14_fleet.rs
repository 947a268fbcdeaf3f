//! E14 — fleet scaling: tokens × threads × connectivity.
//!
//! The tutorial's ecosystem is "millions" of weakly-connected tokens
//! behind an always-available SSI. E14 runs the \[TNP14\] secure
//! aggregation as a phased fleet job (`pds-fleet`) and sweeps worker
//! threads and connectivity, reporting protocol throughput (tokens/s
//! over the timed collection → reduction → distribution phases),
//! speedup versus a single worker, and the bus delivery counters
//! (messages retried / duplicated / expired). Token connections carry a
//! simulated link latency — the cost of talking to a weakly-connected
//! token — which is what worker threads overlap; fleet construction
//! (manufacturing tokens) is excluded from the timed region.
//!
//! Every run of a `(seed, tokens, connectivity)` cell is bit-for-bit
//! deterministic regardless of the worker count: the table's `determ`
//! column re-checks, per connectivity, that result, leakage ledger and
//! bus counters were identical across every thread count swept
//! (`tests/fleet.rs` proves the same at 1/2/8 workers).
//!
//! Environment knobs: `PDS_E14_TOKENS` (default 1024),
//! `PDS_E14_MAX_THREADS` (default 8), `PDS_E14_LATENCY_US` (default
//! 300).

use pds_fleet::{build_fleet, fleet_secure_aggregation, FleetConfig, OnTamper};
use pds_global::ssi::SsiThreat;
use pds_global::GroupByQuery;

use crate::env_u64;
use crate::table::Table;

/// One sweep cell.
pub struct E14Point {
    /// Fleet size.
    pub tokens: usize,
    /// Worker threads.
    pub workers: usize,
    /// Connectivity (probability a token is online per tick).
    pub connectivity: f64,
    /// Timed protocol phases, seconds.
    pub elapsed_s: f64,
    /// Tokens per second over the timed phases.
    pub tokens_per_sec: f64,
    /// Bus transmission attempts that were lost and retried.
    pub retries: u64,
    /// Re-deliveries absorbed by dedup.
    pub duplicates: u64,
    /// Messages that ran out of attempts.
    pub expired: u64,
    /// Protocol result matched the plaintext reference.
    pub exact: bool,
    /// `(result, leakage, bus)` fingerprint for cross-thread checks.
    pub fingerprint: (Vec<(String, u64)>, u64, u64),
}

/// Run one fleet aggregation at the given shape.
pub fn measure(tokens: usize, workers: usize, connectivity: f64, latency_us: u64) -> E14Point {
    let mut cfg = FleetConfig::new(tokens, workers, 0xE14);
    cfg.link_latency_us = latency_us;
    cfg.bus.connectivity = connectivity;
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
    E14Point {
        tokens,
        workers,
        connectivity,
        elapsed_s: rep.elapsed.as_secs_f64(),
        tokens_per_sec: rep.tokens_per_sec(tokens),
        retries: rep.bus.retries,
        duplicates: rep.bus.duplicates,
        expired: rep.bus.expired,
        exact: rep.result == rep.expected,
        fingerprint: (
            rep.result.clone(),
            rep.leakage.tuples_seen ^ rep.leakage.bytes_seen,
            rep.bus.delivered ^ rep.bus.retries ^ rep.bus.ticks,
        ),
    }
}

/// Regenerate the E14 table.
pub fn run() -> Table {
    let tokens = env_u64("PDS_E14_TOKENS", 1024) as usize;
    let max_threads = env_u64("PDS_E14_MAX_THREADS", 8) as usize;
    let latency_us = env_u64("PDS_E14_LATENCY_US", 300);
    let threads: Vec<usize> = [1, 2, 4, 8]
        .into_iter()
        .filter(|t| *t <= max_threads.max(1))
        .collect();

    let mut t = Table::new(
        &format!(
            "E14 — fleet scaling, {tokens} tokens, link latency {latency_us}µs \
             (secure aggregation as a phased fleet job)"
        ),
        &[
            "connectivity",
            "threads",
            "time (s)",
            "tokens/s",
            "speedup",
            "retried",
            "dup",
            "expired",
            "exact",
            "determ",
        ],
    );

    for connectivity in [1.0, 0.3] {
        let mut base_tps = None;
        let mut first_fp = None;
        for &workers in &threads {
            let p = measure(tokens, workers, connectivity, latency_us);
            let base = *base_tps.get_or_insert(p.tokens_per_sec);
            let deterministic = first_fp
                .get_or_insert_with(|| p.fingerprint.clone())
                .clone()
                == p.fingerprint;
            t.row(vec![
                format!("{connectivity:.1}"),
                p.workers.to_string(),
                format!("{:.3}", p.elapsed_s),
                format!("{:.0}", p.tokens_per_sec),
                format!("{:.2}x", p.tokens_per_sec / base),
                p.retries.to_string(),
                p.duplicates.to_string(),
                p.expired.to_string(),
                if p.exact { "yes" } else { "NO" }.to_string(),
                if deterministic { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    t.note(
        "speedup = throughput vs 1 worker thread; workers overlap the per-connection \
         link latency of weakly-connected tokens (fleet build excluded from timing)",
    );
    t.note(
        "determ = result, leakage ledger and bus counters identical to the 1-thread \
         run of the same (seed, connectivity) — the phased-job determinism contract",
    );
    t.note("retried/dup/expired: store-and-forward bus delivery counters");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_exact_and_deterministic() {
        let a = measure(32, 1, 0.5, 0);
        let b = measure(32, 4, 0.5, 0);
        assert!(a.exact && b.exact);
        assert_eq!(a.fingerprint, b.fingerprint);
    }
}
