//! E17 — event-driven scheduler: \[TNP14\] aggregation at 10k–1M tokens.
//!
//! The pool-era fleet kept every token resident, so fleet size was
//! bounded by RAM. The event-driven scheduler (`pds-fleet::sched`)
//! bounds *residency* instead: tokens are visited in capped waves when
//! they have mail or a phase obligation, a visit builds or revives its
//! token only if the turn uses it, and the least-recently-woken are
//! evicted back to parked state in between. E17 runs the full
//! secure-aggregation protocol twice on one fleet, at fleet sizes the
//! pool could never host, and reports what the second round costs:
//!
//! * **critical-path ticks** — the causal length of the run on the
//!   virtual fabric, per phase (collection / reduction / distribution);
//! * **peak resident tokens** — the `fleet.resident_tokens` gauge: the
//!   most tokens simultaneously live, which must stay at the configured
//!   cap no matter the fleet size;
//! * **scheduler work** — wakes, evictions and factory rebuilds (the
//!   price of bounded RAM, all deterministic counters);
//! * **determinism** — every cell re-runs at 1 worker thread and the
//!   protocol result, bus schedule and the *entire* scheduler
//!   accounting must be bit-identical.
//!
//! Every cell runs under both eviction policies — drop-and-rebuild
//! (every fleet token is a pure function of `(seed, index)`) and
//! flash-snapshot hibernation — and the two must produce the identical
//! protocol result on the identical causal schedule: they are
//! observationally equivalent where it matters. What hibernation keeps
//! for a parked token is the pages it programmed (`parked KB/token`), a
//! few KB, so it scales with the fleet like rebuilding does.
//!
//! Environment knobs: `PDS_E17_TOKENS` (default 10_000; the acceptance
//! run uses 100_000), `PDS_E17_MAX_THREADS` (default 4), `PDS_E17_CAP`
//! (default 2_048).

use pds_fleet::{
    build_fleet, fleet_secure_aggregation, EvictPolicy, FleetConfig, OnTamper, SchedStats,
};
use pds_global::ssi::SsiThreat;
use pds_global::GroupByQuery;

use crate::env_u64;
use crate::table::Table;

/// One sweep cell.
pub struct E17Point {
    /// Fleet size.
    pub tokens: usize,
    /// Resident-token cap the scheduler enforced.
    pub cap: usize,
    /// Eviction policy.
    pub evict: EvictPolicy,
    /// Worker threads.
    pub workers: usize,
    /// Timed protocol phases of the second round, seconds.
    pub elapsed_s: f64,
    /// Causal length of the second round in bus ticks (sum over phases).
    pub causal_ticks: u64,
    /// Scheduler accounting for the second round.
    pub sched: SchedStats,
    /// Mean [`PdsHibernation::resident_bytes`](pds_core::PdsHibernation::resident_bytes)
    /// over the tokens parked asleep when the run ended (0 under
    /// [`EvictPolicy::Rebuild`], which keeps nothing).
    pub parked_bytes_per_token: u64,
    /// Both rounds' results matched the plaintext reference.
    pub exact: bool,
    /// `(result, bus, sched)` fingerprint for cross-thread checks.
    pub fingerprint: (Vec<(String, u64)>, u64, SchedStats),
}

/// Run two capped fleet aggregations on one fleet at the given shape
/// and report the second: the first builds every token and parks all
/// but the last wave, and the second's collection revives (or rebuilds)
/// each token it asks for — the parking the policy prices.
pub fn measure(tokens: usize, workers: usize, cap: usize, evict: EvictPolicy) -> E17Point {
    let mut cfg = FleetConfig::new(tokens, workers, 0xE17);
    cfg.partition_size = 64;
    cfg.resident_cap = Some(cap);
    cfg.evict = evict;
    let query = GroupByQuery::bank_by_category();
    let mut fleet = build_fleet(&cfg, &query).expect("fleet build");
    let mut round = || {
        fleet_secure_aggregation(
            &cfg,
            &query,
            &mut fleet,
            SsiThreat::HonestButCurious,
            OnTamper::Abort,
        )
        .expect("fleet aggregation")
    };
    let first = round();
    let rep = round();
    let (asleep, bytes) = fleet.parked(|h| h.resident_bytes() as u64);
    E17Point {
        tokens,
        cap,
        evict,
        workers,
        elapsed_s: rep.elapsed.as_secs_f64(),
        causal_ticks: rep.causal_ticks(),
        sched: rep.sched,
        parked_bytes_per_token: bytes.checked_div(asleep).unwrap_or(0),
        exact: first.result == first.expected && rep.result == rep.expected,
        fingerprint: (
            rep.result.clone(),
            rep.bus.delivered ^ rep.bus.retries ^ rep.bus.ticks,
            rep.sched,
        ),
    }
}

/// Regenerate the E17 table.
pub fn run() -> Table {
    let tokens = env_u64("PDS_E17_TOKENS", 10_000) as usize;
    let workers = env_u64("PDS_E17_MAX_THREADS", 4).max(1) as usize;
    let cap = env_u64("PDS_E17_CAP", 2_048) as usize;
    let mut sizes = vec![(tokens / 10).max(100), tokens];
    sizes.dedup();

    let mut t = Table::new(
        &format!(
            "E17 — event-driven scheduler, resident cap {cap}, {workers} workers \
             (secure aggregation with bounded-RAM token hosting)"
        ),
        &[
            "tokens",
            "policy",
            "time (s)",
            "ticks",
            "wakes",
            "evictions",
            "parked",
            "parked KB/token",
            "peak res",
            "exact",
            "determ",
        ],
    );

    for &n in &sizes {
        // Keep the cap biting at every size (a 1k-token warm-up cell
        // under a 2k cap would never evict and prove nothing).
        let cell_cap = cap.min((n / 2).max(1));
        for evict in [EvictPolicy::Rebuild, EvictPolicy::Hibernate] {
            let p = measure(n, workers, cell_cap, evict);
            // The determinism contract, re-proven per cell: result, bus
            // schedule and scheduler accounting bit-identical at 1
            // worker (a different shard layout entirely).
            let solo = measure(n, 1, cell_cap, evict);
            let deterministic = p.fingerprint == solo.fingerprint;
            let parked = match evict {
                EvictPolicy::Rebuild => p.sched.rebuilds,
                EvictPolicy::Hibernate => p.sched.sleep_wakes,
            };
            pds_obs::metrics::gauge(&format!("fleet.e17.causal_ticks.t{n}")).set(p.causal_ticks);
            pds_obs::metrics::gauge(&format!("fleet.e17.peak_resident.t{n}"))
                .set(p.sched.peak_resident);
            t.row(vec![
                n.to_string(),
                format!("{evict:?}"),
                format!("{:.3}", p.elapsed_s),
                p.causal_ticks.to_string(),
                p.sched.wakes.to_string(),
                p.sched.evictions.to_string(),
                parked.to_string(),
                format!("{:.1}", p.parked_bytes_per_token as f64 / 1024.0),
                p.sched.peak_resident.to_string(),
                if p.exact { "yes" } else { "NO" }.to_string(),
                if deterministic { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    t.note(
        "peak res = most tokens simultaneously live (the fleet.resident_tokens gauge); \
         bounded by the cap regardless of fleet size — that is the whole point",
    );
    t.note(
        "every cell runs two rounds on one fleet and shows the second, whose collection \
         revives what the first parked; reduction and distribution visits use no store, \
         so they revive nothing",
    );
    t.note(
        "parked = factory rebuilds (Rebuild) or sleep-state revivals (Hibernate) \
         after an eviction; ticks = causal run length on the virtual fabric",
    );
    t.note(
        "parked KB/token = mean flash-snapshot bytes held per token asleep at the end of the \
         run: the pages it programmed (Rebuild keeps nothing)",
    );
    t.note(
        "determ = result, bus schedule and full scheduler accounting bit-identical \
         to the 1-worker re-run of the same cell (a different shard layout)",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capped_cell_is_exact_bounded_and_shard_independent() {
        let a = measure(200, 1, 32, EvictPolicy::Rebuild);
        let b = measure(200, 4, 32, EvictPolicy::Rebuild);
        assert!(a.exact && b.exact);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(a.sched.evictions > 0, "the cap bit");
        assert!(a.sched.peak_resident <= 32);
    }

    #[test]
    fn eviction_policies_agree_on_the_protocol() {
        let r = measure(200, 2, 32, EvictPolicy::Rebuild);
        let h = measure(200, 2, 32, EvictPolicy::Hibernate);
        assert_eq!(r.fingerprint.0, h.fingerprint.0, "same result");
        assert_eq!(r.causal_ticks, h.causal_ticks, "same causal schedule");
        assert!(h.sched.sleep_wakes > 0 && r.sched.rebuilds > 0);
    }
}
