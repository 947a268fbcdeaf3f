//! E19 — crash-storm forensics: seeded power losses during an
//! aggregation round, triaged fleet-wide.
//!
//! PR 2 proved the stack survives power loss; this experiment proves it
//! can *explain* one at fleet scale. Each cell first runs the full
//! secure-aggregation protocol (the scheduler, bus and telemetry plane
//! all live), then unleashes a crash storm: a seeded subset of tokens
//! replays an aggregation round — contribution, commit, sync — with a
//! seeded [`FaultPlan`] armed to cut the power mid-round. Every victim
//! reopens, reconstructs its pre-crash timeline from the durable flight
//! recorder, and mails a `PDF1` forensics digest to the collector over
//! the store-and-forward bus.
//!
//! What the sweep proves:
//!
//! * **bit-identical forensics** — the concatenated per-victim
//!   [`ForensicsReport`](pds_core::ForensicsReport) JSON is the same at
//!   1/2/8 workers and under both eviction policies: the timeline is a
//!   pure function of the seed, never of scheduling;
//! * **exactly-once triage** — the collector folds one crash per
//!   victim, no matter how the bus redelivered the digests;
//! * **the verdict reflects the storm** — the standard health engine
//!   flips unhealthy on `forensics.crashes == 0`, and `crash_summary`
//!   names the dominant cause;
//! * **bounded write amplification** — the recorder's flash pages per
//!   recorded frame stay below 1.0 even with a sync per round.
//!
//! Environment knobs: `PDS_E19_TOKENS` (default 96),
//! `PDS_E19_MAX_THREADS` (default 8).

use pds_core::Pds;
use pds_flash::FaultPlan;
use pds_fleet::{
    build_fleet, build_token, derived_rng, fleet_secure_aggregation, mail_forensics, BusConfig,
    Collector, EvictPolicy, FleetConfig, HealthEngine, MailboxBus, OnTamper, TelemetryMsg,
};
use pds_global::ssi::SsiThreat;
use pds_global::GroupByQuery;
use pds_obs::rng::Rng;
use pds_obs::DeltaTracker;

use crate::env_u64;
use crate::table::Table;

/// Derivation tag for the crash-storm fault plans (disjoint from the
/// protocol's TAG_* space).
const TAG_CRASH: u64 = 0xC4A5;

/// One sweep cell.
pub struct E19Point {
    /// Fleet size.
    pub tokens: usize,
    /// Worker threads for the aggregation phase.
    pub workers: usize,
    /// Eviction policy of the aggregation phase.
    pub evict: EvictPolicy,
    /// The protocol result matched the plaintext reference.
    pub exact: bool,
    /// Victims the storm crashed (every one must reopen).
    pub crashed: usize,
    /// Distinct crash digests the collector folded.
    pub digests: u64,
    /// Duplicate digests the exactly-once gate dropped.
    pub deduped: u64,
    /// Flight-recorder frames salvaged across all victims.
    pub frames_recovered: u64,
    /// Recorder flash pages programmed per frame recorded — the write
    /// amplification of the observability tier.
    pub write_amp: f64,
    /// The `fleet status` crash triage line.
    pub summary: String,
    /// True when `forensics.crashes == 0` failed (it must).
    pub verdict_reflects_crashes: bool,
    /// Concatenated per-victim forensics JSON, sorted by token id —
    /// the cross-worker / cross-policy determinism fingerprint.
    pub forensics_fp: String,
    /// Wall-clock of the whole cell, seconds.
    pub elapsed_s: f64,
}

/// Crash one token mid-aggregation-round and post-mortem it: returns
/// the recovered PDS (forensics attached) after the seeded power loss.
fn crash_one(cfg: &FleetConfig, query: &GroupByQuery, i: usize) -> Pds {
    let mut pds = build_token(cfg, &query.domain, i);
    let ctx = query.context();
    // One clean aggregation round first, so the durable timeline has a
    // contribution + commit + sync prefix to recover verbatim.
    pds.group_contribution(
        &ctx,
        &query.table,
        &query.group_column,
        &query.measure_column,
    )
    .expect("contribution");
    pds.commit().expect("commit");
    pds.sync().expect("sync");
    // Arm the seeded cut, then keep running rounds until the lights go
    // out mid-operation.
    let mut rng = derived_rng(cfg.seed, TAG_CRASH, i as u64);
    let cut = rng.gen_range(2..48);
    pds.token()
        .flash()
        .inject_faults(FaultPlan::new(cfg.seed ^ i as u64).power_loss_after(cut));
    let mut day = 1000;
    loop {
        assert!(day < 20_000, "fault plan never fired for token {i}");
        let round = pds
            .ingest_bank(
                day,
                &query.domain[day as usize % query.domain.len()],
                100,
                "shop",
            )
            .and_then(|()| pds.commit().map(|_| ()))
            .and_then(|()| pds.sync());
        if round.is_err() {
            break;
        }
        day += 1;
    }
    let (pds, _report) = pds.reopen().expect("post-crash reopen");
    pds
}

/// One seeded victim's post-mortem JSON — the CI forensics artifact
/// (`report --forensics-json FILE`). Deliberately tiny (one token, one
/// crash) so it runs in the smoke tier; the seed is fixed, so the
/// artifact is bit-identical across runs and machines.
pub fn forensics_json() -> String {
    let mut cfg = FleetConfig::new(12, 1, 0xE19);
    cfg.partition_size = 8;
    let query = GroupByQuery::bank_by_category();
    postmortem_json(&crash_one(&cfg, &query, 0))
}

/// A victim's post-mortem JSON, its pre-crash timeline read from the
/// recorder ring.
fn postmortem_json(pds: &Pds) -> String {
    let f = pds.forensics().expect("forensics after reopen");
    f.to_json(&pds.pre_crash_timeline().expect("the ring reads back"))
}

/// Run one cell: aggregation at the given shape, then the crash storm.
pub fn measure(tokens: usize, workers: usize, evict: EvictPolicy) -> E19Point {
    let started = std::time::Instant::now();
    let mut tracker = DeltaTracker::new();
    let _ = tracker.take(pds_obs::metrics::global());

    let mut cfg = FleetConfig::new(tokens, workers, 0xE19);
    cfg.partition_size = 8;
    cfg.resident_cap = Some((tokens / 2).max(4));
    cfg.evict = evict;
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

    // The storm: every 3rd token is a victim. Victims replay their
    // round on deterministically rebuilt state, so the forensics are a
    // pure function of the seed — worker count cannot perturb them.
    let victims: Vec<usize> = (0..tokens).step_by(3).collect();
    let mut bus = MailboxBus::new(BusConfig::reliable(cfg.seed ^ 0xF0));
    let mut collector = Collector::new();
    let mut forensics: Vec<(u64, String)> = Vec::new();
    let mut frames_recovered = 0u64;
    for &i in &victims {
        let pds = crash_one(&cfg, &query, i);
        let f = pds.forensics().expect("forensics after reopen");
        frames_recovered += f.frames_recovered;
        forensics.push((f.token, postmortem_json(&pds)));
        assert!(mail_forensics(&pds, i, &mut bus), "victim had no digest");
    }
    bus.run_until_quiet(100_000);
    collector.drain_bus(&mut bus);

    // Fold the cell's own metric increments (sched.*, blackbox.*, …)
    // into the same rollup the digests landed in, then ask for the
    // fleet verdict.
    let delta = tracker.take(pds_obs::metrics::global());
    collector.fold(&TelemetryMsg {
        source: 0xFEED,
        tick: bus.now(),
        delta,
    });
    let health = collector.health(&HealthEngine::standard());
    let verdict_reflects_crashes = health
        .verdicts
        .iter()
        .any(|v| v.rule == "forensics.crashes == 0" && !v.pass);

    let total = collector.total();
    let frames_written = total.counter("blackbox.frames_written").max(1);
    let write_amp = total.counter("blackbox.pages_flushed") as f64 / frames_written as f64;

    forensics.sort();
    let forensics_fp = forensics
        .into_iter()
        .map(|(_, j)| j)
        .collect::<Vec<_>>()
        .join("\n");

    E19Point {
        tokens,
        workers,
        evict,
        exact: rep.result == rep.expected,
        crashed: victims.len(),
        digests: collector.stats().digests_folded,
        deduped: collector.stats().digests_deduped,
        frames_recovered,
        write_amp,
        summary: collector.crash_summary(),
        verdict_reflects_crashes,
        forensics_fp,
        elapsed_s: started.elapsed().as_secs_f64(),
    }
}

/// The sweep's cells: `Rebuild` at 1, 2 and `max_threads` workers, then
/// `Hibernate` at up to 2.
fn cells(max_threads: usize) -> Vec<(EvictPolicy, usize)> {
    let mut cells: Vec<(EvictPolicy, usize)> = Vec::new();
    for w in [1, 2, max_threads] {
        if !cells.iter().any(|&(_, cw)| cw == w) {
            cells.push((EvictPolicy::Rebuild, w));
        }
    }
    cells.push((EvictPolicy::Hibernate, max_threads.min(2)));
    cells
}

/// Baseline gauge of one cell. Keyed by policy *and* workers: the
/// `Hibernate` cell runs at a worker count a `Rebuild` cell also uses,
/// and keyed by workers alone it overwrote that cell's gauges.
fn gauge_name(metric: &str, evict: EvictPolicy, workers: usize) -> String {
    let policy = match evict {
        EvictPolicy::Rebuild => "rebuild",
        EvictPolicy::Hibernate => "hibernate",
    };
    format!("fleet.e19.{metric}.{policy}.w{workers}")
}

/// Regenerate the E19 table.
pub fn run() -> Table {
    let tokens = env_u64("PDS_E19_TOKENS", 96) as usize;
    let max_threads = env_u64("PDS_E19_MAX_THREADS", 8).max(1) as usize;

    let mut t = Table::new(
        &format!(
            "E19 — crash-storm forensics, {tokens} tokens \
             (seeded power loss mid-round; black-box triage at the collector)"
        ),
        &[
            "policy",
            "workers",
            "time (s)",
            "crashed",
            "digests",
            "frames",
            "write amp",
            "exact",
            "identical",
            "verdict",
        ],
    );

    let mut reference_fp: Option<String> = None;
    let mut last_summary = String::new();
    for (evict, workers) in cells(max_threads) {
        let p = measure(tokens, workers, evict);
        let identical = match &reference_fp {
            None => {
                reference_fp = Some(p.forensics_fp.clone());
                true
            }
            Some(fp) => *fp == p.forensics_fp,
        };
        for (metric, value) in [
            ("crashed", p.crashed as u64),
            ("digests", p.digests),
            ("frames_recovered", p.frames_recovered),
            ("write_amp_x1000", (p.write_amp * 1000.0) as u64),
        ] {
            pds_obs::metrics::gauge(&gauge_name(metric, evict, workers)).set(value);
        }
        last_summary = p.summary.clone();
        t.row(vec![
            format!("{:?}", p.evict),
            p.workers.to_string(),
            format!("{:.3}", p.elapsed_s),
            p.crashed.to_string(),
            p.digests.to_string(),
            p.frames_recovered.to_string(),
            format!("{:.3}", p.write_amp),
            if p.exact { "yes" } else { "NO" }.to_string(),
            if identical { "yes" } else { "NO" }.to_string(),
            if p.verdict_reflects_crashes {
                "crashes flagged"
            } else {
                "MISSED"
            }
            .to_string(),
        ]);
    }
    for line in last_summary.lines() {
        t.note(line);
    }
    t.note(
        "identical = concatenated per-victim forensics JSON (timeline, cause, losses) \
         bit-identical to the first cell — across worker counts and eviction policies",
    );
    t.note(
        "write amp = recorder pages programmed per frame recorded (one sync per round \
         is the worst case); verdict = the standard health engine flags the crash storm",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_two_cells_share_a_gauge_name() {
        for max_threads in 1..=8 {
            let names: Vec<String> = cells(max_threads)
                .into_iter()
                .map(|(evict, workers)| gauge_name("write_amp_x1000", evict, workers))
                .collect();
            let distinct: std::collections::BTreeSet<&String> = names.iter().collect();
            assert_eq!(distinct.len(), names.len(), "{max_threads}: {names:?}");
        }
    }

    #[test]
    fn forensics_are_bit_identical_across_workers_and_policies() {
        let a = measure(12, 1, EvictPolicy::Rebuild);
        let b = measure(12, 2, EvictPolicy::Rebuild);
        let c = measure(12, 2, EvictPolicy::Hibernate);
        assert!(a.exact && b.exact && c.exact);
        assert!(!a.forensics_fp.is_empty());
        assert_eq!(a.forensics_fp, b.forensics_fp, "worker count leaked in");
        assert_eq!(a.forensics_fp, c.forensics_fp, "eviction policy leaked in");
    }

    /// Ticks at or past which a victim's ring is one that once held more
    /// than 512 frames: a ring of fewer holds ticks `0..frames` only.
    const OVERFLOW_TICK: u64 = 512;

    /// The five forensics fields of one wake — cause, crash tick, last
    /// frame, frames recovered and the pre-crash timeline — in bytes.
    fn wake_fields(pds: &Pds) -> Vec<u8> {
        let f = pds.forensics().expect("forensics after reopen");
        let timeline = pds.pre_crash_timeline().unwrap();
        let mut out = f.cause.name().as_bytes().to_vec();
        out.extend_from_slice(&f.crash_tick().to_le_bytes());
        out.extend_from_slice(&f.last_frame().map_or([0; 28], |fr| fr.encode()));
        out.extend_from_slice(&f.frames_recovered.to_le_bytes());
        out.extend_from_slice(&(timeline.len() as u64).to_le_bytes());
        for fr in &timeline {
            out.extend_from_slice(&fr.encode());
        }
        out
    }

    /// Every victim of the default-size sweep (96 tokens, every third
    /// crashed) wakes with the five forensics fields it had when this
    /// pin was taken. No victim's ring ever held more than 512 frames.
    #[test]
    fn crash_sweep_forensics_are_pinned() {
        let mut cfg = FleetConfig::new(96, 1, 0xE19);
        cfg.partition_size = 8;
        let query = GroupByQuery::bank_by_category();
        let mut digest = pds_crypto::Sha256::new();
        let mut overflowed = Vec::new();
        for i in (0..96).step_by(3) {
            let pds = crash_one(&cfg, &query, i);
            let f = pds.forensics().expect("forensics after reopen");
            if f.crash_tick() >= OVERFLOW_TICK {
                overflowed.push(i);
            }
            digest.update(&wake_fields(&pds));
        }
        assert_eq!(overflowed, Vec::<usize>::new());
        let hex: String = digest
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "dda3daed8f867f9d836fe8f19b2bd4bbd11a1d8c5965d5506007b82d56060ff9"
        );
    }

    #[test]
    fn the_storm_is_triaged_exactly_once_and_flagged() {
        let p = measure(12, 2, EvictPolicy::Rebuild);
        assert_eq!(p.crashed, 4, "every 3rd of 12 tokens");
        assert_eq!(p.digests, p.crashed as u64, "exactly-once at the collector");
        assert!(p.verdict_reflects_crashes, "crash SLO must trip");
        assert!(p.summary.contains("4 token(s) crashed"), "{}", p.summary);
        assert!(p.write_amp < 1.0, "write amp {} not bounded", p.write_amp);
        assert!(p.frames_recovered > 0);
    }
}
