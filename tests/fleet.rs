//! Integration: the fleet runtime's determinism contract and the
//! bus-routed Trusted-Cells convergence.
//!
//! The contract under test: for a fixed seed, a phased fleet job is
//! bit-for-bit identical at 1, 2, and 8 worker threads — the protocol
//! result, the SSI's leakage ledger, its covert drop/forge tallies, the
//! protocol cost accounting, and the bus delivery counters. And the
//! store-and-forward bus gives the Trusted-Cells sync the paper's
//! availability story: a cell that disappears mid-sync converges as
//! soon as it comes back online.

use pds::crypto::hash::sha256;
use pds::fleet::{
    build_fleet, build_token, fleet_secure_aggregation, CellNet, CellNetConfig, FleetAggReport,
    FleetConfig, OnTamper,
};
use pds::global::secure_agg::secure_aggregation;
use pds::global::ssi::{Ssi, SsiThreat};
use pds::global::{plaintext_groupby, GlobalError, GroupByQuery, Population};
use pds::obs::rng::{Rng, SeedableRng, StdRng};
use pds::sync::TrustedCell;

fn run_fleet(workers: usize, threat: SsiThreat, on_tamper: OnTamper) -> FleetAggReport {
    let mut cfg = FleetConfig::new(64, workers, 0xF1EE7);
    cfg.partition_size = 16;
    let query = GroupByQuery::bank_by_category();
    let mut fleet = build_fleet(&cfg, &query).unwrap();
    fleet_secure_aggregation(&cfg, &query, &mut fleet, threat, on_tamper).unwrap()
}

#[test]
fn aggregation_is_identical_at_1_2_and_8_workers() {
    let one = run_fleet(1, SsiThreat::HonestButCurious, OnTamper::Abort);
    assert_eq!(one.result, one.expected, "protocol is exact");
    assert!(!one.result.is_empty());
    for workers in [2, 8] {
        let many = run_fleet(workers, SsiThreat::HonestButCurious, OnTamper::Abort);
        assert_eq!(one.result, many.result, "{workers} workers: result");
        assert_eq!(
            one.leakage, many.leakage,
            "{workers} workers: leakage ledger"
        );
        assert_eq!(one.stats, many.stats, "{workers} workers: protocol stats");
        assert_eq!(
            one.bus, many.bus,
            "{workers} workers: bus delivery schedule"
        );
        assert_eq!(one.result_coverage, many.result_coverage);
    }
}

#[test]
fn stitched_trace_is_bit_identical_at_1_2_and_8_workers() {
    let run = |workers: usize| {
        let mut cfg = FleetConfig::new(32, workers, 0x7ACE);
        cfg.partition_size = 8;
        cfg.trace = true;
        let query = GroupByQuery::bank_by_category();
        let mut fleet = build_fleet(&cfg, &query).unwrap();
        let rep = fleet_secure_aggregation(
            &cfg,
            &query,
            &mut fleet,
            SsiThreat::HonestButCurious,
            OnTamper::Abort,
        )
        .unwrap();
        rep.trace.expect("trace requested")
    };
    let one = run(1);
    // The rendered report and the JSON line are both byte-exact — the
    // worker count and thread scheduling are unobservable in the trace.
    assert_eq!(one.render(), run(2).render(), "2 workers");
    assert_eq!(one.to_json(), run(8).to_json(), "8 workers");

    // And the trace is meaningful: phased, with a critical path whose
    // straggler hops explain the round's causal length in bus ticks.
    assert!(one.phases().len() >= 3);
    assert_eq!(one.phases()[0].name, "phase.collect");
    let cp = one.critical_path();
    assert_eq!(cp.len(), one.phases().len());
    assert!(cp[0].msg.is_some(), "collection moved messages");
    assert!(one.total_ticks() > 0);
    assert!(
        !one.per_token("mcu.ram.peak_bytes").is_empty(),
        "per-token RAM attribution rode along"
    );
    // Every exported trace line round-trips through the JSON parser.
    let parsed = pds::obs::json::parse(&one.to_json()).expect("trace JSON parses");
    assert_eq!(
        parsed.get("span").and_then(pds::obs::json::Json::as_str),
        Some("fleet.agg")
    );
}

#[test]
fn capped_residency_is_identical_at_1_2_and_8_workers() {
    // The event-driven scheduler's contract: with eviction actually
    // biting (cap 16 of 64 tokens), the run is still bit-identical at
    // any shard count — results, bus schedule, and the scheduler's own
    // accounting (wakes, evictions, rebuilds, peak residency).
    let run = |workers: usize, evict: pds::fleet::EvictPolicy| {
        let mut cfg = FleetConfig::new(64, workers, 0xF1EE7);
        cfg.partition_size = 16;
        cfg.resident_cap = Some(16);
        cfg.evict = evict;
        let query = GroupByQuery::bank_by_category();
        let mut fleet = build_fleet(&cfg, &query).unwrap();
        fleet_secure_aggregation(
            &cfg,
            &query,
            &mut fleet,
            SsiThreat::HonestButCurious,
            OnTamper::Abort,
        )
        .unwrap()
    };
    let uncapped = run_fleet(4, SsiThreat::HonestButCurious, OnTamper::Abort);
    for evict in [
        pds::fleet::EvictPolicy::Hibernate,
        pds::fleet::EvictPolicy::Rebuild,
    ] {
        let one = run(1, evict);
        assert_eq!(one.result, one.expected, "{evict:?}: protocol is exact");
        assert_eq!(
            one.result, uncapped.result,
            "{evict:?}: the cap is unobservable in the protocol result"
        );
        assert!(one.sched.evictions > 0, "{evict:?}: the cap bit");
        assert!(
            one.sched.peak_resident <= 16,
            "{evict:?}: residency bounded, got {}",
            one.sched.peak_resident
        );
        for workers in [2, 8] {
            let many = run(workers, evict);
            assert_eq!(one.result, many.result, "{evict:?} {workers}w: result");
            assert_eq!(one.bus, many.bus, "{evict:?} {workers}w: bus schedule");
            assert_eq!(one.sched, many.sched, "{evict:?} {workers}w: sched stats");
            assert_eq!(
                one.phase_ticks, many.phase_ticks,
                "{evict:?} {workers}w: causal phase ticks"
            );
        }
    }
}

#[test]
fn covert_adversary_verdicts_are_thread_count_independent() {
    // A weakly-malicious SSI decides drops per message id, so even the
    // *damage* it does is reproducible at any worker count.
    let threat = SsiThreat::WeaklyMalicious {
        drop_rate: 0.4,
        forge_rate: 0.0,
    };
    let one = run_fleet(1, threat, OnTamper::Skip);
    let eight = run_fleet(8, threat, OnTamper::Skip);
    assert_eq!(one.result, eight.result, "identical corrupted result");
    assert_eq!(one.leakage, eight.leakage);
    let sum = |r: &[(String, u64)]| r.iter().map(|(_, v)| *v).sum::<u64>();
    assert!(
        sum(&one.result) < sum(&one.expected),
        "drops did bias the unchecked result"
    );
}

#[test]
fn weak_connectivity_changes_schedule_but_not_result() {
    let mut flaky = FleetConfig::new(48, 4, 77);
    flaky.partition_size = 16;
    flaky.bus.connectivity = 0.15;
    flaky.bus.loss_rate = 0.2;
    flaky.bus.dup_rate = 0.1;
    flaky.bus.max_attempts = 64;
    let mut solid = flaky.clone();
    solid.bus.connectivity = 1.0;
    solid.bus.loss_rate = 0.0;
    solid.bus.dup_rate = 0.0;
    let query = GroupByQuery::bank_by_category();
    let run = |cfg: &FleetConfig| {
        let mut fleet = build_fleet(cfg, &query).unwrap();
        fleet_secure_aggregation(
            cfg,
            &query,
            &mut fleet,
            SsiThreat::HonestButCurious,
            OnTamper::Abort,
        )
        .unwrap()
    };
    let a = run(&flaky);
    let b = run(&solid);
    assert_eq!(a.bus.expired, 0, "at-least-once within the attempt budget");
    assert!(a.bus.retries > 0 && a.bus.duplicates > 0);
    assert!(a.bus.ticks > b.bus.ticks, "weak connectivity costs time");
    assert_eq!(a.result, b.result, "…but never correctness");
}

#[test]
fn a_lost_protocol_message_aborts_instead_of_shortening_the_result() {
    // One transmission attempt per hop on the default lossy fabric:
    // collection uploads, partitions and partials expire. With an
    // honest SSI the run used to return `Ok` with a result well short
    // of `expected` (or empty, when the last partition's mail expired).
    let mut cfg = FleetConfig::new(48, 2, 77);
    cfg.partition_size = 16;
    cfg.bus.max_attempts = 1;
    let query = GroupByQuery::bank_by_category();
    let mut fleet = build_fleet(&cfg, &query).unwrap();
    let out = fleet_secure_aggregation(
        &cfg,
        &query,
        &mut fleet,
        SsiThreat::HonestButCurious,
        OnTamper::Abort,
    );
    assert!(
        matches!(out, Err(GlobalError::Protocol(_))),
        "expired protocol mail must abort cleanly, got {:?}",
        out.map(|r| (r.bus.expired, r.result == r.expected))
    );

    // The invariant behind it, over a seed sweep at two attempts per
    // hop: a run is exact or cleanly aborted, never short — and the
    // sweep loses each kind of protocol mail (a collection upload, a
    // partition, a partial) at least once.
    let mut aborts = std::collections::BTreeSet::new();
    let mut exact = 0;
    for seed in 0..12 {
        let mut cfg = FleetConfig::new(24, 2, seed);
        cfg.partition_size = 8;
        cfg.bus.max_attempts = 2;
        let mut fleet = build_fleet(&cfg, &query).unwrap();
        match fleet_secure_aggregation(
            &cfg,
            &query,
            &mut fleet,
            SsiThreat::HonestButCurious,
            OnTamper::Abort,
        ) {
            Ok(rep) => {
                assert_eq!(rep.result, rep.expected, "seed {seed}: released short");
                exact += 1;
            }
            Err(GlobalError::Protocol(why)) => {
                aborts.insert(why);
            }
            Err(other) => panic!("seed {seed}: {other}"),
        }
    }
    assert!(exact > 0, "some runs lose nothing that matters");
    assert_eq!(aborts.len(), 3, "{aborts:?}");
}

#[test]
fn in_process_and_fleet_drivers_agree() {
    // The same tokens (the fleet's derived per-token streams) under the
    // same key, through both drivers of the one protocol core. Which
    // groups share a partition differs (bus delivery order), so the
    // reduction-phase cost counters may differ; the result and what the
    // SSI gets to observe in the collection phase may not.
    let mut cfg = FleetConfig::new(40, 2, 0xD21F);
    cfg.partition_size = 8;
    let query = GroupByQuery::bank_by_category();
    let mut population = Population {
        tokens: (0..cfg.tokens)
            .map(|i| build_token(&cfg, &query.domain, i))
            .collect(),
        protocol_key: cfg.protocol_key(),
    };
    let expected = plaintext_groupby(&mut population, &query).unwrap();
    let ssi = Ssi::honest(cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (in_process, _) = secure_aggregation(
        &mut population,
        &query,
        &ssi,
        cfg.partition_size,
        OnTamper::Abort,
        &mut rng,
    )
    .unwrap();

    let mut fleet = build_fleet(&cfg, &query).unwrap();
    let rep = fleet_secure_aggregation(
        &cfg,
        &query,
        &mut fleet,
        SsiThreat::HonestButCurious,
        OnTamper::Abort,
    )
    .unwrap();

    assert!(!expected.is_empty());
    assert_eq!(in_process, expected);
    assert_eq!(rep.result, expected);
    assert_eq!(rep.expected, expected);
    assert_eq!(rep.leakage, ssi.leakage());
    assert!(rep.leakage.tuples_seen > 0 && rep.leakage.equality_class_sizes.is_empty());
}

fn cell_net(workers: usize, seed: u64) -> CellNet {
    let cfg = CellNetConfig::new(6, workers, seed);
    CellNet::build(cfg, |i| {
        TrustedCell::new(&format!("cell-{i}"), b"owner-alice")
    })
    .unwrap()
}

#[test]
fn offline_cell_converges_after_coming_back_online() {
    let mut net = cell_net(3, 11);
    net.write(0, "energy-profile", b"heating v1");
    net.sync_until_quiet(40).unwrap();
    assert!(net.converged(), "baseline sync: {:?}", net.versions());

    // Cell 4 drops off the network; the others keep evolving the state.
    net.force_offline(4, true);
    net.write(1, "energy-profile", b"heating v2");
    net.write(1, "medical", b"diagnosis");
    net.sync_until_quiet(40).unwrap();
    assert!(!net.converged(), "cell 4 is behind while offline");
    assert_eq!(net.read(5, "energy-profile").unwrap(), b"heating v2");
    assert_ne!(net.read(4, "energy-profile").unwrap(), b"heating v2");

    // It reconnects: the parked bus traffic and the next sync rounds
    // bring it up to date without anyone re-entering data.
    net.force_offline(4, false);
    net.sync_until_quiet(40).unwrap();
    assert!(net.converged(), "after reconnect: {:?}", net.versions());
    assert_eq!(net.read(4, "energy-profile").unwrap(), b"heating v2");
    assert_eq!(net.read(4, "medical").unwrap(), b"diagnosis");
}

#[test]
fn cell_sync_is_identical_across_worker_counts() {
    let run = |workers| {
        let mut net = cell_net(workers, 23);
        net.write(0, "a", b"1");
        net.write(3, "b", b"2");
        let rounds = net.sync_until_quiet(40).unwrap();
        net.write(2, "a", b"3");
        net.sync_until_quiet(40).unwrap();
        (rounds, net.versions(), net.report(), net.bus_stats())
    };
    let one = run(1);
    assert_eq!(one, run(2));
    assert_eq!(one, run(8));
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The `ledger`'s `cell_sync` shape at a quarter of its cells, delta
/// reconcile on: 5 reconciles, each 8 seeded 256-byte writes on
/// distinct slices and a `sync_until_quiet`. Every count the run leaves
/// — the bus's, the rounds of each reconcile, the sync outcomes, a
/// digest of the converged versions — is a constant, at 1, 2 and 8
/// workers: how the cells are hosted moves none of them.
#[test]
fn reduced_cell_sync_counts_are_pinned() {
    const CELLS: usize = 64;
    let run = |workers: usize| {
        let cfg = CellNetConfig::new(CELLS, workers, 0xCE11).with_delta();
        let mut net = CellNet::build(cfg, |i| {
            TrustedCell::new(&format!("cell-{i}"), b"owner-pin")
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0xCE11);
        let mut rounds = Vec::new();
        for _ in 0..5 {
            let mut slices: Vec<usize> = (0..16).collect();
            rng.shuffle(&mut slices);
            for slice in &slices[..8] {
                let mut data = vec![0u8; 256];
                rng.fill(&mut data);
                let cell = rng.gen_range(0..CELLS);
                net.write(cell, &format!("slice-{slice}"), &data);
            }
            rounds.push(net.sync_until_quiet(60).unwrap());
        }
        assert!(net.converged(), "{workers} workers");
        let report = net.report();
        let versions = hex(&sha256(format!("{:?}", net.versions()).as_bytes()));
        (
            net.bus_stats().named(),
            rounds,
            (report.pushed, report.pulled, report.unchanged),
            versions,
        )
    };
    for workers in [1, 2, 8] {
        let (bus, rounds, report, versions) = run(workers);
        assert_eq!(
            bus,
            [
                ("bus.sent", 25768),
                ("bus.deliveries", 25768),
                ("bus.losses", 2066),
                ("bus.dedup_hits", 506),
                ("bus.expired", 0),
                ("bus.ticks", 686),
                ("bus.redeliveries", 532),
                ("bus.backoff_events", 2040),
                ("bus.payload_bytes", 1278345),
            ],
            "{workers} workers"
        );
        assert_eq!(rounds, [3; 5], "{workers} workers");
        assert_eq!(report, (40, 2520, 10304), "{workers} workers");
        assert_eq!(
            versions, "38f85ae4c3ca70edaf0ea7515a35a22e80e8351be6c92fe7b0f56b0caa535b4b",
            "{workers} workers"
        );
    }
}
