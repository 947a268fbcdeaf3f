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
use pds::obs::FleetTrace;
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
        let query = GroupByQuery::bank_by_category();
        let mut fleet = build_fleet(&cfg, &query).unwrap();
        let (rep, scope) = pds::obs::trace::trace("caller", || {
            fleet_secure_aggregation(
                &cfg,
                &query,
                &mut fleet,
                SsiThreat::HonestButCurious,
                OnTamper::Abort,
            )
        });
        rep.unwrap();
        FleetTrace::new(scope.find("fleet.agg").expect("stitched").clone())
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

fn cell_net(workers: usize, seed: u64, delta: bool) -> CellNet {
    let cfg = CellNetConfig::new(6, workers, seed);
    let cfg = if delta { cfg.with_delta() } else { cfg };
    CellNet::build(cfg, |i| {
        TrustedCell::new(&format!("cell-{i}"), b"owner-alice")
    })
    .unwrap()
}

#[test]
fn offline_cell_converges_after_coming_back_online() {
    for delta in [false, true] {
        let mut net = cell_net(3, 11, delta);
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
        assert!(
            net.converged(),
            "delta {delta}, after reconnect: {:?}",
            net.versions()
        );
        assert_eq!(net.read(4, "energy-profile").unwrap(), b"heating v2");
        assert_eq!(net.read(4, "medical").unwrap(), b"diagnosis");
    }
}

#[test]
fn cell_sync_is_identical_across_worker_counts() {
    for delta in [false, true] {
        let run = |workers| {
            let mut net = cell_net(workers, 23, delta);
            net.write(0, "a", b"1");
            net.write(3, "b", b"2");
            let rounds = net.sync_until_quiet(40).unwrap();
            net.write(2, "a", b"3");
            net.sync_until_quiet(40).unwrap();
            (rounds, net.versions(), net.report(), net.bus_stats())
        };
        let one = run(1);
        assert_eq!(one, run(2), "delta {delta}");
        assert_eq!(one, run(8), "delta {delta}");
    }
}

/// The writes of one reconcile of the seeded sweep: `(cell, slice, data)`.
type Writes = Vec<(usize, String, Vec<u8>)>;

/// One seeded schedule of the sweep, as reconciles of writes. A cell
/// goes offline for the reconcile at `offline.0` and writes in it, while
/// another cell writes too; two cells write one slice in the reconcile
/// at `offline.0 + 1`.
fn swept_schedule(seed: u64) -> (Vec<Writes>, (usize, usize)) {
    const CELLS: usize = 7;
    const SLICES: usize = 6;
    let mut rng = StdRng::seed_from_u64(seed);
    let data = |rng: &mut StdRng| {
        let mut d = vec![0u8; rng.gen_range(1..96usize)];
        rng.fill(&mut d);
        d
    };
    let mut plan: Vec<Writes> = Vec::new();
    for _ in 0..5 {
        let mut slices: Vec<usize> = (0..SLICES).collect();
        rng.shuffle(&mut slices);
        let writes = slices[..rng.gen_range(1..4usize)]
            .iter()
            .map(|s| (rng.gen_range(0..CELLS), format!("s{s}"), data(&mut rng)))
            .collect();
        plan.push(writes);
    }
    let at = rng.gen_range(1..3usize);
    let offline = rng.gen_range(0..CELLS);
    let other = (offline + rng.gen_range(1..CELLS)) % CELLS;
    // Across the offline reconcile: the offline cell writes one slice and
    // another cell a different one.
    plan[at] = vec![
        (offline, "s0".to_string(), data(&mut rng)),
        (other, "s1".to_string(), data(&mut rng)),
    ];
    // Two writers on one slice in one round.
    let slice = format!("s{}", rng.gen_range(0..SLICES));
    let second = (other + rng.gen_range(1..CELLS)) % CELLS;
    plan[at + 1] = vec![
        (other, slice.clone(), data(&mut rng)),
        (second, slice, data(&mut rng)),
    ];
    (plan, (at, offline))
}

/// Run [`swept_schedule`] on the default lossy bus; return the converged
/// witness, the report and the bus counts, after checking that every
/// slice whose last reconcile wrote it once reads back that write on
/// every cell.
fn swept_run(
    seed: u64,
    workers: usize,
    delta: bool,
) -> (
    Vec<Vec<(String, u64)>>,
    pds::sync::CellSyncReport,
    pds::fleet::BusStats,
) {
    let (plan, (at, offline)) = swept_schedule(seed);
    let cfg = CellNetConfig::new(7, workers, seed);
    let cfg = if delta { cfg.with_delta() } else { cfg };
    let mut net = CellNet::build(cfg, |i| {
        TrustedCell::new(&format!("cell-{i}"), b"owner-sweep")
    })
    .unwrap();
    let ctx = format!("seed {seed}, {workers} workers, delta {delta}");
    for (r, writes) in plan.iter().enumerate() {
        if r == at {
            net.force_offline(offline, true);
        }
        for (cell, slice, data) in writes {
            net.write(*cell, slice, data);
        }
        if r == at {
            net.sync_until_quiet(8).unwrap();
            net.force_offline(offline, false);
        }
        let rounds = net.sync_until_quiet(60).unwrap();
        assert!(rounds < 60, "{ctx}: reconcile {r} never went quiet");
        assert!(
            net.converged(),
            "{ctx}: reconcile {r}: {:?}",
            net.versions()
        );
    }
    let mut last: std::collections::BTreeMap<&str, &Writes> = Default::default();
    for writes in &plan {
        for (_, slice, _) in writes {
            last.insert(slice, writes);
        }
    }
    for (slice, writes) in last {
        let mut mine = writes.iter().filter(|(_, s, _)| s == slice);
        let (Some((_, _, data)), None) = (mine.next(), mine.next()) else {
            continue;
        };
        for cell in 0..net.len() {
            assert_eq!(
                net.read(cell, slice).as_deref(),
                Some(data.as_slice()),
                "{ctx}: slice {slice} on cell {cell}"
            );
        }
    }
    (net.versions(), net.report(), net.bus_stats())
}

/// Eight seeded schedules on the default lossy bus, each with a cell
/// forced offline across a write and two writers on one slice in one
/// round: delta and full reconcile reach the same witness, and each mode
/// is identical at 1, 2 and 8 workers.
#[test]
fn seeded_cell_sweep_converges_equal_in_both_modes() {
    for seed in 0..8u64 {
        let seed = 0x5EE9_0000 + seed;
        let full = swept_run(seed, 1, false);
        let delta = swept_run(seed, 1, true);
        assert_eq!(full.0, delta.0, "seed {seed}: reconcile modes diverged");
        for workers in [2, 8] {
            assert_eq!(full, swept_run(seed, workers, false), "seed {seed}");
            assert_eq!(delta, swept_run(seed, workers, true), "seed {seed}");
        }
    }
}

/// Every cell's `(slice, version, bytes)`, in cell then slice order.
type CellState = Vec<Vec<(String, u64, Vec<u8>)>>;

/// One protocol, two transports: on a seeded write schedule (each
/// reconcile writes distinct slices, so no two cells race one version),
/// in-process `TrustedCell::sync` passes against a `CloudStore` — every
/// cell syncing in turn until a pass moves nothing — leave every cell
/// holding what a lossless `CellNet` run of the same writes leaves, in
/// either reconcile mode.
#[test]
fn in_process_sync_reaches_the_cell_net_state() {
    const CELLS: usize = 5;
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0x7A0_0000 + seed);
        let plan: Vec<Writes> = (0..6)
            .map(|_| {
                let mut slices: Vec<usize> = (0..5).collect();
                rng.shuffle(&mut slices);
                slices[..rng.gen_range(1..4usize)]
                    .iter()
                    .map(|s| {
                        let mut data = vec![0u8; rng.gen_range(1..64usize)];
                        rng.fill(&mut data);
                        (rng.gen_range(0..CELLS), format!("s{s}"), data)
                    })
                    .collect()
            })
            .collect();

        let mut cells: Vec<TrustedCell> = (0..CELLS)
            .map(|i| TrustedCell::new(&format!("cell-{i}"), b"owner-two"))
            .collect();
        let mut cloud = pds::core::CloudStore::new();
        let mut seal = StdRng::seed_from_u64(seed);
        for writes in &plan {
            for (cell, slice, data) in writes {
                cells[*cell].write(slice, data);
            }
            for pass in 0.. {
                assert!(pass < 8, "seed {seed}: in-process passes never went quiet");
                let mut moved = false;
                for c in &mut cells {
                    let r = c.sync(&mut cloud, &mut seal).unwrap();
                    moved |= r.pushed + r.pulled > 0;
                }
                if !moved {
                    break;
                }
            }
        }
        let in_process: CellState = cells
            .iter()
            .map(|c| {
                let held = c.slice_names().into_iter();
                held.map(|s| {
                    let (version, data) = (c.version(&s), c.read(&s).unwrap().to_vec());
                    (s, version, data)
                })
                .collect()
            })
            .collect();
        assert!(!in_process[0].is_empty());
        assert!(in_process.windows(2).all(|w| w[0] == w[1]), "seed {seed}");

        for delta in [false, true] {
            let mut cfg = CellNetConfig::new(CELLS, 2, seed);
            cfg.bus = pds::fleet::BusConfig::reliable(seed);
            cfg.delta = delta;
            let mut net = CellNet::build(cfg, |i| {
                TrustedCell::new(&format!("cell-{i}"), b"owner-two")
            })
            .unwrap();
            for writes in &plan {
                for (cell, slice, data) in writes {
                    net.write(*cell, slice, data);
                }
                assert!(net.sync_until_quiet(8).unwrap() < 8);
            }
            let over_bus: CellState = net
                .versions()
                .into_iter()
                .enumerate()
                .map(|(i, held)| {
                    let held = held.into_iter();
                    held.map(|(s, v)| {
                        let data = net.read(i, &s).unwrap();
                        (s, v, data)
                    })
                    .collect()
                })
                .collect();
            assert_eq!(over_bus, in_process, "seed {seed}, delta {delta}");
        }
    }
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
                ("bus.sent", 1320),
                ("bus.deliveries", 1320),
                ("bus.losses", 96),
                ("bus.dedup_hits", 28),
                ("bus.expired", 0),
                ("bus.ticks", 316),
                ("bus.redeliveries", 30),
                ("bus.backoff_events", 94),
                ("bus.payload_bytes", 826425),
            ],
            "{workers} workers"
        );
        assert_eq!(rounds, [2; 5], "{workers} workers");
        assert_eq!(report, (40, 2520, 40), "{workers} workers");
        assert_eq!(
            versions, "38f85ae4c3ca70edaf0ea7515a35a22e80e8351be6c92fe7b0f56b0caa535b4b",
            "{workers} workers"
        );
    }
}

/// Three aggregation rounds on one fleet of 64 tokens capped at 16,
/// under both eviction policies and at 1, 2 and 8 workers. Each round's
/// protocol observables — the result, the plaintext reference, the
/// leakage ledger, `ProtocolStats`, `BusStats`, `result_coverage` and
/// the per-phase ticks — hash to one constant, the same for every round
/// of the fleet: when and how the scheduler parks and revives a token
/// moves none of them.
#[test]
fn capped_rounds_on_one_fleet_are_pinned() {
    const ROUND: &str = "93e93918ae0988993a5ceeb5b9c6c16ae3c6140498f74392a6135a6841ad9723";
    for evict in [
        pds::fleet::EvictPolicy::Hibernate,
        pds::fleet::EvictPolicy::Rebuild,
    ] {
        for workers in [1, 2, 8] {
            let mut cfg = FleetConfig::new(64, workers, 0xF1EE7);
            cfg.partition_size = 16;
            cfg.resident_cap = Some(16);
            cfg.evict = evict;
            let query = GroupByQuery::bank_by_category();
            let mut fleet = build_fleet(&cfg, &query).unwrap();
            for round in 1..=3 {
                let rep = fleet_secure_aggregation(
                    &cfg,
                    &query,
                    &mut fleet,
                    SsiThreat::HonestButCurious,
                    OnTamper::Abort,
                )
                .unwrap();
                let seen = format!(
                    "{:?}",
                    (
                        &rep.result,
                        &rep.expected,
                        &rep.leakage,
                        rep.stats,
                        rep.bus,
                        rep.result_coverage,
                        &rep.phase_ticks,
                    )
                );
                assert_eq!(
                    hex(&sha256(seen.as_bytes())),
                    ROUND,
                    "{evict:?}, {workers} workers, round {round}"
                );
            }
        }
    }
}
