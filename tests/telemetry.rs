//! Integration: the in-band fleet telemetry plane's determinism
//! contract.
//!
//! The claims under test: (1) the collector's rollup and the
//! `FleetHealth` verdict are bit-for-bit identical at 1, 2, and 8
//! worker threads — telemetry envelopes ride the same seeded bus as the
//! protocol, so thread scheduling is unobservable in the time series;
//! (2) delta merging is associative/commutative under permuted shard
//! orders, which is *why* (1) holds; (3) turning telemetry on never
//! perturbs the protocol's own observables.

use pds::fleet::{
    build_fleet, fleet_secure_aggregation, FleetAggReport, FleetConfig, HealthEngine, OnTamper,
};
use pds::global::ssi::SsiThreat;
use pds::global::GroupByQuery;
use pds::obs::{GaugePolicy, MetricsDelta};

fn run_fleet(workers: usize, connectivity: f64, telemetry: bool) -> FleetAggReport {
    let mut cfg = FleetConfig::new(40, workers, 0x7E1E);
    cfg.partition_size = 16;
    cfg.bus.connectivity = connectivity;
    cfg.telemetry = telemetry;
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
}

#[test]
fn rollup_and_health_are_identical_at_1_2_and_8_workers() {
    let one = run_fleet(1, 1.0, true);
    let tele = one.telemetry.as_ref().expect("telemetry requested");
    assert!(tele.health.healthy, "{}", tele.health.render());
    assert!(tele.msgs > 0 && tele.bytes > 0);
    for workers in [2, 8] {
        let many = run_fleet(workers, 1.0, true);
        assert_eq!(one.result, many.result, "{workers} workers: result");
        assert_eq!(
            one.telemetry, many.telemetry,
            "{workers} workers: full telemetry summary"
        );
        let t = many.telemetry.unwrap();
        assert_eq!(tele.rollup, t.rollup, "{workers} workers: rollup");
        assert_eq!(
            tele.health.render(),
            t.health.render(),
            "{workers} workers: fleet status rendering"
        );
        assert_eq!(
            tele.health.to_json(),
            t.health.to_json(),
            "{workers} workers: health JSON export"
        );
    }
}

#[test]
fn weak_fabric_rollups_are_still_thread_count_independent() {
    let one = run_fleet(1, 0.3, true);
    let eight = run_fleet(8, 0.3, true);
    assert_eq!(one.telemetry, eight.telemetry);
    let tele = one.telemetry.unwrap();
    // The rollup saw the fabric itself: losses and backoff happened on
    // a 30%-connectivity bus and the driver folded them in-band.
    assert!(tele.rollup.counter("bus.losses") > 0);
    assert!(tele.rollup.counter("bus.backoff_events") > 0);
    assert_eq!(tele.stats.decode_errors, 0);
}

#[test]
fn rollup_accounts_match_the_protocol_report() {
    let rep = run_fleet(4, 1.0, true);
    let tele = rep.telemetry.unwrap();
    // The driver's bus-stats deltas sum to the final cumulative stats.
    assert_eq!(tele.rollup.counter("bus.deliveries"), rep.bus.delivered);
    assert_eq!(tele.rollup.counter("bus.sent"), rep.bus.sent);
    assert_eq!(
        tele.rollup.counter("tok.result_received"),
        rep.result_coverage as u64
    );
    // Every token contributed (1–3 records each), plus the SSI and the
    // collector's self-observations.
    assert!(tele.sources >= 40 + 2);
    assert_eq!(tele.rollup.counter("telemetry.msgs"), tele.msgs);
    // Telemetry is a minority of bus traffic, not the protocol's equal.
    assert!(tele.bytes < rep.bus.payload_bytes / 2);
}

#[test]
fn telemetry_does_not_perturb_the_protocol() {
    let off = run_fleet(2, 0.3, false);
    let on = run_fleet(2, 0.3, true);
    assert!(off.telemetry.is_none());
    assert_eq!(off.result, on.result);
    assert_eq!(off.expected, on.expected);
    assert_eq!(off.leakage, on.leakage, "SSI saw the same protocol bytes");
    assert_eq!(off.stats, on.stats, "same protocol work accounting");
}

#[test]
fn custom_rules_fail_deterministically() {
    let mut engine = HealthEngine::new();
    engine.rule("bus.sent == 0").unwrap();
    engine
        .rule("tok.contributions / bus.deliveries < 0.0001")
        .unwrap();
    let verdict = |workers: usize| {
        let rep = run_fleet(workers, 1.0, true);
        engine.evaluate(&rep.telemetry.unwrap().rollup)
    };
    let one = verdict(1);
    assert!(!one.healthy);
    assert!(one.verdicts.iter().all(|v| !v.pass));
    assert_eq!(one, verdict(8));
}

#[test]
fn shard_order_permutations_fold_to_one_rollup() {
    // The property the whole plane rests on, at the integration seam:
    // per-shard deltas folded in any order give one rollup.
    let shard = |i: u64| {
        let mut d = MetricsDelta::new();
        d.add("bus.deliveries", 100 + i);
        d.add("bus.redeliveries", 40 + i);
        d.record_gauge("mcu.ram.peak_bytes", 1000 * (i + 1), GaugePolicy::Max);
        d.record_gauge("shard.tokens", 8, GaugePolicy::Sum);
        for v in [1, 50, 900 + i] {
            d.observe("deliver_ticks", v);
        }
        d
    };
    let fold = |order: &[u64]| {
        let mut acc = MetricsDelta::new();
        for &i in order {
            acc.merge(&shard(i));
        }
        acc
    };
    let reference = fold(&[0, 1, 2, 3, 4]);
    for order in [[4, 3, 2, 1, 0], [2, 4, 0, 3, 1], [1, 0, 4, 2, 3]] {
        assert_eq!(reference, fold(&order), "order {order:?}");
    }
    assert_eq!(reference.gauge("mcu.ram.peak_bytes"), 5000, "max policy");
    assert_eq!(reference.gauge("shard.tokens"), 40, "sum policy");
    // And the health engine sees one truth regardless of fold order.
    let h = HealthEngine::standard().evaluate(&reference);
    assert_eq!(
        h,
        HealthEngine::standard().evaluate(&fold(&[3, 1, 4, 0, 2]))
    );
    assert!(!h.healthy, "redelivery ratio breaches the standard SLO");
}
