//! The fleet's park and wake counters. The registry is process-global,
//! so they are proven in a binary of its own: here, and only here,
//! `flash.page_programs` moves by exactly what the one fleet of this
//! binary programs.

use pds::fleet::{build_fleet, fleet_secure_aggregation, EvictPolicy, FleetConfig, OnTamper};
use pds::global::ssi::SsiThreat;
use pds::global::GroupByQuery;
use pds::obs::counter;

/// Three rounds on one `Hibernate` fleet of 64 tokens capped at 16. Every
/// revival wakes from its park, none falls back to the factory, and only
/// round 1 programs pages: its cold builds and their first parks. A park
/// of a token that wrote nothing since its wake programs nothing.
#[test]
fn hibernate_rounds_wake_every_park_and_program_nothing_after_the_first() {
    let mut cfg = FleetConfig::new(64, 2, 0xF1EE7);
    cfg.partition_size = 16;
    cfg.resident_cap = Some(16);
    cfg.evict = EvictPolicy::Hibernate;
    let query = GroupByQuery::bank_by_category();
    let mut fleet = build_fleet(&cfg, &query).unwrap();
    let programs = || counter("flash.page_programs").get();
    for round in 1..=3 {
        let before = programs();
        let rep = fleet_secure_aggregation(
            &cfg,
            &query,
            &mut fleet,
            SsiThreat::HonestButCurious,
            OnTamper::Abort,
        )
        .unwrap();
        assert_eq!(rep.result, rep.expected, "round {round}");
        let programmed = programs() - before;
        if round == 1 {
            assert!(programmed > 0, "round 1 builds the fleet");
        } else {
            assert!(rep.sched.sleep_wakes > 0, "round {round}: nothing revived");
            assert_eq!(programmed, 0, "round {round}");
        }
    }
    assert_eq!(counter("fleet.wake_fallbacks").get(), 0);
}
