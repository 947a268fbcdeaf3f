//! `fleet_agg` — [TNP14] secure aggregation on a hibernating fleet.
//!
//! Each block builds a fresh fleet of `TOKENS` slim tokens under a
//! resident cap of `CAP` with `EvictPolicy::Hibernate` and the default
//! lossy bus (the build is untimed), then times `ROUNDS` aggregation
//! rounds; an op is one round over the whole fleet. Repeating rounds on
//! one fleet is not stationary (each round's hibernations grow the
//! tokens' flash logs, and round time drifts up with them), so every
//! block starts from a fresh fleet and runs the same three rounds:
//! blocks are identical, and `fleet.round1_ms` against
//! `fleet.round3_ms` still shows the drift.

use std::time::Instant;

use pds_core::Pds;
use pds_flash::{CostModel, Flash};
use pds_fleet::{
    build_fleet, build_token, fleet_secure_aggregation, EvictPolicy, FleetAggReport, FleetConfig,
    OnTamper,
};
use pds_global::secure_agg::secure_aggregation;
use pds_global::ssi::SsiThreat;
use pds_global::{GroupByQuery, Population, Ssi};
use pds_mcu::Token;

use crate::gen;
use crate::harness::{Block, Counts, Meter, Metrics, Workload};
use crate::probes::{self, span_median_us, time_each};
use crate::span::Tracer;

pub const TOKENS: usize = 2_048;
const CAP: usize = 256;
pub const ROUNDS: usize = 3;
const ROUND_SPANS: [&str; ROUNDS] = ["round1", "round2", "round3"];
/// Tokens the hibernate/wake probes cycle through.
const PROBE_TOKENS: usize = 64;

pub struct FleetAgg {
    cfg: FleetConfig,
    query: GroupByQuery,
}

impl FleetAgg {
    fn round(
        &self,
        fleet: &mut pds_fleet::Fleet,
    ) -> Result<FleetAggReport, pds_global::GlobalError> {
        fleet_secure_aggregation(
            &self.cfg,
            &self.query,
            fleet,
            SsiThreat::HonestButCurious,
            OnTamper::Abort,
        )
    }
}

impl Workload for FleetAgg {
    fn setup(seed: u64) -> Self {
        // One process carries all the load: the driver thread plus one
        // worker fit the two cores of the reference machine.
        let mut cfg = FleetConfig::new(TOKENS, 1, seed);
        cfg.resident_cap = Some(CAP);
        cfg.evict = EvictPolicy::Hibernate;
        FleetAgg {
            cfg,
            query: GroupByQuery::bank_by_category(),
        }
    }

    fn block(&mut self, tr: &mut Tracer) -> Block {
        let mut counts = Counts::new();
        let mut op_ns = Vec::with_capacity(ROUNDS);
        let mut reports = Vec::with_capacity(ROUNDS);
        let mut fleet = tr
            .call("fleet", "build", || build_fleet(&self.cfg, &self.query))
            .expect("spawn the fleet's worker thread");
        let meter = Meter::start();
        for name in ROUND_SPANS {
            tr.next_op();
            let t0 = Instant::now();
            reports.push(tr.scope("ledger", "op", |tr| {
                tr.call("fleet", name, || self.round(&mut fleet))
            }));
            op_ns.push(t0.elapsed().as_nanos() as u64);
        }
        let (wall_ns, cpu_ns) = meter.stop();
        drop(fleet);

        let mut ok = true;
        for rep in &reports {
            let Ok(rep) = rep else {
                ok = false;
                continue;
            };
            ok &= rep.result == rep.expected;
            super::add_bus(&mut counts, &rep.bus);
            for (name, v) in [
                ("sched.wakes", rep.sched.wakes),
                ("sched.evictions", rep.sched.evictions),
                ("sched.sleep_wakes", rep.sched.sleep_wakes),
                ("crypto_ops", rep.stats.token_crypto_ops),
            ] {
                *counts.entry(name).or_insert(0) += v;
            }
            let peak = counts.entry("sched.peak_resident").or_insert(0);
            *peak = (*peak).max(rep.sched.peak_resident);
            for (phase, ticks) in &rep.phase_ticks {
                let name = match phase.split('.').next() {
                    Some("collect") => "ticks.collect",
                    Some("reduce") => "ticks.reduce",
                    _ => "ticks.distribute",
                };
                *counts.entry(name).or_insert(0) += ticks;
            }
        }
        Block {
            op_ns,
            wall_ns,
            cpu_ns,
            ok,
            counts,
        }
    }

    fn sim_cost(counts: &Counts) -> f64 {
        super::flash_device_us(counts, &CostModel::default())
    }

    fn probes(&mut self, tr: &mut Tracer, out: &mut Metrics) {
        out.insert("fleet.build_ms", span_median_us(tr, "fleet", "build") / 1e3);
        out.insert(
            "fleet.round1_ms",
            span_median_us(tr, "fleet", "round1") / 1e3,
        );
        out.insert(
            "fleet.round3_ms",
            span_median_us(tr, "fleet", "round3") / 1e3,
        );
        probes::obs(tr, out);
        probes::mcu_reserve(tr, out);
        probes::crypto_sym(tr, &mut gen::stream(self.cfg.seed, "fleet_agg.crypto"), out);
        probes::bus_send_tick(tr, self.cfg.seed, TOKENS, out);

        // What parking and reviving one fleet token costs, layer by
        // layer, on the fleet's own tokens: flash snapshot/reopen, the
        // MCU token around it, the whole PDS around that.
        let domain = &self.query.domain;
        let token = |i: usize| build_token(&self.cfg, domain, i);
        let tokens: Vec<Pds> = (0..PROBE_TOKENS).map(token).collect();
        let mut snaps = Vec::with_capacity(PROBE_TOKENS);
        out.insert(
            "flash.snapshot_us",
            time_each(tr, "flash", "snapshot", PROBE_TOKENS, |i| {
                snaps.push(tokens[i].token().flash().snapshot())
            }),
        );
        let mut snaps = snaps.into_iter();
        out.insert(
            "flash.chip_reopen_us",
            time_each(tr, "flash", "chip_reopen", PROBE_TOKENS, |_| {
                snaps.next().map(Flash::reopen).is_some()
            }),
        );
        let mut sleeps = Vec::with_capacity(PROBE_TOKENS);
        out.insert(
            "mcu.token_hibernate_us",
            time_each(tr, "mcu", "token_hibernate", PROBE_TOKENS, |i| {
                sleeps.push(tokens[i].token().hibernate())
            }),
        );
        let mut sleeps = sleeps.into_iter();
        out.insert(
            "mcu.token_wake_us",
            time_each(tr, "mcu", "token_wake", PROBE_TOKENS, |_| {
                sleeps.next().map(Token::wake).is_some()
            }),
        );
        let mut tokens = tokens.into_iter();
        let mut parked = Vec::with_capacity(PROBE_TOKENS);
        out.insert(
            "core.hibernate_us",
            time_each(tr, "core", "hibernate", PROBE_TOKENS, |_| {
                parked.extend(tokens.next().and_then(|pds| pds.hibernate().ok()))
            }),
        );
        let mut parked = parked.into_iter();
        out.insert(
            "core.wake_us",
            time_each(tr, "core", "wake", PROBE_TOKENS, |_| {
                parked
                    .next()
                    .map(Pds::wake)
                    .is_some_and(|woken| woken.is_ok())
            }),
        );

        // Pure residency churn: the whole fleet dispatched through an
        // empty closure under the cap, after one dispatch has built it.
        let mut fleet =
            build_fleet(&self.cfg, &self.query).expect("spawn the fleet's worker thread");
        fleet.dispatch_all(None, |_, _, _| ());
        out.insert(
            "sched.noop_dispatch_ms",
            time_each(tr, "sched", "noop_dispatch", 3, |_| {
                fleet.dispatch_all(None, |_, _, _| ()).len()
            }) / 1e3,
        );
        drop(fleet);

        // The same protocol on the same population, in process: no bus,
        // no scheduler, every token resident. Fleet round minus this is
        // transport plus hosting.
        let mut population = Population {
            tokens: (0..TOKENS).map(token).collect(),
            protocol_key: self.cfg.protocol_key(),
        };
        let ssi = Ssi::honest(self.cfg.seed);
        let mut rng = gen::stream(self.cfg.seed, "fleet_agg.reference");
        out.insert(
            "global.reference_agg_ms",
            time_each(tr, "global", "reference_agg", 3, |_| {
                secure_aggregation(
                    &mut population,
                    &self.query,
                    &ssi,
                    self.cfg.partition_size,
                    OnTamper::Abort,
                    &mut rng,
                )
                .is_ok()
            }) / 1e3,
        );
    }
}
