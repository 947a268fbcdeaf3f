//! The fleet-trace stitcher: per-phase assembly of one causal tree.
//!
//! A fleet protocol round is phased: the driver opens a phase, each
//! worker runs its tokens' turns inside `token.N` trace scopes and
//! returns the trees beside the results ([`FleetScheduler::take_spans`]),
//! the bus records per-message [`HopRecord`]s, and at the phase barrier
//! the driver hands both to [`FleetTraceBuilder::end_phase`]. The
//! builder turns them into the [`FleetTrace`](pds_obs::FleetTrace)
//! conventions (`phase.*` → `token.N` + `hop.N` children):
//!
//! * per-token trees are ordered by their `token` attribute (a token's
//!   own turns stay in the order it took them) and timing-stripped —
//!   worker count and scheduling are unobservable;
//! * hop spans are sorted by message id and carry the full
//!   send → (re)delivery history (`send_tick`, `deliver_tick`,
//!   `attempts`, `redeliveries`, `expired`), so backoff and duplicate
//!   re-deliveries are visible per hop;
//! * phase spans carry `bus.tick.start` / `bus.tick.end` / `bus.ticks`,
//!   the causal clock of the round.
//!
//! Every input reaches the builder by being handed to it, on the
//! driver's thread, so the stitched tree is a pure function of the seed
//! and two traced runs in one process share nothing. A driver traces
//! exactly when its caller has a `pds_obs::trace::trace` scope open on
//! the driver's thread, and [`FleetTraceBuilder::finish`] records the
//! stitched root there; with none open every call is a no-op, so
//! drivers call it unconditionally.
//!
//! [`FleetScheduler::take_spans`]: crate::FleetScheduler::take_spans

use pds_obs::{AttrValue, FinishedSpan, TraceContext};

use crate::bus::{HopRecord, MailboxBus};

struct OpenPhase {
    name: String,
    tick_start: u64,
}

/// Builds one [`FleetTrace`](pds_obs::FleetTrace) phase by phase,
/// driven by the (single threaded) fleet driver between barriers.
pub struct FleetTraceBuilder {
    on: bool,
    /// The trace's identity on bus envelopes: the run seed.
    trace_id: u64,
    root: FinishedSpan,
    open: Option<OpenPhase>,
}

impl FleetTraceBuilder {
    /// Start the trace of the run seeded `seed`, rooted at a span named
    /// `name` (e.g. `fleet.agg`) — or, with no trace scope open on this
    /// thread, a builder that records nothing.
    pub fn new(name: &str, seed: u64) -> Self {
        FleetTraceBuilder {
            on: pds_obs::trace::scope_open(),
            trace_id: seed,
            root: FinishedSpan {
                name: name.to_string(),
                ..FinishedSpan::default()
            },
            open: None,
        }
    }

    /// Set a root attribute (fleet shape, seed, verdicts…).
    pub fn set(&mut self, key: &str, value: impl Into<AttrValue>) {
        if self.on {
            self.root.attrs.push((key.to_string(), value.into()));
        }
    }

    /// Open the next phase and return the context its workers and bus
    /// sends must carry (`None` when nobody asked for the trace: the
    /// phase is not traced). Exactly one phase can be open at a time.
    pub fn begin_phase(&mut self, name: &str, bus: &MailboxBus) -> Option<TraceContext> {
        if !self.on {
            return None;
        }
        assert!(self.open.is_none(), "previous phase still open");
        self.open = Some(OpenPhase {
            name: name.to_string(),
            tick_start: bus.now(),
        });
        Some(TraceContext {
            trace_id: self.trace_id,
            parent_span: self.root.children.len() as u64 + 1,
        })
    }

    /// Close the open phase: stitch `tokens` — the `token.N` trees the
    /// phase's workers returned — and the bus hop log into one `phase.*`
    /// span. Must run after the phase's barrier and after the bus
    /// drained.
    pub fn end_phase(&mut self, bus: &mut MailboxBus, mut tokens: Vec<FinishedSpan>) {
        if !self.on {
            return;
        }
        let open = self.open.take().expect("no phase open");
        let tick_end = bus.now();
        let mut phase = FinishedSpan {
            name: open.name,
            duration_ns: 0,
            attrs: vec![
                ("bus.tick.start".into(), AttrValue::U64(open.tick_start)),
                ("bus.tick.end".into(), AttrValue::U64(tick_end)),
                (
                    "bus.ticks".into(),
                    AttrValue::U64(tick_end - open.tick_start),
                ),
            ],
            children: Vec::new(),
        };
        // A phase of several dispatches returns its trees dispatch by
        // dispatch; the stable sort regroups them token by token.
        tokens.sort_by_key(|t| t.attr_u64("token"));
        for t in &mut tokens {
            t.strip_timing();
        }
        phase.children.extend(tokens);
        phase.children.extend(bus.take_hops().iter().map(hop_span));
        self.root.children.push(phase);
    }

    /// Finish the trace: record the stitched root into the caller's
    /// scope. Panics if a phase is still open.
    pub fn finish(self) {
        assert!(self.open.is_none(), "phase still open");
        if self.on {
            pds_obs::trace::record(self.root);
        }
    }
}

/// Render one delivery history as a `hop.N` span.
fn hop_span(h: &HopRecord) -> FinishedSpan {
    FinishedSpan {
        name: format!("hop.{}", h.msg),
        duration_ns: 0,
        attrs: vec![
            ("msg".into(), AttrValue::U64(h.msg)),
            ("from".into(), AttrValue::U64(h.from.code())),
            ("to".into(), AttrValue::U64(h.to.code())),
            ("send_tick".into(), AttrValue::U64(h.send_tick)),
            ("deliver_tick".into(), AttrValue::U64(h.deliver_tick)),
            ("attempts".into(), AttrValue::U64(h.attempts)),
            ("redeliveries".into(), AttrValue::U64(h.redeliveries)),
            ("expired".into(), AttrValue::U64(u64::from(h.expired))),
            ("payload_bytes".into(), AttrValue::U64(h.payload_bytes)),
        ],
        children: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{Addr, BusConfig};
    use crate::sched::TokenPool;
    use pds_obs::FleetTrace;

    /// Run `f` inside a caller's scope; the one stitched root it
    /// recorded there.
    fn traced(f: impl FnOnce()) -> FleetTrace {
        let ((), mut scope) = pds_obs::trace::trace("caller", f);
        assert_eq!(scope.children.len(), 1, "one stitched root");
        FleetTrace::new(scope.children.remove(0))
    }

    #[test]
    fn builder_stitches_tokens_and_hops_per_phase() {
        let pool = TokenPool::build(4, 2, |i| i).unwrap();
        let mut bus = MailboxBus::new(BusConfig::reliable(11));
        let t = traced(|| {
            let mut b = FleetTraceBuilder::new("fleet.test", 11);
            b.set("tokens", 4u64);

            let ctx = b.begin_phase("phase.collect", &bus);
            let (_, trees) = pool.map_traced(ctx, |i, _| {
                let g = pds_obs::trace::span("token.work");
                g.set("flash.page_reads", (i as u64) + 1);
            });
            for i in 0..4usize {
                bus.send_in(Addr::Token(i), Addr::Ssi, vec![i as u8], ctx);
            }
            bus.run_until_quiet(1_000);
            b.end_phase(&mut bus, trees);

            let ctx = b.begin_phase("phase.reduce.0", &bus);
            bus.send_in(Addr::Ssi, Addr::Token(0), vec![9], ctx);
            bus.run_until_quiet(1_000);
            b.end_phase(&mut bus, Vec::new());
            b.finish();
        });
        let phases = t.phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(
            phases[0]
                .children
                .iter()
                .filter(|c| c.name.starts_with("token."))
                .count(),
            4
        );
        assert_eq!(
            phases[0]
                .children
                .iter()
                .filter(|c| c.name.starts_with("hop."))
                .count(),
            4
        );
        assert_eq!(t.per_token("flash.page_reads").get(&3), Some(&4));
        let cp = t.critical_path();
        assert_eq!(cp.len(), 2);
        assert!(cp[0].msg.is_some());
        assert_eq!(
            t.total_ticks(),
            phases
                .iter()
                .map(|p| p.attr_u64("bus.ticks").unwrap())
                .sum()
        );
    }

    #[test]
    fn stitched_trace_is_identical_across_worker_counts() {
        let run = |workers: usize| {
            let pool = TokenPool::build(9, workers, |i| i).unwrap();
            let mut bus = MailboxBus::new(BusConfig {
                seed: 21,
                connectivity: 0.5,
                loss_rate: 0.1,
                dup_rate: 0.1,
                ..Default::default()
            });
            traced(|| {
                let mut b = FleetTraceBuilder::new("fleet.test", 21);
                let ctx = b.begin_phase("phase.collect", &bus);
                let (_, trees) = pool.map_traced(ctx, |i, _| {
                    let g = pds_obs::trace::span("token.work");
                    g.set("token.index", i);
                });
                for i in 0..9usize {
                    bus.send_in(Addr::Token(i), Addr::Ssi, vec![i as u8], ctx);
                }
                bus.run_until_quiet(100_000);
                b.end_phase(&mut bus, trees);
                b.finish();
            })
            .render()
        };
        let one = run(1);
        assert!(one.contains("token.8 token=8\n      token.work token.index=8\n"));
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }

    fn turn(token: u64, nth: u64) -> FinishedSpan {
        FinishedSpan {
            name: format!("token.{token}"),
            duration_ns: 1_000 + nth,
            attrs: vec![
                ("token".into(), AttrValue::U64(token)),
                ("nth".into(), AttrValue::U64(nth)),
            ],
            children: Vec::new(),
        }
    }

    #[test]
    fn a_phase_of_several_dispatches_is_regrouped_token_by_token() {
        let mut bus = MailboxBus::new(BusConfig::reliable(3));
        let t = traced(|| {
            let mut b = FleetTraceBuilder::new("fleet.test", 3);
            b.begin_phase("phase.reduce.0", &bus);
            // Two dispatches: tokens 5 and 7, then 2 and 5 again.
            let trees = vec![turn(5, 0), turn(7, 1), turn(2, 2), turn(5, 3)];
            b.end_phase(&mut bus, trees);
            b.finish();
        });
        let order: Vec<(u64, u64)> = t.phases()[0]
            .children
            .iter()
            .map(|c| (c.attr_u64("token").unwrap(), c.attr_u64("nth").unwrap()))
            .collect();
        assert_eq!(order, [(2, 2), (5, 0), (5, 3), (7, 1)]);
        assert!(t.phases()[0].children.iter().all(|c| c.duration_ns == 0));
    }

    #[test]
    fn an_off_builder_traces_nothing() {
        // Off: made with no trace scope open on the thread.
        let mut bus = MailboxBus::new(BusConfig::reliable(3));
        let mut b = FleetTraceBuilder::new("fleet.test", 3);
        b.set("tokens", 4u64);
        let ctx = b.begin_phase("phase.collect", &bus);
        assert_eq!(ctx, None, "the phase's workers and sends go untraced");
        bus.send_in(Addr::Token(0), Addr::Ssi, vec![1], ctx);
        bus.run_until_quiet(1_000);
        b.end_phase(&mut bus, Vec::new());
        assert!(bus.take_hops().is_empty());
        // Nobody asked when the run began: a scope opened since gets nothing.
        let ((), scope) = pds_obs::trace::trace("late", || b.finish());
        assert!(scope.children.is_empty());
    }
}
