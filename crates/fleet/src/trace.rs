//! The fleet-trace stitcher: per-phase assembly of one causal tree.
//!
//! A fleet protocol round is phased: the driver opens a phase, workers
//! produce per-token span trees under a shared [`TraceContext`], the bus
//! records per-message [`HopRecord`]s, and the barrier guarantees that
//! by the time the driver closes the phase everything has been flushed.
//! [`FleetTraceBuilder`] turns that stream into the [`FleetTrace`]
//! conventions (`phase.*` → `token.N` + `hop.N` children):
//!
//! * per-token spans are sorted by their `token` attribute and
//!   timing-stripped — worker count and scheduling are unobservable;
//! * hop spans are sorted by message id and carry the full
//!   send → (re)delivery history (`send_tick`, `deliver_tick`,
//!   `attempts`, `redeliveries`, `expired`), so backoff and duplicate
//!   re-deliveries are visible per hop;
//! * phase spans carry `bus.tick.start` / `bus.tick.end` / `bus.ticks`,
//!   the causal clock of the round.
//!
//! Trace ids are routing keys into the process-wide sink, not part of
//! the trace: they come from a process-global counter so concurrent
//! traced runs (e.g. parallel tests) never interleave, while the
//! stitched tree itself stays a pure function of the seed.

use std::sync::atomic::{AtomicU64, Ordering};

use pds_obs::trace::{drain_trace, flush_contributions};
use pds_obs::{AttrValue, FinishedSpan, FleetTrace, TraceContext};

use crate::bus::{HopRecord, MailboxBus};

/// Process-unique trace ids (0 is reserved / never issued).
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Open token (or cell) `i`'s phase-work span — only when the worker is
/// inside a traced phase, so untraced runs pay nothing. Instrumented
/// layers the closure calls into (flash IO counters, RAM high-water)
/// attach their spans underneath it.
pub(crate) fn token_span(i: usize) -> Option<pds_obs::SpanGuard> {
    pds_obs::trace::context().is_some().then(|| {
        let g = pds_obs::trace::span(&format!("token.{i}"));
        g.set("token", i);
        g
    })
}

struct OpenPhase {
    name: String,
    id: u64,
    tick_start: u64,
}

/// Builds one [`FleetTrace`] phase by phase, driven by the (single
/// threaded) fleet driver between barriers.
pub struct FleetTraceBuilder {
    trace_id: u64,
    root: FinishedSpan,
    next_phase: u64,
    open: Option<OpenPhase>,
}

impl FleetTraceBuilder {
    /// Start a trace rooted at a span named `name` (e.g. `fleet.agg`).
    pub fn new(name: &str) -> Self {
        FleetTraceBuilder {
            trace_id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
            root: FinishedSpan {
                name: name.to_string(),
                duration_ns: 0,
                attrs: Vec::new(),
                children: Vec::new(),
            },
            next_phase: 0,
            open: None,
        }
    }

    /// Set a root attribute (fleet shape, seed, verdicts…).
    pub fn set(&mut self, key: &str, value: impl Into<AttrValue>) {
        self.root.attrs.push((key.to_string(), value.into()));
    }

    /// Open the next phase and return the context workers and bus sends
    /// must carry. Exactly one phase can be open at a time.
    pub fn begin_phase(&mut self, name: &str, bus: &MailboxBus) -> TraceContext {
        assert!(self.open.is_none(), "previous phase still open");
        self.next_phase += 1;
        let id = self.next_phase;
        self.open = Some(OpenPhase {
            name: name.to_string(),
            id,
            tick_start: bus.now(),
        });
        TraceContext {
            trace_id: self.trace_id,
            parent_span: id,
        }
    }

    /// Close the open phase: drain the span sink and the bus hop log,
    /// stitch them into one `phase.*` span. Must run after the phase's
    /// barrier (so every worker has flushed) and after the bus drained.
    pub fn end_phase(&mut self, bus: &mut MailboxBus) {
        let open = self.open.take().expect("no phase open");
        // The driver thread may have contributed spans of its own.
        flush_contributions();
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
        let mut tokens: Vec<FinishedSpan> = drain_trace(self.trace_id)
            .into_iter()
            .filter(|(parent, _)| *parent == open.id)
            .map(|(_, mut s)| {
                s.strip_timing();
                s
            })
            .collect();
        // Sink arrival order depends on worker scheduling; the token
        // attribute (and name, for driver-side spans) does not.
        tokens.sort_by(|a, b| (a.attr_u64("token"), &a.name).cmp(&(b.attr_u64("token"), &b.name)));
        phase.children.extend(tokens);
        for h in bus.take_hops() {
            debug_assert_eq!(h.ctx.trace_id, self.trace_id, "phases are barriers");
            phase.children.push(hop_span(&h));
        }
        self.root.children.push(phase);
    }

    /// Finish the trace. Panics if a phase is still open.
    pub fn finish(self) -> FleetTrace {
        assert!(self.open.is_none(), "phase still open");
        FleetTrace::new(self.root)
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
    use crate::pool::TokenPool;

    #[test]
    fn builder_stitches_tokens_and_hops_per_phase() {
        let pool = TokenPool::build(4, 2, |i| i).unwrap();
        let mut bus = MailboxBus::new(BusConfig::reliable(11));
        let mut b = FleetTraceBuilder::new("fleet.test");
        b.set("tokens", 4u64);

        let ctx = b.begin_phase("phase.collect", &bus);
        pool.map_in_trace(Some(ctx), |i, _| {
            let g = pds_obs::trace::span("token.work");
            g.set("token", i);
            g.set("flash.page_reads", (i as u64) + 1);
        });
        for i in 0..4usize {
            bus.send_in(Addr::Token(i), Addr::Ssi, vec![i as u8], Some(ctx));
        }
        bus.run_until_quiet(1_000);
        b.end_phase(&mut bus);

        let ctx = b.begin_phase("phase.reduce.0", &bus);
        bus.send_in(Addr::Ssi, Addr::Token(0), vec![9], Some(ctx));
        bus.run_until_quiet(1_000);
        b.end_phase(&mut bus);

        let t = b.finish();
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
            let mut b = FleetTraceBuilder::new("fleet.test");
            let ctx = b.begin_phase("phase.collect", &bus);
            pool.map_in_trace(Some(ctx), |i, _| {
                let g = pds_obs::trace::span("token.work");
                g.set("token", i);
            });
            for i in 0..9usize {
                bus.send_in(Addr::Token(i), Addr::Ssi, vec![i as u8], Some(ctx));
            }
            bus.run_until_quiet(100_000);
            b.end_phase(&mut bus);
            b.finish().render()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }
}
