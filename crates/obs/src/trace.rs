//! Hierarchical span tracing.
//!
//! A [`SpanGuard`] marks a region of work; guards nest into a per-thread
//! stack, and when a root span finishes its whole tree is moved into a
//! small ring of recently finished traces. Instrumented layers attach
//! attributes (I/O deltas, RAM peaks, plan choices) to the current span;
//! [`QueryTrace`] then renders a finished tree as the per-query "explain"
//! report the tutorial's cost claims are checked against.
//!
//! The embedded stack is single-threaded (one secure MCU), so the
//! thread-local path is exact, not approximate — and it is kept intact.
//! For *fleet* runs, where one causal protocol round spans many worker
//! threads, a second collection path exists: a thread that sets a
//! [`TraceContext`] (trace id + parent span id) has its finished root
//! spans routed into a per-worker buffer, drained into a process-wide
//! sink keyed by trace id. The fleet driver then stitches the per-token
//! trees into one [`FleetTrace`] per aggregation/sync round. Stitched
//! trees are timing-stripped ([`FinishedSpan::strip_timing`]) so the
//! assembled trace is bit-identical at any worker count; causal time is
//! measured in bus ticks, not wall-clock.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::{write_f64, write_str};

/// A span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (counts, bytes, pages).
    U64(u64),
    /// Float (ratios, scores).
    F64(f64),
    /// Short label (plan names, decisions).
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl AttrValue {
    /// Integer content, if any.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            AttrValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// String content, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct ActiveSpan {
    name: String,
    start: Instant,
    attrs: Vec<(String, AttrValue)>,
    children: Vec<FinishedSpan>,
}

/// A completed span with its completed children.
#[derive(Debug, Clone)]
pub struct FinishedSpan {
    /// Span name (`layer.operation`, e.g. `db.select`).
    pub name: String,
    /// Wall-clock duration.
    pub duration_ns: u64,
    /// Attributes set while the span was active.
    pub attrs: Vec<(String, AttrValue)>,
    /// Completed child spans, in completion order.
    pub children: Vec<FinishedSpan>,
}

impl FinishedSpan {
    /// The attribute `key` on this span, if set.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Integer attribute shorthand.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        self.attr(key).and_then(AttrValue::as_u64)
    }

    /// The first descendant span (depth-first, self included) named `name`.
    pub fn find(&self, name: &str) -> Option<&FinishedSpan> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Total of integer attribute `key` over the tree: this span's value
    /// if it carries the attribute (a span's value is the delta over its
    /// whole subtree), otherwise the sum of its children's totals.
    pub fn total(&self, key: &str) -> u64 {
        if let Some(v) = self.attr_u64(key) {
            return v;
        }
        self.children.iter().map(|c| c.total(key)).sum()
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.name);
        out.push_str(&format!(" [{:.3} ms]", self.duration_ns as f64 / 1e6));
        for (k, v) in &self.attrs {
            match v {
                AttrValue::U64(n) => out.push_str(&format!(" {k}={n}")),
                AttrValue::F64(f) => out.push_str(&format!(" {k}={f:.3}")),
                AttrValue::Str(s) => out.push_str(&format!(" {k}={s}")),
            }
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }

    /// Serialize the tree as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Zero every wall-clock duration in the tree, recursively. Stitched
    /// fleet traces are assembled from spans produced on arbitrary worker
    /// threads; stripping timing makes the assembled tree a pure function
    /// of the seed (causal time lives in `bus.*` tick attributes instead).
    pub fn strip_timing(&mut self) {
        self.duration_ns = 0;
        for c in &mut self.children {
            c.strip_timing();
        }
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"span\":");
        write_str(out, &self.name);
        out.push_str(&format!(",\"duration_ns\":{}", self.duration_ns));
        for (k, v) in &self.attrs {
            out.push(',');
            write_str(out, k);
            out.push(':');
            match v {
                AttrValue::U64(n) => out.push_str(&n.to_string()),
                AttrValue::F64(f) => write_f64(out, *f),
                AttrValue::Str(s) => write_str(out, s),
            }
        }
        if !self.children.is_empty() {
            out.push_str(",\"children\":[");
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                c.write_json(out);
            }
            out.push(']');
        }
        out.push('}');
    }
}

const ROOT_RING_CAP: usize = 16;

/// Per-worker contribution buffers flush to the shared sink once they
/// hold this many spans (and always at [`flush_contributions`]).
const CONTRIB_BUF_CAP: usize = 32;

thread_local! {
    static STACK: RefCell<Vec<ActiveSpan>> = const { RefCell::new(Vec::new()) };
    static ROOTS: RefCell<VecDeque<FinishedSpan>> = const { RefCell::new(VecDeque::new()) };
    static CONTEXT: Cell<Option<TraceContext>> = const { Cell::new(None) };
    static CONTRIB: RefCell<Vec<(TraceContext, FinishedSpan)>> = const { RefCell::new(Vec::new()) };
}

/// Identity of the distributed trace a piece of work belongs to: which
/// fleet trace, and which span of it is the causal parent. Carried in
/// every `MailboxBus` envelope and set by `TokenPool` workers for the
/// duration of a phase job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceContext {
    /// Fleet-trace id (derived from the run seed, stable across runs).
    pub trace_id: u64,
    /// Span id of the causal parent (the fleet driver's phase span).
    pub parent_span: u64,
}

/// Contributed spans of one trace: `(parent span id, finished root)`.
type TraceSink = BTreeMap<u64, Vec<(u64, FinishedSpan)>>;

/// The process-wide sink of contributed spans: trace id → every
/// `(parent span id, finished root)` any worker produced under that
/// trace's context. Drained by the fleet driver at phase barriers.
fn sink() -> &'static Mutex<TraceSink> {
    static SINK: OnceLock<Mutex<TraceSink>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Set (or clear) this thread's distributed-trace context. While a
/// context is set, finished *root* spans are contributed to the shared
/// sink instead of the thread-local ring — the single-MCU embedded path
/// (no context) is untouched.
pub fn set_context(ctx: Option<TraceContext>) {
    CONTEXT.with(|c| c.set(ctx));
}

/// This thread's distributed-trace context, if any.
pub fn context() -> Option<TraceContext> {
    CONTEXT.with(Cell::get)
}

/// Drain this thread's contribution buffer into the shared sink. Worker
/// threads call this at the end of each phase job, so by the time the
/// phase barrier releases the driver, every span is visible.
pub fn flush_contributions() {
    let batch: Vec<(TraceContext, FinishedSpan)> =
        CONTRIB.with(|b| std::mem::take(&mut *b.borrow_mut()));
    if batch.is_empty() {
        return;
    }
    let mut sink = sink()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for (ctx, span) in batch {
        sink.entry(ctx.trace_id)
            .or_default()
            .push((ctx.parent_span, span));
    }
}

/// Remove and return everything contributed under `trace_id`, as
/// `(parent span id, span)` pairs in arbitrary arrival order — the
/// stitcher must sort by a deterministic key (parent span id plus a
/// caller-set attribute like `token`), never by arrival.
pub fn drain_trace(trace_id: u64) -> Vec<(u64, FinishedSpan)> {
    sink()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .remove(&trace_id)
        .unwrap_or_default()
}

/// RAII guard for one span. Dropping the guard finishes the span; if
/// inner guards are still alive (an early return skipped them) they are
/// folded into this span first, so the tree never corrupts.
pub struct SpanGuard {
    depth: usize,
}

/// Open a span as a child of the innermost active span.
pub fn span(name: &str) -> SpanGuard {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(ActiveSpan {
            name: name.to_string(),
            start: Instant::now(),
            attrs: Vec::new(),
            children: Vec::new(),
        });
        SpanGuard { depth: s.len() - 1 }
    })
}

impl SpanGuard {
    /// Set (or overwrite) an attribute on this span.
    pub fn set(&self, key: &str, value: impl Into<AttrValue>) {
        let value = value.into();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(sp) = s.get_mut(self.depth) {
                if let Some(slot) = sp.attrs.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    sp.attrs.push((key.to_string(), value));
                }
            }
        });
    }

    /// Add to an integer attribute (missing counts as 0).
    pub fn add(&self, key: &str, delta: u64) {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(sp) = s.get_mut(self.depth) {
                if let Some((_, AttrValue::U64(v))) = sp.attrs.iter_mut().find(|(k, _)| k == key) {
                    *v += delta;
                } else {
                    sp.attrs.push((key.to_string(), AttrValue::U64(delta)));
                }
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Fold any still-open inner spans (leaked by early return or
            // guard reordering), then this one.
            while s.len() > self.depth {
                let active = s.pop().expect("len checked");
                let finished = FinishedSpan {
                    name: active.name,
                    duration_ns: active.start.elapsed().as_nanos() as u64,
                    attrs: active.attrs,
                    children: active.children,
                };
                if let Some(parent) = s.last_mut() {
                    parent.children.push(finished);
                } else if let Some(ctx) = context() {
                    // Flush *before* pushing so the freshest root is
                    // always still in the local buffer (trace() relies
                    // on that to hand the span back to its caller).
                    if CONTRIB.with(|b| b.borrow().len() + 1 >= CONTRIB_BUF_CAP) {
                        flush_contributions();
                    }
                    CONTRIB.with(|b| b.borrow_mut().push((ctx, finished)));
                } else {
                    ROOTS.with(|r| {
                        let mut r = r.borrow_mut();
                        if r.len() == ROOT_RING_CAP {
                            r.pop_front();
                        }
                        r.push_back(finished);
                    });
                }
            }
        });
    }
}

/// Remove and return the most recently finished root span of this thread.
pub fn take_last_root() -> Option<FinishedSpan> {
    ROOTS.with(|r| r.borrow_mut().pop_back())
}

/// Run `f` under a root-or-child span named `name` and return its result
/// together with the finished span tree. Only exact when `name` opens at
/// the top level of the thread's stack; otherwise the span is recorded in
/// its parent and a clone is returned.
pub fn trace<T>(name: &str, f: impl FnOnce() -> T) -> (T, FinishedSpan) {
    let was_root = STACK.with(|s| s.borrow().is_empty());
    let guard = span(name);
    let out = f();
    drop(guard);
    // Each arm re-reads the span the dropped guard just deposited. If
    // another thread corrupted the shared state that deposit is absent;
    // degrade to an empty span of the right name — tracing must never
    // take the engine down with it.
    let fallback = || FinishedSpan {
        name: name.to_string(),
        duration_ns: 0,
        attrs: Vec::new(),
        children: Vec::new(),
    };
    let finished = if was_root {
        if context().is_some() {
            // The root was contributed to the distributed sink; hand the
            // caller a clone without un-contributing it.
            CONTRIB
                .with(|b| b.borrow().last().map(|(_, s)| s.clone()))
                .unwrap_or_else(fallback)
        } else {
            take_last_root().unwrap_or_else(fallback)
        }
    } else {
        STACK.with(|s| {
            s.borrow()
                .last()
                .and_then(|p| p.children.last().cloned())
                .unwrap_or_else(fallback)
        })
    };
    (out, finished)
}

/// Outcome of checking one traced quantity against a claimed budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetCheck {
    /// Attribute name checked.
    pub name: String,
    /// Observed value.
    pub actual: u64,
    /// Claimed budget.
    pub budget: u64,
    /// `actual <= budget`.
    pub within: bool,
}

/// A finished per-query trace: the explain report of one gateway request.
///
/// Instrumented layers set the conventional attributes
/// `flash.page_reads`, `flash.page_programs`, `flash.block_erases`,
/// `mcu.ram.peak_bytes` and `policy.decision`; this wrapper names them.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// The root span of the request.
    pub root: FinishedSpan,
}

impl QueryTrace {
    /// Wrap a finished root span.
    pub fn new(root: FinishedSpan) -> Self {
        QueryTrace { root }
    }

    /// Pages read during the request.
    pub fn page_reads(&self) -> u64 {
        self.root.total("flash.page_reads")
    }

    /// Pages programmed during the request.
    pub fn page_programs(&self) -> u64 {
        self.root.total("flash.page_programs")
    }

    /// Blocks erased during the request.
    pub fn block_erases(&self) -> u64 {
        self.root.total("flash.block_erases")
    }

    /// Peak RAM bytes reserved during the request.
    pub fn peak_ram_bytes(&self) -> u64 {
        self.root.total("mcu.ram.peak_bytes")
    }

    /// Peak RAM in flash-page units (rounded up).
    pub fn peak_ram_pages(&self, page_size: u64) -> u64 {
        if page_size == 0 {
            return 0;
        }
        self.peak_ram_bytes().div_ceil(page_size)
    }

    /// The policy decision recorded by the gateway (`granted`/`denied`).
    pub fn policy_decision(&self) -> Option<&str> {
        self.root
            .find("pds.policy")
            .and_then(|s| s.attr("policy.decision"))
            .and_then(AttrValue::as_str)
    }

    /// Check traced totals against claimed budgets
    /// (`[("flash.page_reads", 17), …]`).
    pub fn check_budgets(&self, budgets: &[(&str, u64)]) -> Vec<BudgetCheck> {
        budgets
            .iter()
            .map(|(name, budget)| {
                let actual = self.root.total(name);
                BudgetCheck {
                    name: name.to_string(),
                    actual,
                    budget: *budget,
                    within: actual <= *budget,
                }
            })
            .collect()
    }

    /// Human-readable explain report: the span tree, then the headline
    /// cost totals in the tutorial's units.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.root.render_into(&mut out, 0);
        out.push_str(&format!(
            "totals: page_reads={} page_programs={} block_erases={} peak_ram_bytes={}\n",
            self.page_reads(),
            self.page_programs(),
            self.block_erases(),
            self.peak_ram_bytes(),
        ));
        out
    }

    /// The trace as one JSON line.
    pub fn to_json(&self) -> String {
        self.root.to_json()
    }
}

/// One phase's slowest delivery chain, in bus ticks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalHop {
    /// Phase span name (`phase.collect`, `phase.reduce.0`, …).
    pub phase: String,
    /// Bus ticks the phase consumed (`bus.ticks`).
    pub ticks: u64,
    /// Message id of the straggler hop (the last delivery of the phase),
    /// if the phase moved any message.
    pub msg: Option<u64>,
    /// Tick the straggler was finally delivered at.
    pub deliver_tick: u64,
    /// Transmission attempts the straggler burned across its hops.
    pub attempts: u64,
    /// Duplicate re-deliveries of the straggler absorbed by dedup.
    pub redeliveries: u64,
}

/// A stitched causal trace of one fleet protocol round: the "explain"
/// report of a distributed run, sibling of [`QueryTrace`].
///
/// Conventions (produced by the fleet stitcher): the root's children are
/// phase spans named `phase.*`, each carrying `bus.tick.start` /
/// `bus.tick.end` / `bus.ticks`. A phase's children are per-token work
/// spans named `token.N` (attribute `token`) — whose own subtrees are the
/// per-token spans the instrumented layers produced — and per-message
/// hop spans named `hop.N` (attributes `msg`, `from`, `to`, `send_tick`,
/// `deliver_tick`, `attempts`, `redeliveries`, `expired`). All timing is
/// stripped: causal time is bus ticks, so the whole tree is bit-identical
/// at any worker count.
#[derive(Debug, Clone)]
pub struct FleetTrace {
    /// The stitched root span of the round.
    pub root: FinishedSpan,
}

impl FleetTrace {
    /// Wrap a stitched root span.
    pub fn new(root: FinishedSpan) -> Self {
        FleetTrace { root }
    }

    /// The phase spans, in protocol order.
    pub fn phases(&self) -> Vec<&FinishedSpan> {
        self.root
            .children
            .iter()
            .filter(|c| c.name.starts_with("phase."))
            .collect()
    }

    /// Total bus ticks across every phase.
    pub fn total_ticks(&self) -> u64 {
        self.phases()
            .iter()
            .map(|p| p.attr_u64("bus.ticks").unwrap_or(0))
            .sum()
    }

    /// The critical path through the round: per phase, the hop whose
    /// delivery landed last (ties broken by lowest message id). The sum
    /// of phase ticks *is* the round's causal length — phases are
    /// barriers, so no work overlaps them.
    pub fn critical_path(&self) -> Vec<CriticalHop> {
        self.phases()
            .iter()
            .map(|p| {
                let mut worst: Option<&FinishedSpan> = None;
                for h in p.children.iter().filter(|c| c.name.starts_with("hop.")) {
                    if h.attr_u64("expired") == Some(1) {
                        continue;
                    }
                    let better = match worst {
                        None => true,
                        Some(w) => {
                            let (ht, wt) = (
                                h.attr_u64("deliver_tick").unwrap_or(0),
                                w.attr_u64("deliver_tick").unwrap_or(0),
                            );
                            ht > wt
                                || (ht == wt
                                    && h.attr_u64("msg").unwrap_or(u64::MAX)
                                        < w.attr_u64("msg").unwrap_or(u64::MAX))
                        }
                    };
                    if better {
                        worst = Some(h);
                    }
                }
                CriticalHop {
                    phase: p.name.clone(),
                    ticks: p.attr_u64("bus.ticks").unwrap_or(0),
                    msg: worst.and_then(|h| h.attr_u64("msg")),
                    deliver_tick: worst.and_then(|h| h.attr_u64("deliver_tick")).unwrap_or(0),
                    attempts: worst.and_then(|h| h.attr_u64("attempts")).unwrap_or(0),
                    redeliveries: worst.and_then(|h| h.attr_u64("redeliveries")).unwrap_or(0),
                }
            })
            .collect()
    }

    /// Attribute an integer cost over the round: token → summed `key`
    /// over every phase's `token.N` span (e.g. `flash.page_reads`,
    /// `mcu.ram.peak_bytes`). Tokens that carried no such cost are absent.
    pub fn per_token(&self, key: &str) -> std::collections::BTreeMap<u64, u64> {
        let mut out = std::collections::BTreeMap::new();
        for p in self.phases() {
            for t in p.children.iter().filter(|c| c.name.starts_with("token.")) {
                let Some(id) = t.attr_u64("token") else {
                    continue;
                };
                let v = t.total(key);
                if v > 0 {
                    *out.entry(id).or_insert(0) += v;
                }
            }
        }
        out
    }

    /// Same attribution restricted to one phase.
    pub fn per_token_in_phase(
        &self,
        phase: &str,
        key: &str,
    ) -> std::collections::BTreeMap<u64, u64> {
        let mut out = std::collections::BTreeMap::new();
        for p in self.phases().into_iter().filter(|p| p.name == phase) {
            for t in p.children.iter().filter(|c| c.name.starts_with("token.")) {
                if let Some(id) = t.attr_u64("token") {
                    out.insert(id, t.total(key));
                }
            }
        }
        out
    }

    fn render_span(out: &mut String, s: &FinishedSpan, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&s.name);
        for (k, v) in &s.attrs {
            match v {
                AttrValue::U64(n) => out.push_str(&format!(" {k}={n}")),
                AttrValue::F64(f) => out.push_str(&format!(" {k}={f:.3}")),
                AttrValue::Str(t) => out.push_str(&format!(" {k}={t}")),
            }
        }
        out.push('\n');
        for c in &s.children {
            Self::render_span(out, c, depth + 1);
        }
    }

    /// Deterministic human-readable report: the stitched tree (no
    /// wall-clock anywhere), then the critical path in bus ticks.
    pub fn render(&self) -> String {
        let mut out = String::new();
        Self::render_span(&mut out, &self.root, 0);
        out.push_str("critical path:\n");
        for h in self.critical_path() {
            match h.msg {
                Some(m) => out.push_str(&format!(
                    "  {} ticks={} straggler=msg.{} deliver_tick={} attempts={} redeliveries={}\n",
                    h.phase, h.ticks, m, h.deliver_tick, h.attempts, h.redeliveries
                )),
                None => out.push_str(&format!(
                    "  {} ticks={} (no bus traffic)\n",
                    h.phase, h.ticks
                )),
            }
        }
        out.push_str(&format!("total bus ticks: {}\n", self.total_ticks()));
        out
    }

    /// The stitched trace as one JSON line (parseable by
    /// [`crate::json::parse`]).
    pub fn to_json(&self) -> String {
        self.root.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn spans_nest_and_roots_land_in_ring() {
        {
            let root = span("pds.select");
            root.set("db.table", "EMAIL");
            {
                let child = span("db.select");
                child.set("flash.page_reads", 17u64);
            }
            {
                let child = span("db.filter");
                child.set("flash.page_reads", 3u64);
            }
        }
        let root = take_last_root().expect("root finished");
        assert_eq!(root.name, "pds.select");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.total("flash.page_reads"), 20, "summed from children");
        assert_eq!(root.attr("db.table").unwrap().as_str(), Some("EMAIL"));
    }

    #[test]
    fn parent_attr_wins_over_child_sum() {
        {
            let root = span("r");
            root.set("x", 100u64);
            {
                let c = span("c");
                c.set("x", 1u64);
            }
        }
        let root = take_last_root().unwrap();
        assert_eq!(root.total("x"), 100);
    }

    #[test]
    fn leaked_inner_guards_fold_into_parent() {
        {
            let _root = span("outer");
            let inner = span("inner");
            inner.set("k", 1u64);
            // inner dropped after root by declaration order — Drop folds it.
        }
        let root = take_last_root().unwrap();
        assert_eq!(root.name, "outer");
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].name, "inner");
    }

    #[test]
    fn trace_returns_result_and_tree() {
        let (val, spn) = trace("work", || {
            let _inner = span("step");
            41 + 1
        });
        assert_eq!(val, 42);
        assert_eq!(spn.name, "work");
        assert_eq!(spn.children[0].name, "step");
        assert!(take_last_root().is_none(), "trace consumed its root");
    }

    #[test]
    fn query_trace_budgets_and_render() {
        let (_, root) = trace("pds.select", || {
            let s = span("db.select");
            s.set("flash.page_reads", 17u64);
            s.set("mcu.ram.peak_bytes", 2048u64);
        });
        let qt = QueryTrace::new(root);
        assert_eq!(qt.page_reads(), 17);
        assert_eq!(qt.peak_ram_pages(512), 4);
        let checks = qt.check_budgets(&[("flash.page_reads", 17), ("flash.page_programs", 0)]);
        assert!(checks.iter().all(|c| c.within));
        let text = qt.render();
        assert!(text.contains("db.select"));
        assert!(text.contains("page_reads=17"));
        let j = json::parse(&qt.to_json()).expect("trace json parses");
        assert_eq!(
            j.get("span").and_then(json::Json::as_str),
            Some("pds.select")
        );
    }

    #[test]
    fn context_routes_roots_to_shared_sink() {
        let ctx = TraceContext {
            trace_id: 0xC0FFEE,
            parent_span: 7,
        };
        set_context(Some(ctx));
        for i in 0..3u64 {
            let g = span("token.work");
            g.set("token", i);
            {
                let inner = span("db.select");
                inner.set("flash.page_reads", 2u64);
            }
        }
        set_context(None);
        flush_contributions();
        // The thread-local ring saw nothing; the sink got all three.
        assert!(take_last_root().is_none());
        let mut got = drain_trace(0xC0FFEE);
        assert_eq!(got.len(), 3);
        got.sort_by_key(|(p, s)| (*p, s.attr_u64("token")));
        assert_eq!(got[0].0, 7, "parent span id travels with the span");
        assert_eq!(got[2].1.total("flash.page_reads"), 2);
        assert!(drain_trace(0xC0FFEE).is_empty(), "drain removes");
    }

    #[test]
    fn trace_under_context_returns_and_contributes() {
        let ctx = TraceContext {
            trace_id: 0xBEEF01,
            parent_span: 1,
        };
        set_context(Some(ctx));
        let (v, spn) = trace("work", || 5);
        set_context(None);
        flush_contributions();
        assert_eq!(v, 5);
        assert_eq!(spn.name, "work");
        assert_eq!(drain_trace(0xBEEF01).len(), 1);
    }

    #[test]
    fn contribution_buffer_flushes_at_capacity() {
        let ctx = TraceContext {
            trace_id: 0xFADE02,
            parent_span: 0,
        };
        set_context(Some(ctx));
        for i in 0..100u64 {
            let g = span("s");
            g.set("i", i);
        }
        set_context(None);
        flush_contributions();
        assert_eq!(drain_trace(0xFADE02).len(), 100, "nothing truncated");
    }

    #[test]
    fn strip_timing_zeroes_recursively() {
        let (_, mut root) = trace("a", || {
            let _b = span("b");
        });
        root.strip_timing();
        assert_eq!(root.duration_ns, 0);
        assert_eq!(root.children[0].duration_ns, 0);
    }

    fn hop(msg: u64, deliver: u64, attempts: u64, redeliveries: u64) -> FinishedSpan {
        FinishedSpan {
            name: format!("hop.{msg}"),
            duration_ns: 0,
            attrs: vec![
                ("msg".into(), AttrValue::U64(msg)),
                ("deliver_tick".into(), AttrValue::U64(deliver)),
                ("attempts".into(), AttrValue::U64(attempts)),
                ("redeliveries".into(), AttrValue::U64(redeliveries)),
            ],
            children: Vec::new(),
        }
    }

    #[test]
    fn fleet_trace_critical_path_and_attribution() {
        let mut tok = FinishedSpan {
            name: "token.1".into(),
            duration_ns: 0,
            attrs: vec![("token".into(), AttrValue::U64(1))],
            children: Vec::new(),
        };
        tok.children.push(FinishedSpan {
            name: "db.select".into(),
            duration_ns: 0,
            attrs: vec![("flash.page_reads".into(), AttrValue::U64(9))],
            children: Vec::new(),
        });
        let phase1 = FinishedSpan {
            name: "phase.collect".into(),
            duration_ns: 0,
            attrs: vec![("bus.ticks".into(), AttrValue::U64(12))],
            children: vec![tok, hop(4, 11, 3, 1), hop(2, 11, 1, 0)],
        };
        let phase2 = FinishedSpan {
            name: "phase.reduce.0".into(),
            duration_ns: 0,
            attrs: vec![("bus.ticks".into(), AttrValue::U64(5))],
            children: vec![hop(9, 17, 1, 0)],
        };
        let ft = FleetTrace::new(FinishedSpan {
            name: "fleet.agg".into(),
            duration_ns: 0,
            attrs: Vec::new(),
            children: vec![phase1, phase2],
        });
        assert_eq!(ft.total_ticks(), 17);
        let cp = ft.critical_path();
        assert_eq!(cp.len(), 2);
        assert_eq!(cp[0].msg, Some(2), "tie on tick 11 → lowest msg id");
        assert_eq!(cp[1].deliver_tick, 17);
        assert_eq!(ft.per_token("flash.page_reads").get(&1), Some(&9));
        let text = ft.render();
        assert!(text.contains("critical path"));
        assert!(text.contains("total bus ticks: 17"));
        let j = crate::json::parse(&ft.to_json()).expect("fleet trace json parses");
        assert_eq!(
            j.get("span").and_then(crate::json::Json::as_str),
            Some("fleet.agg")
        );
    }

    #[test]
    fn root_ring_is_bounded() {
        for i in 0..40u64 {
            let s = span("r");
            s.set("i", i);
        }
        // Newest first: the ring kept the last `ROOT_RING_CAP` roots.
        let roots: Vec<FinishedSpan> = std::iter::from_fn(take_last_root).collect();
        assert_eq!(roots.len(), ROOT_RING_CAP);
        assert_eq!(roots[0].attr_u64("i"), Some(39));
    }
}
