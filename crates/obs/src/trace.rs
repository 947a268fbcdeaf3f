//! Hierarchical span tracing.
//!
//! A span is recorded for whoever asked for it. [`trace`] is the one
//! collection scope: it opens a root span on the calling thread's span
//! stack, runs a closure, and hands the finished tree back by value.
//! While a scope is open on the thread, every [`span`] / `span!` the
//! instrumented layers open nests under it and carries the attributes
//! they attach (I/O deltas, RAM peaks, plan choices); with no scope
//! open, [`span`] returns an inert guard — no allocation, no clock
//! read — so a request nobody is explaining pays one check per call.
//! [`QueryTrace`] renders a finished tree as the per-query "explain"
//! report the tutorial's cost claims are checked against.
//!
//! A scope lives and dies on one thread, which is exact for the
//! embedded stack (one secure MCU, one thread) and all a fleet needs
//! too: a fleet driver run inside a scope has each worker open one
//! scope per token turn and return the tree beside the turn's result,
//! stitches those trees, in token order, into one [`FleetTrace`] root
//! per protocol round and [`record`]s it into the caller's scope.
//! Nothing is shared between threads and no id names a trace, so two
//! traced runs in one process cannot meet. Stitched trees are
//! timing-stripped ([`FinishedSpan::strip_timing`]) so the assembled
//! trace is bit-identical at any worker count; causal time is measured
//! in bus ticks, not wall-clock.

use std::cell::RefCell;
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
    /// Which span of this thread this is (see [`Spans::opened`]).
    serial: u64,
    name: String,
    start: Instant,
    attrs: Vec<(String, AttrValue)>,
    children: Vec<FinishedSpan>,
}

/// A completed span with its completed children.
#[derive(Debug, Clone, Default)]
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

    /// One indented line per span, depth first; `durations` says whether
    /// a line carries its wall-clock (`QueryTrace`) or not (`FleetTrace`,
    /// whose time is bus ticks).
    fn render_into(&self, out: &mut String, depth: usize, durations: bool) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.name);
        if durations {
            out.push_str(&format!(" [{:.3} ms]", self.duration_ns as f64 / 1e6));
        }
        for (k, v) in &self.attrs {
            match v {
                AttrValue::U64(n) => out.push_str(&format!(" {k}={n}")),
                AttrValue::F64(f) => out.push_str(&format!(" {k}={f:.3}")),
                AttrValue::Str(s) => out.push_str(&format!(" {k}={s}")),
            }
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(out, depth + 1, durations);
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

/// The calling thread's open spans, outermost first. Empty: no scope is
/// open and nothing is recorded.
struct Spans {
    open: Vec<ActiveSpan>,
    /// Spans opened on this thread so far. A guard keeps its span's
    /// number beside its depth, so a guard that outlived its span never
    /// takes a later span at the same depth for its own. The number
    /// never leaves the thread or reaches a tree.
    opened: u64,
}

thread_local! {
    static SPANS: RefCell<Spans> = const {
        RefCell::new(Spans {
            open: Vec::new(),
            opened: 0,
        })
    };
}

impl Spans {
    fn push(&mut self, name: &str) -> SpanGuard {
        self.opened += 1;
        self.open.push(ActiveSpan {
            serial: self.opened,
            name: name.to_string(),
            start: Instant::now(),
            attrs: Vec::new(),
            children: Vec::new(),
        });
        SpanGuard {
            at: Some((self.open.len() - 1, self.opened)),
        }
    }

    /// The guard's span, while it is still open.
    fn span_of(&mut self, guard: &SpanGuard) -> Option<&mut ActiveSpan> {
        let (depth, serial) = guard.at?;
        self.open.get_mut(depth).filter(|sp| sp.serial == serial)
    }

    /// Finish the guard's span and return its tree. Spans still open
    /// above it (their guards leaked past an early return, or dropped out
    /// of order) are finished first, each into the one below, so the
    /// tree never corrupts. `None` when the span is no longer open.
    fn close(&mut self, guard: &SpanGuard) -> Option<FinishedSpan> {
        let (depth, _) = guard.at?;
        self.span_of(guard)?;
        let mut tree: Option<FinishedSpan> = None;
        for active in self.open.drain(depth..).rev() {
            let mut finished = FinishedSpan {
                name: active.name,
                duration_ns: active.start.elapsed().as_nanos() as u64,
                attrs: active.attrs,
                children: active.children,
            };
            finished.children.extend(tree);
            tree = Some(finished);
        }
        tree
    }
}

/// Identity of the fleet trace a piece of work belongs to: which trace,
/// and which phase of it is the causal parent. Carried in every traced
/// `MailboxBus` envelope and hop record, and handed to the fleet
/// runtimes to say that a phase is traced. It routes nothing: spans
/// reach their trace by being returned, never by being looked up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceContext {
    /// Fleet-trace id (the run seed, stable across runs).
    pub trace_id: u64,
    /// Span id of the causal parent (the fleet driver's phase span).
    pub parent_span: u64,
}

/// RAII guard for one span. Dropping the guard finishes the span; if
/// inner guards are still alive (an early return skipped them) they are
/// folded into this span first, so the tree never corrupts.
pub struct SpanGuard {
    /// `(depth on the thread's stack, serial)` of the span; `None` for a
    /// span opened outside any scope — inert, every call returns at once.
    at: Option<(usize, u64)>,
}

/// Open a span as a child of the innermost open span. With no [`trace`]
/// scope open on this thread the guard is inert: nothing is recorded.
pub fn span(name: &str) -> SpanGuard {
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        if s.open.is_empty() {
            return SpanGuard { at: None };
        }
        s.push(name)
    })
}

impl SpanGuard {
    /// Set (or overwrite) an attribute on this span.
    pub fn set(&self, key: &str, value: impl Into<AttrValue>) {
        if self.at.is_none() {
            return;
        }
        let value = value.into();
        SPANS.with(|s| {
            if let Some(sp) = s.borrow_mut().span_of(self) {
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
        if self.at.is_none() {
            return;
        }
        SPANS.with(|s| {
            if let Some(sp) = s.borrow_mut().span_of(self) {
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
        if self.at.is_none() {
            return;
        }
        // An unwound scope's root has no parent left: `record` drops it.
        if let Some(tree) = SPANS.with(|s| s.borrow_mut().close(self)) {
            record(tree);
        }
    }
}

/// Whether a [`trace`] scope is open on this thread: whether anything
/// recorded here reaches a caller.
pub fn scope_open() -> bool {
    SPANS.with(|s| !s.borrow().open.is_empty())
}

/// Record a finished tree as a child of the innermost open span of this
/// thread; with no scope open it goes nowhere.
pub fn record(tree: FinishedSpan) {
    SPANS.with(|s| {
        if let Some(parent) = s.borrow_mut().open.last_mut() {
            parent.children.push(tree);
        }
    });
}

/// Run `f` inside a collection scope rooted at a span named `name` and
/// return its result together with the finished span tree — every span
/// opened on this thread while `f` ran. Opened inside another scope, the
/// tree is also recorded there, as a child of the innermost open span.
pub fn trace<T>(name: &str, f: impl FnOnce() -> T) -> (T, FinishedSpan) {
    // Held across `f` so that an unwind closes the scope too.
    let root = SPANS.with(|s| s.borrow_mut().push(name));
    let out = f();
    // The root is gone only if `f` dropped the guard of a span enclosing
    // this scope, closing the scope from outside.
    let tree = SPANS
        .with(|s| s.borrow_mut().close(&root))
        .unwrap_or_default();
    if scope_open() {
        record(tree.clone());
    }
    (out, tree)
}

/// Run `f` with this thread's open spans set aside: whatever `f` opens
/// is inert, and the scope resumes as it was when `f` returns (or
/// unwinds). A fleet turn builds or revives its token in here, so the
/// scheduler's work never lands in the token's trace.
pub fn untraced<T>(f: impl FnOnce() -> T) -> T {
    struct Resume(Vec<ActiveSpan>);
    impl Drop for Resume {
        fn drop(&mut self) {
            let open = std::mem::take(&mut self.0);
            SPANS.with(|s| s.borrow_mut().open = open);
        }
    }
    let _resume = Resume(SPANS.with(|s| std::mem::take(&mut s.borrow_mut().open)));
    f()
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
        self.root.render_into(&mut out, 0, true);
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

    /// Deterministic human-readable report: the stitched tree (no
    /// wall-clock anywhere), then the critical path in bus ticks.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.root.render_into(&mut out, 0, false);
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

    fn open_spans() -> usize {
        SPANS.with(|s| s.borrow().open.len())
    }

    #[test]
    fn spans_nest_under_the_scope_that_asked() {
        let (_, root) = trace("pds.select", || {
            let root = span("pds.request");
            root.set("db.table", "EMAIL");
            {
                let child = span("db.select");
                child.set("flash.page_reads", 17u64);
                child.add("db.rows", 2);
                child.add("db.rows", 3);
            }
            {
                let child = span("db.filter");
                child.set("flash.page_reads", 3u64);
            }
        });
        assert_eq!(root.name, "pds.select");
        let request = &root.children[0];
        assert_eq!(request.children.len(), 2);
        assert_eq!(root.total("flash.page_reads"), 20, "summed from children");
        assert_eq!(request.attr("db.table").unwrap().as_str(), Some("EMAIL"));
        assert_eq!(request.children[0].attr_u64("db.rows"), Some(5));
        assert_eq!(open_spans(), 0);
    }

    #[test]
    fn parent_attr_wins_over_child_sum() {
        let (_, root) = trace("t", || {
            let root = span("r");
            root.set("x", 100u64);
            {
                let c = span("c");
                c.set("x", 1u64);
            }
        });
        assert_eq!(root.total("x"), 100);
    }

    #[test]
    fn leaked_inner_guards_fold_into_parent() {
        let (_, root) = trace("t", || {
            let _outer = span("outer");
            let inner = span("inner");
            inner.set("k", 1u64);
            // inner dropped after outer by declaration order — Drop folds it.
        });
        let outer = &root.children[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].name, "inner");
        assert_eq!(outer.children[0].attr_u64("k"), Some(1));
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
        assert_eq!(open_spans(), 0, "trace took its root with it");
    }

    #[test]
    fn untraced_work_stays_out_of_the_scope_it_interrupts() {
        let (n, root) = trace("token.3", || {
            let turn = span("turn");
            let n = untraced(|| {
                let boot = span("host.wake");
                boot.set("recovery.pages", 9u64);
                let _inner = trace("inner", || span("inner.step")).1;
                assert_eq!(open_spans(), 0, "nothing is open in here");
                7
            });
            turn.set("after", 1u64);
            n
        });
        assert_eq!(n, 7);
        assert_eq!(root.children.len(), 1, "{}", root.to_json());
        assert_eq!(root.children[0].name, "turn");
        assert!(root.children[0].children.is_empty());
        assert_eq!(root.children[0].attr_u64("after"), Some(1));
        assert_eq!(open_spans(), 0);
    }

    #[test]
    fn spans_outside_a_scope_record_nothing() {
        for i in 0..10_000u64 {
            let s = span("nobody.asked");
            s.set("i", i);
            s.add("n", 1);
            let _inner = span("nobody.asked.inner");
        }
        assert_eq!(open_spans(), 0);
        let (_, t) = trace("t", || ());
        assert!(t.children.is_empty() && t.attrs.is_empty());
        assert_eq!(open_spans(), 0);
    }

    #[test]
    fn a_recorded_tree_lands_in_the_innermost_open_span_or_nowhere() {
        let tree = |name: &str| FinishedSpan {
            name: name.into(),
            ..FinishedSpan::default()
        };
        assert!(!scope_open());
        record(tree("nobody.asked"));
        let (_, root) = trace("caller", || {
            assert!(scope_open());
            let _inner = span("inner");
            record(tree("fleet.agg"));
        });
        assert!(!scope_open());
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].name, "inner");
        assert_eq!(root.children[0].children[0].name, "fleet.agg");
        assert_eq!(open_spans(), 0);
    }

    #[test]
    fn an_inert_guard_outliving_a_later_scope_touches_nothing() {
        let inert = span("outside");
        let (_, t) = trace("t", || {
            let a = span("a");
            inert.set("k", 1u64);
            inert.add("n", 1);
            drop(inert); // must not close `a`
            let _b = span("b");
            a.set("mine", 7u64);
        });
        assert!(t.attrs.is_empty());
        assert_eq!(t.children.len(), 1);
        let a = &t.children[0];
        assert_eq!((a.name.as_str(), a.attrs.len()), ("a", 1));
        assert_eq!(a.attr_u64("mine"), Some(7));
        assert_eq!(a.children[0].name, "b", "`a` was still open for `b`");
        assert_eq!(open_spans(), 0);
    }

    #[test]
    fn a_live_guard_leaked_past_its_scope_closes_nothing_later() {
        let (leaked, first) = trace("first", || span("leak"));
        assert_eq!(
            first.children[0].name, "leak",
            "folded when its scope closed"
        );
        assert_eq!(open_spans(), 0);
        let (_, second) = trace("second", || {
            let a = span("a"); // sits where `leak` sat
            leaked.set("late", 1u64);
            leaked.add("late", 1);
            drop(leaked); // must not close `a`
            let _b = span("b");
            a.set("mine", 7u64);
        });
        assert_eq!(second.children.len(), 1);
        let a = &second.children[0];
        assert_eq!((a.name.as_str(), a.attrs.len()), ("a", 1));
        assert_eq!(a.children[0].name, "b", "`a` was still open for `b`");
        assert_eq!(open_spans(), 0);
    }

    #[test]
    fn a_nested_scope_returns_its_subtree_and_the_outer_tree_keeps_it() {
        let ((inner_val, inner), outer) = trace("outer", || {
            let _req = span("pds.request");
            trace("inner", || {
                let s = span("db.select");
                s.set("flash.page_reads", 4u64);
                9
            })
        });
        assert_eq!(inner_val, 9);
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.total("flash.page_reads"), 4);
        let kept = outer.children[0]
            .find("inner")
            .expect("recorded under the open span");
        assert_eq!(kept.to_json(), inner.to_json(), "the same tree, copied");
        assert_eq!(kept.children[0].name, "db.select");
        assert_eq!(open_spans(), 0);
    }

    #[test]
    fn an_unwinding_scope_is_closed_too() {
        let caught = std::panic::catch_unwind(|| {
            trace("doomed", || {
                let _s = span("step");
                panic!("the traced work failed");
            })
        });
        assert!(caught.is_err());
        assert_eq!(open_spans(), 0, "nothing left recording for nobody");
        let (_, t) = trace("t", || ());
        assert!(t.children.is_empty());
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
}
