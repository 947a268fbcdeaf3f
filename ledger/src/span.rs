//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer's public functions (choosing-metrics §4).
//!
//! A [`Tracer`] that is off runs the closure and records nothing, so
//! the end-to-end run and the traced run execute the same workload
//! code; the difference between the two is the tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// Request identifier shared by the spans of one op.
    pub op: u32,
    /// Layer called into (`core`, `db`, `fleet`, …; `ledger` for the
    /// benchmark's own glue around an op).
    pub layer: &'static str,
    /// Function or probe name within the layer.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// False when the wrapped call returned an error.
    pub ok: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Start the next op: spans recorded from here share its identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, layer: &'static str, name: &'static str) {
        let idx = self.spans.len();
        let start = self.now_ns();
        self.spans.push(Span {
            id: idx as u32,
            parent: self.open.last().map(|p| *p as u32),
            op: self.op,
            layer,
            name,
            start_ns: start,
            end_ns: start,
            ok: true,
        });
        self.open.push(idx);
    }

    fn end(&mut self, ok: bool) {
        let end = self.now_ns();
        let idx = self.open.pop().expect("end() pairs with begin()");
        self.spans[idx].end_ns = end;
        self.spans[idx].ok = ok;
    }

    fn record<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
        ok: impl FnOnce(&T) -> bool,
    ) -> T {
        if !self.on {
            return f(self);
        }
        self.begin(layer, name);
        let out = f(self);
        self.end(ok(&out));
        out
    }

    /// Span around a fallible region that makes further traced calls:
    /// the closure gets the tracer back, and spans it records nest under
    /// this one. An `Err` marks the span failed.
    pub fn scope<T, E>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> Result<T, E>,
    ) -> Result<T, E> {
        self.record(layer, name, f, Result::is_ok)
    }

    /// [`Tracer::scope`] for a region that cannot fail.
    pub fn scope_ok<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.record(layer, name, f, |_| true)
    }

    /// Span around one fallible call into a layer.
    pub fn call<T, E>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        self.scope(layer, name, |_| f())
    }

    /// Span around one call into a layer that cannot fail.
    pub fn call_ok<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        self.scope_ok(layer, name, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            s.duration_ns() - covered_ns(kids, s.start_ns, s.end_ns)
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for (a, b) in intervals {
        let a = a.max(cursor);
        let b = b.min(hi);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

/// One row of the layer table: every span of one `(layer, name)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub layer: &'static str,
    pub name: &'static str,
    pub count: u64,
    pub failures: u64,
    /// Sum of self times.
    pub busy_ns: u64,
    /// Span durations, for medians.
    pub durations_ns: Vec<u64>,
}

/// Group spans by `(layer, name)`, busiest first.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let selfs = self_times_ns(spans);
    let mut rows: BTreeMap<(&'static str, &'static str), LayerRow> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let row = rows.entry((s.layer, s.name)).or_insert(LayerRow {
            layer: s.layer,
            name: s.name,
            count: 0,
            failures: 0,
            busy_ns: 0,
            durations_ns: Vec::new(),
        });
        row.count += 1;
        row.failures += u64::from(!s.ok);
        row.busy_ns += self_ns;
        row.durations_ns.push(s.duration_ns());
    }
    let mut rows: Vec<LayerRow> = rows.into_values().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.busy_ns));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            layer,
            name: "f",
            start_ns: start,
            end_ns: end,
            ok: true,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // Parent 0..100 with children 10..30 and 50..90: 40 left.
        let spans = vec![
            span(0, None, "ledger", 0, 100),
            span(1, Some(0), "core", 10, 30),
            span(2, Some(0), "core", 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span(0, None, "ledger", 0, 100),
            span(1, Some(0), "core", 10, 60),
            span(2, Some(0), "core", 40, 80),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn grandchildren_do_not_shrink_the_grandparent_twice() {
        let spans = vec![
            span(0, None, "ledger", 0, 100),
            span(1, Some(0), "core", 20, 80),
            span(2, Some(1), "db", 30, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 40, 20]);
    }

    #[test]
    fn tracer_nests_counts_failures_and_tags_ops() {
        let mut t = Tracer::on();
        t.next_op();
        let r: Result<(), ()> = t.scope("ledger", "op", |t| {
            let r: Result<u8, ()> = t.call("core", "select", || Ok(1));
            assert_eq!(r, Ok(1));
            let r: Result<u8, ()> = t.call("core", "select", || Err(()));
            assert!(r.is_err());
            Ok(())
        });
        assert!(r.is_ok());
        t.next_op();
        assert_eq!(t.call_ok("db", "probe", || 7), 7);

        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!((spans[0].op, spans[3].op), (1, 2));
        assert!(spans[0].end_ns >= spans[2].end_ns);

        let rows = layer_table(spans);
        let select = rows.iter().find(|r| r.name == "select").unwrap();
        assert_eq!((select.count, select.failures), (2, 1));
    }

    #[test]
    fn a_failed_scope_is_a_failed_span() {
        let mut t = Tracer::on();
        let r: Result<(), u8> = t.scope("ledger", "op", |_| Err(3));
        assert_eq!(r, Err(3));
        assert!(!t.spans()[0].ok);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        let r: Result<u8, ()> = t.scope("ledger", "op", |t| Ok(t.call_ok("core", "x", || 3)));
        assert_eq!(r, Ok(3));
        assert!(t.spans().is_empty());
    }
}
