//! Thread-safe metrics: counters, gauges and log2-bucket histograms —
//! all registered by name in a global registry and exportable as JSON
//! lines. Events are not kept here: the [`flight`](crate::flight)
//! frames are the event system, and this registry only counts the
//! frames that system had to drop.
//!
//! Hot paths hold an `Arc` to their instrument, so recording is one
//! relaxed atomic op; the registry lock is touched only at registration
//! and export time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::ObjWriter;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (also usable as a high-water mark via
/// [`Gauge::record_max`]).
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicU64,
}

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, n: u64) {
        self.v.store(n, Ordering::Relaxed);
    }

    /// Increase by `n` (e.g. bytes currently reserved).
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrease by `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        let mut cur = self.v.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .v
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Raise to `n` if `n` is larger (high-water mark).
    pub fn record_max(&self, n: u64) {
        self.v.fetch_max(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: values ≥ 2^62 land in the last bucket.
pub(crate) const HIST_BUCKETS: usize = 64;

/// The log2 bucket of `v` — the one layout [`Histogram`] and
/// [`HistDelta`](crate::delta::HistDelta) share.
pub(crate) fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// The one quantile estimator over log2 buckets: the value at rank
/// `ceil(q·count)`, placed linearly inside its bucket's `[2^(i-1), 2^i)`
/// range and never beyond `max`. `buckets` yields `(bucket, count)` in
/// bucket order; empty buckets may be left out. 0 when `count` is 0.
pub(crate) fn quantile_of(
    buckets: impl Iterator<Item = (usize, u64)>,
    count: u64,
    max: u64,
    q: f64,
) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, c) in buckets {
        if c == 0 {
            continue;
        }
        if seen.saturating_add(c) >= rank {
            let (lo, hi) = if i == 0 {
                (0u64, 1u64)
            } else {
                (1u64 << (i - 1), 1u64 << i.min(63))
            };
            let frac = (rank - seen) as f64 / c as f64;
            let est = lo as f64 + frac * (hi - lo) as f64;
            return est.min(max as f64);
        }
        seen += c;
    }
    max as f64
}

/// A histogram with power-of-two buckets: bucket `i` counts values `v`
/// with `2^(i-1) ≤ v < 2^i` (bucket 0 counts `v == 0`).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// Quantile estimate interpolated from the log2 buckets: the value at
    /// rank `ceil(q·count)`, placed linearly inside its bucket's
    /// `[2^(i-1), 2^i)` range. Exact for bucket boundaries, within one
    /// bucket's width otherwise — good enough for the order-of-magnitude
    /// latencies the repo reports. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let buckets = self.buckets.iter().map(|b| b.load(Ordering::Relaxed));
        quantile_of(buckets.enumerate(), self.count(), self.max(), q)
    }

    /// `(p50, p95, p99)` interpolated estimates.
    pub fn quantiles(&self) -> (f64, f64, f64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }

    /// Non-empty buckets as `(bucket index, count)` pairs — the lossless
    /// form a [`MetricsDelta`](crate::delta::MetricsDelta) snapshots, so
    /// merged histograms land in exactly the same buckets.
    pub fn bucket_counts(&self) -> Vec<(u8, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c != 0).then_some((i as u8, c))
            })
            .collect()
    }

    /// Non-empty buckets as `(upper_bound_exclusive, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                if c == 0 {
                    return None;
                }
                let hi = if i == 0 { 1 } else { 1u64 << i.min(63) };
                Some((hi, c))
            })
            .collect()
    }
}

/// The global metrics registry.
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    events_dropped: AtomicU64,
}

/// The instrument named `name`, created on first use. Looked up before
/// anything is allocated: hot paths fetch their counters by name on
/// every touch, and only the first touch may pay for the key `String`.
fn instrument<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut m = map
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(found) = m.get(name) {
        return found.clone();
    }
    m.entry(name.to_string()).or_default().clone()
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty, private registry. The process-wide one is [`global`];
    /// additional instances act as *shards* — per-worker or per-token
    /// telemetry scopes whose contents are snapshotted as a
    /// [`MetricsDelta`](crate::delta::MetricsDelta) and merged
    /// downstream instead of contending on one lock.
    pub fn new() -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            events_dropped: AtomicU64::new(0),
        }
    }

    /// Flight frames dropped so far from a full staging buffer
    /// ([`flight::record`](crate::flight::record) counts them on the
    /// [`global`] registry) — nonzero means the durable rings downstream
    /// hold an *incomplete* view of the event stream. Also exported as
    /// the `obs.events_dropped` counter line.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped.load(Ordering::Relaxed)
    }

    /// Count one dropped flight frame.
    pub(crate) fn note_event_dropped(&self) {
        self.events_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        instrument(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        instrument(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        instrument(&self.histograms, name)
    }

    /// Every counter as `(name, value)`, name-ordered.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect()
    }

    /// Every gauge as `(name, value)`, name-ordered.
    pub fn gauge_values(&self) -> Vec<(String, u64)> {
        self.gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect()
    }

    /// Every histogram handle as `(name, Arc)`, name-ordered.
    pub fn histogram_handles(&self) -> Vec<(String, Arc<Histogram>)> {
        self.histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, h)| (k.clone(), h.clone()))
            .collect()
    }

    /// Reset every registered instrument, and the drop count, to zero.
    /// Existing `Arc` handles stay valid. Intended for tests and for
    /// scoping a measurement window.
    pub fn reset(&self) {
        for c in self
            .counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
        {
            c.v.store(0, Ordering::Relaxed);
        }
        for g in self
            .gauges
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
        {
            g.v.store(0, Ordering::Relaxed);
        }
        for h in self
            .histograms
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
        {
            h.count.store(0, Ordering::Relaxed);
            h.sum.store(0, Ordering::Relaxed);
            h.max.store(0, Ordering::Relaxed);
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
        }
        self.events_dropped.store(0, Ordering::Relaxed);
    }

    /// Export every instrument as JSON lines — the one data path shared
    /// by live observability and experiment regeneration.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, c) in self
            .counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            out.push_str(
                &ObjWriter::new()
                    .str("type", "counter")
                    .str("name", name)
                    .u64("value", c.get())
                    .finish(),
            );
            out.push('\n');
        }
        // The drop count rides along as a synthetic counter so an
        // incomplete event stream is self-describing.
        out.push_str(
            &ObjWriter::new()
                .str("type", "counter")
                .str("name", "obs.events_dropped")
                .u64("value", self.events_dropped())
                .finish(),
        );
        out.push('\n');
        for (name, g) in self
            .gauges
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            out.push_str(
                &ObjWriter::new()
                    .str("type", "gauge")
                    .str("name", name)
                    .u64("value", g.get())
                    .finish(),
            );
            out.push('\n');
        }
        for (name, h) in self
            .histograms
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            let mut buckets = String::from("[");
            for (i, (hi, c)) in h.nonzero_buckets().iter().enumerate() {
                if i > 0 {
                    buckets.push(',');
                }
                buckets.push_str(&format!("[{hi},{c}]"));
            }
            buckets.push(']');
            let (p50, p95, p99) = h.quantiles();
            out.push_str(
                &ObjWriter::new()
                    .str("type", "histogram")
                    .str("name", name)
                    .u64("count", h.count())
                    .u64("sum", h.sum())
                    .u64("max", h.max())
                    .f64("p50", p50)
                    .f64("p95", p95)
                    .f64("p99", p99)
                    .raw("buckets", &buckets)
                    .finish(),
            );
            out.push('\n');
        }
        out
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Shorthand for `global().counter(name)`.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Shorthand for `global().gauge(name)`.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Shorthand for `global().histogram(name)`.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn counters_and_gauges_register_once() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("x").get(), 3);
        let g = r.gauge("g");
        g.set(10);
        g.add(5);
        g.sub(20);
        assert_eq!(g.get(), 0, "sub saturates");
        g.record_max(7);
        g.record_max(3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_log2_buckets() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        assert_eq!(h.max(), 1000);
        let buckets = h.nonzero_buckets();
        // 0 → bucket (1,1); 1 → (2,1); 2,3 → (4,2); 4 → (8,1); 1000 → (1024,1)
        assert_eq!(buckets, vec![(1, 1), (2, 1), (4, 2), (8, 1), (1024, 1)]);
    }

    #[test]
    fn export_round_trips_through_parser() {
        let r = Registry::new();
        r.counter("flash.page_reads").add(640);
        r.gauge("mcu.ram.high_water_bytes").set(4096);
        r.histogram("pds.request_ns").observe(123456);
        let jsonl = r.export_jsonl();
        let mut kinds = Vec::new();
        for line in jsonl.lines() {
            let j = json::parse(line).expect("every exported line parses");
            kinds.push(
                j.get("type")
                    .and_then(json::Json::as_str)
                    .unwrap()
                    .to_string(),
            );
        }
        // The synthetic obs.events_dropped counter rides after the real ones.
        assert_eq!(kinds, ["counter", "counter", "gauge", "histogram"]);
        let hist_line = jsonl
            .lines()
            .find(|l| l.contains("\"histogram\""))
            .expect("histogram line");
        let j = json::parse(hist_line).unwrap();
        for q in ["p50", "p95", "p99"] {
            assert!(j.get(q).and_then(json::Json::as_f64).is_some(), "{q}");
        }
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.observe(v);
        }
        let (p50, p95, p99) = h.quantiles();
        // Log2 buckets bound the error by one bucket width.
        assert!((32.0..=64.0).contains(&p50), "p50={p50}");
        assert!((64.0..=100.0).contains(&p95), "p95={p95}");
        assert!(p99 >= p95, "p99={p99} >= p95={p95}");
        assert!(p99 <= 100.0, "clamped to observed max");
        let empty = Histogram::default();
        assert_eq!(empty.quantile(0.5), 0.0);
        let one = Histogram::default();
        one.observe(7);
        assert_eq!(one.quantile(0.99), 7.0, "single sample clamps to max");
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let r = Registry::new();
        let c = r.counter("c");
        c.add(5);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(r.counter("c").get(), 1);
    }
}
