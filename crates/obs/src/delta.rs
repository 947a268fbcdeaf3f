//! Mergeable metric deltas — the unit of fleet telemetry.
//!
//! A [`MetricsDelta`] is a deterministic, order-independent snapshot of
//! metric *increments*: counter adds, gauge observations with an
//! explicit [`GaugePolicy`], and log2-bucket histogram increments. Two
//! deltas [`merge`](MetricsDelta::merge) into one, and the merge is
//! **associative and commutative** (proven by tests under permuted
//! shard orders), which is what lets a fleet fold per-token telemetry
//! into one rollup no matter how many workers produced it, in what
//! order the bus delivered it, or how the shards were cut:
//!
//! * **counters** add;
//! * **gauges** fold under their policy — [`GaugePolicy::Max`]
//!   (high-water marks: `mcu.ram.peak_bytes`) or [`GaugePolicy::Sum`]
//!   (additive occupancy: resident tokens per shard). The policy rides
//!   in the delta next to the value; merging the same gauge under two
//!   different policies would not be associative, so a mismatch is
//!   counted in [`MetricsDelta::policy_conflicts`] (a plain additive
//!   counter) and resolved by `Max` — loud in the rollup, never silent;
//! * **histograms** add bucket-wise (same log2 bucket layout as
//!   [`Histogram`](crate::metrics::Histogram)), sums add, maxima fold
//!   by max — so quantile estimates of a merged histogram are exactly
//!   the estimates of the union of observations.
//!
//! Everything is `BTreeMap`-ordered: encoding, JSON export and
//! iteration are bit-identical for equal contents. The binary wire form
//! ([`encode`](MetricsDelta::encode) / [`decode`](MetricsDelta::decode))
//! is what rides the fleet bus as a telemetry envelope payload.
//!
//! [`DeltaTracker`] turns a (sharded or global) [`Registry`] into a
//! periodic delta stream: each [`take`](DeltaTracker::take) returns
//! what changed since the previous take.

use std::collections::BTreeMap;

use crate::json::{write_str, ObjWriter};
use crate::metrics::{bucket_of, quantile_of, Registry, HIST_BUCKETS};
use crate::wire::{put_prefixed, Reader};

/// How two observations of the same gauge fold into one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GaugePolicy {
    /// High-water mark: merged value is the max (RAM peaks, queue
    /// depth ceilings). The default for registry snapshots.
    Max,
    /// Additive occupancy: merged value is the sum (resident tokens per
    /// shard, bytes held per worker).
    Sum,
}

impl GaugePolicy {
    fn tag(self) -> u8 {
        match self {
            GaugePolicy::Max => 0,
            GaugePolicy::Sum => 1,
        }
    }

    fn from_tag(t: u8) -> Option<Self> {
        match t {
            0 => Some(GaugePolicy::Max),
            1 => Some(GaugePolicy::Sum),
            _ => None,
        }
    }
}

/// One gauge entry: the value plus the policy it merges under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeCell {
    /// Observed value.
    pub value: u64,
    /// Merge policy.
    pub policy: GaugePolicy,
}

/// Histogram increments in the same log2 buckets as
/// [`Histogram`](crate::metrics::Histogram): bucket `i` counts values
/// `2^(i-1) ≤ v < 2^i` (bucket 0 counts `v == 0`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistDelta {
    /// Observations in this delta.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation (high-water across merges).
    pub max: u64,
    /// Sparse `bucket index → count`, only non-zero buckets.
    pub buckets: BTreeMap<u8, u64>,
}

impl HistDelta {
    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
        *self.buckets.entry(bucket_of(v) as u8).or_insert(0) += 1;
    }

    /// Fold `other` in: counts and buckets add, maxima fold by max.
    pub fn merge(&mut self, other: &HistDelta) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for (b, c) in &other.buckets {
            *self.buckets.entry(*b).or_insert(0) += c;
        }
    }

    /// Quantile estimate interpolated from the log2 buckets — the
    /// estimator [`Histogram::quantile`](crate::metrics::Histogram::quantile)
    /// runs, so a merged rollup answers p50/p95/p99 exactly like a live
    /// instrument would over the union of observations. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let buckets = self.buckets.iter().map(|(&i, &c)| (usize::from(i), c));
        quantile_of(buckets, self.count, self.max, q)
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A deterministic, mergeable snapshot of metric increments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsDelta {
    /// Counter increments, additive under merge.
    pub counters: BTreeMap<String, u64>,
    /// Gauge observations with their merge policy.
    pub gauges: BTreeMap<String, GaugeCell>,
    /// Histogram increments.
    pub hists: BTreeMap<String, HistDelta>,
    /// Same-name gauges merged under conflicting policies — additive,
    /// so a rollup inherits every conflict any shard saw.
    pub policy_conflicts: u64,
}

impl MetricsDelta {
    /// An empty delta.
    pub fn new() -> Self {
        MetricsDelta::default()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.policy_conflicts == 0
    }

    /// Add `n` to counter `name`.
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Record gauge `name` at `value` under `policy`. Re-recording in
    /// the same delta folds under the policy.
    pub fn record_gauge(&mut self, name: &str, value: u64, policy: GaugePolicy) {
        merge_gauge(
            &mut self.gauges,
            &mut self.policy_conflicts,
            name,
            GaugeCell { value, policy },
        );
    }

    /// Observe `v` in histogram `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.hists.entry(name.to_string()).or_default().observe(v);
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).map_or(0, |g| g.value)
    }

    /// Histogram delta, if recorded.
    pub fn hist(&self, name: &str) -> Option<&HistDelta> {
        self.hists.get(name)
    }

    /// Fold `other` into `self`. Associative and commutative: folding a
    /// set of deltas yields one result regardless of grouping or order.
    pub fn merge(&mut self, other: &MetricsDelta) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        self.policy_conflicts += other.policy_conflicts;
        for (k, cell) in &other.gauges {
            merge_gauge(&mut self.gauges, &mut self.policy_conflicts, k, *cell);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Binary wire form (the bus envelope payload). Stable and
    /// versioned; [`decode`](MetricsDelta::decode) inverts it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.policy_conflicts.to_le_bytes());
        out.extend_from_slice(&(self.counters.len() as u32).to_le_bytes());
        for (k, v) in &self.counters {
            put_str(&mut out, k);
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.gauges.len() as u32).to_le_bytes());
        for (k, cell) in &self.gauges {
            put_str(&mut out, k);
            out.push(cell.policy.tag());
            out.extend_from_slice(&cell.value.to_le_bytes());
        }
        out.extend_from_slice(&(self.hists.len() as u32).to_le_bytes());
        for (k, h) in &self.hists {
            put_str(&mut out, k);
            out.extend_from_slice(&h.count.to_le_bytes());
            out.extend_from_slice(&h.sum.to_le_bytes());
            out.extend_from_slice(&h.max.to_le_bytes());
            out.extend_from_slice(&(h.buckets.len() as u16).to_le_bytes());
            for (&b, &c) in &h.buckets {
                out.push(b);
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }

    /// Parse a wire-form delta. `None` on truncation or trailing bytes,
    /// bad magic, an unknown gauge policy, or a histogram bucket the
    /// log2 layout does not have.
    pub fn decode(bytes: &[u8]) -> Option<MetricsDelta> {
        let mut r = Reader::new(bytes);
        if r.bytes(MAGIC.len())? != MAGIC {
            return None;
        }
        let mut d = MetricsDelta {
            policy_conflicts: r.u64()?,
            ..MetricsDelta::default()
        };
        for _ in 0..r.count32(COUNTER_MIN)? {
            let k = take_str(&mut r)?;
            d.counters.insert(k, r.u64()?);
        }
        for _ in 0..r.count32(GAUGE_MIN)? {
            let k = take_str(&mut r)?;
            let policy = GaugePolicy::from_tag(r.u8()?)?;
            let value = r.u64()?;
            d.gauges.insert(k, GaugeCell { value, policy });
        }
        for _ in 0..r.count32(HIST_MIN)? {
            let k = take_str(&mut r)?;
            let mut h = HistDelta {
                count: r.u64()?,
                sum: r.u64()?,
                max: r.u64()?,
                buckets: BTreeMap::new(),
            };
            for _ in 0..r.count16(BUCKET_LEN)? {
                let b = r.u8().filter(|b| usize::from(*b) < HIST_BUCKETS)?;
                h.buckets.insert(b, r.u64()?);
            }
            d.hists.insert(k, h);
        }
        r.finish()?;
        Some(d)
    }

    /// One-line JSON rendering (key-ordered, bit-identical for equal
    /// contents) — the export form of a rollup bucket.
    pub fn to_json(&self) -> String {
        let mut counters = String::from("{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                counters.push(',');
            }
            write_str(&mut counters, k);
            counters.push_str(&format!(":{v}"));
        }
        counters.push('}');
        let mut gauges = String::from("{");
        for (i, (k, cell)) in self.gauges.iter().enumerate() {
            if i > 0 {
                gauges.push(',');
            }
            write_str(&mut gauges, k);
            gauges.push_str(&format!(
                ":[{},{}]",
                cell.value,
                match cell.policy {
                    GaugePolicy::Max => "\"max\"",
                    GaugePolicy::Sum => "\"sum\"",
                }
            ));
        }
        gauges.push('}');
        let mut hists = String::from("{");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                hists.push(',');
            }
            write_str(&mut hists, k);
            // Every registered histogram answers its quantiles — the
            // same p50/p95/p99 triple for all of them, never a
            // hardwired subset (the live `Registry::export_jsonl` and
            // this rollup form must agree on what a histogram exports).
            hists.push_str(&format!(
                ":[{},{},{},{},{},{}]",
                h.count,
                h.sum,
                h.max,
                h.quantile(0.50) as u64,
                h.quantile(0.95) as u64,
                h.quantile(0.99) as u64
            ));
        }
        hists.push('}');
        ObjWriter::new()
            .raw("counters", &counters)
            .raw("gauges", &gauges)
            .raw("hists", &hists)
            .u64("policy_conflicts", self.policy_conflicts)
            .finish()
    }
}

const MAGIC: &[u8] = b"PDM1";

/// Shortest wire entries (an empty name), the floor each count field is
/// checked against: `name ‖ u64`, `name ‖ policy ‖ u64`, `name ‖ 3 × u64
/// ‖ bucket count`, and the fixed `bucket ‖ u64`.
const COUNTER_MIN: usize = 2 + 8;
const GAUGE_MIN: usize = 2 + 1 + 8;
const HIST_MIN: usize = 2 + 24 + 2;
const BUCKET_LEN: usize = 1 + 8;

fn merge_gauge(
    gauges: &mut BTreeMap<String, GaugeCell>,
    conflicts: &mut u64,
    name: &str,
    incoming: GaugeCell,
) {
    match gauges.get_mut(name) {
        None => {
            gauges.insert(name.to_string(), incoming);
        }
        Some(cur) if cur.policy == incoming.policy => {
            cur.value = match cur.policy {
                GaugePolicy::Max => cur.value.max(incoming.value),
                GaugePolicy::Sum => cur.value.saturating_add(incoming.value),
            };
        }
        Some(cur) => {
            // Conflicting policies cannot merge associatively; count the
            // conflict and fall back to the Max fold so the rollup stays
            // defined (and the conflict counter makes it visible).
            *conflicts += 1;
            cur.policy = GaugePolicy::Max;
            cur.value = cur.value.max(incoming.value);
        }
    }
}

/// A metric name, cut at what its `u16` length prefix can say.
fn put_str(out: &mut Vec<u8>, s: &str) {
    let b = s.as_bytes();
    put_prefixed(out, &b[..b.len().min(u16::MAX as usize)]);
}

fn take_str(r: &mut Reader<'_>) -> Option<String> {
    std::str::from_utf8(r.prefixed()?).ok().map(str::to_string)
}

impl Registry {
    /// Snapshot every instrument as a cumulative [`MetricsDelta`]:
    /// counters and histograms at their current totals, gauges at their
    /// current value under [`GaugePolicy::Max`] (the safe fold for the
    /// registry's high-water and occupancy gauges alike).
    pub fn snapshot_delta(&self) -> MetricsDelta {
        let mut d = MetricsDelta::new();
        for (k, v) in self.counter_values() {
            if v > 0 {
                d.counters.insert(k, v);
            }
        }
        for (k, v) in self.gauge_values() {
            if v > 0 {
                d.gauges.insert(
                    k,
                    GaugeCell {
                        value: v,
                        policy: GaugePolicy::Max,
                    },
                );
            }
        }
        for (k, h) in self.histogram_handles() {
            if h.count() == 0 {
                continue;
            }
            d.hists.insert(
                k,
                HistDelta {
                    count: h.count(),
                    sum: h.sum(),
                    max: h.max(),
                    buckets: h.bucket_counts().into_iter().collect(),
                },
            );
        }
        d
    }
}

/// Turns a registry into a periodic delta stream: every
/// [`take`](DeltaTracker::take) returns what changed since the last
/// take. Counters and histogram buckets are subtracted (they are
/// monotonic between registry resets); gauges report their current
/// value when it changed, and histogram `max` carries the cumulative
/// high-water (a max since an arbitrary cut cannot be reconstructed).
/// Re-create the tracker after [`Registry::reset`].
#[derive(Debug, Default)]
pub struct DeltaTracker {
    last: MetricsDelta,
}

impl DeltaTracker {
    /// A tracker whose first take returns the full cumulative snapshot.
    pub fn new() -> Self {
        DeltaTracker::default()
    }

    /// The changes in `reg` since the previous take (empty if nothing
    /// moved).
    pub fn take(&mut self, reg: &Registry) -> MetricsDelta {
        let cur = reg.snapshot_delta();
        let mut d = MetricsDelta::new();
        for (k, &v) in &cur.counters {
            let prev = self.last.counters.get(k).copied().unwrap_or(0);
            if v > prev {
                d.counters.insert(k.clone(), v - prev);
            }
        }
        for (k, cell) in &cur.gauges {
            if self.last.gauges.get(k).map(|c| c.value) != Some(cell.value) {
                d.gauges.insert(k.clone(), *cell);
            }
        }
        for (k, h) in &cur.hists {
            let prev = self.last.hists.get(k);
            let prev_count = prev.map_or(0, |p| p.count);
            if h.count <= prev_count {
                continue;
            }
            let mut dh = HistDelta {
                count: h.count - prev_count,
                sum: h.sum - prev.map_or(0, |p| p.sum),
                max: h.max,
                buckets: BTreeMap::new(),
            };
            for (&b, &c) in &h.buckets {
                let pc = prev.and_then(|p| p.buckets.get(&b)).copied().unwrap_or(0);
                if c > pc {
                    dh.buckets.insert(b, c - pc);
                }
            }
            d.hists.insert(k.clone(), dh);
        }
        self.last = cur;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64) -> MetricsDelta {
        let mut d = MetricsDelta::new();
        d.add("bus.deliveries", 10 + i);
        d.add("tok.crypto_ops", i * 3);
        d.record_gauge("ram.peak", 100 * (i + 1), GaugePolicy::Max);
        d.record_gauge("shard.resident", 2 + i, GaugePolicy::Sum);
        for v in [0, 1, i + 5, 1000 * (i + 1)] {
            d.observe("deliver_ticks", v);
        }
        d
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let (a, b, c) = (sample(1), sample(2), sample(9));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "commutative");
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "associative");
    }

    #[test]
    fn merge_folds_every_shard_order_identically() {
        let shards: Vec<MetricsDelta> = (0..6).map(sample).collect();
        let fold = |order: &[usize]| {
            let mut acc = MetricsDelta::new();
            for &i in order {
                acc.merge(&shards[i]);
            }
            acc
        };
        let reference = fold(&[0, 1, 2, 3, 4, 5]);
        for order in [[5, 4, 3, 2, 1, 0], [2, 0, 4, 1, 5, 3], [3, 5, 1, 0, 2, 4]] {
            assert_eq!(reference, fold(&order), "order {order:?}");
        }
        assert_eq!(reference.counter("bus.deliveries"), 10 * 6 + 15);
        assert_eq!(reference.gauge("ram.peak"), 600, "max policy");
        assert_eq!(reference.gauge("shard.resident"), 2 * 6 + 15, "sum policy");
        assert_eq!(reference.hist("deliver_ticks").unwrap().count, 24);
    }

    #[test]
    fn policy_conflict_is_counted_not_silent() {
        let mut a = MetricsDelta::new();
        a.record_gauge("g", 5, GaugePolicy::Sum);
        let mut b = MetricsDelta::new();
        b.record_gauge("g", 9, GaugePolicy::Max);
        a.merge(&b);
        assert_eq!(a.policy_conflicts, 1);
        assert_eq!(a.gauge("g"), 9, "falls back to the max fold");
    }

    #[test]
    fn wire_form_round_trips() {
        let d = sample(3);
        let enc = d.encode();
        assert_eq!(MetricsDelta::decode(&enc), Some(d.clone()));
        assert_eq!(MetricsDelta::decode(&enc[..enc.len() - 1]), None);
        assert_eq!(MetricsDelta::decode(b"nope"), None);
        assert_eq!(MetricsDelta::decode(&[]), None);
        let empty = MetricsDelta::new();
        assert_eq!(MetricsDelta::decode(&empty.encode()), Some(empty));
    }

    #[test]
    fn hist_delta_quantiles_match_live_histogram() {
        use crate::rng::{Rng, SeedableRng, StdRng};
        let live = crate::metrics::Histogram::default();
        let mut d = HistDelta::default();
        // Every magnitude the log2 layout has, the three edge values
        // first; the sum wraps in the live instrument and saturates in
        // the delta, so only what the buckets decide is compared.
        let mut rng = StdRng::seed_from_u64(0xB0C3);
        let edges = [0, 1, u64::MAX];
        let seeded = (0..10_000).map(|_| rng.gen::<u64>() >> rng.gen_range(0..64u32));
        for v in edges.into_iter().chain(seeded) {
            live.observe(v);
            d.observe(v);
        }
        let buckets: Vec<(u8, u64)> = d.buckets.iter().map(|(&b, &c)| (b, c)).collect();
        assert_eq!(buckets, live.bucket_counts(), "one bucket_of");
        assert_eq!(buckets.len(), 64, "the stream reached every bucket");
        assert_eq!((d.count, d.max), (live.count(), live.max()));
        for q in [0.0, 0.001, 0.25, 0.5, 0.95, 0.99, 0.9999, 1.0] {
            assert_eq!(d.quantile(q), live.quantile(q), "q={q}");
        }

        let live = crate::metrics::Histogram::default();
        let mut d = HistDelta::default();
        for v in 1..=100u64 {
            live.observe(v);
            d.observe(v);
        }
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(d.quantile(q), live.quantile(q), "q={q}");
        }
        assert_eq!(d.mean(), live.mean());
    }

    #[test]
    fn hist_delta_quantile_edge_cases() {
        let empty = HistDelta::default();
        assert_eq!(empty.quantile(0.99), 0.0, "empty histogram");
        assert_eq!(empty.mean(), 0.0);

        let mut one = HistDelta::default();
        one.observe(42);
        assert_eq!(one.quantile(0.5), 42.0, "single sample clamps to max");
        assert_eq!(one.quantile(0.0), 42.0);
        assert_eq!(one.quantile(1.0), 42.0);

        // All observations in one bucket: [64, 128).
        let mut packed = HistDelta::default();
        for _ in 0..50 {
            packed.observe(100);
        }
        for q in [0.01, 0.5, 0.99] {
            let v = packed.quantile(q);
            assert!((64.0..=100.0).contains(&v), "q={q} v={v}");
        }
        assert_eq!(packed.quantile(1.0), 100.0, "clamped to observed max");

        // Zero-only histogram: bucket 0 spans [0, 1).
        let mut zeros = HistDelta::default();
        zeros.observe(0);
        zeros.observe(0);
        assert_eq!(zeros.quantile(0.99), 0.0);
    }

    #[test]
    fn registry_snapshot_and_tracker_deltas() {
        let r = Registry::new();
        r.counter("c").add(5);
        r.gauge("g").set(7);
        r.histogram("h").observe(3);
        let mut t = DeltaTracker::new();
        let first = t.take(&r);
        assert_eq!(first.counter("c"), 5);
        assert_eq!(first.gauge("g"), 7);
        assert_eq!(first.hist("h").unwrap().count, 1);

        // Nothing moved: the next take is empty.
        assert!(t.take(&r).is_empty());

        r.counter("c").add(2);
        r.histogram("h").observe(900);
        let d = t.take(&r);
        assert_eq!(d.counter("c"), 2, "only the increment");
        assert_eq!(d.hist("h").unwrap().count, 1);
        assert_eq!(d.hist("h").unwrap().max, 900);
        assert!(!d.gauges.contains_key("g"), "unchanged gauge not re-sent");

        // Tracker deltas re-merge into the cumulative snapshot.
        let mut acc = first;
        acc.merge(&d);
        assert_eq!(acc.counter("c"), 7);
        assert_eq!(acc.hist("h").unwrap().count, 2);
    }

    #[test]
    fn json_export_is_stable() {
        let d = sample(0);
        assert_eq!(d.to_json(), sample(0).to_json());
        let j = crate::json::parse(&d.to_json()).expect("delta JSON parses");
        assert_eq!(
            j.get("counters")
                .and_then(|c| c.get("bus.deliveries"))
                .and_then(crate::json::Json::as_u64),
            Some(10)
        );
    }

    #[test]
    fn json_export_quantiles_every_histogram_uniformly() {
        // Regression: the rollup export used to render histograms as
        // bare [count, sum, max] while the live registry exported
        // p50/p95/p99 — quantiles existed only for whichever histograms
        // a consumer re-derived by hand. Every registered histogram now
        // carries the same [count, sum, max, p50, p95, p99] sextuple.
        let mut d = sample(0);
        for v in [1, 2, 3] {
            d.observe("second_hist", v);
        }
        let j = crate::json::parse(&d.to_json()).expect("delta JSON parses");
        let hists = j.get("hists").expect("hists object");
        for name in ["deliver_ticks", "second_hist"] {
            let row = hists.get(name).and_then(crate::json::Json::as_arr).unwrap();
            assert_eq!(row.len(), 6, "{name}: uniform sextuple");
            let h = d.hist(name).unwrap();
            assert_eq!(row[3].as_u64(), Some(h.quantile(0.50) as u64), "{name} p50");
            assert_eq!(row[4].as_u64(), Some(h.quantile(0.95) as u64), "{name} p95");
            assert_eq!(row[5].as_u64(), Some(h.quantile(0.99) as u64), "{name} p99");
        }
    }
}
