//! The in-band fleet telemetry plane: delta envelopes, tick-indexed
//! rollups, and the declarative fleet health engine.
//!
//! The tutorial's fleet is "millions" of weakly-connected tokens behind
//! an untrusted SSI — at that scale nothing can scrape per-token JSONL
//! out-of-band, so observability has to ride the same fabric the
//! protocols do. Each token (and the driver, for the bus itself)
//! periodically snapshots its metric increments as a
//! [`MetricsDelta`] and mails it as a
//! [`TelemetryMsg`] envelope to the [`Addr::Collector`] role — an
//! SSI-hosted inbox that is always online, like the store itself. The
//! [`Collector`] folds every envelope into a **tick-indexed time
//! series**: a bounded ring of [`RING_BUCKETS`] per-bucket rollups
//! (bucket = virtual bus tick / [`BUCKET_TICKS`]) whose oldest buckets
//! fold into a cumulative total when the ring is full — bounded memory,
//! nothing lost. Because delta merge is associative and commutative,
//! the rollups are bit-identical no matter how the bus reordered,
//! duplicated, or delayed the envelopes, and no matter how many worker
//! threads produced them.
//!
//! On top sits the [`HealthEngine`]: declarative SLO/invariant rules
//! (`bus.redeliveries / bus.deliveries < 0.25`,
//! `recovery.pages_lost == 0`, `p99(tok.payload_bytes) < 4096` — all in
//! counters and virtual ticks, never wall-clock) evaluated against a
//! rollup to produce a deterministic [`FleetHealth`] verdict with a
//! `fleet status` rendering and a JSON export.
//!
//! ## Rule grammar
//!
//! ```text
//! rule  := expr cmp bound
//! expr  := pNN '(' name ')'      quantile of histogram `name` (NN/100)
//!        | name '/' name         ratio of two scalar metrics
//!        | name                  scalar metric (counter, else gauge,
//!                                else histogram count; missing = 0)
//! cmp   := '<' | '<=' | '=='
//! bound := floating point literal
//! ```
//!
//! A ratio with a zero denominator evaluates to 0 (vacuously healthy:
//! no traffic means no violated traffic SLO).

use std::collections::{BTreeMap, BTreeSet};

use pds_core::{CrashCause, ForensicsReport};
use pds_obs::json::{write_f64, write_str, ObjWriter};
use pds_obs::wire::Reader;
use pds_obs::MetricsDelta;

use crate::bus::{Addr, MailboxBus};

/// Virtual bus ticks per rollup bucket.
pub const BUCKET_TICKS: u64 = 64;

/// Live buckets kept in the ring; older buckets fold into the cumulative
/// total (bounded memory, nothing lost).
pub const RING_BUCKETS: usize = 16;

/// One telemetry envelope: who observed what, as of which virtual tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryMsg {
    /// [`Addr::code`] of the emitting endpoint.
    pub source: u64,
    /// Virtual bus tick the delta was cut at.
    pub tick: u64,
    /// The increments since the source's previous envelope.
    pub delta: MetricsDelta,
}

const MAGIC: &[u8] = b"PDT1";

impl TelemetryMsg {
    /// Bus payload form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.source.to_le_bytes());
        out.extend_from_slice(&self.tick.to_le_bytes());
        out.extend_from_slice(&self.delta.encode());
        out
    }

    /// Parse a bus payload; `None` if it is not a telemetry envelope.
    pub fn decode(bytes: &[u8]) -> Option<TelemetryMsg> {
        let mut r = Reader::new(bytes.strip_prefix(MAGIC)?);
        Some(TelemetryMsg {
            source: r.u64()?,
            tick: r.u64()?,
            delta: MetricsDelta::decode(r.rest())?,
        })
    }
}

/// Compact crash post-mortem a recovered token mails to the collector:
/// the `PDF1` sibling of the `PDT1` telemetry envelope. Carries only
/// codes, ticks and counts — the full timeline stays on the token; the
/// digest is what fleet-scale triage needs (who crashed, when, why).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForensicsDigest {
    /// Id of the crashed token.
    pub token: u64,
    /// Virtual bus tick the digest was mailed at.
    pub tick: u64,
    /// Recorder tick of the last surviving frame — with `token`, the
    /// collector's exactly-once identity for this crash.
    pub crash_tick: u64,
    /// [`CrashCause::code`] of the classified cause.
    pub cause: u8,
    /// Subsystem of the last surviving frame.
    pub last_subsystem: u8,
    /// Event code of the last surviving frame.
    pub last_code: u16,
    /// Frames the recorder scan salvaged.
    pub frames_recovered: u64,
    /// Torn recorder pages discarded at the CRC cut.
    pub torn_pages: u64,
}

const DIGEST_MAGIC: &[u8] = b"PDF1";

impl ForensicsDigest {
    /// Distill a full [`ForensicsReport`] into its mailable digest.
    pub fn from_report(report: &ForensicsReport, tick: u64) -> ForensicsDigest {
        let last = report.last_frame();
        ForensicsDigest {
            token: report.token,
            tick,
            crash_tick: report.crash_tick(),
            cause: report.cause.code(),
            last_subsystem: last.map_or(0, |f| f.subsystem),
            last_code: last.map_or(0, |f| f.code),
            frames_recovered: report.frames_recovered,
            torn_pages: report.torn_pages_discarded,
        }
    }

    /// The classified cause.
    pub fn crash_cause(&self) -> CrashCause {
        CrashCause::from_code(self.cause)
    }

    /// Bus payload form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        out.extend_from_slice(DIGEST_MAGIC);
        out.extend_from_slice(&self.token.to_le_bytes());
        out.extend_from_slice(&self.tick.to_le_bytes());
        out.extend_from_slice(&self.crash_tick.to_le_bytes());
        out.push(self.cause);
        out.push(self.last_subsystem);
        out.extend_from_slice(&self.last_code.to_le_bytes());
        out.extend_from_slice(&self.frames_recovered.to_le_bytes());
        out.extend_from_slice(&self.torn_pages.to_le_bytes());
        out
    }

    /// Parse a bus payload; `None` if it is not a forensics digest.
    pub fn decode(bytes: &[u8]) -> Option<ForensicsDigest> {
        let mut r = Reader::new(bytes.strip_prefix(DIGEST_MAGIC)?);
        let digest = ForensicsDigest {
            token: r.u64()?,
            tick: r.u64()?,
            crash_tick: r.u64()?,
            cause: r.u8()?,
            last_subsystem: r.u8()?,
            last_code: r.u16()?,
            frames_recovered: r.u64()?,
            torn_pages: r.u64()?,
        };
        r.finish()?;
        Some(digest)
    }

    /// The crash counters this digest contributes to the rollup the
    /// health engine evaluates (`forensics.*`).
    fn as_delta(&self) -> MetricsDelta {
        let mut d = MetricsDelta::new();
        d.add("forensics.crashes", 1);
        d.add(&format!("forensics.cause.{}", self.crash_cause().name()), 1);
        if self.torn_pages > 0 {
            d.add("forensics.torn_tails", 1);
        }
        if self.crash_cause() == CrashCause::Unknown {
            d.add("forensics.unexplained", 1);
        }
        d
    }
}

/// Mail a recovered token's crash digest to the collector over the
/// store-and-forward bus ([`Addr::Token`] keyed by fleet slot `slot`).
/// Returns `false` only when the token has no post-mortem at all — it
/// never reopened. A token calls this after an *observed* power loss,
/// so even a `clean_shutdown`-cause digest carries signal: the power
/// went out but recovery was lossless (the torn page held nothing
/// acknowledged). Counted under `blackbox.digests_mailed`; the
/// collector's `(token, crash_tick)` dedup makes delivery exactly-once
/// even when the bus redelivers or the token re-mails after a power
/// cycle mid-mail.
pub fn mail_forensics(pds: &pds_core::Pds, slot: usize, bus: &mut MailboxBus) -> bool {
    let Some(report) = pds.forensics() else {
        return false;
    };
    let digest = ForensicsDigest::from_report(report, bus.now());
    bus.send(Addr::Token(slot), Addr::Collector, digest.encode());
    pds_obs::counter("blackbox.digests_mailed").inc();
    true
}

/// What the collector itself counted while folding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorStats {
    /// Envelopes folded into the time series.
    pub deltas_folded: u64,
    /// Envelope payload bytes ingested.
    pub bytes_ingested: u64,
    /// Payloads that failed to decode (dropped, counted, never folded).
    pub decode_errors: u64,
    /// Ring buckets folded into the cumulative total.
    pub buckets_evicted: u64,
    /// Forensics digests folded (each crash exactly once).
    pub digests_folded: u64,
    /// Duplicate digests dropped by the exactly-once gate (the bus may
    /// redeliver; a crash must not be counted twice).
    pub digests_deduped: u64,
}

/// The collector role: folds telemetry envelopes into a tick-indexed
/// fleet time series with bounded memory.
#[derive(Debug, Default)]
pub struct Collector {
    ring: BTreeMap<u64, MetricsDelta>,
    evicted: MetricsDelta,
    sources: BTreeSet<u64>,
    stats: CollectorStats,
    digests: Vec<ForensicsDigest>,
    seen_crashes: BTreeSet<(u64, u64)>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Fold one envelope into its tick bucket.
    pub fn fold(&mut self, msg: &TelemetryMsg) {
        self.stats.deltas_folded += 1;
        self.sources.insert(msg.source);
        let bucket = msg.tick / BUCKET_TICKS;
        self.ring.entry(bucket).or_default().merge(&msg.delta);
        while self.ring.len() > RING_BUCKETS {
            if let Some((_, old)) = self.ring.pop_first() {
                self.evicted.merge(&old);
                self.stats.buckets_evicted += 1;
            }
        }
    }

    /// Fold one crash digest, exactly once per `(token, crash_tick)`:
    /// the bus may redeliver, a crash must not be double-counted. The
    /// digest's crash counters land in the mailing tick's bucket, so
    /// the health engine sees the crash in its time series.
    pub fn fold_digest(&mut self, digest: &ForensicsDigest) {
        if !self.seen_crashes.insert((digest.token, digest.crash_tick)) {
            self.stats.digests_deduped += 1;
            return;
        }
        self.stats.digests_folded += 1;
        let bucket = digest.tick / BUCKET_TICKS;
        self.ring
            .entry(bucket)
            .or_default()
            .merge(&digest.as_delta());
        self.digests.push(*digest);
    }

    /// Ingest a raw bus payload — a `PDT1` telemetry envelope or a
    /// `PDF1` forensics digest; returns false (and counts a decode
    /// error) when it is neither.
    pub fn ingest(&mut self, payload: &[u8]) -> bool {
        self.stats.bytes_ingested += payload.len() as u64;
        if let Some(msg) = TelemetryMsg::decode(payload) {
            self.fold(&msg);
            true
        } else if let Some(digest) = ForensicsDigest::decode(payload) {
            self.fold_digest(&digest);
            true
        } else {
            self.stats.decode_errors += 1;
            false
        }
    }

    /// Drain the collector's bus inbox ([`Addr::Collector`]) and ingest
    /// every delivered envelope. Inbox order is message-id order, but
    /// merge commutativity makes the fold order-independent anyway.
    pub fn drain_bus(&mut self, bus: &mut MailboxBus) {
        for msg in bus.drain_inbox(Addr::Collector) {
            self.ingest(&msg.payload);
        }
    }

    /// The cumulative rollup: evicted history plus every live bucket.
    pub fn total(&self) -> MetricsDelta {
        let mut t = self.evicted.clone();
        for d in self.ring.values() {
            t.merge(d);
        }
        t
    }

    /// The live time series: `bucket index → rollup` (bucket =
    /// tick / [`BUCKET_TICKS`]).
    pub fn buckets(&self) -> &BTreeMap<u64, MetricsDelta> {
        &self.ring
    }

    /// Distinct endpoints that reported at least once.
    pub fn sources(&self) -> usize {
        self.sources.len()
    }

    /// Fold accounting.
    pub fn stats(&self) -> CollectorStats {
        self.stats
    }

    /// Every distinct crash digest folded so far, in arrival order.
    pub fn digests(&self) -> &[ForensicsDigest] {
        &self.digests
    }

    /// Fleet-wide crash triage, grouped by cause: the `fleet status`
    /// line that says "3 tokens crashed, all with torn changelog
    /// tails".
    pub fn crash_summary(&self) -> String {
        if self.digests.is_empty() {
            return "no crashes reported".to_string();
        }
        let mut by_cause: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for d in &self.digests {
            by_cause
                .entry(d.crash_cause().name())
                .or_default()
                .push(d.token);
        }
        let mut out = format!("{} token(s) crashed:", self.digests.len());
        for (cause, mut tokens) in by_cause {
            tokens.sort_unstable();
            tokens.dedup();
            out.push_str(&format!(
                "\n  {} × {cause} (tokens {tokens:?})",
                tokens.len()
            ));
        }
        out
    }

    /// Evaluate `engine` over the cumulative rollup.
    pub fn health(&self, engine: &HealthEngine) -> FleetHealth {
        engine.evaluate(&self.total())
    }
}

/// The left-hand side of one health rule.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthExpr {
    /// A scalar metric: counter, else gauge, else histogram count;
    /// missing evaluates to 0.
    Metric(String),
    /// Ratio of two scalar metrics (0 when the denominator is 0).
    Ratio(String, String),
    /// Quantile of a histogram, `q` in `[0, 1]`.
    Quantile(String, f64),
}

/// Rule comparator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Strictly below the bound.
    Lt,
    /// At most the bound.
    Le,
    /// Exactly the bound (invariants like `recovery.pages_lost == 0`).
    Eq,
}

/// One declarative SLO/invariant rule. See the module docs for the
/// grammar.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthRule {
    /// The rule's source text (also its display name).
    pub text: String,
    /// Parsed left-hand side.
    pub expr: HealthExpr,
    /// Comparator.
    pub cmp: Cmp,
    /// Right-hand bound.
    pub bound: f64,
}

impl HealthRule {
    /// Parse `expr cmp bound`; `None` on any grammar violation.
    pub fn parse(text: &str) -> Option<HealthRule> {
        let (lhs, cmp, rhs) = if let Some((l, r)) = text.split_once("<=") {
            (l, Cmp::Le, r)
        } else if let Some((l, r)) = text.split_once("==") {
            (l, Cmp::Eq, r)
        } else if let Some((l, r)) = text.split_once('<') {
            (l, Cmp::Lt, r)
        } else {
            return None;
        };
        let bound: f64 = rhs.trim().parse().ok()?;
        let lhs = lhs.trim();
        let expr = if let Some(rest) = lhs.strip_prefix('p') {
            if let Some((pct, name)) = rest.split_once('(') {
                let pct: u32 = pct.parse().ok()?;
                let name = name.strip_suffix(')')?;
                if pct > 100 {
                    return None;
                }
                HealthExpr::Quantile(name.trim().to_string(), f64::from(pct) / 100.0)
            } else {
                HealthExpr::Metric(lhs.to_string())
            }
        } else if let Some((a, b)) = lhs.split_once('/') {
            HealthExpr::Ratio(a.trim().to_string(), b.trim().to_string())
        } else if lhs.is_empty() {
            return None;
        } else {
            HealthExpr::Metric(lhs.to_string())
        };
        Some(HealthRule {
            text: text.trim().to_string(),
            expr,
            cmp,
            bound,
        })
    }

    fn scalar(d: &MetricsDelta, name: &str) -> f64 {
        if let Some(v) = d.counters.get(name) {
            *v as f64
        } else if d.gauges.contains_key(name) {
            d.gauge(name) as f64
        } else if let Some(h) = d.hist(name) {
            h.count as f64
        } else {
            0.0
        }
    }

    /// Evaluate the left-hand side against a rollup.
    pub fn value(&self, d: &MetricsDelta) -> f64 {
        match &self.expr {
            HealthExpr::Metric(n) => Self::scalar(d, n),
            HealthExpr::Ratio(a, b) => {
                let den = Self::scalar(d, b);
                if den == 0.0 {
                    0.0
                } else {
                    Self::scalar(d, a) / den
                }
            }
            HealthExpr::Quantile(n, q) => d.hist(n).map_or(0.0, |h| h.quantile(*q)),
        }
    }

    /// Does `d` satisfy the rule?
    pub fn pass(&self, d: &MetricsDelta) -> bool {
        let v = self.value(d);
        match self.cmp {
            Cmp::Lt => v < self.bound,
            Cmp::Le => v <= self.bound,
            Cmp::Eq => v == self.bound,
        }
    }
}

/// One rule's outcome against one rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleVerdict {
    /// The rule's source text.
    pub rule: String,
    /// The evaluated left-hand side.
    pub value: f64,
    /// Whether the rule held.
    pub pass: bool,
}

/// A deterministic fleet health verdict: every rule's outcome, in rule
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetHealth {
    /// True when every rule held.
    pub healthy: bool,
    /// Per-rule outcomes.
    pub verdicts: Vec<RuleVerdict>,
}

impl FleetHealth {
    /// The `fleet status` rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "fleet status: {} ({} rules)\n",
            if self.healthy { "HEALTHY" } else { "UNHEALTHY" },
            self.verdicts.len()
        );
        let width = self
            .verdicts
            .iter()
            .map(|v| v.rule.len())
            .max()
            .unwrap_or(0);
        for v in &self.verdicts {
            out.push_str(&format!(
                "  {} {:width$}  [{}]\n",
                if v.pass { "ok  " } else { "FAIL" },
                v.rule,
                v.value,
            ));
        }
        out
    }

    /// One-line JSON export.
    pub fn to_json(&self) -> String {
        let mut rules = String::from("[");
        for (i, v) in self.verdicts.iter().enumerate() {
            if i > 0 {
                rules.push(',');
            }
            rules.push_str("{\"rule\":");
            write_str(&mut rules, &v.rule);
            rules.push_str(",\"value\":");
            write_f64(&mut rules, v.value);
            rules.push_str(&format!(",\"pass\":{}}}", v.pass));
        }
        rules.push(']');
        ObjWriter::new()
            .bool("healthy", self.healthy)
            .raw("rules", &rules)
            .finish()
    }
}

/// An ordered set of health rules evaluated together.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthEngine {
    rules: Vec<HealthRule>,
}

impl HealthEngine {
    /// An engine with no rules (vacuously healthy).
    pub fn new() -> Self {
        HealthEngine::default()
    }

    /// Add a rule from its source text; `Err` echoes the bad text.
    pub fn rule(&mut self, text: &str) -> Result<(), String> {
        match HealthRule::parse(text) {
            Some(r) => {
                self.rules.push(r);
                Ok(())
            }
            None => Err(format!("unparseable health rule: {text:?}")),
        }
    }

    /// The rules, in evaluation order.
    pub fn rules(&self) -> &[HealthRule] {
        &self.rules
    }

    /// The standard fleet SLO set: bus-fabric ratios and the
    /// must-never-happen invariants. Every rule is in counters and
    /// virtual ticks — wall-clock never decides health.
    pub fn standard() -> Self {
        let mut e = HealthEngine::new();
        for text in [
            // The fabric may be weak, but messages must not die.
            "bus.expired == 0",
            // Ack losses are tolerable noise, not the common case.
            "bus.redeliveries / bus.deliveries < 0.25",
            // Dedup hits track redeliveries; a surge means ack loss.
            "bus.dedup_hits / bus.deliveries < 0.25",
            // Crash recovery must never lose a committed page.
            "recovery.pages_lost == 0",
            // The observability plane itself must not drop telemetry.
            "telemetry.decode_errors == 0",
            // The scheduler may not thrash: at most one eviction per
            // wake on average (vacuous when nothing ever woke).
            "sched.evictions / sched.wakes <= 1.0",
            // The flight recorder's own durability: most recorded
            // frames must survive a power loss (vacuous when idle).
            "blackbox.torn_tails_truncated / blackbox.frames_written <= 0.5",
            // Exactly-once crash triage: the collector never counts
            // more crashes than tokens mailed digests for.
            "forensics.crashes / blackbox.digests_mailed <= 1.0",
            // Crash-rate SLO: any crash flips the fleet unhealthy, so
            // `fleet status` surfaces the triage summary.
            "forensics.crashes == 0",
            // Crash-cause SLO: every crash must classify — an
            // unexplained post-mortem is its own alarm.
            "forensics.unexplained == 0",
        ] {
            e.rule(text).expect("standard rule parses");
        }
        e
    }

    /// Evaluate every rule against one rollup.
    pub fn evaluate(&self, d: &MetricsDelta) -> FleetHealth {
        let verdicts: Vec<RuleVerdict> = self
            .rules
            .iter()
            .map(|r| RuleVerdict {
                rule: r.text.clone(),
                value: r.value(d),
                pass: r.pass(d),
            })
            .collect();
        FleetHealth {
            healthy: verdicts.iter().all(|v| v.pass),
            verdicts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{BusConfig, BusStats};

    fn msg(source: u64, tick: u64, n: u64) -> TelemetryMsg {
        let mut delta = MetricsDelta::new();
        delta.add("tok.contributions", n);
        delta.observe("tok.payload_bytes", 100 * n);
        TelemetryMsg {
            source,
            tick,
            delta,
        }
    }

    #[test]
    fn a_full_ring_is_a_running_total() {
        // Every tick for four buckets more than the ring holds: each
        // new bucket evicts the oldest, and the total must still see
        // every fold exactly once.
        let mut c = Collector::new();
        let buckets = RING_BUCKETS as u64 + 4;
        for tick in 0..buckets * BUCKET_TICKS {
            c.fold(&msg(1, tick, 1));
        }
        assert_eq!(
            c.buckets().len(),
            RING_BUCKETS,
            "only the newest buckets live"
        );
        assert_eq!(c.stats().buckets_evicted, 4, "buckets 0..=3 folded out");
        assert_eq!(
            c.total().counter("tok.contributions"),
            buckets * BUCKET_TICKS
        );
        // Each live bucket holds exactly one bucket's worth of ticks.
        for live in c.buckets().values() {
            assert_eq!(live.counter("tok.contributions"), BUCKET_TICKS);
        }
    }

    #[test]
    fn bucket_boundaries_split_on_exact_granularity_multiples() {
        // tick = k·64 belongs to bucket k, not k-1 — the half-open
        // [k·64, (k+1)·64) convention, checked at the edges.
        assert_eq!(BUCKET_TICKS, 64);
        let mut c = Collector::new();
        c.fold(&msg(1, 0, 1)); // first tick of bucket 0
        c.fold(&msg(1, 63, 1)); // last tick of bucket 0
        c.fold(&msg(1, 64, 1)); // first tick of bucket 1
        c.fold(&msg(1, 128, 1)); // first tick of bucket 2
        let buckets: Vec<u64> = c.buckets().keys().copied().collect();
        assert_eq!(buckets, vec![0, 1, 2]);
        assert_eq!(
            c.buckets()[&0].counter("tok.contributions"),
            2,
            "ticks 0 and 63 share bucket 0"
        );
        assert_eq!(c.buckets()[&1].counter("tok.contributions"), 1);
        assert_eq!(c.stats().buckets_evicted, 0);
    }

    #[test]
    fn tail_fold_eviction_equals_the_unbounded_reference() {
        // The eviction invariant the plane rests on: the bounded ring
        // and an unbounded reference — every delta merged into one —
        // agree on the cumulative rollup (counters, gauges, histograms)
        // for the same fold stream — eviction relocates history, it
        // never rewrites it.
        let stream: Vec<TelemetryMsg> = (0..2000)
            .map(|k| {
                let mut delta = MetricsDelta::new();
                delta.add("tok.contributions", k % 7);
                delta.observe("tok.payload_bytes", 10 + (k * 13) % 97);
                delta.record_gauge(
                    "mcu.ram.peak_bytes",
                    1_000 + (k * 31) % 503,
                    pds_obs::GaugePolicy::Max,
                );
                TelemetryMsg {
                    source: k % 5,
                    tick: k * 3,
                    delta,
                }
            })
            .collect();
        let mut c = Collector::new();
        let mut unbounded = MetricsDelta::new();
        for m in &stream {
            c.fold(m);
            unbounded.merge(&m.delta);
        }
        assert!(c.stats().buckets_evicted > 0);
        assert_eq!(c.buckets().len(), RING_BUCKETS);
        assert_eq!(c.total(), unbounded, "tail-fold is lossless");
        assert_eq!(c.sources(), 5);
        // And the health verdict — a function of the total — agrees.
        let engine = HealthEngine::standard();
        assert_eq!(c.health(&engine), engine.evaluate(&unbounded));
    }

    #[test]
    fn envelope_round_trips_and_rejects_junk() {
        let m = msg(7, 129, 3);
        assert_eq!(TelemetryMsg::decode(&m.encode()), Some(m.clone()));
        assert_eq!(TelemetryMsg::decode(b"PDT1"), None);
        assert_eq!(TelemetryMsg::decode(b"protocol payload"), None);
        assert_eq!(TelemetryMsg::decode(&[]), None);
    }

    #[test]
    fn collector_buckets_by_tick_and_bounds_memory() {
        let mut c = Collector::new();
        let buckets = RING_BUCKETS as u64 + 2;
        for k in 0..buckets {
            c.fold(&msg(1, k * BUCKET_TICKS + 5, 1));
        }
        assert_eq!(c.buckets().len(), RING_BUCKETS, "ring bounded");
        assert_eq!(c.stats().buckets_evicted, 2);
        assert_eq!(
            c.total().counter("tok.contributions"),
            buckets,
            "evicted buckets fold into the total — nothing lost"
        );
        assert_eq!(c.sources(), 1);
    }

    #[test]
    fn fold_is_order_independent() {
        let msgs: Vec<TelemetryMsg> = (0..8).map(|i| msg(i, i * 7, i + 1)).collect();
        let fold = |order: &[usize]| {
            let mut c = Collector::new();
            for &i in order {
                c.fold(&msgs[i]);
            }
            (c.total(), c.buckets().clone())
        };
        let a = fold(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let b = fold(&[7, 3, 5, 1, 6, 0, 2, 4]);
        assert_eq!(a, b);
    }

    #[test]
    fn collector_counts_junk_instead_of_folding_it() {
        let mut c = Collector::new();
        assert!(!c.ingest(b"not telemetry"));
        assert!(c.ingest(&msg(1, 1, 1).encode()));
        assert_eq!(c.stats().decode_errors, 1);
        assert_eq!(c.stats().deltas_folded, 1);
    }

    #[test]
    fn collector_drains_its_bus_inbox() {
        let mut bus = MailboxBus::new(BusConfig::reliable(3));
        bus.send(Addr::Token(0), Addr::Collector, msg(1, 0, 2).encode());
        bus.send(Addr::Token(1), Addr::Collector, msg(2, 0, 3).encode());
        bus.run_until_quiet(1000);
        let mut c = Collector::new();
        c.drain_bus(&mut bus);
        assert_eq!(c.total().counter("tok.contributions"), 5);
        assert_eq!(c.sources(), 2);
    }

    #[test]
    fn rule_grammar_parses_and_rejects() {
        let r = HealthRule::parse("bus.redeliveries / bus.deliveries < 0.25").unwrap();
        assert_eq!(
            r.expr,
            HealthExpr::Ratio("bus.redeliveries".into(), "bus.deliveries".into())
        );
        assert_eq!((r.cmp, r.bound), (Cmp::Lt, 0.25));

        let r = HealthRule::parse("recovery.pages_lost == 0").unwrap();
        assert_eq!(r.expr, HealthExpr::Metric("recovery.pages_lost".into()));
        assert_eq!(r.cmp, Cmp::Eq);

        let r = HealthRule::parse("p99(tok.payload_bytes) <= 4096").unwrap();
        assert_eq!(
            r.expr,
            HealthExpr::Quantile("tok.payload_bytes".into(), 0.99)
        );
        assert_eq!(r.cmp, Cmp::Le);

        // A metric that merely starts with `p` is still a metric.
        let r = HealthRule::parse("pool.workers < 9").unwrap();
        assert_eq!(r.expr, HealthExpr::Metric("pool.workers".into()));

        for bad in ["", "no comparator", "x <", "< 3", "p200(h) < 1", "x < z"] {
            assert!(HealthRule::parse(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn engine_verdicts_are_deterministic_and_explicit() {
        let mut d = MetricsDelta::new();
        d.add("bus.deliveries", 100);
        d.add("bus.redeliveries", 40); // 40% > 25% bound
        d.observe("ticks_hist", 8);
        let mut e = HealthEngine::new();
        e.rule("bus.redeliveries / bus.deliveries < 0.25").unwrap();
        e.rule("bus.expired == 0").unwrap();
        e.rule("p99(ticks_hist) <= 8").unwrap();
        let h = e.evaluate(&d);
        assert!(!h.healthy);
        assert_eq!(h.verdicts.len(), 3);
        assert!(!h.verdicts[0].pass);
        assert_eq!(h.verdicts[0].value, 0.4);
        assert!(h.verdicts[1].pass, "missing metric is 0, invariant holds");
        assert!(h.verdicts[2].pass, "quantile clamps to observed max");
        assert_eq!(h, e.evaluate(&d), "re-evaluation is bit-identical");
        assert!(h.render().contains("UNHEALTHY"));
        assert!(h.render().contains("FAIL bus.redeliveries"));
        let parsed = pds_obs::json::parse(&h.to_json()).expect("health JSON parses");
        assert_eq!(
            parsed.get("healthy").and_then(pds_obs::json::Json::as_bool),
            Some(false)
        );
    }

    #[test]
    fn standard_rules_pass_on_a_healthy_bus() {
        let stats = BusStats {
            sent: 100,
            delivered: 100,
            retries: 5,
            duplicates: 3,
            redeliveries: 3,
            backoff_events: 5,
            payload_bytes: 4000,
            expired: 0,
            ticks: 50,
        };
        let h = HealthEngine::standard().evaluate(&stats.as_delta());
        assert!(h.healthy, "{}", h.render());
    }

    #[test]
    fn zero_denominator_is_vacuously_healthy() {
        let mut e = HealthEngine::new();
        e.rule("bus.redeliveries / bus.deliveries < 0.25").unwrap();
        assert!(e.evaluate(&MetricsDelta::new()).healthy);
    }

    fn digest(token: u64, crash_tick: u64, cause: CrashCause) -> ForensicsDigest {
        ForensicsDigest {
            token,
            tick: 100,
            crash_tick,
            cause: cause.code(),
            last_subsystem: 4,
            last_code: 0x0402,
            frames_recovered: 12,
            torn_pages: u64::from(cause != CrashCause::CleanShutdown),
        }
    }

    #[test]
    fn digest_round_trips_and_rejects_junk() {
        let d = digest(3, 41, CrashCause::TornChangelogTail);
        assert_eq!(ForensicsDigest::decode(&d.encode()), Some(d));
        assert_eq!(ForensicsDigest::decode(b"PDF1"), None);
        assert_eq!(ForensicsDigest::decode(b"PDT1 something"), None);
        let mut truncated = d.encode();
        truncated.pop();
        assert_eq!(ForensicsDigest::decode(&truncated), None);
    }

    #[test]
    fn collector_folds_each_crash_exactly_once() {
        let mut c = Collector::new();
        let d = digest(3, 41, CrashCause::TornChangelogTail);
        // The bus may redeliver the same digest many times.
        assert!(c.ingest(&d.encode()));
        assert!(c.ingest(&d.encode()));
        assert!(c.ingest(&d.encode()));
        assert_eq!(c.stats().digests_folded, 1);
        assert_eq!(c.stats().digests_deduped, 2);
        assert_eq!(c.digests().len(), 1);
        assert_eq!(c.total().counter("forensics.crashes"), 1);
        // A later crash of the same token has a new crash_tick.
        c.fold_digest(&digest(3, 99, CrashCause::TornDataTail));
        assert_eq!(c.total().counter("forensics.crashes"), 2);
        assert_eq!(c.stats().decode_errors, 0);
    }

    #[test]
    fn crash_digests_flip_the_standard_verdict_unhealthy() {
        let mut c = Collector::new();
        for t in 0..3 {
            c.fold_digest(&digest(t, 10 + t, CrashCause::TornChangelogTail));
        }
        let h = c.health(&HealthEngine::standard());
        assert!(!h.healthy, "{}", h.render());
        let failing: Vec<&str> = h
            .verdicts
            .iter()
            .filter(|v| !v.pass)
            .map(|v| v.rule.as_str())
            .collect();
        assert_eq!(failing, vec!["forensics.crashes == 0"]);
        let summary = c.crash_summary();
        assert!(summary.contains("3 token(s) crashed"), "{summary}");
        assert!(summary.contains("torn_changelog_tail"), "{summary}");
    }

    #[test]
    fn unknown_cause_trips_the_cause_slo() {
        let mut c = Collector::new();
        c.fold_digest(&digest(5, 7, CrashCause::Unknown));
        let h = c.health(&HealthEngine::standard());
        assert!(h
            .verdicts
            .iter()
            .any(|v| v.rule == "forensics.unexplained == 0" && !v.pass));
    }

    #[test]
    fn new_standard_ratios_are_vacuous_at_zero_denominator() {
        // An idle fleet — no wakes, no recorded frames, no digests —
        // must be healthy: ratios with zero denominators evaluate to 0.
        let h = HealthEngine::standard().evaluate(&MetricsDelta::new());
        assert!(h.healthy, "{}", h.render());
        // And a busy-but-clean fleet stays healthy too.
        let mut d = MetricsDelta::new();
        d.add("sched.wakes", 10);
        d.add("sched.evictions", 4);
        d.add("blackbox.frames_written", 1000);
        d.add("blackbox.digests_mailed", 2);
        let h = HealthEngine::standard().evaluate(&d);
        assert!(h.healthy, "{}", h.render());
    }
}
