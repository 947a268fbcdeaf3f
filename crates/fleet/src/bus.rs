//! The store-and-forward mailbox bus.
//!
//! The tutorial's tokens are "low powered, highly disconnected": they
//! cannot talk to each other directly, and they cannot even be assumed
//! reachable at any given moment. The SSI supplies the missing
//! *availability*: every message travels token → SSI store → token in
//! two hops, parked in a mailbox until each side happens to be online.
//!
//! The bus simulates that fabric in virtual time:
//!
//! * **Store-and-forward** — a message is first *uploaded* (needs the
//!   sender online), then sits in the SSI store, then is *downloaded*
//!   (needs the receiver online). Messages to or from the SSI itself
//!   skip the hop the SSI plays no part in.
//! * **Connectivity model** — token `t` is online at tick `k` with
//!   probability [`BusConfig::connectivity`], decided by hashing
//!   `(seed, t, k)`. The SSI is always online ("untrusted but
//!   available"). Tests can pin a token offline with
//!   [`MailboxBus::force_offline`].
//! * **At-least-once delivery** — each transmission attempt can be lost
//!   ([`BusConfig::loss_rate`]); the bus retries with exponential
//!   backoff up to [`BusConfig::max_attempts`] per hop, then counts the
//!   message as expired. A delivered message's acknowledgement can
//!   itself be lost ([`BusConfig::dup_rate`]), in which case the SSI
//!   re-delivers and the receiver's **dedup-by-message-id** set absorbs
//!   the duplicate.
//! * **Determinism** — every decision (online, loss, ack-loss) is a pure
//!   hash of `(seed, message id, tick/attempt)`; the bus itself is
//!   driven single-threaded by the fleet driver, so a run's delivery
//!   schedule depends only on the seed and the send sequence — never on
//!   worker-thread interleaving.
//!
//! * **What a tick costs** — the flights that are due, stepped where
//!   they lie; one connectivity hash per endpoint that has a due flight
//!   (every flight gated on it shares the answer); a delivered payload
//!   is moved to the inbox, never copied. The receiver's dedup set is
//!   its own and grows by one id per message for the life of the bus.
//!
//! Message ids are `sender code << 24 | per-sender sequence`, globally
//! unique and stable across runs; the SSI threat model keys its
//! drop/forge verdicts off these same ids (`Ssi::collect_tagged`).

use std::collections::{BTreeMap, BTreeSet};

use pds_obs::rng::SplitMix64;
use pds_obs::TraceContext;

const TAG_ONLINE: u64 = 0x4255_534F_4E4C_4E01; // "BUSONLN"
const TAG_LOSS: u64 = 0x4255_534C_4F53_5302; // "BUSLOSS"
const TAG_ACK: u64 = 0x4255_5341_434B_4C03; // "BUSACKL"

/// Mix `(seed, tag, a, b)` into a well-avalanched u64.
pub(crate) fn mix(seed: u64, tag: u64, a: u64, b: u64) -> u64 {
    let x = SplitMix64::new(seed ^ tag).next_u64();
    let y = SplitMix64::new(x ^ a).next_u64();
    SplitMix64::new(y ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Map a mixed u64 to the unit interval (canonical 53-bit construction).
pub(crate) fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A bus endpoint: the SSI store, one token, or the telemetry collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Addr {
    /// The always-online SSI store.
    Ssi,
    /// Token (or trusted cell) number `i`.
    Token(usize),
    /// The telemetry collector role — SSI-hosted (always online, like
    /// the store itself) but with its own inbox, so telemetry envelopes
    /// never interleave with protocol traffic
    /// (see [`telemetry`](crate::telemetry)).
    Collector,
}

/// [`Addr::Collector`]'s numeric code: reserved far above any realistic
/// token count, below `2^24` so message ids keep their
/// `code << 24 | seq` shape.
pub(crate) const COLLECTOR_CODE: u64 = 0x00F0_0000;

impl Addr {
    /// Stable numeric code (SSI = 0, token i = i + 1, collector a
    /// reserved high code), used in message ids and connectivity hashes.
    pub fn code(self) -> u64 {
        match self {
            Addr::Ssi => 0,
            Addr::Token(i) => i as u64 + 1,
            Addr::Collector => COLLECTOR_CODE,
        }
    }

    /// Endpoints hosted at the SSI (always online, no upload hop).
    fn ssi_hosted(self) -> bool {
        matches!(self, Addr::Ssi | Addr::Collector)
    }
}

/// Connectivity / reliability profile of the simulated fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusConfig {
    /// Seed of every connectivity/loss decision.
    pub seed: u64,
    /// Probability a token is online at any given tick.
    pub connectivity: f64,
    /// Probability one transmission attempt is lost.
    pub loss_rate: f64,
    /// Probability the delivery acknowledgement is lost (forcing a
    /// re-delivery the receiver must dedup).
    pub dup_rate: f64,
    /// Transmission attempts per hop before the message expires.
    /// Waiting for an offline endpoint does not consume attempts.
    pub max_attempts: u32,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            seed: 0,
            connectivity: 0.3,
            loss_rate: 0.05,
            dup_rate: 0.02,
            max_attempts: 24,
        }
    }
}

impl BusConfig {
    /// A fully-connected, lossless fabric (unit tests, plaintext refs).
    pub fn reliable(seed: u64) -> Self {
        BusConfig {
            seed,
            connectivity: 1.0,
            loss_rate: 0.0,
            dup_rate: 0.0,
            ..Default::default()
        }
    }
}

/// First retry backoff, in ticks; doubles per failed attempt.
const BACKOFF_BASE: u64 = 1;
/// Backoff ceiling, in ticks.
const BACKOFF_CAP: u64 = 16;

/// Ticks to wait before retry number `attempts`: `base` doubled per
/// failed attempt, at most `cap`. The doubling must saturate to the cap,
/// not overflow: with a large base, `base << attempts` wraps (debug
/// panic, release wrap-to-tiny-delay). The shift amount is clamped to 16
/// so `1 << shift` is always valid; the multiply is what can overflow,
/// and an overflowed delay is by definition ≥ the cap.
fn backoff(base: u64, cap: u64, attempts: u32) -> u64 {
    let cap = cap.max(1);
    match base.checked_mul(1u64 << attempts.min(16)) {
        Some(delay) => delay.min(cap),
        None => cap,
    }
}

/// One message on the bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusMsg {
    /// Globally unique, run-stable id: `sender code << 24 | seq`.
    pub id: u64,
    /// Sender endpoint.
    pub from: Addr,
    /// Receiver endpoint.
    pub to: Addr,
    /// Distributed-trace context this message belongs to, if the send
    /// happened inside a traced protocol phase ([`MailboxBus::send_in`]).
    pub ctx: Option<TraceContext>,
    /// Opaque payload.
    pub payload: Vec<u8>,
}

/// Delivery history of one traced message: everything the stitcher needs
/// to render the send → (re)delivery → ack edges of a hop span. Recorded
/// only for messages sent with a [`TraceContext`]; all fields are pure
/// functions of the seed and the send sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRecord {
    /// Message id.
    pub msg: u64,
    /// The trace/phase the send belonged to.
    pub ctx: TraceContext,
    /// Sender endpoint.
    pub from: Addr,
    /// Receiver endpoint.
    pub to: Addr,
    /// Tick the message was accepted at.
    pub send_tick: u64,
    /// Tick of the first delivery to the receiver (0 if never delivered).
    pub deliver_tick: u64,
    /// Transmission attempts burned across both store-and-forward hops.
    pub attempts: u64,
    /// Duplicate re-deliveries absorbed by the receiver's dedup set.
    pub redeliveries: u64,
    /// True when the message ran out of attempts before delivery.
    pub expired: bool,
    /// Payload size of the message, in bytes (each hop's share of
    /// [`BusStats::payload_bytes`]).
    pub payload_bytes: u64,
}

/// Delivery hop a message is currently waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hop {
    /// Waiting for the sender to upload to the SSI store.
    Upload,
    /// Parked at the SSI store, waiting for the receiver to download.
    Download,
    /// Delivered, but the ack was lost: one re-delivery is pending.
    Redeliver,
}

#[derive(Debug)]
struct Flight {
    msg: BusMsg,
    hop: Hop,
    attempts: u32,
    next_try: u64,
}

/// Delivery counters of one bus (exported uniformly as `bus.*` metrics
/// by [`MailboxBus::publish`] / [`BusStats::as_delta`], so rollups and
/// the health engine see the bus itself).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Messages accepted from senders.
    pub sent: u64,
    /// Messages handed to their receiver (first delivery only).
    pub delivered: u64,
    /// Transmission attempts that were lost and rescheduled.
    pub retries: u64,
    /// Re-deliveries discarded by the receiver's dedup set.
    pub duplicates: u64,
    /// Messages that ran out of attempts on a hop.
    pub expired: u64,
    /// Virtual ticks elapsed.
    pub ticks: u64,
    /// Ack losses that scheduled a re-delivery from the store.
    pub redeliveries: u64,
    /// Lost attempts that were rescheduled with exponential backoff.
    pub backoff_events: u64,
    /// Payload bytes accepted from senders.
    pub payload_bytes: u64,
}

impl BusStats {
    /// Canonical `(name, value)` export of every counter — the single
    /// source of the uniform `bus.*` metric names.
    pub fn named(&self) -> [(&'static str, u64); 9] {
        [
            ("bus.sent", self.sent),
            ("bus.deliveries", self.delivered),
            ("bus.losses", self.retries),
            ("bus.dedup_hits", self.duplicates),
            ("bus.expired", self.expired),
            ("bus.ticks", self.ticks),
            ("bus.redeliveries", self.redeliveries),
            ("bus.backoff_events", self.backoff_events),
            ("bus.payload_bytes", self.payload_bytes),
        ]
    }

    /// These counters as a mergeable [`pds_obs::MetricsDelta`].
    pub fn as_delta(&self) -> pds_obs::MetricsDelta {
        let mut d = pds_obs::MetricsDelta::new();
        for (name, v) in self.named() {
            if v > 0 {
                d.add(name, v);
            }
        }
        d
    }

    /// Field-wise `self - earlier` (both snapshots of the same bus).
    /// Saturating: an out-of-order or post-reset snapshot pair yields
    /// zeros for the fields that moved backwards instead of panicking.
    pub fn since(&self, earlier: &BusStats) -> BusStats {
        BusStats {
            sent: self.sent.saturating_sub(earlier.sent),
            delivered: self.delivered.saturating_sub(earlier.delivered),
            retries: self.retries.saturating_sub(earlier.retries),
            duplicates: self.duplicates.saturating_sub(earlier.duplicates),
            expired: self.expired.saturating_sub(earlier.expired),
            ticks: self.ticks.saturating_sub(earlier.ticks),
            redeliveries: self.redeliveries.saturating_sub(earlier.redeliveries),
            backoff_events: self.backoff_events.saturating_sub(earlier.backoff_events),
            payload_bytes: self.payload_bytes.saturating_sub(earlier.payload_bytes),
        }
    }
}

/// The store-and-forward fabric between one fleet and its SSI.
pub struct MailboxBus {
    cfg: BusConfig,
    tick: u64,
    flights: Vec<Flight>,
    inboxes: BTreeMap<u64, Vec<BusMsg>>,
    seen: BTreeMap<u64, BTreeSet<u64>>,
    next_seq: BTreeMap<u64, u64>,
    forced_offline: BTreeSet<usize>,
    /// Per token index, the last tick its connectivity was decided at
    /// and the answer: every flight gated on one endpoint in one tick
    /// shares one `online` call. Grown to the highest token a due
    /// flight has waited on; never cleared — `force_offline` runs
    /// between ticks, and a stamp is only read in the tick that wrote
    /// it.
    online_at: Vec<(u64, bool)>,
    stats: BusStats,
    hops: BTreeMap<u64, HopRecord>,
}

impl MailboxBus {
    /// An empty bus over the given fabric profile.
    pub fn new(cfg: BusConfig) -> Self {
        assert!(cfg.connectivity > 0.0, "a fully-dark fleet never drains");
        MailboxBus {
            cfg,
            tick: 0,
            flights: Vec::new(),
            inboxes: BTreeMap::new(),
            seen: BTreeMap::new(),
            next_seq: BTreeMap::new(),
            forced_offline: BTreeSet::new(),
            online_at: Vec::new(),
            stats: BusStats::default(),
            hops: BTreeMap::new(),
        }
    }

    /// Current virtual tick.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Delivery counters so far.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Messages still in flight (un-delivered, un-expired).
    pub fn in_flight(&self) -> usize {
        self.flights.len()
    }

    /// Pin a token offline regardless of the connectivity hash (crash /
    /// long-disconnection scenarios). Delivery attempts to it wait
    /// without consuming attempts.
    pub fn force_offline(&mut self, token: usize, offline: bool) {
        if offline {
            self.forced_offline.insert(token);
        } else {
            self.forced_offline.remove(&token);
        }
    }

    /// Is `addr` reachable at tick `tick`? Pure in `(seed, addr, tick)`.
    pub fn online(&self, addr: Addr, tick: u64) -> bool {
        match addr {
            Addr::Ssi | Addr::Collector => true,
            Addr::Token(i) => {
                !self.forced_offline.contains(&i)
                    && unit(mix(self.cfg.seed, TAG_ONLINE, addr.code(), tick))
                        < self.cfg.connectivity
            }
        }
    }

    /// Accept a message for delivery; returns its stable id.
    pub fn send(&mut self, from: Addr, to: Addr, payload: Vec<u8>) -> u64 {
        self.send_in(from, to, payload, None)
    }

    /// Accept a message that belongs to a distributed-trace phase: its
    /// full delivery history is recorded as a [`HopRecord`] for the
    /// fleet-trace stitcher ([`MailboxBus::take_hops`]). With `ctx:
    /// None` this is exactly [`MailboxBus::send`] — no record is kept.
    pub fn send_in(
        &mut self,
        from: Addr,
        to: Addr,
        payload: Vec<u8>,
        ctx: Option<TraceContext>,
    ) -> u64 {
        let seq = self.next_seq.entry(from.code()).or_insert(0);
        let id = (from.code() << 24) | *seq;
        *seq += 1;
        self.stats.sent += 1;
        self.stats.payload_bytes += payload.len() as u64;
        if let Some(ctx) = ctx {
            self.hops.insert(
                id,
                HopRecord {
                    msg: id,
                    ctx,
                    from,
                    to,
                    send_tick: self.tick,
                    deliver_tick: 0,
                    attempts: 0,
                    redeliveries: 0,
                    expired: false,
                    payload_bytes: payload.len() as u64,
                },
            );
        }
        let hop = if from.ssi_hosted() {
            Hop::Download
        } else {
            Hop::Upload
        };
        self.flights.push(Flight {
            msg: BusMsg {
                id,
                from,
                to,
                ctx,
                payload,
            },
            hop,
            attempts: 0,
            next_try: self.tick,
        });
        id
    }

    /// Advance one virtual tick: every due flight whose gating endpoint
    /// is online makes a transmission attempt. Flights are stepped where
    /// they lie, in send order.
    pub fn tick(&mut self) {
        self.tick += 1;
        self.stats.ticks += 1;
        let mut flights = std::mem::take(&mut self.flights);
        flights.retain_mut(|f| self.step(f));
        self.flights = flights;
    }

    /// [`online`](Self::online) at the current tick, asked of the hash
    /// once per endpoint per tick.
    fn online_now(&mut self, addr: Addr) -> bool {
        let Addr::Token(i) = addr else {
            return true;
        };
        if i >= self.online_at.len() {
            self.online_at.resize(i + 1, (0, false));
        }
        if self.online_at[i].0 != self.tick {
            self.online_at[i] = (self.tick, self.online(addr, self.tick));
        }
        self.online_at[i].1
    }

    /// One flight's turn in the current tick; `false` once it has left
    /// the bus (delivered and acknowledged, evaporated, or expired).
    fn step(&mut self, f: &mut Flight) -> bool {
        let tick = self.tick;
        if f.next_try > tick {
            return true;
        }
        let gate = match f.hop {
            Hop::Upload => f.msg.from,
            Hop::Download | Hop::Redeliver => f.msg.to,
        };
        if !self.online_now(gate) {
            // Endpoint unreachable: wait, don't burn an attempt.
            f.next_try = tick + 1;
            return true;
        }
        f.attempts += 1;
        if let Some(rec) = self.hops.get_mut(&f.msg.id) {
            rec.attempts += 1;
        }
        let lost = unit(mix(
            self.cfg.seed,
            TAG_LOSS,
            f.msg.id ^ ((f.hop as u64) << 62),
            u64::from(f.attempts),
        )) < self.cfg.loss_rate;
        if lost {
            self.stats.retries += 1;
            if f.hop == Hop::Redeliver {
                // The original was already delivered; a lost
                // re-delivery simply evaporates.
                return false;
            }
            if f.attempts >= self.cfg.max_attempts {
                self.stats.expired += 1;
                if let Some(rec) = self.hops.get_mut(&f.msg.id) {
                    rec.expired = true;
                }
                return false;
            }
            self.stats.backoff_events += 1;
            f.next_try = tick + backoff(BACKOFF_BASE, BACKOFF_CAP, f.attempts);
            return true;
        }
        if f.hop == Hop::Upload {
            // Now parked at the SSI store; fresh attempt budget for the
            // second hop.
            f.hop = Hop::Download;
            f.attempts = 0;
            f.next_try = tick + 1;
            return true;
        }
        let dedup = self.seen.entry(f.msg.to.code()).or_default();
        if dedup.insert(f.msg.id) {
            self.stats.delivered += 1;
            if let Some(rec) = self.hops.get_mut(&f.msg.id) {
                rec.deliver_tick = tick;
            }
            // The payload moves to the receiver. Should the flight stay
            // on as a re-delivery it carries none: a re-delivery can only
            // ever meet the dedup set.
            let payload = std::mem::take(&mut f.msg.payload);
            self.inboxes
                .entry(f.msg.to.code())
                .or_default()
                .push(BusMsg { payload, ..f.msg });
        } else {
            self.stats.duplicates += 1;
            if let Some(rec) = self.hops.get_mut(&f.msg.id) {
                rec.redeliveries += 1;
            }
        }
        // Lost ack ⇒ the store re-delivers exactly once more.
        if f.hop == Hop::Download
            && unit(mix(self.cfg.seed, TAG_ACK, f.msg.id, 0)) < self.cfg.dup_rate
        {
            self.stats.redeliveries += 1;
            f.hop = Hop::Redeliver;
            f.attempts = 0;
            f.next_try = tick + backoff(BACKOFF_BASE, BACKOFF_CAP, 1);
            return true;
        }
        false
    }

    /// Tick until no message is in flight, or `max_ticks` elapse.
    /// Returns the number of ticks spent.
    pub fn run_until_quiet(&mut self, max_ticks: u64) -> u64 {
        let start = self.tick;
        while !self.flights.is_empty() && self.tick - start < max_ticks {
            self.tick();
        }
        self.tick - start
    }

    /// Take everything delivered to *token* endpoints since the last
    /// drain, as `(token index, messages)` batches ordered by token
    /// index, each batch ordered by message id. The SSI and collector
    /// inboxes are untouched — this is the event-driven scheduler's
    /// "who has mail" poll, and those endpoints are driver-drained.
    pub fn take_token_mail(&mut self) -> Vec<(usize, Vec<BusMsg>)> {
        let token_codes: Vec<u64> = self
            .inboxes
            .range(1..COLLECTOR_CODE)
            .map(|(code, _)| *code)
            .collect();
        let mut out = Vec::with_capacity(token_codes.len());
        for code in token_codes {
            let mut msgs = self.inboxes.remove(&code).unwrap_or_default();
            msgs.sort_by_key(|m| m.id);
            out.push(((code - 1) as usize, msgs));
        }
        out
    }

    /// Take everything delivered to `addr`, ordered by message id (a
    /// canonical order independent of delivery timing).
    pub fn drain_inbox(&mut self, addr: Addr) -> Vec<BusMsg> {
        let mut msgs = self.inboxes.remove(&addr.code()).unwrap_or_default();
        msgs.sort_by_key(|m| m.id);
        msgs
    }

    /// Drain the delivery histories of every traced message, in message
    /// id order (run-stable, independent of delivery timing). Phases are
    /// barriers, so draining at a phase boundary yields exactly that
    /// phase's hops.
    pub fn take_hops(&mut self) -> Vec<HopRecord> {
        std::mem::take(&mut self.hops).into_values().collect()
    }

    /// Mirror the counters into the global registry under the uniform
    /// `bus.*` names (the same names [`BusStats::as_delta`] uses, so the
    /// health engine reads one vocabulary everywhere).
    pub fn publish(&self) {
        for (name, v) in self.stats.named() {
            pds_obs::counter(name).add(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(bus: &mut MailboxBus, to: Addr) -> Vec<BusMsg> {
        bus.run_until_quiet(100_000);
        bus.drain_inbox(to)
    }

    #[test]
    fn reliable_bus_delivers_everything_in_id_order() {
        let mut bus = MailboxBus::new(BusConfig::reliable(1));
        for i in 0..10usize {
            bus.send(Addr::Token(i), Addr::Ssi, vec![i as u8]);
        }
        let got = drain_all(&mut bus, Addr::Ssi);
        assert_eq!(got.len(), 10);
        assert!(got.windows(2).all(|w| w[0].id < w[1].id));
        let s = bus.stats();
        assert_eq!((s.delivered, s.retries, s.expired), (10, 0, 0));
    }

    #[test]
    fn weak_connectivity_still_converges() {
        let mut bus = MailboxBus::new(BusConfig {
            seed: 7,
            connectivity: 0.15,
            loss_rate: 0.2,
            dup_rate: 0.1,
            max_attempts: 64,
        });
        for i in 0..50usize {
            bus.send(Addr::Ssi, Addr::Token(i), vec![0; 8]);
            bus.send(Addr::Token(i), Addr::Ssi, vec![1; 8]);
        }
        bus.run_until_quiet(1_000_000);
        let ssi_got = bus.drain_inbox(Addr::Ssi).len();
        let token_got: usize = (0..50).map(|i| bus.drain_inbox(Addr::Token(i)).len()).sum();
        let s = bus.stats();
        assert_eq!(ssi_got + token_got + s.expired as usize, 100);
        assert!(s.retries > 0, "losses happened and were retried");
    }

    #[test]
    fn duplicates_are_deduped_by_message_id() {
        let mut bus = MailboxBus::new(BusConfig {
            seed: 3,
            connectivity: 1.0,
            loss_rate: 0.0,
            dup_rate: 0.5,
            ..Default::default()
        });
        for i in 0..200usize {
            bus.send(Addr::Token(i), Addr::Ssi, vec![0; 4]);
        }
        let got = drain_all(&mut bus, Addr::Ssi);
        assert_eq!(got.len(), 200, "each message delivered exactly once");
        assert!(bus.stats().duplicates > 50, "ack losses re-delivered");
    }

    #[test]
    fn delivery_schedule_is_seed_deterministic() {
        let run = |seed| {
            let mut bus = MailboxBus::new(BusConfig {
                seed,
                connectivity: 0.4,
                loss_rate: 0.1,
                dup_rate: 0.05,
                ..Default::default()
            });
            for i in 0..40usize {
                bus.send(Addr::Token(i), Addr::Ssi, vec![i as u8; 3]);
            }
            bus.run_until_quiet(100_000);
            (bus.drain_inbox(Addr::Ssi), bus.stats())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).1.ticks, run(10).1.ticks);
    }

    #[test]
    fn forced_offline_token_receives_after_coming_back() {
        let mut bus = MailboxBus::new(BusConfig::reliable(5));
        bus.force_offline(3, true);
        bus.send(Addr::Ssi, Addr::Token(3), b"parked".to_vec());
        for _ in 0..50 {
            bus.tick();
        }
        assert!(bus.drain_inbox(Addr::Token(3)).is_empty());
        assert_eq!(bus.in_flight(), 1, "message waits, never expires");
        bus.force_offline(3, false);
        bus.run_until_quiet(100);
        assert_eq!(bus.drain_inbox(Addr::Token(3)).len(), 1);
    }

    #[test]
    fn traced_sends_record_hop_histories() {
        let ctx = TraceContext {
            trace_id: 9,
            parent_span: 2,
        };
        let mut bus = MailboxBus::new(BusConfig {
            seed: 3,
            connectivity: 1.0,
            loss_rate: 0.0,
            dup_rate: 0.5,
            ..Default::default()
        });
        for i in 0..20usize {
            bus.send_in(Addr::Token(i), Addr::Ssi, vec![0; 4], Some(ctx));
        }
        bus.send(Addr::Token(99), Addr::Ssi, vec![1]); // untraced
        bus.run_until_quiet(100_000);
        let hops = bus.take_hops();
        assert_eq!(hops.len(), 20, "only traced sends are recorded");
        assert!(hops.windows(2).all(|w| w[0].msg < w[1].msg));
        assert!(hops.iter().all(|h| h.ctx == ctx && h.deliver_tick > 0));
        assert!(hops.iter().map(|h| h.redeliveries).sum::<u64>() > 0);
        assert!(bus.take_hops().is_empty(), "drain removes");
    }

    #[test]
    fn collector_is_always_online_with_its_own_inbox() {
        let mut bus = MailboxBus::new(BusConfig {
            seed: 4,
            connectivity: 0.2,
            ..Default::default()
        });
        assert!((0..10_000u64).all(|t| bus.online(Addr::Collector, t)));
        bus.send(Addr::Token(0), Addr::Ssi, vec![1; 8]);
        bus.send(Addr::Token(0), Addr::Collector, vec![2; 16]);
        bus.send(Addr::Collector, Addr::Token(0), vec![3; 4]);
        bus.run_until_quiet(100_000);
        assert_eq!(bus.drain_inbox(Addr::Ssi).len(), 1);
        assert_eq!(
            bus.drain_inbox(Addr::Collector).len(),
            1,
            "telemetry never lands in the protocol inbox"
        );
        assert_eq!(bus.drain_inbox(Addr::Token(0)).len(), 1);
        let s = bus.stats();
        assert_eq!(s.payload_bytes, 28);
        assert_eq!(s.as_delta().counter("bus.deliveries"), 3);
        assert_eq!(s.since(&s), BusStats::default());
    }

    #[test]
    fn huge_backoff_base_saturates_to_the_cap() {
        // Regression: `base << attempts` used to overflow for large
        // bases (debug panic, release wrap to a tiny delay). Every
        // attempt count, including the clamped shift.
        for attempts in 0..40u32 {
            let d = backoff(u64::MAX / 2, 8, attempts);
            assert!((1..=8).contains(&d), "attempt {attempts} gave delay {d}");
            let d = backoff(BACKOFF_BASE, BACKOFF_CAP, attempts);
            assert_eq!(d, (1u64 << attempts.min(16)).min(16), "attempt {attempts}");
        }
        // And a lossy fabric converges on the backoff the bus runs with.
        let mut bus = MailboxBus::new(BusConfig {
            seed: 11,
            connectivity: 1.0,
            loss_rate: 0.5,
            dup_rate: 0.0,
            max_attempts: 64,
        });
        for i in 0..20usize {
            bus.send(Addr::Token(i), Addr::Ssi, vec![i as u8]);
        }
        bus.run_until_quiet(100_000);
        let s = bus.stats();
        assert_eq!(s.delivered, 20, "every message still converges");
        assert!(s.retries > 0, "losses exercised the backoff path");
        assert_eq!(s.expired, 0);
    }

    #[test]
    fn since_saturates_on_out_of_order_snapshots() {
        let mut bus = MailboxBus::new(BusConfig::reliable(6));
        let early = bus.stats();
        for i in 0..5usize {
            bus.send(Addr::Token(i), Addr::Ssi, vec![0; 4]);
        }
        bus.run_until_quiet(1_000);
        let late = bus.stats();
        // Snapshots subtracted in the wrong order must yield zeros, not
        // a debug-build underflow panic.
        let wrong = early.since(&late);
        assert_eq!(wrong, BusStats::default());
        // The right order still reports the real movement.
        let right = late.since(&early);
        assert_eq!(right.sent, 5);
        assert_eq!(right.delivered, 5);
    }

    #[test]
    fn take_token_mail_batches_by_token_and_skips_ssi() {
        let mut bus = MailboxBus::new(BusConfig::reliable(8));
        bus.send(Addr::Ssi, Addr::Token(7), vec![1]);
        bus.send(Addr::Ssi, Addr::Token(2), vec![2]);
        bus.send(Addr::Ssi, Addr::Token(7), vec![3]);
        bus.send(Addr::Token(1), Addr::Ssi, vec![4]);
        bus.send(Addr::Ssi, Addr::Collector, vec![5]);
        bus.run_until_quiet(1_000);
        let mail = bus.take_token_mail();
        let shape: Vec<(usize, usize)> = mail.iter().map(|(i, m)| (*i, m.len())).collect();
        assert_eq!(shape, vec![(2, 1), (7, 2)]);
        assert!(mail[1].1.windows(2).all(|w| w[0].id < w[1].id));
        assert!(bus.take_token_mail().is_empty(), "drained");
        assert_eq!(bus.drain_inbox(Addr::Ssi).len(), 1, "SSI inbox intact");
        assert_eq!(bus.drain_inbox(Addr::Collector).len(), 1);
    }

    #[test]
    fn expiry_counts_only_transmission_attempts() {
        let mut bus = MailboxBus::new(BusConfig {
            seed: 2,
            connectivity: 1.0,
            loss_rate: 1.0, // every attempt lost
            dup_rate: 0.0,
            max_attempts: 4,
        });
        bus.send(Addr::Token(0), Addr::Ssi, vec![1]);
        bus.run_until_quiet(10_000);
        let s = bus.stats();
        assert_eq!(s.expired, 1);
        assert_eq!(s.retries, 4);
        assert_eq!(bus.in_flight(), 0);
    }

    /// `tick` as it stood before flights were stepped in place: every
    /// flight moved through a fresh `Vec`, `online` asked per flight,
    /// the payload cloned into the inbox. The reference the stepped
    /// loop is compared against.
    fn reference_tick(bus: &mut MailboxBus) {
        bus.tick += 1;
        bus.stats.ticks += 1;
        let tick = bus.tick;
        let mut still = Vec::with_capacity(bus.flights.len());
        for mut f in std::mem::take(&mut bus.flights) {
            if f.next_try > tick {
                still.push(f);
                continue;
            }
            let gate = match f.hop {
                Hop::Upload => f.msg.from,
                Hop::Download | Hop::Redeliver => f.msg.to,
            };
            if !bus.online(gate, tick) {
                f.next_try = tick + 1;
                still.push(f);
                continue;
            }
            f.attempts += 1;
            if let Some(rec) = bus.hops.get_mut(&f.msg.id) {
                rec.attempts += 1;
            }
            let lost = unit(mix(
                bus.cfg.seed,
                TAG_LOSS,
                f.msg.id ^ ((f.hop as u64) << 62),
                u64::from(f.attempts),
            )) < bus.cfg.loss_rate;
            if lost {
                bus.stats.retries += 1;
                if f.hop == Hop::Redeliver {
                    continue;
                }
                if f.attempts >= bus.cfg.max_attempts {
                    bus.stats.expired += 1;
                    if let Some(rec) = bus.hops.get_mut(&f.msg.id) {
                        rec.expired = true;
                    }
                    continue;
                }
                bus.stats.backoff_events += 1;
                f.next_try = tick + backoff(BACKOFF_BASE, BACKOFF_CAP, f.attempts);
                still.push(f);
                continue;
            }
            match f.hop {
                Hop::Upload => {
                    f.hop = Hop::Download;
                    f.attempts = 0;
                    f.next_try = tick + 1;
                    still.push(f);
                }
                Hop::Download | Hop::Redeliver => {
                    let dedup = bus.seen.entry(f.msg.to.code()).or_default();
                    if dedup.insert(f.msg.id) {
                        bus.stats.delivered += 1;
                        if let Some(rec) = bus.hops.get_mut(&f.msg.id) {
                            rec.deliver_tick = tick;
                        }
                        bus.inboxes
                            .entry(f.msg.to.code())
                            .or_default()
                            .push(f.msg.clone());
                    } else {
                        bus.stats.duplicates += 1;
                        if let Some(rec) = bus.hops.get_mut(&f.msg.id) {
                            rec.redeliveries += 1;
                        }
                    }
                    if f.hop == Hop::Download
                        && unit(mix(bus.cfg.seed, TAG_ACK, f.msg.id, 0)) < bus.cfg.dup_rate
                    {
                        bus.stats.redeliveries += 1;
                        f.hop = Hop::Redeliver;
                        f.attempts = 0;
                        f.next_try = tick + backoff(BACKOFF_BASE, BACKOFF_CAP, 1);
                        still.push(f);
                    }
                }
            }
        }
        bus.flights = still;
    }

    // The body is pinned against the reference above, so it is left as it
    // was: its `..Default::default()` stopped doing anything when the
    // backoff fields became constants.
    #[test]
    #[allow(clippy::needless_update)]
    fn stepped_tick_equals_the_reference_tick() {
        use pds_obs::rng::{Rng, SeedableRng, StdRng};
        const TOKENS: usize = 12;
        let ctx = TraceContext {
            trace_id: 0xB05,
            parent_span: 1,
        };
        let lossy = |seed, connectivity, max_attempts| BusConfig {
            seed,
            connectivity,
            loss_rate: 0.3,
            dup_rate: 0.3,
            max_attempts,
            ..Default::default()
        };
        let configs = [
            BusConfig::reliable(21),
            lossy(22, 1.0, 24),
            // Expiry at `max_attempts`: most lossy hops run out.
            lossy(23, 1.0, 2),
            lossy(24, 0.3, 24),
            lossy(25, 0.15, 3),
        ];
        for cfg in configs {
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let (mut bus, mut reference) = (MailboxBus::new(cfg), MailboxBus::new(cfg));
            let mut offline = [false; TOKENS];
            for tick in 0..400 {
                // Between ticks: sends from every kind of endpoint,
                // traced and not, and tokens pinned offline and released.
                for _ in 0..rng.gen_range(0..4) {
                    let token = Addr::Token(rng.gen_range(0..TOKENS));
                    let (from, to) = match rng.gen_range(0..5) {
                        0 => (token, Addr::Ssi),
                        1 => (Addr::Ssi, token),
                        2 => (token, Addr::Collector),
                        3 => (Addr::Collector, token),
                        _ => (token, Addr::Token(rng.gen_range(0..TOKENS))),
                    };
                    let mut payload = vec![0u8; rng.gen_range(0..40)];
                    rng.fill(&mut payload[..]);
                    let ctx = rng.gen_bool(0.5).then_some(ctx);
                    let id = bus.send_in(from, to, payload.clone(), ctx);
                    assert_eq!(reference.send_in(from, to, payload, ctx), id);
                }
                if rng.gen_bool(0.05) {
                    let t = rng.gen_range(0..TOKENS);
                    offline[t] = !offline[t];
                    bus.force_offline(t, offline[t]);
                    reference.force_offline(t, offline[t]);
                }
                bus.tick();
                reference_tick(&mut reference);
                assert_eq!(bus.stats(), reference.stats(), "tick {tick}");
                assert_eq!(bus.in_flight(), reference.in_flight(), "tick {tick}");
                let endpoints = (0..TOKENS)
                    .map(Addr::Token)
                    .chain([Addr::Ssi, Addr::Collector]);
                for addr in endpoints {
                    let (got, want) = (bus.drain_inbox(addr), reference.drain_inbox(addr));
                    assert_eq!(got, want, "tick {tick}, inbox of {addr:?}");
                }
                if tick % 7 == 0 {
                    assert_eq!(bus.take_hops(), reference.take_hops(), "tick {tick}");
                }
            }
            for t in 0..TOKENS {
                bus.force_offline(t, false);
                reference.force_offline(t, false);
            }
            bus.run_until_quiet(100_000);
            while reference.in_flight() > 0 {
                reference_tick(&mut reference);
            }
            assert_eq!(bus.stats(), reference.stats());
            assert_eq!(bus.take_hops(), reference.take_hops());
            let s = bus.stats();
            assert!(s.delivered > 0 && s.sent == s.delivered + s.expired);
            if cfg.loss_rate > 0.0 {
                assert!(s.retries > 0 && s.duplicates > 0 && s.redeliveries > 0);
            }
            if cfg.max_attempts < 24 {
                assert!(s.expired > 0, "seed {}: nothing expired", cfg.seed);
            }
        }
    }
}
