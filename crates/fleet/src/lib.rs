//! # pds-fleet — the multi-token ecosystem runtime
//!
//! The tutorial's architecture is *asymmetric*: "millions" of secure
//! tokens — low powered, **highly disconnected** — on one side, and an
//! untrusted but always-available Supporting Server Infrastructure on
//! the other. The other crates build one token and the protocols; this
//! crate builds the *ecosystem*: many tokens at once, weak connectivity
//! and all, with the SSI doing the only thing it is trusted to do —
//! store and forward.
//!
//! The layers:
//!
//! * [`bus`] — the **store-and-forward mailbox bus**: per-endpoint
//!   mailboxes, a seeded connectivity model (each token is online only a
//!   fraction of ticks), at-least-once delivery with retry/backoff,
//!   duplicate re-deliveries absorbed by per-receiver dedup sets, and a
//!   delivery schedule that is a pure function of the seed.
//! * [`sched`] — the **event-driven fleet scheduler**: a `Pds` is
//!   `!Send` (it *is* a secure microcontroller), so each long-lived
//!   shard thread builds and owns its tokens' slots; the driver runs
//!   one logical tick loop that drains bus deliveries into per-shard
//!   batches and wakes only the tokens that have mail or a phase
//!   obligation, evicting least-recently-woken state to flash
//!   snapshots so resident RAM stays bounded at 100k+ tokens. It is the
//!   only runtime that hosts tokens: [`TokenPool`] is the scheduler with
//!   a cap that covers the fleet (phase barriers over an always-resident
//!   fleet), hosting the Trusted-Cells sync network, and [`SubNet`]
//!   hosts its subscription fleet on it directly, a power cycle being
//!   the scheduler's park and wake. Under it sits a private shard-thread
//!   substrate (`shards.rs`): spawn, job channel, the trace scope around
//!   a token's turn, join on drop.
//! * [`agg`] / [`cellnet`] — \[TNP14\] secure aggregation and the
//!   Trusted-Cells sync pass re-hosted as **phased fleet jobs**
//!   (collection → SSI shuffle/compute → result distribution) on top of
//!   the scheduler. Neither owns its protocol: `agg` is the bus/scheduler
//!   driver of the protocol core in `pds_global::secure_agg` (seal,
//!   fold, the SSI's `Reduction` plan and its verify step), exactly as
//!   `cellnet` drives `pds_sync`'s generation digest (`digest_requests`,
//!   `serve_cloud`, `apply_changed`) — each also has a direct
//!   in-process driver (`secure_aggregation`, `TrustedCell::sync`) the
//!   bus run is tested against.
//! * [`subs`] — **continuous queries as a fleet workload**: every token
//!   holds a standing predicate on its own PDS (MVCC change-log
//!   cursors), polls it after each commit round and mails the sealed
//!   result delta to the SSI collector, whose `(token, round)` ledger
//!   measures the exactly-once property instead of assuming it.
//! * [`telemetry`] — the **in-band telemetry plane**: per-token metric
//!   deltas ride the same bus as the protocols (envelopes to an
//!   always-online collector role), fold into tick-indexed rollups with
//!   bounded memory, and feed a declarative health engine whose
//!   [`FleetHealth`] verdict is bit-identical
//!   at any worker count.
//! * [`trace`] — the **fleet-trace stitcher**: run a driver inside a
//!   `pds_obs::trace::trace` scope and each token's turn runs in a scope
//!   of its own on its worker, the tree comes back beside the turn's
//!   result, and the driver stitches the trees and every bus message's
//!   hop history into one causal [`FleetTrace`](pds_obs::FleetTrace)
//!   per round, recorded into the caller's scope — per-phase straggler
//!   hops (the critical path, in bus ticks) and per-token flash/RAM
//!   attribution, bit-for-bit identical at any worker count. With no
//!   scope open nothing is stitched and a token's spans are inert
//!   guards.
//!
//! The determinism contract threaded through all of it: every random
//! decision is a derived hash stream — per-token data and encryption
//! streams `(seed, tag, token)`, per-partition re-encryption streams
//! `(seed, round, partition)`, bus connectivity/loss `(seed, message
//! id, tick)`, SSI drop/forge verdicts `(seed, message id)`. Worker
//! threads only compute pure per-token functions between phase
//! barriers, so for a fixed seed the protocol result, the leakage
//! ledger, and the bus statistics are bit-for-bit identical at 1, 2, or
//! 8 workers — `tests/fleet.rs` proves it.

pub mod agg;
pub mod bus;
pub mod cellnet;
pub mod sched;
mod shards;
pub mod subs;
pub mod telemetry;
pub mod trace;

pub use agg::{
    build_fleet, build_token, derived_rng, fleet_secure_aggregation, EvictPolicy, Fleet,
    FleetAggReport, FleetConfig, OnTamper, PdsHost, TelemetrySummary,
};
pub use bus::{Addr, BusConfig, BusMsg, BusStats, HopRecord, MailboxBus};
pub use cellnet::{CellNet, CellNetConfig};
pub use sched::{FleetError, FleetScheduler, SchedStats, TokenHost, TokenPool, Visit};
pub use subs::{SubNet, SubNetConfig, SubRoundReport};
pub use telemetry::{
    mail_forensics, Collector, CollectorStats, FleetHealth, ForensicsDigest, HealthEngine,
    HealthRule, TelemetryMsg,
};
pub use trace::FleetTraceBuilder;
