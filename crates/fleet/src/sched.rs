//! The event-driven fleet scheduler: the one runtime that hosts tokens.
//!
//! A live [`pds_core::Pds`] carries a search engine, table buffers and a
//! flash handle, and on the tutorial's weakly-connected fabric *almost
//! all* of a "millions of users" fleet is idle at any given moment. This
//! module hosts the fleet the way the paper describes it:
//!
//! * **Sharded ownership** — tokens are `!Send`, so each long-lived
//!   worker thread owns the slots of a contiguous index range and builds
//!   or wakes tokens in place. Work is shipped to shards as batches and
//!   merged back in token-index order.
//! * **Visit on mail or obligation** — the driver runs the single
//!   logical tick loop ([`pump`]): it ticks the [`MailboxBus`], drains
//!   newly delivered messages into per-token batches, and dispatches
//!   *only the tokens that have mail* (plus whole-fleet phase
//!   obligations, which [`FleetScheduler::dispatch_all`] runs as bounded
//!   waves).
//! * **A visit revives on first use** — a turn gets a [`Visit`], not the
//!   token: [`Visit::token`] builds or revives the slot the first time it
//!   is called. A turn that never calls it leaves the slot exactly as it
//!   was — still parked with the same sleep state, or never built —
//!   having read and programmed nothing.
//! * **Idle-state eviction** — the driver keeps a deterministic LRU over
//!   resident tokens (those a turn built or revived); beyond
//!   [`FleetScheduler::resident_cap`] the oldest are evicted down to
//!   persistent state via the [`TokenHost`]: either hibernated to a
//!   sparse flash snapshot (`pds-flash`'s `ChipSnapshot`) or dropped
//!   entirely and rebuilt from the factory on the next use (sound
//!   whenever a token is a pure function of its index, as every fleet
//!   token is). Room is made before a wave for every visitor that is
//!   not resident, since any of them may ask for its token.
//!
//! A cap that covers the fleet evicts nothing: every token stays live
//! from its first use on, unless the driver parks it
//! ([`FleetScheduler::park`]) — which is how the subscription fleet
//! (`subs`) power-cycles a token. [`TokenPool`] is that case behind
//! `&self` — the fleet built up front, phases as whole-fleet barriers —
//! and hosts the Trusted-Cells network.
//!
//! Determinism: the residency model — stamps, LRU order, eviction
//! victims, wave boundaries — lives entirely on the single-threaded
//! driver and is a pure function of the dispatch sequence and of which
//! turns asked for their token, never of shard layout or thread timing.
//! Workers only ever execute pure per-token closures on the slots the
//! driver names, and report back which slots they built or revived. So
//! every observable (results, `sched.*` counters, the
//! `fleet.resident_tokens` gauge) is bit-identical at any worker count.
//!
//! Tracing: a dispatch given a [`TraceContext`] runs each token's turn
//! in a `token.N` trace scope on its shard — with the build or revival
//! [`Visit::token`] runs set aside from it
//! ([`pds_obs::trace::untraced`]), since that is the scheduler's work
//! and not the phase's — and the shard returns the trees beside the
//! results. They are merged in token order like the results and kept
//! until the driver takes them ([`FleetScheduler::take_spans`]) for the
//! stitcher.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;
use std::sync::mpsc::channel;
use std::sync::Arc;

use pds_obs::{FinishedSpan, TraceContext};

use crate::bus::{BusMsg, MailboxBus};
use crate::shards::{token_turn, ShardThreads, Turn};

/// A typed fleet-runtime failure. Thread exhaustion on a big fleet
/// degrades into an error the caller can handle instead of a panic.
#[derive(Debug)]
pub enum FleetError {
    /// The OS refused to spawn a fleet worker thread.
    SpawnFailed {
        /// Worker index that failed to start.
        worker: usize,
        /// The underlying OS error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::SpawnFailed { worker, source } => {
                write!(f, "spawning fleet worker {worker} failed: {source}")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::SpawnFailed { source, .. } => Some(source),
        }
    }
}

/// How a shard materializes, parks and revives one token. The host is
/// cloned into every worker thread; the tokens and sleep states it
/// produces never leave their shard (tokens may be `!Send`).
pub trait TokenHost: Send + Clone + 'static {
    /// The live (possibly `!Send`) token.
    type Token;
    /// The parked idle-state (a fraction of the live footprint).
    type Sleep;

    /// Build token `i` from scratch — a pure function of the index.
    fn create(&self, i: usize) -> Self::Token;

    /// Park token `i`: return its persistent state, or `None` to drop it
    /// entirely (it will be re-`create`d when a turn next uses it).
    fn hibernate(&self, i: usize, token: Self::Token) -> Option<Self::Sleep>;

    /// Revive token `i` from its parked state.
    fn wake(&self, i: usize, sleep: Self::Sleep) -> Self::Token;
}

/// Deterministic scheduler accounting — driver-side model plus summed
/// worker reports, bit-identical at any worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Visits dispatched (mail batches + obligation waves), whether or
    /// not the turn asked for its token.
    pub wakes: u64,
    /// First-ever builds of a token, by the first turn that asked for it.
    pub cold_builds: u64,
    /// Factory builds a turn asked for, of a token evicted before without
    /// sleep state (drop-and-rebuild policy).
    pub rebuilds: u64,
    /// Revivals from hibernated sleep state a turn asked for.
    pub sleep_wakes: u64,
    /// Residents parked to make room under the cap.
    pub evictions: u64,
    /// Dispatch waves shipped (driver-side count, independent of how
    /// many shards each wave touched).
    pub batches: u64,
    /// High-water mark of simultaneously live tokens: those a turn built
    /// or revived and no eviction has parked since.
    pub peak_resident: u64,
}

impl SchedStats {
    /// Canonical `(name, value)` export (the `sched.*` vocabulary).
    pub fn named(&self) -> [(&'static str, u64); 6] {
        [
            ("sched.wakes", self.wakes),
            ("sched.cold_builds", self.cold_builds),
            ("sched.rebuilds", self.rebuilds),
            ("sched.sleep_wakes", self.sleep_wakes),
            ("sched.evictions", self.evictions),
            ("sched.batches", self.batches),
        ]
    }

    /// Counters accrued since `earlier` (field-wise saturating).
    /// `peak_resident` is a monotone high-water mark, not a counter, so
    /// the current peak is carried through unchanged.
    pub fn since(&self, earlier: &SchedStats) -> SchedStats {
        SchedStats {
            wakes: self.wakes.saturating_sub(earlier.wakes),
            cold_builds: self.cold_builds.saturating_sub(earlier.cold_builds),
            rebuilds: self.rebuilds.saturating_sub(earlier.rebuilds),
            sleep_wakes: self.sleep_wakes.saturating_sub(earlier.sleep_wakes),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            batches: self.batches.saturating_sub(earlier.batches),
            peak_resident: self.peak_resident,
        }
    }

    /// Mirror the counters into the global registry under the uniform
    /// `sched.*` names, plus the `fleet.resident_tokens` high-water
    /// gauge — the observable that proves eviction kept residency
    /// bounded.
    pub fn publish(&self) {
        for (name, v) in self.named() {
            pds_obs::counter(name).add(v);
        }
        pds_obs::gauge("fleet.resident_tokens").record_max(self.peak_resident);
    }
}

/// One shard slot: the live token, or its parked state, or neither
/// (never built, or dropped at eviction). Never both. Boxed, so a slot
/// that holds neither costs two null pointers and a parked token only
/// its sleep state.
struct Slot<H: TokenHost> {
    live: Option<Box<H::Token>>,
    asleep: Option<Box<H::Sleep>>,
}

impl<H: TokenHost> Slot<H> {
    fn empty() -> Self {
        Slot {
            live: None,
            asleep: None,
        }
    }
}

/// How a turn's first [`Visit::token`] found its slot.
#[derive(Clone, Copy)]
enum Revival {
    /// Empty (never built, or dropped at eviction): built by the factory.
    Built,
    /// Parked: revived from its sleep state.
    Woke,
}

/// One token's slot for the length of its turn, borrowed in place. The
/// token is built or revived the first time the turn asks for it
/// ([`Visit::token`]); a turn that never asks leaves the slot exactly as
/// it found it — still parked with the same sleep state, or never built
/// — and costs the token nothing.
pub struct Visit<'a, H: TokenHost> {
    index: usize,
    host: &'a H,
    slot: &'a mut Slot<H>,
    revival: Option<Revival>,
}

impl<'a, H: TokenHost> Visit<'a, H> {
    /// The live token. The first call of a turn builds it from the
    /// factory or revives it from its sleep state if it is not live —
    /// outside the turn's trace scope, since that is the scheduler's
    /// work — and later calls hand back the same token.
    pub fn token(&mut self) -> &mut H::Token {
        let Visit {
            index,
            host,
            slot,
            revival,
        } = self;
        let Slot { live, asleep } = &mut **slot;
        live.get_or_insert_with(|| {
            Box::new(pds_obs::trace::untraced(|| match asleep.take() {
                Some(sleep) => {
                    *revival = Some(Revival::Woke);
                    host.wake(*index, *sleep)
                }
                None => {
                    *revival = Some(Revival::Built);
                    host.create(*index)
                }
            }))
        })
    }
}

/// Worker-thread state: the host plus this shard's slots.
struct Shard<H: TokenHost> {
    host: H,
    /// Token `i`'s slot at `i % chunk`: a shard owns `chunk` consecutive
    /// indices. Grown on a token's first visit.
    slots: Vec<Slot<H>>,
    chunk: usize,
}

impl<H: TokenHost> Shard<H> {
    /// The host beside token `i`'s slot, borrowed together for a turn.
    fn slot(&mut self, i: usize) -> (&H, &mut Slot<H>) {
        let at = i % self.chunk;
        if self.slots.len() <= at {
            self.slots.resize_with(at + 1, Slot::empty);
        }
        (&self.host, &mut self.slots[at])
    }
}

/// The event-driven fleet scheduler (see module docs).
pub struct FleetScheduler<H: TokenHost> {
    shards: ShardThreads<Shard<H>>,
    n_tokens: usize,
    chunk: usize,
    cap: usize,
    /// Driver-side residency model: resident token → last-wake stamp.
    resident: BTreeMap<usize, u64>,
    /// Inverse index for LRU eviction: stamp → token.
    lru: BTreeMap<u64, usize>,
    ever_built: Vec<bool>,
    stamp: u64,
    stats: SchedStats,
    /// The `token.N` trees of the traced dispatches since the last
    /// [`FleetScheduler::take_spans`], in dispatch order and, within a
    /// dispatch, in token order.
    spans: Vec<FinishedSpan>,
}

impl<H: TokenHost> FleetScheduler<H> {
    /// Spawn `workers` shard threads hosting `n_tokens` slots with at
    /// most `resident_cap` tokens live at once. Nothing is built yet:
    /// a token is built the first time a turn asks for it.
    pub fn build(
        n_tokens: usize,
        workers: usize,
        resident_cap: usize,
        host: H,
    ) -> Result<Self, FleetError> {
        let workers = workers.max(1).min(n_tokens.max(1));
        let chunk = n_tokens.max(1).div_ceil(workers);
        let shards = ShardThreads::spawn(workers, move || Shard {
            host,
            slots: Vec::with_capacity(chunk),
            chunk,
        })?;
        Ok(FleetScheduler {
            shards,
            n_tokens,
            chunk,
            cap: resident_cap.max(1),
            resident: BTreeMap::new(),
            lru: BTreeMap::new(),
            ever_built: vec![false; n_tokens],
            stamp: 0,
            stats: SchedStats::default(),
            spans: Vec::new(),
        })
    }

    /// Number of token slots hosted.
    pub fn len(&self) -> usize {
        self.n_tokens
    }

    /// True when the scheduler hosts no tokens.
    pub fn is_empty(&self) -> bool {
        self.n_tokens == 0
    }

    /// Number of shard worker threads.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// The resident-token ceiling.
    pub fn resident_cap(&self) -> usize {
        self.cap
    }

    /// Tokens currently live across all shards (driver model).
    pub fn resident(&self) -> usize {
        self.resident.len()
    }

    /// Scheduler accounting so far.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Mirror the lifetime counters into the global registry (see
    /// [`SchedStats::publish`]).
    pub fn publish(&self) {
        self.stats.publish();
    }

    /// Remove and return the span trees of every traced dispatch since
    /// the last call — one `token.N` tree per token turn. The driver
    /// hands them to the trace stitcher at each phase end, beside the
    /// bus's hop log.
    pub fn take_spans(&mut self) -> Vec<FinishedSpan> {
        std::mem::take(&mut self.spans)
    }

    /// The tokens parked with a sleep state right now — evictions queued
    /// so far included — as `(how many, the sum of weigh(sleep))`: what
    /// a hibernating fleet keeps for the tokens it is not running.
    /// Tokens dropped for a factory rebuild hold nothing and count for
    /// nothing.
    pub fn parked(&self, weigh: fn(&H::Sleep) -> u64) -> (u64, u64) {
        let (tx, rx) = channel();
        for shard in 0..self.shards.len() {
            let tx = tx.clone();
            self.shards.send(shard, move |shard: &mut Shard<H>| {
                let asleep = shard
                    .slots
                    .iter()
                    .filter_map(|slot| slot.asleep.as_deref().map(weigh));
                let _ = tx.send(asleep.fold((0, 0), |(n, sum), w| (n + 1, sum + w)));
            });
        }
        drop(tx);
        rx.iter().fold((0, 0), |(n, sum), (m, w)| (n + m, sum + w))
    }

    fn shard_of(&self, token: usize) -> usize {
        token / self.chunk.max(1)
    }

    /// Evict `victim` from the driver model and queue the park job on
    /// its shard.
    fn evict(&mut self, victim: usize) {
        let Some(stamp) = self.resident.remove(&victim) else {
            return;
        };
        self.lru.remove(&stamp);
        self.stats.evictions += 1;
        // A dead worker already fails the run's phase dispatch loudly;
        // an eviction racing that teardown can only be dropped.
        let _ = self.shards.send(self.shard_of(victim), move |shard| {
            // Only a live token is parked; a slot already asleep keeps
            // its sleep state.
            let (host, slot) = shard.slot(victim);
            if let Some(token) = slot.live.take() {
                slot.asleep = host.hibernate(victim, *token).map(Box::new);
            }
        });
    }

    /// Park token `i` now, as the cap parks its least recently woken
    /// resident: the host hibernates it on its shard, and the next turn
    /// that asks for it wakes it. A token that is not resident is left
    /// as it is.
    pub fn park(&mut self, i: usize) {
        self.evict(i);
    }

    /// Dispatch `f` over `items` — `(token, mail)` pairs ordered by
    /// token index — visiting each named token, and return the outputs
    /// merged back in token-index order. A turn that needs the token asks
    /// its [`Visit`] for it, which builds or revives it then; one that
    /// does not leaves the slot as it was.
    ///
    /// The item list is processed in waves of at most `resident_cap`
    /// tokens; before each wave, least-recently-woken residents outside
    /// the wave are evicted to make room for every visitor not resident,
    /// so residency never exceeds the cap.
    ///
    /// `ctx` says whether the phase is traced: with `Some`, each token's
    /// turn runs in a `token.N` trace scope on its shard and the trees
    /// are kept for [`FleetScheduler::take_spans`].
    pub fn dispatch<R, F>(
        &mut self,
        ctx: Option<TraceContext>,
        items: Vec<(usize, Vec<BusMsg>)>,
        f: F,
    ) -> Vec<(usize, R)>
    where
        R: Send + 'static,
        F: Fn(usize, &mut Visit<'_, H>, Vec<BusMsg>) -> R + Send + Clone + 'static,
    {
        let mut out = Vec::with_capacity(items.len());
        let mut items = items;
        while !items.is_empty() {
            let rest = items.split_off(items.len().min(self.cap));
            let wave = std::mem::replace(&mut items, rest);
            out.extend(self.run_wave(ctx, wave, f.clone()));
        }
        out
    }

    /// Whole-fleet phase obligation: every token, no mail.
    pub fn dispatch_all<R, F>(&mut self, ctx: Option<TraceContext>, f: F) -> Vec<(usize, R)>
    where
        R: Send + 'static,
        F: Fn(usize, &mut Visit<'_, H>, Vec<BusMsg>) -> R + Send + Clone + 'static,
    {
        let items = (0..self.n_tokens).map(|i| (i, Vec::new())).collect();
        self.dispatch(ctx, items, f)
    }

    /// Build every token once (manufacture up-front). Only useful when
    /// the cap covers the fleet; with a tight cap tokens would just be
    /// evicted again before use.
    pub fn warm(&mut self) {
        let _ = self.dispatch_all(None, |_, visit, _| {
            visit.token();
        });
    }

    fn run_wave<R, F>(
        &mut self,
        ctx: Option<TraceContext>,
        wave: Vec<(usize, Vec<BusMsg>)>,
        f: F,
    ) -> Vec<(usize, R)>
    where
        R: Send + 'static,
        F: Fn(usize, &mut Visit<'_, H>, Vec<BusMsg>) -> R + Send + Clone + 'static,
    {
        if wave.is_empty() {
            return Vec::new();
        }
        debug_assert!(wave.len() <= self.cap);
        // The LRU order only picks eviction victims: a cap that covers
        // the fleet never evicts, so it keeps no order.
        let lru = self.cap < self.n_tokens;
        let wave_set: BTreeSet<usize> = wave.iter().map(|(i, _)| *i).collect();
        // Bump already-resident wave members to most-recently-woken, so
        // the LRU front can only hold evictable outsiders.
        for &i in wave_set.iter().filter(|_| lru) {
            if let Some(stamp) = self.resident.get_mut(&i) {
                self.lru.remove(stamp);
                self.stamp += 1;
                *stamp = self.stamp;
                self.lru.insert(self.stamp, i);
            }
        }
        // Room for every visitor not resident: any of them may ask for
        // its token.
        let newcomers = wave_set
            .iter()
            .filter(|i| !self.resident.contains_key(i))
            .count();
        while self.resident.len() + newcomers > self.cap {
            let Some((_, &victim)) = self.lru.iter().next() else {
                break;
            };
            if wave_set.contains(&victim) {
                break; // only wave members left resident; wave ≤ cap fits
            }
            self.evict(victim);
        }
        self.stats.wakes += wave.len() as u64;

        // Partition the wave by owning shard and ship one batch per
        // shard touched.
        let mut per_shard: BTreeMap<usize, Vec<(usize, Vec<BusMsg>)>> = BTreeMap::new();
        for (i, mail) in wave {
            per_shard
                .entry(self.shard_of(i))
                .or_default()
                .push((i, mail));
        }
        let (out_tx, out_rx) = channel::<(Vec<Turn<R>>, Vec<(usize, Revival)>)>();
        let mut expect = 0usize;
        for (shard_idx, batch) in per_shard {
            expect += batch.len();
            let f = f.clone();
            let out_tx = out_tx.clone();
            let alive = self.shards.send(shard_idx, move |shard: &mut Shard<H>| {
                let mut turns = Vec::with_capacity(batch.len());
                let mut revived = Vec::new();
                for (i, mail) in batch {
                    let (host, slot) = shard.slot(i);
                    let mut visit = Visit {
                        index: i,
                        host,
                        slot,
                        revival: None,
                    };
                    turns.push(token_turn(ctx, i, || f(i, &mut visit, mail)));
                    if let Some(how) = visit.revival {
                        revived.push((i, how));
                    }
                }
                // The driver only hangs up after every send; ignore its
                // early death (a panic elsewhere already unwinds us).
                let _ = out_tx.send((turns, revived));
            });
            assert!(alive, "a fleet shard died");
        }
        drop(out_tx);
        self.stats.batches += 1;
        let mut merged = Vec::with_capacity(expect);
        let mut revived = Vec::new();
        for (turns, built_or_woke) in &out_rx {
            merged.extend(turns);
            revived.extend(built_or_woke);
        }
        assert_eq!(merged.len(), expect, "a fleet shard panicked");
        // What the turns built or revived is resident now, stamped in
        // token order.
        revived.sort_by_key(|(i, _)| *i);
        for (i, how) in revived {
            self.stamp += 1;
            self.resident.insert(i, self.stamp);
            if lru {
                self.lru.insert(self.stamp, i);
            }
            match how {
                Revival::Woke => self.stats.sleep_wakes += 1,
                Revival::Built if self.ever_built[i] => self.stats.rebuilds += 1,
                Revival::Built => {
                    self.ever_built[i] = true;
                    self.stats.cold_builds += 1;
                }
            }
        }
        self.stats.peak_resident = self.stats.peak_resident.max(self.resident.len() as u64);
        pds_obs::gauge("fleet.resident_tokens").record_max(self.resident.len() as u64);
        merged.sort_by_key(|(i, ..)| *i);
        let mut results = Vec::with_capacity(expect);
        for (i, r, tree) in merged {
            results.push((i, r));
            self.spans.extend(tree);
        }
        results
    }
}

/// A [`TokenPool`]'s host: tokens come from the factory and are never
/// parked, since the pool's cap covers its fleet.
type Factory<T> = Arc<dyn Fn(usize) -> T + Send + Sync>;

impl<T: 'static> TokenHost for Factory<T> {
    type Token = T;
    type Sleep = Infallible;

    fn create(&self, i: usize) -> T {
        self(i)
    }

    fn hibernate(&self, _: usize, _: T) -> Option<Infallible> {
        None
    }

    fn wake(&self, _: usize, sleep: Infallible) -> T {
        match sleep {}
    }
}

/// The whole fleet resident, driven through `&self`: a
/// [`FleetScheduler`] whose cap covers the fleet, every token built up
/// front, and phases that are whole-fleet barriers.
///
/// Determinism contract: a phase closure derives any randomness it needs
/// from the token index (per-token RNG streams), never from shared
/// mutable state — then `map(f)` at 1, 2 and 8 workers is bit-for-bit
/// identical.
pub struct TokenPool<T: 'static> {
    sched: RefCell<FleetScheduler<Factory<T>>>,
}

impl<T: 'static> TokenPool<T> {
    /// Build `n_tokens` tokens sharded over `workers` threads. The
    /// factory runs on the owning shard (tokens may be `!Send`); a
    /// refused thread spawn surfaces as [`FleetError::SpawnFailed`].
    pub fn build<F>(n_tokens: usize, workers: usize, factory: F) -> Result<Self, FleetError>
    where
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        let host: Factory<T> = Arc::new(factory);
        let mut sched = FleetScheduler::build(n_tokens, workers, n_tokens, host)?;
        sched.warm();
        Ok(TokenPool {
            sched: RefCell::new(sched),
        })
    }

    /// Number of shard worker threads.
    pub fn workers(&self) -> usize {
        self.sched.borrow().workers()
    }

    /// Phase barrier: run `f` on every token in parallel, then return
    /// the results ordered by token index.
    pub fn map<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize, &mut T) -> R + Send + Clone + 'static,
    {
        self.map_traced(None, f).0
    }

    /// [`TokenPool::map`] inside a traced phase (`ctx` is `Some`): each
    /// token's turn runs in a `token.N` trace scope on its shard, and the
    /// trees come back beside the results, both in token order. With
    /// `ctx: None` no tree is returned.
    pub fn map_traced<R, F>(&self, ctx: Option<TraceContext>, f: F) -> (Vec<R>, Vec<FinishedSpan>)
    where
        R: Send + 'static,
        F: Fn(usize, &mut T) -> R + Send + Clone + 'static,
    {
        let mut sched = self.sched.borrow_mut();
        let out = sched.dispatch_all(ctx, move |i, visit, _| f(i, visit.token()));
        (
            out.into_iter().map(|(_, r)| r).collect(),
            sched.take_spans(),
        )
    }

    /// Run `f` on token `i` alone; `None` when the pool does not host it.
    pub fn with<R, F>(&self, i: usize, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: Fn(&mut T) -> R + Send + Clone + 'static,
    {
        let mut sched = self.sched.borrow_mut();
        if i >= sched.len() {
            return None;
        }
        let out = sched.dispatch(None, vec![(i, Vec::new())], move |_, visit, _| {
            f(visit.token())
        });
        out.into_iter().next().map(|(_, r)| r)
    }
}

/// Drive the bus until quiet, visiting tokens as mail lands — the single
/// logical tick loop of an event-driven phase.
///
/// Each iteration ticks the bus once and accumulates newly delivered
/// token mail; batches are dispatched to the shards when `batch_ticks`
/// have elapsed since the last dispatch (or immediately once the bus is
/// quiet), and `on_batch` runs on the driver with bus access so handler
/// outputs can send follow-up messages inside the same loop. Returns the
/// ticks spent once no message is in flight and no mail is pending, or
/// after `max_ticks`.
///
/// Determinism: single-threaded over a seed-deterministic bus — the
/// batch boundaries, wake order and everything downstream are pure
/// functions of the seed and the send sequence.
pub fn pump<H, R, F, G, E>(
    bus: &mut MailboxBus,
    sched: &mut FleetScheduler<H>,
    ctx: Option<TraceContext>,
    max_ticks: u64,
    batch_ticks: u64,
    f: F,
    mut on_batch: G,
) -> Result<u64, E>
where
    H: TokenHost,
    R: Send + 'static,
    F: Fn(usize, &mut Visit<'_, H>, Vec<BusMsg>) -> R + Send + Clone + 'static,
    G: FnMut(&mut MailboxBus, Vec<(usize, R)>) -> Result<(), E>,
{
    let start = bus.now();
    let batch_ticks = batch_ticks.max(1);
    let mut pending: BTreeMap<usize, Vec<BusMsg>> = BTreeMap::new();
    for (i, msgs) in bus.take_token_mail() {
        pending.insert(i, msgs);
    }
    let mut last_dispatch = bus.now();
    loop {
        let quiet = bus.in_flight() == 0;
        if !pending.is_empty() && (quiet || bus.now() - last_dispatch >= batch_ticks) {
            let items: Vec<(usize, Vec<BusMsg>)> =
                std::mem::take(&mut pending).into_iter().collect();
            let outs = sched.dispatch(ctx, items, f.clone());
            on_batch(bus, outs)?;
            last_dispatch = bus.now();
            continue; // the replies may already be deliverable
        }
        if quiet && pending.is_empty() {
            break;
        }
        if bus.now() - start >= max_ticks {
            break;
        }
        bus.tick();
        for (i, mut msgs) in bus.take_token_mail() {
            pending.entry(i).or_default().append(&mut msgs);
        }
    }
    Ok(bus.now() - start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{Addr, BusConfig};

    /// A deliberately `!Send` token stand-in whose sleep state is its
    /// counter value.
    struct CounterToken {
        idx: usize,
        hits: std::rc::Rc<std::cell::RefCell<u64>>,
    }

    #[derive(Clone)]
    struct CounterHost {
        drop_on_evict: bool,
    }

    impl TokenHost for CounterHost {
        type Token = CounterToken;
        type Sleep = u64;

        fn create(&self, i: usize) -> CounterToken {
            let _span = pds_obs::span!("host.create");
            CounterToken {
                idx: i,
                hits: std::rc::Rc::new(std::cell::RefCell::new(0)),
            }
        }

        fn hibernate(&self, _i: usize, t: CounterToken) -> Option<u64> {
            (!self.drop_on_evict).then(|| *t.hits.borrow())
        }

        fn wake(&self, i: usize, sleep: u64) -> CounterToken {
            let _span = pds_obs::span!("host.wake");
            let t = self.create(i);
            *t.hits.borrow_mut() = sleep;
            t
        }
    }

    fn sched(
        n: usize,
        workers: usize,
        cap: usize,
        drop_on_evict: bool,
    ) -> FleetScheduler<CounterHost> {
        FleetScheduler::build(n, workers, cap, CounterHost { drop_on_evict }).unwrap()
    }

    fn touch_all(s: &mut FleetScheduler<CounterHost>) -> Vec<u64> {
        s.dispatch_all(None, |i, visit, _| {
            let t = visit.token();
            assert_eq!(i, t.idx);
            *t.hits.borrow_mut() += 1;
            *t.hits.borrow()
        })
        .into_iter()
        .map(|(_, v)| v)
        .collect()
    }

    /// One turn of token `i` that counts a hit and returns the total.
    fn touch(s: &mut FleetScheduler<CounterHost>, i: usize) -> u64 {
        let out = s.dispatch(None, vec![(i, Vec::new())], |_, visit, _| {
            let t = visit.token();
            *t.hits.borrow_mut() += 1;
            *t.hits.borrow()
        });
        out[0].1
    }

    /// One turn of token `i` that never asks for its token.
    fn pass_by(s: &mut FleetScheduler<CounterHost>, i: usize) {
        s.dispatch(None, vec![(i, Vec::new())], |_, _, _| ());
    }

    #[test]
    fn a_visit_that_never_asks_leaves_a_parked_token_as_it_was() {
        let mut s = sched(4, 2, 2, false);
        assert_eq!(touch(&mut s, 0), 1);
        touch(&mut s, 1);
        touch(&mut s, 2); // parks token 0 on one hit
        let before = s.stats();
        // Visited without a use of its token — which makes room for it
        // all the same — then pushed past by more traffic under the cap.
        pass_by(&mut s, 0);
        touch(&mut s, 3);
        touch(&mut s, 1);
        assert_eq!(
            touch(&mut s, 0),
            2,
            "the sleep state outlived the visit and the evictions around it"
        );
        let st = s.stats().since(&before);
        assert_eq!((st.wakes, st.sleep_wakes, st.rebuilds), (4, 2, 0));
        assert_eq!(st.cold_builds, 1, "token 3 only");
    }

    #[test]
    fn a_build_is_counted_by_the_turn_that_asks_for_it() {
        for drop_on_evict in [false, true] {
            let mut s = sched(4, 1, 4, drop_on_evict);
            pass_by(&mut s, 2);
            assert_eq!(s.stats().cold_builds, 0, "nothing was built");
            assert_eq!(touch(&mut s, 2), 1);
            let st = s.stats();
            assert_eq!((st.wakes, st.cold_builds, st.rebuilds), (2, 1, 0));
            assert_eq!(st.sleep_wakes, 0);
        }
    }

    #[test]
    fn untouched_visitors_never_count_as_resident() {
        let mut s = sched(12, 3, 4, false);
        s.dispatch_all(None, |_, _, _| ());
        assert_eq!(s.resident(), 0);
        assert_eq!(s.stats().peak_resident, 0);
        assert_eq!(s.stats().cold_builds, 0);
        assert_eq!(s.parked(|hits| *hits), (0, 0), "no slot was filled");
        touch(&mut s, 0);
        touch(&mut s, 1);
        // Room is made for every visitor, so the two residents are parked
        // by the second wave; none of the visitors becomes resident.
        s.dispatch_all(None, |_, _, _| ());
        assert_eq!(s.resident(), 0);
        assert_eq!(s.stats().peak_resident, 2);
        assert_eq!(s.stats().evictions, 2);
        assert_eq!(s.parked(|hits| *hits), (2, 2));
    }

    #[test]
    fn dispatch_merges_in_token_order() {
        let mut s = sched(17, 4, 64, false);
        let out = touch_all(&mut s);
        assert_eq!(out, vec![1; 17]);
        assert_eq!(s.stats().cold_builds, 17);
        assert_eq!(s.stats().evictions, 0);
        assert_eq!(s.resident(), 17);
    }

    #[test]
    fn hibernation_preserves_state_under_a_tight_cap() {
        let mut s = sched(12, 3, 4, false);
        touch_all(&mut s);
        let out = touch_all(&mut s);
        // Every token remembered its first hit through eviction.
        assert_eq!(out, vec![2; 12]);
        let st = s.stats();
        assert!(st.evictions > 0, "the cap forced evictions");
        assert!(st.sleep_wakes > 0, "state came back from sleep");
        assert_eq!(st.rebuilds, 0);
        assert!(st.peak_resident <= 4);
        assert!(s.resident() <= 4);
    }

    #[test]
    fn parked_weighs_the_tokens_asleep_and_no_others() {
        let mut s = sched(12, 3, 4, false);
        touch_all(&mut s);
        touch_all(&mut s);
        // The last wave of four is resident; eight sleep on two hits each.
        assert_eq!(s.parked(|hits| *hits), (8, 16));
        let mut dropped = sched(12, 3, 4, true);
        touch_all(&mut dropped);
        assert_eq!(dropped.parked(|hits| *hits), (0, 0));
    }

    #[test]
    fn drop_policy_rebuilds_from_the_factory() {
        let mut s = sched(12, 3, 4, true);
        touch_all(&mut s);
        let out = touch_all(&mut s);
        // Dropped tokens restarted from zero: pure-function rebuild.
        assert!(out.iter().filter(|v| **v == 1).count() >= 8);
        let st = s.stats();
        assert!(st.rebuilds > 0);
        assert_eq!(st.sleep_wakes, 0);
        assert!(st.peak_resident <= 4);
    }

    #[test]
    fn stats_and_results_are_shard_count_independent() {
        let run = |workers: usize| {
            let mut s = sched(23, workers, 7, false);
            let a = touch_all(&mut s);
            let b = s
                .dispatch(None, vec![(3, Vec::new()), (19, Vec::new())], |_, v, _| {
                    *v.token().hits.borrow()
                })
                .into_iter()
                .collect::<Vec<_>>();
            (a, b, s.stats())
        };
        assert_eq!(run(1), run(2));
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn a_traced_dispatch_keeps_one_tree_per_turn_and_no_residency_fix_up() {
        let ctx = Some(TraceContext {
            trace_id: 1,
            parent_span: 1,
        });
        let run = |workers: usize| {
            let mut s = sched(10, workers, 4, false);
            let work = |_: usize, v: &mut Visit<'_, CounterHost>, _: Vec<BusMsg>| {
                let t = v.token();
                let g = pds_obs::span!("token.work");
                g.set("hits", *t.hits.borrow());
                *t.hits.borrow_mut() += 1;
            };
            // Cold builds in the first dispatch, wakes from sleep in the
            // second: both open spans, both outside the token's scope.
            s.dispatch_all(ctx, work);
            s.dispatch_all(ctx, work);
            assert!(s.stats().cold_builds == 10 && s.stats().sleep_wakes > 0);
            let trees = s.take_spans();
            assert!(s.take_spans().is_empty(), "taking removes");
            // An untraced dispatch keeps nothing.
            s.dispatch_all(None, work);
            assert!(s.take_spans().is_empty());
            trees
        };
        let trees = run(1);
        assert_eq!(trees.len(), 20, "one tree per token turn");
        for (n, tree) in trees.iter().enumerate() {
            // Dispatch by dispatch, and in token order within each.
            assert_eq!(tree.name, format!("token.{}", n % 10));
            assert_eq!(tree.attr_u64("token"), Some(n as u64 % 10));
            assert_eq!(tree.children.len(), 1, "{}", tree.to_json());
            assert_eq!(tree.children[0].name, "token.work");
            assert_eq!(tree.children[0].attr_u64("hits"), Some(n as u64 / 10));
        }
        let shape = |mut tree: FinishedSpan| {
            tree.strip_timing();
            tree.to_json()
        };
        let sharded = run(3).into_iter().map(shape);
        assert!(
            trees.into_iter().map(shape).eq(sharded),
            "sharding is unobservable"
        );
    }

    #[test]
    fn mail_reaches_the_woken_token() {
        let mut s = sched(8, 2, 8, false);
        let mut bus = MailboxBus::new(BusConfig::reliable(3));
        bus.send(Addr::Ssi, Addr::Token(5), b"hello".to_vec());
        bus.send(Addr::Ssi, Addr::Token(2), b"hi".to_vec());
        let ticks = pump(
            &mut bus,
            &mut s,
            None,
            10_000,
            1,
            |i, v, mail| {
                *v.token().hits.borrow_mut() += mail.len() as u64;
                (i, mail.len())
            },
            |_, outs| -> Result<(), ()> {
                for (i, (j, n)) in outs {
                    assert_eq!(i, j);
                    assert_eq!(n, 1);
                }
                Ok(())
            },
        )
        .unwrap();
        assert!(ticks > 0);
        // Only the two mailed tokens were ever woken.
        assert_eq!(s.stats().wakes, 2);
        assert_eq!(s.stats().cold_builds, 2);
        assert_eq!(s.resident(), 2);
    }

    #[test]
    fn pump_replies_keep_the_loop_running() {
        // Token 0 receives a ping and replies; the driver forwards the
        // reply to token 1 — all inside one pump call.
        let mut s = sched(2, 1, 2, false);
        let mut bus = MailboxBus::new(BusConfig::reliable(9));
        bus.send(Addr::Ssi, Addr::Token(0), vec![1]);
        let mut seen = Vec::new();
        pump(
            &mut bus,
            &mut s,
            None,
            10_000,
            1,
            |i, _, mail| (i, mail.len()),
            |bus, outs| -> Result<(), ()> {
                for (i, _) in outs {
                    seen.push(i);
                    if i == 0 {
                        bus.send(Addr::Ssi, Addr::Token(1), vec![2]);
                    }
                }
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn spawn_failure_is_typed_not_a_panic() {
        // Can't force thread exhaustion portably; exercise the Display
        // plumbing of the typed error instead.
        let e = FleetError::SpawnFailed {
            worker: 3,
            source: std::io::Error::other("rlimit"),
        };
        assert!(e.to_string().contains("worker 3"));
        assert!(std::error::Error::source(&e).is_some());
    }

    /// The whole-fleet contract of [`TokenPool`].
    mod pool {
        use crate::sched::TokenPool;
        use std::rc::Rc;

        // A deliberately !Send token stand-in.
        struct NotSendToken {
            idx: usize,
            state: Rc<std::cell::RefCell<u64>>,
        }

        fn factory(i: usize) -> NotSendToken {
            NotSendToken {
                idx: i,
                state: Rc::new(std::cell::RefCell::new(i as u64 * 10)),
            }
        }

        #[test]
        fn map_returns_token_index_order() {
            let pool = TokenPool::build(17, 4, factory).unwrap();
            let out = pool.map(|i, t| {
                assert_eq!(i, t.idx);
                *t.state.borrow_mut() += 1;
                *t.state.borrow()
            });
            assert_eq!(out.len(), 17);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i as u64 * 10 + 1);
            }
        }

        #[test]
        fn state_persists_across_phases() {
            let pool = TokenPool::build(8, 3, factory).unwrap();
            pool.map(|_, t| *t.state.borrow_mut() += 5);
            let out = pool.map(|_, t| *t.state.borrow());
            assert_eq!(out[2], 25);
        }

        #[test]
        fn result_is_identical_across_worker_counts() {
            let run = |workers| {
                let pool = TokenPool::build(23, workers, factory).unwrap();
                pool.map(|i, _| i as u64 * 3 + 1)
            };
            assert_eq!(run(1), run(2));
            assert_eq!(run(1), run(8));
        }

        // Named for `map_traced`'s first form, which contributed the
        // spans to a shared sink.
        #[test]
        fn map_in_trace_contributes_every_token_span() {
            let ctx = pds_obs::TraceContext {
                trace_id: 0x9000_0001,
                parent_span: 3,
            };
            let pool = TokenPool::build(6, 3, factory).unwrap();
            let (out, trees) = pool.map_traced(Some(ctx), |i, _| {
                let g = pds_obs::trace::span("token.work");
                g.set("reads", i + 1);
                i
            });
            assert_eq!(out, (0..6).collect::<Vec<_>>());
            // One tree per token, in token order, holding what its turn opened.
            assert_eq!(trees.len(), 6);
            for (i, tree) in trees.iter().enumerate() {
                assert_eq!(tree.name, format!("token.{i}"));
                assert_eq!(tree.attr_u64("token"), Some(i as u64));
                assert_eq!(tree.children.len(), 1);
                assert_eq!(tree.children[0].name, "token.work");
                assert_eq!(tree.total("reads"), i as u64 + 1);
            }
            // Untraced, the same spans are inert and nothing comes back.
            let (out, trees) = pool.map_traced(None, |i, _| {
                let _g = pds_obs::trace::span("token.work");
                i
            });
            assert_eq!(out.len(), 6);
            assert!(trees.is_empty());
        }

        #[test]
        fn more_workers_than_tokens_is_fine() {
            let pool = TokenPool::build(2, 16, factory).unwrap();
            assert_eq!(pool.workers(), 2);
            assert_eq!(pool.map(|i, _| i).len(), 2);
        }
    }
}
