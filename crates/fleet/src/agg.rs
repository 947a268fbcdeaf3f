//! \[TNP14\] secure aggregation re-hosted as an event-driven fleet job.
//!
//! The protocol itself — seal, fold a partition, the SSI's
//! [`Reduction`] plan between rounds — lives once, transport-free, in
//! `pds_global::secure_agg`, which also drives it in one in-process
//! loop. This module is the other driver and holds only what is the
//! fleet's own: N tokens sharded over the event-driven
//! [`FleetScheduler`], every token↔SSI
//! hand-off a message on the store-and-forward
//! [`MailboxBus`] (with a wire framing for a
//! partition), derived per-token / per-partition RNG streams, the
//! telemetry plane and the stitched trace. The run is three phases
//! driven by one logical tick loop:
//!
//! 1. **Collection** — a whole-fleet phase obligation: every token is
//!    visited (in bounded waves under the resident cap), built or
//!    revived to read its stores, computes its policy-gated
//!    contributions, seals them and uploads the ciphertexts
//!    (one bus message per tuple). The SSI ingests whatever arrives
//!    through `Ssi::collect_tagged`, keyed by the bus message ids, so a
//!    weakly-malicious SSI's drop verdicts are per-message and
//!    thread-count independent.
//! 2. **Reduction** — each round the plan partitions the opaque
//!    ciphertext set and names a round-robin serving token per
//!    partition ("whichever token happens to connect"); the driver
//!    mails the partitions and the tick loop visits *only* the serving
//!    tokens, each as its partition mail lands — fold, re-seal, mail
//!    the partials back within the same loop — shrinking the set
//!    geometrically until one partition remains.
//! 3. **Distribution** — the final released result is mailed to every
//!    token; tokens are visited batch-by-batch as the weak fabric
//!    delivers.
//!
//! Serving a partition and taking the result read no store, so those
//! turns never ask their [`Visit`] for the token: a parked token stays
//! parked through them, and nothing is read from or programmed into its
//! chip.
//!
//! A lost protocol message aborts: when the bus spends its attempt
//! budget on a collection upload, a partition or a partial, the run ends
//! in `GlobalError::Protocol` instead of releasing an aggregate that
//! silently misses contributions (uploads are counted here, partitions
//! and partials by the plan's verify step). Only result *distribution*
//! tolerates loss — it lowers [`FleetAggReport::result_coverage`].
//!
//! Between collections a token's state can be evicted to a sparse flash
//! snapshot (or dropped and deterministically rebuilt), so resident RAM
//! is bounded by [`FleetConfig::resident_cap`], not by fleet size.
//!
//! Determinism: all randomness is derived by hashing `(seed, domain
//! tag, index)` — per-token encryption streams, per-partition
//! re-encryption streams, bus delivery schedule, SSI verdicts. The tick
//! loop, batch boundaries and eviction schedule live on the
//! single-threaded driver, and workers only ever compute pure per-token
//! functions on dispatched batches merged in token order — so a run's
//! every observable (result, leakage ledger, bus and scheduler stats)
//! is identical at any worker or shard count.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use pds_core::{Pds, PdsHibernation};
use pds_crypto::SymmetricKey;
use pds_global::query::synthetic_token;
use pds_global::secure_agg::{fold_partition, seal_groups, Reduction};
use pds_global::ssi::{Leakage, Ssi, SsiThreat};
use pds_global::{GlobalError, GroupByQuery, ProtocolStats};
use pds_obs::rng::{SeedableRng, StdRng};
use pds_obs::wire::{put_prefixed32, Reader};
use pds_obs::MetricsDelta;

use crate::bus::{mix, Addr, BusConfig, BusMsg, BusStats, MailboxBus};
use crate::sched::{pump, FleetError, FleetScheduler, SchedStats, TokenHost, Visit};
use crate::telemetry::{Collector, CollectorStats, FleetHealth, HealthEngine, TelemetryMsg};
use crate::trace::FleetTraceBuilder;
pub use pds_global::secure_agg::OnTamper;

const TAG_TOKEN: u64 = 0x464C_5454_4F4B_4E01; // per-token data stream
const TAG_ENC: u64 = 0x464C_5445_4E43_5202; // per-token encryption stream
const TAG_REDUCE: u64 = 0x464C_5452_4544_5503; // per-partition re-encryption

/// Safety valve for bus draining (virtual ticks per phase).
const MAX_BUS_TICKS: u64 = 1_000_000;
/// Ticks the event loop accumulates deliveries before dispatching a wake
/// batch (1 would wake the moment mail lands; a few ticks amortize shard
/// round-trips on a slow fabric).
const BATCH_TICKS: u64 = 4;

/// An RNG stream derived from `(seed, tag, index)` — statistically
/// independent per index, identical across runs and worker counts.
pub fn derived_rng(seed: u64, tag: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, tag, index, 0))
}

/// What happens to a token's state when the scheduler evicts it to stay
/// under [`FleetConfig::resident_cap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictPolicy {
    /// Hibernate to persistent state (sparse flash snapshot + recovery
    /// manifests) and revive losslessly when a turn next uses it.
    Hibernate,
    /// Drop entirely and rebuild from the deterministic factory when a
    /// turn next uses it — sound because every fleet token is a pure function
    /// of `(seed, index)`, and the cheapest way to park 100k+ idle
    /// tokens.
    Rebuild,
}

/// Shape of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Fleet size.
    pub tokens: usize,
    /// Worker threads hosting the token shards.
    pub workers: usize,
    /// Master seed: token data, crypto streams, bus schedule, SSI
    /// verdicts all derive from it.
    pub seed: u64,
    /// Tuples one token can absorb per connection (reduction fan-in).
    pub partition_size: usize,
    /// Simulated link latency per token connection, in microseconds
    /// (the cost a worker pays to talk to one weakly-connected token —
    /// overlapped across workers, which is where fleet speedup comes
    /// from).
    pub link_latency_us: u64,
    /// Most tokens live at once; `None` keeps the whole fleet resident,
    /// as [`TokenPool`](crate::TokenPool) does. A bounded cap is what
    /// lets a 100k–1M fleet run in bounded RAM — watch the
    /// `fleet.resident_tokens` gauge and `sched.*` counters. Only a turn
    /// that uses its token makes it live: under a cap, collection builds
    /// or revives every token, while reduction and distribution visits
    /// leave a parked token parked (they still make room for it).
    pub resident_cap: Option<usize>,
    /// What eviction does to a token's state (ignored while the fleet
    /// fits under the cap).
    pub evict: EvictPolicy,
    /// Run the in-band telemetry plane: every token mails its metric
    /// deltas over this same bus to the collector role, which folds
    /// them into tick-indexed rollups and a [`FleetHealth`] verdict
    /// (see [`crate::telemetry`]). Off, the bus schedule is exactly as
    /// it would be without telemetry.
    pub telemetry: bool,
    /// Fabric profile.
    pub bus: BusConfig,
}

impl FleetConfig {
    /// A fleet with the default weak-connectivity fabric.
    pub fn new(tokens: usize, workers: usize, seed: u64) -> Self {
        FleetConfig {
            tokens,
            workers,
            seed,
            partition_size: 64,
            link_latency_us: 0,
            resident_cap: None,
            evict: EvictPolicy::Hibernate,
            telemetry: false,
            bus: BusConfig {
                seed,
                ..BusConfig::default()
            },
        }
    }

    /// The shared protocol key of this fleet (issued at manufacture,
    /// derived here from the seed so every run agrees on it).
    pub fn protocol_key(&self) -> SymmetricKey {
        SymmetricKey::from_seed(&self.seed.to_le_bytes())
    }

    /// The effective resident-token ceiling.
    pub fn cap(&self) -> usize {
        self.resident_cap.unwrap_or(self.tokens).max(1)
    }
}

/// Build token `i` of the fleet: `Population::synthetic`'s token recipe
/// ([`synthetic_token`]) drawn from a per-token derived stream.
pub fn build_token(cfg: &FleetConfig, domain: &[String], i: usize) -> Pds {
    let mut rng = derived_rng(cfg.seed, TAG_TOKEN, i as u64);
    synthetic_token(i, domain, &cfg.protocol_key(), &mut rng).expect("synthetic token")
}

/// The [`TokenHost`] of a \[TNP14\] fleet: builds tokens from the derived
/// per-index streams and parks evicted ones according to
/// [`FleetConfig::evict`].
#[derive(Clone)]
pub struct PdsHost {
    cfg: FleetConfig,
    domain: Vec<String>,
}

impl TokenHost for PdsHost {
    type Token = Pds;
    type Sleep = PdsHibernation;

    fn create(&self, i: usize) -> Pds {
        build_token(&self.cfg, &self.domain, i)
    }

    fn hibernate(&self, _i: usize, token: Pds) -> Option<PdsHibernation> {
        match self.cfg.evict {
            EvictPolicy::Rebuild => None,
            EvictPolicy::Hibernate => token.hibernate().ok(),
        }
    }

    fn wake(&self, i: usize, sleep: PdsHibernation) -> Pds {
        // A clean hibernation always wakes; a corrupt one degrades to a
        // deterministic factory rebuild rather than sinking the run. The
        // scheduler counts that as a sleep wake, so it is counted here:
        // a broken park must not hide behind the factory.
        match Pds::wake(sleep) {
            Ok((pds, _)) => pds,
            Err(_) => {
                pds_obs::counter!("fleet.wake_fallbacks").inc();
                self.create(i)
            }
        }
    }
}

/// The scheduler hosting one \[TNP14\] fleet.
pub type Fleet = FleetScheduler<PdsHost>;

/// Build the fleet's scheduler (setup cost — excluded from protocol
/// timing, exactly like manufacturing tokens is excluded from query
/// latency). With an unbounded cap the fleet is manufactured up-front;
/// under a bounded cap a token is built when a turn first uses it.
pub fn build_fleet(cfg: &FleetConfig, query: &GroupByQuery) -> Result<Fleet, FleetError> {
    let host = PdsHost {
        cfg: cfg.clone(),
        domain: query.domain.clone(),
    };
    let cap = cfg.cap();
    let mut fleet = FleetScheduler::build(cfg.tokens, cfg.workers, cap, host)?;
    if cap >= cfg.tokens {
        fleet.warm();
    }
    Ok(fleet)
}

/// Everything one fleet aggregation run produced.
#[derive(Debug, Clone)]
pub struct FleetAggReport {
    /// The released `(group, aggregate)` result.
    pub result: Vec<(String, u64)>,
    /// Plaintext reference over the same fleet (what a trusted
    /// centralized server would have computed), folded from the same
    /// collection-phase contributions the tokens encrypt.
    pub expected: Vec<(String, u64)>,
    /// Protocol work/traffic accounting.
    pub stats: ProtocolStats,
    /// Bus delivery counters.
    pub bus: BusStats,
    /// Scheduler accounting for this run (wakes, evictions, rebuilds,
    /// peak residency).
    pub sched: SchedStats,
    /// Bus ticks each protocol phase took (`collect`, `reduce.N`…,
    /// `distribute`) — the causal length of the run on the virtual
    /// fabric, cheap to record at any scale (unlike a full trace).
    pub phase_ticks: Vec<(String, u64)>,
    /// What the SSI observed.
    pub leakage: Leakage,
    /// Tokens that received the final result in the distribution phase.
    pub result_coverage: usize,
    /// What the in-band telemetry plane observed
    /// ([`FleetConfig::telemetry`]).
    pub telemetry: Option<TelemetrySummary>,
    /// Wall-clock of the timed protocol phases (collection + reduction
    /// + distribution; excludes scheduler construction).
    pub elapsed: Duration,
}

/// What one run's telemetry plane collected — every field a pure
/// function of the seed and config, bit-identical at any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySummary {
    /// The collector's cumulative rollup (evicted history + live ring).
    pub rollup: MetricsDelta,
    /// The standard SLO set evaluated over the rollup.
    pub health: FleetHealth,
    /// Bus ticks the final telemetry flush took to converge (near zero
    /// now that envelopes drain inside the phases' own tick loops).
    pub convergence_ticks: u64,
    /// Telemetry envelopes mailed over the bus.
    pub msgs: u64,
    /// Telemetry payload bytes mailed over the bus.
    pub bytes: u64,
    /// Live tick buckets in the collector's ring.
    pub buckets: usize,
    /// Distinct endpoints that reported.
    pub sources: usize,
    /// Collector fold accounting.
    pub stats: CollectorStats,
}

/// Driver-side half of the telemetry plane: cuts per-token deltas into
/// bus envelopes and folds the driver's own bus-stats observations
/// (SSI-side, collector co-located — no bus hop for those).
struct TelemetryDriver {
    collector: Collector,
    msgs: u64,
    bytes: u64,
    last_bus: BusStats,
}

impl TelemetryDriver {
    fn new() -> Self {
        TelemetryDriver {
            collector: Collector::new(),
            msgs: 0,
            bytes: 0,
            last_bus: BusStats::default(),
        }
    }

    /// Mail one endpoint's delta to the collector (skips empty deltas).
    fn emit(&mut self, bus: &mut MailboxBus, source: Addr, delta: MetricsDelta) {
        if delta.is_empty() {
            return;
        }
        let payload = TelemetryMsg {
            source: source.code(),
            tick: bus.now(),
            delta,
        }
        .encode();
        self.msgs += 1;
        self.bytes += payload.len() as u64;
        bus.send(source, Addr::Collector, payload);
    }

    /// Drain delivered envelopes and fold the bus's own counters since
    /// the previous fold (so the rollup sees the fabric itself).
    fn observe_phase(&mut self, bus: &mut MailboxBus) {
        self.collector.drain_bus(bus);
        let cur = bus.stats();
        let delta = cur.since(&self.last_bus).as_delta();
        self.last_bus = cur;
        if !delta.is_empty() {
            self.collector.fold(&TelemetryMsg {
                source: Addr::Ssi.code(),
                tick: bus.now(),
                delta,
            });
        }
    }
}

impl FleetAggReport {
    /// Protocol throughput: fleet size over the timed phases.
    pub fn tokens_per_sec(&self, tokens: usize) -> f64 {
        tokens as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Total bus ticks across the protocol phases (the run's causal
    /// length on the virtual fabric).
    pub fn causal_ticks(&self) -> u64 {
        self.phase_ticks.iter().map(|(_, t)| *t).sum()
    }
}

/// One token's collection-phase output: its plaintext contributions
/// (never mailed — they feed the oracle) and one ciphertext for each.
type CollectOut = Result<(Vec<(String, u64)>, Vec<Vec<u8>>), GlobalError>;

fn sleep_link(us: u64) {
    if us > 0 {
        std::thread::sleep(Duration::from_micros(us));
    }
}

/// What a serving token mails back for one partition.
enum ReduceOut {
    Final(Vec<(String, u64)>),
    Partials(Vec<Vec<u8>>),
}

struct TokenReduce {
    parts: Vec<(u32, ReduceOut)>,
    tuples: u64,
    crypto_ops: u64,
}

/// `round ‖ partition index ‖ chunk count ‖ chunks` — the work unit the
/// SSI mails to a serving token.
fn encode_partition(round: u32, pi: u32, chunks: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&round.to_le_bytes());
    out.extend_from_slice(&pi.to_le_bytes());
    out.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
    for c in chunks {
        put_prefixed32(&mut out, c);
    }
    out
}

/// The framing is the SSI's own and unauthenticated: whatever it claims,
/// the chunk count is checked against the bytes that follow (a chunk is
/// at least its length prefix) before it sizes anything.
fn decode_partition(bytes: &[u8]) -> Option<(u32, u32, Vec<Vec<u8>>)> {
    let mut r = Reader::new(bytes);
    let (round, pi) = (r.u32()?, r.u32()?);
    let n = r.count32(4)?;
    let mut chunks = Vec::with_capacity(n);
    for _ in 0..n {
        chunks.push(r.prefixed32()?.to_vec());
    }
    r.finish()?;
    Some((round, pi, chunks))
}

/// What a serving token needs to answer the partition mail of one round.
#[derive(Clone)]
struct Serving {
    key: SymmetricKey,
    seed: u64,
    round: u32,
    last: bool,
    on_tamper: OnTamper,
    latency_us: u64,
}

impl Serving {
    /// Serve every partition of this round found in `mail`: fold it, and
    /// release the result (last round) or re-seal the partials. Mail that
    /// is not a partition of this round — stale, or undecodable — is
    /// skipped, so the plan's `end_round` reports that partition as lost
    /// and the run aborts instead of releasing a short aggregate.
    fn serve(&self, mail: Vec<BusMsg>) -> Result<TokenReduce, GlobalError> {
        let mut out = TokenReduce {
            parts: Vec::new(),
            tuples: 0,
            crypto_ops: 0,
        };
        for m in mail {
            let Some((r, pi, chunks)) = decode_partition(&m.payload) else {
                continue;
            };
            if r != self.round {
                continue;
            }
            sleep_link(self.latency_us); // one connection per served partition
            out.tuples += chunks.len() as u64;
            out.crypto_ops += chunks.len() as u64;
            let groups = fold_partition(&self.key, chunks, self.on_tamper)?;
            if self.last {
                out.parts.push((pi, ReduceOut::Final(groups)));
            } else {
                let stream = (u64::from(self.round) << 32) | u64::from(pi);
                let mut rng = derived_rng(self.seed, TAG_REDUCE, stream);
                let seq_of = |k: usize| {
                    (1u64 << 60) | (u64::from(self.round) << 40) | (u64::from(pi) << 20) | k as u64
                };
                let partials = seal_groups(&self.key, &groups, seq_of, &mut rng);
                out.crypto_ops += partials.len() as u64;
                out.parts.push((pi, ReduceOut::Partials(partials)));
            }
        }
        Ok(out)
    }
}

/// Run the \[TNP14\] secure aggregation protocol over an already-built
/// fleet. The scheduler must have been built by [`build_fleet`] with
/// the same `cfg` and `query`. Run inside a `pds_obs::trace::trace`
/// scope, it records its stitched `fleet.agg` trace there.
pub fn fleet_secure_aggregation(
    cfg: &FleetConfig,
    query: &GroupByQuery,
    fleet: &mut Fleet,
    threat: SsiThreat,
    on_tamper: OnTamper,
) -> Result<FleetAggReport, GlobalError> {
    assert_eq!(fleet.len(), cfg.tokens);
    let key = cfg.protocol_key();
    let ssi = Ssi::new(threat, cfg.seed);
    let mut plan = Reduction::new(cfg.partition_size, cfg.tokens);
    let mut bus = MailboxBus::new(cfg.bus);
    let mut tele = cfg.telemetry.then(TelemetryDriver::new);
    let mut stats = ProtocolStats::default();
    let sched0 = fleet.stats();
    let mut phase_ticks: Vec<(String, u64)> = Vec::new();
    let mut ftb = FleetTraceBuilder::new("fleet.agg", cfg.seed);
    // No worker-count attribute: the stitched trace must be
    // bit-identical no matter how the fleet was sharded.
    ftb.set("tokens", cfg.tokens);
    ftb.set("seed", cfg.seed);
    // Trees a traced run left behind when it aborted mid-phase are not
    // this run's.
    fleet.take_spans();

    // pds-lint: allow(det.time) — wall-clock feeds only the reported
    // throughput stat; no protocol value derives from it
    let t0 = Instant::now();

    // Phase 1: collection — the whole-fleet obligation, dispatched in
    // bounded waves under the resident cap. Each token encrypts its
    // contributions with its own derived stream; sequence numbers are
    // (token << 24 | k), unique fleet-wide without any shared counter.
    // The plaintext reference is folded from the very same per-token
    // contributions (no second pass over the fleet).
    // pds-lint: allow(det.time) — stats-only phase timing (pds-obs histogram)
    let phase0 = Instant::now();
    let tick0 = bus.now();
    let ctx = ftb.begin_phase("phase.collect", &bus);
    let q = query.clone();
    let latency = cfg.link_latency_us;
    let enc_key = key.clone();
    let seed = cfg.seed;
    let collected: Vec<(usize, CollectOut)> = fleet.dispatch_all(ctx, move |i, visit, _mail| {
        sleep_link(latency);
        let mut rng = derived_rng(seed, TAG_ENC, i as u64);
        let groups = q.contributions_of(visit.token())?;
        let seq_of = |k: usize| ((i as u64) << 24) | k as u64;
        let cts = seal_groups(&enc_key, &groups, seq_of, &mut rng);
        Ok((groups, cts))
    });
    let mut reference: BTreeMap<String, u64> = BTreeMap::new();
    let mut uploads = 0usize;
    for (i, r) in collected {
        let (groups, cts) = r?;
        for (g, v) in groups {
            *reference.entry(g).or_insert(0) += v;
        }
        let ops = cts.len() as u64;
        uploads += cts.len();
        stats.token_crypto_ops += ops;
        let mut delta = tele.as_ref().map(|_| MetricsDelta::new());
        for ct in cts {
            if let Some(d) = delta.as_mut() {
                d.add("tok.contributions", 1);
                d.observe("tok.payload_bytes", ct.len() as u64);
            }
            bus.send_in(Addr::Token(i), Addr::Ssi, ct, ctx);
        }
        if let (Some(td), Some(mut d)) = (tele.as_mut(), delta) {
            if ops > 0 {
                d.add("tok.crypto_ops", ops);
            }
            td.emit(&mut bus, Addr::Token(i), d);
        }
    }
    let expected: Vec<(String, u64)> = reference.into_iter().collect();
    bus.run_until_quiet(MAX_BUS_TICKS);
    if let Some(td) = tele.as_mut() {
        td.observe_phase(&mut bus);
    }
    ftb.end_phase(&mut bus, fleet.take_spans());
    phase_ticks.push(("collect".to_string(), bus.now() - tick0));
    let arrived: Vec<(u64, Vec<u8>)> = bus
        .drain_inbox(Addr::Ssi)
        .into_iter()
        .map(|m| (m.id, m.payload))
        .collect();
    // A contribution the fabric gave up on would silently bias the
    // released aggregate — exactly what an honest run must never do.
    if arrived.len() != uploads {
        return Err(GlobalError::Protocol(
            "collection upload expired on the bus",
        ));
    }
    let mut tuples = ssi.collect_tagged(arrived);
    stats.ssi_bytes += tuples.iter().map(|t| t.len() as u64).sum::<u64>();
    pds_obs::histogram("fleet.phase.collect_us").observe(phase0.elapsed().as_micros() as u64);

    // Phase 2: reduction tree — `plan` decides each round's partitions
    // and serving tokens, the bus carries them. The tick loop visits
    // each serving token as its partition mail lands and its partials
    // re-enter the bus inside the same loop; a round ends when nothing
    // is in flight, and `plan.end_round` then refuses to go on if a
    // partition or a partial expired on the way.
    // pds-lint: allow(det.time) — stats-only phase timing (pds-obs histogram)
    let phase0 = Instant::now();
    let result = loop {
        let Some(round) = plan.begin_round(&ssi, std::mem::take(&mut tuples)) else {
            break Vec::new(); // population contributed nothing at all
        };
        let tick0 = bus.now();
        let ctx = ftb.begin_phase(&format!("phase.reduce.{}", round.index), &bus);
        for (pi, (token, chunks)) in round.partitions.iter().enumerate() {
            let mail = encode_partition(round.index, pi as u32, chunks);
            bus.send_in(Addr::Ssi, Addr::Token(*token), mail, ctx);
        }
        let this_round = round.index;
        let serving = Serving {
            key: key.clone(),
            seed: cfg.seed,
            round: round.index,
            last: round.last,
            on_tamper,
            latency_us: latency,
        };
        // Serving reads no store: the visit leaves the token as it was.
        let reduce_f =
            move |_i: usize, _: &mut Visit<'_, PdsHost>, mail: Vec<BusMsg>| serving.serve(mail);
        // Ordered merge per wake batch: a batch's partial results
        // re-enter the SSI store in partition order, and batch
        // boundaries are a pure function of the seeded bus schedule —
        // identical at any worker count.
        let mut final_groups: Option<Vec<(String, u64)>> = None;
        pump(
            &mut bus,
            fleet,
            ctx,
            MAX_BUS_TICKS,
            BATCH_TICKS,
            reduce_f,
            |bus,
             outs: Vec<(usize, Result<TokenReduce, GlobalError>)>|
             -> Result<(), GlobalError> {
                let mut merged: Vec<(u32, usize, ReduceOut)> = Vec::new();
                for (t, r) in outs {
                    let r = r?;
                    stats.token_tuples += r.tuples;
                    stats.token_crypto_ops += r.crypto_ops;
                    if let Some(td) = tele.as_mut() {
                        // The serving token reports its reduction work
                        // in-band, inside the same tick loop — so even
                        // the final round is observed.
                        let mut d = MetricsDelta::new();
                        if r.tuples > 0 {
                            d.add("tok.tuples_served", r.tuples);
                        }
                        if r.crypto_ops > 0 {
                            d.add("tok.crypto_ops", r.crypto_ops);
                        }
                        td.emit(bus, Addr::Token(t), d);
                    }
                    for (pi, o) in r.parts {
                        merged.push((pi, t, o));
                    }
                }
                merged.sort_by_key(|(pi, _, _)| *pi);
                for (_, t, o) in merged {
                    match o {
                        ReduceOut::Final(groups) => {
                            plan.returned(0)?;
                            final_groups = Some(groups);
                        }
                        ReduceOut::Partials(cts) => {
                            plan.returned(cts.len())?;
                            for ct in cts {
                                stats.ssi_bytes += ct.len() as u64;
                                bus.send_in(Addr::Token(t), Addr::Ssi, ct, ctx);
                            }
                        }
                    }
                }
                Ok(())
            },
        )?;
        ftb.end_phase(&mut bus, fleet.take_spans());
        if let Some(td) = tele.as_mut() {
            td.observe_phase(&mut bus);
        }
        phase_ticks.push((format!("reduce.{this_round}"), bus.now() - tick0));
        // Reduction partials bypass `collect_tagged` (parity with the
        // in-process driver: the threat behavior applies to the
        // collection phase; afterwards the SSI must keep the reduction
        // moving or be caught by the missing result).
        tuples = bus
            .drain_inbox(Addr::Ssi)
            .into_iter()
            .map(|m| m.payload)
            .collect();
        plan.end_round(tuples.len())?;
        if let Some(groups) = final_groups {
            break groups;
        }
    };
    stats.rounds = plan.rounds();
    pds_obs::histogram("fleet.phase.reduce_us").observe(phase0.elapsed().as_micros() as u64);

    // Phase 3: result distribution — the released aggregate is mailed
    // to every token; tokens are visited batch-by-batch as the weak
    // fabric delivers and confirm the download in-band, without a boot:
    // the turn uses no store.
    // pds-lint: allow(det.time) — stats-only phase timing (pds-obs histogram)
    let phase0 = Instant::now();
    let tick0 = bus.now();
    let ctx = ftb.begin_phase("phase.distribute", &bus);
    let result_wire: Vec<u8> = result
        .iter()
        .flat_map(|(g, v)| {
            let mut row = (g.len() as u32).to_le_bytes().to_vec();
            row.extend_from_slice(g.as_bytes());
            row.extend_from_slice(&v.to_le_bytes());
            row
        })
        .collect();
    for i in 0..cfg.tokens {
        bus.send_in(Addr::Ssi, Addr::Token(i), result_wire.clone(), ctx);
    }
    let mut result_coverage = 0usize;
    pump(
        &mut bus,
        fleet,
        ctx,
        MAX_BUS_TICKS,
        BATCH_TICKS,
        move |_i, _: &mut Visit<'_, PdsHost>, mail: Vec<BusMsg>| {
            if mail.is_empty() {
                false
            } else {
                sleep_link(latency); // the download connection
                true
            }
        },
        |bus, outs: Vec<(usize, bool)>| -> Result<(), GlobalError> {
            for (i, got) in outs {
                if got {
                    result_coverage += 1;
                    if let Some(td) = tele.as_mut() {
                        let mut d = MetricsDelta::new();
                        d.add("tok.result_received", 1);
                        td.emit(bus, Addr::Token(i), d);
                    }
                }
            }
            Ok(())
        },
    )?;
    ftb.end_phase(&mut bus, fleet.take_spans());
    ftb.finish();
    phase_ticks.push(("distribute".to_string(), bus.now() - tick0));
    pds_obs::histogram("fleet.phase.distribute_us").observe(phase0.elapsed().as_micros() as u64);

    // Final telemetry flush: the last envelopes (download confirmations
    // already rode the distribution loop) converge on the collector and
    // the standard SLO set is evaluated over the rollup.
    let mut telemetry = None;
    if let Some(mut td) = tele.take() {
        let convergence_ticks = bus.run_until_quiet(MAX_BUS_TICKS);
        td.observe_phase(&mut bus);
        let mut selfd = MetricsDelta::new();
        selfd.add("telemetry.msgs", td.msgs);
        selfd.add("telemetry.bytes", td.bytes);
        if td.collector.stats().decode_errors > 0 {
            selfd.add(
                "telemetry.decode_errors",
                td.collector.stats().decode_errors,
            );
        }
        td.collector.fold(&TelemetryMsg {
            source: Addr::Collector.code(),
            tick: bus.now(),
            delta: selfd,
        });
        let rollup = td.collector.total();
        let health = HealthEngine::standard().evaluate(&rollup);
        pds_obs::counter("telemetry.msgs").add(td.msgs);
        pds_obs::counter("telemetry.bytes").add(td.bytes);
        pds_obs::counter("telemetry.deltas_folded").add(td.collector.stats().deltas_folded);
        pds_obs::counter("telemetry.convergence_ticks").add(convergence_ticks);
        pds_obs::gauge("telemetry.sources").record_max(td.collector.sources() as u64);
        pds_obs::gauge("telemetry.healthy").set(u64::from(health.healthy));
        telemetry = Some(TelemetrySummary {
            rollup,
            health,
            convergence_ticks,
            msgs: td.msgs,
            bytes: td.bytes,
            buckets: td.collector.buckets().len(),
            sources: td.collector.sources(),
            stats: td.collector.stats(),
        });
    }

    let elapsed = t0.elapsed();
    let sched = fleet.stats().since(&sched0);
    stats.publish();
    bus.publish();
    sched.publish();
    pds_obs::counter("fleet.runs").inc();
    pds_obs::gauge("fleet.tokens").set(cfg.tokens as u64);
    pds_obs::gauge("fleet.workers").set(cfg.workers as u64);
    pds_obs::gauge("fleet.result_coverage").set(result_coverage as u64);

    Ok(FleetAggReport {
        result,
        expected,
        stats,
        bus: bus.stats(),
        sched,
        phase_ticks,
        leakage: ssi.leakage(),
        result_coverage,
        telemetry,
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(workers: usize) -> (FleetConfig, GroupByQuery) {
        let mut cfg = FleetConfig::new(24, workers, 42);
        cfg.partition_size = 8;
        (cfg, GroupByQuery::bank_by_category())
    }

    fn run(cfg: &FleetConfig, q: &GroupByQuery) -> FleetAggReport {
        let mut fleet = build_fleet(cfg, q).unwrap();
        run_on(cfg, q, &mut fleet)
    }

    fn run_on(cfg: &FleetConfig, q: &GroupByQuery, fleet: &mut Fleet) -> FleetAggReport {
        fleet_secure_aggregation(cfg, q, fleet, SsiThreat::HonestButCurious, OnTamper::Abort)
            .unwrap()
    }

    #[test]
    fn fleet_result_matches_plaintext_reference() {
        let (cfg, q) = small_cfg(3);
        let rep = run(&cfg, &q);
        assert_eq!(rep.result, rep.expected);
        assert!(!rep.result.is_empty());
        assert!(rep.stats.rounds >= 2, "reduction tree has depth");
        assert_eq!(rep.result_coverage, 24, "everyone got the result");
        assert_eq!(rep.bus.expired, 0);
        assert!(rep.causal_ticks() > 0);
        assert_eq!(rep.sched.peak_resident, 24, "unbounded cap: all live");
        assert_eq!(rep.sched.evictions, 0);
    }

    #[test]
    fn bounded_cap_evicts_and_still_agrees() {
        let (mut cfg, q) = small_cfg(3);
        let unbounded = run(&cfg, &q);
        cfg.resident_cap = Some(6);
        for policy in [EvictPolicy::Hibernate, EvictPolicy::Rebuild] {
            cfg.evict = policy;
            // The first round parks the tokens it built; the second's
            // collection revives or rebuilds them.
            let mut fleet = build_fleet(&cfg, &q).unwrap();
            run_on(&cfg, &q, &mut fleet);
            let rep = run_on(&cfg, &q, &mut fleet);
            assert_eq!(rep.result, unbounded.result, "{policy:?} result drifted");
            assert_eq!(rep.expected, unbounded.expected);
            assert_eq!(rep.result_coverage, unbounded.result_coverage);
            assert!(rep.sched.evictions > 0, "{policy:?}: cap never bit");
            assert!(rep.sched.peak_resident <= 6, "{policy:?}: cap exceeded");
            match policy {
                EvictPolicy::Hibernate => assert!(rep.sched.sleep_wakes > 0),
                EvictPolicy::Rebuild => assert!(rep.sched.rebuilds > 0),
            }
        }
    }

    #[test]
    fn traced_run_stitches_phases_and_keeps_the_result() {
        let (cfg, q) = small_cfg(3);
        let (rep, scope) = pds_obs::trace::trace("caller", || run(&cfg, &q));
        assert_eq!(rep.result, rep.expected);
        let t = pds_obs::FleetTrace::new(scope.find("fleet.agg").expect("stitched").clone());
        let phases = t.phases();
        assert!(phases.len() >= 3, "collect + reduce rounds + distribute");
        assert_eq!(phases[0].name, "phase.collect");
        assert_eq!(phases.last().unwrap().name, "phase.distribute");
        assert_eq!(t.critical_path().len(), phases.len());
        assert!(t.total_ticks() > 0);
        // Every token worked in the collection phase and its RAM
        // high-water rode along on the stitched token span.
        assert_eq!(
            t.per_token_in_phase("phase.collect", "mcu.ram.peak_bytes")
                .len(),
            24
        );
    }

    #[test]
    fn a_round_outside_any_scope_leaves_no_tree_in_the_scheduler() {
        let (cfg, q) = small_cfg(3);
        let mut fleet = build_fleet(&cfg, &q).unwrap();
        run_on(&cfg, &q, &mut fleet);
        assert!(fleet.take_spans().is_empty());
    }

    #[test]
    fn probabilistic_encryption_leaks_no_equality_classes() {
        let (cfg, q) = small_cfg(2);
        let rep = run(&cfg, &q);
        assert!(rep.leakage.equality_class_sizes.is_empty());
        assert!(rep.leakage.tuples_seen > 0);
    }

    #[test]
    fn forged_ciphertexts_abort_loudly() {
        let (cfg, q) = small_cfg(2);
        let mut fleet = build_fleet(&cfg, &q).unwrap();
        let err = fleet_secure_aggregation(
            &cfg,
            &q,
            &mut fleet,
            SsiThreat::WeaklyMalicious {
                drop_rate: 0.0,
                forge_rate: 0.2,
            },
            OnTamper::Abort,
        )
        .unwrap_err();
        assert!(matches!(err, GlobalError::TamperingDetected(_)));
    }

    #[test]
    fn covert_drops_shrink_the_unchecked_result() {
        let mut cfg = FleetConfig::new(48, 2, 7);
        cfg.partition_size = 8;
        let q = GroupByQuery::bank_by_category();
        let mut fleet = build_fleet(&cfg, &q).unwrap();
        let rep = fleet_secure_aggregation(
            &cfg,
            &q,
            &mut fleet,
            SsiThreat::WeaklyMalicious {
                drop_rate: 0.5,
                forge_rate: 0.0,
            },
            OnTamper::Skip,
        )
        .unwrap();
        let sum = |r: &[(String, u64)]| r.iter().map(|(_, v)| *v).sum::<u64>();
        assert!(sum(&rep.result) < sum(&rep.expected));
    }

    #[test]
    fn partition_wire_format_round_trips() {
        let chunks = vec![vec![1u8, 2], vec![], vec![9; 70]];
        let enc = encode_partition(3, 11, &chunks);
        assert_eq!(decode_partition(&enc), Some((3, 11, chunks)));
        assert_eq!(decode_partition(&enc[..enc.len() - 1]), None);
        assert_eq!(decode_partition(&[]), None);
    }

    #[test]
    fn partitions_keep_the_decoder_contract() {
        use pds_obs::rng::{Rng, RngCore};
        let mut bomb = encode_partition(3, 11, &[]);
        bomb[8..].fill(0xFF);
        pds_obs::wire::sweep(
            "partition",
            pds_obs::wire::Tail::Exact,
            &[&bomb],
            |rng| {
                let chunks = (0..rng.gen_range(0..5u32)).map(|_| {
                    let mut chunk = vec![0; rng.gen_range(0..90usize)];
                    rng.fill_bytes(&mut chunk);
                    chunk
                });
                let chunks: Vec<_> = chunks.collect();
                (rng.gen(), rng.gen(), chunks)
            },
            |(round, pi, chunks)| encode_partition(*round, *pi, chunks),
            decode_partition,
        );
    }

    fn partition_mail(id: u64, payload: Vec<u8>) -> BusMsg {
        BusMsg {
            id,
            from: Addr::Ssi,
            to: Addr::Token(1),
            ctx: None,
            payload,
        }
    }

    /// The framing of a partition is the SSI's own, so a serving token
    /// must survive any of it. The first mail here is the allocation
    /// bomb — twelve bytes whose chunk count claims 2³² − 1 chunks, which
    /// used to reach `Vec::with_capacity` and abort the process hosting
    /// the whole fleet.
    #[test]
    fn an_undecodable_partition_is_skipped_and_reported_as_lost() {
        let key = SymmetricKey::from_seed(b"serving");
        let mut rng = derived_rng(1, TAG_ENC, 0);
        let groups = vec![("rent".to_string(), 7u64), ("salary".to_string(), 9)];
        let tuples = seal_groups(&key, &groups, |k| k as u64, &mut rng);
        let ssi = Ssi::new(SsiThreat::HonestButCurious, 1);
        let mut plan = Reduction::new(2, 4);
        let round = plan
            .begin_round(&ssi, [tuples.clone(), tuples].concat())
            .unwrap();
        assert_eq!((round.partitions.len(), round.last), (2, false));

        let mut bomb = encode_partition(round.index, 0, &[]);
        bomb[8..].fill(0xFF);
        assert_eq!(bomb.len(), 12);
        let sound = encode_partition(round.index, 1, &round.partitions[1].1);
        let mut torn = sound.clone();
        torn.pop();
        let serving = Serving {
            key,
            seed: 1,
            round: round.index,
            last: round.last,
            on_tamper: OnTamper::Abort,
            latency_us: 0,
        };
        let mail = [bomb, torn, vec![], sound];
        let mail = mail
            .into_iter()
            .zip(0..)
            .map(|(m, id)| partition_mail(id, m));
        let out = serving.serve(mail.collect()).unwrap();
        assert_eq!(out.tuples, 2, "only the sound partition was served");
        let [(1, ReduceOut::Partials(partials))] = &out.parts[..] else {
            panic!("one partition answered: partition 1");
        };
        // The SSI hears back from one partition of two: the run aborts.
        plan.returned(partials.len()).unwrap();
        let lost = plan.end_round(partials.len()).unwrap_err();
        assert!(matches!(lost, GlobalError::Protocol(m) if m.contains("partition lost")));
    }
}
