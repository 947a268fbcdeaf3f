//! Continuous queries as a fleet workload.
//!
//! Each token holds a standing predicate on its own PDS
//! ([`pds_core::Pds::subscribe`]); after every commit round it polls it
//! and mails the *result delta* — the rows the collector has not seen —
//! over the bus to the SSI-hosted collector. A poll reads
//! `changes_since(cursor)` and advances the cursor in whole commits, so
//! every committed matching row is delivered exactly once, across power
//! cycles too (the cursor hibernates with the PDS; the change log is
//! durable).
//!
//! The collector keeps a `(token, round)` ledger (a power cut that kills
//! committed rows makes the table hand their rowids out again, so a row
//! is named by the round that wrote it): a duplicate arrival is counted
//! in `sub.duplicates` instead of silently folded, so the exactly-once
//! property is *measured*, not assumed. A run is a pure function of the
//! seed. The tokens live on [`FleetScheduler`] shards; a power cycle is
//! the scheduler's park and wake.

use std::collections::BTreeMap;

use pds_core::data::BANK_TABLE;
use pds_core::{Pds, PdsError, PdsHibernation, Predicate, Row, Value};
use pds_obs::rng::RngCore;
use pds_obs::wire::Reader;

use pds_crypto::{Ciphertext, SymmetricKey};

use crate::agg::derived_rng;
use crate::bus::{Addr, BusConfig, BusStats, MailboxBus};
use crate::sched::{FleetError, FleetScheduler, SchedStats, TokenHost, Visit};
use crate::trace::FleetTraceBuilder;

const TAG_SUB: u64 = 0x464C_5453_5542_0001; // per-(round, token) write stream

/// Bus ticks granted per delivery phase; deltas still in flight (e.g.
/// from a forced-offline token) carry over to later rounds.
const TICKS_PER_PHASE: u64 = 2_000;

const SHARDS: usize = 2; // a run is bit-identical at any shard count
const STANDING: u32 = 0; // the first subscription a fresh PDS numbers

/// Shape of one subscription network.
#[derive(Debug, Clone)]
pub struct SubNetConfig {
    /// Number of tokens, each with its own PDS and standing query.
    pub tokens: usize,
    /// Master seed (write streams + bus schedule).
    pub seed: u64,
    /// Fabric profile.
    pub bus: BusConfig,
}

impl SubNetConfig {
    /// The fleet's manufacturer-issued protocol key. Tokens and the
    /// collector both hold it; the store-and-forward fabric between
    /// them only ever carries ciphertext.
    pub fn protocol_key(&self) -> SymmetricKey {
        SymmetricKey::from_seed(&self.seed.to_le_bytes())
    }

    /// A subscription network over the default weak-connectivity fabric.
    pub fn new(tokens: usize, seed: u64) -> Self {
        SubNetConfig {
            tokens,
            seed,
            bus: BusConfig {
                seed,
                ..BusConfig::default()
            },
        }
    }
}

/// What one subscription round did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubRoundReport {
    /// Rows written (and committed) across the fleet this round.
    pub rows_written: u32,
    /// Of those, rows matching the standing predicates.
    pub rows_matched: u32,
    /// Non-empty deltas mailed to the collector.
    pub deltas_mailed: u32,
    /// Matching rows the collector folded this round (first arrivals).
    pub rows_delivered: u32,
}

/// A slim-profile PDS subscribed to `category = "salary"` on BANK. No
/// factory rebuilds a token's history, so a park keeps it whatever its
/// flush did; `None` is a token that could not be built or woken.
#[derive(Clone)]
struct SubHost;

impl TokenHost for SubHost {
    type Token = Option<Pds>;
    type Sleep = Option<PdsHibernation>;

    fn create(&self, i: usize) -> Option<Pds> {
        let mut pds = Pds::slim(i as u64, &format!("owner-{i}")).ok()?;
        let sub = pds.subscribe(BANK_TABLE, Predicate::eq("category", Value::str("salary")));
        (sub.ok()? == STANDING).then_some(pds)
    }

    fn hibernate(&self, _i: usize, token: Option<Pds>) -> Option<Option<PdsHibernation>> {
        Some(token.map(|pds| pds.power_down().0))
    }

    fn wake(&self, _i: usize, sleep: Option<PdsHibernation>) -> Option<Pds> {
        Pds::wake(sleep?).ok().map(|(pds, _)| pds)
    }
}

/// A fleet of PDS tokens, each holding a standing query, mailing result
/// deltas to the SSI collector over the bus.
pub struct SubNet {
    cfg: SubNetConfig,
    /// Token `i` in slot `i`; the cap covers the fleet.
    sched: FleetScheduler<SubHost>,
    bus: MailboxBus,
    /// Shared protocol key sealing every delta on the wire.
    key: SymmetricKey,
    round: u32,
    /// Collector ledger: `(token, round) → amount`, first arrival only.
    delivered: BTreeMap<(u32, u32), u64>,
    /// Ground truth: every matching row whose commit returned.
    expected: BTreeMap<(u32, u32), u64>,
    duplicates: u64,
}

impl SubNet {
    /// Build the network, one standing query per token.
    pub fn build(cfg: SubNetConfig) -> Result<SubNet, FleetError> {
        let mut sched = FleetScheduler::build(cfg.tokens, SHARDS, cfg.tokens, SubHost)?;
        sched.warm();
        Ok(SubNet {
            key: cfg.protocol_key(),
            bus: MailboxBus::new(cfg.bus),
            cfg,
            sched,
            round: 0,
            delivered: BTreeMap::new(),
            expected: BTreeMap::new(),
            duplicates: 0,
        })
    }

    /// Bus delivery counters.
    pub fn bus_stats(&self) -> BusStats {
        self.bus.stats()
    }

    /// Scheduler accounting: a power cycle is an eviction and a sleep wake.
    pub fn sched_stats(&self) -> SchedStats {
        self.sched.stats()
    }

    /// Pin a token offline / bring it back (its deltas wait on the bus).
    pub fn force_offline(&mut self, token: usize, offline: bool) {
        self.bus.force_offline(token, offline);
    }

    /// Run `f` on token `t`'s PDS in a turn of its own; an error for an
    /// index the network does not host or a token that is down.
    pub fn with_token<R, F>(&mut self, t: usize, f: F) -> Result<R, PdsError>
    where
        R: Send + 'static,
        F: Fn(&mut Pds) -> R + Send + Clone + 'static,
    {
        let turn = (t < self.cfg.tokens).then(|| (t, Vec::new()));
        let visit = move |_, v: &mut Visit<'_, SubHost>, _| v.token().as_mut().map(&f);
        let out = self.sched.dispatch(None, turn.into_iter().collect(), visit);
        out.into_iter().find_map(|(_, r)| r).ok_or(TOKEN_DOWN)
    }

    /// One round: write → poll → deliver. Run inside a
    /// `pds_obs::trace::trace` scope, it records there a stitched
    /// `fleet.subs` trace of the three phases (a `token.N` tree per turn)
    /// and the hop history of every delta the round moved. A token that
    /// fails its turn fails the round; every other turn still counts.
    pub fn round(&mut self) -> Result<SubRoundReport, PdsError> {
        let round = self.round;
        self.round += 1;
        let mut rep = SubRoundReport::default();
        let mut ftb = FleetTraceBuilder::new("fleet.subs", self.cfg.seed);
        ftb.set("tokens", self.cfg.tokens);
        ftb.set("round", u64::from(round));
        ftb.set("seed", self.cfg.seed);

        // Phase 1: every token ingests and commits (one HLC stamp, the
        // cursor's unit); the ground truth takes rows whose commit returned.
        let ctx = ftb.begin_phase("phase.write", &self.bus);
        let seed = self.cfg.seed;
        let written = self.sched.dispatch_all(ctx, move |i, visit, _| {
            let pds = visit.token().as_mut().ok_or(TOKEN_DOWN)?;
            let mut rng = derived_rng(seed, TAG_SUB, (u64::from(round) << 32) | i as u64);
            let amount = 1_000 + rng.next_u64() % 9_000; // even: a salary
            let category = ["salary", "groceries"][(amount % 2) as usize];
            pds.ingest_bank(u64::from(round), category, amount, "employer")?;
            pds.commit().map(|_| amount)
        });
        ftb.end_phase(&mut self.bus, self.sched.take_spans());
        let mut failed = None;
        for (i, amount) in ok_turns(written, &mut failed) {
            if amount.is_multiple_of(2) {
                self.expected.insert((i as u32, round), amount);
                rep.rows_matched += 1;
            }
            rep.rows_written += 1;
        }
        failed.take().map_or(Ok(()), Err)?;

        // Phase 2: each token polls and seals a non-empty delta in its
        // turn (the fabric is untrusted; deterministic SIV replays).
        let ctx = ftb.begin_phase("phase.poll", &self.bus);
        let key = self.key.clone();
        let polled = self.sched.dispatch_all(ctx, move |i, visit, _| {
            let pds = visit.token().as_mut().ok_or(TOKEN_DOWN)?;
            let delta = pds.poll_subscription(STANDING)?;
            let sealed = (!delta.is_empty()).then(|| encode_delta(i as u32, &delta));
            Ok(sealed.map(|plain| key.encrypt_det(&plain).0))
        });
        for (i, payload) in ok_turns(polled, &mut failed) {
            if let Some(payload) = payload {
                rep.deltas_mailed += 1;
                self.bus
                    .send_in(Addr::Token(i), Addr::Collector, payload, ctx);
            }
        }
        self.bus.run_until_quiet(TICKS_PER_PHASE);
        ftb.end_phase(&mut self.bus, self.sched.take_spans());

        // Phase 3: the collector folds what arrived into its ledger.
        ftb.begin_phase("phase.deliver", &self.bus);
        rep.rows_delivered = self.fold_collector();
        ftb.end_phase(&mut self.bus, Vec::new());
        ftb.finish();
        failed.map_or(Ok(rep), Err)
    }

    /// Drain the collector mailbox into the ledger; returns first
    /// arrivals folded (duplicates are counted, not folded).
    fn fold_collector(&mut self) -> u32 {
        let mut folded = 0;
        for m in self.bus.drain_inbox(Addr::Collector) {
            let plain = self.key.decrypt(&Ciphertext(m.payload));
            let Some((token, rows)) = plain.and_then(|p| decode_delta(&p)) else {
                continue;
            };
            for (day, amount) in rows {
                if self.delivered.insert((token, day), amount).is_some() {
                    self.duplicates += 1;
                    pds_obs::counter("sub.duplicates").inc();
                } else {
                    folded += 1;
                }
            }
        }
        folded
    }

    /// Let in-flight deltas land (offline tokens came back, stragglers
    /// drain) and fold them; returns rows folded.
    pub fn settle(&mut self, max_ticks: u64) -> u32 {
        self.bus.run_until_quiet(max_ticks);
        self.fold_collector()
    }

    /// Power-cycle one token: the scheduler parks it (a flush, cursor
    /// included, then power-off; a failed flush is a power loss) and the
    /// turn run next wakes it, resuming the standing query from its
    /// durable cursor. A token whose wake fails stays down: an error.
    pub fn power_cycle(&mut self, token: usize) -> Result<(), PdsError> {
        self.sched.park(token);
        self.with_token(token, |_| ())
    }

    /// The collector ledger: `(token, round) → amount`.
    pub fn delivered(&self) -> &BTreeMap<(u32, u32), u64> {
        &self.delivered
    }

    /// Ground truth written so far: every committed matching row.
    pub fn expected(&self) -> &BTreeMap<(u32, u32), u64> {
        &self.expected
    }

    /// Duplicate arrivals at the collector (should stay 0).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// The exactly-once witness: no duplicates, and the ledger equals
    /// the ground truth (after [`SubNet::settle`], so stragglers land).
    pub fn exactly_once(&self) -> bool {
        self.duplicates == 0 && self.delivered == self.expected
    }
}

/// The turns that succeeded, in token order; the first failure is kept
/// in `failed`.
fn ok_turns<'a, T: 'a>(
    turns: Vec<(usize, Result<T, PdsError>)>,
    failed: &'a mut Option<PdsError>,
) -> impl Iterator<Item = (usize, T)> + 'a {
    let mut keep = |e| *failed = failed.take().or(Some(e));
    turns
        .into_iter()
        .filter_map(move |(i, t)| Some((i, t.map_err(&mut keep).ok()?)))
}

/// What an index not hosted, or a token not built or woken, answers.
const TOKEN_DOWN: PdsError = PdsError::ArchiveCorrupt("no live token at this index");

/// Delta wire form: `token (4B LE) || count (4B LE) || count × (day
/// (4B LE) || amount (8B LE))`: a row by its round, not its rowid.
fn encode_delta(token: u32, rows: &[(u32, Row)]) -> Vec<u8> {
    let column = |row: &Row, c: usize| row.get(c).and_then(|v| v.as_u64()).unwrap_or(0);
    let mut out = Vec::with_capacity(8 + rows.len() * 12);
    out.extend_from_slice(&token.to_le_bytes());
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for (_, row) in rows {
        out.extend_from_slice(&(column(row, 0) as u32).to_le_bytes());
        out.extend_from_slice(&column(row, 2).to_le_bytes());
    }
    out
}

/// Parse the delta wire form; `None` on any truncation or trailing
/// byte, and on a row count the bytes that follow could not hold.
fn decode_delta(bytes: &[u8]) -> Option<(u32, Vec<(u32, u64)>)> {
    let mut r = Reader::new(bytes);
    let token = r.u32()?;
    let count = r.count32(4 + 8)?;
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        rows.push((r.u32()?, r.u64()?));
    }
    r.finish()?;
    Some((token, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_reach_the_collector_exactly_once() {
        let mut n = SubNet::build(SubNetConfig::new(4, 3)).unwrap();
        for _ in 0..3 {
            n.round().unwrap();
        }
        n.settle(10_000);
        assert!(n.exactly_once(), "duplicates: {}", n.duplicates());
        assert!(!n.expected().is_empty());
    }

    #[test]
    fn power_cycle_neither_skips_nor_redelivers() {
        let mut n = SubNet::build(SubNetConfig::new(3, 5)).unwrap();
        n.round().unwrap();
        n.power_cycle(1).unwrap();
        n.round().unwrap();
        n.settle(10_000);
        assert!(n.exactly_once(), "duplicates: {}", n.duplicates());
    }

    #[test]
    fn a_token_that_did_not_wake_is_down_and_its_neighbours_keep_their_index() {
        let mut n = SubNet::build(SubNetConfig::new(4, 5)).unwrap();
        n.round().unwrap();
        // What a failed wake leaves in its slot.
        n.sched
            .dispatch(None, vec![(2, Vec::new())], |_, visit, _| {
                visit.token().take();
            });
        assert!(n.with_token(2, |_| ()).is_err());
        assert!(n.power_cycle(2).is_err(), "down through the park and wake");
        assert!(n.round().is_err(), "reported, not passed over");
        n.power_cycle(3).unwrap();
        for t in [0, 1, 3] {
            assert_eq!(n.with_token(t, |pds| pds.id().0).unwrap(), t as u64);
        }
        assert!(n.with_token(4, |_| ()).is_err(), "not hosted");
        assert!(n.power_cycle(4).is_err(), "an error, not an index panic");
    }

    #[test]
    fn every_power_cycle_is_one_park_and_one_sleep_wake() {
        let mut n = SubNet::build(SubNetConfig::new(6, 11)).unwrap();
        let before = n.sched_stats();
        let mut cycles = 0;
        for r in 0..4 {
            n.round().unwrap();
            for t in (0..6).filter(|t| t % 3 == r % 3) {
                n.power_cycle(t).unwrap();
                cycles += 1;
            }
        }
        n.settle(10_000);
        assert!(n.exactly_once(), "duplicates: {}", n.duplicates());
        let st = n.sched_stats().since(&before);
        assert_eq!((st.evictions, st.sleep_wakes), (cycles, cycles));
        assert_eq!(
            (st.cold_builds, st.rebuilds),
            (0, 0),
            "built once, at build"
        );
    }

    #[test]
    fn offline_token_deltas_park_then_land() {
        let mut n = SubNet::build(SubNetConfig::new(3, 7)).unwrap();
        n.force_offline(2, true);
        for _ in 0..4 {
            n.round().unwrap();
        }
        let parked = n
            .expected()
            .keys()
            .filter(|(t, _)| *t == 2)
            .filter(|k| !n.delivered().contains_key(k))
            .count();
        assert!(parked > 0, "token 2 wrote matching rows it could not mail");
        n.force_offline(2, false);
        n.round().unwrap();
        n.settle(10_000);
        assert!(n.exactly_once(), "duplicates: {}", n.duplicates());
    }

    #[test]
    fn traced_round_shows_write_poll_deliver() {
        let mut n = SubNet::build(SubNetConfig::new(3, 9)).unwrap();
        let (rep, scope) = pds_obs::trace::trace("caller", || n.round());
        rep.unwrap();
        let t = pds_obs::FleetTrace::new(scope.find("fleet.subs").expect("stitched").clone());
        let names: Vec<&str> = t.phases().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["phase.write", "phase.poll", "phase.deliver"]);
        // One `token.N` tree per token in each of the two token phases,
        // as the other fleet drivers stitch them.
        for (phase, trees) in t.phases().iter().zip([3, 3, 0]) {
            let tokens: Vec<&str> = phase
                .children
                .iter()
                .filter(|c| c.name.starts_with("token."))
                .map(|c| c.name.as_str())
                .collect();
            let want: Vec<String> = (0..trees).map(|i| format!("token.{i}")).collect();
            assert_eq!(tokens, want, "{}", phase.name);
        }
    }

    #[test]
    fn a_round_outside_any_scope_records_no_hop() {
        let mut n = SubNet::build(SubNetConfig::new(3, 9)).unwrap();
        n.round().unwrap();
        assert!(n.bus.take_hops().is_empty());
    }

    #[test]
    fn rounds_are_seed_deterministic() {
        let run = |seed| {
            let mut n = SubNet::build(SubNetConfig::new(4, seed)).unwrap();
            for _ in 0..2 {
                n.round().unwrap();
            }
            n.settle(10_000);
            (n.delivered().clone(), n.bus_stats())
        };
        assert_eq!(run(6), run(6));
    }

    #[test]
    fn delta_wire_form_round_trips() {
        let rows = vec![
            (
                0u32,
                vec![Value::U64(1), Value::str("salary"), Value::U64(500)],
            ),
            (
                7u32,
                vec![Value::U64(2), Value::str("salary"), Value::U64(900)],
            ),
        ];
        let bytes = encode_delta(3, &rows);
        assert_eq!(decode_delta(&bytes), Some((3, vec![(1, 500), (2, 900)])));
        assert_eq!(decode_delta(&bytes[..bytes.len() - 1]), None);
        assert_eq!(decode_delta(&[]), None);
    }

    /// The bomb: eight bytes claiming 2³² − 1 rows used to reach
    /// `Vec::with_capacity` and abort the collector's process.
    #[test]
    fn deltas_keep_the_decoder_contract() {
        use pds_obs::rng::Rng;
        pds_obs::wire::sweep(
            "delta",
            pds_obs::wire::Tail::Exact,
            &[&[3, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF]],
            |rng| {
                let rows = (0..rng.gen_range(0..6u32)).map(|_| (rng.gen(), rng.gen()));
                let rows: Vec<(u32, u64)> = rows.collect();
                (rng.gen::<u32>(), rows)
            },
            |(token, rows)| {
                let bank_row = |day: u32, amount| {
                    vec![
                        Value::U64(day.into()),
                        Value::str("salary"),
                        Value::U64(amount),
                    ]
                };
                let rows: Vec<_> = rows
                    .iter()
                    .map(|&(day, amount)| (0, bank_row(day, amount)))
                    .collect();
                encode_delta(*token, &rows)
            },
            decode_delta,
        );
    }
}
