//! Continuous queries as a fleet workload.
//!
//! Each token registers a standing predicate on its own PDS
//! ([`pds_core::Pds::subscribe`]); after every commit round the token
//! polls its subscription and mails the *result delta* — only the rows
//! the collector has not seen — over the store-and-forward bus to the
//! SSI-hosted collector role. The MVCC change log makes the delta exact:
//! a poll re-evaluates the predicate against `changes_since(cursor)`
//! and advances the cursor in whole commits, so every committed
//! matching row is delivered exactly once even across a token
//! power-cycle (the cursor hibernates with the PDS and the change log
//! is durable).
//!
//! The collector keeps a `(token, rowid)` ledger: a duplicate arrival —
//! which the cursor discipline is supposed to make impossible — is
//! counted in `sub.duplicates` instead of silently folded, so the
//! exactly-once property is *measured*, not assumed. Like every fleet
//! job, a run is a pure function of the seed: write content derives
//! from `(seed, round, token)` streams, the bus schedule from the bus
//! seed, and the ledger is a `BTreeMap` — bit-identical at any worker
//! count (the PDSs live on the driver thread; a secure token is `!Send`).

use std::collections::BTreeMap;

use pds_core::data::BANK_TABLE;
use pds_core::{Pds, PdsError, Predicate, ReopenReport, Row, Value};
use pds_obs::rng::RngCore;
use pds_obs::wire::Reader;

use pds_crypto::{Ciphertext, SymmetricKey};

use crate::agg::derived_rng;
use crate::bus::{Addr, BusConfig, BusStats, MailboxBus};
use crate::trace::FleetTraceBuilder;

const TAG_SUB: u64 = 0x464C_5453_5542_0001; // per-(round, token) write stream

/// Bus ticks granted per delivery phase; deltas still in flight (e.g.
/// from a forced-offline token) carry over to later rounds.
const TICKS_PER_PHASE: u64 = 2_000;

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

/// A fleet of PDS tokens, each holding a standing query, mailing result
/// deltas to the SSI collector over the bus.
pub struct SubNet {
    cfg: SubNetConfig,
    /// Token `i` sits at index `i` for the life of the network; `None`
    /// once a power cycle failed to wake it.
    pds: Vec<Option<Pds>>,
    sub_ids: Vec<u32>,
    /// Rows inserted into each token's BANK table so far (= next rowid).
    bank_rows: Vec<u32>,
    bus: MailboxBus,
    /// Shared protocol key sealing every delta on the wire.
    key: SymmetricKey,
    round: u32,
    /// Collector ledger: `(token, rowid) → amount`, first arrival only.
    delivered: BTreeMap<(u32, u32), u64>,
    /// Ground truth: every committed matching row, stamped at write time.
    expected: BTreeMap<(u32, u32), u64>,
    duplicates: u64,
}

impl SubNet {
    /// Build the network: one slim-profile PDS per token, each
    /// subscribed to `category = "salary"` on its BANK table.
    pub fn build(cfg: SubNetConfig) -> Result<SubNet, PdsError> {
        let mut pds = Vec::with_capacity(cfg.tokens);
        let mut sub_ids = Vec::with_capacity(cfg.tokens);
        for i in 0..cfg.tokens {
            let mut p = Pds::slim(i as u64, &format!("owner-{i}"))?;
            let id = p.subscribe(BANK_TABLE, Predicate::eq("category", Value::str("salary")))?;
            pds.push(Some(p));
            sub_ids.push(id);
        }
        let bus = MailboxBus::new(cfg.bus);
        Ok(SubNet {
            bank_rows: vec![0; cfg.tokens],
            key: cfg.protocol_key(),
            cfg,
            pds,
            sub_ids,
            bus,
            round: 0,
            delivered: BTreeMap::new(),
            expected: BTreeMap::new(),
            duplicates: 0,
        })
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.cfg.tokens
    }

    /// True when the network hosts no tokens.
    pub fn is_empty(&self) -> bool {
        self.cfg.tokens == 0
    }

    /// Bus delivery counters.
    pub fn bus_stats(&self) -> BusStats {
        self.bus.stats()
    }

    /// Pin a token offline / bring it back (its deltas wait on the bus).
    pub fn force_offline(&mut self, token: usize, offline: bool) {
        self.bus.force_offline(token, offline);
    }

    /// One token's PDS — its flash handle, recorder ring, subscriptions —
    /// or `None` for an index the network does not host or a token a
    /// power cycle failed to wake.
    pub fn token(&self, token: usize) -> Option<&Pds> {
        self.pds.get(token)?.as_ref()
    }

    /// Token `i` for a round's work. A token that is down fails every
    /// round that needs it, rather than being passed over in silence.
    fn live(&mut self, i: usize) -> Result<&mut Pds, PdsError> {
        self.pds[i].as_mut().ok_or_else(token_down)
    }

    /// One round: write → poll → deliver. Run inside a
    /// `pds_obs::trace::trace` scope, it records there a stitched
    /// `fleet.subs` trace of the three phases and the hop history of
    /// every delta the round moved — no `token.N` trees: the tokens live
    /// on the driver's thread.
    pub fn round(&mut self) -> Result<SubRoundReport, PdsError> {
        let round = self.round;
        self.round += 1;
        let mut rep = SubRoundReport::default();
        let mut ftb = FleetTraceBuilder::new("fleet.subs", self.cfg.seed);
        ftb.set("tokens", self.cfg.tokens);
        ftb.set("round", u64::from(round));
        ftb.set("seed", self.cfg.seed);

        // Phase 1: every token ingests and commits — one HLC stamp per
        // token per round, the unit the subscription cursor moves in.
        ftb.begin_phase("phase.write", &self.bus);
        for i in 0..self.cfg.tokens {
            let mut rng = derived_rng(self.cfg.seed, TAG_SUB, (u64::from(round) << 32) | i as u64);
            let amount = 1_000 + rng.next_u64() % 9_000;
            let matches = amount.is_multiple_of(2);
            let category = if matches { "salary" } else { "groceries" };
            self.live(i)?
                .ingest_bank(u64::from(round), category, amount, "employer")?;
            let rowid = self.bank_rows[i];
            self.bank_rows[i] += 1;
            if matches {
                self.expected.insert((i as u32, rowid), amount);
                rep.rows_matched += 1;
            }
            rep.rows_written += 1;
            self.live(i)?.commit()?;
        }
        ftb.end_phase(&mut self.bus, Vec::new());

        // Phase 2: each token polls its standing query and mails the
        // non-empty delta to the collector.
        let ctx = ftb.begin_phase("phase.poll", &self.bus);
        for i in 0..self.cfg.tokens {
            let sub = self.sub_ids[i];
            let delta = self.live(i)?.poll_subscription(sub)?;
            if delta.is_empty() {
                continue;
            }
            rep.deltas_mailed += 1;
            // The fabric is untrusted: deltas travel sealed under the
            // protocol key (deterministic SIV keeps rounds replayable).
            let payload = self.key.encrypt_det(&encode_delta(i as u32, &delta)).0;
            self.bus
                .send_in(Addr::Token(i), Addr::Collector, payload, ctx);
        }
        self.bus.run_until_quiet(TICKS_PER_PHASE);
        ftb.end_phase(&mut self.bus, Vec::new());

        // Phase 3: the collector folds what arrived into its ledger.
        ftb.begin_phase("phase.deliver", &self.bus);
        rep.rows_delivered = self.fold_collector();
        ftb.end_phase(&mut self.bus, Vec::new());
        ftb.finish();
        Ok(rep)
    }

    /// Drain the collector mailbox into the ledger; returns first
    /// arrivals folded (duplicates are counted, not folded).
    fn fold_collector(&mut self) -> u32 {
        let mut folded = 0;
        for m in self.bus.drain_inbox(Addr::Collector) {
            let Some(plain) = self.key.decrypt(&Ciphertext(m.payload)) else {
                continue;
            };
            let Some((token, rows)) = decode_delta(&plain) else {
                continue;
            };
            for (rowid, amount) in rows {
                if self.delivered.insert((token, rowid), amount).is_some() {
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

    /// Power-cycle one token: hibernate (flushes the data, subscription
    /// cursor included; a park keeps no Info recorder frame) and wake.
    /// The standing query resumes from its durable cursor — no change is
    /// re-delivered, no change is skipped. A flush that fails is a power
    /// loss: the token still comes back, and the report names what the
    /// loss cost. If the wake itself fails the token stays down and the
    /// error is returned; either way every other token keeps its own
    /// index.
    pub fn power_cycle(&mut self, token: usize) -> Result<ReopenReport, PdsError> {
        let slot = self.pds.get_mut(token).and_then(Option::take);
        let pds = slot.ok_or_else(token_down)?;
        let (h, _flushed) = pds.power_down();
        let (pds, report) = Pds::wake(h)?;
        self.pds[token] = Some(pds);
        Ok(report)
    }

    /// Reclaim version history on every token, bounded by each
    /// subscription's cursor (GC never outruns an unpolled standing
    /// query).
    pub fn gc(&mut self) -> Result<(), PdsError> {
        for p in self.pds.iter_mut().flatten() {
            p.gc_versions()?;
        }
        Ok(())
    }

    /// The collector ledger: `(token, rowid) → amount`.
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
    /// the ground truth (run [`SubNet::settle`] first so stragglers
    /// land).
    pub fn exactly_once(&self) -> bool {
        self.duplicates == 0 && self.delivered == self.expected
    }
}

/// What an index answers that holds no live token: one the network does
/// not host, or a token a power cycle did not wake.
fn token_down() -> PdsError {
    PdsError::ArchiveCorrupt("no live token at this index")
}

/// Delta wire form: `token (4B LE) || count (4B LE) || count × (rowid
/// (4B LE) || amount (8B LE))`.
fn encode_delta(token: u32, rows: &[(u32, Row)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + rows.len() * 12);
    out.extend_from_slice(&token.to_le_bytes());
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for (rowid, row) in rows {
        out.extend_from_slice(&rowid.to_le_bytes());
        let amount = row.get(2).and_then(|v| v.as_u64()).unwrap_or(0);
        out.extend_from_slice(&amount.to_le_bytes());
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
        n.pds[2] = None; // what a failed wake leaves behind
        assert!(n.token(2).is_none());
        assert!(n.power_cycle(2).is_err());
        assert!(n.round().is_err(), "reported, not passed over");
        n.power_cycle(3).unwrap();
        for t in [0, 1, 3] {
            assert_eq!(n.token(t).unwrap().id().0, t as u64);
        }
        assert!(n.token(4).is_none(), "not hosted");
        assert!(n.power_cycle(4).is_err(), "an error, not an index panic");
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
        assert_eq!(decode_delta(&bytes), Some((3, vec![(0, 500), (7, 900)])));
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
                let bank_row =
                    |amount| vec![Value::U64(0), Value::str("salary"), Value::U64(amount)];
                let rows: Vec<_> = rows
                    .iter()
                    .map(|&(id, amount)| (id, bank_row(amount)))
                    .collect();
                encode_delta(*token, &rows)
            },
            decode_delta,
        );
    }
}
