//! Trusted-Cells synchronization as a fleet job.
//!
//! The Trusted-Cells vision syncs one owner's devices through an
//! untrusted cloud. In-process, `pds_sync::TrustedCell::sync` talks to
//! the [`CloudStore`] directly; here the same [`CellMsg`] protocol runs
//! over the store-and-forward bus: cells are online only a fraction of
//! ticks, requests / replies / pushes are bus messages that retry with
//! backoff, and an offline cell's traffic simply parks in its mailbox
//! until it reconnects — which is exactly how the cloud provides
//! availability in the paper's architecture. A sync round is a
//! three-phase fleet job: *request* (cells mail their requests in
//! parallel), *serve* (the cloud applies every push that arrived, then
//! answers every pull), *reconcile* (cells apply the replies in
//! parallel).
//!
//! A cell reconciles through the generation digest: in the request
//! phase it pushes the slices it wrote that the cloud has not yet listed
//! back, and sends one [`CellMsg::PullChanged`]; the cloud answers with
//! every slice put since; the reconcile phase applies that reply. A
//! write reaches every online cell in the round it is pushed and the
//! next round proves the fleet quiet. The two modes differ only in the
//! `since` a cell sends. Delta mode ([`CellNetConfig::delta`]) sends the
//! last store generation the cell applied, so an idle round costs one
//! request and one empty reply per cell. Full mode sends 0, the digest
//! that forgets the generation: every reply lists every slice's
//! ciphertext.
//!
//! Every randomness source is a derived stream keyed by
//! `(seed, round, cell)`, so a run is deterministic at any worker
//! count; the regression test for "offline cells converge after coming
//! back online" lives in `tests/fleet.rs`.

use std::collections::BTreeMap;
use std::sync::Arc;

use pds_core::{CloudStore, PdsError};
use pds_sync::{serve_cloud, CellMsg, CellSyncReport, TrustedCell};

use crate::agg::derived_rng;
use crate::bus::{Addr, BusConfig, BusMsg, BusStats, MailboxBus};
use crate::sched::{FleetError, TokenPool};
use crate::trace::FleetTraceBuilder;

const TAG_CELL: u64 = 0x464C_5443_454C_4C04; // per-(round, cell) push stream

/// Bus ticks granted per phase; traffic still in flight afterwards
/// (e.g. to a forced-offline cell) carries over to later rounds.
const TICKS_PER_PHASE: u64 = 2_000;

/// One cell's request-phase output: `(wire requests, pushes among them)`.
type RequestOut = (Vec<Vec<u8>>, u32);

/// Shape of one cell network.
#[derive(Debug, Clone)]
pub struct CellNetConfig {
    /// Number of trusted cells.
    pub cells: usize,
    /// Worker threads hosting the cell shards.
    pub workers: usize,
    /// Master seed (bus schedule + push encryption streams).
    pub seed: u64,
    /// Fabric profile.
    pub bus: BusConfig,
    /// Delta reconcile: each cell's [`CellMsg::PullChanged`] asks for
    /// the slices changed since the last store generation it applied
    /// instead of since 0 (every slice, full mode), so an in-sync cell
    /// costs a 9-byte request and a 13-byte empty reply. Off by default —
    /// both modes converge to the same [`CellNet::versions`] witness.
    pub delta: bool,
}

impl CellNetConfig {
    /// A cell network over the default weak-connectivity fabric.
    pub fn new(cells: usize, workers: usize, seed: u64) -> Self {
        CellNetConfig {
            cells,
            workers,
            seed,
            bus: BusConfig {
                seed,
                ..BusConfig::default()
            },
            delta: false,
        }
    }

    /// Same network, delta reconcile on.
    pub fn with_delta(mut self) -> Self {
        self.delta = true;
        self
    }
}

/// One owner's cells, the untrusted cloud, and the bus between them.
pub struct CellNet {
    cfg: CellNetConfig,
    pool: TokenPool<TrustedCell>,
    bus: MailboxBus,
    cloud: CloudStore,
    round: u32,
    report: CellSyncReport,
}

impl CellNet {
    /// Build the network; the factory constructs cell `i` inside its
    /// owning worker.
    pub fn build<F>(cfg: CellNetConfig, factory: F) -> Result<Self, FleetError>
    where
        F: Fn(usize) -> TrustedCell + Send + Sync + 'static,
    {
        let pool = TokenPool::build(cfg.cells, cfg.workers, factory)?;
        let bus = MailboxBus::new(cfg.bus);
        Ok(CellNet {
            cfg,
            pool,
            bus,
            cloud: CloudStore::new(),
            round: 0,
            report: CellSyncReport::default(),
        })
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cfg.cells
    }

    /// True when the network hosts no cells.
    pub fn is_empty(&self) -> bool {
        self.cfg.cells == 0
    }

    /// Cumulative sync outcomes.
    pub fn report(&self) -> CellSyncReport {
        self.report
    }

    /// Bus delivery counters.
    pub fn bus_stats(&self) -> BusStats {
        self.bus.stats()
    }

    /// Pin a cell offline / bring it back (its bus traffic waits).
    pub fn force_offline(&mut self, cell: usize, offline: bool) {
        self.bus.force_offline(cell, offline);
    }

    /// Local write on one cell (bumps the slice version there). A `cell`
    /// the network does not host writes nothing.
    pub fn write(&mut self, cell: usize, slice: &str, data: &[u8]) {
        let slice = slice.to_string();
        let data = data.to_vec();
        self.pool.with(cell, move |c| c.write(&slice, &data));
    }

    /// One synchronization round: request → serve → reconcile, all
    /// token↔cloud traffic on the bus. Run inside a
    /// `pds_obs::trace::trace` scope, it records there a stitched
    /// `fleet.sync` trace: per-cell `token.N` spans in the
    /// request/reconcile phases and the full hop history of every message
    /// the round moved.
    pub fn sync_round(&mut self) -> Result<CellSyncReport, PdsError> {
        let round = self.round;
        self.round += 1;
        let mut delta = CellSyncReport::default();
        let mut ftb = FleetTraceBuilder::new("fleet.sync", self.cfg.seed);
        ftb.set("cells", self.cfg.cells);
        ftb.set("round", u64::from(round));
        ftb.set("seed", self.cfg.seed);

        // Phase 1: every cell mails its unlisted pushes and one digest
        // pull — since 0 in full mode.
        let ctx = ftb.begin_phase("phase.request", &self.bus);
        let use_delta = self.cfg.delta;
        let seed = self.cfg.seed;
        let (requests, spans) = self.pool.map_traced(ctx, move |i, c| -> RequestOut {
            let mut rng = derived_rng(seed, TAG_CELL, (u64::from(round) << 32) | i as u64);
            let mut reqs = c.digest_requests(&mut rng);
            if !use_delta {
                // Full mode: the digest that forgets the generation.
                if let Some(CellMsg::PullChanged { since }) = reqs.last_mut() {
                    *since = 0;
                }
            }
            let pushes = reqs
                .iter()
                .filter(|m| matches!(m, CellMsg::Push { .. }))
                .count();
            (reqs.iter().map(CellMsg::to_bytes).collect(), pushes as u32)
        });
        for (i, (reqs, pushes)) in requests.into_iter().enumerate() {
            delta.pushed += pushes;
            for r in reqs {
                self.bus.send_in(Addr::Token(i), Addr::Ssi, r, ctx);
            }
        }
        self.bus.run_until_quiet(TICKS_PER_PHASE);
        ftb.end_phase(&mut self.bus, spans);

        // Phase 2: the cloud applies every push that arrived, then
        // answers every pull, so a reply carries this round's writes
        // (version-guarded; requests from offline cells simply arrive in
        // a later round).
        let ctx = ftb.begin_phase("phase.serve", &self.bus);
        let (pushes, pulls): (Vec<_>, Vec<_>) = self
            .bus
            .drain_inbox(Addr::Ssi)
            .into_iter()
            .filter_map(|m| Some((m.from, CellMsg::from_bytes(&m.payload)?)))
            .partition(|(_, msg)| matches!(msg, CellMsg::Push { .. }));
        for (from, msg) in pushes.iter().chain(&pulls) {
            if let Some(resp) = serve_cloud(&mut self.cloud, msg) {
                self.bus.send_in(Addr::Ssi, *from, resp.to_bytes(), ctx);
            }
        }
        self.bus.run_until_quiet(TICKS_PER_PHASE);
        ftb.end_phase(&mut self.bus, Vec::new());

        // Phase 3: cells apply the replies in parallel; whatever is
        // still arriving at the cloud waits for the next serve phase.
        let ctx = ftb.begin_phase("phase.reconcile", &self.bus);
        let mail: Arc<BTreeMap<usize, Vec<BusMsg>>> =
            Arc::new(self.bus.take_token_mail().into_iter().collect());
        let (handled, spans) = self.pool.map_traced(ctx, move |i, c| {
            let mut rep = CellSyncReport::default();
            for m in mail.get(&i).into_iter().flatten() {
                if let Some(reply) = CellMsg::from_bytes(&m.payload) {
                    rep += c.apply_changed(&reply)?;
                }
            }
            Ok::<_, PdsError>(rep)
        });
        for rep in handled {
            delta += rep?;
        }
        self.bus.run_until_quiet(TICKS_PER_PHASE);
        ftb.end_phase(&mut self.bus, spans);

        self.report += delta;
        pds_obs::counter("fleet.cells.pushed").add(u64::from(delta.pushed));
        pds_obs::counter("fleet.cells.pulled").add(u64::from(delta.pulled));
        pds_obs::counter("fleet.cells.unchanged").add(u64::from(delta.unchanged));
        ftb.finish();
        Ok(delta)
    }

    /// Run up to `rounds` sync rounds, stopping early once a round moved
    /// nothing and the bus is idle.
    pub fn sync_until_quiet(&mut self, rounds: u32) -> Result<u32, PdsError> {
        for r in 0..rounds {
            let delta = self.sync_round()?;
            if delta.pushed == 0 && delta.pulled == 0 && self.bus.in_flight() == 0 {
                return Ok(r + 1);
            }
        }
        Ok(rounds)
    }

    /// Per-cell `(slice, version)` maps — the convergence witness.
    pub fn versions(&self) -> Vec<Vec<(String, u64)>> {
        self.pool.map(|_, c| {
            c.slice_names()
                .into_iter()
                .map(|s| {
                    let v = c.version(&s);
                    (s, v)
                })
                .collect()
        })
    }

    /// True when every cell holds identical slice versions.
    pub fn converged(&self) -> bool {
        let v = self.versions();
        v.windows(2).all(|w| w[0] == w[1])
    }

    /// Read one slice on one cell (`None` also for a `cell` the network
    /// does not host).
    pub fn read(&self, cell: usize, slice: &str) -> Option<Vec<u8>> {
        let slice = slice.to_string();
        self.pool
            .with(cell, move |c| c.read(&slice).map(<[u8]>::to_vec))
            .flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(cells: usize, workers: usize, seed: u64) -> CellNet {
        let cfg = CellNetConfig::new(cells, workers, seed);
        CellNet::build(cfg, |i| TrustedCell::new(&format!("cell-{i}"), b"owner-x")).unwrap()
    }

    #[test]
    fn all_cells_converge_on_one_write() {
        let mut n = net(5, 2, 1);
        n.write(0, "prefs", b"dark-mode");
        n.sync_until_quiet(40).unwrap();
        assert!(n.converged(), "versions: {:?}", n.versions());
        assert_eq!(n.read(4, "prefs").unwrap(), b"dark-mode");
    }

    #[test]
    fn newer_write_wins_across_the_bus() {
        let mut n = net(3, 2, 2);
        n.write(0, "s", b"v1");
        n.sync_until_quiet(40).unwrap();
        n.write(1, "s", b"v2-from-1");
        n.write(1, "s", b"v3-from-1");
        n.sync_until_quiet(40).unwrap();
        assert_eq!(n.read(2, "s").unwrap(), b"v3-from-1");
        assert_eq!(n.read(0, "s").unwrap(), b"v3-from-1");
    }

    #[test]
    fn a_cell_the_network_does_not_host_is_neither_read_nor_written() {
        let mut n = net(3, 2, 4);
        n.write(0, "prefs", b"dark-mode");
        // Used to panic in `swap_remove`.
        assert_eq!(n.read(3, "prefs"), None);
        assert_eq!(n.read(usize::MAX, "prefs"), None);
        n.write(3, "ghost", b"boo");
        n.sync_until_quiet(40).unwrap();
        assert!(n.converged(), "versions: {:?}", n.versions());
        assert!(n.versions()[0].iter().all(|(s, _)| s != "ghost"));
        assert_eq!(n.read(2, "prefs").unwrap(), b"dark-mode");
    }

    #[test]
    fn traced_round_shows_request_serve_reconcile() {
        let mut n = net(4, 2, 9);
        n.write(1, "notes", b"hello");
        let (rep, scope) = pds_obs::trace::trace("caller", || n.sync_round());
        rep.unwrap();
        let t = pds_obs::FleetTrace::new(scope.find("fleet.sync").expect("stitched").clone());
        let names: Vec<&str> = t.phases().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["phase.request", "phase.serve", "phase.reconcile"]);
        assert!(t.total_ticks() > 0);
        // The round moved traffic and every hop's history was stitched.
        assert!(t
            .phases()
            .iter()
            .any(|p| p.children.iter().any(|c| c.name.starts_with("hop."))));
    }

    #[test]
    fn a_round_outside_any_scope_records_no_hop() {
        let mut n = net(4, 2, 9);
        n.write(1, "notes", b"hello");
        n.sync_round().unwrap();
        assert!(n.bus.take_hops().is_empty());
    }

    #[test]
    fn delta_mode_converges_to_the_same_witness() {
        let run = |delta: bool| {
            let cfg = CellNetConfig::new(5, 2, 7);
            let cfg = if delta { cfg.with_delta() } else { cfg };
            let mut n = CellNet::build(cfg, |i| TrustedCell::new(&format!("cell-{i}"), b"owner-x"))
                .unwrap();
            n.write(0, "prefs", b"dark-mode");
            n.write(3, "notes", b"hello");
            n.sync_until_quiet(40).unwrap();
            assert!(n.converged(), "versions: {:?}", n.versions());
            n.versions()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn delta_mode_moves_fewer_payload_bytes_once_converged() {
        let build = |delta: bool| {
            let cfg = CellNetConfig::new(6, 2, 11);
            let cfg = if delta { cfg.with_delta() } else { cfg };
            let mut n = CellNet::build(cfg, |i| TrustedCell::new(&format!("cell-{i}"), b"owner-x"))
                .unwrap();
            n.write(0, "profile", &[7u8; 512]);
            n.sync_until_quiet(40).unwrap();
            assert!(n.converged());
            // Converged fleet: measure one idle reconcile round.
            let before = n.bus_stats().payload_bytes;
            n.sync_round().unwrap();
            n.bus_stats().payload_bytes - before
        };
        let full = build(false);
        let delta = build(true);
        assert!(
            delta * 5 <= full,
            "idle round: delta moved {delta} B, full moved {full} B"
        );
        // Exactly one 9-byte digest request and one 13-byte empty reply
        // per cell.
        assert_eq!(delta, 6 * (9 + 13), "idle delta round");
    }

    #[test]
    fn rounds_are_seed_deterministic() {
        let run = |seed| {
            let mut n = net(4, 2, seed);
            n.write(0, "a", b"1");
            n.write(2, "b", b"2");
            let rounds = n.sync_until_quiet(40).unwrap();
            (rounds, n.versions(), n.bus_stats())
        };
        assert_eq!(run(5), run(5));
    }
}
