//! The one boot path of a [`Pds`]: `power_off → wake`.
//!
//! A clean [`Pds::hibernate`] and a power loss ([`Pds::reopen`]) differ
//! only in whether the data was flushed and the recorder ring parked
//! ([`BlackBox::park`]) before the power went; both leave a
//! [`PdsHibernation`] and both come back through [`Pds::wake`], the only
//! code that recovers the stores, the recorder ring and the
//! subscription cursors.
//!
//! A power cycle costs what the token wrote, not what its chip could
//! hold: [`Pds::power_off`] throws the switch — the chip's cells *move*
//! into the hibernation, a page at a time as they were programmed, and
//! nothing is copied (the copying photograph, `Token::hibernate`, is for
//! callers that keep using the token) — and the wake reads each log's
//! pages once.

use std::collections::BTreeMap;

use pds_db::{Database, DatabaseManifest, Hlc};
use pds_flash::{BlackBox, BlockId};
use pds_mcu::{Token, TokenId, TokenSleep};
use pds_obs::flight::{self, code, subsystem, Severity};
use pds_search::{EngineManifest, SearchEngine};

use super::{Carried, Pds, Subscription};
use crate::error::PdsError;
use crate::forensics::ForensicsReport;

/// What [`Pds::reopen`] recovered after a power loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReopenReport {
    /// Documents intact after the crash.
    pub docs_recovered: u32,
    /// Documents lost (never fully reached flash).
    pub docs_lost: u32,
    /// Deletions re-applied from the durable tombstone log.
    pub tombstones_applied: u64,
    /// Documents re-indexed: the tail past the last index checkpoint, or
    /// every document when the index could not be kept.
    pub docs_replayed: u32,
    /// Index pages kept as they were across the power cycle.
    pub index_pages_kept: u32,
    /// Per-table `(name, rows_lost)`.
    pub rows_lost: Vec<(String, u32)>,
    /// Change records dropped from the HLC log because the rows they
    /// stamped did not survive (`changes_since` never names an entity
    /// the recovered stores cannot serve).
    pub changes_dropped: u64,
}

/// A powered-down PDS: the token's persistent silicon plus the recovery
/// manifests and RAM-carried metadata captured at power-off. Holds no
/// `Rc` flash handle and no live engine state — plain data a scheduler
/// can park by the hundred thousand and revive with [`Pds::wake`].
pub struct PdsHibernation {
    sleep: TokenSleep,
    meta: Carried,
    engine_manifest: EngineManifest,
    db_manifest: DatabaseManifest,
    /// The flight-recorder ring's durable identity (a hibernation holds
    /// no flash handle; the ring is recovered from its blocks on wake).
    blackbox_blocks: Vec<BlockId>,
}

impl PdsHibernation {
    /// The hibernated token's identity.
    pub fn id(&self) -> TokenId {
        self.sleep.id()
    }

    /// The chip's share of the parked footprint: bytes of the sparse
    /// chip snapshot, i.e. the pages the token programmed. The manifests
    /// and the carried metadata (policy, audit chain, schemas) are not
    /// counted, and on a token that wrote little they weigh more.
    pub fn resident_bytes(&self) -> usize {
        self.sleep.resident_bytes()
    }

    /// The same parked token with its search-index checkpoint withheld:
    /// [`Pds::wake`] then re-indexes every document on a fresh index log.
    /// That full rebuild is what recovery falls back to, and what the
    /// differential tests hold the kept index against.
    pub fn without_index_checkpoint(mut self) -> Self {
        self.engine_manifest.checkpoint_blocks.clear();
        self
    }
}

impl Pds {
    /// Cut the power: keep the token's silicon, the recovery manifests
    /// and the RAM-carried metadata, *without* flushing — whatever was
    /// still buffered dies here, exactly as in a real power loss. The
    /// manifests are read first, then the switch is thrown
    /// ([`Token::power_off`]): the chip's cells move into the
    /// hibernation, never copied — a page an injected power loss tore
    /// rides along — and the stores die holding handles on a dead chip.
    pub fn power_off(self) -> PdsHibernation {
        PdsHibernation {
            engine_manifest: self.engine.manifest(),
            db_manifest: self.db.manifest(),
            blackbox_blocks: self.blackbox.blocks(),
            meta: self.meta,
            sleep: self.token.power_off(),
        }
    }

    /// Simulate a power cycle and recover: power off with nothing
    /// flushed, then boot through [`Pds::wake`] — the flash controller
    /// state is rebuilt by cell scan, RAM is lost, every record log
    /// recovers its durable prefix, the inverted index is kept up to its
    /// last checkpoint and only the documents past it are re-indexed,
    /// the selection indexes are dropped, and the losses are reported
    /// honestly instead of surfacing later as corruption.
    pub fn reopen(self) -> Result<(Pds, ReopenReport), PdsError> {
        let span = pds_obs::span!("pds.reopen", "pds.owner" => self.meta.owner.as_str());
        let (pds, report) = Pds::wake(self.power_off())?;
        span.set("recovery.docs_replayed", u64::from(report.docs_replayed));
        span.set(
            "recovery.index_pages_kept",
            u64::from(report.index_pages_kept),
        );
        Ok((pds, report))
    }

    /// Power this PDS down to its persistent state: flush the data
    /// (documents, tombstones, index pages, table rows) to flash, park
    /// the recorder ring ([`BlackBox::park`]: its buffered frames reach
    /// flash only if one is above Info), then capture the token's
    /// silicon plus the recovery manifests and the RAM-carried metadata
    /// (policy, audit, keys, clock). The returned
    /// [`PdsHibernation`] is a fraction of the live footprint — no search
    /// engine, no table buffers, no flash handle — which is what lets a
    /// fleet scheduler keep hundreds of thousands of idle tokens parked.
    /// [`Pds::wake`] is the inverse; because the data was flushed first,
    /// the wake loses no data. [`Pds::sync`] first to keep every frame.
    pub fn hibernate(self) -> Result<PdsHibernation, PdsError> {
        let (h, flushed) = self.power_down();
        flushed.map(|()| h)
    }

    /// [`Pds::hibernate`] for a host that cannot rebuild its token from a
    /// factory and so must keep it whatever happens: the flush's verdict
    /// comes back beside the hibernation, not in place of it. A flush
    /// that failed is a power loss — the switch is thrown on whatever
    /// reached flash, and [`Pds::wake`] reports what that cost.
    pub fn power_down(mut self) -> (PdsHibernation, Result<(), PdsError>) {
        self.note(Severity::Info, code::CORE_HIBERNATE, [0, 0]);
        let flushed = self.flush_data().and_then(|()| Ok(self.blackbox.park()?));
        (self.power_off(), flushed)
    }

    /// Boot a PDS from its persistent state — the only boot path, taken
    /// after a clean hibernation and after a power loss alike: the token
    /// wakes from its chip snapshot, every durable structure recovers
    /// its durable prefix, and the recorder ring's recovery scan yields
    /// the post-mortem's verdict (the timeline stays on flash until
    /// [`Pds::pre_crash_timeline`] reads it).
    /// A clean hibernation reports zero losses.
    pub fn wake(h: PdsHibernation) -> Result<(Pds, ReopenReport), PdsError> {
        // Frames staged by the operation the power loss killed never
        // reached flash — discard them so the rebuilt ring cannot
        // contain phantom events the durable timeline never saw.
        let _ = flight::drain();
        let token = Token::wake(h.sleep);
        let flash = token.flash().clone();
        let ram = token.ram().clone();
        let (engine, er) = SearchEngine::recover(&flash, &ram, &h.engine_manifest)?;
        let (db, rows_lost, mr) =
            Database::recover(&flash, &ram, &h.db_manifest, Some(er.docs_recovered))?;
        let (mut blackbox, scan) = BlackBox::recover(&flash, &h.blackbox_blocks)?;
        let report = ReopenReport {
            docs_recovered: er.docs_recovered,
            docs_lost: er.docs_lost,
            tombstones_applied: er.tombstones_applied,
            docs_replayed: er.docs_replayed,
            index_pages_kept: er.index_pages_kept,
            rows_lost,
            changes_dropped: mr.as_ref().map_or(0, |r| r.changes_dropped),
        };
        // The verdict is the scan's, taken before any new frame is
        // absorbed: what the durable ring preserved ends at its last
        // frame, and every frame absorbed from here on ticks past it.
        let forensics = ForensicsReport::correlate(token.id().0, &scan, report.clone());
        flight::record(
            Severity::Info,
            subsystem::RECOVERY,
            code::RECOVERY_REOPEN,
            [u64::from(report.docs_recovered), report.changes_dropped],
        );
        let _ = blackbox.absorb(flight::drain());
        let mut meta = h.meta;
        clamp_cursors(&mut meta.subs, &db);
        let pds = Pds {
            token,
            meta,
            engine,
            db,
            blackbox,
            last_forensics: Some(forensics),
        };
        Ok((pds, report))
    }
}

/// After a power loss the HLC log recovers its durable prefix; a cursor
/// stamped beyond that prefix points at history that no longer exists.
/// Clamp it to the recovered frontier so the subscription resumes from
/// what actually survived.
fn clamp_cursors(subs: &mut BTreeMap<u32, Subscription>, db: &Database) {
    let now = db.mvcc().map_or(Hlc::ZERO, |m| m.now());
    for s in subs.values_mut() {
        if s.cursor > now {
            s.cursor = now;
        }
    }
}
