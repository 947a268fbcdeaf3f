//! The durable HLC change log — the storage half of the MVCC subsystem.
//!
//! Every committed write batch of a personal data server is described by
//! a run of [`ChangeRec`]s stamped with the commit's hybrid logical
//! clock. The records ride ordinary [`LogWriter`] record pages, so they
//! inherit the whole flash contract for free: strictly sequential
//! programs, per-page CRCs, and a recovery scan that truncates a torn
//! tail to the durable prefix ([`ChangeLog::recover`]).
//!
//! The log answers one question — `changes_since(h)` — which is what
//! both consumers of the subsystem are built on: continuous queries
//! re-evaluate standing predicates over the records after their cursor,
//! and delta sync ships "changes since HLC h" instead of full state.
//!
//! Stamps here are raw `(counter, node)` pairs: the typed `Hlc` clock
//! lives in `pds-db`, which this crate sits *below* in the layering
//! matrix. Records are appended in strictly increasing stamp order
//! (enforced — [`FlashError::OutOfOrderChange`]), so `changes_since` is
//! a binary search over the RAM mirror, and the durable prefix after a
//! power loss is always a causal prefix of history.
//!
//! Recovery is one pass: the mirror is rebuilt from the records the
//! page scan hands over as it goes (a log of `k` pages is read `k + 1`
//! times — its pages and the erased page that ends the scan), and flash
//! and mirror leave it equal: a record that cuts the mirror is rewritten
//! away before anything is appended behind it. GC reclaims at block
//! grain, as the tutorial's logs do: whole head blocks go back to the
//! pool, and nothing is rewritten.

use pds_obs::wire::Reader;

use crate::error::{FlashError, Result};
use crate::geometry::BlockId;
use crate::log::LogWriter;
use crate::Flash;

/// One committed change: "entity `entity` of store `store` changed at
/// HLC `(hlc, node)`". `kind` is a caller-defined discriminant (row
/// insert, document append, …) the storage layer never interprets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangeRec {
    /// HLC logical counter of the commit.
    pub hlc: u64,
    /// Node id of the committing token (HLC tie-break).
    pub node: u32,
    /// Caller-defined change kind.
    pub kind: u8,
    /// Caller-defined store id (table index, document store, …).
    pub store: u16,
    /// Entity within the store (rowid / docid).
    pub entity: u32,
}

/// Fixed wire size of one encoded record.
const REC_BYTES: usize = 19;

impl ChangeRec {
    /// The record's stamp, ordered lexicographically.
    pub fn stamp(&self) -> (u64, u32) {
        (self.hlc, self.node)
    }

    /// Fixed 19-byte wire form.
    pub fn encode(&self) -> [u8; REC_BYTES] {
        let mut out = [0u8; REC_BYTES];
        out[0..8].copy_from_slice(&self.hlc.to_le_bytes());
        out[8..12].copy_from_slice(&self.node.to_le_bytes());
        out[12] = self.kind;
        out[13..15].copy_from_slice(&self.store.to_le_bytes());
        out[15..19].copy_from_slice(&self.entity.to_le_bytes());
        out
    }

    /// Parse the wire form; `None` on any size mismatch.
    pub fn decode(bytes: &[u8]) -> Option<ChangeRec> {
        let mut r = Reader::new(bytes);
        let rec = ChangeRec {
            hlc: r.u64()?,
            node: r.u32()?,
            kind: r.u8()?,
            store: r.u16()?,
            entity: r.u32()?,
        };
        r.finish()?;
        Some(rec)
    }
}

/// Log order: all records of one commit share its stamp, and later
/// commits stamp strictly higher.
fn follows(rec: &ChangeRec, last: &ChangeRec) -> bool {
    rec.stamp() >= last.stamp()
}

/// What a [`ChangeLog::recover`] scan found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChangeLogRecovery {
    /// Records recovered into the rebuilt log.
    pub records_recovered: u64,
    /// Torn pages discarded at the truncation point.
    pub torn_pages_discarded: u64,
    /// Records dropped because they failed to decode or broke stamp
    /// monotonicity (everything after the first such record is dropped
    /// too — the log only ever exposes a causal prefix).
    pub malformed_dropped: u64,
}

/// An appendable, durably recoverable log of [`ChangeRec`]s with a RAM
/// mirror (19 B per record) serving `changes_since` without page I/O.
pub struct ChangeLog {
    log: LogWriter,
    /// Every exposed record (flushed + buffered), in stamp order.
    records: Vec<ChangeRec>,
}

impl ChangeLog {
    /// An empty change log; no flash block is held until the first flush.
    pub fn new(flash: &Flash) -> Self {
        ChangeLog {
            log: flash.new_log(),
            records: Vec::new(),
        }
    }

    /// Records currently exposed (flushed + buffered).
    pub fn num_records(&self) -> u64 {
        self.records.len() as u64
    }

    /// Stamp of the newest record, if any.
    pub fn last_stamp(&self) -> Option<(u64, u32)> {
        self.records.last().map(ChangeRec::stamp)
    }

    /// Every exposed record, in stamp order (the RAM mirror). Replay
    /// input for layers rebuilding their version marks after recovery.
    pub fn records(&self) -> &[ChangeRec] {
        &self.records
    }

    /// The erase blocks the log occupies — its durable identity, to be
    /// persisted by the layer above and handed to [`ChangeLog::recover`].
    pub fn blocks(&self) -> Vec<BlockId> {
        self.log.blocks().to_vec()
    }

    /// Append one record. Stamps must be non-decreasing — all records of
    /// one commit share its stamp, and later commits stamp strictly
    /// higher. Appending below [`last_stamp`](Self::last_stamp) is
    /// refused with [`FlashError::OutOfOrderChange`].
    pub fn append(&mut self, rec: ChangeRec) -> Result<()> {
        if self.records.last().is_some_and(|last| !follows(&rec, last)) {
            return Err(FlashError::OutOfOrderChange);
        }
        self.log.append(&rec.encode())?;
        self.records.push(rec);
        pds_obs::counter!("mvcc.changes_logged").inc();
        Ok(())
    }

    /// Durably flush buffered records to flash.
    pub fn flush(&mut self) -> Result<()> {
        self.log.flush()
    }

    /// Index of the first record stamped strictly after `(hlc, node)`.
    fn first_after(&self, hlc: u64, node: u32) -> usize {
        self.records.partition_point(|r| r.stamp() <= (hlc, node))
    }

    /// Every record with a stamp strictly greater than `(hlc, node)`, in
    /// stamp order. This is the read the whole subsystem serves:
    /// consumers keep a cursor stamp and receive each committed change
    /// exactly once.
    pub fn changes_since(&self, hlc: u64, node: u32) -> Vec<ChangeRec> {
        self.records[self.first_after(hlc, node)..].to_vec()
    }

    /// Drop the suffix of records starting at the first one `keep`
    /// rejects; returns how many were dropped. Used after recovery to
    /// discard *phantom* records — records whose commit stamp survived
    /// the crash but whose data rows did not — so `changes_since` never
    /// names an entity newer than the recovered store. A cut rewrites
    /// the survivors into a fresh log before returning, so flash equals
    /// the mirror: left in front of the append point, the phantoms would
    /// come back at the next power cycle, by then under ids the regrown
    /// store has given to other entities.
    pub fn retain_prefix(&mut self, keep: impl Fn(&ChangeRec) -> bool) -> Result<u64> {
        let all = self.records.len();
        let cut = self.records.iter().position(|r| !keep(r)).unwrap_or(all);
        if cut < all {
            self.records.truncate(cut);
            self.rewrite()?;
        }
        Ok((all - cut) as u64)
    }

    /// Replace the log by a fresh one holding the mirror's records, and
    /// return the old blocks to the pool — the cut of a recovery or a
    /// [`retain_prefix`](Self::retain_prefix).
    fn rewrite(&mut self) -> Result<()> {
        let mut fresh = self.log.flash().new_log();
        for rec in &self.records {
            fresh.append(&rec.encode())?;
        }
        // Make the survivors durable before the old blocks go back to the
        // pool — a cut must never narrow the durable history further.
        fresh.flush()?;
        std::mem::replace(&mut self.log, fresh).discard();
        Ok(())
    }

    /// Compact against a GC floor at block grain: the whole head blocks
    /// whose records are all stamped at or below `(hlc, node)` go back to
    /// the pool, and nothing is programmed. Records at or below the floor
    /// that share a block with a later one stay, and `changes_since` a
    /// cursor at or above the floor never returns them. Returns the
    /// number of records dropped.
    pub fn compact(&mut self, hlc: u64, node: u32) -> u64 {
        let floor = self.first_after(hlc, node) as u32;
        let dropped = self.log.release_head(self.log.blocks_before(floor));
        self.records.drain(..dropped as usize);
        pds_obs::counter!("mvcc.changes_compacted").add(u64::from(dropped));
        u64::from(dropped)
    }

    /// Rebuild a change log after a power loss from its block list, in
    /// one pass: the page scan is [`LogWriter::recover_with`]
    /// (CRC-checked, torn tail truncated) and the mirror is built from
    /// the records it hands over. The recovered log is the durable causal
    /// prefix of the pre-crash history: the first record that fails to
    /// decode or breaks stamp monotonicity cuts it there, dropping
    /// everything after it, and the survivors are rewritten into a fresh
    /// log so flash equals the mirror. So `changes_since` can never
    /// return a record the durable stores have no data for (phantoms
    /// from *lost data rows* are the caller's cut, via
    /// [`retain_prefix`](Self::retain_prefix)).
    pub fn recover(flash: &Flash, blocks: &[BlockId]) -> Result<(ChangeLog, ChangeLogRecovery)> {
        let mut records: Vec<ChangeRec> = Vec::new();
        let (log, rep) = LogWriter::recover_with(flash, blocks, |bytes| {
            let rec = ChangeRec::decode(bytes)
                .filter(|rec| records.last().is_none_or(|last| follows(rec, last)));
            records.extend(rec);
            rec.is_some()
        })?;
        let mut changes = ChangeLog { log, records };
        if rep.refused {
            changes.rewrite()?;
        }
        let report = ChangeLogRecovery {
            records_recovered: changes.num_records(),
            torn_pages_discarded: rep.torn_pages_discarded,
            malformed_dropped: u64::from(rep.refused),
        };
        pds_obs::counter!("recovery.changes_recovered").add(report.records_recovered);
        Ok((changes, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(hlc: u64, store: u16, entity: u32) -> ChangeRec {
        ChangeRec {
            hlc,
            node: 7,
            kind: 1,
            store,
            entity,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let r = ChangeRec {
            hlc: u64::MAX - 3,
            node: 0xDEAD_BEEF,
            kind: 2,
            store: 0xFFFF,
            entity: 41,
        };
        assert_eq!(ChangeRec::decode(&r.encode()), Some(r));
        assert_eq!(ChangeRec::decode(&[0u8; 5]), None);
        assert_eq!(ChangeRec::decode(&[0u8; REC_BYTES + 1]), None);
    }

    #[test]
    fn changes_since_is_strictly_after_the_cursor() {
        let f = Flash::small(16);
        let mut log = ChangeLog::new(&f);
        for i in 1..=10u64 {
            log.append(rec(i, 0, i as u32)).unwrap();
        }
        assert_eq!(log.changes_since(0, 0).len(), 10);
        assert_eq!(log.changes_since(10, 7).len(), 0);
        let tail = log.changes_since(7, 7);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].hlc, 8);
        // Node tie-break: cursor below the node sees the same-counter record.
        assert_eq!(log.changes_since(7, 0).len(), 4);
    }

    #[test]
    fn out_of_order_append_is_refused() {
        let f = Flash::small(16);
        let mut log = ChangeLog::new(&f);
        log.append(rec(5, 0, 0)).unwrap();
        // Equal stamp = same commit: allowed.
        log.append(rec(5, 0, 1)).unwrap();
        assert_eq!(
            log.append(rec(4, 0, 2)).unwrap_err(),
            FlashError::OutOfOrderChange
        );
        log.append(rec(6, 0, 2)).unwrap();
        assert_eq!(log.num_records(), 3);
        // A multi-record commit is returned whole or not at all.
        assert_eq!(log.changes_since(4, u32::MAX).len(), 3);
        assert_eq!(log.changes_since(5, 7).len(), 1);
    }

    #[test]
    fn recover_returns_the_durable_prefix() {
        let f = Flash::small(16);
        let mut log = ChangeLog::new(&f);
        for i in 1..=200u64 {
            log.append(rec(i, 1, i as u32)).unwrap();
        }
        log.flush().unwrap();
        let durable = log.num_records();
        // Buffered-only records die with RAM.
        log.append(rec(201, 1, 201)).unwrap();
        let blocks = log.blocks();

        let f2 = f.reboot();
        let (rec2, report) = ChangeLog::recover(&f2, &blocks).unwrap();
        assert_eq!(rec2.num_records(), durable);
        assert_eq!(report.records_recovered, durable);
        assert_eq!(rec2.last_stamp(), Some((200, 7)));
        assert_eq!(rec2.changes_since(150, 7).len(), 50);
    }

    #[test]
    fn recover_reads_each_page_once_and_the_page_that_ends_the_scan() {
        let f = Flash::small(16);
        let mut log = ChangeLog::new(&f);
        for i in 1..=200u64 {
            log.append(rec(i, 1, i as u32)).unwrap();
        }
        log.flush().unwrap();
        let pages = f.stats().page_programs;
        assert!(pages > 1 && !pages.is_multiple_of(16), "{pages} pages");
        let f2 = f.reboot();
        let (rec2, _) = ChangeLog::recover(&f2, &log.blocks()).unwrap();
        assert_eq!(rec2.records(), log.records());
        assert_eq!(f2.stats().page_reads, pages + 1);
    }

    #[test]
    fn compact_drops_old_records_and_frees_blocks() {
        // 24 records to a 512-byte page, 384 to a block of 16 pages.
        let f = Flash::small(64);
        let mut log = ChangeLog::new(&f);
        for i in 1..=2000u64 {
            log.append(rec(i, 0, i as u32)).unwrap();
        }
        log.flush().unwrap();
        let (blocks, free, io) = (log.blocks(), f.free_blocks(), f.stats());
        // A floor inside the first block frees nothing.
        assert_eq!(log.compact(300, u32::MAX), 0);
        assert_eq!(log.blocks(), blocks);
        // Records 1..=1152 fill the first three blocks; 1153..=1500 share
        // the fourth with records above the floor.
        assert_eq!(log.compact(1500, u32::MAX), 1152);
        assert_eq!(log.blocks(), blocks[3..]);
        assert_eq!(f.free_blocks(), free + 3, "whole blocks, and only those");
        assert_eq!(f.stats(), io, "GC reads, programs and erases nothing");
        assert_eq!(log.num_records(), 2000 - 1152);
        assert_eq!(log.records()[0].hlc, 1153);
        assert_eq!(log.changes_since(1500, u32::MAX).len(), 500);
        // Every record kept survives a power cycle, and the log grows on.
        let f2 = f.reboot();
        let (mut rec2, report) = ChangeLog::recover(&f2, &log.blocks()).unwrap();
        assert_eq!(rec2.records(), log.records());
        assert_eq!(report.malformed_dropped, 0);
        rec2.append(rec(2001, 0, 2001)).unwrap();
        assert_eq!(rec2.changes_since(1500, u32::MAX).len(), 501);
    }

    #[test]
    fn retain_prefix_cuts_at_first_rejected_record() {
        let f = Flash::small(16);
        let mut log = ChangeLog::new(&f);
        for i in 1..=10u64 {
            log.append(rec(i, 0, i as u32)).unwrap();
        }
        // Entities 1..=6 survived the crash; 7 and everything after is cut.
        let dropped = log.retain_prefix(|r| r.entity <= 6).unwrap();
        assert_eq!(dropped, 4);
        assert_eq!(log.last_stamp(), Some((6, 7)));
    }

    /// `retain_prefix` must cut flash as well as the mirror: left on
    /// flash in front of the append point, the phantoms' bytes would be
    /// recovered at the next power cycle, under ids the regrown store
    /// has since given to other rows.
    #[test]
    fn phantoms_cut_by_retain_prefix_stay_cut_after_the_store_regrows() {
        let f = Flash::small(16);
        let mut log = ChangeLog::new(&f);
        for e in 0..10u32 {
            log.append(rec(1 + u64::from(e), 0, e)).unwrap();
        }
        log.flush().unwrap();
        // Power cycle 1: rows 6.. never reached flash; their records go.
        let f = f.reboot();
        let (mut log, _) = ChangeLog::recover(&f, &log.blocks()).unwrap();
        assert_eq!(log.retain_prefix(|r| r.entity < 6).unwrap(), 4);
        // The store grows past the phantoms' ids under later stamps.
        for e in 6..12u32 {
            log.append(rec(20 + u64::from(e), 0, e)).unwrap();
        }
        log.flush().unwrap();
        // Power cycle 2: every row is there, so the caller's cut keeps
        // everything — and each entity must be named once.
        let (mut log, _) = ChangeLog::recover(&f.reboot(), &log.blocks()).unwrap();
        assert_eq!(log.retain_prefix(|r| r.entity < 12).unwrap(), 0);
        let entities: Vec<u32> = log.records().iter().map(|r| r.entity).collect();
        assert_eq!(entities, (0..12).collect::<Vec<_>>());
    }
}
