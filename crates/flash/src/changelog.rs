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
//! a page-grain binary search of the log on flash, which keeps no copy
//! of its records in RAM, and the durable prefix after a power loss is
//! always a causal prefix of history.
//!
//! Recovery is one pass (a log of `k` pages is read `k + 1` times — its
//! pages and the erased page that ends the scan) that hands each record
//! to the layer above as it goes; the first record refused cuts the log
//! there, on flash too ([`LogWriter::recover_with`]). GC reclaims at
//! block grain, as the tutorial's logs do: whole head blocks go back to
//! the pool, and nothing is rewritten.

use std::ops::ControlFlow;

use pds_obs::wire::Reader;

use crate::error::{FlashError, Result};
use crate::geometry::BlockId;
use crate::log::{LogPos, LogWriter, RecoveryReport};
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
fn follows(rec: &ChangeRec, last: (u64, u32)) -> bool {
    rec.stamp() >= last
}

/// An appendable, durably recoverable log of [`ChangeRec`]s: a record log
/// and the stamp of its last record.
pub struct ChangeLog {
    log: LogWriter,
    last: Option<(u64, u32)>,
}

impl ChangeLog {
    /// An empty change log; no flash block is held until the first flush.
    pub fn new(flash: &Flash) -> Self {
        ChangeLog {
            log: flash.new_log(),
            last: None,
        }
    }

    /// Records currently exposed (flushed + buffered).
    pub fn num_records(&self) -> u64 {
        self.log.num_records()
    }

    /// Stamp of the newest record appended or recovered, if any.
    pub fn last_stamp(&self) -> Option<(u64, u32)> {
        self.last
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
        if self.last.is_some_and(|last| !follows(&rec, last)) {
            return Err(FlashError::OutOfOrderChange);
        }
        self.log.append(&rec.encode())?;
        self.last = Some(rec.stamp());
        pds_obs::counter!("mvcc.changes_logged").inc();
        Ok(())
    }

    /// Durably flush buffered records to flash.
    pub fn flush(&mut self) -> Result<()> {
        self.log.flush()
    }

    /// Decode a record of log page `page`. The recovery scan decoded
    /// every record on flash once, so a failure here is a corrupt page.
    fn decode(&self, page: u32, bytes: &[u8]) -> Result<ChangeRec> {
        ChangeRec::decode(bytes).ok_or_else(|| {
            self.log
                .page_addr(page)
                .map_or_else(|e| e, FlashError::CorruptPage)
        })
    }

    /// Where a scan for the records stamped strictly after `(hlc, node)`
    /// starts: at most ⌈log₂ pages⌉ page reads, left in `scratch`.
    fn first_after(&self, scratch: &mut Vec<u8>, hlc: u64, node: u32) -> Result<LogPos> {
        self.log.partition_point(scratch, |page, bytes| {
            Ok(self.decode(page, bytes)?.stamp() <= (hlc, node))
        })
    }

    /// Every record with a stamp strictly greater than `(hlc, node)`, in
    /// stamp order. This is the read the whole subsystem serves:
    /// consumers keep a cursor stamp and receive each committed change
    /// exactly once. Read from flash: a binary search for the cursor
    /// (at most ⌈log₂ pages⌉ page reads) and one more read at most before
    /// the pages the records are returned from.
    pub fn changes_since(&self, hlc: u64, node: u32) -> Result<Vec<ChangeRec>> {
        let mut scratch = Vec::new();
        let from = self.first_after(&mut scratch, hlc, node)?;
        let mut out = Vec::new();
        self.log.scan(from, &mut scratch, |page, _, bytes| {
            let rec = self.decode(page, bytes)?;
            if rec.stamp() > (hlc, node) {
                out.push(rec);
            }
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(out)
    }

    /// Compact against a GC floor at block grain: the whole head blocks
    /// whose records are all stamped at or below `(hlc, node)` go back to
    /// the pool, found by the binary search `changes_since` makes (at
    /// most ⌈log₂ pages⌉ page reads), and nothing is programmed or
    /// erased. Records at or below the floor that share a block with a
    /// later one stay, and `changes_since` a cursor at or above the floor
    /// never returns them. Returns the number of records dropped.
    pub fn compact(&mut self, hlc: u64, node: u32) -> Result<u64> {
        let floor = self.first_after(&mut Vec::new(), hlc, node)?;
        let dropped = self.log.release_head(self.log.blocks_before(floor));
        pds_obs::counter!("mvcc.changes_compacted").add(u64::from(dropped));
        Ok(u64::from(dropped))
    }

    /// Rebuild a change log after a power loss from its block list, in
    /// one pass: the page scan is [`LogWriter::recover_with`]
    /// (CRC-checked, torn tail truncated), and each record it hands over
    /// goes on to `keep` — the layer above's test, which rebuilds what it
    /// derives from the log as records pass. The recovered log is the
    /// durable causal prefix of the pre-crash history: the first record
    /// that fails to decode, breaks stamp monotonicity or is refused by
    /// `keep` cuts it there, dropping everything after it, on flash too.
    /// So a layer whose durable stores lost the entities a record names
    /// (a *phantom*: its commit stamp survived the crash, its data did
    /// not) cuts the log at it, and `changes_since` never names an entity
    /// newer than the recovered store.
    pub fn recover(
        flash: &Flash,
        blocks: &[BlockId],
        mut keep: impl FnMut(&ChangeRec) -> bool,
    ) -> Result<(ChangeLog, RecoveryReport)> {
        let mut last = None;
        let (log, rep) = LogWriter::recover_with(flash, blocks, |bytes| {
            let rec = ChangeRec::decode(bytes)
                .filter(|rec| last.is_none_or(|last| follows(rec, last)) && keep(rec));
            last = rec.map(|r| r.stamp()).or(last);
            rec.is_some()
        })?;
        pds_obs::counter!("recovery.changes_recovered").add(rep.records_recovered);
        Ok((ChangeLog { log, last }, rep))
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

    fn all(log: &ChangeLog) -> Vec<ChangeRec> {
        log.changes_since(0, 0).unwrap()
    }

    /// ⌈log₂ n⌉: the page reads a binary search over `n` pages takes.
    fn log2_ceil(n: u32) -> u64 {
        u64::from(n.next_power_of_two().trailing_zeros())
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
        assert_eq!(log.changes_since(0, 0).unwrap().len(), 10);
        assert_eq!(log.changes_since(10, 7).unwrap().len(), 0);
        let tail = log.changes_since(7, 7).unwrap();
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].hlc, 8);
        // Node tie-break: cursor below the node sees the same-counter record.
        assert_eq!(log.changes_since(7, 0).unwrap().len(), 4);
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
        assert_eq!(log.changes_since(4, u32::MAX).unwrap().len(), 3);
        assert_eq!(log.changes_since(5, 7).unwrap().len(), 1);
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
        let (rec2, report) = ChangeLog::recover(&f2, &blocks, |_| true).unwrap();
        assert_eq!(rec2.num_records(), durable);
        assert_eq!(report.records_recovered, durable);
        assert_eq!(rec2.last_stamp(), Some((200, 7)));
        assert_eq!(rec2.changes_since(150, 7).unwrap().len(), 50);
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
        let mut handed = Vec::new();
        let (rec2, _) = ChangeLog::recover(&f2, &log.blocks(), |r| {
            handed.push(*r);
            true
        })
        .unwrap();
        assert_eq!(f2.stats().page_reads, pages + 1);
        // Every record was handed over once, in order, and is read back.
        assert_eq!(handed, all(&log));
        assert_eq!(all(&rec2), handed);
    }

    /// The reads that replace a RAM copy: a binary search for the cursor
    /// and at most one more read before the pages the records come from.
    #[test]
    fn changes_since_reads_a_binary_search_and_the_pages_it_returns() {
        let f = Flash::small(16);
        let mut log = ChangeLog::new(&f);
        for i in 1..=300u64 {
            log.append(rec(i, 0, i as u32)).unwrap();
        }
        let pages = log.log.num_pages();
        assert!(
            pages > 8 && log.log.buffered_records().len() > 1,
            "{pages} pages"
        );
        // The page of every programmed record, as ordinals run.
        let page_of: Vec<u32> = (0..pages)
            .flat_map(|p| {
                let n = log.log.read_page_records(p).unwrap().len();
                std::iter::repeat_n(p, n)
            })
            .collect();
        for cursor in 0..=300u64 {
            let before = f.stats().page_reads;
            let got = log.changes_since(cursor, 7).unwrap();
            let reads = f.stats().page_reads - before;
            let want: Vec<u64> = (cursor + 1..=300).collect();
            assert_eq!(got.iter().map(|r| r.hlc).collect::<Vec<_>>(), want);
            let mut from: Vec<u32> = page_of.iter().skip(cursor as usize).copied().collect();
            from.dedup();
            let bound = log2_ceil(pages) + 1 + from.len() as u64;
            assert!(reads <= bound, "cursor {cursor}: {reads} reads > {bound}");
        }
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
        let (blocks, free, pages) = (log.blocks(), f.free_blocks(), log.log.num_pages());
        let gc = |log: &mut ChangeLog, floor: u64| {
            let io = f.stats();
            let dropped = log.compact(floor, u32::MAX).unwrap();
            let after = f.stats();
            assert!(
                after.page_reads - io.page_reads <= log2_ceil(pages),
                "GC reads"
            );
            assert_eq!(
                (after.page_programs, after.block_erases),
                (io.page_programs, io.block_erases),
                "GC programs and erases nothing"
            );
            dropped
        };
        // A floor inside the first block frees nothing.
        assert_eq!(gc(&mut log, 300), 0);
        assert_eq!(log.blocks(), blocks);
        // Records 1..=1152 fill the first three blocks; 1153..=1500 share
        // the fourth with records above the floor.
        assert_eq!(gc(&mut log, 1500), 1152);
        assert_eq!(log.blocks(), blocks[3..]);
        assert_eq!(f.free_blocks(), free + 3, "whole blocks, and only those");
        assert_eq!(log.num_records(), 2000 - 1152);
        assert_eq!(all(&log)[0].hlc, 1153);
        assert_eq!(log.changes_since(1500, u32::MAX).unwrap().len(), 500);
        // Every record kept survives a power cycle, and the log grows on.
        let f2 = f.reboot();
        let (mut rec2, report) = ChangeLog::recover(&f2, &log.blocks(), |_| true).unwrap();
        assert_eq!(all(&rec2), all(&log));
        assert!(!report.refused);
        rec2.append(rec(2001, 0, 2001)).unwrap();
        assert_eq!(rec2.changes_since(1500, u32::MAX).unwrap().len(), 501);
    }

    #[test]
    fn compact_releases_every_whole_block_at_or_below_the_floor() {
        // 384 records to a block; 2 000 fill five blocks and part of a
        // sixth. Floors on each side of every block boundary.
        let floors = (1..=6u64).flat_map(|k| (0..5).map(move |d| (384 * k + d).saturating_sub(2)));
        for floor in floors {
            let f = Flash::small(64);
            let mut log = ChangeLog::new(&f);
            for i in 1..=2000u64 {
                log.append(rec(i, 0, i as u32)).unwrap();
            }
            log.flush().unwrap();
            let whole = (floor.min(2000) / 384).min(5) * 384;
            assert_eq!(
                log.compact(floor, u32::MAX).unwrap(),
                whole,
                "floor {floor}"
            );
            assert_eq!(all(&log)[0].hlc, whole + 1, "floor {floor}");
        }
    }

    #[test]
    fn recover_cuts_at_the_first_refused_record() {
        let f = Flash::small(16);
        let mut log = ChangeLog::new(&f);
        for i in 1..=10u64 {
            log.append(rec(i, 0, i as u32)).unwrap();
        }
        log.flush().unwrap();
        // Entities 1..=6 survived the crash; 7 and everything after is cut.
        let (log, report) =
            ChangeLog::recover(&f.reboot(), &log.blocks(), |r| r.entity <= 6).unwrap();
        assert!(report.refused);
        assert_eq!((report.records_recovered, log.num_records()), (10, 6));
        assert_eq!(log.last_stamp(), Some((6, 7)));
    }

    /// A cut at recovery must cut flash as well: left on flash in front
    /// of the append point, the phantoms' bytes would be recovered at the
    /// next power cycle, under ids the regrown store has since given to
    /// other rows.
    #[test]
    fn phantoms_cut_at_recovery_stay_cut_after_the_store_regrows() {
        let f = Flash::small(16);
        let mut log = ChangeLog::new(&f);
        for e in 0..10u32 {
            log.append(rec(1 + u64::from(e), 0, e)).unwrap();
        }
        log.flush().unwrap();
        // Power cycle 1: rows 6.. never reached flash; their records go.
        let f = f.reboot();
        let (mut log, report) = ChangeLog::recover(&f, &log.blocks(), |r| r.entity < 6).unwrap();
        assert_eq!(report.records_recovered - log.num_records(), 4);
        // The store grows past the phantoms' ids under later stamps.
        for e in 6..12u32 {
            log.append(rec(20 + u64::from(e), 0, e)).unwrap();
        }
        log.flush().unwrap();
        // Power cycle 2: every row is there, so the caller's test keeps
        // everything — and each entity must be named once.
        let (log, report) =
            ChangeLog::recover(&f.reboot(), &log.blocks(), |r| r.entity < 12).unwrap();
        assert!(!report.refused);
        let entities: Vec<u32> = all(&log).iter().map(|r| r.entity).collect();
        assert_eq!(entities, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn changes_since_reads_are_pinned() {
        // A flushed 200-record log on 9 pages.
        let f = Flash::small(16);
        let mut log = ChangeLog::new(&f);
        for i in 1..=200u64 {
            log.append(rec(i, 0, i as u32)).unwrap();
        }
        log.flush().unwrap();
        assert_eq!(log.log.num_pages(), 9);
        // The reads of `changes_since` at every stamp, folded in order.
        let (mut total, mut fold) = (0, 0u64);
        for cursor in 0..=200u64 {
            let before = f.stats().page_reads;
            assert_eq!(
                log.changes_since(cursor, 7).unwrap().len() as u64,
                200 - cursor
            );
            let reads = f.stats().page_reads - before;
            total += reads;
            fold = fold.wrapping_mul(31).wrapping_add(reads);
        }
        assert_eq!((total, fold), (1620, 179_791_479_016_109_828));
    }
}
