//! The mirrored log: fixed-width stamped records over a [`LogWriter`],
//! with a RAM mirror serving reads without page I/O.
//!
//! [`ChangeLog`](crate::ChangeLog) and [`BlackBox`](crate::BlackBox)
//! are separate *instances* of this one *implementation*. A front
//! supplies its record's encode/decode and the stamp order consecutive
//! records must keep (`>=` for change records — one commit shares a
//! stamp; `>` for recorder ticks); framing, compaction and recovery
//! live here once.

use crate::error::Result;
use crate::geometry::BlockId;
use crate::log::LogWriter;
use crate::Flash;

/// An appendable, durably recoverable log of `R` with a RAM mirror.
pub(crate) struct MirroredLog<R> {
    flash: Flash,
    log: LogWriter,
    /// Every exposed record (flushed + buffered), in stamp order.
    records: Vec<R>,
}

impl<R: Copy> MirroredLog<R> {
    /// An empty log; no flash block is held until the first flush.
    pub fn new(flash: &Flash) -> Self {
        MirroredLog {
            flash: flash.clone(),
            log: flash.new_log(),
            records: Vec::new(),
        }
    }

    pub fn records(&self) -> &[R] {
        &self.records
    }

    /// The erase blocks the log occupies — its durable identity.
    pub fn blocks(&self) -> Vec<BlockId> {
        self.log.blocks().to_vec()
    }

    /// Append `rec`, whose wire form is `bytes`.
    pub fn append(&mut self, rec: R, bytes: &[u8]) -> Result<()> {
        self.log.append(bytes)?;
        self.records.push(rec);
        Ok(())
    }

    /// Durably flush buffered records; returns the pages programmed.
    pub fn flush(&mut self) -> Result<u32> {
        let before = self.log.num_pages();
        self.log.flush()?;
        Ok(self.log.num_pages() - before)
    }

    /// Forget the mirror's suffix from `len` on (the flash pages keep
    /// the bytes until the next rewrite).
    pub fn truncate(&mut self, len: usize) {
        self.records.truncate(len);
    }

    /// Compact by whole-log rewrite (partial GC never occurs on this
    /// flash): records `keep_from..` go into a fresh log and the old
    /// blocks back to the pool. Returns the pages the fresh log holds.
    pub fn rewrite_from<W: AsRef<[u8]>>(
        &mut self,
        keep_from: usize,
        encode: impl Fn(&R) -> W,
    ) -> Result<u32> {
        let mut fresh = self.flash.new_log();
        for rec in &self.records[keep_from..] {
            fresh.append(encode(rec).as_ref())?;
        }
        // Make the survivors durable before the old blocks go back to the
        // pool — compaction must never narrow the durable history.
        fresh.flush()?;
        let pages = fresh.num_pages();
        std::mem::replace(&mut self.log, fresh).discard();
        self.records.drain(..keep_from);
        Ok(pages)
    }

    /// Rebuild after a power loss from the block list. The page scan is
    /// [`LogWriter::recover`] (CRC-checked, torn tail truncated); on top
    /// of it, the first record that fails to `decode` or does not
    /// `follow(record, previous)` cuts the log there, dropping everything
    /// after it — what is recovered is always a causal prefix of the
    /// pre-crash history, and torn bytes never decode into phantoms.
    /// Returns the log, the torn pages discarded, and whether it cut.
    pub fn recover(
        flash: &Flash,
        blocks: &[BlockId],
        decode: impl Fn(&[u8]) -> Option<R>,
        follows: impl Fn(&R, &R) -> bool,
    ) -> Result<(Self, u64, bool)> {
        let (log, rep) = LogWriter::recover(flash, blocks)?;
        let mut records: Vec<R> = Vec::new();
        let mut cut = false;
        'pages: for page in 0..log.num_pages() {
            for bytes in log.read_page_records(page)? {
                match decode(&bytes) {
                    Some(rec) if records.last().is_none_or(|last| follows(&rec, last)) => {
                        records.push(rec);
                    }
                    _ => {
                        cut = true;
                        break 'pages;
                    }
                }
            }
        }
        let log = MirroredLog {
            flash: flash.clone(),
            log,
            records,
        };
        Ok((log, rep.torn_pages_discarded, cut))
    }
}

#[cfg(test)]
mod tests {
    use crate::{BlackBox, BlockId, ChangeLog, ChangeRec, FaultPlan, Flash};
    use pds_obs::flight::{subsystem, EventFrame, Severity};

    fn change(stamp: u64) -> ChangeRec {
        ChangeRec {
            hlc: stamp,
            node: 7,
            kind: 1,
            store: 0,
            entity: stamp as u32,
        }
    }

    fn frame(stamp: u64) -> EventFrame {
        let mut f = EventFrame::new(Severity::Info, subsystem::CORE, 1, [stamp, 0]);
        f.tick = stamp;
        f
    }

    /// Records recovered and whether the scan reported a cut, per front.
    fn recover_both(f: &Flash, changes: &[BlockId], frames: &[BlockId]) -> [(u64, bool); 2] {
        let (c, cr) = ChangeLog::recover(f, changes).unwrap();
        let (b, br) = BlackBox::recover(f, frames, 64).unwrap();
        [
            (c.num_records(), cr.malformed_dropped == 1),
            (b.num_frames(), br.malformed_dropped == 1),
        ]
    }

    #[test]
    fn both_record_types_share_one_recovery_contract() {
        // (stamps written raw, junk record before index, kept as
        // ChangeRec, kept as EventFrame)
        let table: [(&[u64], Option<usize>, u64, u64); 4] = [
            (&[1, 2, 3], None, 3, 3),
            // Equal stamps: one commit's records vs a broken tick sequence.
            (&[1, 2, 2, 3], None, 4, 2),
            (&[1, 2, 9, 4, 10], None, 3, 3),
            (&[1, 2, 3], Some(1), 1, 1),
        ];
        for (stamps, junk_at, kept_changes, kept_frames) in table {
            let f = Flash::small(16);
            let (mut changes, mut frames) = (f.new_log(), f.new_log());
            for (k, &s) in stamps.iter().enumerate() {
                if junk_at == Some(k) {
                    changes.append(b"not a record").unwrap();
                    frames.append(b"not a record").unwrap();
                }
                changes.append(&change(s).encode()).unwrap();
                frames.append(&frame(s).encode()).unwrap();
            }
            changes.flush().unwrap();
            frames.flush().unwrap();
            let got = recover_both(&f.reboot(), changes.blocks(), frames.blocks());
            let all = stamps.len() as u64;
            assert_eq!(got[0], (kept_changes, kept_changes < all), "{stamps:?}");
            assert_eq!(got[1], (kept_frames, kept_frames < all), "{stamps:?}");
        }
        // A page torn by a power cut mid-flush: both fronts recover at
        // least the durable prefix and nothing that was never appended.
        let f = Flash::small(16);
        let (mut changes, mut frames) = (ChangeLog::new(&f), BlackBox::new(&f, 4096));
        for s in 0..40 {
            changes.append(change(s)).unwrap();
            frames.record(frame(s)).unwrap();
        }
        changes.flush().unwrap();
        frames.flush().unwrap();
        f.inject_faults(FaultPlan::new(0xC4).power_loss_after(3));
        let mut next = 40u64;
        while changes
            .append(change(next))
            .and_then(|()| changes.flush())
            .and_then(|()| frames.record(frame(next)))
            .and_then(|()| frames.flush())
            .is_ok()
        {
            next += 1;
            assert!(next < 4000, "cut never fired");
        }
        for (kept, _) in recover_both(&f.reboot(), &changes.blocks(), &frames.blocks()) {
            assert!((40..=next + 1).contains(&kept), "kept {kept} of {next}");
        }
    }
}
