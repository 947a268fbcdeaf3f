//! The mirrored log: fixed-width stamped records over a [`LogWriter`],
//! with a RAM mirror serving reads without page I/O.
//!
//! [`ChangeLog`](crate::ChangeLog) and [`BlackBox`](crate::BlackBox)
//! are separate *instances* of this one *implementation*. A front
//! supplies its record's encode/decode and the stamp order consecutive
//! records must keep (`>=` for change records — one commit shares a
//! stamp; `>` for recorder ticks); framing, compaction and recovery
//! live here once.
//!
//! Recovery is one pass: the mirror is rebuilt from the records the
//! page scan hands over as it goes (a log of `k` pages is read `k + 1`
//! times — its pages and the erased page that ends the scan), and flash
//! and mirror leave it equal: a record that cuts the mirror is rewritten
//! away before anything is appended behind it.

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

    /// Forget the mirror's suffix from `len` on. The flash pages keep
    /// the bytes, so the caller follows with
    /// [`rewrite_from`](Self::rewrite_from) before anything is appended.
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

    /// Rebuild after a power loss from the block list, in one pass: the
    /// page scan is [`LogWriter::recover_with`] (CRC-checked, torn tail
    /// truncated) and the mirror is built from the records it hands over
    /// — pages + the terminator are read, once each. The first record
    /// that fails to `decode` or does not `follow(record, previous)` cuts
    /// the log there, dropping everything after it — what is recovered
    /// is always a causal prefix of the pre-crash history, and torn bytes
    /// never decode into phantoms. A cut also rewrites the survivors
    /// into a fresh log before returning, so flash equals the mirror:
    /// left in front of the append point, the bad record would cut off
    /// again, at the next power cycle, everything appended after this
    /// recovery. Returns the log, the torn pages discarded, and the pages
    /// a cut rewrote (`None` ⇔ no cut).
    pub fn recover<W: AsRef<[u8]>>(
        flash: &Flash,
        blocks: &[BlockId],
        encode: impl Fn(&R) -> W,
        decode: impl Fn(&[u8]) -> Option<R>,
        follows: impl Fn(&R, &R) -> bool,
    ) -> Result<(Self, u64, Option<u32>)> {
        let mut records: Vec<R> = Vec::new();
        let mut cut = false;
        let (log, rep) = LogWriter::recover_with(flash, blocks, |bytes| {
            if cut {
                return;
            }
            match decode(bytes) {
                Some(rec) if records.last().is_none_or(|last| follows(&rec, last)) => {
                    records.push(rec);
                }
                _ => cut = true,
            }
        })?;
        let mut log = MirroredLog {
            flash: flash.clone(),
            log,
            records,
        };
        let rewritten = cut.then(|| log.rewrite_from(0, encode)).transpose()?;
        Ok((log, rep.torn_pages_discarded, rewritten))
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

    #[test]
    fn a_log_that_cuts_in_ram_cuts_on_flash() {
        // Both fronts recover 1, 2, 3, 9 and cut at the 4.
        let f = Flash::small(16);
        let (mut changes, mut frames) = (f.new_log(), f.new_log());
        for s in [1, 2, 3, 9, 4, 10] {
            changes.append(&change(s).encode()).unwrap();
            frames.append(&frame(s).encode()).unwrap();
        }
        changes.flush().unwrap();
        frames.flush().unwrap();
        let f = f.reboot();
        let free = f.free_blocks();
        let (mut changes, cr) = ChangeLog::recover(&f, changes.blocks()).unwrap();
        let (mut frames, br) = BlackBox::recover(&f, frames.blocks(), 64).unwrap();
        assert_eq!((changes.num_records(), cr.malformed_dropped), (4, 1));
        assert_eq!((frames.num_frames(), br.malformed_dropped), (4, 1));
        // The survivors sit in fresh logs of their own; the blocks with
        // the bad records went back to the pool.
        assert_eq!(f.free_blocks(), free);
        // What is appended and flushed from here on lies behind the
        // survivors, not behind the record that cut: the next power
        // cycle returns it, and finds nothing to cut.
        changes.append(change(11)).unwrap();
        changes.flush().unwrap();
        frames.record(frame(0)).unwrap();
        frames.flush().unwrap();
        let got = recover_both(&f.reboot(), &changes.blocks(), &frames.blocks());
        assert_eq!(got, [(5, false), (5, false)]);
    }
}
