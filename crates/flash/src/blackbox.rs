//! The durable flight recorder — a power-loss-surviving black box.
//!
//! The pds-obs event ring is RAM-only: it dies with the power, exactly
//! when its content matters most. The black box persists structured
//! [`EventFrame`]s (`{tick, severity, subsystem, code, args}` — codes
//! and ids only, never payload bytes) through the same fault-injectable
//! NAND layer as the data it describes. Frames ride ordinary
//! [`LogWriter`] record pages, so they inherit the whole flash contract:
//! strictly sequential programs, per-page CRCs, and a recovery scan that
//! truncates a torn tail to the durable prefix — torn frames are
//! *dropped*, never decoded.
//!
//! Ticks are a per-token monotone sequence stamped at absorb time, so
//! the recovered ring is always a causal prefix of the pre-crash
//! timeline: [`BlackBox::recover`] cuts at the first frame that fails
//! to decode or breaks tick monotonicity, and everything after the cut
//! is discarded with it — on flash too, by the cut every record log
//! makes ([`LogWriter::recover_with`]), so what is recorded next is not
//! cut off again at the next power cycle.
//!
//! The ring keeps no copy of its frames in RAM: the recovery scan keeps
//! the counts and the newest frame, and [`BlackBox::frames`] reads the
//! timeline from flash when asked. It is bounded at block grain, as the
//! tutorial's logs are: once it spans more than [`RING_BLOCKS`] erase
//! blocks, its oldest block goes back to the pool
//! ([`LogWriter::release_head`]) and nothing is rewritten.
//!
//! A clean park ([`BlackBox::park`]) programs the ring's partial page
//! only when a buffered frame is above [`Severity::Info`]: a page
//! program is the token's dearest operation, and the Info milestones a
//! park would carry (contribution, hibernate, sync, the last wake) say
//! nothing the data's own recovery does not. They die with RAM, as they
//! would in a power cut right after the last flush.
//!
//! The recorder sits *outside* the MVCC/changelog machinery on purpose
//! — its own log instance: it must stay appendable while those
//! structures are mid-recovery, and its loss must never imply data loss
//! (see DESIGN.md, "Flight recorder").
//!
//! Counters: `blackbox.frames_written`, `blackbox.frames_dropped`,
//! `blackbox.pages_flushed` (every page the recorder programs),
//! `blackbox.frames_unflushed` (buffered frames a park let go),
//! `blackbox.frames_recovered`, `blackbox.torn_tails_truncated`.

use pds_obs::flight::{EventFrame, Severity};

use crate::error::{FlashError, Result};
use crate::geometry::BlockId;
use crate::log::LogWriter;
use crate::Flash;

/// Erase blocks the ring may span before its oldest one is released.
pub const RING_BLOCKS: usize = 2;

/// What a [`BlackBox::recover`] scan found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlackboxRecovery {
    /// Frames recovered into the rebuilt ring (the pre-crash timeline).
    pub frames_recovered: u64,
    /// Torn pages discarded at the CRC truncation point.
    pub torn_pages_discarded: u64,
    /// 1 when a frame failed to decode or broke tick monotonicity and
    /// cut the ring there (everything after it is dropped too).
    pub malformed_dropped: u64,
    /// The newest recovered frame — what the token was last known to be
    /// doing.
    pub last_frame: Option<EventFrame>,
}

impl BlackboxRecovery {
    /// True when the scan truncated anything — the signature of a crash
    /// mid-record, as opposed to a clean shutdown.
    pub fn truncated(&self) -> bool {
        self.torn_pages_discarded > 0 || self.malformed_dropped > 0
    }
}

/// A durably recoverable ring of [`EventFrame`]s, bounded at
/// [`RING_BLOCKS`] erase blocks: a record log and the next tick.
pub struct BlackBox {
    log: LogWriter,
    next_tick: u64,
    /// A frame above [`Severity::Info`] is buffered: a park programs it.
    urgent: bool,
}

impl BlackBox {
    /// An empty ring; no flash block is held until the first flush.
    pub fn new(flash: &Flash) -> Self {
        BlackBox {
            log: flash.new_log(),
            next_tick: 0,
            urgent: false,
        }
    }

    /// The ring's frames (flushed + buffered), in tick order, read from
    /// flash: one page read per programmed page.
    pub fn frames(&self) -> Result<Vec<EventFrame>> {
        let mut frames = Vec::new();
        self.log.for_each_record(|page, bytes| {
            let frame = EventFrame::decode(bytes).ok_or_else(|| {
                self.log
                    .page_addr(page)
                    .map_or_else(|e| e, FlashError::CorruptPage)
            })?;
            frames.push(frame);
            Ok(())
        })?;
        Ok(frames)
    }

    /// Frames in the ring (flushed + buffered).
    pub fn num_frames(&self) -> u64 {
        self.log.num_records()
    }

    /// The erase blocks the ring occupies — its durable identity, to be
    /// carried by the layer above and handed to [`BlackBox::recover`].
    pub fn blocks(&self) -> Vec<BlockId> {
        self.log.blocks().to_vec()
    }

    /// Stamp one staged frame with the next tick and append it.
    pub fn record(&mut self, mut frame: EventFrame) -> Result<()> {
        frame.tick = self.next_tick;
        self.programs(|log| log.append(&frame.encode()))?;
        // A frame is never larger than a page: it rests in the buffer,
        // alone if its append programmed the page before it.
        self.urgent |= frame.severity > Severity::Info;
        self.next_tick += 1;
        pds_obs::counter!("blackbox.frames_written").inc();
        Ok(())
    }

    /// Stamp and append a drained batch (the obs staging buffer), in
    /// order. Returns how many frames were absorbed.
    pub fn absorb(&mut self, frames: impl IntoIterator<Item = EventFrame>) -> Result<u64> {
        let mut n = 0u64;
        for f in frames {
            self.record(f)?;
            n += 1;
        }
        Ok(n)
    }

    /// Durably flush buffered frames to flash.
    pub fn flush(&mut self) -> Result<()> {
        self.programs(LogWriter::flush)
    }

    /// Make the ring ready for a clean power-off: program the buffered
    /// frames if one of them is above [`Severity::Info`], else let them
    /// go with RAM and count them (`blackbox.frames_unflushed`). The
    /// ring is not written to again before the power goes.
    pub fn park(&mut self) -> Result<()> {
        if self.urgent {
            return self.flush();
        }
        pds_obs::counter!("blackbox.frames_unflushed").add(self.log.num_buffered());
        Ok(())
    }

    /// Run `io` on the ring's log, count the pages it programmed, and
    /// release the oldest blocks once the ring spans more than
    /// [`RING_BLOCKS`] (a fresh block is taken only by a program, so
    /// every block before it is full).
    fn programs<T>(&mut self, io: impl FnOnce(&mut LogWriter) -> Result<T>) -> Result<T> {
        let before = self.log.num_pages();
        let out = io(&mut self.log);
        let pages = self.log.num_pages() - before;
        if pages > 0 {
            // What was buffered is on flash now.
            self.urgent = false;
            pds_obs::counter!("blackbox.pages_flushed").add(u64::from(pages));
        }
        let over = self.log.blocks().len().saturating_sub(RING_BLOCKS);
        if over > 0 {
            let dropped = self.log.release_head(over);
            pds_obs::counter!("blackbox.frames_dropped").add(u64::from(dropped));
        }
        out
    }

    /// Rebuild a ring after a power loss from its block list, in one
    /// pass over its pages (each read once, and the erased page that
    /// ends the scan): the recovered ring is the durable causal prefix
    /// of the pre-crash history (torn tail truncated, cut at the first
    /// frame that fails to decode or breaks strict tick monotonicity),
    /// and torn bytes are never decoded into phantom events.
    pub fn recover(flash: &Flash, blocks: &[BlockId]) -> Result<(BlackBox, BlackboxRecovery)> {
        let mut last = None::<EventFrame>;
        let (log, rep) = LogWriter::recover_with(flash, blocks, |bytes| {
            // Ticks are a strict per-token sequence.
            let frame = EventFrame::decode(bytes).filter(|f| last.is_none_or(|l| f.tick > l.tick));
            last = frame.or(last);
            frame.is_some()
        })?;
        // A cut's copy is the log's every page.
        let programmed = rep.pages_relocated + if rep.refused { log.num_pages() } else { 0 };
        if programmed > 0 {
            pds_obs::counter!("blackbox.pages_flushed").add(u64::from(programmed));
        }
        let report = BlackboxRecovery {
            frames_recovered: log.num_records(),
            torn_pages_discarded: rep.torn_pages_discarded,
            malformed_dropped: u64::from(rep.refused),
            last_frame: last,
        };
        pds_obs::counter!("blackbox.frames_recovered").add(report.frames_recovered);
        if report.truncated() {
            pds_obs::counter!("blackbox.torn_tails_truncated").inc();
        }
        let ring = BlackBox {
            log,
            next_tick: last.map_or(0, |f| f.tick + 1),
            urgent: false,
        };
        Ok((ring, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChangeLog, ChangeRec, FaultPlan};
    use pds_obs::flight::{code, subsystem, Severity};

    fn frame(code16: u16, a: u64) -> EventFrame {
        EventFrame::new(Severity::Info, subsystem::CORE, code16, [a, 0])
    }

    fn last_tick(bb: &BlackBox) -> Option<u64> {
        bb.frames().unwrap().last().map(|f| f.tick)
    }

    #[test]
    fn record_stamps_a_monotone_tick_sequence() {
        let f = Flash::small(16);
        let mut bb = BlackBox::new(&f);
        for k in 0..10u64 {
            bb.record(frame(code::CORE_INGEST, k)).unwrap();
        }
        assert_eq!(bb.num_frames(), 10);
        let ticks: Vec<u64> = bb.frames().unwrap().iter().map(|fr| fr.tick).collect();
        assert_eq!(ticks, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn recover_returns_the_durable_prefix() {
        let f = Flash::small(16);
        let mut bb = BlackBox::new(&f);
        for k in 0..200u64 {
            bb.record(frame(code::CORE_INGEST, k)).unwrap();
        }
        bb.flush().unwrap();
        let durable = bb.frames().unwrap();
        // Buffered-only frames die with RAM.
        bb.record(frame(code::CORE_COMMIT, 777)).unwrap();
        let blocks = bb.blocks();

        let f2 = f.reboot();
        let (rec, report) = BlackBox::recover(&f2, &blocks).unwrap();
        assert_eq!(report.frames_recovered, durable.len() as u64);
        assert_eq!(rec.frames().unwrap(), durable, "durable prefix verbatim");
        assert_eq!(report.last_frame, durable.last().copied());
        assert!(!report.truncated(), "clean flush: nothing torn");
        assert_eq!(last_tick(&rec), Some(199));
    }

    #[test]
    fn recovered_ring_keeps_stamping_after_the_prefix() {
        let f = Flash::small(16);
        let mut bb = BlackBox::new(&f);
        for k in 0..5u64 {
            bb.record(frame(code::CORE_INGEST, k)).unwrap();
        }
        bb.flush().unwrap();
        let blocks = bb.blocks();
        let f2 = f.reboot();
        let (mut rec, _) = BlackBox::recover(&f2, &blocks).unwrap();
        rec.record(frame(code::CORE_SYNC, 0)).unwrap();
        assert_eq!(last_tick(&rec), Some(5), "ticks continue past recovery");
    }

    #[test]
    fn overflow_drops_the_oldest_block_and_rewrites_nothing() {
        // 512-byte pages hold 16 frames, so a block holds 256: 2 000
        // frames fill 125 pages, of which the ring keeps its newest two
        // blocks at most.
        let f = Flash::small(64);
        let before = f.free_blocks();
        let mut bb = BlackBox::new(&f);
        for k in 0..2000u64 {
            bb.record(frame(code::CORE_INGEST, k)).unwrap();
            assert!(bb.blocks().len() <= RING_BLOCKS, "frame {k}");
        }
        bb.flush().unwrap();
        // Every page programmed holds frames recorded once: nothing was
        // rewritten.
        assert_eq!(f.stats().page_programs, 125);
        // The ring holds the newest frames, ticks contiguous, at least
        // one whole block of them.
        let frames = bb.frames().unwrap();
        assert_eq!(frames.len() as u64, bb.num_frames());
        assert_eq!(
            frames.last().map(|fr| (fr.tick, fr.args[0])),
            Some((1999, 1999))
        );
        assert!(frames.windows(2).all(|w| w[0].tick + 1 == w[1].tick));
        assert!(frames.len() >= 256, "{} frames", frames.len());
        assert_eq!(before - f.free_blocks(), RING_BLOCKS);
        // And the bounded ring still recovers verbatim.
        let f2 = f.reboot();
        let (rec, _) = BlackBox::recover(&f2, &bb.blocks()).unwrap();
        assert_eq!(rec.frames().unwrap(), frames);
    }

    #[test]
    fn a_park_programs_only_a_buffered_frame_above_info() {
        // 512-byte pages hold 16 frames.
        let f = Flash::small(16);
        let mut bb = BlackBox::new(&f);
        let warn = EventFrame::new(
            Severity::Warn,
            subsystem::FLASH,
            code::FLASH_BLOCK_RETIRED,
            [3, 0],
        );
        bb.record(warn).unwrap();
        // The Warn frame goes to flash with the page it fills...
        for k in 1..20u64 {
            bb.record(frame(code::CORE_INGEST, k)).unwrap();
        }
        assert_eq!(f.stats().page_programs, 1);
        // ...so a park finds Info frames only and lets them go.
        bb.park().unwrap();
        assert_eq!(f.stats().page_programs, 1);
        let (rec, _) = BlackBox::recover(&f.reboot(), &bb.blocks()).unwrap();
        assert_eq!(rec.num_frames(), 16);

        // A Warn frame in the buffer is programmed with its page.
        bb.record(warn).unwrap();
        bb.park().unwrap();
        assert_eq!(f.stats().page_programs, 2);
        let (rec, _) = BlackBox::recover(&f.reboot(), &bb.blocks()).unwrap();
        assert_eq!(rec.num_frames(), 21);
        assert_eq!(last_tick(&rec), Some(20));
    }

    #[test]
    fn torn_tail_truncates_and_never_decodes() {
        for cut_after in [1u64, 3, 7, 11] {
            let f = Flash::small(16);
            let mut bb = BlackBox::new(&f);
            // A durable prefix, then a fault plan that cuts the power
            // mid-flush of the next burst.
            for k in 0..40u64 {
                bb.record(frame(code::CORE_INGEST, k)).unwrap();
            }
            bb.flush().unwrap();
            let durable = bb.frames().unwrap();
            f.inject_faults(crate::FaultPlan::new(0xB0 + cut_after).power_loss_after(cut_after));
            let mut burst = 40u64;
            let crashed = loop {
                if burst == 4000 {
                    break false;
                }
                let r = bb
                    .record(frame(code::CORE_INGEST, burst))
                    .and_then(|()| bb.flush());
                match r {
                    Ok(()) => burst += 1,
                    Err(_) => break true,
                }
            };
            assert!(crashed, "cut_after {cut_after}: cut never fired");
            let blocks = bb.blocks();
            let f2 = f.reboot();
            let (rec, report) = BlackBox::recover(&f2, &blocks).unwrap();
            let frames = rec.frames().unwrap();
            assert_eq!(report.frames_recovered, frames.len() as u64);
            // The recovered timeline is a causal prefix: at least the
            // durable prefix, never a frame that was not recorded.
            assert!(frames.len() >= durable.len(), "prefix lost");
            assert_eq!(
                &frames[..durable.len()],
                &durable[..],
                "cut_after {cut_after}: durable prefix rewritten"
            );
            let ticks: Vec<u64> = frames.iter().map(|fr| fr.tick).collect();
            assert!(ticks.windows(2).all(|w| w[0] < w[1]), "non-monotone tail");
            for fr in &frames {
                assert!(fr.args[0] < burst, "phantom frame {fr:?}");
            }
        }
    }

    #[test]
    fn a_non_monotone_frame_cuts_the_ring_there() {
        // Hand-craft a log whose tail breaks tick monotonicity: the
        // recovered ring must stop at the break, dropping everything
        // after it (a causal prefix, not a best-effort salvage).
        let f = Flash::small(16);
        let mut log = f.new_log();
        for tick in [1u64, 2, 3, 9, 4, 10] {
            let mut fr = frame(code::CORE_INGEST, tick);
            fr.tick = tick;
            log.append(&fr.encode()).unwrap();
        }
        log.flush().unwrap();
        let blocks = log.blocks().to_vec();
        let f2 = f.reboot();
        let (rec, report) = BlackBox::recover(&f2, &blocks).unwrap();
        assert_eq!(rec.num_frames(), 4, "1,2,3,9 kept; 4 cuts; 10 dropped");
        assert_eq!(report.malformed_dropped, 1);
        assert!(report.truncated());
        assert_eq!(last_tick(&rec), Some(9));
    }

    #[test]
    fn junk_records_cut_the_ring() {
        let f = Flash::small(16);
        let mut log = f.new_log();
        log.append(&frame(code::CORE_INGEST, 0).encode()).unwrap();
        log.append(b"not a frame").unwrap();
        log.append(&frame(code::CORE_INGEST, 2).encode()).unwrap();
        log.flush().unwrap();
        let blocks = log.blocks().to_vec();
        let f2 = f.reboot();
        let (rec, report) = BlackBox::recover(&f2, &blocks).unwrap();
        assert_eq!(rec.frames().unwrap().len(), 1);
        assert_eq!(report.malformed_dropped, 1);
    }

    fn change(stamp: u64) -> ChangeRec {
        ChangeRec {
            hlc: stamp,
            node: 7,
            kind: 1,
            store: 0,
            entity: stamp as u32,
        }
    }

    fn ticked(stamp: u64) -> EventFrame {
        let mut f = EventFrame::new(Severity::Info, subsystem::CORE, 1, [stamp, 0]);
        f.tick = stamp;
        f
    }

    /// Records recovered and whether the scan reported a cut, per log.
    fn recover_both(f: &Flash, changes: &[BlockId], frames: &[BlockId]) -> [(u64, bool); 2] {
        let (c, cr) = ChangeLog::recover(f, changes, |_| true).unwrap();
        let (b, br) = BlackBox::recover(f, frames).unwrap();
        [
            (c.num_records(), cr.refused),
            (b.frames().unwrap().len() as u64, br.malformed_dropped == 1),
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
                frames.append(&ticked(s).encode()).unwrap();
            }
            changes.flush().unwrap();
            frames.flush().unwrap();
            let got = recover_both(&f.reboot(), changes.blocks(), frames.blocks());
            let all = stamps.len() as u64;
            assert_eq!(got[0], (kept_changes, kept_changes < all), "{stamps:?}");
            assert_eq!(got[1], (kept_frames, kept_frames < all), "{stamps:?}");
        }
        // A page torn by a power cut mid-flush: both logs recover at
        // least the durable prefix and nothing that was never appended.
        let f = Flash::small(16);
        let (mut changes, mut frames) = (ChangeLog::new(&f), BlackBox::new(&f));
        for s in 0..40 {
            changes.append(change(s)).unwrap();
            frames.record(ticked(s)).unwrap();
        }
        changes.flush().unwrap();
        frames.flush().unwrap();
        f.inject_faults(FaultPlan::new(0xC4).power_loss_after(3));
        let mut next = 40u64;
        while changes
            .append(change(next))
            .and_then(|()| changes.flush())
            .and_then(|()| frames.record(ticked(next)))
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
        // Both logs recover 1, 2, 3, 9 and cut at the 4.
        let f = Flash::small(16);
        let (mut changes, mut frames) = (f.new_log(), f.new_log());
        for s in [1, 2, 3, 9, 4, 10] {
            changes.append(&change(s).encode()).unwrap();
            frames.append(&ticked(s).encode()).unwrap();
        }
        changes.flush().unwrap();
        frames.flush().unwrap();
        let f = f.reboot();
        let free = f.free_blocks();
        let (mut changes, cr) = ChangeLog::recover(&f, changes.blocks(), |_| true).unwrap();
        let (mut frames, br) = BlackBox::recover(&f, frames.blocks()).unwrap();
        assert_eq!((changes.num_records(), cr.refused), (4, true));
        assert_eq!(
            (frames.frames().unwrap().len(), br.malformed_dropped),
            (4, 1)
        );
        // The survivors sit in fresh logs of their own; the blocks with
        // the bad records went back to the pool.
        assert_eq!(f.free_blocks(), free);
        // What is appended and flushed from here on lies behind the
        // survivors, not behind the record that cut: the next power
        // cycle returns it, and finds nothing to cut.
        changes.append(change(11)).unwrap();
        changes.flush().unwrap();
        frames.record(ticked(0)).unwrap();
        frames.flush().unwrap();
        let got = recover_both(&f.reboot(), &changes.blocks(), &frames.blocks());
        assert_eq!(got, [(5, false), (5, false)]);
    }
}
