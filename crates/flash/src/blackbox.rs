//! The durable flight recorder — a power-loss-surviving black box.
//!
//! The pds-obs event ring is RAM-only: it dies with the power, exactly
//! when its content matters most. The black box persists structured
//! [`EventFrame`]s (`{tick, severity, subsystem, code, args}` — codes
//! and ids only, never payload bytes) through the same fault-injectable
//! NAND layer as the data it describes. Frames ride ordinary
//! [`LogWriter`](crate::LogWriter) record pages, so they inherit the
//! whole flash contract: strictly sequential programs, per-page CRCs, and a
//! recovery scan that truncates a torn tail to the durable prefix —
//! torn frames are *dropped*, never decoded.
//!
//! Ticks are a per-token monotone sequence stamped at absorb time, so
//! the recovered ring is always a causal prefix of the pre-crash
//! timeline: [`BlackBox::recover`] cuts at the first frame that fails
//! to decode or breaks tick monotonicity, and everything after the cut
//! is discarded with it — on flash too: the survivors are rewritten
//! into a fresh log, so what is recorded next is not cut off again at
//! the next power cycle. The ring is bounded ([`BlackBox::capacity`])
//! and wear-aware: when it overflows, the newest half is rewritten into
//! a fresh log (whole-log rewrite — partial GC never occurs on this
//! flash) whose blocks come from the allocator's normal wear rotation.
//!
//! The recorder sits *outside* the MVCC/changelog machinery on purpose
//! — its own log instance, though the same mirrored-log implementation
//! as the change log: it must stay appendable while those structures
//! are mid-recovery, and its loss must never imply data loss (see
//! DESIGN.md, "Flight recorder").
//!
//! Counters: `blackbox.frames_written`, `blackbox.frames_dropped`,
//! `blackbox.compactions`, `blackbox.pages_flushed`,
//! `blackbox.frames_recovered`, `blackbox.torn_tails_truncated`.

use pds_obs::flight::EventFrame;

use crate::error::Result;
use crate::geometry::BlockId;
use crate::mirrored::MirroredLog;
use crate::Flash;

/// Default bounded capacity of one token's ring, in frames.
pub const DEFAULT_FRAME_CAP: usize = 512;

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
}

impl BlackboxRecovery {
    /// True when the scan truncated anything — the signature of a crash
    /// mid-record, as opposed to a clean shutdown.
    pub fn truncated(&self) -> bool {
        self.torn_pages_discarded > 0 || self.malformed_dropped > 0
    }
}

/// A bounded, durably recoverable ring of [`EventFrame`]s with a RAM
/// mirror (28 B per frame) serving timeline reads without page I/O —
/// the tick-stamped, capacity-bounded front of the crate's one mirrored
/// log.
pub struct BlackBox {
    log: MirroredLog<EventFrame>,
    cap: usize,
    next_tick: u64,
}

impl BlackBox {
    /// An empty ring; no flash block is held until the first flush.
    pub fn new(flash: &Flash, cap: usize) -> Self {
        BlackBox {
            log: MirroredLog::new(flash),
            cap: cap.max(8),
            next_tick: 0,
        }
    }

    /// Frames currently exposed (flushed + buffered), in tick order.
    pub fn frames(&self) -> &[EventFrame] {
        self.log.records()
    }

    /// Exposed frame count.
    pub fn num_frames(&self) -> u64 {
        self.frames().len() as u64
    }

    /// The bounded ring capacity, in frames.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The erase blocks the ring occupies — its durable identity, to be
    /// carried by the layer above and handed to [`BlackBox::recover`].
    pub fn blocks(&self) -> Vec<BlockId> {
        self.log.blocks()
    }

    /// Stamp one staged frame with the next tick and append it. When
    /// the ring overflows its capacity, the oldest half is compacted
    /// away (`BlackBox::compact`).
    pub fn record(&mut self, mut frame: EventFrame) -> Result<()> {
        frame.tick = self.next_tick;
        self.log.append(frame, &frame.encode())?;
        self.next_tick += 1;
        pds_obs::counter!("blackbox.frames_written").inc();
        if self.frames().len() > self.cap {
            self.compact()?;
        }
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
        let pages = u64::from(self.log.flush()?);
        if pages > 0 {
            pds_obs::counter!("blackbox.pages_flushed").add(pages);
        }
        Ok(())
    }

    /// Drop the oldest half of the ring by rewriting the newest half
    /// into a fresh log (the fresh blocks come from the allocator's
    /// wear rotation, so a chatty recorder cannot pin one block until
    /// it dies).
    fn compact(&mut self) -> Result<()> {
        let dropped = self.frames().len() / 2;
        let pages = self.log.rewrite_from(dropped, EventFrame::encode)?;
        pds_obs::counter!("blackbox.pages_flushed").add(u64::from(pages));
        pds_obs::counter!("blackbox.compactions").inc();
        pds_obs::counter!("blackbox.frames_dropped").add(dropped as u64);
        Ok(())
    }

    /// Rebuild a ring after a power loss from its block list: the
    /// recovered timeline is the durable causal prefix of the pre-crash
    /// history (torn tail truncated, cut at the first frame that fails
    /// to decode or breaks strict tick monotonicity), and torn bytes are
    /// never decoded into phantom events.
    pub fn recover(
        flash: &Flash,
        blocks: &[BlockId],
        cap: usize,
    ) -> Result<(BlackBox, BlackboxRecovery)> {
        // Ticks are a strict per-token sequence.
        let (log, torn_pages_discarded, rewritten) = MirroredLog::recover(
            flash,
            blocks,
            EventFrame::encode,
            EventFrame::decode,
            |f, last| f.tick > last.tick,
        )?;
        let report = BlackboxRecovery {
            frames_recovered: log.records().len() as u64,
            torn_pages_discarded,
            malformed_dropped: u64::from(rewritten.is_some()),
        };
        if let Some(pages) = rewritten {
            pds_obs::counter!("blackbox.pages_flushed").add(u64::from(pages));
        }
        pds_obs::counter!("blackbox.frames_recovered").add(report.frames_recovered);
        if report.truncated() {
            pds_obs::counter!("blackbox.torn_tails_truncated").inc();
        }
        let next_tick = log.records().last().map_or(0, |f| f.tick + 1);
        let ring = BlackBox {
            log,
            cap: cap.max(8),
            next_tick,
        };
        Ok((ring, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::flight::{code, subsystem, Severity};

    fn frame(code16: u16, a: u64) -> EventFrame {
        EventFrame::new(Severity::Info, subsystem::CORE, code16, [a, 0])
    }

    fn last_tick(bb: &BlackBox) -> Option<u64> {
        bb.frames().last().map(|f| f.tick)
    }

    #[test]
    fn record_stamps_a_monotone_tick_sequence() {
        let f = Flash::small(16);
        let mut bb = BlackBox::new(&f, 64);
        for k in 0..10u64 {
            bb.record(frame(code::CORE_INGEST, k)).unwrap();
        }
        assert_eq!(bb.num_frames(), 10);
        let ticks: Vec<u64> = bb.frames().iter().map(|fr| fr.tick).collect();
        assert_eq!(ticks, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn recover_returns_the_durable_prefix() {
        let f = Flash::small(16);
        let mut bb = BlackBox::new(&f, 1024);
        for k in 0..200u64 {
            bb.record(frame(code::CORE_INGEST, k)).unwrap();
        }
        bb.flush().unwrap();
        let durable: Vec<EventFrame> = bb.frames().to_vec();
        // Buffered-only frames die with RAM.
        bb.record(frame(code::CORE_COMMIT, 777)).unwrap();
        let blocks = bb.blocks();

        let f2 = f.reboot();
        let (rec, report) = BlackBox::recover(&f2, &blocks, 1024).unwrap();
        assert_eq!(report.frames_recovered, durable.len() as u64);
        assert_eq!(rec.frames(), &durable[..], "durable prefix verbatim");
        assert!(!report.truncated(), "clean flush: nothing torn");
        assert_eq!(last_tick(&rec), Some(199));
    }

    #[test]
    fn recovered_ring_keeps_stamping_after_the_prefix() {
        let f = Flash::small(16);
        let mut bb = BlackBox::new(&f, 64);
        for k in 0..5u64 {
            bb.record(frame(code::CORE_INGEST, k)).unwrap();
        }
        bb.flush().unwrap();
        let blocks = bb.blocks();
        let f2 = f.reboot();
        let (mut rec, _) = BlackBox::recover(&f2, &blocks, 64).unwrap();
        rec.record(frame(code::CORE_SYNC, 0)).unwrap();
        assert_eq!(last_tick(&rec), Some(5), "ticks continue past recovery");
    }

    #[test]
    fn overflow_compacts_to_the_newest_half_and_frees_blocks() {
        let f = Flash::small(64);
        let before = f.free_blocks();
        let mut bb = BlackBox::new(&f, 64);
        for k in 0..500u64 {
            bb.record(frame(code::CORE_INGEST, k)).unwrap();
        }
        assert!(bb.num_frames() <= 64, "ring stays bounded");
        // The surviving window is the newest frames, ticks intact.
        let last = bb.frames().last().unwrap();
        assert_eq!(last.tick, 499);
        assert_eq!(last.args[0], 499);
        let ticks: Vec<u64> = bb.frames().iter().map(|fr| fr.tick).collect();
        assert!(ticks.windows(2).all(|w| w[0] < w[1]), "monotone survivors");
        // Compaction returned old blocks: the ring occupies a bounded
        // number of blocks no matter how much was recorded through it.
        bb.flush().unwrap();
        assert!(
            before - f.free_blocks() <= 2,
            "ring pinned {} blocks",
            before - f.free_blocks()
        );
        // And the compacted ring still recovers verbatim.
        let durable: Vec<EventFrame> = bb.frames().to_vec();
        let blocks = bb.blocks();
        let f2 = f.reboot();
        let (rec, _) = BlackBox::recover(&f2, &blocks, 64).unwrap();
        assert_eq!(rec.frames(), &durable[..]);
    }

    #[test]
    fn torn_tail_truncates_and_never_decodes() {
        for cut_after in [1u64, 3, 7, 11] {
            let f = Flash::small(16);
            let mut bb = BlackBox::new(&f, 1024);
            // A durable prefix, then a fault plan that cuts the power
            // mid-flush of the next burst.
            for k in 0..40u64 {
                bb.record(frame(code::CORE_INGEST, k)).unwrap();
            }
            bb.flush().unwrap();
            let durable: Vec<EventFrame> = bb.frames().to_vec();
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
            let (rec, report) = BlackBox::recover(&f2, &blocks, 1024).unwrap();
            assert_eq!(report.frames_recovered, rec.num_frames());
            // The recovered timeline is a causal prefix: at least the
            // durable prefix, never a frame that was not recorded.
            assert!(rec.num_frames() >= durable.len() as u64, "prefix lost");
            assert_eq!(
                &rec.frames()[..durable.len()],
                &durable[..],
                "cut_after {cut_after}: durable prefix rewritten"
            );
            let ticks: Vec<u64> = rec.frames().iter().map(|fr| fr.tick).collect();
            assert!(ticks.windows(2).all(|w| w[0] < w[1]), "non-monotone tail");
            for fr in rec.frames() {
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
        let (rec, report) = BlackBox::recover(&f2, &blocks, 64).unwrap();
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
        let (rec, report) = BlackBox::recover(&f2, &blocks, 64).unwrap();
        assert_eq!(rec.num_frames(), 1);
        assert_eq!(report.malformed_dropped, 1);
    }
}
