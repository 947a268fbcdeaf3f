//! The flight recorder's page counter. The registry is process-global,
//! so it is proven in a binary of its own: here, and only here,
//! `blackbox.pages_flushed` moves by exactly the pages a chip that
//! nothing else writes programs around each recorder call, and
//! `blackbox.frames_unflushed` by exactly the frames a park let go.

use pds::flash::{BlackBox, FaultPlan, Flash};
use pds::obs::counter;
use pds::obs::flight::{subsystem, EventFrame, Severity};

/// Run `io`, and check that the counter moved by the programs it made.
fn counts_its_programs<T>(flash: &Flash, ctx: &str, io: impl FnOnce() -> T) -> T {
    let (pages, programs) = (
        counter("blackbox.pages_flushed").get(),
        flash.stats().page_programs,
    );
    let out = io();
    let programmed = flash.stats().page_programs - programs;
    assert_eq!(
        counter("blackbox.pages_flushed").get() - pages,
        programmed,
        "{ctx}"
    );
    out
}

fn frame(k: u64) -> EventFrame {
    EventFrame::new(Severity::Info, subsystem::CORE, 1, [k, 0])
}

#[test]
fn the_recorder_counts_every_page_it_programs() {
    // 512-byte pages hold 16 frames: 1 000 frames fill 62 pages as they
    // are recorded, across the block releases of a ring of 16-page
    // blocks, before any flush.
    let flash = Flash::small(64);
    let mut bb = BlackBox::new(&flash);
    counts_its_programs(&flash, "records", || {
        for k in 0..1000 {
            bb.record(frame(k)).unwrap();
        }
    });
    assert_eq!(flash.stats().page_programs, 62);
    counts_its_programs(&flash, "flush", || bb.flush().unwrap());
    counts_its_programs(&flash, "syncs", || {
        for k in 0..40 {
            bb.record(frame(k)).unwrap();
            bb.flush().unwrap();
        }
    });

    // A cut inside a flush: the recovery relocates the torn block's
    // pages, and those are the recorder's programs too.
    for k in 0..3 {
        bb.record(frame(k)).unwrap();
    }
    flash.inject_faults(FaultPlan::new(7).power_loss_after(0));
    assert!(bb.flush().is_err());
    let rebooted = flash.reboot();
    let (mut bb, report) = counts_its_programs(&rebooted, "recovery", || {
        BlackBox::recover(&rebooted, &bb.blocks())
    })
    .unwrap();
    assert_eq!(report.torn_pages_discarded, 1);
    assert!(rebooted.stats().page_programs > 0, "a torn block relocated");
    counts_its_programs(&rebooted, "after recovery", || {
        bb.record(frame(0)).unwrap();
        bb.flush().unwrap();
    });

    // A frame that does not decode cuts the ring: the survivors' copy is
    // counted.
    let flash = Flash::small(16);
    let mut log = flash.new_log();
    for k in 0..40u64 {
        let mut f = frame(k);
        f.tick = k;
        log.append(&f.encode()).unwrap();
    }
    log.append(b"not a frame").unwrap();
    log.flush().unwrap();
    let rebooted = flash.reboot();
    let (_, report) = counts_its_programs(&rebooted, "cut", || {
        BlackBox::recover(&rebooted, log.blocks())
    })
    .unwrap();
    assert_eq!((report.frames_recovered, report.malformed_dropped), (40, 1));
    assert_eq!(rebooted.stats().page_programs, 3, "40 frames copied");

    // A park programs the buffered frames only when one is above Info,
    // and counts those it let go.
    let flash = Flash::small(16);
    let mut bb = BlackBox::new(&flash);
    let unflushed = || counter("blackbox.frames_unflushed").get();
    for k in 0..20 {
        bb.record(frame(k)).unwrap();
    }
    let (before, programs) = (unflushed(), flash.stats().page_programs);
    counts_its_programs(&flash, "info park", || bb.park().unwrap());
    assert_eq!(flash.stats().page_programs, programs, "Info frames only");
    assert_eq!(
        unflushed() - before,
        4,
        "20 frames, 16 on the page programmed"
    );
    bb.record(EventFrame::new(Severity::Warn, subsystem::FLASH, 2, [9, 0]))
        .unwrap();
    bb.record(frame(21)).unwrap();
    let before = unflushed();
    counts_its_programs(&flash, "warn park", || bb.park().unwrap());
    assert_eq!(
        flash.stats().page_programs,
        programs + 1,
        "the Warn frame's page"
    );
    assert_eq!(unflushed(), before);
    let rebooted = flash.reboot();
    let (bb, report) = BlackBox::recover(&rebooted, &bb.blocks()).unwrap();
    assert_eq!(report.frames_recovered, 22);
    assert_eq!(bb.frames().unwrap()[20].severity, Severity::Warn);
}
