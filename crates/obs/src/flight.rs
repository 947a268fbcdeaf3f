//! Structured flight-recorder events — the feed of the durable black box.
//!
//! These frames are the one event system; the [`metrics`](crate::metrics)
//! registry keeps no events and only counts the frames staging dropped.
//! Every event is a fixed-size, *encodable* [`EventFrame`] —
//! `{tick, severity, subsystem, code, args}`, codes and ids only, never
//! payload bytes — cheap enough to record on data paths and small
//! enough to persist through the NAND layer (`pds-flash`'s `BlackBox`
//! ring). This module owns the vocabulary (severities, subsystem ids,
//! event codes, the 28-byte wire form) and the *staging buffer*; the
//! durable tier lives above, in the flash crate.
//!
//! Staging is thread-local by design: a secure token is single-threaded,
//! and in fleet runs each token operation runs to completion on one
//! worker thread. A layer anywhere in the stack records with
//! [`record`] (or the [`event!`](crate::event!) macro); the owning
//! token drains the buffer at the end of its operation with [`drain`]
//! and absorbs the frames into its own black box — frames never leak
//! across tokens, and the stamped sequence is a pure function of the
//! token's operation order, bit-identical at any worker count.
//!
//! A severity floor (`Info`) keeps hot paths cheap: a `Debug`-level
//! record is one comparison and an early return — no allocation, no
//! lock.

use std::cell::RefCell;

use crate::wire::Reader;

/// Severity of one flight-recorder event, ordered `Debug < Info < Warn
/// < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Per-IO chatter: below the recording floor, dropped at the record
    /// site.
    Debug = 0,
    /// Normal operation milestones (ingest, commit, sync).
    Info = 1,
    /// Survivable anomalies (block retired, torn tail truncated).
    Warn = 2,
    /// Failures the token could not hide.
    Error = 3,
}

impl Severity {
    /// Parse the wire byte; `None` for anything out of range (a torn
    /// frame must never decode).
    pub fn from_u8(v: u8) -> Option<Severity> {
        match v {
            0 => Some(Severity::Debug),
            1 => Some(Severity::Info),
            2 => Some(Severity::Warn),
            3 => Some(Severity::Error),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Debug => "DEBUG",
            Severity::Info => "INFO",
            Severity::Warn => "WARN",
            Severity::Error => "ERROR",
        }
    }
}

/// Subsystem ids carried by [`EventFrame::subsystem`].
pub mod subsystem {
    /// NAND flash simulator (block retirement, fault arming).
    pub const FLASH: u8 = 1;
    /// Inverted-index search engine.
    pub const SEARCH: u8 = 2;
    /// Embedded database / MVCC.
    pub const DB: u8 = 3;
    /// The PDS gateway (ingest, commit, sync, contributions).
    pub const CORE: u8 = 4;
    /// Crash recovery (reopen, torn tails).
    pub const RECOVERY: u8 = 5;
    /// Fleet runtime (scheduler, bus) — driver-side events.
    pub const FLEET: u8 = 6;

    /// Display name of a subsystem id.
    pub fn name(id: u8) -> &'static str {
        match id {
            FLASH => "flash",
            SEARCH => "search",
            DB => "db",
            CORE => "core",
            RECOVERY => "recovery",
            FLEET => "fleet",
            _ => "unknown",
        }
    }
}

/// Event codes carried by [`EventFrame::code`]. The high byte matches
/// the subsystem id, so a code is self-describing even without its
/// frame.
pub mod code {
    /// A stuck erase block was retired from rotation; `args[0]` = block.
    pub const FLASH_BLOCK_RETIRED: u16 = 0x0101;
    /// A fault plan was armed on this chip; `args[0]` = plan seed.
    pub const FLASH_FAULTS_ARMED: u16 = 0x0102;
    /// Recovery truncated a torn page tail; `args` = (pages kept, torn).
    pub const RECOVERY_TORN_TAIL: u16 = 0x0501;
    /// A reopen completed; `args` = (docs recovered, changes dropped).
    pub const RECOVERY_REOPEN: u16 = 0x0502;
    /// The search index was not kept across the power cycle and every
    /// document was re-indexed; `args` = (reason — see
    /// `pds_search::RebuildReason::code`, documents re-indexed).
    pub const RECOVERY_INDEX_REBUILD: u16 = 0x0503;
    /// One record ingested; `args` = (table id, logical day).
    pub const CORE_INGEST: u16 = 0x0401;
    /// A write batch committed; `args[0]` = HLC counter.
    pub const CORE_COMMIT: u16 = 0x0402;
    /// Every buffered structure durably flushed.
    pub const CORE_SYNC: u16 = 0x0403;
    /// A protocol contribution was computed; `args[0]` = group count.
    pub const CORE_CONTRIBUTION: u16 = 0x0404;
    /// The token powered down to its persistent state.
    pub const CORE_HIBERNATE: u16 = 0x0405;

    /// Display name of an event code.
    pub fn name(c: u16) -> &'static str {
        match c {
            FLASH_BLOCK_RETIRED => "block_retired",
            FLASH_FAULTS_ARMED => "faults_armed",
            RECOVERY_TORN_TAIL => "torn_tail",
            RECOVERY_REOPEN => "reopen",
            RECOVERY_INDEX_REBUILD => "index_rebuild",
            CORE_INGEST => "ingest",
            CORE_COMMIT => "commit",
            CORE_SYNC => "sync",
            CORE_CONTRIBUTION => "contribution",
            CORE_HIBERNATE => "hibernate",
            _ => "unknown",
        }
    }
}

/// Fixed wire size of one encoded frame.
pub const FRAME_BYTES: usize = 28;

/// One structured flight-recorder event. Args are opaque u64s — codes
/// and ids only; the vocabulary has no field that could carry document
/// or key bytes across the recorder sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventFrame {
    /// Per-token monotone sequence, stamped by the durable ring when the
    /// frame is absorbed (0 while staged).
    pub tick: u64,
    /// Severity.
    pub severity: Severity,
    /// Subsystem id (see [`subsystem`]).
    pub subsystem: u8,
    /// Event code (see [`code`]).
    pub code: u16,
    /// Two opaque arguments (counts, block ids, HLC counters …).
    pub args: [u64; 2],
}

impl EventFrame {
    /// A staged (unstamped) frame.
    pub fn new(severity: Severity, subsystem: u8, code: u16, args: [u64; 2]) -> Self {
        EventFrame {
            tick: 0,
            severity,
            subsystem,
            code,
            args,
        }
    }

    /// Fixed 28-byte wire form.
    pub fn encode(&self) -> [u8; FRAME_BYTES] {
        let mut out = [0u8; FRAME_BYTES];
        out[0..8].copy_from_slice(&self.tick.to_le_bytes());
        out[8] = self.severity as u8;
        out[9] = self.subsystem;
        out[10..12].copy_from_slice(&self.code.to_le_bytes());
        out[12..20].copy_from_slice(&self.args[0].to_le_bytes());
        out[20..28].copy_from_slice(&self.args[1].to_le_bytes());
        out
    }

    /// Parse the wire form; `None` on any size mismatch or an
    /// out-of-range severity byte — a torn frame is dropped, never
    /// half-decoded.
    pub fn decode(bytes: &[u8]) -> Option<EventFrame> {
        let mut r = Reader::new(bytes);
        let frame = EventFrame {
            tick: r.u64()?,
            severity: Severity::from_u8(r.u8()?)?,
            subsystem: r.u8()?,
            code: r.u16()?,
            args: [r.u64()?, r.u64()?],
        };
        r.finish()?;
        Some(frame)
    }

    /// One-line human rendering: `t=12 WARN flash.block_retired [3, 0]`.
    pub fn render(&self) -> String {
        format!(
            "t={} {} {}.{} [{}, {}]",
            self.tick,
            self.severity.name(),
            subsystem::name(self.subsystem),
            code::name(self.code),
            self.args[0],
            self.args[1]
        )
    }
}

/// Frames below this severity are dropped at the record site.
const FLOOR: Severity = Severity::Info;

/// Staged frames awaiting their owning token's drain. Bounded so a
/// recording layer whose owner never drains cannot grow without limit;
/// each frame past the bound evicts the oldest and is counted in
/// `obs.events_dropped`.
pub const STAGE_CAP: usize = 4096;

thread_local! {
    static STAGED: RefCell<Vec<EventFrame>> = const { RefCell::new(Vec::new()) };
}

/// Record one structured event into this thread's staging buffer. The
/// frame is unstamped (`tick == 0`); the durable ring stamps it on
/// absorb. Records below `Info` return immediately.
pub fn record(severity: Severity, subsystem: u8, code: u16, args: [u64; 2]) {
    if severity < FLOOR {
        return;
    }
    STAGED.with(|s| {
        let mut s = s.borrow_mut();
        if s.len() >= STAGE_CAP {
            s.remove(0);
            crate::metrics::global().note_event_dropped();
        }
        s.push(EventFrame::new(severity, subsystem, code, args));
    });
}

/// Take every staged frame off this thread, in record order. The owning
/// token calls this at the end of each of its operations and absorbs
/// the frames into its durable ring; a recovery path calls it first to
/// *discard* frames that were staged by an operation the crash killed —
/// they never reached flash and must not reappear as phantoms.
pub fn drain() -> Vec<EventFrame> {
    STAGED.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// Staged frames currently waiting on this thread.
pub fn staged() -> usize {
    STAGED.with(|s| s.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_wire_form_round_trips_and_rejects_torn_bytes() {
        let f = EventFrame {
            tick: u64::MAX - 1,
            severity: Severity::Warn,
            subsystem: subsystem::FLASH,
            code: code::FLASH_BLOCK_RETIRED,
            args: [7, u64::MAX],
        };
        assert_eq!(EventFrame::decode(&f.encode()), Some(f));
        assert_eq!(EventFrame::decode(&f.encode()[..FRAME_BYTES - 1]), None);
        assert_eq!(EventFrame::decode(&[0u8; FRAME_BYTES + 1]), None);
        // Severity byte out of range: the frame is torn, not guessed at.
        let mut bad = f.encode();
        bad[8] = 9;
        assert_eq!(EventFrame::decode(&bad), None);
    }

    #[test]
    fn severity_floor_gates_the_record_site() {
        drain(); // isolate from other tests on this thread
        record(Severity::Debug, subsystem::FLASH, 0, [0, 0]);
        assert_eq!(staged(), 0, "below-floor frames never stage");
        record(FLOOR, subsystem::CORE, code::CORE_INGEST, [0, 0]);
        record(
            Severity::Error,
            subsystem::RECOVERY,
            code::RECOVERY_TORN_TAIL,
            [1, 2],
        );
        let frames = drain();
        assert_eq!(frames.len(), 2, "the floor itself stages");
        assert_eq!(frames[1].severity, Severity::Error);
        assert_eq!(frames[1].args, [1, 2]);
        assert_eq!(staged(), 0, "drain empties the stage");
    }

    #[test]
    fn frames_drain_in_record_order() {
        drain();
        for k in 0..5u64 {
            record(Severity::Info, subsystem::CORE, code::CORE_INGEST, [k, 0]);
        }
        let frames = drain();
        assert_eq!(
            frames.iter().map(|f| f.args[0]).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(
            frames.iter().all(|f| f.tick == 0),
            "staged frames unstamped"
        );
    }

    #[test]
    fn rendering_names_the_vocabulary() {
        let f = EventFrame {
            tick: 3,
            severity: Severity::Warn,
            subsystem: subsystem::FLASH,
            code: code::FLASH_BLOCK_RETIRED,
            args: [9, 0],
        };
        assert_eq!(f.render(), "t=3 WARN flash.block_retired [9, 0]");
        assert_eq!(subsystem::name(99), "unknown");
        assert_eq!(code::name(0xFFFF), "unknown");
    }
}
