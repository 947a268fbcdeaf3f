//! Post-mortem forensics: *what was the token doing when the lights
//! went out?*
//!
//! A [`ReopenReport`] says what a power loss cost; the recovered
//! flight-recorder ring ([`pds_flash::BlackBox`]) says what the token
//! was doing. [`ForensicsReport`] correlates the two into a single
//! explainable verdict: a classified [`CrashCause`], the newest
//! surviving frame and the recovery losses — rendered with the
//! pre-crash timeline for a human (`render()`) or serialized for
//! tooling (`to_json()`). The report keeps what the ring's recovery
//! scan counted, not the frames: the timeline is read from the durable
//! ring when it is rendered ([`Pds::pre_crash_timeline`]), so it is
//! bit-identical for the same seed no matter how many fleet workers
//! raced around the crash.
//!
//! [`Pds::pre_crash_timeline`]: crate::Pds::pre_crash_timeline

use pds_flash::BlackboxRecovery;
use pds_obs::flight::{code, subsystem, EventFrame};
use pds_obs::json::ObjWriter;

use crate::pds::ReopenReport;

/// What the recovery evidence says brought the token down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashCause {
    /// Nothing was torn anywhere: the previous power-down was clean.
    CleanShutdown,
    /// The MVCC change log lost its tail — the crash hit mid-commit.
    TornChangelogTail,
    /// Documents or table rows were cut — the crash hit mid-ingest,
    /// before the data logs were flushed.
    TornDataTail,
    /// Only the flight recorder itself was torn: the data survived but
    /// the crash interrupted a recorder flush.
    TornRecorderTail,
    /// Evidence did not match any known signature (e.g. a digest from a
    /// newer firmware revision).
    Unknown,
}

impl CrashCause {
    /// Stable human name, used in renders and health counters.
    pub fn name(self) -> &'static str {
        match self {
            CrashCause::CleanShutdown => "clean_shutdown",
            CrashCause::TornChangelogTail => "torn_changelog_tail",
            CrashCause::TornDataTail => "torn_data_tail",
            CrashCause::TornRecorderTail => "torn_recorder_tail",
            CrashCause::Unknown => "unknown",
        }
    }

    /// One-byte wire code for the `PDF1` digest.
    pub fn code(self) -> u8 {
        match self {
            CrashCause::CleanShutdown => 0,
            CrashCause::TornChangelogTail => 1,
            CrashCause::TornDataTail => 2,
            CrashCause::TornRecorderTail => 3,
            CrashCause::Unknown => 0xFF,
        }
    }

    /// Inverse of [`CrashCause::code`]; unknown bytes map to `Unknown`.
    pub fn from_code(c: u8) -> CrashCause {
        match c {
            0 => CrashCause::CleanShutdown,
            1 => CrashCause::TornChangelogTail,
            2 => CrashCause::TornDataTail,
            3 => CrashCause::TornRecorderTail,
            _ => CrashCause::Unknown,
        }
    }
}

/// The correlated post-mortem of one reopen: classified cause + newest
/// surviving frame + recovery losses.
#[derive(Debug, Clone)]
pub struct ForensicsReport {
    /// The token this report describes.
    pub token: u64,
    /// The newest frame the recorder scan salvaged.
    last: Option<EventFrame>,
    /// Frames the recorder scan salvaged.
    pub frames_recovered: u64,
    /// Torn recorder pages discarded at the CRC cut.
    pub torn_pages_discarded: u64,
    /// 1 if a malformed/non-monotone frame cut the ring.
    pub malformed_dropped: u64,
    /// The classified cause.
    pub cause: CrashCause,
    /// What the data-side recovery found.
    pub recovery: ReopenReport,
}

impl ForensicsReport {
    /// Correlate the recorder scan with the data-side recovery. The
    /// classification is ordered by how much the evidence explains:
    /// a torn change log implies the crash hit mid-commit; torn data
    /// logs imply mid-ingest; a torn recorder alone means the data was
    /// safe and only the black box was mid-flush.
    pub fn correlate(
        token: u64,
        scan: &BlackboxRecovery,
        recovery: ReopenReport,
    ) -> ForensicsReport {
        let rows_lost: u32 = recovery.rows_lost.iter().map(|(_, n)| n).sum();
        let cause = if recovery.changes_dropped > 0 {
            CrashCause::TornChangelogTail
        } else if recovery.docs_lost > 0 || rows_lost > 0 {
            CrashCause::TornDataTail
        } else if scan.truncated() {
            CrashCause::TornRecorderTail
        } else {
            CrashCause::CleanShutdown
        };
        ForensicsReport {
            token,
            last: scan.last_frame,
            frames_recovered: scan.frames_recovered,
            torn_pages_discarded: scan.torn_pages_discarded,
            malformed_dropped: scan.malformed_dropped,
            cause,
            recovery,
        }
    }

    /// The newest surviving frame — the last thing the token is known
    /// to have been doing.
    pub fn last_frame(&self) -> Option<&EventFrame> {
        self.last.as_ref()
    }

    /// Tick of the newest surviving frame.
    pub fn crash_tick(&self) -> u64 {
        self.last_frame().map_or(0, |f| f.tick)
    }

    /// True when anything at all was lost or torn.
    pub fn crashed(&self) -> bool {
        self.cause != CrashCause::CleanShutdown
    }

    /// Human-readable post-mortem: verdict line, losses, then the tail
    /// of the pre-crash `timeline` (newest last).
    pub fn render(&self, timeline: &[EventFrame]) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "forensics: token {} cause={} frames={} torn_pages={}\n",
            self.token,
            self.cause.name(),
            self.frames_recovered,
            self.torn_pages_discarded,
        ));
        let rows_lost: u32 = self.recovery.rows_lost.iter().map(|(_, n)| n).sum();
        out.push_str(&format!(
            "  recovery: docs_lost={} rows_lost={} changes_dropped={} tombstones={}\n",
            self.recovery.docs_lost,
            rows_lost,
            self.recovery.changes_dropped,
            self.recovery.tombstones_applied,
        ));
        let tail_from = timeline.len().saturating_sub(16);
        if tail_from > 0 {
            out.push_str(&format!("  … {tail_from} earlier frames\n"));
        }
        for f in &timeline[tail_from..] {
            out.push_str("  ");
            out.push_str(&f.render());
            out.push('\n');
        }
        out
    }

    /// Machine-readable post-mortem, the pre-crash `timeline` included
    /// — the `--forensics-json` artifact.
    pub fn to_json(&self, timeline: &[EventFrame]) -> String {
        let mut frames = String::from("[");
        for (i, f) in timeline.iter().enumerate() {
            if i > 0 {
                frames.push(',');
            }
            frames.push_str(
                &ObjWriter::new()
                    .u64("tick", f.tick)
                    .str("severity", f.severity.name())
                    .str("subsystem", subsystem::name(f.subsystem))
                    .str(
                        "code",
                        &format!("{}.{}", subsystem::name(f.subsystem), code::name(f.code)),
                    )
                    .u64("arg0", f.args[0])
                    .u64("arg1", f.args[1])
                    .finish(),
            );
        }
        frames.push(']');
        let rows_lost: u32 = self.recovery.rows_lost.iter().map(|(_, n)| n).sum();
        ObjWriter::new()
            .u64("token", self.token)
            .str("cause", self.cause.name())
            .u64("crash_tick", self.crash_tick())
            .u64("frames_recovered", self.frames_recovered)
            .u64("torn_pages_discarded", self.torn_pages_discarded)
            .u64("malformed_dropped", self.malformed_dropped)
            .u64("docs_recovered", u64::from(self.recovery.docs_recovered))
            .u64("docs_lost", u64::from(self.recovery.docs_lost))
            .u64("rows_lost", u64::from(rows_lost))
            .u64("changes_dropped", self.recovery.changes_dropped)
            .raw("timeline", &frames)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::flight::Severity;

    fn clean_recovery() -> ReopenReport {
        ReopenReport {
            docs_recovered: 5,
            docs_lost: 0,
            tombstones_applied: 0,
            docs_replayed: 0,
            index_pages_kept: 3,
            rows_lost: vec![("email".into(), 0)],
            changes_dropped: 0,
        }
    }

    fn frame(tick: u64, c: u16) -> EventFrame {
        let mut f = EventFrame::new(Severity::Info, subsystem::CORE, c, [tick, 0]);
        f.tick = tick;
        f
    }

    #[test]
    fn cause_classification_is_ordered_by_evidence() {
        let scan = BlackboxRecovery {
            frames_recovered: 3,
            torn_pages_discarded: 1,
            ..BlackboxRecovery::default()
        };
        let mut rec = clean_recovery();
        rec.changes_dropped = 2;
        let r = ForensicsReport::correlate(7, &scan, rec);
        assert_eq!(r.cause, CrashCause::TornChangelogTail);

        let mut rec = clean_recovery();
        rec.rows_lost = vec![("bank".into(), 3)];
        let r = ForensicsReport::correlate(7, &scan, rec);
        assert_eq!(r.cause, CrashCause::TornDataTail);

        let r = ForensicsReport::correlate(7, &scan, clean_recovery());
        assert_eq!(r.cause, CrashCause::TornRecorderTail);

        let quiet = BlackboxRecovery::default();
        let r = ForensicsReport::correlate(7, &quiet, clean_recovery());
        assert_eq!(r.cause, CrashCause::CleanShutdown);
        assert!(!r.crashed());
    }

    #[test]
    fn cause_codes_round_trip() {
        for c in [
            CrashCause::CleanShutdown,
            CrashCause::TornChangelogTail,
            CrashCause::TornDataTail,
            CrashCause::TornRecorderTail,
            CrashCause::Unknown,
        ] {
            assert_eq!(CrashCause::from_code(c.code()), c);
        }
        assert_eq!(CrashCause::from_code(42), CrashCause::Unknown);
    }

    #[test]
    fn render_and_json_carry_the_timeline() {
        let timeline = vec![frame(4, code::CORE_INGEST), frame(5, code::CORE_COMMIT)];
        let scan = BlackboxRecovery {
            frames_recovered: 2,
            torn_pages_discarded: 1,
            malformed_dropped: 0,
            last_frame: timeline.last().copied(),
        };
        let r = ForensicsReport::correlate(3, &scan, clean_recovery());
        assert_eq!(r.crash_tick(), 5);
        let text = r.render(&timeline);
        assert!(text.contains("torn_recorder_tail"));
        assert!(text.contains("core.commit"));
        let json = pds_obs::json::parse(&r.to_json(&timeline)).expect("valid json");
        assert_eq!(json.get("token").and_then(|j| j.as_u64()), Some(3));
        assert_eq!(
            json.get("cause").and_then(|j| j.as_str()),
            Some("torn_recorder_tail")
        );
        let tl = json.get("timeline").and_then(|j| j.as_arr()).unwrap();
        assert_eq!(tl.len(), 2);
        assert_eq!(
            tl[1].get("code").and_then(|j| j.as_str()),
            Some("core.commit")
        );
        assert_eq!(tl[1].get("tick").and_then(|j| j.as_u64()), Some(5));
    }
}
