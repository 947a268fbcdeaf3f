//! Cumulative I/O accounting.
//!
//! Every experiment of Part II is expressed in page I/Os ("Summary Scan:
//! 17 IOs" vs "Table scan: 640 IOs"); `IoStats` is the measurement the
//! benches report.

use crate::cost::CostModel;
use std::ops::Sub;

/// Cumulative counters maintained by the chip model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages read.
    pub page_reads: u64,
    /// Pages programmed.
    pub page_programs: u64,
    /// Blocks erased.
    pub block_erases: u64,
    /// Programs that targeted a page *not* immediately following the
    /// previously programmed page of the chip — a proxy for "random
    /// writes", the pattern NAND punishes. Sequential log writes keep this
    /// near zero; in-place structures inflate it.
    pub non_sequential_programs: u64,
}

impl IoStats {
    /// Simulated elapsed time under a latency model.
    pub fn time_ns(&self, cost: &CostModel) -> u64 {
        cost.time_ns(self.page_reads, self.page_programs, self.block_erases)
    }

    /// Attach these counters (typically a snapshot delta) to a tracing
    /// span under the conventional `flash.*` attribute names read by
    /// [`pds_obs::QueryTrace`].
    pub fn attach_to_span(&self, span: &pds_obs::SpanGuard) {
        span.set("flash.page_reads", self.page_reads);
        span.set("flash.page_programs", self.page_programs);
        span.set("flash.block_erases", self.block_erases);
        span.set("flash.non_seq_programs", self.non_sequential_programs);
    }

    /// Write amplification relative to `payload_bytes` of useful data,
    /// given the page size. >1.0 means the structure wrote more pages than
    /// the payload strictly requires.
    pub fn write_amplification(&self, payload_bytes: u64, page_size: u64) -> f64 {
        if payload_bytes == 0 {
            return 0.0;
        }
        (self.page_programs * page_size) as f64 / payload_bytes as f64
    }
}

impl Sub for IoStats {
    type Output = IoStats;

    /// Delta between two snapshots (`after - before`). Saturating: a
    /// stale or mismatched snapshot pair (e.g. counters reset between the
    /// two) yields a zero delta instead of a debug-mode panic inside
    /// instrumentation code.
    fn sub(self, rhs: IoStats) -> IoStats {
        IoStats {
            page_reads: self.page_reads.saturating_sub(rhs.page_reads),
            page_programs: self.page_programs.saturating_sub(rhs.page_programs),
            block_erases: self.block_erases.saturating_sub(rhs.block_erases),
            non_sequential_programs: self
                .non_sequential_programs
                .saturating_sub(rhs.non_sequential_programs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_deltas() {
        let before = IoStats {
            page_reads: 10,
            page_programs: 5,
            block_erases: 1,
            non_sequential_programs: 2,
        };
        let after = IoStats {
            page_reads: 30,
            page_programs: 9,
            block_erases: 2,
            non_sequential_programs: 2,
        };
        let d = after - before;
        assert_eq!(d.page_reads, 20);
        assert_eq!(d.page_programs, 4);
        assert_eq!(d.non_sequential_programs, 0);
    }

    #[test]
    fn mismatched_snapshots_saturate_to_zero() {
        let before = IoStats {
            page_reads: 30,
            ..Default::default()
        };
        // Counters were reset between the snapshots: "after" is smaller.
        let after = IoStats {
            page_reads: 4,
            page_programs: 2,
            ..Default::default()
        };
        let d = after - before;
        assert_eq!(d.page_reads, 0, "stale pair surfaces as zero delta");
        assert_eq!(d.page_programs, 2);
    }

    #[test]
    fn write_amplification_handles_zero_payload() {
        let s = IoStats {
            page_programs: 4,
            ..Default::default()
        };
        assert_eq!(s.write_amplification(0, 512), 0.0);
        assert!((s.write_amplification(1024, 512) - 2.0).abs() < 1e-9);
    }
}
