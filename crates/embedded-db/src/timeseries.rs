//! Embedded time-series store — the tutorial's first "remaining
//! challenge".
//!
//! Part II closes with: "Extend the principles to other data models:
//! XML, **time series**, spatial-temporal data, noSQL & key-value
//! stores." This is the summarised-log recipe (`summary_log.rs`)
//! with `(timestamp, value)` samples as entries (timestamps arrive
//! non-decreasing — sensors and life-logging produce them in order) and,
//! per data page, its time range and pre-aggregates (count / sum / min /
//! max) — the Bloom-filter idea transposed to ranges. A range aggregate
//! *skips* disjoint pages, *uses the summary* of covered pages and reads
//! *data* pages only at the two range boundaries: `|summary| I/O + O(1)`
//! instead of scanning the series.

use pds_flash::{Flash, FlashError};
use pds_obs::wire::Reader;

use crate::error::DbError;
use crate::summary_log::{Front, SummaryLog};

/// One sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Seconds (or any monotone unit) since the device epoch.
    pub ts: u64,
    /// Measured value.
    pub value: i64,
}

/// On-flash sample: `ts u64 ‖ value i64`.
const SAMPLE_LEN: usize = 16;

/// Aggregate of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aggregate {
    /// Number of samples.
    pub count: u64,
    /// Sum of values.
    pub sum: i64,
    /// Minimum value (i64::MAX when empty).
    pub min: i64,
    /// Maximum value (i64::MIN when empty).
    pub max: i64,
}

impl Aggregate {
    /// The empty aggregate (identity of [`merge`](Self::merge)).
    pub fn empty() -> Self {
        Aggregate {
            count: 0,
            sum: 0,
            min: i64::MAX,
            max: i64::MIN,
        }
    }

    fn add(&mut self, v: i64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Combine two aggregates.
    pub fn merge(&self, other: &Aggregate) -> Aggregate {
        Aggregate {
            count: self.count + other.count,
            sum: self.sum + other.sum,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Mean value, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

/// Per-page summary record: `ts_min ‖ ts_max ‖ count ‖ sum ‖ min ‖ max`.
#[derive(Debug, Clone, Copy)]
struct PageSummary {
    ts_min: u64,
    ts_max: u64,
    agg: Aggregate,
}

/// Entry codec and summary of the series.
struct SamplesFront;

impl Front for SamplesFront {
    type Entry = Sample;
    type EntryRef<'a> = Sample;
    type Summary<'a> = PageSummary;

    fn encode(s: &Sample, out: &mut Vec<u8>) {
        out.extend_from_slice(&s.ts.to_le_bytes());
        out.extend_from_slice(&s.value.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Option<Sample> {
        Some(Sample {
            ts: r.u64()?,
            value: i64::from_le_bytes(r.array()?),
        })
    }

    fn to_owned(s: Sample) -> Sample {
        s
    }

    fn summarise(&self, page: &[Sample]) -> Vec<u8> {
        let mut agg = Aggregate::empty();
        for s in page {
            agg.add(s.value);
        }
        // Samples arrive in time order: the ends of the page bound it.
        let (ts_min, ts_max) = match (page.first(), page.last()) {
            (Some(first), Some(last)) => (first.ts, last.ts),
            _ => (u64::MAX, u64::MIN),
        };
        let mut out = Vec::with_capacity(48);
        out.extend_from_slice(&ts_min.to_le_bytes());
        out.extend_from_slice(&ts_max.to_le_bytes());
        out.extend_from_slice(&agg.count.to_le_bytes());
        out.extend_from_slice(&agg.sum.to_le_bytes());
        out.extend_from_slice(&agg.min.to_le_bytes());
        out.extend_from_slice(&agg.max.to_le_bytes());
        out
    }

    fn summary(rec: &[u8]) -> Option<PageSummary> {
        let mut r = Reader::new(rec);
        let summary = PageSummary {
            ts_min: r.u64()?,
            ts_max: r.u64()?,
            agg: Aggregate {
                count: r.u64()?,
                sum: i64::from_le_bytes(r.array()?),
                min: i64::from_le_bytes(r.array()?),
                max: i64::from_le_bytes(r.array()?),
            },
        };
        r.finish()?;
        Some(summary)
    }
}

/// A log-structured time series with pre-aggregated page summaries.
pub struct TimeSeries {
    log: SummaryLog<SamplesFront>,
    last_ts: Option<u64>,
    total: u64,
}

impl TimeSeries {
    /// An empty series on `flash`.
    pub fn new(flash: &Flash) -> Self {
        TimeSeries {
            log: SummaryLog::new(flash, SamplesFront),
            last_ts: None,
            total: 0,
        }
    }

    /// Total samples appended.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when no sample was appended.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Data pages on flash.
    pub fn num_data_pages(&self) -> u32 {
        self.log.num_data_pages()
    }

    /// Append one sample. Timestamps must be non-decreasing (out-of-order
    /// samples are a protocol error on an append-only sensor store) — an
    /// older sample is rejected with [`DbError::OutOfOrderTimestamp`].
    pub fn append(&mut self, ts: u64, value: i64) -> Result<(), DbError> {
        if let Some(last) = self.last_ts {
            if ts < last {
                return Err(DbError::OutOfOrderTimestamp { last, got: ts });
            }
        }
        self.log.push(Sample { ts, value })?;
        self.last_ts = Some(ts);
        self.total += 1;
        self.log.close_if_full(SAMPLE_LEN)?;
        Ok(())
    }

    /// Force pending samples to flash.
    pub fn flush(&mut self) -> Result<(), FlashError> {
        self.log.flush()
    }

    /// Aggregate over `[from, to]` (inclusive): summary scan + boundary
    /// data-page probes. RAM: one page buffer.
    pub fn range_aggregate(&self, from: u64, to: u64) -> Result<Aggregate, FlashError> {
        let mut agg = Aggregate::empty();
        let add_in_range = |s: &Sample, agg: &mut Aggregate| {
            if s.ts >= from && s.ts <= to {
                agg.add(s.value);
            }
        };
        let mut buf = Vec::new();
        self.log.for_each_summary(|page, s| {
            if s.ts_max < from || s.ts_min > to {
                // Disjoint: skip without touching data.
            } else if s.ts_min >= from && s.ts_max <= to {
                agg = agg.merge(&s.agg); // fully covered: use the summary
            } else {
                // Boundary page: probe the data page.
                let add = |s| add_in_range(&s, &mut agg);
                self.log.for_each_entry(page, &mut buf, add)?;
            }
            Ok(())
        })?;
        for s in self.log.open_entries() {
            add_in_range(s, &mut agg);
        }
        Ok(agg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::rng::{Rng, SeedableRng, StdRng};

    #[test]
    fn sample_pages_and_their_summaries_keep_the_decoder_contract() {
        crate::summary_log::sweep_front(
            "samples",
            &SamplesFront,
            |rng| Sample {
                ts: rng.gen(),
                value: i64::from(rng.gen::<i32>()),
            },
            reference_decode_sample,
        );
    }

    /// The sample decoder as it stood before data pages were walked in
    /// place, kept verbatim.
    fn reference_decode_sample(r: &mut Reader<'_>) -> Option<Sample> {
        Some(Sample {
            ts: r.u64()?,
            value: i64::from_le_bytes(r.array()?),
        })
    }

    fn series_with(n: u64) -> (Flash, TimeSeries) {
        let f = Flash::small(512);
        let mut ts = TimeSeries::new(&f);
        for i in 0..n {
            // value pattern: alternating sign ramp
            let v = if i % 2 == 0 { i as i64 } else { -(i as i64) };
            ts.append(i * 10, v).unwrap();
        }
        (f, ts)
    }

    fn oracle(n: u64, from: u64, to: u64) -> Aggregate {
        let mut agg = Aggregate::empty();
        for i in 0..n {
            let t = i * 10;
            if t >= from && t <= to {
                let v = if i % 2 == 0 { i as i64 } else { -(i as i64) };
                agg.add(v);
            }
        }
        agg
    }

    #[test]
    fn range_aggregates_match_oracle() {
        let (_f, ts) = series_with(2000);
        for (from, to) in [
            (0, 19990),
            (5000, 6000),
            (123, 456),
            (19990, 19990),
            (30000, 40000),
        ] {
            assert_eq!(
                ts.range_aggregate(from, to).unwrap(),
                oracle(2000, from, to),
                "[{from},{to}]"
            );
        }
    }

    #[test]
    fn covered_pages_are_answered_from_summaries_alone() {
        let (f, mut ts) = series_with(5000);
        ts.flush().unwrap();
        f.reset_stats();
        ts.range_aggregate(10_000, 40_000).unwrap();
        let reads = f.stats().page_reads;
        // Summary pages + at most 2 boundary data pages.
        let summary_pages = ts.log.num_summary_pages() as u64;
        assert!(
            reads <= summary_pages + 3,
            "reads {reads} vs summaries {summary_pages}"
        );
        assert!(
            reads < ts.num_data_pages() as u64 / 4,
            "must not scan the data log"
        );
    }

    #[test]
    fn pending_ram_samples_are_visible() {
        let f = Flash::small(64);
        let mut ts = TimeSeries::new(&f);
        ts.append(100, 7).unwrap();
        ts.append(110, 9).unwrap();
        let agg = ts.range_aggregate(0, 200).unwrap();
        assert_eq!(agg.count, 2);
        assert_eq!(agg.sum, 16);
        assert_eq!(ts.num_data_pages(), 0, "still buffered");
    }

    #[test]
    fn out_of_order_timestamps_rejected() {
        let f = Flash::small(16);
        let mut ts = TimeSeries::new(&f);
        ts.append(100, 1).unwrap();
        match ts.append(50, 2) {
            Err(DbError::OutOfOrderTimestamp { last: 100, got: 50 }) => {}
            other => panic!("expected out-of-order error, got {other:?}"),
        }
        // The rejected sample must not have advanced any state.
        ts.append(100, 3).unwrap();
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn empty_series_and_empty_range() {
        let (_f, ts) = series_with(100);
        let empty = ts.range_aggregate(999_999, 1_000_000).unwrap();
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean(), None);
        let fresh = TimeSeries::new(&Flash::small(8));
        assert_eq!(fresh.range_aggregate(0, u64::MAX).unwrap().count, 0);
    }

    #[test]
    fn prop_aggregate_equals_oracle() {
        for case in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(0x7155 + case);
            let n = rng.gen_range(1u64..800);
            let (a, b) = (rng.gen_range(0u64..9000), rng.gen_range(0u64..9000));
            let (from, to) = (a.min(b), a.max(b));
            let (_f, ts) = series_with(n);
            assert_eq!(
                ts.range_aggregate(from, to).unwrap(),
                oracle(n, from, to),
                "case {case}"
            );
        }
    }

    #[test]
    fn entries_in_log_order_and_answers_are_pinned() {
        let mut rng = StdRng::seed_from_u64(0x91D5_0003);
        let f = Flash::small(512);
        let mut series = TimeSeries::new(&f);
        let mut answers = Vec::new();
        let mut now = 0u64;
        for _ in 0..3000 {
            now += rng.gen_range(0u64..5);
            series.append(now, rng.gen_range(-1000i64..1000)).unwrap();
            match rng.gen_range(0..100u32) {
                0 => series.flush().unwrap(),
                1..=5 => {
                    let (a, b) = (rng.gen_range(0..=now + 5), rng.gen_range(0..=now + 5));
                    answers.push(series.range_aggregate(a.min(b), a.max(b)).unwrap());
                }
                _ => {}
            }
        }
        for from in (0..now).step_by(97) {
            answers.push(series.range_aggregate(from, from + 300).unwrap());
        }
        let entries = series.log.entries_in_log_order().unwrap();
        assert_eq!(entries.len(), 3000);
        assert_eq!(
            crate::debug_digest(&(entries, answers)),
            "825ec4b3a25ab8b864601109723fb862cbf79f70389481feb46805947c1cd428"
        );
    }
}
