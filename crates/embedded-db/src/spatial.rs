//! Embedded spatial-temporal store — third item of the tutorial's
//! extension challenge ("XML, time series, **spatial-temporal data**,
//! noSQL & key-value stores").
//!
//! The motivating device class is the tutorial's GPS-enabled personal
//! tokens (transport passes, vehicle trackers). This is the
//! summarised-log recipe (`summary_log.rs`) with points
//! `(x, y, ts)` in time order as entries and, per data page, the
//! *minimum bounding rectangle* (MBR) and time range of its points — the
//! R-tree idea flattened into the tutorial's log+summary shape. A
//! spatio-temporal window query probes only pages whose MBR intersects
//! the window.
//!
//! Movement traces have strong spatial locality in time (consecutive
//! points are near each other), so page MBRs are tight and the summary
//! scan prunes aggressively — the property the tests assert.

use pds_flash::{Flash, FlashError};
use pds_obs::wire::Reader;

use crate::error::DbError;
use crate::summary_log::{Front, SummaryLog};

/// One spatio-temporal point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// X coordinate (e.g. scaled longitude).
    pub x: i32,
    /// Y coordinate (e.g. scaled latitude).
    pub y: i32,
    /// Timestamp (monotone).
    pub ts: u64,
}

/// An axis-aligned query window with a time range.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Inclusive x range.
    pub x: (i32, i32),
    /// Inclusive y range.
    pub y: (i32, i32),
    /// Inclusive time range.
    pub t: (u64, u64),
}

impl Window {
    /// Does the window contain the point?
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.x.0
            && p.x <= self.x.1
            && p.y >= self.y.0
            && p.y <= self.y.1
            && p.ts >= self.t.0
            && p.ts <= self.t.1
    }
}

/// On-flash point: `x i32 ‖ y i32 ‖ ts u64`.
const POINT_LEN: usize = 16;

/// Per-page summary: MBR + time range.
#[derive(Debug, Clone, Copy)]
struct Mbr {
    x: (i32, i32),
    y: (i32, i32),
    t: (u64, u64),
}

impl Mbr {
    fn of(points: &[Point]) -> Mbr {
        let mut m = Mbr {
            x: (i32::MAX, i32::MIN),
            y: (i32::MAX, i32::MIN),
            t: (u64::MAX, u64::MIN),
        };
        for p in points {
            m.x.0 = m.x.0.min(p.x);
            m.x.1 = m.x.1.max(p.x);
            m.y.0 = m.y.0.min(p.y);
            m.y.1 = m.y.1.max(p.y);
            m.t.0 = m.t.0.min(p.ts);
            m.t.1 = m.t.1.max(p.ts);
        }
        m
    }

    fn intersects(&self, w: &Window) -> bool {
        self.x.0 <= w.x.1
            && self.x.1 >= w.x.0
            && self.y.0 <= w.y.1
            && self.y.1 >= w.y.0
            && self.t.0 <= w.t.1
            && self.t.1 >= w.t.0
    }
}

/// Entry codec and summary of the trace.
struct PointsFront;

impl Front for PointsFront {
    type Entry = Point;
    type EntryRef<'a> = Point;
    type Summary<'a> = Mbr;

    fn encode(p: &Point, out: &mut Vec<u8>) {
        out.extend_from_slice(&p.x.to_le_bytes());
        out.extend_from_slice(&p.y.to_le_bytes());
        out.extend_from_slice(&p.ts.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Option<Point> {
        Some(Point {
            x: i32::from_le_bytes(r.array()?),
            y: i32::from_le_bytes(r.array()?),
            ts: r.u64()?,
        })
    }

    fn to_owned(p: Point) -> Point {
        p
    }

    fn summarise(&self, page: &[Point]) -> Vec<u8> {
        let m = Mbr::of(page);
        let mut out = Vec::with_capacity(32);
        for v in [m.x.0, m.x.1, m.y.0, m.y.1] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in [m.t.0, m.t.1] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    fn summary(rec: &[u8]) -> Option<Mbr> {
        let mut r = Reader::new(rec);
        let mut i = || r.array().map(i32::from_le_bytes);
        let (x, y) = ((i()?, i()?), (i()?, i()?));
        let t = (r.u64()?, r.u64()?);
        r.finish()?;
        Some(Mbr { x, y, t })
    }
}

/// A log-structured spatio-temporal trace with MBR page summaries.
pub struct SpatialTrace {
    log: SummaryLog<PointsFront>,
    last_ts: Option<u64>,
    total: u64,
}

impl SpatialTrace {
    /// An empty trace on `flash`.
    pub fn new(flash: &Flash) -> Self {
        SpatialTrace {
            log: SummaryLog::new(flash, PointsFront),
            last_ts: None,
            total: 0,
        }
    }

    /// Points recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when no point was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Data pages programmed.
    pub fn num_data_pages(&self) -> u32 {
        self.log.num_data_pages()
    }

    /// Record one point. Timestamps must be non-decreasing; an older point
    /// is rejected with [`DbError::OutOfOrderTimestamp`].
    pub fn record(&mut self, x: i32, y: i32, ts: u64) -> Result<(), DbError> {
        if let Some(last) = self.last_ts {
            if ts < last {
                return Err(DbError::OutOfOrderTimestamp { last, got: ts });
            }
        }
        self.log.push(Point { x, y, ts })?;
        self.last_ts = Some(ts);
        self.total += 1;
        self.log.close_if_full(POINT_LEN)?;
        Ok(())
    }

    /// Force pending points to flash.
    pub fn flush(&mut self) -> Result<(), FlashError> {
        self.log.flush()
    }

    /// All points inside the window, in time order. RAM: one page buffer;
    /// I/O: summary scan + only the intersecting data pages.
    pub fn window_query(&self, w: &Window) -> Result<Vec<Point>, FlashError> {
        let mut hits = Vec::new();
        let mut buf = Vec::new();
        self.log.for_each_summary(|page, mbr| {
            if mbr.intersects(w) {
                self.log.for_each_entry(page, &mut buf, |p| {
                    if w.contains(&p) {
                        hits.push(p);
                    }
                })?;
            }
            Ok(())
        })?;
        let open = self.log.open_entries();
        hits.extend(open.iter().copied().filter(|p| w.contains(p)));
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::rng::{Rng, SeedableRng, StdRng};

    #[test]
    fn point_pages_and_their_mbrs_keep_the_decoder_contract() {
        crate::summary_log::sweep_front(
            "points",
            &PointsFront,
            |rng| Point {
                x: rng.gen(),
                y: rng.gen(),
                ts: rng.gen(),
            },
            reference_decode_point,
        );
    }

    /// The point decoder as it stood before data pages were walked in
    /// place, kept verbatim.
    fn reference_decode_point(r: &mut Reader<'_>) -> Option<Point> {
        Some(Point {
            x: i32::from_le_bytes(r.array()?),
            y: i32::from_le_bytes(r.array()?),
            ts: r.u64()?,
        })
    }

    /// A commuter-like trace: loops between home (0,0) and work (1000,800)
    /// with small jitter — strong spatial locality in time.
    fn commuter_trace(days: u64) -> (Flash, SpatialTrace, Vec<Point>) {
        let f = Flash::small(1024);
        let mut trace = SpatialTrace::new(&f);
        let mut all = Vec::new();
        let mut ts = 0u64;
        for day in 0..days {
            for step in 0..100i32 {
                // Morning: home → work; afternoon: work → home.
                let frac = if step < 50 { step } else { 100 - step };
                let x = frac * 20 + (day as i32 % 3);
                let y = frac * 16 + (day as i32 % 5);
                trace.record(x, y, ts).unwrap();
                all.push(Point { x, y, ts });
                ts += 60;
            }
        }
        (f, trace, all)
    }

    fn oracle(all: &[Point], w: &Window) -> Vec<Point> {
        all.iter().copied().filter(|p| w.contains(p)).collect()
    }

    #[test]
    fn window_queries_match_oracle() {
        let (_f, trace, all) = commuter_trace(20);
        let windows = [
            Window {
                x: (0, 100),
                y: (0, 100),
                t: (0, u64::MAX),
            }, // near home
            Window {
                x: (900, 1100),
                y: (700, 900),
                t: (0, u64::MAX),
            }, // near work
            Window {
                x: (0, 2000),
                y: (0, 2000),
                t: (6000, 12000),
            }, // one time slice
            Window {
                x: (5000, 6000),
                y: (0, 10),
                t: (0, 100),
            }, // empty
        ];
        for w in &windows {
            assert_eq!(trace.window_query(w).unwrap(), oracle(&all, w), "{w:?}");
        }
    }

    #[test]
    fn summary_scan_prunes_most_data_pages() {
        let (f, mut trace, _all) = commuter_trace(60);
        trace.flush().unwrap();
        f.reset_stats();
        // A tight window around home: only the pages covering the
        // morning/evening ends of each day intersect.
        let w = Window {
            x: (0, 60),
            y: (0, 60),
            t: (0, u64::MAX),
        };
        trace.window_query(&w).unwrap();
        let reads = f.stats().page_reads;
        assert!(
            reads < trace.num_data_pages() as u64,
            "{reads} reads vs {} data pages — MBRs must prune",
            trace.num_data_pages()
        );
    }

    #[test]
    fn pending_points_visible() {
        let f = Flash::small(16);
        let mut t = SpatialTrace::new(&f);
        t.record(5, 5, 100).unwrap();
        let w = Window {
            x: (0, 10),
            y: (0, 10),
            t: (0, 200),
        };
        assert_eq!(t.window_query(&w).unwrap().len(), 1);
        assert_eq!(t.num_data_pages(), 0);
    }

    #[test]
    fn time_order_enforced() {
        let f = Flash::small(8);
        let mut t = SpatialTrace::new(&f);
        t.record(0, 0, 100).unwrap();
        match t.record(0, 0, 99) {
            Err(DbError::OutOfOrderTimestamp { last: 100, got: 99 }) => {}
            other => panic!("expected out-of-order error, got {other:?}"),
        }
    }

    #[test]
    fn prop_window_query_equals_oracle() {
        for case in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(0x59A7 + case);
            let f = Flash::small(512);
            let mut trace = SpatialTrace::new(&f);
            let mut all = Vec::new();
            for i in 0..rng.gen_range(1u64..300) {
                let (x, y) = (rng.gen_range(-100i32..100), rng.gen_range(-100i32..100));
                trace.record(x, y, i).unwrap();
                all.push(Point { x, y, ts: i });
            }
            let wx = (rng.gen_range(-100i32..100), rng.gen_range(-100i32..100));
            let wy = (rng.gen_range(-100i32..100), rng.gen_range(-100i32..100));
            let w = Window {
                x: (wx.0.min(wx.1), wx.0.max(wx.1)),
                y: (wy.0.min(wy.1), wy.0.max(wy.1)),
                t: (0, u64::MAX),
            };
            assert_eq!(
                trace.window_query(&w).unwrap(),
                oracle(&all, &w),
                "case {case}"
            );
        }
    }

    #[test]
    fn entries_in_log_order_and_answers_are_pinned() {
        let mut rng = StdRng::seed_from_u64(0x91D5_0004);
        let f = Flash::small(512);
        let mut trace = SpatialTrace::new(&f);
        let mut answers = Vec::new();
        let (mut x, mut y, mut now) = (0i32, 0i32, 0u64);
        for _ in 0..3000 {
            x += rng.gen_range(-20i32..=20);
            y += rng.gen_range(-20i32..=20);
            now += rng.gen_range(0u64..3);
            trace.record(x, y, now).unwrap();
            match rng.gen_range(0..100u32) {
                0 => trace.flush().unwrap(),
                1..=5 => {
                    let (cx, cy) = (
                        x + rng.gen_range(-200i32..=200),
                        y + rng.gen_range(-200i32..=200),
                    );
                    let w = Window {
                        x: (cx - 80, cx + 80),
                        y: (cy - 80, cy + 80),
                        t: (rng.gen_range(0..=now), now + 1),
                    };
                    answers.push(trace.window_query(&w).unwrap());
                }
                _ => {}
            }
        }
        let entries = trace.log.entries_in_log_order().unwrap();
        assert_eq!(entries.len(), 3000);
        assert_eq!(
            crate::debug_digest(&(entries, answers)),
            "861bd6955e26b2e58451ca8ead3b4167d909fe3cb9d1956a6f8f7de710a580e5"
        );
    }
}
