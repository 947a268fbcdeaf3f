//! Table storage: rows in an append-only log.
//!
//! Rows are immutable once written (updates on NAND are appends of new
//! versions; the personal-data workloads of the tutorial are
//! insert-dominant: interaction histories, bills, records). Rowids are
//! dense and increasing — the property every climbing index and pipeline
//! merge of this crate relies on — because a rowid *is* the row's
//! ordinal in the log: the table keeps no directory beside it.
//!
//! Rows are read where they lie. A [`scan`](Table::scan) hands its
//! visitor a [`RowRef`] over the page buffer the log verified, so a
//! query evaluates its predicate on the column's bytes and builds an
//! owned [`Row`] only for what it returns; [`get`](Table::get) is the
//! same view, collected. A record that does not parse as a row is
//! [`FlashError::CorruptPage`] at the flash address of the log page
//! that holds it.
//!
//! Personal data mostly arrives in time order, so a table notes, per
//! `U64` column, whether the values it was handed so far never went down
//! ([`ColumnOrder`]). On such a column a range is *found*, not scanned:
//! the planner's ordered scan binary-searches the log's pages for the
//! first row that can match and stops at the first row past the range.

use std::ops::ControlFlow;

#[cfg(test)]
use pds_flash::PageAddr;
use pds_flash::{BlockId, Flash, FlashError, LogPos, LogWriter};

use crate::error::DbError;
use crate::value::{encode_row, Row, RowRef, Schema, Value, ValueRef};

/// Durable identity of a [`Table`] across a power cycle: name, schema
/// and the row log's erase blocks — its size does not depend on how many
/// rows the table holds. A real token persists this in a catalog log;
/// the simulation carries it across the reboot in RAM.
#[derive(Debug, Clone)]
pub struct TableManifest {
    /// Table name.
    pub name: String,
    /// Column layout.
    pub schema: Schema,
    /// Erase blocks of the row log.
    pub blocks: Vec<BlockId>,
    /// Rows held at power-off, flushed or not — recovery needs it only
    /// to report how many were lost.
    pub rows: u32,
    /// Insertion order of every column at power-off: a constant size
    /// per column, and what lets recovery keep ordered ranges cheap
    /// without reading a row.
    pub order: Vec<ColumnOrder>,
}

/// How the values of one column arrived, in rowid order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnOrder {
    /// No row yet.
    Empty,
    /// No row's value is below the one before it. `first` is row 0's
    /// value; `last` is the last row's — or, after a recovery cut rows
    /// off the end, a bound above every value left.
    NonDecreasing {
        /// Row 0's value, the smallest.
        first: u64,
        /// Not below any row's value.
        last: u64,
    },
    /// Some value went down, or is not a `U64`.
    Unordered,
}

impl ColumnOrder {
    /// The state once `v` is appended.
    fn push(self, v: &Value) -> Self {
        match (self, v) {
            (ColumnOrder::Empty, &Value::U64(v)) => {
                ColumnOrder::NonDecreasing { first: v, last: v }
            }
            (ColumnOrder::NonDecreasing { first, last }, &Value::U64(v)) if v >= last => {
                ColumnOrder::NonDecreasing { first, last: v }
            }
            _ => ColumnOrder::Unordered,
        }
    }

    /// The state after a recovery kept `kept` of the `held` rows this
    /// state described. A crash only ever cuts a *suffix* off the log,
    /// and a prefix of a non-decreasing run is non-decreasing, its first
    /// value unchanged and its last no higher — so the state stands as
    /// it is, without reading a row. More rows than the state saw are
    /// rows it knows nothing of.
    fn recovered(self, kept: u32, held: u32) -> Self {
        match self {
            ColumnOrder::Unordered => ColumnOrder::Unordered,
            _ if kept == 0 => ColumnOrder::Empty,
            ColumnOrder::NonDecreasing { .. } if kept <= held => self,
            _ => ColumnOrder::Unordered,
        }
    }
}

/// Dense row identifier within one table.
pub type RowId = u32;

/// One table: schema + row log.
pub struct Table {
    name: String,
    schema: Schema,
    log: LogWriter,
    /// Per column, how its values arrived.
    order: Vec<ColumnOrder>,
}

impl Table {
    /// Create an empty table on `flash`.
    pub fn new(flash: &Flash, name: &str, schema: Schema) -> Self {
        Table {
            name: name.to_string(),
            order: vec![ColumnOrder::Empty; schema.arity()],
            schema,
            log: flash.new_log(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Position of `column` in the schema, or the typed
    /// [`DbError::UnknownColumn`] naming this table.
    pub fn column(&self, column: &str) -> Result<usize, DbError> {
        self.schema
            .column_index(column)
            .ok_or_else(|| DbError::UnknownColumn {
                table: self.name.clone(),
                column: column.to_string(),
            })
    }

    /// Number of rows.
    pub fn num_rows(&self) -> u32 {
        self.log.num_records() as u32
    }

    /// Number of data pages currently programmed.
    pub fn num_pages(&self) -> u32 {
        self.log.num_pages()
    }

    /// How column `c`'s values arrived ([`ColumnOrder::Unordered`] past
    /// the schema).
    pub(crate) fn order(&self, c: usize) -> ColumnOrder {
        self.order.get(c).copied().unwrap_or(ColumnOrder::Unordered)
    }

    /// Insert a row; returns its rowid. Panics on schema mismatch (a
    /// programming error, not a runtime condition).
    pub fn insert(&mut self, row: &Row) -> Result<RowId, FlashError> {
        // pds-lint: allow(panic.assert) — documented panic on schema mismatch,
        // a call-site programming error; stored bytes never reach this check.
        assert!(
            self.schema.validate(row),
            "row does not match schema of {}",
            self.name
        );
        let rowid = self.log.append(&encode_row(row))?;
        for (order, v) in self.order.iter_mut().zip(row) {
            *order = order.push(v);
        }
        Ok(rowid)
    }

    /// Fetch one row (one page I/O).
    pub fn get(&self, id: RowId) -> Result<Row, FlashError> {
        self.get_with(id, &mut Vec::new())
    }

    /// [`get`](Self::get) through a page buffer the caller keeps across a
    /// run of fetches.
    pub(crate) fn get_with(&self, id: RowId, scratch: &mut Vec<u8>) -> Result<Row, FlashError> {
        self.log
            .get_with(id, scratch, |page, rec| {
                RowRef::parse(rec).map(|row| row.to_row()).ok_or(page)
            })?
            .map_err(|page| self.corrupt(page))
    }

    /// The error for a record on log page `page` that is not a row. The
    /// RAM tail has no flash address — and cannot hold one: `insert`
    /// alone encodes it.
    fn corrupt(&self, page: u32) -> FlashError {
        match self.log.page_addr(page) {
            Ok(addr) => FlashError::CorruptPage(addr),
            Err(e) => e,
        }
    }

    /// Flush buffered rows to flash.
    pub fn flush(&mut self) -> Result<(), FlashError> {
        self.log.flush()
    }

    /// The table's durable identity, for [`recover`](Self::recover)
    /// after a power loss.
    pub fn manifest(&self) -> TableManifest {
        TableManifest {
            name: self.name.clone(),
            schema: self.schema.clone(),
            blocks: self.log.blocks().to_vec(),
            rows: self.num_rows(),
            order: self.order.clone(),
        }
    }

    /// Rebuild a table after a power loss. The log's recovery scan
    /// re-derives every rowid, and whatever the crash destroyed is a
    /// *suffix* of them — so the manifest's column orders still hold
    /// ([`ColumnOrder`]). Returns the table and the number of rows lost.
    pub fn recover(flash: &Flash, m: &TableManifest) -> Result<(Self, u32), FlashError> {
        let (log, _) = LogWriter::recover(flash, &m.blocks)?;
        let kept = log.num_records() as u32;
        let table = Table {
            name: m.name.clone(),
            schema: m.schema.clone(),
            order: m.order.iter().map(|o| o.recovered(kept, m.rows)).collect(),
            log,
        };
        let lost = m.rows.saturating_sub(table.num_rows());
        pds_obs::counter!("recovery.rows_lost").add(lost as u64);
        Ok((table, lost))
    }

    /// Full sequential scan (page-buffered): calls `f(rowid, row)` for
    /// every row, each a view over the page buffer it was read into.
    pub fn scan(&self, mut f: impl FnMut(RowId, RowRef<'_>)) -> Result<(), FlashError> {
        self.try_scan(|rowid, row| {
            f(rowid, row);
            Ok::<_, FlashError>(())
        })
    }

    /// [`scan`](Self::scan) that stops at, and returns, `f`'s first error.
    pub(crate) fn try_scan<E: From<FlashError>>(
        &self,
        mut f: impl FnMut(RowId, RowRef<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut failed = None;
        self.log
            .scan(LogPos::START, &mut Vec::new(), |page, rowid, rec| {
                let row = RowRef::parse(rec).ok_or_else(|| self.corrupt(page))?;
                Ok(match f(rowid, row) {
                    Ok(()) => ControlFlow::Continue(()),
                    Err(e) => {
                        failed = Some(e);
                        ControlFlow::Break(())
                    }
                })
            })?;
        failed.map_or(Ok(()), Err)
    }

    /// Calls `f(rowid, row)` for every row whose column `c` lies in
    /// `lo..=hi`, in rowid order, on a column whose
    /// [`order`](Self::order) is not [`ColumnOrder::Unordered`] (on one
    /// that is, nothing). The rows are found, not scanned: no page is
    /// read when the range misses `first..=last`; from row 0 when `lo ≤
    /// first`, otherwise from where a page-grain binary search of the
    /// log puts the first row `≥ lo` (at most ⌈log₂ pages⌉ reads, every
    /// one verified); and up to the first row past `hi`, all in one page
    /// buffer.
    pub(crate) fn scan_range(
        &self,
        c: usize,
        lo: u64,
        hi: u64,
        mut f: impl FnMut(RowId, RowRef<'_>),
    ) -> Result<(), FlashError> {
        let ColumnOrder::NonDecreasing { first, last } = self.order(c) else {
            return Ok(());
        };
        if lo > hi || hi < first || lo > last {
            return Ok(());
        }
        let mut scratch = Vec::new();
        let from = if lo <= first {
            LogPos::START
        } else {
            self.log.partition_point(&mut scratch, |page, rec| {
                Ok(self.row_at(page, rec, c)?.1.is_some_and(|v| v < lo))
            })?
        };
        self.log.scan(from, &mut scratch, |page, rowid, rec| {
            match self.row_at(page, rec, c)? {
                (_, Some(v)) if v > hi => return Ok(ControlFlow::Break(())),
                (row, Some(v)) if v >= lo => f(rowid, row),
                _ => {}
            }
            Ok(ControlFlow::Continue(()))
        })
    }

    /// The row in `rec`, read off log page `page`, and its column `c`
    /// as a `U64`.
    fn row_at<'a>(
        &self,
        page: u32,
        rec: &'a [u8],
        c: usize,
    ) -> Result<(RowRef<'a>, Option<u64>), FlashError> {
        let row = RowRef::parse(rec).ok_or_else(|| self.corrupt(page))?;
        Ok((row, row.get(c).and_then(ValueRef::as_u64)))
    }
}

#[cfg(test)]
impl Table {
    /// The scan as it stood before rows were read through a view, kept
    /// verbatim: every record decoded into an owned row by
    /// [`reference_decode_row`](crate::value::reference_decode_row).
    pub(crate) fn reference_scan(&self, mut f: impl FnMut(RowId, Row)) -> Result<(), FlashError> {
        let mut rowid: RowId = 0;
        self.log.for_each_record(|_, rec| {
            let row = crate::value::reference_decode_row(rec).ok_or(FlashError::BadRecordAddr)?;
            f(rowid, row);
            rowid += 1;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ColumnType, Value};

    fn customer_schema() -> Schema {
        Schema::new(&[
            ("id", ColumnType::U64),
            ("city", ColumnType::Str),
            ("segment", ColumnType::Str),
        ])
    }

    #[test]
    fn insert_get_round_trip() {
        let f = Flash::small(32);
        let mut t = Table::new(&f, "CUSTOMER", customer_schema());
        let r0 = t
            .insert(&vec![
                Value::U64(1),
                Value::str("Lyon"),
                Value::str("HOUSEHOLD"),
            ])
            .unwrap();
        let r1 = t
            .insert(&vec![
                Value::U64(2),
                Value::str("Paris"),
                Value::str("AUTO"),
            ])
            .unwrap();
        assert_eq!((r0, r1), (0, 1));
        assert_eq!(t.get(0).unwrap()[1], Value::str("Lyon"));
        assert_eq!(t.get(1).unwrap()[2], Value::str("AUTO"));
        assert!(t.get(2).is_err());
    }

    #[test]
    fn scan_sees_flushed_and_buffered_rows_in_order() {
        let f = Flash::small(32);
        let mut t = Table::new(&f, "CUSTOMER", customer_schema());
        for i in 0..100u64 {
            t.insert(&vec![
                Value::U64(i),
                Value::str("Lyon"),
                Value::str("HOUSEHOLD"),
            ])
            .unwrap();
        }
        let mut seen = Vec::new();
        t.scan(|id, row| {
            assert_eq!(row.get(0), Some(Value::U64(id as u64).as_ref()));
            seen.push(id);
        })
        .unwrap();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn a_record_that_is_not_a_row_names_the_page_that_holds_it() {
        let f = Flash::small(32);
        // Another log owns the chip's first block, so the table's page
        // ordinals and their flash addresses differ.
        let mut other = f.new_log();
        other.append(b"elsewhere").unwrap();
        other.flush().unwrap();
        let mut t = Table::new(&f, "CUSTOMER", customer_schema());
        let row = |i| vec![Value::U64(i), Value::str("Lyon"), Value::str("AUTO")];
        for i in 0..40 {
            t.insert(&row(i)).unwrap();
        }
        t.flush().unwrap();
        // A page the log wrote itself — framing and CRC correct — whose
        // one record claims three values and holds none.
        let bad = t.log.append(&[3, 0, 0xFF]).unwrap();
        t.flush().unwrap();
        t.insert(&row(41)).unwrap();
        let page = t.log.page_addr(t.num_pages() - 1).unwrap();
        assert_ne!(page.0, t.num_pages() - 1, "an address, not an ordinal");
        assert_eq!(t.get(bad), Err(FlashError::CorruptPage(page)));
        assert_eq!(t.get(bad - 1).unwrap(), row(39));
        assert_eq!(t.get(bad + 1).unwrap(), row(41));
        let mut seen = 0;
        let scanned = t.scan(|_, _| seen += 1);
        assert_eq!(scanned, Err(FlashError::CorruptPage(page)));
        assert_eq!(seen, 40, "every row before the damage was delivered");
    }

    #[test]
    #[should_panic(expected = "does not match schema")]
    fn schema_mismatch_panics() {
        let f = Flash::small(4);
        let mut t = Table::new(&f, "CUSTOMER", customer_schema());
        let _ = t.insert(&vec![Value::U64(1)]);
    }

    fn day_schema() -> Schema {
        Schema::new(&[("day", ColumnType::U64), ("note", ColumnType::Str)])
    }

    fn day_row(day: u64, note_len: u64) -> Row {
        vec![Value::U64(day), Value::Str("n".repeat(note_len as usize))]
    }

    /// `rows` rows whose `day` starts at 5 and goes up by one every
    /// `per_day` rows, notes of 0 to 39 bytes (10 to 20 rows a 512-byte
    /// page), behind a log that owns the chip's first block — so page
    /// ordinals and flash addresses differ.
    fn days_table(f: &Flash, rows: u64, per_day: u64) -> (Table, Vec<u64>) {
        let mut other = f.new_log();
        other.append(b"elsewhere").unwrap();
        other.flush().unwrap();
        let mut t = Table::new(f, "T", day_schema());
        let days: Vec<u64> = (0..rows).map(|i| 5 + i / per_day).collect();
        for (i, day) in days.iter().enumerate() {
            t.insert(&day_row(*day, i as u64 * 13 % 40)).unwrap();
        }
        (t, days)
    }

    /// The log page each row ends on.
    fn pages_of_rows(t: &Table) -> Vec<u32> {
        let mut pages = Vec::new();
        t.log
            .scan(LogPos::START, &mut Vec::new(), |page, _, _| {
                pages.push(page);
                Ok(ControlFlow::Continue(()))
            })
            .unwrap();
        pages
    }

    fn ceil_log2(n: u32) -> u64 {
        u64::from(u32::BITS - n.saturating_sub(1).leading_zeros())
    }

    /// Rowids `scan_range` hands over, and the pages it read for them.
    fn range(f: &Flash, t: &Table, lo: u64, hi: u64) -> (Vec<RowId>, u64) {
        let before = f.stats().page_reads;
        let mut ids = Vec::new();
        t.scan_range(0, lo, hi, |rowid, row| {
            let day = row.get(0).and_then(ValueRef::as_u64).unwrap();
            assert!((lo..=hi).contains(&day), "row {rowid}: day {day}");
            ids.push(rowid);
        })
        .unwrap();
        (ids, f.stats().page_reads - before)
    }

    #[test]
    fn an_ordered_range_reads_the_search_and_the_pages_it_spans() {
        for (rows, per_day, flushed) in [
            (3000, 7, true),
            (3000, 7, false),
            (700, 1, true),
            (40, 3, false),
            (1, 1, true),
        ] {
            let f = Flash::small(128);
            let (mut t, days) = days_table(&f, rows, per_day);
            if flushed {
                t.flush().unwrap();
            }
            let (p, pages) = (t.num_pages(), pages_of_rows(&t));
            let (first, last) = (days[0], days[days.len() - 1]);
            assert_eq!(t.order(0), ColumnOrder::NonDecreasing { first, last });
            let ctx = format!("{rows} rows, {per_day} a day, flushed {flushed}, {p} pages");

            // A range that holds every row reads what a full scan reads.
            let before = f.stats().page_reads;
            t.scan(|_, _| ()).unwrap();
            let full = f.stats().page_reads - before;
            assert_eq!(full, u64::from(p), "{ctx}");
            let (all, reads) = range(&f, &t, 0, u64::MAX);
            assert_eq!((all.len() as u64, reads), (rows, full), "{ctx}");

            // Bounds that miss every row read nothing.
            for (lo, hi) in [(0, first - 1), (last + 1, u64::MAX), (first + 1, first)] {
                assert_eq!(range(&f, &t, lo, hi), (vec![], 0), "{ctx}: {lo}..={hi}");
            }

            // Everything else: at most the search, the pages from the
            // first row ≥ lo to the row that ends the run, and one page
            // the search may have to read again.
            let step = ((last - first) / 37).max(1) as usize;
            for lo in (0..=last + 2).step_by(step) {
                for width in [0, 1, 5, 30] {
                    let hi = lo + width;
                    let want: Vec<RowId> = (0..rows as u32)
                        .filter(|r| (lo..=hi).contains(&days[*r as usize]))
                        .collect();
                    let (got, reads) = range(&f, &t, lo, hi);
                    assert_eq!(got, want, "{ctx}: {lo}..={hi}");
                    let start = days.partition_point(|d| *d < lo);
                    if start == days.len() {
                        assert_eq!(reads, 0, "{ctx}: {lo}..={hi}");
                        continue;
                    }
                    let stop = days.partition_point(|d| *d <= hi).min(days.len() - 1);
                    let spanned = (pages[start]..=pages[stop]).filter(|pg| *pg < p).count();
                    let bound = ceil_log2(p) + spanned as u64 + 1;
                    assert!(
                        reads <= bound,
                        "{ctx}: {lo}..={hi} read {reads} pages, bound {bound}"
                    );
                }
            }
        }
    }

    /// Flip one payload byte of the page at `addr`, its CRC left as it
    /// was written: the block is erased and every page programmed back.
    fn corrupt(f: &Flash, addr: PageAddr) {
        let geo = f.geometry();
        let block = geo.block_of(addr);
        let mut images = Vec::new();
        for off in 0..geo.pages_per_block {
            let mut img = vec![0; geo.page_size];
            f.read_page(geo.page_in_block(block, off), &mut img)
                .unwrap();
            images.push(img);
        }
        f.erase_block(block).unwrap();
        images[geo.offset_in_block(addr)][100] ^= 1;
        for (off, img) in images.iter().enumerate() {
            if img.iter().any(|&b| b != 0xFF) {
                f.program_page(geo.page_in_block(block, off), img).unwrap();
            }
        }
    }

    #[test]
    fn a_corrupt_page_the_search_probes_or_the_range_spans_is_named_by_its_address() {
        let f = Flash::small(128);
        let (mut t, days) = days_table(&f, 3000, 7);
        t.flush().unwrap();
        let (p, pages) = (t.num_pages(), pages_of_rows(&t));
        let day_at = |page: u32| days[pages.iter().position(|pg| *pg == page).unwrap()];
        let last = days[days.len() - 1];

        // The search's first read is the middle page.
        let probed = p / 2;
        let addr = t.log.page_addr(probed).unwrap();
        assert_ne!(addr.0, probed, "an address, not an ordinal");
        corrupt(&f, addr);
        let bad = Err(FlashError::CorruptPage(addr));
        assert_eq!(t.scan_range(0, day_at(3), last, |_, _| ()), bad);
        assert_eq!(t.scan_range(0, day_at(p - 3), last, |_, _| ()), bad);
        // A range from row 0 meets it inside, after every row before it.
        let mut seen = 0;
        assert_eq!(t.scan_range(0, 0, last, |_, _| seen += 1), bad);
        assert_eq!(seen, pages.iter().filter(|pg| **pg < probed).count());

        // A page the search does not probe, inside a range that needs
        // the search; a range wholly before it never reads it.
        let f = Flash::small(128);
        let (mut t, days) = days_table(&f, 3000, 7);
        t.flush().unwrap();
        let inside = 3 * p / 4 + 1;
        let addr = t.log.page_addr(inside).unwrap();
        corrupt(&f, addr);
        let day_at = |page: u32| days[pages.iter().position(|pg| *pg == page).unwrap()];
        let bad = Err(FlashError::CorruptPage(addr));
        assert_eq!(
            t.scan_range(0, day_at(inside - 2), day_at(inside + 2), |_, _| ()),
            bad
        );
        let (lo, hi) = (day_at(p / 8), day_at(p / 4));
        let (got, _) = range(&f, &t, lo, hi);
        let want = days.iter().filter(|d| (lo..=hi).contains(*d)).count();
        assert_eq!(got.len(), want);
    }

    #[test]
    fn a_failed_insert_leaves_the_order_as_it_was() {
        let f = Flash::small(2);
        let mut t = Table::new(&f, "T", day_schema());
        let mut day = 0;
        let err = loop {
            match t.insert(&day_row(day, 30)) {
                Ok(_) => day += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(err, FlashError::OutOfBlocks);
        let held = ColumnOrder::NonDecreasing {
            first: 0,
            last: day - 1,
        };
        assert_eq!(t.order(0), held);
        // A value that would break the order, refused: the order stands.
        assert!(t.insert(&day_row(0, 30)).is_err());
        assert_eq!((t.order(0), t.num_rows() as u64), (held, day));
        assert_eq!(t.order(1), ColumnOrder::Unordered, "not a U64 column");
    }

    #[test]
    fn the_order_survives_a_cut_tail_without_a_row_read() {
        use pds_flash::FaultPlan;
        for seed in 0..8u64 {
            let f = Flash::small(64);
            let mut t = Table::new(&f, "T", day_schema());
            for day in 0..200 {
                t.insert(&day_row(5 + day, day % 40)).unwrap();
            }
            t.flush().unwrap();
            f.inject_faults(FaultPlan::new(seed).power_loss_after(1 + seed));
            let mut day = 205;
            while t.insert(&day_row(day, day % 40)).is_ok() {
                day += 1;
            }
            let m = t.manifest();
            let held = ColumnOrder::NonDecreasing {
                first: 5,
                last: day - 1,
            };
            assert_eq!(m.order[0], held);

            let (logs, scanned) = (f.reboot(), f.reboot());
            let (rec, lost) = Table::recover(&logs, &m).unwrap();
            LogWriter::recover(&scanned, &m.blocks).unwrap();
            assert_eq!(logs.stats(), scanned.stats(), "the log's recovery, no more");
            assert!(lost > 0, "seed {seed}: the cut took rows");
            // The recorded pair still bounds what is left.
            assert_eq!(rec.order(0), held);
            let mut days = Vec::new();
            rec.scan(|_, row| days.push(row.get(0).and_then(ValueRef::as_u64).unwrap()))
                .unwrap();
            for (lo, hi) in [
                (0, 4),
                (5, 5),
                (7, 90),
                (150, 210),
                (200, day),
                (0, u64::MAX),
            ] {
                let (got, _) = range(&logs, &rec, lo, hi);
                let want = days.iter().filter(|d| (lo..=hi).contains(*d)).count();
                assert_eq!(got.len(), want, "seed {seed}: {lo}..={hi}");
            }
        }
    }

    #[test]
    fn recovery_forgets_an_order_it_cannot_vouch_for() {
        let nd = ColumnOrder::NonDecreasing { first: 3, last: 9 };
        assert_eq!(nd.recovered(4, 6), nd);
        assert_eq!(nd.recovered(6, 6), nd);
        assert_eq!(nd.recovered(0, 6), ColumnOrder::Empty);
        // Rows the manifest never saw.
        assert_eq!(nd.recovered(7, 6), ColumnOrder::Unordered);
        assert_eq!(ColumnOrder::Empty.recovered(1, 0), ColumnOrder::Unordered);
        assert_eq!(ColumnOrder::Empty.recovered(0, 0), ColumnOrder::Empty);
        assert_eq!(
            ColumnOrder::Unordered.recovered(0, 6),
            ColumnOrder::Unordered
        );
    }
}
