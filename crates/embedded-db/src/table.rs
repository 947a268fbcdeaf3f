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

use pds_flash::{BlockId, Flash, FlashError, LogWriter};

use crate::error::DbError;
use crate::value::{encode_row, Row, RowRef, Schema};

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
}

/// Dense row identifier within one table.
pub type RowId = u32;

/// One table: schema + row log.
pub struct Table {
    name: String,
    schema: Schema,
    log: LogWriter,
}

impl Table {
    /// Create an empty table on `flash`.
    pub fn new(flash: &Flash, name: &str, schema: Schema) -> Self {
        Table {
            name: name.to_string(),
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
        self.log.append(&encode_row(row))
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
        }
    }

    /// Rebuild a table after a power loss. The log's recovery scan
    /// re-derives every rowid, and whatever the crash destroyed is a
    /// *suffix* of them. Returns the table and the number of rows lost.
    pub fn recover(flash: &Flash, m: &TableManifest) -> Result<(Self, u32), FlashError> {
        let (log, _) = LogWriter::recover(flash, &m.blocks)?;
        let table = Table {
            name: m.name.clone(),
            schema: m.schema.clone(),
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
            Ok(())
        })
    }

    /// [`scan`](Self::scan) that stops at, and returns, `f`'s first error.
    pub(crate) fn try_scan(
        &self,
        mut f: impl FnMut(RowId, RowRef<'_>) -> Result<(), FlashError>,
    ) -> Result<(), FlashError> {
        let mut rowid: RowId = 0;
        self.log.for_each_record(|page, rec| {
            let row = RowRef::parse(rec).ok_or_else(|| self.corrupt(page))?;
            f(rowid, row)?;
            rowid += 1;
            Ok(())
        })
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
}
