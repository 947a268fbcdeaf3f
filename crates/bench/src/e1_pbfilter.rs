//! E1 — "Summary Scan (17 IOs) vs Table scan (640 IOs)".
//!
//! The slide's PBFilter example: looking up `CUSTOMER.CITY = 'Lyon'`
//! via the Bloom-filter summary log costs a small fraction of scanning
//! the table. We rebuild the exact scenario — a CUSTOMER table sized in
//! flash pages, a selective city predicate — and report full-scan vs
//! summary-scan page I/Os across table sizes and selectivities.

use pds_db::value::{ColumnType, Schema, ValueRef};
use pds_db::{PBFilter, Table as DbTable, Value};
use pds_flash::{Flash, FlashGeometry};

use crate::table::Table;

/// Build a CUSTOMER table of `rows` rows with `cities` distinct cities.
pub fn build_customer(flash: &Flash, rows: u32, cities: u32) -> (DbTable, PBFilter) {
    let schema = Schema::new(&[
        ("id", ColumnType::U64),
        ("name", ColumnType::Str),
        ("city", ColumnType::Str),
        ("segment", ColumnType::Str),
    ]);
    let mut table = DbTable::new(flash, "CUSTOMER", schema);
    let mut index = PBFilter::new(flash);
    for i in 0..rows {
        let city = format!("city-{:04}", i % cities);
        table
            .insert(&vec![
                Value::U64(i as u64),
                Value::Str(format!("Customer-{i}")),
                Value::Str(city.clone()),
                Value::str(if i % 2 == 0 { "HOUSEHOLD" } else { "AUTO" }),
            ])
            .unwrap();
        index.insert(city.as_bytes(), i).unwrap();
    }
    table.flush().unwrap();
    index.flush().unwrap();
    (table, index)
}

/// Measured costs of one configuration.
pub struct E1Point {
    /// Rows in the table.
    pub rows: u32,
    /// Table data pages.
    pub table_pages: u32,
    /// Page reads of the full scan.
    pub scan_ios: u64,
    /// Page reads of the PBFilter lookup (summary + probes).
    pub pbfilter_ios: u64,
    /// Matching rows.
    pub matches: usize,
}

/// Measure one configuration.
pub fn measure(rows: u32, cities: u32) -> E1Point {
    let flash = Flash::new(FlashGeometry::new(2048, 64, 4096));
    let (table, index) = build_customer(&flash, rows, cities);
    let probe = format!("city-{:04}", cities / 2);

    flash.reset_stats();
    let mut scan_matches = 0usize;
    table
        .scan(|_, row| {
            if row.get(2) == Some(ValueRef::Str(&probe)) {
                scan_matches += 1;
            }
        })
        .unwrap();
    let scan_ios = flash.stats().page_reads;

    flash.reset_stats();
    let hits = index.lookup(probe.as_bytes()).unwrap();
    let pbfilter_ios = flash.stats().page_reads;
    assert_eq!(hits.len(), scan_matches, "index must equal the scan");

    E1Point {
        rows,
        table_pages: table.num_pages(),
        scan_ios,
        pbfilter_ios,
        matches: scan_matches,
    }
}

/// Regenerate the E1 table.
pub fn run() -> Table {
    let mut t = Table::new(
        "E1 — PBFilter summary scan vs table scan (slide: 17 vs 640 IOs)",
        &[
            "rows",
            "table pages",
            "full-scan IOs",
            "PBFilter IOs",
            "speedup",
            "matches",
        ],
    );
    for (rows, cities) in [(10_000u32, 500u32), (38_000, 1000), (80_000, 2000)] {
        let p = measure(rows, cities);
        t.row(vec![
            p.rows.to_string(),
            p.table_pages.to_string(),
            p.scan_ios.to_string(),
            p.pbfilter_ios.to_string(),
            format!("{:.1}x", p.scan_ios as f64 / p.pbfilter_ios as f64),
            p.matches.to_string(),
        ]);
    }
    t.note("paper shape: summary scan beats the table scan by >10x and grows with table size");
    t.note("the 38k-row point reproduces the slide's 640-page table");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_at_small_scale() {
        let p = measure(5_000, 250);
        assert!(
            p.pbfilter_ios * 3 < p.scan_ios,
            "{} vs {}",
            p.pbfilter_ios,
            p.scan_ios
        );
        assert!(p.matches > 0);
    }
}
