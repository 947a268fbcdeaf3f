//! Ablations A1–A4: the design choices DESIGN.md calls out, each varied
//! in isolation.
//!
//! * **A1** — the PBFilter Bloom budget (the tutorial fixes ~2 B/key;
//!   what do 4/8/16/32 bits buy?).
//! * **A2** — the secure-aggregation partition size (token capacity per
//!   connection): rounds vs per-token load.
//! * **A3** — the co-design calibration of the device ladder (the
//!   tutorial's open question made concrete).
//! * **A4** — the "other data models" extensions: the log+summary recipe
//!   applied to time series and key-value data, measured the same way as
//!   E1.

use pds_db::{KvStore, PBFilter, TimeSeries};
use pds_flash::{Flash, FlashGeometry};
use pds_global::secure_agg::{secure_aggregation, OnTamper};
use pds_global::{GroupByQuery, Population, Ssi};
use pds_mcu::codesign::calibrate_ladder;
use pds_obs::rng::SeedableRng;
use pds_obs::rng::StdRng;
use pds_search::SearchEngine;

use crate::table::Table;

/// A1 — Bloom bits/key vs lookup cost and summary size.
pub fn a1_bloom_budget() -> Table {
    let mut t = Table::new(
        "A1 — PBFilter Bloom budget: bits/key vs lookup I/O and summary size",
        &[
            "bits/key",
            "summary pages",
            "lookup IOs",
            "false-positive probes",
        ],
    );
    let rows = 30_000u32;
    let domain = 1500u32;
    for bits in [4usize, 8, 16, 32] {
        let flash = Flash::new(FlashGeometry::new(2048, 64, 4096));
        let mut idx = PBFilter::with_bits_per_key(&flash, bits);
        for i in 0..rows {
            idx.insert(format!("city-{:05}", i % domain).as_bytes(), i)
                .unwrap();
        }
        idx.flush().unwrap();
        let probe = format!("city-{:05}", domain / 2);
        flash.reset_stats();
        let hits = idx.lookup(probe.as_bytes()).unwrap();
        let ios = flash.stats().page_reads;
        // True pages holding the key: hits are spread over the keys log.
        let keys_per_page = 2046 / (2 + probe.len() + 4);
        let true_pages = hits
            .iter()
            .map(|r| *r as usize / keys_per_page)
            .collect::<std::collections::BTreeSet<_>>()
            .len() as u64;
        let summary_ios = idx.num_summary_pages() as u64;
        let fp_probes = ios.saturating_sub(summary_ios + true_pages);
        t.row(vec![
            bits.to_string(),
            idx.num_summary_pages().to_string(),
            ios.to_string(),
            fp_probes.to_string(),
        ]);
    }
    t.note("the tutorial's 16 bits/key sits at the knee: 8 bits admits false-positive");
    t.note("probes, 32 bits doubles the summary log for little probe reduction");
    t
}

/// A2 — secure-aggregation partition size.
pub fn a2_partition_size() -> Table {
    let mut t = Table::new(
        "A2 — secure aggregation: partition size (token capacity) vs rounds and load",
        &["partition", "rounds", "token tuples", "SSI bytes", "exact"],
    );
    let mut rng = StdRng::seed_from_u64(41);
    let q = GroupByQuery::bank_by_category();
    let mut pop = Population::synthetic(300, &q.domain, &mut rng).unwrap();
    let truth = pds_global::plaintext_groupby(&mut pop, &q).unwrap();
    for partition in [4usize, 16, 64, 256] {
        let ssi = Ssi::honest(partition as u64);
        let (r, stats) =
            secure_aggregation(&mut pop, &q, &ssi, partition, OnTamper::Abort, &mut rng).unwrap();
        t.row(vec![
            partition.to_string(),
            stats.rounds.to_string(),
            stats.token_tuples.to_string(),
            stats.ssi_bytes.to_string(),
            if r == truth { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.note("small partitions mean many cheap token connections (deep tree);");
    t.note("large partitions mean few heavy ones — the dial is the token's capacity");
    t
}

/// A3 — the co-design device ladder.
pub fn a3_codesign() -> Table {
    let mut t = Table::new(
        "A3 — co-design calibration: what each device class can execute",
        &[
            "device",
            "RAM (KB)",
            "max search keywords (top-10)",
            "max sort fan-in",
        ],
    );
    for c in calibrate_ladder(|page| SearchEngine::resident_bytes(64, 256, page)) {
        t.row(vec![
            c.device.to_string(),
            (c.ram / 1024).to_string(),
            c.max_keywords
                .map_or_else(|| "0".to_string(), |k| k.to_string()),
            c.max_fan_in.to_string(),
        ]);
    }
    t.note("answers the tutorial's open question 'how to calibrate the HW (RAM) to");
    t.note("data-oriented treatments?' — in closed form, pinned by tests to the operators");
    t
}

/// A4 — the framework extended to time series and key-value data.
pub fn a4_extensions() -> Table {
    let mut t = Table::new(
        "A4 — log+summary recipe on other data models (tutorial's extension challenge)",
        &[
            "model",
            "records",
            "data pages",
            "query",
            "query IOs",
            "full-scan IOs",
        ],
    );
    // Time series: month aggregate over a year of minutely samples.
    let flash = Flash::new(FlashGeometry::new(2048, 64, 8192));
    let mut ts = TimeSeries::new(&flash);
    let n = 200_000u64;
    for i in 0..n {
        ts.append(i * 60, (i % 500) as i64).unwrap();
    }
    ts.flush().unwrap();
    flash.reset_stats();
    ts.range_aggregate(n * 60 / 3, n * 60 / 3 + 2_592_000)
        .unwrap();
    let ios = flash.stats().page_reads;
    t.row(vec![
        "time series".into(),
        n.to_string(),
        ts.num_data_pages().to_string(),
        "30-day SUM/AVG".into(),
        ios.to_string(),
        ts.num_data_pages().to_string(),
    ]);
    // Key-value: point get among many shadowed versions.
    let flash = Flash::new(FlashGeometry::new(2048, 64, 8192));
    let mut kv = KvStore::new(&flash);
    for i in 0..60_000u32 {
        kv.put(format!("user-{}", i % 2000).as_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    kv.flush().unwrap();
    flash.reset_stats();
    kv.get(b"user-1000").unwrap().unwrap();
    let ios = flash.stats().page_reads;
    t.row(vec![
        "key-value".into(),
        "60000".into(),
        kv.num_data_pages().to_string(),
        "point get".into(),
        ios.to_string(),
        kv.num_data_pages().to_string(),
    ]);
    t.note("both stores answer at summary-scan cost, never scanning the data log —");
    t.note("the Part II framework carries over unchanged");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_more_bits_fewer_false_probes() {
        let t = a1_bloom_budget();
        let fp: Vec<u64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(fp[0] >= fp[2], "4 bits must not beat 16 bits: {fp:?}");
        let pages: Vec<u64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(pages[3] > pages[1], "32-bit summaries are larger");
    }

    #[test]
    fn a2_rounds_shrink_with_partition_size() {
        let t = a2_partition_size();
        let rounds: Vec<u32> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(rounds[0] > rounds[3]);
        assert!(t.rows.iter().all(|r| r[4] == "yes"));
    }

    #[test]
    fn a3_ladder_has_every_device() {
        let t = a3_codesign();
        assert_eq!(t.rows.len(), 5);
    }

    #[test]
    fn a4_queries_beat_full_scans_by_a_lot() {
        let t = a4_extensions();
        for row in &t.rows {
            let q: u64 = row[4].parse().unwrap();
            let scan: u64 = row[5].parse().unwrap();
            assert!(q * 3 < scan, "{row:?}");
        }
    }
}
