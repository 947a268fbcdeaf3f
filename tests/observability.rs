//! Integration tests for the `pds-obs` instrumentation threaded through
//! the stack: a traced gateway request must yield a `QueryTrace` whose
//! flash/RAM/policy numbers reflect what actually happened, a summary
//! scan must cost measurably fewer page reads than the full table scan
//! it replaces (the paper's 17-vs-640 ordering), and the registry's
//! JSONL export must round-trip through the in-tree JSON parser.

use pds::core::{AccessContext, Pds, Purpose};
use pds::db::{Predicate, Value};
use pds_obs::{budgets, trace, QueryTrace};

/// A gateway request inside the scope its caller opens for the explain
/// report.
fn explain<T>(request: impl FnOnce() -> T) -> (T, QueryTrace) {
    let (out, root) = trace::trace("pds.traced", request);
    (out, QueryTrace::new(root))
}

fn populated(id: u64, rows: u64) -> Pds {
    let mut pds = Pds::for_tests(id, "alice").unwrap();
    for day in 0..rows {
        pds.ingest_bank(
            day,
            if day % 7 == 0 { "salary" } else { "groceries" },
            1000 + day,
            "cp",
        )
        .unwrap();
    }
    pds.set_clock(rows);
    pds
}

#[test]
fn traced_select_reports_io_ram_and_policy() {
    let mut pds = populated(1, 400);
    let me = AccessContext::new("alice", Purpose::PersonalUse);
    let pred = Predicate::eq("category", Value::str("salary"));
    let (res, trace) = explain(|| pds.select(&me, "BANK", &pred));
    let rows = res.unwrap();
    assert!(!rows.is_empty());

    // The explain report carries the costs the tutorial argues about.
    assert_eq!(trace.policy_decision(), Some("granted"));
    assert!(trace.page_reads() > 0, "a scan must read pages");
    assert_eq!(trace.block_erases(), 0, "a select never erases");
    assert!(trace.peak_ram_bytes() > 0, "scan buffers live in MCU RAM");
    let page_size = pds.token().flash().geometry().page_size as u64;
    assert!(trace.peak_ram_pages(page_size) >= 1);

    // RAM stays inside the paper's 128 KB secure-MCU envelope.
    let checks = trace.check_budgets(&[("mcu.ram.peak_bytes", budgets::RAM_BYTES)]);
    assert!(checks.iter().all(|c| c.within), "{checks:?}");

    // The rendered report names the layers it traversed.
    let report = trace.render();
    assert!(report.contains("pds.request"), "{report}");
    assert!(report.contains("db.select"), "{report}");
    assert!(report.contains("page_reads"), "{report}");
}

#[test]
fn summary_scan_reads_fewer_pages_than_full_scan() {
    // Large enough that the PBFilter's own pages are cheap next to the
    // table: ~230 data pages, ~31 of them holding a "salary" row. The
    // same rows on two tokens: one never indexed, one indexed before the
    // rows arrive, so that they fill its PBFilter (indexed after them,
    // the column would get a tree at once).
    let me = AccessContext::new("alice", Purpose::PersonalUse);
    let token = |indexed: bool| {
        let mut pds = Pds::for_tests(2, "alice").unwrap();
        if indexed {
            pds.create_index(&me, "BANK", "category").unwrap();
        }
        for day in 0..3000u64 {
            pds.ingest_bank(
                day,
                if day % 97 == 0 { "salary" } else { "groceries" },
                1000 + day,
                "cp",
            )
            .unwrap();
        }
        pds.set_clock(3000);
        pds
    };
    let pred = Predicate::eq("category", Value::str("salary"));

    let mut unindexed = token(false);
    let (res, full) = explain(|| unindexed.select(&me, "BANK", &pred));
    let rows_full = res.unwrap();
    assert_eq!(
        full.root
            .find("db.select")
            .and_then(|s| s.attr("db.plan"))
            .and_then(|a| a.as_str()),
        Some("full_scan")
    );

    let mut indexed = token(true);
    let (res, summary) = explain(|| indexed.select(&me, "BANK", &pred));
    let rows_summary = res.unwrap();
    assert_eq!(
        summary
            .root
            .find("db.select")
            .and_then(|s| s.attr("db.plan"))
            .and_then(|a| a.as_str()),
        Some("summary_scan")
    );

    assert_eq!(rows_full, rows_summary, "plans must agree on the answer");
    assert!(
        summary.page_reads() < full.page_reads(),
        "summary scan ({}) must beat the full scan ({}) — the slide's 17 vs 640",
        summary.page_reads(),
        full.page_reads()
    );
}

#[test]
fn denied_request_is_traced_without_touching_data() {
    let mut pds = populated(3, 50);
    let stranger = AccessContext::new("mallory", Purpose::PersonalUse);
    let pred = Predicate::eq("category", Value::str("salary"));
    let (res, trace) = explain(|| pds.select(&stranger, "BANK", &pred));
    assert!(res.is_err());
    assert_eq!(trace.policy_decision(), Some("denied"));
    assert_eq!(trace.page_reads(), 0, "denial happens before any flash IO");
}

#[test]
fn non_owner_cannot_create_indexes() {
    let mut pds = populated(4, 50);
    let stranger = AccessContext::new("mallory", Purpose::PersonalUse);
    assert!(pds.create_index(&stranger, "BANK", "category").is_err());
}

#[test]
fn registry_export_round_trips_through_the_json_parser() {
    let mut pds = populated(5, 100);
    let me = AccessContext::new("alice", Purpose::PersonalUse);
    pds.search(&me, &["salary"], 5).ok();
    pds.select(
        &me,
        "BANK",
        &Predicate::eq("category", Value::str("salary")),
    )
    .unwrap();

    let jsonl = pds_obs::metrics::global().export_jsonl();
    assert!(!jsonl.is_empty());
    let mut saw_counter = false;
    for line in jsonl.lines() {
        let doc =
            pds_obs::json::parse(line).unwrap_or_else(|| panic!("unparseable export line: {line}"));
        let ty = doc
            .get("type")
            .and_then(|v| v.as_str())
            .expect("typed line");
        assert!(doc.get("name").is_some(), "every line is named: {line}");
        match ty {
            "counter" | "gauge" => {
                saw_counter |= ty == "counter";
                assert!(doc.get("value").and_then(|v| v.as_u64()).is_some());
            }
            "histogram" => {
                assert!(doc.get("count").and_then(|v| v.as_u64()).is_some());
                assert!(doc.get("buckets").and_then(|v| v.as_arr()).is_some());
            }
            other => panic!("unknown line type {other}: {line}"),
        }
    }
    assert!(saw_counter, "flash counters must appear in the export");
}

#[test]
fn a_full_flight_stage_counts_drops_instead_of_silently_truncating() {
    use pds_obs::flight::{self, code, subsystem, Severity};
    // Regression: when a thread's bounded staging buffer overflows — an
    // owner that never drains — the registry must say so:
    // `obs.events_dropped` climbs and the export carries the counter,
    // rather than a durable ring quietly absorbing a truncated stream.
    const STAGE_CAP: u64 = flight::STAGE_CAP as u64;
    let reg = pds_obs::metrics::global();
    flight::drain();
    let before = reg.events_dropped();
    for i in 0..STAGE_CAP + 12 {
        flight::record(Severity::Info, subsystem::CORE, code::CORE_INGEST, [i, 0]);
    }
    assert_eq!(reg.events_dropped() - before, 12, "12 frames past the cap");

    let dropped_line = reg
        .export_jsonl()
        .lines()
        .find(|l| l.contains("obs.events_dropped"))
        .map(str::to_string)
        .expect("the drop counter must appear in the export");
    let doc = pds_obs::json::parse(&dropped_line).unwrap();
    assert!(doc.get("value").and_then(|v| v.as_u64()) >= Some(12));

    // The surviving window is the *tail* of the stream, in order.
    let newest: Vec<u64> = flight::drain().iter().map(|f| f.args[0]).collect();
    assert_eq!(newest, (12..STAGE_CAP + 12).collect::<Vec<_>>());
}

#[test]
fn query_trace_serializes_as_json() {
    let mut pds = populated(6, 50);
    let me = AccessContext::new("alice", Purpose::PersonalUse);
    let (res, trace) = explain(|| pds.search(&me, &["salary"], 5));
    res.unwrap();
    let doc = pds_obs::json::parse(&trace.to_json()).expect("trace JSON parses");
    assert_eq!(doc.get("span").and_then(|v| v.as_str()), Some("pds.traced"));
    assert!(doc.get("children").and_then(|v| v.as_arr()).is_some());
}
