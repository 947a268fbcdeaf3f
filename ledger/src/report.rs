//! What the ledger prints and writes: the driver's one-line JSON
//! result, the human tables of `run` and `trace`, and the trace file.

use pds_obs::json::ObjWriter;

use crate::harness::{Counts, Metrics};
use crate::span::{LayerRow, Span};
use crate::spec::MetricSpec;
use crate::stats::median_u64;

/// The driver's result: one JSON object on one line, carrying exactly
/// the metrics of `specs`, each with all its digits.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[MetricSpec],
    values: &Metrics,
) -> String {
    let mut metrics = ObjWriter::new();
    for spec in specs {
        let value = values.get(spec.name).copied().unwrap_or(0.0);
        let cell = ObjWriter::new()
            .f64("value", value)
            .str("unit", spec.unit)
            .finish();
        metrics = metrics.raw(spec.name, &cell);
    }
    ObjWriter::new()
        .bool("correct", correct)
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw("metrics", &metrics.finish())
        .finish()
}

fn span_json(s: &Span) -> String {
    let w = ObjWriter::new().u64("id", u64::from(s.id));
    let w = match s.parent {
        Some(p) => w.u64("parent", u64::from(p)),
        None => w.raw("parent", "null"),
    };
    w.u64("op", u64::from(s.op))
        .str("layer", s.layer)
        .str("name", s.name)
        .u64("start_ns", s.start_ns)
        .u64("end_ns", s.end_ns)
        .bool("ok", s.ok)
        .finish()
}

/// The trace file: every span of the traced blocks and the probes, the
/// exact counts of a block, and the per-layer metrics derived from them.
pub fn trace_json(
    workload: &str,
    seed: u64,
    spans: &[Span],
    counts: &Counts,
    metrics: &Metrics,
) -> String {
    let spans: Vec<String> = spans.iter().map(span_json).collect();
    let counts = counts
        .iter()
        .fold(ObjWriter::new(), |w, (name, v)| w.u64(name, *v))
        .finish();
    let metrics = metrics
        .iter()
        .fold(ObjWriter::new(), |w, (name, v)| w.f64(name, *v))
        .finish();
    let mut out = ObjWriter::new()
        .str("workload", workload)
        .u64("seed", seed)
        .raw("counts", &counts)
        .raw("metrics", &metrics)
        .raw("spans", &format!("[\n{}\n]", spans.join(",\n")))
        .finish();
    out.push('\n');
    out
}

/// `name value unit` lines for the metrics of `specs` that are not zero.
pub fn print_metrics(specs: &[MetricSpec], values: &Metrics) {
    for spec in specs {
        let value = values.get(spec.name).copied().unwrap_or(0.0);
        if value != 0.0 {
            println!("  {:<34} {:>16.4} {}", spec.name, value, spec.unit);
        }
    }
}

/// The layer table of a traced run: per `(layer, function)`, calls,
/// failures, busy (self) time, its share of the traced blocks' wall
/// time, and the median call.
pub fn print_layer_table(rows: &[LayerRow], block_wall_ns: u64) {
    println!(
        "  {:<8} {:<20} {:>8} {:>6} {:>12} {:>8} {:>12}",
        "layer", "function", "calls", "fail", "busy_ms", "share%", "median_us"
    );
    for r in rows {
        println!(
            "  {:<8} {:<20} {:>8} {:>6} {:>12.3} {:>8.2} {:>12.2}",
            r.layer,
            r.name,
            r.count,
            r.failures,
            r.busy_ns as f64 / 1e6,
            100.0 * r.busy_ns as f64 / block_wall_ns.max(1) as f64,
            median_u64(&r.durations_ns) / 1e3,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;
    use pds_obs::json::parse;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Metrics::new();
        values.insert("ops_per_s", 1_234.567_890_123);
        values.insert("setup_s", 0.812_7);
        let line = result_line(true, 1000, 0, END_TO_END, &values);
        assert!(!line.contains('\n'));
        let json = parse(&line).expect("one valid JSON object");
        assert_eq!(json.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(json.get("attempted").and_then(|v| v.as_u64()), Some(1000));
        assert_eq!(json.get("failed").and_then(|v| v.as_u64()), Some(0));
        let metrics = json.get("metrics").expect("metrics");
        for spec in END_TO_END {
            let m = metrics.get(spec.name).expect(spec.name);
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(spec.unit));
            assert!(m.get("value").and_then(|v| v.as_f64()).is_some());
        }
        // All digits survive.
        let ops = metrics.get("ops_per_s").and_then(|m| m.get("value"));
        assert_eq!(ops.and_then(|v| v.as_f64()), Some(1_234.567_890_123));
        // A metric nobody measured is reported as 0, not dropped.
        let rss = metrics.get("peak_rss_mb").and_then(|m| m.get("value"));
        assert_eq!(rss.and_then(|v| v.as_f64()), Some(0.0));
    }

    #[test]
    fn trace_file_round_trips_spans_counts_and_metrics() {
        let spans = vec![
            Span {
                id: 0,
                parent: None,
                op: 1,
                layer: "ledger",
                name: "op",
                start_ns: 5,
                end_ns: 90,
                ok: true,
            },
            Span {
                id: 1,
                parent: Some(0),
                op: 1,
                layer: "core",
                name: "select \"quoted\"",
                start_ns: 10,
                end_ns: 40,
                ok: false,
            },
        ];
        let mut counts = Counts::new();
        counts.insert("flash.page_reads", 17);
        let mut metrics = Metrics::new();
        metrics.insert("db.select_index_us", 28.5);
        let text = trace_json("token_query", 7, &spans, &counts, &metrics);
        let json = parse(&text).expect("valid JSON");
        assert_eq!(
            json.get("workload").and_then(|v| v.as_str()),
            Some("token_query")
        );
        assert_eq!(json.get("seed").and_then(|v| v.as_u64()), Some(7));
        let reads = json.get("counts").and_then(|c| c.get("flash.page_reads"));
        assert_eq!(reads.and_then(|v| v.as_u64()), Some(17));
        let us = json
            .get("metrics")
            .and_then(|m| m.get("db.select_index_us"));
        assert_eq!(us.and_then(|v| v.as_f64()), Some(28.5));
        let arr = json.get("spans").and_then(|s| s.as_arr()).expect("spans");
        assert_eq!(arr.len(), 2);
        assert!(arr[0].get("parent").is_some_and(|p| p.as_u64().is_none()));
        assert_eq!(arr[1].get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(
            arr[1].get("name").and_then(|n| n.as_str()),
            Some("select \"quoted\"")
        );
        assert_eq!(arr[1].get("ok").and_then(|o| o.as_bool()), Some(false));
        assert_eq!(arr[1].get("end_ns").and_then(|e| e.as_u64()), Some(40));
    }
}
