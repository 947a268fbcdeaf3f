//! The benchmark's fixed vocabulary: workload names and the reason for
//! each, end-to-end metrics with their bounds, per-layer metrics, and
//! the `BENCHMARK.json` rendered from them (`ledger manifest`), so the
//! manifest and the program cannot drift apart.

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u64 = 15;

/// The command the driver runs from the root of a checkout; it appends
/// `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "ledger/Cargo.toml",
    "--",
    "bench",
];

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "token_query",
        "gateway select/search/get on one token holding MBs of flash against 64 KB of RAM: db, search and flash reads do the work, crypto, bus and scheduler none",
    ),
    (
        "token_ingest_reopen",
        "a token's life of ingest, commit, sync, reopen and a power cut: the same flash/db/search/core layers used for writes and recovery, so a read gain bought with write cost shows",
    ),
    (
        "fleet_agg",
        "[TNP14] aggregation rounds on a fresh Hibernate fleet over the lossy bus: scheduler residency churn, flash snapshot/revive, bus and symmetric crypto dominate",
    ),
    (
        "cell_sync",
        "trusted-cell reconciles on TokenPool + bus + pds-sync with no flash and no scheduler: the bypass for hibernation and flash work",
    ),
    (
        "global_toolkit",
        "[CKV+02] toolkit bundles at 8 parties: pds-crypto bignum does the work while flash, bus and scheduler idle, so a crypto change shows here and nowhere else",
    ),
];

/// One metric of the manifest.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; unused for per-layer metrics.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: "lower",
        bound: 0.0,
    }
}

const fn layer_higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: "higher",
        bound: 0.0,
    }
}

/// End-to-end metrics: every workload reports every one, none is ever
/// zero. Bounds come from the calibration recorded in the README.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("op_p50_us", "us", "lower", 0.25),
    e2e("sim_cost_per_op", "cost", "lower", 0.05),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Per-layer metrics, printed by the traced run. A workload reports 0
/// for a layer it does not exercise — which is also how the bypass
/// predictions (no flash on `global_toolkit`, no scheduler on
/// `cell_sync`) are checked rather than assumed.
pub const PER_LAYER: &[MetricSpec] = &[
    // flash
    layer("flash.device_us_per_op", "sim_us"),
    layer("flash.page_reads_per_op", "count"),
    layer("flash.page_programs_per_op", "count"),
    layer("flash.block_erases_per_op", "count"),
    layer("flash.non_seq_programs_per_op", "count"),
    layer("flash.write_amp", "B/B"),
    layer("flash.log_append_us", "us"),
    layer("flash.log_scan_us", "us"),
    layer("flash.log_recover_us", "us"),
    layer("flash.snapshot_us", "us"),
    layer("flash.chip_reopen_us", "us"),
    // mcu
    layer("mcu.ram_peak_kb", "KB"),
    layer("mcu.reserve_ns", "ns"),
    layer("mcu.ram_denials", "count"),
    layer("mcu.token_hibernate_us", "us"),
    layer("mcu.token_wake_us", "us"),
    // embedded db
    layer("db.insert_us", "us"),
    layer("db.commit_us", "us"),
    layer("db.select_index_us", "us"),
    layer("db.select_scan_us", "us"),
    layer("db.pages_per_result", "count"),
    layer("db.recover_us", "us"),
    layer("db.changes_since_us", "us"),
    // search
    layer("search.index_doc_us", "us"),
    layer("search.query_us", "us"),
    layer("search.pages_per_keyword", "count"),
    layer("search.get_document_us", "us"),
    layer("search.recover_us", "us"),
    // crypto
    layer("crypto.sym_encrypt_us", "us"),
    layer("crypto.sym_decrypt_us", "us"),
    layer("crypto.sha256_us_per_kb", "us/KB"),
    layer("crypto.hmac_us", "us"),
    layer("crypto.modexp_1024_us", "us"),
    layer("crypto.paillier_keygen_ms", "ms"),
    layer("crypto.paillier_encrypt_us", "us"),
    layer("crypto.paillier_decrypt_us", "us"),
    layer("crypto.paillier_add_us", "us"),
    layer("crypto.commutative_encrypt_us", "us"),
    // core (the gateway)
    layer("core.select_index_us", "us"),
    layer("core.select_scan_us", "us"),
    layer("core.search_us", "us"),
    layer("core.get_document_us", "us"),
    layer("core.gateway_self_us", "us"),
    layer("core.ingest_us", "us"),
    layer("core.commit_us", "us"),
    layer("core.sync_us", "us"),
    layer("core.reopen_us", "us"),
    layer("core.reopen_powerloss_us", "us"),
    layer("core.hibernate_us", "us"),
    layer("core.wake_us", "us"),
    layer("core.blackbox_pages_per_op", "count"),
    // global protocols
    layer("global.secure_sum_us", "us"),
    layer("global.set_union_us", "us"),
    layer("global.intersection_us", "us"),
    layer("global.scalar_product_us", "us"),
    layer("global.token_crypto_ops_per_op", "count"),
    layer("global.reference_agg_ms", "ms"),
    // sync
    layer("sync.serve_cloud_us", "us"),
    layer("sync.bytes_sent_per_op", "B"),
    layer("sync.conflicts", "count"),
    // fleet: driver, bus, scheduler, pool, cell network
    layer("fleet.build_ms", "ms"),
    layer("fleet.round1_ms", "ms"),
    layer("fleet.round3_ms", "ms"),
    layer("fleet.collect_ticks", "count"),
    layer("fleet.reduce_ticks", "count"),
    layer("fleet.distribute_ticks", "count"),
    layer("bus.ticks_per_op", "count"),
    layer("bus.bytes_per_op", "B"),
    layer("bus.deliveries_per_op", "count"),
    layer("bus.redeliveries_per_op", "count"),
    layer("bus.dedup_hits_per_op", "count"),
    layer("bus.send_tick_us", "us"),
    layer("sched.wakes_per_op", "count"),
    layer("sched.evictions_per_op", "count"),
    layer("sched.sleep_wakes_per_op", "count"),
    layer("sched.peak_resident", "count"),
    layer("sched.noop_dispatch_ms", "ms"),
    layer("pool.noop_map_us", "us"),
    layer("cellnet.rounds_per_reconcile", "count"),
    // observability and the host
    layer("obs.snapshot_delta_us", "us"),
    layer("obs.span_ns", "ns"),
    layer("obs.events_dropped", "count"),
    layer_higher("host.raw_ops_per_s", "1/s"),
    layer("host.raw_op_p50_us", "us"),
    layer("host.raw_setup_s", "s"),
    layer_higher("host.ref_speed", "ratio"),
    layer("host.cpu_us_per_op", "us"),
    layer("host.op_hi_us", "us"),
    layer("host.block_spread_pct", "%"),
    layer("host.loadavg_start", "count"),
    layer("host.steal_pct", "%"),
    layer("trace.overhead_pct", "%"),
    layer("trace.unattributed_pct", "%"),
];

fn json_str(s: &str) -> String {
    let mut out = String::new();
    pds_obs::json::write_str(&mut out, s);
    out
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let list = |items: Vec<String>, indent: &str| {
        let sep = format!(",\n{indent}");
        format!("[\n{indent}{}\n  ]", items.join(&sep))
    };
    let command: Vec<String> = COMMAND.iter().map(|c| json_str(c)).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(name),
                json_str(why)
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"ledger\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        RUN_SECONDS,
        list(workloads, "    "),
        list(end_to_end, "    "),
        list(per_layer, "    "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::json::parse;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn manifest_meets_the_contract_limits() {
        let text = manifest();
        assert!(text.len() <= 64 * 1024);
        let json = parse(&text).expect("manifest is valid JSON");
        let command = json.get("command").and_then(|c| c.as_arr()).unwrap();
        assert!(command.len() <= 32);
        assert_eq!(
            json.get("run_seconds").and_then(|r| r.as_u64()),
            Some(RUN_SECONDS)
        );
        assert!((1..=60).contains(&RUN_SECONDS));

        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for (name, why) in WORKLOADS {
            assert!(name_ok(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: unit {}", m.name, m.unit);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for (name, _) in WORKLOADS {
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_manifest_is_the_rendered_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, manifest(), "regenerate with `ledger manifest`");
    }
}
