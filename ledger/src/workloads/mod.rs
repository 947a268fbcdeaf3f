//! The five workloads, and the counter arithmetic they share.

pub mod cell_sync;
pub mod fleet_agg;
pub mod global_toolkit;
pub mod token_ingest_reopen;
pub mod token_query;

use pds_flash::CostModel;

use crate::harness::{Counts, Metrics, Run};

fn count(counts: &Counts, name: &str) -> u64 {
    counts.get(name).copied().unwrap_or(0)
}

/// Simulated device time of a block's flash traffic, in µs.
pub fn flash_device_us(counts: &Counts, cost: &CostModel) -> f64 {
    cost.time_ns(
        count(counts, "flash.page_reads"),
        count(counts, "flash.page_programs"),
        count(counts, "flash.block_erases"),
    ) as f64
        / 1e3
}

/// Add a bus's counters to a block's counts.
pub fn add_bus(counts: &mut Counts, bus: &pds_fleet::BusStats) {
    for (name, v) in [
        ("bus.ticks", bus.ticks),
        ("bus.payload_bytes", bus.payload_bytes),
        ("bus.delivered", bus.delivered),
        ("bus.redeliveries", bus.redeliveries),
        ("bus.duplicates", bus.duplicates),
    ] {
        *counts.entry(name).or_insert(0) += v;
    }
}

/// Per-layer metrics that are an exact count of a block divided by its
/// ops.
const PER_OP: &[(&str, &str)] = &[
    ("flash.page_reads_per_op", "flash.page_reads"),
    ("flash.page_programs_per_op", "flash.page_programs"),
    ("flash.block_erases_per_op", "flash.block_erases"),
    ("flash.non_seq_programs_per_op", "flash.non_seq_programs"),
    ("core.blackbox_pages_per_op", "blackbox.pages_flushed"),
    ("global.token_crypto_ops_per_op", "crypto_ops"),
    ("sync.bytes_sent_per_op", "sync.bytes_sent"),
    ("fleet.collect_ticks", "ticks.collect"),
    ("fleet.reduce_ticks", "ticks.reduce"),
    ("fleet.distribute_ticks", "ticks.distribute"),
    ("bus.ticks_per_op", "bus.ticks"),
    ("bus.bytes_per_op", "bus.payload_bytes"),
    ("bus.deliveries_per_op", "bus.delivered"),
    ("bus.redeliveries_per_op", "bus.redeliveries"),
    ("bus.dedup_hits_per_op", "bus.duplicates"),
    ("sched.wakes_per_op", "sched.wakes"),
    ("sched.evictions_per_op", "sched.evictions"),
    ("sched.sleep_wakes_per_op", "sched.sleep_wakes"),
    ("cellnet.rounds_per_reconcile", "cellnet.rounds"),
];

/// Per-layer metrics that are an exact count of a block as it stands.
const PER_BLOCK: &[(&str, &str)] = &[
    ("mcu.ram_denials", "mcu.ram.budget_aborts"),
    ("sync.conflicts", "sync.conflicts"),
    ("sched.peak_resident", "sched.peak_resident"),
];

/// Every per-layer metric that follows from a run's exact counts alone.
/// The same table serves all workloads: a layer a workload bypasses
/// reads zero here because its counters did not move, not because the
/// workload left it out.
pub fn exact_metrics(run: &Run, out: &mut Metrics) {
    for (metric, name) in PER_OP {
        out.insert(metric, run.per_op(name));
    }
    for (metric, name) in PER_BLOCK {
        out.insert(metric, run.count(name) as f64);
    }
    let ops = run.ops_per_block().max(1) as f64;
    let device_us = run
        .blocks
        .first()
        .map_or(0.0, |b| flash_device_us(&b.counts, &CostModel::default()));
    out.insert("flash.device_us_per_op", device_us / ops);
    out.insert(
        "mcu.ram_peak_kb",
        run.count("mcu.ram.high_water_bytes") as f64 / 1024.0,
    );
    let programmed = run.count("flash.page_programs") * run.count("flash.page_size");
    let user = run.count("ingest.user_bytes");
    out.insert(
        "flash.write_amp",
        if user == 0 {
            0.0
        } else {
            programmed as f64 / user as f64
        },
    );
}

/// Counters whose names start with one of `prefixes` and that moved in
/// the run's first block: what the bypass predictions are checked on.
pub fn moved(run: &Run, prefixes: &[&str]) -> Vec<&'static str> {
    run.blocks.first().map_or(Vec::new(), |b| {
        b.counts
            .iter()
            .filter(|(name, v)| **v > 0 && prefixes.iter().any(|p| name.starts_with(p)))
            .map(|(name, _)| *name)
            .collect()
    })
}
