//! # pds-bench — the experiment harness
//!
//! One module per experiment of EXPERIMENTS.md (E1–E19) plus the
//! ablations (A1–A4). Each module exposes a `run(…) -> Table` that
//! regenerates the experiment's table; the `report` binary prints them
//! all. Wall-clock lives in the performance ledger (`ledger/`), not
//! here.

pub mod ablations;
pub mod baseline;
pub mod e10_ppdp;
pub mod e11_sync;
pub mod e12_folkis;
pub mod e13_recovery;
pub mod e14_fleet;
pub mod e15_fleet_trace;
pub mod e16_telemetry;
pub mod e17_sched;
pub mod e18_mvcc;
pub mod e19_crash;
pub mod e1_pbfilter;
pub mod e2_reorg;
pub mod e3_search;
pub mod e4_spj;
pub mod e5_random_writes;
pub mod e6_protocols;
pub mod e7_toolkit;
pub mod e8_fhe_cost;
pub mod e9_detection;
pub mod table;

pub use table::Table;

/// The `u64` in environment variable `name` — the `PDS_E*` scale knobs
/// of the fleet experiments — or `default` when unset or unparsable.
pub(crate) fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
