//! # pds-obs — zero-dependency observability for the PDS stack
//!
//! The tutorial's Part II argument is quantitative: every embedded
//! technique is justified by an observable cost ("Summary Scan: 17 IOs vs
//! Table scan: 640 IOs", "1 RAM page per query keyword", RAM < 128 KB).
//! This crate makes those numbers visible in the *running* system, not
//! just in bench harnesses:
//!
//! * [`metrics`] — a thread-safe registry of atomic counters, gauges and
//!   log2-bucket histograms, and a hand-rolled
//!   [JSON-lines exporter](metrics::Registry::export_jsonl).
//! * [`flight`] — the event system: fixed-width severity-tagged frames
//!   staged per thread and absorbed into each token's durable ring.
//! * [`trace`] — hierarchical span guards ([`trace::span`] /
//!   [`span!`]) that instrumented layers annotate with I/O deltas, RAM
//!   peaks and policy decisions; [`trace::trace`], the scope that
//!   records them for a caller who asked and hands the tree back (with
//!   none open a guard is inert, and a fleet driver stitches nothing);
//!   and [`trace::QueryTrace`], the
//!   per-query "explain" report checked against the paper's claimed
//!   budgets.
//! * [`delta`] — mergeable metric snapshots ([`delta::MetricsDelta`])
//!   with an associative/commutative `merge`, the unit of the fleet's
//!   in-band telemetry plane: per-shard registries are snapshotted,
//!   shipped over the bus, and folded into deterministic rollups.
//! * [`json`] — the minimal JSON writer/parser behind the exporter, so
//!   exports round-trip without external crates.
//! * [`rng`] — deterministic SplitMix64 / xoshiro256++ generators with a
//!   `rand`-shaped API, so the workspace builds hermetically offline.
//! * [`wire`] — the one bounds-checked cursor under every record and
//!   message decoder of the workspace, and the seeded sweep that holds
//!   every format to its contract.
//!
//! The crate intentionally has **zero dependencies** (only `std`): it
//! sits below every other crate of the workspace, including the flash
//! simulator.

pub mod delta;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod trace;
pub mod wire;

pub use delta::{DeltaTracker, GaugePolicy, HistDelta, MetricsDelta};
pub use flight::{EventFrame, Severity};
pub use metrics::{counter, gauge, histogram, Counter, Gauge, Histogram, Registry};
pub use trace::{
    AttrValue, BudgetCheck, CriticalHop, FinishedSpan, FleetTrace, QueryTrace, SpanGuard,
    TraceContext,
};

/// Resource budgets claimed by the tutorial's slides, used by
/// [`trace::QueryTrace::check_budgets`] callers and the runtime
/// validators in the search engine.
pub mod budgets {
    /// "RAM is a few dozen KB": the secure-MCU ceiling used throughout
    /// Part II (128 KB).
    pub const RAM_BYTES: u64 = 128 * 1024;
    /// "1 RAM page per query keyword" — the search engine's cursor claim.
    pub const RAM_PAGES_PER_QUERY_KEYWORD: u64 = 1;
    /// "Summary Scan: 17 IOs" for the E1 selection workload.
    pub const SUMMARY_SCAN_IOS: u64 = 17;
    /// "Table scan: 640 IOs" for the E1 selection workload.
    pub const TABLE_SCAN_IOS: u64 = 640;
}

/// Record a structured flight-recorder event (see [`flight`]):
/// `event!(Severity::Warn, subsystem::FLASH, code::FLASH_BLOCK_RETIRED, block)`.
/// Frames below the severity floor cost one comparison; up to two
/// `u64`-convertible args ride the frame. The owning token drains the
/// staged frames into its durable black-box ring.
#[macro_export]
macro_rules! event {
    ($sev:expr, $sub:expr, $code:expr) => {
        $crate::flight::record($sev, $sub, $code, [0u64, 0u64])
    };
    ($sev:expr, $sub:expr, $code:expr, $a:expr) => {
        $crate::flight::record($sev, $sub, $code, [$a as u64, 0u64])
    };
    ($sev:expr, $sub:expr, $code:expr, $a:expr, $b:expr) => {
        $crate::flight::record($sev, $sub, $code, [$a as u64, $b as u64])
    };
}

/// The [`global`](metrics::global) registry's counter named by a
/// literal, looked up once per call site: `counter!("flash.page_reads").inc()`.
/// [`counter()`] locks the registry and walks its map on every call; a
/// path that touches its counters on every page or every power cycle
/// keeps the handle it found the first time instead — the same handle,
/// since the registry never drops an instrument.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::counter($name))
    }};
}

/// Open a span: `span!("db.select")`, optionally with initial attributes:
/// `span!("db.select", "db.table" => table, "db.plan" => "FullScan")`.
/// Returns a [`trace::SpanGuard`]; the span finishes when the guard drops.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
    ($name:expr, $($key:expr => $val:expr),+ $(,)?) => {{
        let guard = $crate::trace::span($name);
        $(guard.set($key, $val);)+
        guard
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn counter_macro_is_the_registry_s_counter() {
        for _ in 0..3 {
            counter!("lib.tests.counter_macro").inc();
        }
        assert_eq!(crate::counter("lib.tests.counter_macro").get(), 3);
    }

    #[test]
    fn span_macro_sets_initial_attrs() {
        let (_, root) = crate::trace::trace("t", || {
            let _g = span!("m.test", "k" => 7u64, "label" => "x");
        });
        let span = &root.children[0];
        assert_eq!(span.attr_u64("k"), Some(7));
        assert_eq!(span.attr("label").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn budgets_are_the_papers_numbers() {
        assert_eq!(
            crate::budgets::TABLE_SCAN_IOS / crate::budgets::SUMMARY_SCAN_IOS,
            37
        );
        assert_eq!(crate::budgets::RAM_BYTES, 131072);
    }
}
