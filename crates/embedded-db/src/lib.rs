//! # pds-db — embedded relational database for secure tokens
//!
//! Part II's second illustration: "evaluate selections, projections,
//! joins" on the secure MCU, under the same framework as the search
//! engine — *indexes in log structures, pipeline evaluation, timely
//! reorganization*. This crate is a faithful reproduction of the
//! PBFilter / MILo-DB lineage the tutorial presents:
//!
//! * `summary_log` (private) — the recipe everything below repeats,
//!   stated once: entries append to a **data log**, every data page gets
//!   one small record in a **summary log**, and a lookup scans the
//!   compact summary log and probes only the data pages it cannot rule
//!   out: "|Log2| I/O + 1 IO/result" — the slide's *Summary Scan, 17
//!   IOs* against a *Table Scan, 640 IOs*. It owns the page format, the
//!   closing order, the summary walk and the checked page reader; each
//!   store built on it is an *entry codec + summary type + probe rule*.
//! * [`pbfilter`] — the sequential selection index: a **Keys log**
//!   (vertical partition of the indexed column, filled at insertion)
//!   summarised by one ~2 B/key **Bloom filter** per Keys page; probes
//!   every positive page.
//! * [`sort`] — external merge sort built exclusively from log structures
//!   (sorted runs are logs; the merge output is a log), the engine of
//!   reorganization.
//! * [`tree`] — a B-tree-like index **built strictly sequentially** from a
//!   sorted stream, level logs included, so the whole construction is
//!   legal NAND; lookups descend root→leaf in `height` page reads.
//! * [`reorg`] — "Scalability ⇒ timely reorganize the index": transforms a
//!   sequential PBFilter into a [`tree::TreeIndex`] using only log
//!   structures, in the background, interruptibly — or folds a column's
//!   PBFilter delta into the next generation of its tree.
//! * [`climbing`] — the **Tselect/Tjoin** generalized indexes of the SPJ
//!   slide: Tselect maps a key to *sorted rowids of the query-root table*;
//!   Tjoin maps each root rowid to the rowids it references in the schema
//!   subtree. Select-project-join queries then run as a pure pipeline:
//!   merge-intersect sorted rowid streams, dereference through Tjoin.
//! * [`query`] — a mini relational layer: catalog, typed rows, predicates,
//!   column indexes of one tree plus a PBFilter delta, a planner that
//!   picks scan / ordered scan / PBFilter / tree, and the SPJ executor.
//! * [`tpcd`] — the TPC-D-like dataset of the tutorial's example
//!   (CUSTOMER, ORDERS, LINEITEM, PARTSUPP, SUPPLIER) at configurable
//!   scale.
//! * [`hlc`] / [`mvcc`] — snapshot isolation over the append-only
//!   stores: hybrid-logical-clock commit stamps, prefix-length version
//!   marks, epoch-based GC, and a durable change log answering
//!   "changes since HLC h" (the primitive continuous queries and
//!   delta-based Trusted-Cells sync build on).
//!
//! The tutorial's closing "remaining challenges" ask for the framework to
//! be extended "to other data models: … time series, spatial-temporal
//! data, noSQL & key-value stores"; each is one more front of
//! `summary_log`:
//!
//! * [`timeseries`] — samples summarised by time range + pre-aggregates:
//!   skip disjoint pages, use the summary of covered ones, probe only the
//!   range boundaries.
//! * [`kv`] — versions (puts and tombstones) summarised by Bloom filters:
//!   probe newest-first and stop at the first hit; block-grain compaction.
//! * [`spatial`] — points summarised by MBR + time range: probe the pages
//!   whose rectangle meets the window.

pub mod climbing;
pub mod error;
pub mod hlc;
pub mod kv;
pub mod mvcc;
pub mod pbfilter;
pub mod query;
mod read_disturb;
pub mod reorg;
pub mod sort;
pub mod spatial;
mod summary_log;
pub mod table;
pub mod timeseries;
pub mod tpcd;
pub mod tree;
pub mod value;

pub use climbing::{SchemaTree, TjoinIndex, TselectIndex};
pub use error::DbError;
pub use hlc::{Hlc, HlcClock};
pub use kv::KvStore;
pub use mvcc::{GcReport, MvccManifest, MvccRecovery, MvccState, Snapshot, DOC_STORE};
pub use pbfilter::PBFilter;
pub use query::{Database, DatabaseManifest, Predicate, QueryPlan};
pub use sort::external_sort;
pub use spatial::SpatialTrace;
pub use table::{ColumnOrder, RowId, Table, TableManifest};
pub use timeseries::TimeSeries;
pub use tree::TreeIndex;
pub use value::{Row, RowRef, Schema, Value, ValueRef};

/// SHA-256, in hex, of a value's `Debug` form: what a test pins when it
/// pins what a structure holds rather than the bytes it lays out.
#[cfg(test)]
pub(crate) fn debug_digest(value: &impl std::fmt::Debug) -> String {
    let digest = pds_crypto::sha256(format!("{value:?}").as_bytes());
    digest.iter().map(|b| format!("{b:02x}")).collect()
}
