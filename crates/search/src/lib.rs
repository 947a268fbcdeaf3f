//! # pds-search — embedded full-text search engine
//!
//! Part II's first illustration: answer IR queries ("for a set of query
//! keywords, produce the N most relevant documents according to TF-IDF")
//! on a secure MCU with tiny RAM and a NAND flash store. The classical
//! search algorithm allocates "one container per retrieved docid" in RAM —
//! "too much!" for the token — so the tutorial's design is:
//!
//! * **Sequential inverted index** — triples `(term, docid, weight)` are
//!   appended to *chained hash buckets* in flash: a small RAM hash table
//!   maps each bucket to the address of its most recent page; every page
//!   points back to the previous page of the same bucket. Pages are only
//!   ever appended — pure log writes, legal NAND by construction.
//! * **Docids generated in increasing order** — so a backward walk of a
//!   bucket chain yields docids in *descending* order, and the chains of
//!   the query keywords can be **merged in pipeline**: "triples with an
//!   equal docid arrive in RAM at the same time … and the TF-IDF score of
//!   each docid can be computed in pipeline".
//! * **One RAM page per query keyword** plus a bounded top-N heap — the
//!   entire RAM footprint of a query, enforced here through
//!   [`pds_mcu::RamBudget`].
//!
//! Exact TF-IDF needs each keyword's document frequency before the first
//! score. The engine counts it first, with no RAM per term: the keyword's
//! pending triples, the unmerged tail pages that can hold its bucket, and
//! the df table its chain's head carries — one page read of the chain.

mod crash_sweep;
pub mod docs;
pub mod engine;
pub mod gen;
mod layout_differential;
pub mod oracle;
pub mod tokenize;
pub mod triple;

pub use docs::DocStore;
pub use engine::{
    DfStrategy, EngineManifest, EngineRecovery, RebuildReason, SearchEngine, SearchError,
    SearchHit, SearchMode,
};
pub use oracle::NaiveSearch;
pub use tokenize::tokenize;
pub use triple::{DocId, Triple};
