//! The mini relational layer: catalog, predicates, planner.
//!
//! A [`Database`] groups the tables of one personal data server with their
//! selection indexes. The planner implements the access-method ladder of
//! Part II: a fresh column is answered by a **full scan**; a column
//! indexed while its table was empty, by a **summary scan** of the
//! PBFilter its inserts went to; once the column has a tree — built by
//! `create_index` over the rows a table holds, or by `reorganize_index`
//! from the PBFilter — by a **tree lookup**, each step an order of
//! magnitude cheaper, which is what the E1/E2 experiments measure. A
//! column whose values arrived in order (a day, a timestamp) needs no
//! index for `U64` bounds: an **ordered scan** binary-searches the
//! table's pages for the range and reads only the pages it spans.
//!
//! A column index is one tree generation plus a PBFilter **delta**: the
//! tree is the query structure, the delta the insertion structure, and
//! `reorganize_index` folds the delta into the next generation. Every
//! rowid of the delta is above every rowid of the tree, so a lookup
//! that reads the tree and then the delta answers in rowid order.

use std::collections::BTreeMap;

use pds_flash::{BlockId, ChangeRec, Flash};
use pds_mcu::RamBudget;

use crate::error::DbError;
use crate::hlc::Hlc;
use crate::mvcc::{kind, GcReport, MvccManifest, MvccRecovery, MvccState, Snapshot, DOC_STORE};
use crate::pbfilter::PBFilter;
use crate::reorg;
use crate::table::{ColumnOrder, RowId, Table, TableManifest};
use crate::tree::TreeIndex;
use crate::value::{Row, Schema, Value, ValueRef};

/// Durable identity of a [`Database`] across a power cycle: the manifest
/// of every table plus the erase blocks of every selection index. A real
/// token persists this in a catalog log; the simulation carries it across
/// the reboot in RAM.
///
/// Indexes are *derived* state (rebuildable from the tables by
/// `create_index`/`reorganize_index`), so only their blocks are recorded —
/// recovery frees them and comes back index-less.
#[derive(Debug, Clone)]
pub struct DatabaseManifest {
    /// Per-table manifests, in creation order.
    pub tables: Vec<TableManifest>,
    /// Blocks of every PBFilter and tree index, freed on recovery.
    pub index_blocks: Vec<BlockId>,
    /// Version-state manifest, when MVCC is enabled.
    pub mvcc: Option<MvccManifest>,
}

/// What [`Database::recover`] hands back: the rebuilt database,
/// per-table `(name, rows_lost)`, and the MVCC recovery report when
/// MVCC was enabled.
pub type DbRecovery = (Database, Vec<(String, u32)>, Option<MvccRecovery>);

/// A selection predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// `column = value`.
    Eq {
        /// Column name.
        column: String,
        /// Match value.
        value: Value,
    },
    /// `lo ≤ column ≤ hi` (inclusive range).
    Between {
        /// Column name.
        column: String,
        /// Lower bound (inclusive).
        lo: Value,
        /// Upper bound (inclusive).
        hi: Value,
    },
}

impl Predicate {
    /// `column = value` shorthand.
    pub fn eq(column: &str, value: Value) -> Self {
        Predicate::Eq {
            column: column.to_string(),
            value,
        }
    }

    /// `lo ≤ column ≤ hi` shorthand.
    pub fn between(column: &str, lo: Value, hi: Value) -> Self {
        Predicate::Between {
            column: column.to_string(),
            lo,
            hi,
        }
    }

    /// The column the predicate constrains.
    pub fn column(&self) -> &str {
        match self {
            Predicate::Eq { column, .. } | Predicate::Between { column, .. } => column,
        }
    }

    /// `(lo, hi)` when both bounds are `U64` (`Eq` is `value..=value`).
    fn u64_bounds(&self) -> Option<(u64, u64)> {
        match self {
            Predicate::Eq {
                value: Value::U64(v),
                ..
            } => Some((*v, *v)),
            Predicate::Between {
                lo: Value::U64(lo),
                hi: Value::U64(hi),
                ..
            } => Some((*lo, *hi)),
            _ => None,
        }
    }

    /// Whether a column value satisfies the predicate (the evaluation
    /// primitive standing queries re-run over change-log deltas). One
    /// body for both forms of a value: a scan passes the [`ValueRef`] it
    /// read off the page, a caller holding a row passes `&row[c]`.
    /// Values of different types are ordered by type, as [`Value`]'s
    /// `Ord` has it, and never equal.
    pub fn matches<'a>(&self, v: impl Into<ValueRef<'a>>) -> bool {
        let v = v.into();
        match self {
            Predicate::Eq { value, .. } => v == value.as_ref(),
            Predicate::Between { lo, hi, .. } => v >= lo.as_ref() && v <= hi.as_ref(),
        }
    }
}

/// The access method the planner selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPlan {
    /// Sequential scan of the data pages.
    FullScan,
    /// PBFilter summary scan + targeted key-page probes.
    SummaryScan,
    /// Page-grain binary search of a column whose values arrived in
    /// order, then a scan of the pages the range spans.
    OrderedScan,
    /// Descent of the B-tree-like index, then a probe of its delta.
    TreeLookup,
}

impl QueryPlan {
    /// Stable name used as the `db.plan` span attribute.
    pub fn name(&self) -> &'static str {
        match self {
            QueryPlan::FullScan => "full_scan",
            QueryPlan::SummaryScan => "summary_scan",
            QueryPlan::OrderedScan => "ordered_scan",
            QueryPlan::TreeLookup => "tree_lookup",
        }
    }
}

/// One column's index: the tree generation last built, if any, and the
/// PBFilter delta every insert since went to.
struct ColumnIndex {
    tree: Option<TreeIndex>,
    delta: PBFilter,
}

impl ColumnIndex {
    fn blocks(&self) -> Vec<BlockId> {
        let mut blocks = self.tree.as_ref().map_or_else(Vec::new, TreeIndex::blocks);
        blocks.extend(self.delta.blocks());
        blocks
    }

    fn discard(self) {
        if let Some(tree) = self.tree {
            tree.reclaim();
        }
        self.delta.discard();
    }
}

/// The planner's one decision for a predicate, holding what executing
/// it takes: [`Database::explain`] reports it, [`Database::select`]
/// runs it.
enum Access<'a> {
    Tree(&'a TreeIndex, &'a PBFilter),
    Ordered { lo: u64, hi: u64 },
    Summary(&'a PBFilter, &'a Value),
    Full,
}

impl Access<'_> {
    fn plan(&self) -> QueryPlan {
        match self {
            Access::Tree(..) => QueryPlan::TreeLookup,
            Access::Ordered { .. } => QueryPlan::OrderedScan,
            Access::Summary(..) => QueryPlan::SummaryScan,
            Access::Full => QueryPlan::FullScan,
        }
    }
}

/// A catalog of tables with their per-column selection indexes.
pub struct Database {
    flash: Flash,
    ram: RamBudget,
    tables: Vec<Table>,
    by_name: BTreeMap<String, usize>,
    /// (table, column) → index. Ordered: `insert` and `manifest` walk
    /// it, so with two indexes on a table the interleaving of their page
    /// programs must not vary per process.
    indexes: BTreeMap<(usize, usize), ColumnIndex>,
    /// Version state (snapshots + change log), when enabled.
    mvcc: Option<MvccState>,
}

impl Database {
    /// An empty database on one token's resources.
    pub fn new(flash: &Flash, ram: &RamBudget) -> Self {
        Database {
            flash: flash.clone(),
            ram: ram.clone(),
            tables: Vec::new(),
            by_name: BTreeMap::new(),
            indexes: BTreeMap::new(),
            mvcc: None,
        }
    }

    /// The flash device (for I/O accounting in experiments).
    pub fn flash(&self) -> &Flash {
        &self.flash
    }

    /// Create a table.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<(), DbError> {
        if self.by_name.contains_key(name) {
            return Err(DbError::UnknownTable(format!("{name} already exists")));
        }
        self.by_name.insert(name.to_string(), self.tables.len());
        self.tables.push(Table::new(&self.flash, name, schema));
        Ok(())
    }

    fn table_idx(&self, name: &str) -> Result<usize, DbError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Borrow a table.
    pub fn table(&self, name: &str) -> Result<&Table, DbError> {
        Ok(&self.tables[self.table_idx(name)?])
    }

    /// The change-record store id of `table` (its catalog index).
    pub fn store_id(&self, name: &str) -> Result<u16, DbError> {
        Ok(self.table_idx(name)? as u16)
    }

    /// All tables (for schema-tree construction).
    pub fn tables(&self) -> Vec<&Table> {
        self.tables.iter().collect()
    }

    /// Flush every table's buffered rows (and buffered change records)
    /// to flash.
    pub fn flush(&mut self) -> Result<(), DbError> {
        for t in &mut self.tables {
            t.flush()?;
        }
        if let Some(mvcc) = &mut self.mvcc {
            mvcc.flush()?;
        }
        Ok(())
    }

    // ---- MVCC: versioned reads and the change log -----------------------

    /// Turn on snapshot isolation: commits get HLC stamps (issued as
    /// `node`), snapshots pin versions, and every commit is appended to
    /// the durable change log. Enabling twice is a no-op.
    pub fn enable_mvcc(&mut self, node: u32) {
        if self.mvcc.is_none() {
            self.mvcc = Some(MvccState::new(&self.flash, node));
        }
    }

    /// The version state, when enabled.
    pub fn mvcc(&self) -> Option<&MvccState> {
        self.mvcc.as_ref()
    }

    fn mvcc_ref(&self) -> Result<&MvccState, DbError> {
        self.mvcc.as_ref().ok_or(DbError::MvccDisabled)
    }

    /// Commit everything inserted since the last commit under one fresh
    /// HLC stamp: each grown table gets a version mark and one change
    /// record per new row. `Ok(None)` when nothing grew.
    pub fn commit(&mut self) -> Result<Option<Hlc>, DbError> {
        self.commit_with_docs(0)
    }

    /// [`commit`](Self::commit), additionally stamping the document
    /// store at length `docs` (the search engine rides the same change
    /// log under the reserved [`DOC_STORE`] id).
    pub fn commit_with_docs(&mut self, docs: u32) -> Result<Option<Hlc>, DbError> {
        let mut stores: Vec<(u16, u8, u32)> = self
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| (i as u16, kind::ROW_INSERT, t.num_rows()))
            .collect();
        stores.push((DOC_STORE, kind::DOC_APPEND, docs));
        self.mvcc
            .as_mut()
            .ok_or(DbError::MvccDisabled)?
            .commit(&stores)
    }

    /// Open a snapshot pinned to the current HLC: reads through it never
    /// observe later commits. Pair with [`release`](Self::release).
    pub fn snapshot(&mut self) -> Result<Snapshot, DbError> {
        Ok(self.mvcc.as_mut().ok_or(DbError::MvccDisabled)?.snapshot())
    }

    /// Release a snapshot's GC pin.
    pub fn release(&mut self, snap: &Snapshot) {
        if let Some(mvcc) = &mut self.mvcc {
            mvcc.release(snap);
        }
    }

    /// [`select`](Self::select) against a pinned snapshot: rows
    /// committed after the snapshot's HLC are invisible, whatever the
    /// access method. (Appends only grow the stores, so visibility is a
    /// rowid-prefix check on the snapshot's version mark.)
    pub fn select_at(
        &self,
        snap: &Snapshot,
        table: &str,
        pred: &Predicate,
    ) -> Result<Vec<(RowId, Row)>, DbError> {
        let t = self.table_idx(table)?;
        let visible = self.mvcc_ref()?.visible_at(snap, t as u16);
        let mut rows = self.select(table, pred)?;
        rows.retain(|&(rowid, _)| rowid < visible);
        Ok(rows)
    }

    /// Every change record committed strictly after `since`, in stamp
    /// order (table stores carry their catalog index, documents the
    /// reserved [`DOC_STORE`] id).
    pub fn changes_since(&self, since: Hlc) -> Result<Vec<ChangeRec>, DbError> {
        self.mvcc_ref()?.changes_since(since)
    }

    /// Collapse version history nothing can address anymore: marks and
    /// change records below the oldest open snapshot — capped by
    /// `keep_since`, the oldest consumer cursor still outstanding.
    pub fn gc_versions(&mut self, keep_since: Option<Hlc>) -> Result<GcReport, DbError> {
        self.mvcc
            .as_mut()
            .ok_or(DbError::MvccDisabled)?
            .gc(keep_since)
    }

    /// The database's durable identity, for [`recover`](Self::recover)
    /// after a power loss.
    pub fn manifest(&self) -> DatabaseManifest {
        DatabaseManifest {
            tables: self.tables.iter().map(Table::manifest).collect(),
            index_blocks: self
                .indexes
                .values()
                .flat_map(ColumnIndex::blocks)
                .collect(),
            mvcc: self.mvcc.as_ref().map(MvccState::manifest),
        }
    }

    /// Rebuild a database after a power loss: every table recovers its
    /// durable row prefix; every selection index is dropped (its blocks
    /// return to the pool) and must be re-created from the recovered
    /// tables; the version state recovers its change log clamped to
    /// what the stores actually hold (`docs_recovered` supplies the
    /// document store's durable length, recovered by the layer above).
    /// Returns the database, per-table `(name, rows_lost)`, and the
    /// MVCC recovery report when MVCC was enabled.
    pub fn recover(
        flash: &Flash,
        ram: &RamBudget,
        m: &DatabaseManifest,
        docs_recovered: Option<u32>,
    ) -> Result<DbRecovery, DbError> {
        let mut tables = Vec::new();
        let mut by_name = BTreeMap::new();
        let mut losses = Vec::new();
        for tm in &m.tables {
            let (table, lost) = Table::recover(flash, tm)?;
            by_name.insert(tm.name.clone(), tables.len());
            tables.push(table);
            losses.push((tm.name.clone(), lost));
        }
        // Claim first so a block the reboot scan classified as free is
        // not double-inserted into the pool.
        for b in &m.index_blocks {
            let _ = flash.claim_block(*b);
            flash.free_block(*b);
        }
        let mut mvcc = None;
        let mut mvcc_report = None;
        if let Some(mm) = &m.mvcc {
            let mut lens: Vec<(u16, u8, u32)> = tables
                .iter()
                .enumerate()
                .map(|(i, t)| (i as u16, kind::ROW_INSERT, t.num_rows()))
                .collect();
            if let Some(docs) = docs_recovered {
                lens.push((DOC_STORE, kind::DOC_APPEND, docs));
            }
            let (state, report) = MvccState::recover(flash, mm, &lens)?;
            mvcc = Some(state);
            mvcc_report = Some(report);
        }
        Ok((
            Database {
                flash: flash.clone(),
                ram: ram.clone(),
                tables,
                by_name,
                indexes: BTreeMap::new(),
                mvcc,
            },
            losses,
            mvcc_report,
        ))
    }

    /// Insert a row, maintaining every index of the table: the key goes
    /// to the column's delta.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<RowId, DbError> {
        let t = self.table_idx(table)?;
        let rowid = self.tables[t].insert(&row)?;
        for ((_, c), idx) in self.indexes.range_mut((t, 0)..(t + 1, 0)) {
            idx.delta.insert(&row[*c].to_key_bytes(), rowid)?;
        }
        Ok(rowid)
    }

    /// Index `table.column`: a tree over the rows the table holds —
    /// their keys sorted as the row log is scanned, no tree on an empty
    /// table — and an empty delta for the rows inserted after. A column
    /// indexed already gets the new index, and the old one's blocks go
    /// back; a failed build leaves no block behind and the column as it
    /// was.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<(), DbError> {
        let span = pds_obs::span!("db.create_index", "db.table" => table, "db.column" => column);
        let before = self.flash.stats();
        let t = self.table_idx(table)?;
        let rows = &self.tables[t];
        let c = rows.column(column)?;
        let tree = if rows.num_rows() == 0 {
            None
        } else {
            let sorted = reorg::sort_entries(&self.flash, &self.ram, |runs| {
                rows.try_scan(|rowid, row| match row.get(c) {
                    Some(v) => runs.push(v.to_key_bytes(), rowid),
                    // A stored row too short to have the column: a scan
                    // finds no value there to match, so neither may the
                    // index.
                    None => Ok(()),
                })
            })?;
            Some(reorg::tree_over(&self.flash, &self.ram, sorted, None)?)
        };
        let index = ColumnIndex {
            tree,
            delta: PBFilter::new(&self.flash),
        };
        if let Some(old) = self.indexes.insert((t, c), index) {
            old.discard();
        }
        (self.flash.stats() - before).attach_to_span(&span);
        Ok(())
    }

    /// Fold `table.column`'s delta into the next tree generation: the
    /// delta is sorted and merged with the tree's leaves into a new
    /// tree, which is swapped in; the old tree and the delta are
    /// reclaimed wholesale and a fresh delta started. With an empty delta
    /// there is nothing to fold, and nothing is done.
    pub fn reorganize_index(&mut self, table: &str, column: &str) -> Result<(), DbError> {
        let span =
            pds_obs::span!("db.reorganize_index", "db.table" => table, "db.column" => column);
        let before = self.flash.stats();
        let t = self.table_idx(table)?;
        let c = self.tables[t].column(column)?;
        let Some(index) = self.indexes.get_mut(&(t, c)) else {
            return Err(DbError::Corrupt("no index to reorganize"));
        };
        if !index.delta.is_empty() {
            let tree =
                reorg::next_generation(&self.flash, &self.ram, index.tree.as_ref(), &index.delta)?;
            let next = ColumnIndex {
                tree: Some(tree),
                delta: PBFilter::new(&self.flash),
            };
            std::mem::replace(index, next).discard();
        }
        (self.flash.stats() - before).attach_to_span(&span);
        Ok(())
    }

    /// The plan [`select`](Self::select) would use for this predicate.
    ///
    /// Equality takes the tree when the column has one. Range predicates
    /// need key order: on a column whose values arrived in order the
    /// table itself serves `U64` bounds, reading only the pages the range
    /// spans — fewer than the tree, which fetches a row page per hit;
    /// otherwise the tree serves them. A PBFilter (hash-style Bloom
    /// summaries) serves equality alone, so other ranges fall back to a
    /// scan until the column has a tree.
    pub fn explain(&self, table: &str, pred: &Predicate) -> Result<QueryPlan, DbError> {
        let t = self.table_idx(table)?;
        let c = self.tables[t].column(pred.column())?;
        Ok(self.explain_at(t, c, pred).plan())
    }

    /// The planner: the rungs of the ladder, cheapest first.
    fn explain_at<'a>(&'a self, t: usize, c: usize, pred: &'a Predicate) -> Access<'a> {
        let index = self.indexes.get(&(t, c));
        let tree = index.and_then(|idx| Some(Access::Tree(idx.tree.as_ref()?, &idx.delta)));
        let ordered = pred
            .u64_bounds()
            .filter(|_| self.tables[t].order(c) != ColumnOrder::Unordered);
        match (tree, ordered, pred) {
            (Some(tree), _, Predicate::Eq { .. }) => tree,
            (_, Some((lo, hi)), _) => Access::Ordered { lo, hi },
            (Some(tree), None, _) => tree,
            (None, None, Predicate::Eq { value, .. }) => {
                index.map_or(Access::Full, |idx| Access::Summary(&idx.delta, value))
            }
            (None, None, Predicate::Between { .. }) => Access::Full,
        }
    }

    /// Evaluate `SELECT * FROM table WHERE pred`, returning matching
    /// `(rowid, row)` pairs in rowid order.
    pub fn select(&self, table: &str, pred: &Predicate) -> Result<Vec<(RowId, Row)>, DbError> {
        let span = pds_obs::span!("db.select", "db.table" => table);
        let before = self.flash.stats();
        let t = self.table_idx(table)?;
        let c = self.tables[t].column(pred.column())?;
        let access = self.explain_at(t, c, pred);
        span.set("db.plan", access.plan().name());
        let result: Vec<(RowId, Row)> = match access {
            Access::Tree(tree, delta) => {
                // The page a descent holds, for as long as the select runs.
                let _page = self.ram.reserve(self.flash.geometry().page_size)?;
                // The tree's hits, then the delta's: in rowid order, as
                // every rowid of the delta is above the tree's.
                let ids = match pred {
                    Predicate::Eq { value, .. } => {
                        let _op = pds_obs::span!("db.op.tree_lookup");
                        let key = value.to_key_bytes();
                        let mut ids = tree.lookup(&key)?;
                        ids.extend(delta.lookup(&key)?);
                        ids
                    }
                    Predicate::Between { lo, hi, .. } => {
                        let _op = pds_obs::span!("db.op.tree_range");
                        let (lo, hi) = (lo.to_key_bytes(), hi.to_key_bytes());
                        let mut ids: Vec<RowId> = tree
                            .lookup_range(&lo, &hi)?
                            .into_iter()
                            .map(|(_, r)| r)
                            .collect();
                        ids.sort_unstable();
                        for entry in delta.entries() {
                            let (key, rowid) = entry?;
                            if key >= lo && key <= hi {
                                ids.push(rowid);
                            }
                        }
                        ids
                    }
                };
                self.fetch_rows(t, ids)?
            }
            Access::Ordered { lo, hi } => {
                let _op = pds_obs::span!("db.op.ordered_scan");
                let mut hits = Vec::new();
                self.tables[t].scan_range(c, lo, hi, |rowid, row| {
                    hits.push((rowid, row.to_row()));
                })?;
                hits
            }
            Access::Summary(pbf, value) => {
                let ids = {
                    let _op = pds_obs::span!("db.op.summary_scan");
                    pbf.lookup(&value.to_key_bytes())?
                };
                self.fetch_rows(t, ids)?
            }
            Access::Full => {
                let _op = pds_obs::span!("db.op.full_scan");
                let mut hits = Vec::new();
                // The predicate reads its column where the row lies;
                // only a hit becomes an owned row.
                self.tables[t].scan(|rowid, row| {
                    if row.get(c).is_some_and(|v| pred.matches(v)) {
                        hits.push((rowid, row.to_row()));
                    }
                })?;
                hits
            }
        };
        span.set("db.rows", result.len() as u64);
        (self.flash.stats() - before).attach_to_span(&span);
        Ok(result)
    }

    /// Materialize rowids into `(rowid, row)` pairs under a fetch span.
    fn fetch_rows(&self, t: usize, rowids: Vec<RowId>) -> Result<Vec<(RowId, Row)>, DbError> {
        let _op = pds_obs::span!("db.op.fetch_rows", "db.rows" => rowids.len() as u64);
        // One page buffer for the whole request, not one per row.
        let mut scratch = Vec::new();
        rowids
            .into_iter()
            .map(|r| Ok((r, self.tables[t].get_with(r, &mut scratch)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ColumnType;

    fn db_with_customers(n: u64) -> Database {
        customers_on(&Flash::small(2048), n)
    }

    fn customers_on(f: &Flash, n: u64) -> Database {
        customers_with_ids(f, 0..n)
    }

    /// Customer `i`: one of four cities, one of two segments.
    fn customer(i: u64) -> Row {
        let cities = ["Lyon", "Paris", "Nice", "Lille"];
        vec![
            Value::U64(i),
            Value::str(cities[(i % 4) as usize]),
            Value::str(["HOUSEHOLD", "AUTO"][(i % 2) as usize]),
        ]
    }

    /// Customers whose `id`s arrive in the order `ids` gives them.
    fn customers_with_ids(f: &Flash, ids: impl IntoIterator<Item = u64>) -> Database {
        let ram = RamBudget::new(64 * 1024);
        let mut db = Database::new(f, &ram);
        db.create_table(
            "CUSTOMER",
            Schema::new(&[
                ("id", ColumnType::U64),
                ("city", ColumnType::Str),
                ("segment", ColumnType::Str),
            ]),
        )
        .unwrap();
        for i in ids {
            db.insert("CUSTOMER", customer(i)).unwrap();
        }
        db
    }

    /// `Predicate::matches` as it stood before it was evaluated on
    /// borrowed values, kept verbatim.
    fn reference_matches(pred: &Predicate, v: &Value) -> bool {
        match pred {
            Predicate::Eq { value, .. } => v == value,
            Predicate::Between { lo, hi, .. } => v >= lo && v <= hi,
        }
    }

    #[test]
    fn cross_type_predicates_order_by_tag_as_value_cmp_does() {
        let (n, s) = (Value::U64(7), Value::str("7"));
        // `Value::cmp` across types: every integer sorts before every
        // string, and the two are never equal.
        assert_eq!(n.cmp(&s), std::cmp::Ordering::Less);
        assert_eq!(
            Value::U64(u64::MAX).cmp(&Value::str("")),
            std::cmp::Ordering::Less
        );
        // A U64 column against Str bounds, and a Str column against U64
        // bounds, `Eq` and `Between`.
        let cases = [
            (Predicate::eq("c", s.clone()), &n, false),
            (Predicate::eq("c", n.clone()), &s, false),
            (
                Predicate::between("c", Value::str(""), Value::str("z")),
                &n,
                false,
            ),
            (
                Predicate::between("c", Value::U64(0), Value::str("z")),
                &n,
                true,
            ),
            (
                Predicate::between("c", Value::U64(8), Value::str("z")),
                &n,
                false,
            ),
            (
                Predicate::between("c", Value::U64(0), Value::U64(u64::MAX)),
                &s,
                false,
            ),
            (
                Predicate::between("c", Value::U64(0), Value::str("7")),
                &s,
                true,
            ),
            (
                Predicate::between("c", Value::U64(0), Value::str("6")),
                &s,
                false,
            ),
            (
                Predicate::between("c", Value::str("8"), Value::U64(0)),
                &s,
                false,
            ),
        ];
        for (pred, v, want) in &cases {
            assert_eq!(pred.matches(*v), *want, "{pred:?} on {v:?}");
            assert_eq!(reference_matches(pred, v), *want, "{pred:?} on {v:?}");
            if let Predicate::Between { lo, hi, .. } = pred {
                let by_cmp = lo.cmp(v) != std::cmp::Ordering::Greater
                    && (*v).cmp(hi) != std::cmp::Ordering::Greater;
                assert_eq!(by_cmp, *want, "{pred:?} on {v:?}");
            }
        }
    }

    /// `SELECT` by the scan as it stood before rows were read through a
    /// view: every record decoded into an owned row, the predicate
    /// evaluated on the owned column value.
    fn reference_select(db: &Database, table: &str, pred: &Predicate) -> Vec<(RowId, Row)> {
        let t = db.table(table).unwrap();
        let c = t.column(pred.column()).unwrap();
        let mut hits = Vec::new();
        t.reference_scan(|rowid, row| {
            if reference_matches(pred, &row[c]) {
                hits.push((rowid, row));
            }
        })
        .unwrap();
        hits
    }

    #[test]
    fn select_equals_the_reference_scan_and_decode_sweep() {
        use pds_obs::rng::{Rng, SeedableRng, StdRng};
        let schema = || {
            Schema::new(&[
                ("day", ColumnType::U64),
                ("who", ColumnType::Str),
                ("note", ColumnType::Str),
            ])
        };
        // 512-byte pages: a row with an empty note is 35 bytes framed, so
        // 14 fill a page and the 15th opens the next; a 600-byte note
        // spans pages.
        let fixed = |day: u64| {
            vec![
                Value::U64(day),
                Value::str("0123456789abcdef"),
                Value::str(""),
            ]
        };
        // How `day` arrives: in order (with repeats, from 10 up), in no
        // order, or in order until row `rows / 2` and again from 10 there.
        #[derive(Debug, Clone, Copy)]
        enum Shape {
            Sorted,
            Unsorted,
            UnsortedAtHalf,
        }
        let cases = [Shape::Sorted, Shape::Unsorted, Shape::UnsortedAtHalf]
            .into_iter()
            .flat_map(|shape| [false, true].map(|indexed_first| (shape, indexed_first)));
        for (shape, indexed_first) in cases {
            for (case, rows) in [0usize, 1, 14, 15, 28, 200].into_iter().enumerate() {
                for flushed in [false, true] {
                    let mut rng = StdRng::seed_from_u64(0x5E1E_C700 + case as u64);
                    let f = Flash::small(256);
                    let mut db = Database::new(&f, &RamBudget::new(64 * 1024));
                    db.create_table("T", schema()).unwrap();
                    if indexed_first {
                        // Indexes on the empty table, filled by the inserts.
                        db.create_index("T", "day").unwrap();
                        db.create_index("T", "who").unwrap();
                    }
                    let mut days = Vec::new();
                    for i in 0..rows as u64 {
                        let day = match shape {
                            Shape::Sorted => 10 + i / 3,
                            Shape::Unsorted => rng.gen_range(0..40u64),
                            Shape::UnsortedAtHalf => 10 + (i % (rows as u64 / 2).max(1)) / 3,
                        };
                        days.push(day);
                        let row = if rows <= 28 {
                            fixed(day)
                        } else {
                            let who = format!("w{}", rng.gen_range(0..6u32));
                            let note = match rng.gen_range(0..10u32) {
                                0 => "né".repeat(300),
                                n => "x".repeat(n as usize * 7),
                            };
                            vec![Value::U64(day), Value::Str(who), Value::Str(note)]
                        };
                        db.insert("T", row).unwrap();
                    }
                    if flushed {
                        db.flush().unwrap();
                    }
                    let first = days.first().copied().unwrap_or(10);
                    let last = days.iter().copied().max().unwrap_or(10);
                    let mid = (first + last) / 2;
                    let day = |lo: u64, hi: u64| {
                        Predicate::between("day", Value::U64(lo), Value::U64(hi))
                    };
                    let preds = [
                        Predicate::eq("day", Value::U64(7)),
                        Predicate::eq("day", Value::U64(1000)),
                        Predicate::eq("day", Value::U64(first)),
                        Predicate::eq("day", Value::U64(mid)),
                        Predicate::eq("day", Value::U64(last)),
                        Predicate::eq("day", Value::str("7")),
                        Predicate::eq("who", Value::str("w3")),
                        Predicate::eq("who", Value::str("0123456789abcdef")),
                        Predicate::eq("who", Value::str("nobody")),
                        day(0, u64::MAX),
                        day(5, 9),
                        day(9, 5),
                        day(0, first.saturating_sub(1)),
                        day(first.saturating_sub(3), first + 2),
                        day(first, first),
                        day(mid.saturating_sub(2), mid + 2),
                        day(mid + 1, mid),
                        day(last.saturating_sub(2), last + 3),
                        day(last, u64::MAX),
                        day(last + 1, last + 100),
                        Predicate::between("who", Value::str("w1"), Value::str("w4")),
                        Predicate::between("who", Value::str(""), Value::str("zzzz")),
                        Predicate::between("day", Value::str("a"), Value::str("b")),
                        Predicate::between("day", Value::U64(mid), Value::str("z")),
                        Predicate::between("day", Value::str("a"), Value::U64(mid)),
                    ];
                    let want: Vec<_> = preds
                        .iter()
                        .map(|p| reference_select(&db, "T", p))
                        .collect();
                    let ctx = format!(
                        "{shape:?} case {case} flushed {flushed} indexed first {indexed_first}"
                    );
                    if rows > 0 {
                        assert_eq!(want[9].len(), rows, "{ctx}: all-match");
                        let from_mid = days.iter().filter(|d| **d >= mid).count();
                        assert_eq!(want[23].len(), from_mid, "{ctx}: U64 below every Str");
                        for i in [1, 5, 8, 11, 16, 19, 22, 24] {
                            assert!(want[i].is_empty(), "{ctx}: {:?}", preds[i]);
                        }
                        for i in [2, 4, 14] {
                            assert!(!want[i].is_empty(), "{ctx}: {:?}", preds[i]);
                        }
                    }
                    // The same answers from every rung of the plan ladder.
                    for rung in 0..3 {
                        match (rung, indexed_first) {
                            (0, _) | (1, true) => {}
                            (1, false) => {
                                db.create_index("T", "day").unwrap();
                                db.create_index("T", "who").unwrap();
                            }
                            _ => {
                                db.reorganize_index("T", "day").unwrap();
                                db.reorganize_index("T", "who").unwrap();
                            }
                        }
                        for (pred, want) in preds.iter().zip(&want) {
                            assert_eq!(
                                &db.select("T", pred).unwrap(),
                                want,
                                "{ctx} rung {rung} {pred:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// SHA-256 over every page of every block the database's indexes
    /// hold, blocks in manifest order: the tree's pages when a tree is
    /// all there is.
    fn index_pages_digest(db: &Database) -> String {
        let geo = db.flash.geometry();
        let mut hash = pds_crypto::Sha256::new();
        let mut page = vec![0u8; geo.page_size];
        for block in db.manifest().index_blocks {
            for off in 0..geo.pages_per_block {
                let addr = geo.page_in_block(block, off);
                db.flash.read_page(addr, &mut page).unwrap();
                hash.update(&page);
            }
        }
        hash.finalize().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A fixed script: 3 000 rows whose `n` (400 values) and `s` (300
    /// values of 2 to 13 bytes) arrive in no order, so each tree has
    /// duplicate runs across leaves and three levels on 512-byte pages.
    fn tree_golden_table() -> Database {
        use pds_obs::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0x74EE_601D);
        let f = Flash::small(256);
        let mut db = Database::new(&f, &RamBudget::new(64 * 1024));
        let schema = Schema::new(&[("n", ColumnType::U64), ("s", ColumnType::Str)]);
        db.create_table("T", schema).unwrap();
        for _ in 0..3000 {
            let s = rng.gen_range(0..300u32);
            let row = vec![
                Value::U64(rng.gen_range(0..400u64)),
                Value::Str(format!("s{s}").repeat(1 + s as usize % 3)),
            ];
            db.insert("T", row).unwrap();
        }
        db
    }

    #[test]
    fn reorganized_tree_pages_are_pinned() {
        for (column, golden) in [
            // Re-pinned when tree pages became page-filling records: the
            // 8 B frame takes 84 → 86 leaves on `n` (≈ 35.7 → 34.9
            // entries a 512 B leaf), 80 → 81 on `s` (37.5 → 37.0).
            (
                "n",
                "633f14b07af7effc4dff47f4357b55660093b4228489eecc0903b78cdb6cda88",
            ),
            (
                "s",
                "a00cf87a1f4fc44becc60cb9dbd5cd7192fcb873470860958b729875ba255880",
            ),
        ] {
            let mut db = tree_golden_table();
            db.create_index("T", column).unwrap();
            db.reorganize_index("T", column).unwrap();
            assert_eq!(index_pages_digest(&db), golden, "{column}");
            let probes = [
                Predicate::eq("n", Value::U64(17)),
                Predicate::eq("s", Value::str("s17s17s17")),
                Predicate::between("n", Value::U64(100), Value::U64(130)),
                Predicate::between("s", Value::str("s2"), Value::str("s3")),
            ];
            for pred in probes.iter().filter(|p| p.column() == column) {
                let want = reference_select(&db, "T", pred);
                assert!(!want.is_empty(), "{pred:?}");
                assert_eq!(db.select("T", pred).unwrap(), want, "{pred:?}");
            }
        }
    }

    #[test]
    fn create_index_and_a_merged_generation_write_the_pinned_tree_pages() {
        for (column, golden) in [
            // Re-pinned when tree pages became page-filling records: the
            // 8 B frame takes 84 → 86 leaves on `n` (≈ 35.7 → 34.9
            // entries a 512 B leaf), 80 → 81 on `s` (37.5 → 37.0).
            (
                "n",
                "633f14b07af7effc4dff47f4357b55660093b4228489eecc0903b78cdb6cda88",
            ),
            (
                "s",
                "a00cf87a1f4fc44becc60cb9dbd5cd7192fcb873470860958b729875ba255880",
            ),
        ] {
            // Sorted from the row log in one go: no PBFilter on the way.
            let mut db = tree_golden_table();
            db.create_index("T", column).unwrap();
            assert_eq!(index_pages_digest(&db), golden, "{column}");
            // Over the first rows, the others inserted into the delta
            // and folded in: the same tree, bit for bit.
            let table = db.table("T").unwrap();
            let mut rows = Vec::new();
            table.scan(|_, row| rows.push(row.to_row())).unwrap();
            for split in [0, 1, 1000, 2999] {
                let mut db = Database::new(&Flash::small(256), &RamBudget::new(64 * 1024));
                db.create_table("T", table.schema().clone()).unwrap();
                for (i, row) in rows.iter().enumerate() {
                    if i == split {
                        db.create_index("T", column).unwrap();
                    }
                    db.insert("T", row.clone()).unwrap();
                }
                db.reorganize_index("T", column).unwrap();
                assert_eq!(index_pages_digest(&db), golden, "{column} from {split}");
            }
        }
    }

    /// The tree's entries in key order, read back leaf by leaf.
    fn tree_entries(db: &Database, column: &str) -> Vec<(Vec<u8>, RowId)> {
        let t = db.table_idx("T").unwrap();
        let c = db.tables[t].column(column).unwrap();
        let tree = db.indexes[&(t, c)].tree.as_ref().unwrap();
        tree.entries(&db.ram).unwrap().map(Result::unwrap).collect()
    }

    #[test]
    fn tree_entries_and_answers_are_pinned() {
        let n = |v: u64| Value::U64(v);
        let s = Value::str;
        for (column, preds, golden) in [
            (
                "n",
                [
                    Predicate::eq("n", n(0)),
                    Predicate::eq("n", n(17)),
                    Predicate::eq("n", n(399)),
                    Predicate::eq("n", n(400)),
                    Predicate::between("n", n(100), n(130)),
                    Predicate::between("n", n(0), n(5)),
                    Predicate::between("n", n(390), n(1000)),
                ],
                "81ac4be2d3af0ba67597202bb4b09474eddc2e21e424c6b9685a3f5ed47b7476",
            ),
            (
                "s",
                [
                    Predicate::eq("s", s("s17s17s17")),
                    Predicate::eq("s", s("s0")),
                    Predicate::eq("s", s("s299s299")),
                    Predicate::eq("s", s("nope")),
                    Predicate::between("s", s("s2"), s("s3")),
                    Predicate::between("s", s(""), s("s1")),
                    Predicate::between("s", s("s9"), s("zz")),
                ],
                "501309ae7d035d7ba0fa9e7197cdb6a63950f698b06f62a48c0c0ab896782cbc",
            ),
        ] {
            // A tree over the rows, then a delta folded into the next
            // generation: entries and answers of both.
            let mut db = tree_golden_table();
            db.create_index("T", column).unwrap();
            let mut pinned = vec![format!("{:?}", tree_entries(&db, column))];
            for (i, v) in (0..400u64).enumerate() {
                let row = vec![n(v * 7 % 400), Value::Str(format!("s{}", i % 300))];
                db.insert("T", row).unwrap();
            }
            for _ in 0..2 {
                for pred in &preds {
                    pinned.push(format!("{:?}", db.select("T", pred).unwrap()));
                }
                db.reorganize_index("T", column).unwrap();
            }
            pinned.push(format!("{:?}", tree_entries(&db, column)));
            assert_eq!(crate::debug_digest(&pinned), golden, "{column}");
        }
    }

    /// The differential's predicates over a `day` column whose values
    /// run `first..=last` around `mid`, and a `who` column.
    fn differential_preds(first: u64, mid: u64, last: u64) -> Vec<Predicate> {
        let day = |lo: u64, hi: u64| Predicate::between("day", Value::U64(lo), Value::U64(hi));
        vec![
            Predicate::eq("day", Value::U64(7)),
            Predicate::eq("day", Value::U64(1000)),
            Predicate::eq("day", Value::U64(first)),
            Predicate::eq("day", Value::U64(mid)),
            Predicate::eq("day", Value::U64(last)),
            Predicate::eq("day", Value::str("7")),
            Predicate::eq("who", Value::str("w3")),
            Predicate::eq("who", Value::str("nobody")),
            day(0, u64::MAX),
            day(5, 9),
            day(9, 5),
            day(0, first.saturating_sub(1)),
            day(first.saturating_sub(3), first + 2),
            day(mid.saturating_sub(2), mid + 2),
            day(last.saturating_sub(2), last + 3),
            day(last + 1, last + 100),
            Predicate::between("who", Value::str("w1"), Value::str("w4")),
            Predicate::between("who", Value::str(""), Value::str("zzzz")),
            Predicate::between("day", Value::str("a"), Value::str("b")),
            Predicate::between("day", Value::U64(mid), Value::str("z")),
            Predicate::between("day", Value::str("a"), Value::U64(mid)),
        ]
    }

    #[test]
    fn insert_index_insert_reorganize_insert_equals_the_reference_sweep() {
        use pds_obs::rng::{Rng, SeedableRng, StdRng};
        for case in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(0xDE17_A000 + case);
            let in_order = case % 3 == 0;
            let f = Flash::small(512);
            let mut db = Database::new(&f, &RamBudget::new(64 * 1024));
            db.create_table(
                "T",
                Schema::new(&[
                    ("day", ColumnType::U64),
                    ("who", ColumnType::Str),
                    ("note", ColumnType::Str),
                ]),
            )
            .unwrap();
            let mut days: Vec<u64> = Vec::new();
            let steps = [
                "insert",
                "index",
                "insert",
                "reorganize",
                "insert",
                "reorganize",
            ];
            for (step, action) in steps.into_iter().enumerate() {
                match action {
                    "index" => {
                        db.create_index("T", "day").unwrap();
                        db.create_index("T", "who").unwrap();
                    }
                    "reorganize" => {
                        db.reorganize_index("T", "day").unwrap();
                        db.reorganize_index("T", "who").unwrap();
                    }
                    _ => {
                        // The first batch is empty in every fourth case.
                        let rows = match (step, case % 4) {
                            (0, 1) => 0,
                            _ => rng.gen_range(0..150),
                        };
                        for _ in 0..rows {
                            let day = match in_order {
                                true => days.last().map_or(10, |d| d + rng.gen_range(0..2u64)),
                                false => rng.gen_range(0..60),
                            };
                            days.push(day);
                            let note = match rng.gen_range(0..12u32) {
                                0 => "né".repeat(300),
                                n => "x".repeat(n as usize * 5),
                            };
                            let who = format!("w{}", rng.gen_range(0..6u32));
                            let row = vec![Value::U64(day), Value::Str(who), Value::Str(note)];
                            db.insert("T", row).unwrap();
                        }
                    }
                }
                let first = days.first().copied().unwrap_or(10);
                let last = days.iter().copied().max().unwrap_or(10);
                for pred in differential_preds(first, (first + last) / 2, last) {
                    assert_eq!(
                        db.select("T", &pred).unwrap(),
                        reference_select(&db, "T", &pred),
                        "case {case} after {action} {step}: {pred:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_tree_select_charges_the_page_its_descent_holds() {
        let mut db = db_with_customers(300);
        db.create_index("CUSTOMER", "city").unwrap();
        let lyon = Predicate::eq("city", Value::str("Lyon"));
        let page = db.flash.geometry().page_size;
        let ballast = db.ram.reserve(db.ram.available() - page + 1).unwrap();
        let err = db.select("CUSTOMER", &lyon).unwrap_err();
        assert!(matches!(err, DbError::Ram(_)), "{err:?}");
        drop(ballast);
        let ballast = db.ram.reserve(db.ram.available() - page).unwrap();
        assert_eq!(db.select("CUSTOMER", &lyon).unwrap().len(), 75);
        drop(ballast);
    }

    #[test]
    fn plan_ladder_full_scan_summary_tree() {
        let mut db = db_with_customers(500);
        let pred = Predicate::eq("city", Value::str("Lyon"));
        let plan = |db: &Database| db.explain("CUSTOMER", &pred).unwrap();
        assert_eq!(plan(&db), QueryPlan::FullScan);
        let scan = db.select("CUSTOMER", &pred).unwrap();

        // Indexed while empty and filled by inserts: the delta alone.
        let mut filled = db_with_customers(0);
        filled.create_index("CUSTOMER", "city").unwrap();
        for i in 0..500 {
            filled.insert("CUSTOMER", customer(i)).unwrap();
        }
        assert_eq!(plan(&filled), QueryPlan::SummaryScan);
        let summary = filled.select("CUSTOMER", &pred).unwrap();

        // The delta folded into a tree.
        filled.reorganize_index("CUSTOMER", "city").unwrap();
        assert_eq!(plan(&filled), QueryPlan::TreeLookup);
        let tree = filled.select("CUSTOMER", &pred).unwrap();

        // Indexed over the rows it holds: a tree at once.
        db.create_index("CUSTOMER", "city").unwrap();
        assert_eq!(plan(&db), QueryPlan::TreeLookup);
        let built = db.select("CUSTOMER", &pred).unwrap();

        assert_eq!(scan.len(), 125);
        assert_eq!(scan, summary);
        assert_eq!(scan, tree);
        assert_eq!(scan, built);
    }

    #[test]
    fn an_index_no_tree_can_hold_leaves_the_column_as_it_was() {
        // 300-byte values: a leaf takes one entry and an internal page
        // one separator, so the tree's levels never shrink.
        let f = Flash::small(512);
        let mut db = Database::new(&f, &RamBudget::new(64 * 1024));
        let schema = Schema::new(&[("s", ColumnType::Str)]);
        db.create_table("T", schema).unwrap();
        db.create_index("T", "s").unwrap();
        for i in 0..40 {
            db.insert("T", vec![Value::Str(format!("{i:0300}"))])
                .unwrap();
        }
        let pred = Predicate::eq("s", Value::Str(format!("{:0300}", 17)));
        let state = |db: &Database| {
            let rows = db.select("T", &pred).unwrap();
            (db.explain("T", &pred).unwrap(), rows, f.free_blocks())
        };
        let before = state(&db);
        assert_eq!(before.0, QueryPlan::SummaryScan);
        assert_eq!(before.1.len(), 1);
        let err = db.create_index("T", "s").err();
        assert!(
            matches!(
                err,
                Some(DbError::Flash(pds_flash::FlashError::RecordTooLarge {
                    len: 306,
                    max: 250
                }))
            ),
            "{err:?}"
        );
        assert_eq!(state(&db), before);
    }

    #[test]
    fn index_maintained_on_insert() {
        let mut db = db_with_customers(10);
        db.create_index("CUSTOMER", "city").unwrap();
        db.insert(
            "CUSTOMER",
            vec![Value::U64(10), Value::str("Lyon"), Value::str("AUTO")],
        )
        .unwrap();
        let hits = db
            .select("CUSTOMER", &Predicate::eq("city", Value::str("Lyon")))
            .unwrap();
        assert!(hits.iter().any(|(r, _)| *r == 10));
    }

    #[test]
    fn insert_into_reorganized_column_lands_in_the_delta() {
        let mut db = db_with_customers(50);
        db.create_index("CUSTOMER", "city").unwrap();
        let pages = db.flash.stats().page_programs;
        // Nothing inserted since the tree was built: nothing to fold.
        db.reorganize_index("CUSTOMER", "city").unwrap();
        assert_eq!(db.flash.stats().page_programs, pages);
        let lyon = Predicate::eq("city", Value::str("Lyon"));
        let by_tree = db.select("CUSTOMER", &lyon).unwrap();
        assert_eq!(by_tree.len(), 13);
        let row = vec![Value::U64(99), Value::str("Lyon"), Value::str("AUTO")];
        assert_eq!(db.insert("CUSTOMER", row.clone()).unwrap(), 50);
        // The tree's hits, then the delta's.
        let hits = db.select("CUSTOMER", &lyon).unwrap();
        assert_eq!(hits[..13], by_tree[..]);
        assert_eq!(hits[13..], [(50, row)]);
        assert_eq!(hits, reference_select(&db, "CUSTOMER", &lyon));
        // Folded into the next generation, the tree alone finds it.
        db.reorganize_index("CUSTOMER", "city").unwrap();
        assert_eq!(
            db.explain("CUSTOMER", &lyon).unwrap(),
            QueryPlan::TreeLookup
        );
        assert_eq!(db.select("CUSTOMER", &lyon).unwrap(), hits);
    }

    #[test]
    fn an_insert_after_reorganize_is_a_row_and_an_index_entry() {
        let mut db = db_with_customers(50);
        db.create_index("CUSTOMER", "city").unwrap();
        db.reorganize_index("CUSTOMER", "city").unwrap();
        let t = db.table("CUSTOMER").unwrap();
        assert_eq!(
            t.order(0),
            ColumnOrder::NonDecreasing { first: 0, last: 49 }
        );
        let row = vec![Value::U64(7), Value::str("Lyon"), Value::str("AUTO")];
        assert_eq!(db.insert("CUSTOMER", row.clone()).unwrap(), 50);
        // The row, and what it did to `id`'s order.
        let t = db.table("CUSTOMER").unwrap();
        assert_eq!((t.num_rows(), t.order(0)), (51, ColumnOrder::Unordered));
        let lyon = Predicate::eq("city", Value::str("Lyon"));
        let by_index = db.select("CUSTOMER", &lyon).unwrap();
        assert_eq!(by_index.len(), 14);
        assert_eq!(by_index.last(), Some(&(50, row)));
        assert_eq!(by_index, reference_select(&db, "CUSTOMER", &lyon));
    }

    #[test]
    fn unknown_names_error() {
        let db = db_with_customers(5);
        assert!(db
            .select("NOPE", &Predicate::eq("city", Value::str("Lyon")))
            .is_err());
        assert!(db
            .select("CUSTOMER", &Predicate::eq("nope", Value::str("x")))
            .is_err());
    }

    #[test]
    fn range_predicates_use_the_tree_and_match_scans() {
        // `id` arrives in order, so the table itself serves ranges on it,
        // tree or no tree: it reads the pages the range spans, where the
        // tree would fetch a row page per hit. Arriving shuffled, it is
        // scanned until a tree serves the range.
        for shuffled in [false, true] {
            let mut db = if shuffled {
                customers_with_ids(&Flash::small(2048), (0..300).map(|i| i * 7919 % 300))
            } else {
                db_with_customers(300)
            };
            let (unindexed, indexed) = if shuffled {
                (QueryPlan::FullScan, QueryPlan::TreeLookup)
            } else {
                (QueryPlan::OrderedScan, QueryPlan::OrderedScan)
            };
            let pred = Predicate::between("id", Value::U64(50), Value::U64(120));
            let plan = |db: &Database, pred| db.explain("CUSTOMER", pred).unwrap();
            assert_eq!(plan(&db, &pred), unindexed);
            let scan = db.select("CUSTOMER", &pred).unwrap();
            assert_eq!(scan.len(), 71);
            db.create_index("CUSTOMER", "id").unwrap();
            assert_eq!(plan(&db, &pred), indexed);
            assert_eq!(db.select("CUSTOMER", &pred).unwrap(), scan);
            // Equality takes the tree on either column.
            let eq = Predicate::eq("id", Value::U64(99));
            assert_eq!(plan(&db, &eq), QueryPlan::TreeLookup);
            assert_eq!(db.select("CUSTOMER", &eq).unwrap().len(), 1);
            // A row inside the range, below the last id: the column is
            // in order no more, and the tree with its delta serves the
            // range either way.
            db.insert("CUSTOMER", customer(77)).unwrap();
            assert_eq!(plan(&db, &pred), QueryPlan::TreeLookup);
            let rows = db.select("CUSTOMER", &pred).unwrap();
            assert_eq!(rows.len(), 72);
            assert_eq!(rows, reference_select(&db, "CUSTOMER", &pred));
        }
    }

    #[test]
    fn recover_restores_tables_and_drops_indexes() {
        let mut db = db_with_customers(300);
        db.create_index("CUSTOMER", "city").unwrap();
        db.reorganize_index("CUSTOMER", "id").unwrap_err(); // no index on id
        db.create_index("CUSTOMER", "id").unwrap();
        db.reorganize_index("CUSTOMER", "id").unwrap();
        db.flush().unwrap();
        let pred = Predicate::eq("city", Value::str("Lyon"));
        let before = db.select("CUSTOMER", &pred).unwrap();
        let manifest = db.manifest();

        let rebooted = db.flash.reboot();
        let free_after_reboot = rebooted.free_blocks();
        let ram = RamBudget::new(64 * 1024);
        let (mut rec, losses, mvcc_rep) =
            Database::recover(&rebooted, &ram, &manifest, None).unwrap();
        assert_eq!(losses, vec![("CUSTOMER".to_string(), 0)]);
        assert!(mvcc_rep.is_none(), "MVCC was never enabled");
        // Indexes are gone (their programmed blocks, orphaned by the
        // reboot scan, are back in the pool) but the planner ladder
        // climbs again from a scan.
        assert_eq!(rec.explain("CUSTOMER", &pred).unwrap(), QueryPlan::FullScan);
        assert_eq!(rec.select("CUSTOMER", &pred).unwrap(), before);
        assert_eq!(
            rec.flash().free_blocks(),
            free_after_reboot + manifest.index_blocks.len()
        );
        rec.create_index("CUSTOMER", "city").unwrap();
        assert_eq!(rec.select("CUSTOMER", &pred).unwrap(), before);
        // And the recovered table keeps accepting rows.
        rec.insert(
            "CUSTOMER",
            vec![Value::U64(300), Value::str("Lyon"), Value::str("AUTO")],
        )
        .unwrap();
        assert_eq!(rec.table("CUSTOMER").unwrap().num_rows(), 301);
    }

    #[test]
    fn snapshot_reads_ignore_later_commits_on_every_plan() {
        let mut db = db_with_customers(200);
        db.enable_mvcc(9);
        db.commit().unwrap();
        let snap = db.snapshot().unwrap();
        let pred = Predicate::eq("city", Value::str("Lyon"));
        let at_snap = db.select_at(&snap, "CUSTOMER", &pred).unwrap();
        assert_eq!(at_snap.len(), 50);

        // 100 more Lyon rows land and commit; the snapshot is blind to
        // them under scan, summary and tree plans alike.
        for i in 200..300u64 {
            db.insert(
                "CUSTOMER",
                vec![Value::U64(i), Value::str("Lyon"), Value::str("AUTO")],
            )
            .unwrap();
        }
        db.commit().unwrap();
        assert_eq!(db.select_at(&snap, "CUSTOMER", &pred).unwrap(), at_snap);
        db.create_index("CUSTOMER", "city").unwrap();
        assert_eq!(db.select_at(&snap, "CUSTOMER", &pred).unwrap(), at_snap);
        db.reorganize_index("CUSTOMER", "city").unwrap();
        assert_eq!(db.select_at(&snap, "CUSTOMER", &pred).unwrap(), at_snap);
        // A fresh snapshot sees everything.
        let now = db.snapshot().unwrap();
        assert_eq!(db.select_at(&now, "CUSTOMER", &pred).unwrap().len(), 150);
        db.release(&snap);
        db.release(&now);
    }

    #[test]
    fn mvcc_state_survives_recovery() {
        let mut db = db_with_customers(100);
        db.enable_mvcc(4);
        let c1 = db.commit().unwrap().unwrap();
        db.insert(
            "CUSTOMER",
            vec![Value::U64(100), Value::str("Lyon"), Value::str("AUTO")],
        )
        .unwrap();
        let c2 = db.commit().unwrap().unwrap();
        db.flush().unwrap();
        let manifest = db.manifest();

        let rebooted = db.flash.reboot();
        let ram = RamBudget::new(64 * 1024);
        let (mut rec, losses, mvcc_rep) =
            Database::recover(&rebooted, &ram, &manifest, None).unwrap();
        assert_eq!(losses, vec![("CUSTOMER".to_string(), 0)]);
        let rep = mvcc_rep.unwrap();
        assert_eq!(rep.changes_recovered, 101);
        assert_eq!(rep.changes_dropped, 0);
        // The change cursor picks up exactly where it left off.
        let after_c1 = rec.changes_since(c1).unwrap();
        assert_eq!(after_c1.len(), 1);
        assert_eq!(after_c1[0].entity, 100);
        assert_eq!(rec.changes_since(c2).unwrap(), vec![]);
        // And the next commit stamps strictly after the recovered history.
        rec.insert(
            "CUSTOMER",
            vec![Value::U64(101), Value::str("Nice"), Value::str("AUTO")],
        )
        .unwrap();
        let c3 = rec.commit().unwrap().unwrap();
        assert!(c3 > c2);
    }

    #[test]
    fn mvcc_calls_error_when_disabled() {
        let mut db = db_with_customers(5);
        assert!(matches!(db.commit(), Err(DbError::MvccDisabled)));
        assert!(matches!(db.snapshot(), Err(DbError::MvccDisabled)));
        assert!(matches!(
            db.changes_since(Hlc::ZERO),
            Err(DbError::MvccDisabled)
        ));
    }

    #[test]
    fn index_build_on_a_full_chip_is_an_error_and_leaks_nothing() {
        // The chip is left `spare` free blocks, from none up to the first
        // count the build fits in, and every build short of it must stop
        // at its first failed program and hand back every block it took.
        // 400 rows sort as one run, so the builds fail in it, the tree's
        // log and its level log; 1 800 rows sort as four runs and a
        // merge, and fail in those (the runs go back before the tree is
        // built, which then has room). Ids in order or pairwise swapped:
        // the column stays unindexed, and the planner falls back to the
        // ordered scan or the full scan.
        for (swapped, plan) in [(false, QueryPlan::OrderedScan), (true, QueryPlan::FullScan)] {
            for (rows, fits) in [(400, 3), (1800, 11)] {
                let f = Flash::small(32);
                let ids = (0..rows).map(|i| if swapped { i ^ 1 } else { i });
                let mut db = customers_with_ids(&f, ids);
                db.flush().unwrap();
                let pred = Predicate::eq("id", Value::U64(7));
                let mut spare = 0;
                loop {
                    let held: Vec<BlockId> = std::iter::repeat_with(|| f.alloc_block().unwrap())
                        .take(f.free_blocks() - spare)
                        .collect();
                    let built = db.create_index("CUSTOMER", "id");
                    let free = f.free_blocks();
                    held.into_iter().for_each(|b| f.free_block(b));
                    let Err(err) = built else { break };
                    let ctx = format!("{rows} rows, {spare} spare");
                    assert!(
                        matches!(err, DbError::Flash(pds_flash::FlashError::OutOfBlocks)),
                        "{ctx}: {err:?}"
                    );
                    assert_eq!(free, spare, "{ctx}: the partial index was discarded");
                    assert_eq!(db.explain("CUSTOMER", &pred).unwrap(), plan, "{ctx}");
                    assert_eq!(db.select("CUSTOMER", &pred).unwrap().len(), 1, "{ctx}");
                    spare += 1;
                }
                assert_eq!(spare, fits, "{rows} rows, swapped {swapped}");
                assert_eq!(
                    db.explain("CUSTOMER", &pred).unwrap(),
                    QueryPlan::TreeLookup
                );
                assert_eq!(db.select("CUSTOMER", &pred).unwrap().len(), 1);
            }
        }
    }

    #[test]
    fn indexes_on_multiple_columns_coexist() {
        let mut db = db_with_customers(200);
        db.create_index("CUSTOMER", "city").unwrap();
        db.create_index("CUSTOMER", "segment").unwrap();
        let by_city = db
            .select("CUSTOMER", &Predicate::eq("city", Value::str("Nice")))
            .unwrap();
        let by_seg = db
            .select("CUSTOMER", &Predicate::eq("segment", Value::str("AUTO")))
            .unwrap();
        assert_eq!(by_city.len(), 50);
        assert_eq!(by_seg.len(), 100);
    }
}
