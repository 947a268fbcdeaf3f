//! Tselect / Tjoin — the climbing indexes of the SPJ slide.
//!
//! "Join algorithms consume lots of RAM … Q3: how to compute
//! select-project-join queries in pipeline?" The tutorial's answer, for an
//! acyclic schema rooted at the query root table:
//!
//! * **Tjoin (generalized join index)** — "each rowid of the root table
//!   contains the rowids of the tuples it refers to in the subtree".
//!   One fixed-size record per root tuple, addressed by its ordinal:
//!   dereferencing a root tuple to its full join context costs one
//!   verified page read.
//! * **Tselect** — a selection index on *any* table of the tree whose
//!   entries are **sorted rowids of the root table**: "each key of the
//!   index contains the rowids of the query root table referring to that
//!   key".
//!
//! Execution is then a pure pipeline: the sorted root-rowid lists produced
//! by the Tselect indexes are merge-intersected (no RAM-hungry sort — the
//! lists are "sorted row ids!" by construction), and each surviving root
//! rowid is dereferenced through Tjoin.
//!
//! Foreign keys in this crate hold the *rowid* of the referenced tuple
//! (the generators emit dense keys equal to rowids); a key-valued FK would
//! add one index lookup at Tjoin-build time and change nothing else.

use pds_flash::{Flash, Log};
use pds_mcu::RamBudget;
use pds_obs::wire::Reader;

use crate::error::DbError;
use crate::reorg::{sort_entries, tree_over};
use crate::sort::seal_or_discard;
use crate::table::{RowId, Table};
use crate::tree::TreeIndex;
use crate::value::{Row, Value};

/// An acyclic schema tree rooted at the query root table.
pub struct SchemaTree {
    tables: Vec<String>,
    root: usize,
    /// `refs[t]` = (fk column index in `t`, referenced table index).
    refs: Vec<Vec<(usize, usize)>>,
    /// Tables in resolution order (root first, parents before the tables
    /// they are referenced from — i.e. DFS from the root).
    order: Vec<usize>,
}

/// Builder for [`SchemaTree`].
pub struct SchemaTreeBuilder {
    root: String,
    references: Vec<(String, String, String)>,
}

impl SchemaTree {
    /// Start building a tree rooted at `root` (the query root table).
    pub fn rooted_at(root: &str) -> SchemaTreeBuilder {
        SchemaTreeBuilder {
            root: root.to_string(),
            references: Vec::new(),
        }
    }

    /// Index of a table by name.
    pub fn table_index(&self, name: &str) -> Option<usize> {
        self.tables.iter().position(|t| t == name)
    }

    /// The root table index.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Ancestor tables (everything except the root), in Tjoin entry order.
    pub fn ancestors(&self) -> &[usize] {
        &self.order[1..]
    }

    /// All tables in resolution order (root first).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Table name by index.
    pub fn table_name(&self, idx: usize) -> &str {
        &self.tables[idx]
    }

    /// Resolve the rowids of every table of the tree for root row `r`,
    /// reading each ancestor tuple once. Returns rowids aligned with
    /// [`order`](Self::order).
    fn resolve(&self, tables: &[&Table], r: RowId) -> Result<Vec<RowId>, DbError> {
        let mut rowids = vec![u32::MAX; self.tables.len()];
        rowids[self.root] = r;
        for &t in &self.order {
            if self.refs[t].is_empty() {
                continue;
            }
            let row = tables[t].get(rowids[t])?;
            for &(col, to) in &self.refs[t] {
                let fk = row[col]
                    .as_u64()
                    .ok_or(DbError::Corrupt("non-integer foreign key"))?;
                rowids[to] = fk as RowId;
            }
        }
        Ok(self.order.iter().map(|&t| rowids[t]).collect())
    }
}

impl SchemaTreeBuilder {
    /// Declare `from.fk_col` references `to`.
    pub fn reference(mut self, from: &str, fk_col: &str, to: &str) -> Self {
        self.references
            .push((from.to_string(), fk_col.to_string(), to.to_string()));
        self
    }

    /// Resolve names against the actual tables and produce the tree.
    pub fn build(self, tables: &[&Table]) -> Result<SchemaTree, DbError> {
        let names: Vec<String> = tables.iter().map(|t| t.name().to_string()).collect();
        let find = |n: &str| -> Result<usize, DbError> {
            names
                .iter()
                .position(|x| x == n)
                .ok_or_else(|| DbError::UnknownTable(n.to_string()))
        };
        let root = find(&self.root)?;
        let mut refs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); names.len()];
        for (from, col, to) in &self.references {
            let f = find(from)?;
            let t = find(to)?;
            let c = tables[f].column(col)?;
            refs[f].push((c, t));
        }
        // DFS from the root.
        let mut order = Vec::new();
        let mut stack = vec![root];
        let mut seen = vec![false; names.len()];
        while let Some(t) = stack.pop() {
            if seen[t] {
                continue;
            }
            seen[t] = true;
            order.push(t);
            for &(_, to) in refs[t].iter().rev() {
                stack.push(to);
            }
        }
        Ok(SchemaTree {
            tables: names,
            root,
            refs,
            order,
        })
    }
}

/// The generalized join index: root rowid → ancestor rowids, one page
/// read per dereference. Root row `r`'s ancestor rowids are record `r`
/// of a sealed record log, `u32` each.
pub struct TjoinIndex {
    log: Log,
    /// Ancestor table indexes, the layout of each record.
    ancestors: Vec<usize>,
}

impl TjoinIndex {
    /// Build the index by resolving every root tuple's subtree.
    pub fn build(
        flash: &Flash,
        tree: &SchemaTree,
        tables: &[&Table],
    ) -> Result<TjoinIndex, DbError> {
        let mut log = flash.new_log();
        let written = (0..tables[tree.root()].num_rows()).try_for_each(|r| {
            let rowids = tree.resolve(tables, r)?;
            let rec: Vec<u8> = rowids[1..]
                .iter()
                .flat_map(|rid| rid.to_le_bytes())
                .collect();
            log.append(&rec)?;
            Ok(())
        });
        Ok(TjoinIndex {
            log: seal_or_discard(log, written)?,
            ancestors: tree.ancestors().to_vec(),
        })
    }

    /// Number of root tuples indexed.
    pub fn num_entries(&self) -> u32 {
        self.log.num_records() as u32
    }

    /// Ancestor table layout of each entry.
    pub fn ancestors(&self) -> &[usize] {
        &self.ancestors
    }

    /// Ancestor rowids of root row `r` (one page read). A rowid past the
    /// last root row is [`FlashError::BadRecordAddr`](pds_flash::FlashError),
    /// as [`Table::get`] answers it.
    pub fn get(&self, r: RowId) -> Result<Vec<RowId>, DbError> {
        let rowids = self.log.get_with(r, &mut Vec::new(), |_, rec| {
            let mut rec = Reader::new(rec);
            let rowids: Option<Vec<RowId>> = self.ancestors.iter().map(|_| rec.u32()).collect();
            rec.finish().and(rowids)
        })?;
        rowids.ok_or(DbError::Corrupt("tjoin record"))
    }
}

/// A selection index on any table of the tree, keyed by an attribute and
/// listing *sorted root rowids*.
pub struct TselectIndex {
    tree_index: TreeIndex,
    /// The table the predicate applies to.
    pub table: usize,
    /// The predicate column within that table.
    pub column: usize,
}

impl TselectIndex {
    /// Build a Tselect on `table_name.column` over the whole root table.
    pub fn build(
        flash: &Flash,
        ram: &RamBudget,
        tree: &SchemaTree,
        tables: &[&Table],
        table_name: &str,
        column: &str,
    ) -> Result<TselectIndex, DbError> {
        let t = tree
            .table_index(table_name)
            .ok_or_else(|| DbError::UnknownTable(table_name.to_string()))?;
        let c = tables[t].column(column)?;
        let pos_in_order = tree
            .order()
            .iter()
            .position(|&x| x == t)
            .ok_or_else(|| DbError::NotInSchemaTree(table_name.to_string()))?;
        // Sort the (key, root_rowid) pairs as they are resolved —
        // construction uses only log structures.
        let sorted = sort_entries(flash, ram, |runs| {
            for r in 0..tables[tree.root()].num_rows() {
                let rowids = tree.resolve(tables, r)?;
                let target_row = tables[t].get(rowids[pos_in_order])?;
                runs.push(target_row[c].to_key_bytes(), r)?;
            }
            Ok(())
        })?;
        Ok(TselectIndex {
            tree_index: tree_over(flash, ram, sorted, None)?,
            table: t,
            column: c,
        })
    }

    /// Sorted root rowids whose subtree reaches `key` on this attribute.
    pub fn lookup(&self, key: &Value) -> Result<Vec<RowId>, DbError> {
        self.tree_index.lookup(&key.to_key_bytes())
    }
}

/// One joined result: the root row followed by the ancestor rows in
/// [`SchemaTree::ancestors`] order.
pub type JoinedRow = Vec<Row>;

/// Execute a select-project-join in pipeline: merge-intersect the sorted
/// root-rowid lists of the Tselect predicates, then dereference each
/// survivor through Tjoin.
pub fn execute_spj(
    tree: &SchemaTree,
    tables: &[&Table],
    tjoin: &TjoinIndex,
    selects: &[(&TselectIndex, Value)],
) -> Result<Vec<JoinedRow>, DbError> {
    // pds-lint: allow(panic.assert) — query-plan shape check on the caller's
    // statically-built predicate list, not on stored data.
    assert!(!selects.is_empty(), "at least one predicate");
    // Sorted rowid streams from each Tselect.
    let lists: Vec<Vec<RowId>> = selects
        .iter()
        .map(|(idx, v)| idx.lookup(v))
        .collect::<Result<_, _>>()?;
    // Multi-way sorted intersection (the tutorial's "sorted row ids!").
    let survivors = intersect_sorted(&lists);
    let mut out = Vec::with_capacity(survivors.len());
    for r in survivors {
        let ancestor_rowids = tjoin.get(r)?;
        let mut joined: JoinedRow = Vec::with_capacity(1 + ancestor_rowids.len());
        joined.push(tables[tree.root()].get(r)?);
        for (&t, &rid) in tjoin.ancestors().iter().zip(&ancestor_rowids) {
            joined.push(tables[t].get(rid)?);
        }
        out.push(joined);
    }
    Ok(out)
}

/// Intersect ascending rowid lists by synchronized advance.
fn intersect_sorted(lists: &[Vec<RowId>]) -> Vec<RowId> {
    if lists.iter().any(|l| l.is_empty()) {
        return Vec::new();
    }
    let mut cursors = vec![0usize; lists.len()];
    let mut out = Vec::new();
    'outer: loop {
        let mut candidate = lists[0][cursors[0]];
        let mut advanced = true;
        while advanced {
            advanced = false;
            for (i, list) in lists.iter().enumerate() {
                while list[cursors[i]] < candidate {
                    cursors[i] += 1;
                    if cursors[i] >= list.len() {
                        break 'outer;
                    }
                }
                if list[cursors[i]] > candidate {
                    candidate = list[cursors[i]];
                    advanced = true;
                }
            }
        }
        out.push(candidate);
        for (i, list) in lists.iter().enumerate() {
            cursors[i] += 1;
            if cursors[i] >= list.len() {
                break 'outer;
            }
        }
    }
    out
}

/// Baseline for experiment E4: the same SPJ with no climbing indexes —
/// full scan of the root table, per-row dereference of every ancestor,
/// predicate checks on the materialized join.
pub fn execute_spj_naive(
    tree: &SchemaTree,
    tables: &[&Table],
    selects: &[(usize, usize, Value)],
) -> Result<Vec<JoinedRow>, DbError> {
    let root = tree.root();
    let n = tables[root].num_rows();
    // Resolve each predicate's table to its slot in the join order once,
    // up front; a predicate on a table outside the tree is a caller error,
    // not a reason to panic mid-scan.
    let positions: Vec<usize> = selects
        .iter()
        .map(|(t, _, _)| {
            tree.order()
                .iter()
                .position(|x| x == t)
                .ok_or_else(|| DbError::NotInSchemaTree(format!("table #{t}")))
        })
        .collect::<Result<_, _>>()?;
    let mut out = Vec::new();
    for r in 0..n {
        let rowids = tree.resolve(tables, r)?;
        let rows: Vec<Row> = tree
            .order()
            .iter()
            .zip(&rowids)
            .map(|(&t, &rid)| tables[t].get(rid))
            .collect::<Result<_, _>>()?;
        let keep = selects
            .iter()
            .zip(&positions)
            .all(|((_, c, v), &pos)| &rows[pos][*c] == v);
        if keep {
            out.push(rows);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ColumnType, Schema};
    use pds_flash::FlashError;

    /// Tiny 3-level schema: LINE → ORDER → CUSTOMER.
    fn setup() -> (Flash, RamBudget, Vec<Table>) {
        let f = Flash::small(1024);
        let ram = RamBudget::new(64 * 1024);
        let mut customer = Table::new(
            &f,
            "CUSTOMER",
            Schema::new(&[("ckey", ColumnType::U64), ("segment", ColumnType::Str)]),
        );
        let mut orders = Table::new(
            &f,
            "ORDERS",
            Schema::new(&[("okey", ColumnType::U64), ("ckey", ColumnType::U64)]),
        );
        let mut line = Table::new(
            &f,
            "LINEITEM",
            Schema::new(&[
                ("okey", ColumnType::U64),
                ("qty", ColumnType::U64),
                ("color", ColumnType::Str),
            ]),
        );
        // 4 customers, alternating segments.
        for c in 0..4u64 {
            let seg = if c % 2 == 0 { "HOUSEHOLD" } else { "AUTO" };
            customer
                .insert(&vec![Value::U64(c), Value::str(seg)])
                .unwrap();
        }
        // 8 orders, round-robin customers.
        for o in 0..8u64 {
            orders
                .insert(&vec![Value::U64(o), Value::U64(o % 4)])
                .unwrap();
        }
        // 24 lineitems, 3 per order, alternating colors.
        for l in 0..24u64 {
            let color = if l % 3 == 0 { "red" } else { "blue" };
            line.insert(&vec![Value::U64(l / 3), Value::U64(l), Value::str(color)])
                .unwrap();
        }
        (f, ram, vec![customer, orders, line])
    }

    fn tree_of(tables: &[&Table]) -> SchemaTree {
        SchemaTree::rooted_at("LINEITEM")
            .reference("LINEITEM", "okey", "ORDERS")
            .reference("ORDERS", "ckey", "CUSTOMER")
            .build(tables)
            .unwrap()
    }

    #[test]
    fn schema_tree_resolution_order() {
        let (_f, _ram, tables) = setup();
        let refs: Vec<&Table> = tables.iter().collect();
        let tree = tree_of(&refs);
        assert_eq!(tree.table_name(tree.root()), "LINEITEM");
        let names: Vec<&str> = tree.order().iter().map(|&t| tree.table_name(t)).collect();
        assert_eq!(names, vec!["LINEITEM", "ORDERS", "CUSTOMER"]);
    }

    #[test]
    fn tjoin_dereferences_in_one_read() {
        let (f, _ram, tables) = setup();
        let refs: Vec<&Table> = tables.iter().collect();
        let tree = tree_of(&refs);
        let tjoin = TjoinIndex::build(&f, &tree, &refs).unwrap();
        assert_eq!(tjoin.num_entries(), 24);
        // Lineitem 10 → order 3 → customer 3.
        let before = f.stats();
        let anc = tjoin.get(10).unwrap();
        assert_eq!((f.stats() - before).page_reads, 1);
        assert_eq!(anc, vec![3, 3]);
    }

    #[test]
    fn a_root_rowid_past_the_end_is_a_bad_address_as_in_the_table() {
        let (f, _ram, tables) = setup();
        let refs: Vec<&Table> = tables.iter().collect();
        let tree = tree_of(&refs);
        let tjoin = TjoinIndex::build(&f, &tree, &refs).unwrap();
        let past = tjoin.num_entries();
        let root = &refs[tree.root()];
        assert_eq!(root.get(past).unwrap_err(), FlashError::BadRecordAddr);
        for r in [past, past + 1, RowId::MAX] {
            let err = tjoin.get(r).unwrap_err();
            assert!(
                matches!(err, DbError::Flash(FlashError::BadRecordAddr)),
                "{err:?}"
            );
        }
    }

    #[test]
    fn tselect_returns_sorted_root_rowids() {
        let (f, ram, tables) = setup();
        let refs: Vec<&Table> = tables.iter().collect();
        let tree = tree_of(&refs);
        let tsel = TselectIndex::build(&f, &ram, &tree, &refs, "CUSTOMER", "segment").unwrap();
        let rowids = tsel.lookup(&Value::str("HOUSEHOLD")).unwrap();
        // Customers 0 and 2 → orders 0,2,4,6 → lineitems 0..3×order.
        let expected: Vec<RowId> = (0..24u32).filter(|l| (l / 3) % 2 == 0).collect();
        assert_eq!(rowids, expected);
        assert!(rowids.windows(2).all(|w| w[0] < w[1]), "sorted");
    }

    #[test]
    fn spj_matches_naive_baseline() {
        let (f, ram, tables) = setup();
        let refs: Vec<&Table> = tables.iter().collect();
        let tree = tree_of(&refs);
        let tjoin = TjoinIndex::build(&f, &tree, &refs).unwrap();
        let seg_idx = TselectIndex::build(&f, &ram, &tree, &refs, "CUSTOMER", "segment").unwrap();
        let color_idx = TselectIndex::build(&f, &ram, &tree, &refs, "LINEITEM", "color").unwrap();
        let fast = execute_spj(
            &tree,
            &refs,
            &tjoin,
            &[
                (&seg_idx, Value::str("HOUSEHOLD")),
                (&color_idx, Value::str("red")),
            ],
        )
        .unwrap();
        let cust = tree.table_index("CUSTOMER").unwrap();
        let li = tree.table_index("LINEITEM").unwrap();
        let naive = execute_spj_naive(
            &tree,
            &refs,
            &[
                (cust, 1, Value::str("HOUSEHOLD")),
                (li, 2, Value::str("red")),
            ],
        )
        .unwrap();
        assert_eq!(fast.len(), naive.len());
        assert!(!fast.is_empty());
        for (a, b) in fast.iter().zip(&naive) {
            assert_eq!(a, b);
        }
        // Every result satisfies both predicates.
        for joined in &fast {
            assert_eq!(joined[0][2], Value::str("red"));
            assert_eq!(joined[2][1], Value::str("HOUSEHOLD"));
        }
    }

    #[test]
    fn empty_intersection() {
        let (f, ram, tables) = setup();
        let refs: Vec<&Table> = tables.iter().collect();
        let tree = tree_of(&refs);
        let tjoin = TjoinIndex::build(&f, &tree, &refs).unwrap();
        let seg_idx = TselectIndex::build(&f, &ram, &tree, &refs, "CUSTOMER", "segment").unwrap();
        let res = execute_spj(
            &tree,
            &refs,
            &tjoin,
            &[(&seg_idx, Value::str("NO-SUCH-SEGMENT"))],
        )
        .unwrap();
        assert!(res.is_empty());
    }

    #[test]
    fn intersect_sorted_cases() {
        assert_eq!(
            intersect_sorted(&[vec![1, 3, 5, 7], vec![3, 4, 5], vec![0, 3, 5, 9]]),
            vec![3, 5]
        );
        assert_eq!(intersect_sorted(&[vec![1, 2], vec![]]), Vec::<RowId>::new());
        assert_eq!(intersect_sorted(&[vec![4, 8]]), vec![4, 8]);
        assert_eq!(
            intersect_sorted(&[vec![1, 2, 3], vec![4, 5]]),
            Vec::<RowId>::new()
        );
    }

    #[test]
    fn builder_rejects_unknown_names() {
        let (_f, _ram, tables) = setup();
        let refs: Vec<&Table> = tables.iter().collect();
        assert!(matches!(
            SchemaTree::rooted_at("NOPE").build(&refs),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            SchemaTree::rooted_at("LINEITEM")
                .reference("LINEITEM", "nocol", "ORDERS")
                .build(&refs),
            Err(DbError::UnknownColumn { .. })
        ));
    }
}
