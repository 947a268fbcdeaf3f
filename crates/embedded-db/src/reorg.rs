//! Index reorganization: sequential PBFilter → B-tree-like index.
//!
//! "Scalability ⇒ timely reorganize the index … to transform it into a
//! more efficient index. The reorganization process: only uses log
//! structures; background / interruptible."
//!
//! Two phases, exactly the tutorial's:
//!
//! 1. **Sort** the `(key, pointer)` pairs of the Keys log into a «Sorted
//!    Keys» log ([`crate::sort::external_sort`] — temporary runs are logs,
//!    reclaimed at block grain).
//! 2. **Build the key hierarchy** above the sorted leaves
//!    ([`crate::tree::TreeIndex::build`] — every page appended once).
//!
//! The source index stays fully queryable until the caller swaps it for
//! the returned tree, so an interruption at any point simply discards
//! partial logs and leaves the system as it was — the interruptibility
//! the tutorial requires. [`Reorganization`] exposes the phase boundary so
//! a test can interrupt between them; E2 runs the whole of [`reorganize`].
//!
//! A column index of [`Database`](crate::Database) is a tree generation
//! plus the PBFilter *delta* its later inserts go to. The next
//! generation sorts only the delta: the old tree's leaves are already in
//! order, and every rowid of the delta is above every rowid of the tree,
//! so one merge of the two streams is the sorted input of the new tree —
//! the very tree a sort of everything would have built.

use pds_flash::{Flash, Log};
use pds_mcu::RamBudget;

use crate::error::DbError;
use crate::pbfilter::PBFilter;
use crate::sort::{decode_entry, sort_with, Runs, SortEntry};
use crate::tree::TreeIndex;

/// RAM granted to run formation during the sort phase.
const RUN_BYTES: usize = 8 * 1024;
/// Merge fan-in (one RAM page per merged run).
const FAN_IN: usize = 8;

/// One-shot reorganization: PBFilter in, TreeIndex out.
pub fn reorganize(flash: &Flash, ram: &RamBudget, source: &PBFilter) -> Result<TreeIndex, DbError> {
    next_generation(flash, ram, None, source)
}

/// The generation after `tree` (`None`: the first): `delta`'s entries
/// sorted, merged with `tree`'s into a new tree. Neither input changes;
/// the caller swaps the result in.
pub(crate) fn next_generation(
    flash: &Flash,
    ram: &RamBudget,
    tree: Option<&TreeIndex>,
    delta: &PBFilter,
) -> Result<TreeIndex, DbError> {
    let sorted = sort_index(flash, ram, delta)?;
    tree_over(flash, ram, sorted, tree)
}

/// Phase 1 over a PBFilter: its entries into a «Sorted Keys» log.
fn sort_index(flash: &Flash, ram: &RamBudget, source: &PBFilter) -> Result<Log, DbError> {
    sort_entries(flash, ram, |runs| {
        source.entries().try_for_each(|entry| {
            let (key, rowid) = entry?;
            runs.push(key, rowid)
        })
    })
}

/// Feed the `Ok` prefix of `stream` to `build`. The first `Err` ends the
/// stream early, so what `build` made of the cut-short input is
/// `discard`ed and that error is the result — flash can fail under a
/// builder that only knows how to consume entries.
fn build_from<T>(
    stream: impl Iterator<Item = Result<SortEntry, DbError>>,
    build: impl FnOnce(&mut dyn Iterator<Item = SortEntry>) -> Result<T, DbError>,
    discard: impl FnOnce(T),
) -> Result<T, DbError> {
    let mut first_err = None;
    let mut entries = stream.map_while(|entry| entry.map_err(|e| first_err = Some(e)).ok());
    let built = build(&mut entries)?;
    match first_err {
        None => Ok(built),
        Some(e) => {
            discard(built);
            Err(e)
        }
    }
}

/// Phase 1 for any entry source: sort the entries `fill` pushes into a
/// «Sorted Keys» log. When `fill` or the sort fails, no run is left
/// behind.
pub(crate) fn sort_entries(
    flash: &Flash,
    ram: &RamBudget,
    fill: impl FnOnce(&mut Runs) -> Result<(), DbError>,
) -> Result<Log, DbError> {
    sort_with(flash, ram, RUN_BYTES, FAN_IN, fill)
}

/// Phase 2: build the tree above a sorted log, reclaiming the log —
/// merged with the leaves of `below`, the previous generation, when
/// there is one (every rowid of `below` under every rowid of the log). A
/// record that is not an entry is [`DbError::Corrupt`], never a shorter
/// index.
pub(crate) fn tree_over(
    flash: &Flash,
    ram: &RamBudget,
    sorted: Log,
    below: Option<&TreeIndex>,
) -> Result<TreeIndex, DbError> {
    let tree = below
        .map(|below| below.entries(ram))
        .transpose()
        .and_then(|below| {
            let entries = sorted
                .reader()
                .map(|rec| decode_entry(&rec?).ok_or(DbError::Corrupt("sorted keys")));
            build_from(
                merge_sorted(below.into_iter().flatten(), entries),
                |entries| TreeIndex::build(flash, ram, entries),
                TreeIndex::reclaim,
            )
        });
    sorted.reclaim();
    tree
}

/// Merge two streams sorted by `(key, rowid)`; an error takes its
/// stream's turn.
fn merge_sorted(
    a: impl Iterator<Item = Result<SortEntry, DbError>>,
    b: impl Iterator<Item = Result<SortEntry, DbError>>,
) -> impl Iterator<Item = Result<SortEntry, DbError>> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || {
        let from_a = match (a.peek(), b.peek()) {
            (Some(Ok(x)), Some(Ok(y))) => x <= y,
            (Some(_), Some(Err(_))) => false,
            (next, _) => next.is_some(),
        };
        if from_a {
            a.next()
        } else {
            b.next()
        }
    })
}

/// A reorganization paused at the phase boundary.
pub struct Reorganization {
    flash: Flash,
    ram: RamBudget,
    sorted: Option<Log>,
}

impl Reorganization {
    /// Phase 1: sort the source index's entries into a «Sorted Keys» log.
    pub fn start(
        flash: &Flash,
        ram: &RamBudget,
        source: &PBFilter,
    ) -> Result<Reorganization, DbError> {
        let sorted = sort_index(flash, ram, source)?;
        Ok(Reorganization {
            flash: flash.clone(),
            ram: ram.clone(),
            sorted: Some(sorted),
        })
    }

    /// Phase 2: build the tree above the sorted log, reclaiming it.
    pub fn build_tree(&mut self) -> Result<TreeIndex, DbError> {
        let sorted = self
            .sorted
            .take()
            .ok_or(DbError::Corrupt("reorg state: build_tree called twice"))?;
        tree_over(&self.flash, &self.ram, sorted, None)
    }

    /// Interrupt: drop the intermediate sorted log, reclaiming its blocks.
    /// The source index was never touched.
    pub fn abort(mut self) {
        if let Some(sorted) = self.sorted.take() {
            sorted.reclaim();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::RowId;

    fn build_pbfilter(f: &Flash, n: u32, domain: u32) -> PBFilter {
        let mut idx = PBFilter::new(f);
        for i in 0..n {
            idx.insert(&(i % domain).to_be_bytes(), i).unwrap();
        }
        idx.flush().unwrap();
        idx
    }

    #[test]
    fn tree_answers_match_source() {
        let f = Flash::small(1024);
        let ram = RamBudget::new(64 * 1024);
        let pbf = build_pbfilter(&f, 5000, 100);
        let tree = reorganize(&f, &ram, &pbf).unwrap();
        for probe in [0u32, 17, 99] {
            let key = probe.to_be_bytes();
            let mut from_pbf = pbf.lookup(&key).unwrap();
            from_pbf.sort_unstable();
            assert_eq!(tree.lookup(&key).unwrap(), from_pbf, "key {probe}");
        }
        assert_eq!(tree.num_entries(), 5000);
    }

    #[test]
    fn tree_lookup_is_cheaper_than_summary_scan() {
        let f = Flash::small(2048);
        let ram = RamBudget::new(64 * 1024);
        let pbf = build_pbfilter(&f, 20_000, 500);
        let key = 123u32.to_be_bytes();
        let before = f.stats();
        pbf.lookup(&key).unwrap();
        let pbf_ios = (f.stats() - before).page_reads;
        let tree = reorganize(&f, &ram, &pbf).unwrap();
        let tree_ios = tree.lookup_cost(&key).unwrap();
        assert!(
            tree_ios < pbf_ios,
            "tree {tree_ios} IOs must beat summary scan {pbf_ios} IOs at this size"
        );
    }

    #[test]
    fn abort_between_phases_leaks_nothing_and_source_survives() {
        let f = Flash::small(1024);
        let ram = RamBudget::new(64 * 1024);
        let pbf = build_pbfilter(&f, 3000, 50);
        let free_before = f.free_blocks();
        let r = Reorganization::start(&f, &ram, &pbf).unwrap();
        // "Interrupt" here: the sorted log exists, the tree does not.
        r.abort();
        assert_eq!(f.free_blocks(), free_before, "intermediate logs reclaimed");
        // Source still answers.
        let hits: Vec<RowId> = pbf.lookup(&7u32.to_be_bytes()).unwrap();
        assert_eq!(hits.len(), 60);
    }

    #[test]
    fn reorganize_empty_index() {
        let f = Flash::small(64);
        let ram = RamBudget::new(32 * 1024);
        let pbf = PBFilter::new(&f);
        let tree = reorganize(&f, &ram, &pbf).unwrap();
        assert_eq!(tree.num_entries(), 0);
    }
}
