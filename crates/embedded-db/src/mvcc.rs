//! MVCC snapshot isolation over append-only stores.
//!
//! The stores of a personal data server are insert-dominant logs with
//! dense, increasing ids (rowids, docids), so multi-versioning needs no
//! per-row version chains: *a version of a store is a prefix length*.
//! Every committed write batch gets one [`Hlc`] stamp and pushes a
//! *mark* `(hlc, count)` per touched store; a [`Snapshot`] pins an HLC
//! and reads each store at the largest mark at or below it — it can
//! never observe a later write, no matter how many commits land while
//! it is open.
//!
//! Alongside the marks, every commit appends one [`ChangeRec`] per new
//! entity to a durable [`ChangeLog`] on flash, which serves
//! `changes_since(hlc)` — the primitive continuous queries and
//! delta-based Trusted-Cells sync are built on — from flash, with no copy
//! of the records in RAM.
//!
//! Version GC is epoch-based: each commit advances the epoch, each
//! snapshot pins the epoch it opened in, and [`MvccState::gc`] collapses
//! marks (and compacts the change log) below the oldest pinned
//! HLC — or below the clock, when nothing is pinned.

use std::collections::BTreeMap;

use pds_flash::{BlockId, ChangeLog, ChangeRec, Flash};

use crate::error::DbError;
use crate::hlc::{Hlc, HlcClock};

/// Store id of the document store in change records (tables use their
/// catalog index; the search engine's document store rides the same log
/// under this reserved id, which no catalog ever reaches).
pub const DOC_STORE: u16 = 0xFFFF;

/// Change kinds stamped into [`ChangeRec::kind`].
pub mod kind {
    /// A row appended to a relational table.
    pub const ROW_INSERT: u8 = 1;
    /// A document appended to the search engine's document store.
    pub const DOC_APPEND: u8 = 2;
}

/// A pinned, immutable view of the database: reads through it see
/// exactly the commits with stamps at or below `hlc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// The HLC the view is pinned to.
    pub hlc: Hlc,
    /// The commit epoch the snapshot opened in (GC pin key).
    pub epoch: u64,
}

/// What [`MvccState::gc`] collapsed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Version marks dropped (superseded below the floor).
    pub versions_collapsed: u64,
    /// Change records compacted out of the durable log.
    pub changes_compacted: u64,
    /// The floor the pass collapsed below.
    pub floor: Hlc,
}

/// What [`MvccState::recover`] found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MvccRecovery {
    /// Change records recovered from the durable log.
    pub changes_recovered: u64,
    /// Records cut from the first phantom on — a record whose commit
    /// stamp survived the crash but whose data rows did not, which would
    /// make `changes_since` name entities the store cannot serve.
    pub changes_dropped: u64,
    /// Durable-but-unstamped tail entities re-stamped by a fresh
    /// recovery commit (their change records died in controller RAM
    /// while their data pages survived).
    pub entities_restamped: u64,
}

/// Durable identity of an [`MvccState`] across a power cycle. Marks
/// above the GC floor are *derived* state (rebuilt by replaying the
/// change log), so only the collapsed per-store base marks are carried.
#[derive(Debug, Clone)]
pub struct MvccManifest {
    /// Node id of the owning token.
    pub node: u32,
    /// Erase blocks of the change log.
    pub blocks: Vec<BlockId>,
    /// Commit epoch at manifest time.
    pub epoch: u64,
    /// GC floor: history at or below this stamp is collapsed.
    pub floor: Hlc,
    /// Per-store collapsed base mark: `(store, hlc, count)`.
    pub base: Vec<(u16, Hlc, u32)>,
}

/// The version state of one database: HLC clock, per-store version
/// marks, snapshot pins, and the durable change log.
pub struct MvccState {
    clock: HlcClock,
    changelog: ChangeLog,
    /// Per-store version marks `(hlc, visible prefix length)`, in stamp
    /// order. The last mark is the live length.
    marks: BTreeMap<u16, Vec<(Hlc, u32)>>,
    /// Commit epoch: advances by one per commit.
    epoch: u64,
    /// Open-snapshot pins: epoch → (pinned hlc, refcount).
    pins: BTreeMap<u64, (Hlc, u64)>,
    /// GC floor: marks and change records at or below it are collapsed.
    floor: Hlc,
}

impl MvccState {
    /// Fresh version state for one token's database.
    pub fn new(flash: &Flash, node: u32) -> Self {
        MvccState {
            clock: HlcClock::new(node),
            changelog: ChangeLog::new(flash),
            marks: BTreeMap::new(),
            epoch: 0,
            pins: BTreeMap::new(),
            floor: Hlc::ZERO,
        }
    }

    /// The newest stamp issued or observed.
    pub fn now(&self) -> Hlc {
        self.clock.now()
    }

    /// The node id commits are stamped with.
    pub fn node(&self) -> u32 {
        self.clock.node()
    }

    /// The current commit epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Merge a remote stamp (message receipt): the next commit stamps
    /// strictly after both histories.
    pub fn observe(&mut self, remote: Hlc) {
        self.clock.observe(remote);
    }

    /// The live (latest-committed) prefix length of `store`.
    pub fn latest(&self, store: u16) -> u32 {
        self.marks
            .get(&store)
            .and_then(|m| m.last())
            .map_or(0, |&(_, n)| n)
    }

    /// Commit one write batch: `stores` lists `(store, kind, new_len)`
    /// for every store the batch may have grown. Stores whose length did
    /// not grow are skipped; if nothing grew, no stamp is issued and
    /// `Ok(None)` is returned. Otherwise the batch gets one fresh HLC,
    /// one change record per new entity, and one version mark per store.
    pub fn commit(&mut self, stores: &[(u16, u8, u32)]) -> Result<Option<Hlc>, DbError> {
        let grown: Vec<(u16, u8, u32, u32)> = stores
            .iter()
            .filter_map(|&(store, kind, new_len)| {
                let prev = self.latest(store);
                (new_len > prev).then_some((store, kind, prev, new_len))
            })
            .collect();
        if grown.is_empty() {
            return Ok(None);
        }
        let hlc = self.clock.tick();
        for (store, kind, prev, new_len) in grown {
            for entity in prev..new_len {
                self.changelog.append(ChangeRec {
                    hlc: hlc.counter,
                    node: hlc.node,
                    kind,
                    store,
                    entity,
                })?;
            }
            self.marks.entry(store).or_default().push((hlc, new_len));
        }
        self.epoch += 1;
        Ok(Some(hlc))
    }

    /// Open a snapshot pinned to the current HLC. Reads through it never
    /// observe later commits. Must be paired with
    /// [`release`](Self::release) or its epoch stays pinned against GC.
    pub fn snapshot(&mut self) -> Snapshot {
        let hlc = self.clock.now();
        let entry = self.pins.entry(self.epoch).or_insert((hlc, 0));
        entry.1 += 1;
        Snapshot {
            hlc,
            epoch: self.epoch,
        }
    }

    /// Release a snapshot's GC pin. Releasing twice is a no-op.
    pub fn release(&mut self, snap: &Snapshot) {
        if let Some(entry) = self.pins.get_mut(&snap.epoch) {
            entry.1 = entry.1.saturating_sub(1);
            if entry.1 == 0 {
                self.pins.remove(&snap.epoch);
            }
        }
    }

    /// The prefix length of `store` visible to `snap`: the largest mark
    /// stamped at or below the snapshot's HLC.
    pub fn visible_at(&self, snap: &Snapshot, store: u16) -> u32 {
        self.marks.get(&store).map_or(0, |marks| {
            let i = marks.partition_point(|&(h, _)| h <= snap.hlc);
            if i == 0 {
                0
            } else {
                marks[i - 1].1
            }
        })
    }

    /// Every change record stamped strictly after `since`, in stamp
    /// order, read from flash. Commits are returned whole: all records of
    /// a commit share its stamp, and cursors only ever hold commit stamps.
    pub fn changes_since(&self, since: Hlc) -> Result<Vec<ChangeRec>, DbError> {
        Ok(self.changelog.changes_since(since.counter, since.node)?)
    }

    /// Durably flush buffered change records to flash. A commit is
    /// crash-durable only once both its data pages and its change
    /// records are flushed; callers batch both on the same cadence.
    pub fn flush(&mut self) -> Result<(), DbError> {
        self.changelog.flush()?;
        Ok(())
    }

    /// Collapse version history no open snapshot (and no consumer
    /// cursor) can still address. The floor is the oldest pinned HLC —
    /// or the clock, when nothing is pinned — capped by `keep_since`
    /// (the oldest `changes_since` cursor still outstanding). Marks
    /// below the floor collapse into one base mark per store; the
    /// change log returns its whole head blocks of records at or below
    /// the floor to the pool.
    pub fn gc(&mut self, keep_since: Option<Hlc>) -> Result<GcReport, DbError> {
        let mut floor = self
            .pins
            .first_key_value()
            .map_or(self.clock.now(), |(_, &(h, _))| h);
        if let Some(keep) = keep_since {
            floor = floor.min(keep);
        }
        // GC floors never regress.
        floor = floor.max(self.floor);
        let mut collapsed = 0u64;
        for marks in self.marks.values_mut() {
            let i = marks.partition_point(|&(h, _)| h <= floor);
            if i > 1 {
                collapsed += (i - 1) as u64;
                marks.drain(..i - 1);
            }
        }
        let compacted = self.changelog.compact(floor.counter, floor.node)?;
        self.floor = floor;
        pds_obs::counter!("mvcc.gc_runs").inc();
        pds_obs::counter!("mvcc.versions_collapsed").add(collapsed);
        Ok(GcReport {
            versions_collapsed: collapsed,
            changes_compacted: compacted,
            floor,
        })
    }

    /// The durable identity to carry across a power cycle. Call
    /// [`flush`](Self::flush) first so the captured block list is final
    /// — the same contract as every other manifest in the stack
    /// (unflushed state is honestly lost, never silently corrupted).
    pub fn manifest(&self) -> MvccManifest {
        let base = self
            .marks
            .iter()
            .filter_map(|(&store, marks)| {
                let i = marks.partition_point(|&(h, _)| h <= self.floor);
                (i > 0).then(|| (store, marks[i - 1].0, marks[i - 1].1))
            })
            .collect();
        MvccManifest {
            node: self.clock.node(),
            blocks: self.changelog.blocks(),
            epoch: self.epoch,
            floor: self.floor,
            base,
        }
    }

    /// Rebuild the version state after a power loss.
    ///
    /// `store_lens` gives the *recovered* durable length of every store
    /// (`(store, kind, len)`). One scan of the change log (CRC-checked,
    /// torn tail truncated) hands over its records, and
    ///
    /// 1. the first that names an entity the recovered store no longer
    ///    holds (a *phantom*) cuts the log there, so `changes_since`
    ///    never returns a record newer than the store;
    /// 2. those before it are replayed over the manifest's base marks.
    ///
    /// Then a fresh recovery commit re-stamps any durable-but-unstamped
    /// store tail (rows flushed, change records still in RAM at the cut)
    /// — no durable entity ever escapes the change history. The epoch
    /// resumes at the manifest's, or at the commits replayed if more.
    pub fn recover(
        flash: &Flash,
        m: &MvccManifest,
        store_lens: &[(u16, u8, u32)],
    ) -> Result<(Self, MvccRecovery), DbError> {
        let lens: BTreeMap<u16, u32> = store_lens
            .iter()
            .map(|&(store, _, len)| (store, len))
            .collect();
        let mut marks: BTreeMap<u16, Vec<(Hlc, u32)>> = BTreeMap::new();
        for &(store, hlc, count) in &m.base {
            let capped = lens.get(&store).map_or(count, |&len| count.min(len));
            marks.insert(store, vec![(hlc, capped)]);
        }
        let mut commits = 0u64;
        let mut last = m.floor;
        let (changelog, rep) = ChangeLog::recover(flash, &m.blocks, |rec| {
            if lens.get(&rec.store).is_some_and(|&len| rec.entity >= len) {
                return false;
            }
            let stamp = Hlc::new(rec.hlc, rec.node);
            if stamp > last {
                commits += 1;
                last = stamp;
            }
            let entry = marks.entry(rec.store).or_default();
            match entry.last_mut() {
                Some(mark) if mark.0 == stamp => mark.1 = mark.1.max(rec.entity + 1),
                Some(mark) if mark.0 > stamp => {} // collapsed into the base
                _ => entry.push((stamp, rec.entity + 1)),
            }
            true
        })?;
        let dropped = rep.records_recovered - changelog.num_records();

        let mut clock = HlcClock::new(m.node);
        clock.advance_past(m.floor);
        clock.advance_past(last);

        let mut state = MvccState {
            clock,
            changelog,
            marks,
            epoch: m.epoch.max(commits),
            pins: BTreeMap::new(),
            floor: m.floor,
        };
        // Re-stamp durable-but-unstamped tails — but only if the layer
        // was ever used. A database that never committed has no change
        // history for its rows to escape from (and no consumer holding
        // a cursor); stamping its whole content here would turn every
        // wake of a commit-free token into a full re-log.
        let mut restamped = 0u64;
        if state.epoch > 0 {
            let tail: Vec<(u16, u8, u32)> = store_lens
                .iter()
                .filter(|&&(store, _, len)| len > state.latest(store))
                .inspect(|&&(store, _, len)| {
                    restamped += u64::from(len - state.latest(store));
                })
                .copied()
                .collect();
            state.commit(&tail)?;
        }

        let report = MvccRecovery {
            changes_recovered: rep.records_recovered,
            changes_dropped: dropped,
            entities_restamped: restamped,
        };
        pds_obs::counter!("recovery.changes_dropped").add(dropped);
        Ok((state, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> (Flash, MvccState) {
        let f = Flash::small(64);
        let s = MvccState::new(&f, 7);
        (f, s)
    }

    #[test]
    fn snapshots_pin_the_visible_prefix() {
        let (_f, mut s) = state();
        s.commit(&[(0, kind::ROW_INSERT, 10)]).unwrap();
        let snap = s.snapshot();
        s.commit(&[(0, kind::ROW_INSERT, 25)]).unwrap();
        assert_eq!(s.visible_at(&snap, 0), 10);
        assert_eq!(s.latest(0), 25);
        let later = s.snapshot();
        assert_eq!(s.visible_at(&later, 0), 25);
        // An untouched store is empty under every snapshot.
        assert_eq!(s.visible_at(&snap, 3), 0);
        s.release(&snap);
        s.release(&later);
        assert!(s.pins.is_empty(), "no snapshot still pins an epoch");
    }

    #[test]
    fn empty_commit_issues_no_stamp() {
        let (_f, mut s) = state();
        assert_eq!(s.commit(&[]).unwrap(), None);
        s.commit(&[(0, kind::ROW_INSERT, 5)]).unwrap();
        // Same length again: nothing grew.
        assert_eq!(s.commit(&[(0, kind::ROW_INSERT, 5)]).unwrap(), None);
        assert_eq!(s.epoch(), 1);
    }

    #[test]
    fn changes_since_returns_whole_later_commits() {
        let (_f, mut s) = state();
        let c1 = s.commit(&[(0, kind::ROW_INSERT, 2)]).unwrap().unwrap();
        let c2 = s
            .commit(&[(0, kind::ROW_INSERT, 3), (DOC_STORE, kind::DOC_APPEND, 2)])
            .unwrap()
            .unwrap();
        assert_eq!(s.changes_since(Hlc::ZERO).unwrap().len(), 5);
        let after_c1 = s.changes_since(c1).unwrap();
        assert_eq!(after_c1.len(), 3);
        assert!(after_c1
            .iter()
            .all(|r| (r.hlc, r.node) == (c2.counter, c2.node)));
        assert_eq!(s.changes_since(c2).unwrap(), vec![]);
    }

    #[test]
    fn gc_respects_pins_and_cursors() {
        let (_f, mut s) = state();
        s.commit(&[(0, kind::ROW_INSERT, 10)]).unwrap();
        let snap = s.snapshot();
        s.commit(&[(0, kind::ROW_INSERT, 20)]).unwrap();
        s.commit(&[(0, kind::ROW_INSERT, 30)]).unwrap();

        // The open snapshot holds the floor at its HLC: nothing is lost.
        let rep = s.gc(None).unwrap();
        assert_eq!(rep.versions_collapsed, 0);
        assert_eq!(s.visible_at(&snap, 0), 10);

        s.release(&snap);
        // A consumer cursor caps the floor below the clock.
        let cursor = Hlc::new(2, 7);
        let rep = s.gc(Some(cursor)).unwrap();
        assert_eq!(rep.floor, cursor);
        assert_eq!(
            s.changes_since(cursor).unwrap().len(),
            10,
            "cursor still served"
        );

        // Nothing pinned: everything collapses to one live mark.
        let rep = s.gc(None).unwrap();
        assert_eq!(rep.versions_collapsed, 1);
        assert_eq!(s.latest(0), 30);
        assert_eq!(s.changes_since(s.floor).unwrap(), vec![]);
    }

    #[test]
    fn observe_merges_remote_history() {
        let (_f, mut s) = state();
        s.commit(&[(0, kind::ROW_INSERT, 1)]).unwrap();
        s.observe(Hlc::new(50, 3));
        let c = s.commit(&[(0, kind::ROW_INSERT, 2)]).unwrap().unwrap();
        assert_eq!(c, Hlc::new(51, 7));
    }

    #[test]
    fn recover_rebuilds_marks_and_restamps_unstamped_tail() {
        let (f, mut s) = state();
        s.commit(&[(0, kind::ROW_INSERT, 10)]).unwrap();
        s.commit(&[(0, kind::ROW_INSERT, 20), (1, kind::ROW_INSERT, 5)])
            .unwrap();
        s.flush().unwrap();
        let m = s.manifest();

        // Crash. Store 0 recovered whole, store 1 lost two rows, and
        // store 2 has three durable rows the log never stamped.
        let f2 = f.reboot();
        let lens = [
            (0, kind::ROW_INSERT, 20u32),
            (1, kind::ROW_INSERT, 3),
            (2, kind::ROW_INSERT, 3),
        ];
        let (mut r, rep) = MvccState::recover(&f2, &m, &lens).unwrap();
        // Store 1's lost rows cut the log: records 3..5 and later are gone.
        assert!(rep.changes_dropped >= 2);
        assert_eq!(rep.entities_restamped, 3);
        assert_eq!(r.latest(1), 3);
        assert_eq!(r.latest(2), 3);
        // changes_since never names an entity beyond the recovered store.
        for rec in r.changes_since(Hlc::ZERO).unwrap() {
            let len = lens.iter().find(|&&(st, _, _)| st == rec.store).unwrap().2;
            assert!(rec.entity < len, "phantom record {rec:?}");
        }
        // The next commit stamps strictly after everything durable.
        let c = r.commit(&[(0, kind::ROW_INSERT, 21)]).unwrap().unwrap();
        assert!(c > m.floor);
        assert!(r
            .changes_since(Hlc::ZERO)
            .unwrap()
            .iter()
            .all(|x| Hlc::new(x.hlc, x.node) <= c));
    }

    #[test]
    fn recover_after_gc_uses_base_marks() {
        // 384 records fill a block of the test chip: the first commit's
        // 400 fill the first block, which GC returns whole, and spill
        // 16 into the second, which it keeps.
        let (f, mut s) = state();
        s.commit(&[(0, kind::ROW_INSERT, 400)]).unwrap();
        s.commit(&[(0, kind::ROW_INSERT, 420)]).unwrap();
        s.flush().unwrap();
        let rep = s.gc(None).unwrap();
        assert_eq!(rep.changes_compacted, 384);
        s.commit(&[(0, kind::ROW_INSERT, 430)]).unwrap();
        s.flush().unwrap();
        let m = s.manifest();
        assert_eq!(m.base, vec![(0, Hlc::new(2, 7), 420)]);

        let f2 = f.reboot();
        let (r, rep) = MvccState::recover(&f2, &m, &[(0, kind::ROW_INSERT, 430)]).unwrap();
        assert_eq!(rep.changes_recovered, 46, "the block GC kept, and after");
        assert_eq!(rep.entities_restamped, 0);
        assert_eq!(r.latest(0), 430);
        let snap_all = Snapshot {
            hlc: r.now(),
            epoch: r.epoch(),
        };
        assert_eq!(r.visible_at(&snap_all, 0), 430);
    }

    #[test]
    fn clean_power_cycles_leave_the_epoch_where_it_was() {
        let (f, mut s) = state();
        for len in [10, 20, 30] {
            s.commit(&[(0, kind::ROW_INSERT, len)]).unwrap();
        }
        s.flush().unwrap();
        assert_eq!(s.epoch(), 3);
        let lens = [(0, kind::ROW_INSERT, 30u32)];
        let mut f = f;
        for cycle in 1..=2 {
            let m = s.manifest();
            f = f.reboot();
            let (r, rep) = MvccState::recover(&f, &m, &lens).unwrap();
            assert_eq!(rep.entities_restamped, 0, "cycle {cycle}");
            assert_eq!(r.epoch(), 3, "cycle {cycle}: every commit counted once");
            s = r;
        }
        // Commits the manifest has not seen are counted from the log.
        let m = s.manifest();
        s.commit(&[(0, kind::ROW_INSERT, 40)]).unwrap();
        s.flush().unwrap();
        let m = MvccManifest {
            blocks: s.manifest().blocks,
            ..m
        };
        let lens = [(0, kind::ROW_INSERT, 40u32)];
        let (r, _) = MvccState::recover(&f.reboot(), &m, &lens).unwrap();
        assert_eq!(r.epoch(), 4);
    }
}
