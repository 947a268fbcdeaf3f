//! A B-tree-like index built strictly sequentially.
//!
//! Step 2 of a reorganization: "Build a key hierarchy → no need of
//! temporary logs → result is written sequentially: «Tree». Result:
//! efficient B-Tree-like index."
//!
//! The build consumes a *sorted* `(key, rowid)` stream (the output of
//! [`crate::sort::external_sort`], or that merged with the leaves of the
//! previous generation): leaves are packed and appended first, then each
//! internal level is appended above the previous one, root last. Every
//! page is written exactly once, in order — the construction is a pure
//! log write. Lookups descend root → leaf in `height` page reads;
//! duplicate keys spill across leaves and are collected by a forward leaf
//! walk (leaves are physically consecutive).
//!
//! ## Pages are records
//!
//! A tree page is one page-filling record of a record log — a kind byte
//! (leaf or internal), `count u16`, then `count` entries of
//! [`crate::sort`]'s `(key, pointer)` layout, a child's page index
//! standing for the rowid in an internal page — so a page's ordinal is
//! its page index, and every read of it goes through the record log's
//! verified path (CRC, framing, re-read of a page that fails).
//! `TreePage::parse` is the format's only parser and its second guard
//! (it checks the whole entry array against the record), and the
//! descent and the leaf walks compare keys as slices of the one page
//! buffer a lookup holds.

use pds_flash::{Flash, FlashError, Log, LogWriter};
use pds_mcu::{RamBudget, Reservation};
use pds_obs::wire::Reader;

use crate::error::DbError;
use crate::sort::{
    decode_entry, encode_entry, read_entry, seal_or_discard, write_entry, SortEntry, SortEntryRef,
    MIN_ENTRY_LEN,
};
use crate::summary_log::PagePacker;
use crate::table::RowId;

/// Page kinds: the byte in front of the entry count.
const LEAF: u8 = 0;
const INTERNAL: u8 = 1;

/// What a page that does not parse is: damage fails the query instead
/// of panicking the token.
const CORRUPT: DbError = DbError::Corrupt("tree page");

/// A sealed, read-only tree index.
pub struct TreeIndex {
    log: Log,
    root_page: u32,
    num_leaves: u32,
    height: u32,
    num_entries: u64,
}

/// A tree page read where it lies: its kind and its entry array,
/// borrowed from the page buffer.
struct TreePage<'a> {
    kind: u8,
    /// Exactly the page's `count` entries, each checked by `parse`.
    entries: &'a [u8],
}

impl<'a> TreePage<'a> {
    /// Parse a page record; `None` when the entry array runs past its
    /// end (corrupt header / truncated key).
    fn parse(page: &'a [u8]) -> Option<Self> {
        let mut r = Reader::new(page);
        let kind = r.u8()?;
        let count = r.count16(MIN_ENTRY_LEN)?;
        let body = r.rest();
        let mut check = Reader::new(body);
        for _ in 0..count {
            read_entry(&mut check)?;
        }
        let entries = &body[..body.len() - check.remaining()];
        Some(TreePage { kind, entries })
    }

    /// The entries in page order, keys borrowed from the page.
    fn entries(&self) -> impl Iterator<Item = SortEntryRef<'a>> {
        let mut r = Reader::new(self.entries);
        // `parse` checked every entry: the cursor runs dry after the last.
        std::iter::from_fn(move || read_entry(&mut r))
    }
}

/// Builds one level of the tree: packs `(key, pointer)` entries into
/// pages of `tree`, and records each page's `(first key, page index)`
/// separator in `above`, the level log the next level is built from.
struct LevelBuilder {
    packer: PagePacker,
    first_key: Option<Vec<u8>>,
    above: LogWriter,
}

impl LevelBuilder {
    fn new(tree: &LogWriter, kind: u8) -> Self {
        LevelBuilder {
            packer: PagePacker::new(tree.max_record_len(), &[kind]),
            first_key: None,
            above: tree.flash().new_log(),
        }
    }

    fn push(&mut self, tree: &mut LogWriter, key: Vec<u8>, ptr: u32) -> Result<(), DbError> {
        if !self.packer.push(|out| write_entry(out, &key, ptr))? {
            self.close_page(tree)?;
            self.packer.push(|out| write_entry(out, &key, ptr))?;
        }
        self.first_key.get_or_insert(key);
        Ok(())
    }

    fn close_page(&mut self, tree: &mut LogWriter) -> Result<(), DbError> {
        let Some(first_key) = self.first_key.take() else {
            return Ok(()); // nothing packed since the last page
        };
        let page = self.packer.program(tree)?;
        self.above.append(&encode_entry(&first_key, page))?;
        Ok(())
    }
}

/// `(root page, leaves, height, entries)` of a built tree.
type Shape = (u32, u32, u32, u64);

impl TreeIndex {
    /// Build a tree from a sorted `(key, rowid)` stream.
    ///
    /// The per-level `(first_key, page)` separators are carried through
    /// *level logs* — plain flash logs reclaimed as soon as the level
    /// above is built — so construction RAM stays at three pages no
    /// matter the index size: the page being packed, the level log's
    /// page buffer and the page the level below is read back through,
    /// reserved from `ram` before anything is written. A build that
    /// fails gives back every block it claimed.
    pub fn build(
        flash: &Flash,
        ram: &RamBudget,
        entries: impl Iterator<Item = SortEntry>,
    ) -> Result<TreeIndex, DbError> {
        let _pages = ram.reserve(3 * flash.geometry().page_size)?;
        let mut log = flash.new_log();
        let (root_page, num_leaves, height, num_entries) =
            match Self::build_levels(&mut log, entries) {
                Ok(shape) => shape,
                Err(e) => {
                    log.discard();
                    return Err(e);
                }
            };
        Ok(TreeIndex {
            log: seal_or_discard(log, Ok(()))?,
            root_page,
            num_leaves,
            height,
            num_entries,
        })
    }

    /// Append the leaves, then every level above them, to `tree`. No
    /// level log outlives the call, whatever it returns.
    fn build_levels(
        tree: &mut LogWriter,
        mut entries: impl Iterator<Item = SortEntry>,
    ) -> Result<Shape, DbError> {
        // Level 0: leaves. The separators of the level above go to a
        // level log.
        let mut num_entries = 0u64;
        let mut leaves = LevelBuilder::new(tree, LEAF);
        let pushed = entries.try_for_each(|(key, rowid)| {
            num_entries += 1;
            leaves.push(tree, key, rowid)
        });
        let closed = pushed.and_then(|()| leaves.close_page(tree));
        let mut level = seal_or_discard(leaves.above, closed)?;
        let num_leaves = tree.num_pages();
        if num_leaves == 0 {
            level.reclaim();
            return Ok((u32::MAX, 0, 0, 0));
        }

        // Upper levels: consume the previous level log, emit the next.
        let mut height = 1u32;
        while level.num_records() > 1 {
            height += 1;
            let below = level.num_records();
            let mut widest = 0;
            let mut internals = LevelBuilder::new(tree, INTERNAL);
            let pushed = level.reader().try_for_each(|rec| {
                let rec = rec?;
                widest = widest.max(rec.len());
                let (key, child) = decode_entry(&rec).ok_or(DbError::Corrupt("level log"))?;
                internals.push(tree, key, child)
            });
            let closed = pushed.and_then(|()| internals.close_page(tree));
            let room = internals.packer.room();
            level.reclaim();
            level = seal_or_discard(internals.above, closed)?;
            // A level whose pages each took one separator is no smaller
            // than the one below, nor would any level above it be: its
            // widest separator is more than half a page.
            if level.num_records() >= below {
                level.reclaim();
                let max = room / 2;
                return Err(FlashError::RecordTooLarge { len: widest, max }.into());
            }
        }
        // The single record of the last level points at the root page.
        let root_page = match level.reader().next() {
            Some(rec) => rec.map_err(DbError::from).and_then(|rec| {
                let (_, page) = decode_entry(&rec).ok_or(DbError::Corrupt("level log"))?;
                Ok(page)
            }),
            None => Err(DbError::Corrupt("tree level log ended without a root")),
        };
        level.reclaim();
        Ok((root_page?, num_leaves, height, num_entries))
    }

    /// Number of indexed entries.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// Tree height in pages (= page reads per point lookup).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total pages of the index.
    pub fn num_pages(&self) -> u32 {
        self.log.num_pages()
    }

    /// Erase blocks of the index log — what crash recovery frees before
    /// rebuilding from the base table (the tree is derived state).
    pub fn blocks(&self) -> Vec<pds_flash::BlockId> {
        self.log.blocks().to_vec()
    }

    /// Descend from the root to the leaf holding the first entry not
    /// below `probe` (one page read per level), then walk the leaves from
    /// there (one read per leaf), handing `visit` each entry until it
    /// answers `false` or the last leaf ends. Levels are appended leaves
    /// first and root last: the leaves are the first `num_leaves` pages,
    /// and a child pointer that does not point *down* the log is damage
    /// — which also bounds the walk on a page that does not hold what it
    /// should.
    fn walk_from(
        &self,
        probe: &[u8],
        mut visit: impl FnMut(SortEntryRef<'_>) -> bool,
    ) -> Result<(), DbError> {
        let mut scratch = Vec::new();
        let mut page = self.root_page;
        loop {
            let next = self.log.get_with(page, &mut scratch, |_, rec| {
                let node = TreePage::parse(rec)
                    .filter(|node| (node.kind == LEAF) == (page < self.num_leaves))
                    .ok_or(CORRUPT)?;
                if node.kind == LEAF {
                    let more = node.entries().all(&mut visit);
                    return Ok(Some(page + 1).filter(|&next| more && next < self.num_leaves));
                }
                // Toward the *first* occurrence of the probe: the rightmost
                // child whose separator is strictly below it, the first child
                // when none is. (With duplicated keys, several consecutive
                // separators can equal the probe; the first occurrence lives
                // in the child just before them.)
                let mut child = None;
                for (i, (key, ptr)) in node.entries().enumerate() {
                    if i == 0 || key < probe {
                        child = Some(ptr);
                    }
                }
                child.filter(|&child| child < page).map(Some).ok_or(CORRUPT)
            })??;
            match next {
                Some(next) => page = next,
                None => return Ok(()),
            }
        }
    }

    /// All rowids with key exactly `key`, ascending.
    pub fn lookup(&self, key: &[u8]) -> Result<Vec<RowId>, DbError> {
        let mut hits = Vec::new();
        if self.num_leaves == 0 {
            return Ok(hits);
        }
        // The landing leaf is at or before the first candidate;
        // duplicates may span several physically consecutive leaves.
        // Global sort order bounds the walk to the duplicate span plus
        // one page.
        self.walk_from(key, |(k, rowid)| {
            if k == key {
                hits.push(rowid);
            }
            k <= key
        })?;
        Ok(hits)
    }

    /// All `(key, rowid)` entries with `lo ≤ key ≤ hi`, in key order —
    /// a range scan: one descent to the first candidate leaf, then a
    /// forward walk over the physically consecutive leaves.
    pub fn lookup_range(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Vec<u8>, RowId)>, DbError> {
        let mut out = Vec::new();
        if self.num_leaves == 0 || lo > hi {
            return Ok(out);
        }
        self.walk_from(lo, |(k, rowid)| {
            if k >= lo && k <= hi {
                out.push((k.to_vec(), rowid));
            }
            k <= hi
        })?;
        Ok(out)
    }

    /// Every entry in key order, one leaf page at a time — the previous
    /// generation's side of a merge. The page is reserved from `ram`.
    pub(crate) fn entries<'a>(&'a self, ram: &RamBudget) -> Result<TreeEntries<'a>, DbError> {
        let page_size = self.log.flash().geometry().page_size;
        Ok(TreeEntries {
            _ram: ram.reserve(page_size)?,
            tree: self,
            next_leaf: 0,
            page: Vec::new(),
            current: Vec::new().into_iter(),
        })
    }

    /// Page reads a point lookup costs (height + duplicate spill).
    pub fn lookup_cost(&self, key: &[u8]) -> Result<u64, DbError> {
        let before = self.log.flash().stats();
        self.lookup(key)?;
        Ok((self.log.flash().stats() - before).page_reads)
    }

    /// Reclaim the index blocks.
    pub fn reclaim(self) {
        self.log.reclaim();
    }
}

/// Streaming entry iterator over a [`TreeIndex`]'s leaves (see
/// [`TreeIndex::entries`]).
pub(crate) struct TreeEntries<'a> {
    _ram: Reservation,
    tree: &'a TreeIndex,
    next_leaf: u32,
    page: Vec<u8>,
    current: std::vec::IntoIter<SortEntry>,
}

impl TreeEntries<'_> {
    /// Read leaf `leaf` and own its entries.
    fn load(&mut self, leaf: u32) -> Result<Vec<SortEntry>, DbError> {
        self.tree.log.get_with(leaf, &mut self.page, |_, rec| {
            let page = TreePage::parse(rec).ok_or(CORRUPT)?;
            Ok(page
                .entries()
                .map(|(k, rowid)| (k.to_vec(), rowid))
                .collect())
        })?
    }
}

impl Iterator for TreeEntries<'_> {
    type Item = Result<SortEntry, DbError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(entry) = self.current.next() {
                return Some(Ok(entry));
            }
            if self.next_leaf >= self.tree.num_leaves {
                return None;
            }
            let leaf = self.next_leaf;
            self.next_leaf += 1;
            match self.load(leaf) {
                Ok(entries) => self.current = entries.into_iter(),
                Err(e) => {
                    self.next_leaf = self.tree.num_leaves;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flash() -> Flash {
        Flash::small(512)
    }

    fn ram() -> RamBudget {
        RamBudget::new(64 * 1024)
    }

    /// The owned tree-page decoder as it stood before pages were walked
    /// in place, kept verbatim: the reference the view is swept against.
    fn decode_entries(page: &[u8]) -> Option<(u8, Vec<SortEntry>)> {
        let mut r = Reader::new(page);
        let kind = r.u8()?;
        let count = r.count16(MIN_ENTRY_LEN)?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let (key, ptr) = read_entry(&mut r)?;
            entries.push((key.to_vec(), ptr));
        }
        Some((kind, entries))
    }

    /// `descend` + `lookup` as they stood before pages were walked in
    /// place, kept verbatim over the owned decoder but for the page read,
    /// now a record fetch.
    fn reference_lookup(tree: &TreeIndex, key: &[u8]) -> Result<Vec<RowId>, DbError> {
        fn descend(tree: &TreeIndex, probe: &[u8]) -> Result<(u32, Vec<SortEntry>), DbError> {
            let mut page = tree.root_page;
            loop {
                let buf = tree
                    .log
                    .get_with(page, &mut Vec::new(), |_, rec| rec.to_vec())?;
                let (kind, entries) = decode_entries(&buf).ok_or(DbError::Corrupt("tree page"))?;
                if kind == LEAF {
                    return Ok((page, entries));
                }
                let idx = entries
                    .iter()
                    .rposition(|(k, _)| k.as_slice() < probe)
                    .unwrap_or(0);
                page = match entries.get(idx) {
                    Some(&(_, child)) if child < page => child,
                    _ => return Err(DbError::Corrupt("tree page")),
                };
            }
        }
        if tree.num_leaves == 0 {
            return Ok(Vec::new());
        }
        let (mut leaf, mut leaf_entries) = descend(tree, key)?;
        let mut hits = Vec::new();
        loop {
            let mut passed_key = false;
            for (k, rowid) in &leaf_entries {
                match k.as_slice().cmp(key) {
                    std::cmp::Ordering::Equal => hits.push(*rowid),
                    std::cmp::Ordering::Greater => {
                        passed_key = true;
                        break;
                    }
                    std::cmp::Ordering::Less => {}
                }
            }
            leaf += 1;
            if passed_key || leaf >= tree.num_leaves {
                break;
            }
            let buf = tree
                .log
                .get_with(leaf, &mut Vec::new(), |_, rec| rec.to_vec())?;
            (_, leaf_entries) = decode_entries(&buf).ok_or(DbError::Corrupt("tree page"))?;
        }
        Ok(hits)
    }

    #[test]
    fn lookups_equal_the_reference_and_read_the_same_pages() {
        use pds_obs::rng::{Rng, SeedableRng, StdRng};
        for case in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(0x7EE0 + case);
            let f = flash();
            let n = [0u32, 1, 40, 900, 6000][case as usize % 5];
            let domain = rng.gen_range(1u32..500);
            let mut input: Vec<SortEntry> = (0..n)
                .map(|i| {
                    let k = rng.gen_range(0..domain);
                    (format!("k{k}").repeat(1 + k as usize % 4).into_bytes(), i)
                })
                .collect();
            input.sort();
            let tree = TreeIndex::build(&f, &ram(), input.into_iter()).unwrap();
            for probe in 0..domain.min(60) + 2 {
                let key = format!("k{probe}").repeat(1 + probe as usize % 4);
                let before = f.stats();
                let got = tree.lookup(key.as_bytes()).unwrap();
                let mid = f.stats();
                let want = reference_lookup(&tree, key.as_bytes()).unwrap();
                let after = f.stats();
                assert_eq!(got, want, "case {case} key {key}");
                let reads = ((mid - before).page_reads, (after - mid).page_reads);
                assert_eq!(reads.0, reads.1, "case {case} key {key}");
            }
        }
    }

    #[test]
    fn tree_pages_keep_the_decoder_contract() {
        use pds_obs::rng::Rng;
        const PAGE: usize = 512;
        // A leaf claiming 65 535 entries in 509 bytes.
        let mut lying = vec![0xFF; PAGE];
        lying[0] = LEAF;
        pds_obs::wire::sweep(
            "tree page vs reference",
            pds_obs::wire::Tail::Padded,
            &[&lying, &lying[..3]],
            |rng| {
                let entries = (0..rng.gen_range(0..12u32))
                    .map(|_| (b"key".repeat(rng.gen_range(0..9usize)), rng.gen()));
                let entries: Vec<SortEntry> = entries.collect();
                ([LEAF, INTERNAL][rng.gen_range(0..2usize)], entries)
            },
            |(kind, entries)| {
                let mut packer = PagePacker::new(PAGE, &[*kind]);
                for (key, ptr) in entries {
                    assert_eq!(packer.push(|out| write_entry(out, key, *ptr)), Ok(true));
                }
                packer.image().to_vec()
            },
            |page| {
                let got = TreePage::parse(page).map(|view| {
                    let entries = view.entries().map(|(k, ptr)| (k.to_vec(), ptr));
                    (view.kind, entries.collect())
                });
                assert_eq!(got, decode_entries(page), "{page:02x?}");
                got
            },
        );
    }

    fn entries(n: u32, dup_every: u32) -> Vec<SortEntry> {
        // keys 0..n/dup_every, each repeated dup_every times.
        let mut v: Vec<SortEntry> = (0..n)
            .map(|i| ((i / dup_every).to_be_bytes().to_vec(), i))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn point_lookups_find_exact_matches() {
        let f = flash();
        let tree = TreeIndex::build(&f, &ram(), entries(5000, 1).into_iter()).unwrap();
        assert_eq!(tree.num_entries(), 5000);
        for probe in [0u32, 1, 777, 4999] {
            assert_eq!(
                tree.lookup(&probe.to_be_bytes()).unwrap(),
                vec![probe],
                "probe {probe}"
            );
        }
        assert!(tree.lookup(&9999u32.to_be_bytes()).unwrap().is_empty());
        assert!(tree.lookup(b"").unwrap().is_empty());
    }

    #[test]
    fn duplicates_collected_across_leaves() {
        let f = flash();
        // 100 keys × 100 duplicates: each key spans several leaves.
        let tree = TreeIndex::build(&f, &ram(), entries(10_000, 100).into_iter()).unwrap();
        for probe in [0u32, 37, 99] {
            let hits = tree.lookup(&probe.to_be_bytes()).unwrap();
            let expected: Vec<RowId> = (probe * 100..(probe + 1) * 100).collect();
            assert_eq!(hits, expected, "probe {probe}");
        }
    }

    #[test]
    fn lookup_cost_is_logarithmic() {
        let f = Flash::new(pds_flash::FlashGeometry::new(512, 16, 4096));
        let tree = TreeIndex::build(&f, &ram(), entries(50_000, 1).into_iter()).unwrap();
        assert!(tree.height() >= 2, "50k keys need internal levels");
        let cost = tree.lookup_cost(&25_000u32.to_be_bytes()).unwrap();
        assert!(
            cost <= tree.height() as u64 + 1,
            "cost {cost} vs height {}",
            tree.height()
        );
        assert!(cost < 10, "a tree lookup must be a handful of IOs");
    }

    #[test]
    fn empty_tree() {
        let f = flash();
        let tree = TreeIndex::build(&f, &ram(), std::iter::empty()).unwrap();
        assert_eq!(tree.num_entries(), 0);
        assert!(tree.lookup(b"x").unwrap().is_empty());
    }

    #[test]
    fn single_leaf_tree() {
        let f = flash();
        let tree = TreeIndex::build(&f, &ram(), entries(10, 1).into_iter()).unwrap();
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.lookup(&3u32.to_be_bytes()).unwrap(), vec![3]);
    }

    #[test]
    fn construction_charges_its_three_pages_before_it_writes() {
        let f = flash();
        let page = f.geometry().page_size;
        let short = RamBudget::new(3 * page - 1);
        let err = TreeIndex::build(&f, &short, entries(5000, 1).into_iter()).err();
        assert!(matches!(err, Some(DbError::Ram(_))), "{err:?}");
        assert_eq!(f.stats().page_programs, 0);
        let exact = RamBudget::new(3 * page);
        let tree = TreeIndex::build(&f, &exact, entries(5000, 1).into_iter()).unwrap();
        assert!(tree.height() >= 2, "level logs were read back");
        assert_eq!(exact.used(), 0);
    }

    #[test]
    fn construction_is_sequential_and_reclaims_level_logs() {
        let f = flash();
        let before = f.free_blocks();
        let tree = TreeIndex::build(&f, &ram(), entries(20_000, 4).into_iter()).unwrap();
        let tree_blocks = (tree.num_pages() as usize).div_ceil(f.geometry().pages_per_block);
        assert_eq!(
            f.free_blocks(),
            before - tree_blocks,
            "level logs must be fully reclaimed"
        );
        tree.reclaim();
        assert_eq!(f.free_blocks(), before);
    }

    #[test]
    fn range_scans_match_filtering() {
        let f = flash();
        let tree = TreeIndex::build(&f, &ram(), entries(5000, 5).into_iter()).unwrap();
        for (lo, hi) in [(0u32, 10u32), (100, 200), (999, 999), (950, 2000)] {
            let got = tree
                .lookup_range(&lo.to_be_bytes(), &hi.to_be_bytes())
                .unwrap();
            let expected: Vec<(Vec<u8>, RowId)> = entries(5000, 5)
                .into_iter()
                .filter(|(k, _)| {
                    k.as_slice() >= lo.to_be_bytes().as_slice()
                        && k.as_slice() <= hi.to_be_bytes().as_slice()
                })
                .collect();
            assert_eq!(got, expected, "[{lo},{hi}]");
        }
        // Inverted and out-of-domain ranges are empty.
        assert!(tree
            .lookup_range(&9u32.to_be_bytes(), &3u32.to_be_bytes())
            .unwrap()
            .is_empty());
        assert!(tree
            .lookup_range(&90_000u32.to_be_bytes(), &99_000u32.to_be_bytes())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn range_scan_cost_is_height_plus_touched_leaves() {
        let f = Flash::new(pds_flash::FlashGeometry::new(512, 16, 4096));
        let tree = TreeIndex::build(&f, &ram(), entries(50_000, 1).into_iter()).unwrap();
        f.reset_stats();
        let got = tree
            .lookup_range(&10_000u32.to_be_bytes(), &10_200u32.to_be_bytes())
            .unwrap();
        assert_eq!(got.len(), 201);
        let reads = f.stats().page_reads;
        // height-1 internals + ~201/keys_per_leaf leaves + 1 overshoot.
        assert!(reads < 15, "range scan cost {reads}");
    }

    #[test]
    fn the_largest_entry_a_page_takes_is_one_page_and_one_byte_more_is_refused() {
        // A 512-byte page holds a 504-byte record; 3 bytes of kind and
        // count leave 501 for an entry of 2 klen + key + 4 rowid.
        let f = flash();
        let key = |len: usize| vec![7u8; len];
        let tree = TreeIndex::build(&f, &ram(), [(key(495), 9)].into_iter()).unwrap();
        // One record, one page: nothing split across two.
        assert_eq!((tree.num_pages(), tree.log.num_records()), (1, 1));
        assert_eq!(tree.lookup_cost(&key(495)).unwrap(), 1);
        assert_eq!(tree.lookup(&key(495)).unwrap(), vec![9]);
        let free = f.free_blocks();
        let err = TreeIndex::build(&f, &ram(), [(key(496), 1)].into_iter()).err();
        assert!(
            matches!(
                err,
                Some(DbError::Flash(FlashError::RecordTooLarge {
                    len: 502,
                    max: 501
                }))
            ),
            "{err:?}"
        );
        assert_eq!(f.free_blocks(), free, "a refused build leaves no block");
    }

    #[test]
    fn a_level_of_one_separator_a_page_is_refused_before_the_next() {
        // 495-byte keys: one entry fills a 512-byte leaf and one
        // separator an internal page, so no level above the leaves is
        // ever smaller than the one below it.
        let f = flash();
        let entries = (0..40u32).map(|i| {
            let mut key = vec![7u8; 495];
            key[491..].copy_from_slice(&i.to_be_bytes());
            (key, i)
        });
        let free = f.free_blocks();
        f.reset_stats();
        let err = TreeIndex::build(&f, &ram(), entries).err();
        assert!(
            matches!(
                err,
                Some(DbError::Flash(FlashError::RecordTooLarge {
                    len: 501,
                    max: 250
                }))
            ),
            "{err:?}"
        );
        assert_eq!(f.free_blocks(), free, "a refused build leaves no block");
        // The 40 leaves and the 40 pages of the level above, each page's
        // separator on a level log: nothing past the first level.
        let programs = f.stats().page_programs;
        assert!(programs <= 2 * (40 + 40), "{programs} page programs");
    }

    #[test]
    fn string_keys_work() {
        let f = flash();
        let mut input: Vec<SortEntry> = ["lyon", "paris", "lyon", "nice", "lyon"]
            .iter()
            .enumerate()
            .map(|(i, s)| (s.as_bytes().to_vec(), i as u32))
            .collect();
        input.sort();
        let tree = TreeIndex::build(&f, &ram(), input.into_iter()).unwrap();
        assert_eq!(tree.lookup(b"lyon").unwrap(), vec![0, 2, 4]);
        assert_eq!(tree.lookup(b"paris").unwrap(), vec![1]);
        assert!(tree.lookup(b"marseille").unwrap().is_empty());
    }
}
