//! Checkpointed recovery ≡ full rebuild.
//!
//! [`SearchEngine::recover`] keeps the index log up to its last
//! checkpoint and replays only the tail. The oracle is the same recovery
//! with the checkpoint *withheld* (an [`EngineManifest`] whose
//! `checkpoint_blocks` are emptied), which re-indexes every document on a
//! fresh log. Every case recovers one chip snapshot both ways and demands
//! identical answers — hits and scores of a fixed query set, every
//! document's bytes, the recovery counts — and again after both engines
//! took 50 more documents and a second power cycle.
//!
//! Which path a recovery must take is predicted from a fault-free dry run
//! of the script, so a cut *on* a checkpoint page, between the last
//! index page and the checkpoint, inside a drain or inside a
//! reorganization is recognised as such and not merely survived. Scripts
//! are long enough for the tail of the index log to be drained into the
//! chains several times at the sweep's shape. Seeded by the in-tree RNG;
//! `PDS_CRASH_SEEDS` widens the random sweep like `pds-flash`'s.

#![cfg(test)]

use std::collections::BTreeSet;

use pds_flash::{BlockId, ChipSnapshot, FaultPlan, Flash, FlashError, FlashGeometry, LogWriter};
use pds_mcu::RamBudget;
use pds_obs::flight;
use pds_obs::rng::{Rng, SeedableRng, StdRng};

use crate::engine::{
    DfStrategy, EngineManifest, EngineRecovery, RebuildReason, SearchEngine, SearchError,
    SearchMode,
};
use crate::oracle::NaiveSearch;
use crate::tokenize::term_hash;
use crate::triple::DocId;
use crate::SearchHit;

const RAM: usize = 64 * 1024;
const VOCAB: usize = 24;
const QUERIES: &[&[&str]] = &[
    &["w0"],
    &["w3", "w7"],
    &["w1", "w11", "w5"],
    &["w2", "zzz"],
    &["extra"],
];

/// Small pages and blocks, so a short script crosses block boundaries in
/// every log — the checkpoint log included.
const PAGE_SIZE: usize = 512;
const PAGES_PER_BLOCK: usize = 8;

#[derive(Debug, Clone, Copy)]
struct Shape {
    num_buckets: usize,
    buffer_triples: usize,
}

const SMALL: Shape = Shape {
    num_buckets: 16,
    buffer_triples: 32,
};

impl Shape {
    fn flash(&self) -> Flash {
        Flash::new(FlashGeometry::new(PAGE_SIZE, PAGES_PER_BLOCK, 2048))
    }

    fn engine(&self, flash: &Flash) -> SearchEngine {
        let ram = RamBudget::new(RAM);
        let df = DfStrategy::TwoPass;
        SearchEngine::new(flash, &ram, self.num_buckets, self.buffer_triples, df).unwrap()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Index(String),
    Delete(DocId),
    Flush,
    Reorganize,
}

fn text(rng: &mut StdRng, tag: &str) -> String {
    let words: Vec<String> = (0..rng.gen_range(3usize..12))
        // Squaring skews toward the low ranks: long and short chains.
        .map(|_| format!("w{}", rng.gen_range(0..VOCAB * VOCAB) / VOCAB))
        .collect();
    format!("{tag} {}", words.join(" "))
}

fn index_ops(rng: &mut StdRng, n: usize) -> Vec<Op> {
    (0..n).map(|_| Op::Index(text(rng, "doc"))).collect()
}

fn random_script(rng: &mut StdRng) -> Vec<Op> {
    let mut ops = index_ops(rng, 1);
    let mut docs = 1u32;
    for _ in 0..rng.gen_range(10usize..260) {
        match rng.gen_range(0u32..100) {
            0..=69 => {
                docs += 1;
                ops.push(Op::Index(text(rng, "doc")));
            }
            70..=79 => ops.push(Op::Delete(rng.gen_range(0..docs))),
            80..=94 => ops.push(Op::Flush),
            // Flushed first, so that every checkpoint a script writes is
            // the last program of one of its operations.
            _ => ops.extend([Op::Flush, Op::Reorganize]),
        }
    }
    ops
}

fn apply(e: &mut SearchEngine, op: &Op) -> Result<(), SearchError> {
    match op {
        Op::Index(text) => e.index_document(text).map(|_| ()),
        Op::Delete(doc) => e.delete_document(*doc),
        Op::Flush => e.flush(),
        Op::Reorganize => e.reorganize(),
    }
}

/// What a fault-free run of a script looks like from outside: cumulative
/// page programs, index-log pages and those of them in the tail after
/// each operation.
struct DryRun {
    programs: Vec<u64>,
    index_pages: Vec<u32>,
    tail_pages: Vec<u32>,
}

impl DryRun {
    fn of(ops: &[Op], shape: Shape) -> DryRun {
        let flash = shape.flash();
        let mut e = shape.engine(&flash);
        let mut run = DryRun {
            programs: Vec::new(),
            index_pages: Vec::new(),
            tail_pages: Vec::new(),
        };
        for op in ops {
            apply(&mut e, op).unwrap();
            run.programs.push(flash.stats().page_programs);
            run.index_pages.push(e.num_index_pages());
            run.tail_pages.push(e.num_tail_pages());
        }
        run
    }

    /// Whether operation `i` drained the tail: nothing else shortens it.
    fn drains(&self, i: usize) -> bool {
        i > 0 && self.tail_pages[i] < self.tail_pages[i - 1]
    }

    /// The operation a cut after `cut` successful programs lands in.
    fn op_of(&self, cut: u64) -> usize {
        self.programs.partition_point(|&done| done <= cut)
    }

    /// Cut points (successful programs before the cut) that make the
    /// power die on each page program of operation `i` in turn.
    fn cuts_inside(&self, i: usize) -> std::ops::Range<u64> {
        let before = if i == 0 { 0 } else { self.programs[i - 1] };
        before..self.programs[i]
    }

    /// The paths recovery may take when the power dies on program number
    /// `cut + 1` (`None`: after the whole script, nothing flushed since),
    /// as `(index pages kept, rebuild reason)`. A checkpoint is the last
    /// page its `flush`/`reorganize` programs, so it is durable if that
    /// operation's every program succeeded — and it *may* be when the cut
    /// hit that very page: a tear past the last meaningful byte leaves a
    /// page whole.
    fn expected(&self, ops: &[Op], cut: Option<u64>) -> Vec<(u32, Option<RebuildReason>)> {
        let syncs = |i: &usize| matches!(ops[*i], Op::Flush | Op::Reorganize);
        let done = |i: &usize| cut.is_none_or(|n| self.programs[*i] <= n);
        let mut paths = vec![match (0..ops.len()).filter(syncs).take_while(done).last() {
            Some(i) => (self.index_pages[i], None),
            None => (0, Some(RebuildReason::NoCheckpoint)),
        }];
        let hit = (0..ops.len()).find(|i| !done(i));
        if let (Some(i), Some(n)) = (hit.filter(syncs), cut) {
            if n + 1 == self.programs[i] {
                if matches!(ops[i], Op::Reorganize) {
                    // The new log is swapped in; the old one's
                    // checkpoint no longer describes the index.
                    paths = vec![(0, Some(RebuildReason::StaleEpoch))];
                }
                paths.push((self.index_pages[i], None));
            }
        }
        paths
    }
}

/// One recovered engine and what it takes to audit it.
struct Side {
    flash: Flash,
    engine: SearchEngine,
    report: EngineRecovery,
}

impl Side {
    fn recover(snap: ChipSnapshot, m: &EngineManifest) -> Side {
        let flash = Flash::reopen(snap);
        let (engine, report) = SearchEngine::recover(&flash, &RamBudget::new(RAM), m).unwrap();
        let side = Side {
            flash,
            engine,
            report,
        };
        side.assert_blocks_accounted(m);
        side
    }

    /// Allocator accounting right after a recovery: every block the
    /// manifest named is free or owned by exactly one recovered log, no
    /// owned block is free, and no block is owned twice. (Blocks a log
    /// *released before the cut* are outside this: the simulator forgets
    /// its free list at power-off and re-derives it from erased cells, so
    /// a freed-but-not-yet-erased block belongs to nobody after a reboot
    /// — a property of `Flash::reopen`, not of this recovery.)
    fn assert_blocks_accounted(&self, named: &EngineManifest) {
        let is_free = |b: BlockId| {
            let free = self.flash.claim_block(b);
            if free {
                self.flash.free_block(b);
            }
            free
        };
        let now = self.engine.manifest();
        let mut owned = BTreeSet::new();
        for b in all_blocks(&now) {
            assert!(owned.insert(b), "block {b:?} owned twice");
            assert!(!is_free(b), "owned block {b:?} is in the free list");
        }
        for b in all_blocks(named) {
            assert!(
                owned.contains(&b) || is_free(b),
                "manifest block {b:?} leaked: neither owned nor free"
            );
        }
    }

    fn power_cycle(self) -> (ChipSnapshot, EngineManifest) {
        (self.flash.snapshot(), self.engine.manifest())
    }
}

fn all_blocks(m: &EngineManifest) -> impl Iterator<Item = BlockId> + '_ {
    m.doc_blocks
        .iter()
        .chain(&m.tombstone_blocks)
        .chain(&m.index_blocks)
        .chain(&m.checkpoint_blocks)
        .copied()
}

fn withheld(m: &EngineManifest) -> EngineManifest {
    EngineManifest {
        checkpoint_blocks: Vec::new(),
        ..m.clone()
    }
}

fn assert_same_answers(a: &SearchEngine, b: &SearchEngine, ctx: &str) {
    assert_eq!(a.num_docs(), b.num_docs(), "{ctx}: docs");
    assert_eq!(a.num_deleted(), b.num_deleted(), "{ctx}: deleted");
    for q in QUERIES {
        for mode in [SearchMode::Any, SearchMode::All] {
            let hits = |e: &SearchEngine| -> Vec<(DocId, u64)> {
                e.search_mode(q, 12, mode)
                    .unwrap()
                    .iter()
                    .map(|h| (h.doc, h.score.to_bits()))
                    .collect()
            };
            assert_eq!(hits(a), hits(b), "{ctx}: {q:?} {mode:?}");
        }
    }
    for doc in 0..a.num_docs() {
        assert_eq!(
            a.get_document(doc).ok(),
            b.get_document(doc).ok(),
            "{ctx}: bytes of doc {doc}"
        );
    }
}

fn assert_same_counts(a: &EngineRecovery, b: &EngineRecovery, ctx: &str) {
    assert_eq!(
        (a.docs_recovered, a.docs_lost, a.tombstones_applied),
        (b.docs_recovered, b.docs_lost, b.tombstones_applied),
        "{ctx}: recovery counts"
    );
}

/// Run `ops` until the power dies on program `cut + 1` (`None`: pull the
/// plug after the last operation, nothing flushed), and hand back the
/// chip and the manifest as of the cut — at which every block of the chip
/// must be free or held by one of the engine's logs.
fn crash(ops: &[Op], shape: Shape, cut: Option<u64>, seed: u64) -> (ChipSnapshot, EngineManifest) {
    let flash = shape.flash();
    let mut e = shape.engine(&flash);
    if let Some(n) = cut {
        flash.inject_faults(FaultPlan::new(seed).power_loss_after(n));
    }
    for op in ops {
        match apply(&mut e, op) {
            Ok(()) => {}
            Err(SearchError::Flash(FlashError::PowerLoss)) => {
                // Block accounting at the cut, inside a drain or a
                // reorganisation too: every block is free or held by one
                // of the engine's live logs.
                assert_eq!(
                    flash.free_blocks() + all_blocks(&e.manifest()).count(),
                    flash.geometry().num_blocks(),
                    "seed {seed:#x} cut {cut:?}: {op:?} leaked blocks"
                );
                break;
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    assert_eq!(
        cut.is_some(),
        !flash.is_powered(),
        "cut must land inside the script"
    );
    (flash.snapshot(), e.manifest())
}

/// The whole differential check for one crash: recover both ways, compare
/// (and check the path taken against the dry run's prediction), then 50
/// more documents with a flush somewhere in the middle, a second power
/// cycle, and compare again. Returns the kept side's first report.
fn crash_and_compare(
    ops: &[Op],
    shape: Shape,
    dry: &DryRun,
    cut: Option<u64>,
    seed: u64,
) -> EngineRecovery {
    let ctx = format!("seed {seed:#x} cut {cut:?}");
    let (snap, m) = crash(ops, shape, cut, seed);
    let mut kept = Side::recover(snap.clone(), &m);
    let mut full = Side::recover(snap, &withheld(&m));
    let first = kept.report.clone();

    let took = (first.index_pages_kept, first.index_rebuild);
    let may = dry.expected(ops, cut);
    assert!(
        may.contains(&took),
        "{ctx}: took {took:?}, expected {may:?}"
    );
    assert!(full.report.index_rebuild.is_some(), "{ctx}: oracle kept");
    assert_eq!(full.report.docs_replayed, full.report.docs_recovered);
    assert_same_counts(&first, &full.report, &ctx);
    assert_same_answers(&kept.engine, &full.engine, &ctx);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x50);
    let flush_at = rng.gen_range(0..50);
    for i in 0..50 {
        let extra = text(&mut rng, "extra");
        for side in [&mut kept, &mut full] {
            side.engine.index_document(&extra).unwrap();
            if i == flush_at {
                side.engine.flush().unwrap();
            }
        }
    }
    assert_same_answers(&kept.engine, &full.engine, &format!("{ctx}: +50"));
    let [kept, full] = [kept, full].map(|side| {
        let (snap, m) = side.power_cycle();
        Side::recover(snap, &m)
    });
    let ctx = format!("{ctx}: second cycle");
    // Both now own a checkpoint from the flush above.
    assert_eq!(kept.report.index_rebuild, None, "{ctx}");
    assert_eq!(full.report.index_rebuild, None, "{ctx}");
    assert_same_counts(&kept.report, &full.report, &ctx);
    assert_same_answers(&kept.engine, &full.engine, &ctx);
    first
}

fn crash_seed_count() -> u64 {
    std::env::var("PDS_CRASH_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

#[test]
fn checkpointed_recovery_equals_full_rebuild_sweep() {
    let (mut kept_paths, mut cuts_in_a_drain) = (0, 0);
    for case in 0..crash_seed_count() {
        let seed = 0x1DC_0000 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = random_script(&mut rng);
        let dry = DryRun::of(&ops, SMALL);
        let total = *dry.programs.last().unwrap();
        // One case in six pulls the plug after the script instead.
        let cut = (total > 0 && case % 6 != 5).then(|| rng.gen_range(0..total));
        let report = crash_and_compare(&ops, SMALL, &dry, cut, seed);
        kept_paths += u64::from(report.index_rebuild.is_none());
        cuts_in_a_drain += u64::from(cut.is_some_and(|n| dry.drains(dry.op_of(n))));
    }
    assert!(kept_paths > 0, "the sweep never took the checkpoint path");
    assert!(
        cuts_in_a_drain > 0,
        "the sweep never cut a draining operation"
    );
}

/// `ops` with the cut swept over every page program of operation `i`,
/// under three fault seeds each (dropped, torn, or torn so late that the
/// page is whole: the seed's choice). Returns `(cut, report)` pairs;
/// `crash_and_compare` has already checked each against the dry run.
fn sweep_inside(ops: &[Op], shape: Shape, dry: &DryRun, i: usize) -> Vec<(u64, EngineRecovery)> {
    let cuts = dry.cuts_inside(i);
    assert!(!cuts.is_empty(), "operation {i} programs nothing");
    cuts.flat_map(|cut| [cut, cut ^ 0xD0D0, cut ^ 0xFEED].map(|seed| (cut, seed)))
        .map(|(cut, seed)| (cut, crash_and_compare(ops, shape, dry, Some(cut), seed)))
        .collect()
}

#[test]
fn a_cut_anywhere_inside_a_flush_falls_back_to_the_previous_checkpoint() {
    let mut rng = StdRng::seed_from_u64(0xF1);
    let mut ops = index_ops(&mut rng, 20);
    ops.push(Op::Flush);
    ops.extend(index_ops(&mut rng, 15));
    ops.push(Op::Delete(3));
    ops.push(Op::Flush);
    let last = ops.len() - 1;
    let dry = DryRun::of(&ops, SMALL);
    let (first_checkpoint, on_checkpoint) = (dry.index_pages[20], dry.programs[last] - 1);
    // Bucket pages, then the document page and the tombstone page
    // (between the last bucket page and the checkpoint), then the
    // checkpoint page itself.
    let reports = sweep_inside(&ops, SMALL, &dry, last);
    assert!(reports.len() >= 3 * 4);
    for (cut, r) in &reports {
        assert_eq!(r.index_rebuild, None, "cut {cut}");
        if *cut != on_checkpoint {
            assert_eq!(r.index_pages_kept, first_checkpoint, "cut {cut}");
        }
    }
    assert!(
        reports
            .iter()
            .any(|(cut, r)| *cut == on_checkpoint && r.index_pages_kept == first_checkpoint),
        "no fault seed actually lost the checkpoint page"
    );
    // And with every program done, the second checkpoint is the one used.
    let clean = crash_and_compare(&ops, SMALL, &dry, None, 0xF1);
    assert_eq!(clean.index_pages_kept, dry.index_pages[last]);
    assert_eq!(clean.docs_replayed, 0);
}

#[test]
fn a_cut_at_every_program_inside_reorganize_recovers_equal() {
    let mut rng = StdRng::seed_from_u64(0xF2);
    let mut ops = index_ops(&mut rng, 40);
    ops.extend((0..10).map(|d| Op::Delete(d * 3)));
    ops.push(Op::Flush);
    ops.push(Op::Reorganize);
    let reorg = ops.len() - 1;
    let dry = DryRun::of(&ops, SMALL);
    let on_checkpoint = dry.programs[reorg] - 1;
    let reports = sweep_inside(&ops, SMALL, &dry, reorg);
    // Until the swap the old log and its checkpoint stand; the only
    // program after the swap is the new log's checkpoint.
    for (cut, r) in &reports {
        if *cut != on_checkpoint {
            assert_eq!((r.index_rebuild, r.docs_replayed), (None, 0), "cut {cut}");
        }
    }
    assert!(
        reports
            .iter()
            .any(|(_, r)| r.index_rebuild == Some(RebuildReason::StaleEpoch)),
        "no fault seed cut between the swap and its checkpoint"
    );
}

/// 60 documents (the tail drained on the way), a flush, and
/// documents until the tail is drained again, then a flush: the script,
/// its dry run, and the index of the draining operation. The checkpoint
/// at operation 60 names a tail and heads that this drain tops up.
fn script_with_a_drain_after_a_flush(seed: u64) -> (Vec<Op>, DryRun, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = index_ops(&mut rng, 60);
    ops.push(Op::Flush);
    ops.extend(index_ops(&mut rng, 60));
    let dry = DryRun::of(&ops, SMALL);
    assert!(
        (0..60).any(|i| dry.drains(i)),
        "the checkpoint must name chains"
    );
    assert!(dry.tail_pages[60] > 0, "the checkpoint must name a tail");
    let drain = (61..ops.len()).find(|&i| dry.drains(i)).unwrap();
    ops.truncate(drain + 1);
    ops.push(Op::Flush);
    let dry = DryRun::of(&ops, SMALL);
    (ops, dry, drain)
}

#[test]
fn a_cut_at_every_program_inside_a_drain_recovers_equal() {
    let (ops, dry, drain) = script_with_a_drain_after_a_flush(0xFA);
    // The staged page that made the tail long enough, then a drain's
    // programs: a head page per bucket with triples in the tail, at least.
    let reports = sweep_inside(&ops[..=drain], SMALL, &dry, drain);
    assert!(reports.len() >= 3 * 9, "{} cuts", reports.len());
    // Heads and tail change in RAM after the drain's last program and
    // reach flash with the next checkpoint: whatever the drain had
    // programmed lies past the frontier of the last one.
    for (cut, r) in &reports {
        assert_eq!(
            (r.index_rebuild, r.index_pages_kept),
            (None, dry.index_pages[60]),
            "cut {cut}"
        );
        assert_eq!(r.docs_replayed, r.docs_recovered - 60, "cut {cut}");
    }
}

/// The df of every word, against the oracle over the documents `side`
/// holds, and its page reads: the tail pages a walk reads and the
/// chain's head, whose table answers — no deletion, and a vocabulary
/// small enough for every table to be complete. Then the ranked hits,
/// scores bit for bit. Returns how many counts skipped chain pages.
fn assert_df_from_the_heads(side: &Side, texts: &[&str], ctx: &str) -> usize {
    let e = &side.engine;
    let mut oracle = NaiveSearch::new();
    for text in &texts[..e.num_docs() as usize] {
        oracle.index(text);
    }
    let mut skipped = 0;
    let words = (0..VOCAB).map(|w| format!("w{w}"));
    for word in words.chain(["doc".into(), "zzz".into()]) {
        let term = term_hash(&word);
        let (tail, chain) = e.walk_pages(term).unwrap();
        let before = side.flash.stats().page_reads;
        let df = e.count_df(term).unwrap();
        let reads = side.flash.stats().page_reads - before;
        assert_eq!(df, oracle.df(term), "{ctx}: df of {word}");
        assert_eq!(reads, tail + chain.min(1), "{ctx}: reads of {word}");
        skipped += usize::from(chain > 1);
    }
    let bits = |hits: &[SearchHit]| -> Vec<(DocId, u64)> {
        hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
    };
    for q in QUERIES {
        assert_eq!(
            bits(&e.search(q, 12).unwrap()),
            bits(&oracle.search(q, 12)),
            "{ctx}: {q:?}"
        );
        assert_eq!(
            bits(&e.search_mode(q, 12, SearchMode::All).unwrap()),
            bits(&oracle.search_all(q, 12)),
            "{ctx}: {q:?} (all)"
        );
    }
    skipped
}

#[test]
fn a_cut_at_every_program_of_a_drain_keeps_df_in_the_heads() {
    // One script per 16 sweep seeds, each cut on every program of its
    // drain — the heads, which carry the tables, included — under two
    // fault seeds: the recovered engine counts on the checkpoint's heads
    // and on those its replay drains.
    let mut skipped = 0;
    for script in 0..crash_seed_count().div_ceil(16) {
        let (ops, dry, drain) = script_with_a_drain_after_a_flush(0xFD00 + script);
        let texts: Vec<&str> = (ops.iter())
            .filter_map(|op| match op {
                Op::Index(text) => Some(text.as_str()),
                _ => None,
            })
            .collect();
        for cut in dry.cuts_inside(drain) {
            for seed in [cut, cut ^ 0xD0D0] {
                let (snap, m) = crash(&ops[..=drain], SMALL, Some(cut), seed);
                let side = Side::recover(snap, &m);
                assert_eq!(side.report.tombstones_applied, 0);
                let ctx = format!("script {script} cut {cut}");
                skipped += assert_df_from_the_heads(&side, &texts, &ctx);
            }
        }
        // And the drain let through.
        let (snap, m) = crash(&ops, SMALL, None, script);
        assert_df_from_the_heads(&Side::recover(snap, &m), &texts, "uncut");
    }
    assert!(skipped > 0, "no count skipped a chain page");
}

#[test]
fn a_cut_between_a_drain_and_the_next_checkpoint_falls_back_to_the_previous_one() {
    let (ops, dry, drain) = script_with_a_drain_after_a_flush(0xFB);
    // The plug pulled right after the drain, nothing flushed since.
    let unplugged = crash_and_compare(&ops[..=drain], SMALL, &dry, None, 0xFB);
    assert_eq!(unplugged.index_pages_kept, dry.index_pages[60]);
    // Every program of the flush that follows: its staged page, the
    // document page, and the checkpoint page itself.
    let flush = drain + 1;
    let on_checkpoint = dry.programs[flush] - 1;
    for (cut, r) in sweep_inside(&ops, SMALL, &dry, flush) {
        assert_eq!(r.index_rebuild, None, "cut {cut}");
        if cut != on_checkpoint {
            assert_eq!(r.index_pages_kept, dry.index_pages[60], "cut {cut}");
        }
    }
    // With the checkpoint durable the drained log is what is kept: the
    // heads the drain wrote, and a tail that starts past them.
    let clean = crash_and_compare(&ops, SMALL, &dry, None, 0xFB);
    assert_eq!(clean.index_pages_kept, dry.index_pages[flush]);
    assert_eq!(clean.docs_replayed, 0);
}

#[test]
fn a_checkpoint_spanning_two_records_is_all_or_nothing() {
    // 12 + 4·128 bytes of body do not fit one 504-byte record.
    let wide = Shape {
        num_buckets: 128,
        buffer_triples: 256,
    };
    let mut rng = StdRng::seed_from_u64(0xF3);
    let mut ops = index_ops(&mut rng, 30);
    ops.push(Op::Flush);
    ops.extend(index_ops(&mut rng, 30));
    ops.push(Op::Flush);
    let last = ops.len() - 1;
    let dry = DryRun::of(&ops, wide);
    let second_page = dry.programs[last] - 1;
    for (cut, r) in sweep_inside(&ops, wide, &dry, last) {
        assert_eq!(r.index_rebuild, None, "cut {cut}");
        if cut + 1 == second_page {
            // The first checkpoint page is whole, the second never
            // started: a partial checkpoint, which must not be used.
            assert_eq!(r.index_pages_kept, dry.index_pages[30]);
        }
    }
    let clean = crash_and_compare(&ops, wide, &dry, None, 0xF3);
    assert_eq!(clean.index_pages_kept, dry.index_pages[last]);
}

#[test]
fn the_checkpoint_log_rotates_at_block_grain() {
    let mut rng = StdRng::seed_from_u64(0xF4);
    let flash = SMALL.flash();
    let mut e = SMALL.engine(&flash);
    let mut ops = Vec::new();
    // One checkpoint page per round: 40 rounds cross five boundaries of
    // the 8-page blocks.
    for _ in 0..40 {
        ops.extend(index_ops(&mut rng, 1));
        ops.push(Op::Flush);
        for op in &ops[ops.len() - 2..] {
            apply(&mut e, op).unwrap();
        }
        let held = e.manifest().checkpoint_blocks.len();
        assert!(held <= 2, "checkpoint log holds {held} blocks");
    }
    // Cuts on every program of the flushes around a boundary: whichever
    // block the newest complete checkpoint sits in, recovery finds it.
    let dry = DryRun::of(&ops, SMALL);
    for round in 14..18 {
        // A prefix of the script has the same dry run up to its end.
        for (cut, r) in sweep_inside(&ops[..2 * round + 2], SMALL, &dry, 2 * round + 1) {
            assert_eq!(r.index_rebuild, None, "round {round} cut {cut}");
        }
    }
}

/// 30 documents, a flush, `tail_docs` more and the plug pulled: a
/// recovery that replays `tail_docs` documents, cut at every program it
/// makes, and recovered again. Returns how many recoveries were cut and
/// how many times the replay drained the tail.
fn second_crash_during_the_tail_replay(seed: u64, tail_docs: usize) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = index_ops(&mut rng, 30);
    ops.push(Op::Flush);
    ops.extend(index_ops(&mut rng, tail_docs));
    // The replay indexes the same documents from the same state as the
    // script did after its flush: it drains where the script drained.
    let dry = DryRun::of(&ops, SMALL);
    let drains = (31..ops.len()).filter(|&i| dry.drains(i)).count();
    let (snap, m) = crash(&ops, SMALL, None, seed);
    let full = Side::recover(snap.clone(), &withheld(&m));

    let mut crashed_recoveries = 0;
    for cut in 0.. {
        let flash = Flash::reopen(snap.clone());
        flash.inject_faults(FaultPlan::new(cut).power_loss_after(cut));
        match SearchEngine::recover(&flash, &RamBudget::new(RAM), &m) {
            Err(SearchError::Flash(FlashError::PowerLoss)) => crashed_recoveries += 1,
            Err(other) => panic!("cut {cut}: {other}"),
            Ok(_) => break, // the cut lies past everything recovery programs
        }
        // The catalog still names the logs as of the first cut; what the
        // dead recovery programmed past the frontier is garbage again.
        let again = Side::recover(flash.snapshot(), &m);
        let ctx = format!("recovery cut {cut}");
        assert_eq!(again.report.index_rebuild, None, "{ctx}");
        assert_eq!(
            again.report.docs_replayed,
            full.report.docs_recovered - 30,
            "{ctx}"
        );
        assert_same_counts(&again.report, &full.report, &ctx);
        assert_same_answers(&again.engine, &full.engine, &ctx);
    }
    (crashed_recoveries, drains)
}

#[test]
fn a_second_crash_during_the_tail_replay_changes_nothing() {
    // A tail long enough that replaying it overflows the insertion
    // buffer and programs index pages.
    let (crashed, _) = second_crash_during_the_tail_replay(0xF5, 40);
    assert!(crashed >= 8, "the replay must program pages");
}

#[test]
fn a_second_crash_while_the_tail_replay_drains_changes_nothing() {
    // And one long enough that the replay drains what it staged, twice
    // over: cuts on staged pages, on topped-up heads, between drains.
    let (crashed, drains) = second_crash_during_the_tail_replay(0xFC, 90);
    assert!(
        drains >= 2 && crashed >= 40,
        "{drains} drains, {crashed} cuts"
    );
}

#[test]
fn an_unusable_checkpoint_is_a_rebuild_never_a_panic() {
    let mut rng = StdRng::seed_from_u64(0xF7);
    // Enough documents for a second block of the document log.
    let mut ops = index_ops(&mut rng, 200);
    ops.push(Op::Flush);
    let (snap, m) = crash(&ops, SMALL, None, 0xF7);
    // Keeping the index is silent; never having had a checkpoint is an
    // `Info`, not a warning.
    flight::drain();
    Side::recover(snap.clone(), &m);
    assert!(flight::drain().is_empty());
    let full = Side::recover(snap.clone(), &withheld(&m));
    assert_eq!(full.report.index_rebuild, Some(RebuildReason::NoCheckpoint));
    let frames = flight::drain();
    assert_eq!(frames[0].severity, flight::Severity::Info);
    assert_eq!(frames[0].args[0], 1, "NoCheckpoint's code");

    // A manifest that does not fit the checkpoint: another epoch, fewer
    // documents than the checkpoint covers, fewer index blocks than it
    // names, and the blocks of some other log under the same frontier.
    assert!(m.doc_blocks.len() > 1);
    let fewer_docs = EngineManifest {
        doc_blocks: m.doc_blocks[..1].to_vec(),
        ..m.clone()
    };
    let mut shuffled = m.index_blocks.clone();
    shuffled.reverse();
    assert!(shuffled.len() > 1);
    let cases = [
        (
            EngineManifest {
                index_epoch: m.index_epoch + 1,
                ..m.clone()
            },
            RebuildReason::StaleEpoch,
            3,
        ),
        (fewer_docs, RebuildReason::DocsMissing, 4),
        (
            EngineManifest {
                index_blocks: m.index_blocks[..1].to_vec(),
                ..m.clone()
            },
            RebuildReason::PagesMissing,
            5,
        ),
        (
            EngineManifest {
                index_blocks: shuffled,
                ..m.clone()
            },
            RebuildReason::ChainMismatch,
            6,
        ),
    ];
    for (manifest, why, code) in cases {
        assert_eq!(why.code(), code, "{why:?}");
        let flash = Flash::reopen(snap.clone());
        flight::drain();
        let (engine, report) =
            SearchEngine::recover(&flash, &RamBudget::new(RAM), &manifest).unwrap();
        assert_eq!(report.index_rebuild, Some(why));
        assert_eq!(report.index_pages_kept, 0, "{why:?}");
        assert_eq!(report.docs_replayed, report.docs_recovered, "{why:?}");
        // The token had a checkpoint and still re-indexed: a post-mortem
        // must show that, and why.
        let frames = flight::drain();
        let [frame] = frames.as_slice() else {
            panic!("{why:?}: {frames:?}");
        };
        assert_eq!(
            (frame.severity, frame.code, frame.args),
            (
                flight::Severity::Warn,
                flight::code::RECOVERY_INDEX_REBUILD,
                [code, u64::from(report.docs_replayed)]
            )
        );
        if why != RebuildReason::DocsMissing {
            assert_same_answers(&engine, &full.engine, &format!("{why:?}"));
        }
    }
}

/// Page reads of re-adopting a record log — the CRC scan, and for the
/// logs `recover` then walks record by record (tombstones, checkpoints)
/// a second read of every page.
fn record_log_reads(snap: &ChipSnapshot, blocks: &[BlockId], walked: bool) -> u64 {
    let flash = Flash::reopen(snap.clone());
    let (log, _) = LogWriter::recover(&flash, blocks).unwrap();
    if walked {
        log.for_each_record(|_, _| Ok(())).unwrap();
    }
    flash.stats().page_reads
}

#[test]
fn recovery_work_does_not_grow_with_the_corpus() {
    let index_side_reads = |docs: usize| {
        let mut rng = StdRng::seed_from_u64(0xF8);
        let mut ops = index_ops(&mut rng, docs);
        ops.push(Op::Flush);
        let (snap, m) = crash(&ops, SMALL, None, 0xF8);
        let side = Side::recover(snap.clone(), &m);
        let io = side.flash.stats();
        assert_eq!(io.page_programs, 0, "{docs} docs: a clean reopen writes");
        assert_eq!(side.report.docs_replayed, 0);
        // The document log's scan does grow with the corpus — a lead for
        // a later change; what this pins is everything else.
        io.page_reads
            - record_log_reads(&snap, &m.doc_blocks, false)
            - record_log_reads(&snap, &m.tombstone_blocks, true)
            - record_log_reads(&snap, &m.checkpoint_blocks, true)
    };
    let bound = SMALL.num_buckets as u64 + 1;
    let (small, large) = (index_side_reads(150), index_side_reads(600));
    assert!(small <= bound, "N: {small} index-side page reads");
    assert!(large <= bound, "4N: {large} index-side page reads");
}

#[test]
fn after_a_cut_recovery_programs_the_tail_and_at_most_one_block() {
    let mut rng = StdRng::seed_from_u64(0xF9);
    let mut ops = index_ops(&mut rng, 300);
    ops.push(Op::Flush);
    ops.extend(index_ops(&mut rng, 25));
    let dry = DryRun::of(&ops, SMALL);
    let tail_pages = u64::from(dry.index_pages[ops.len() - 1] - dry.index_pages[300]);
    assert!(tail_pages > 0, "the tail must reach the index log");
    let (snap, m) = crash(&ops, SMALL, None, 0xF9);
    let side = Side::recover(snap, &m);
    assert_eq!(side.report.docs_replayed, side.report.docs_recovered - 300);
    assert!(side.report.docs_replayed > 0);
    let programs = side.flash.stats().page_programs;
    let block = PAGES_PER_BLOCK as u64;
    assert!(
        programs <= tail_pages + block,
        "{programs} programs for a {tail_pages}-page tail"
    );
}
