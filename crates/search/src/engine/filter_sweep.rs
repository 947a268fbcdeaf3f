//! The tail's term filters against an engine that has none to go by.
//!
//! Two engines take the same drawn operations on two chips of one
//! geometry, so that their logs hold the same pages at the same places;
//! before each look, one of them forgets its filters — every tail page
//! unknown, as a recovery leaves it — and walks as if the tail had none.
//! For every term, the df, the postings a query's walk keeps for its
//! cursor and the ranked hits must be that engine's — and the df and the
//! hits [`NaiveSearch`]'s, which a wrong span would miss — and no count
//! or query may read more pages. The script covers 512 B, 2 KB and 4 KB
//! pages at 8–32 buckets and 32–128 buffered triples, and one seed in
//! eight the secure gateway's `(128, 768)` on 2 KB pages; it looks
//! between syncs and after them, after a failed drain, after a recovery —
//! whose wake noted the filters of the tail it kept — and after the drain
//! a recovered engine makes first, failed and then let through.
//! `PDS_CRASH_SEEDS` widens it as it does the crash sweeps.

#![cfg(test)]

use pds_flash::{BlockId, Flash, FlashGeometry};
use pds_mcu::RamBudget;
use pds_obs::rng::{sweep_seeds, Rng, SeedableRng, StdRng};

use super::{SearchEngine, SearchError, SearchHit, SearchMode, KEPT_LEN};
use crate::tokenize::term_hash;
use crate::{DfStrategy, NaiveSearch};

const VOCAB: usize = 80;

/// A document of 3–10 skewed words, `common` in most of them.
fn text(rng: &mut StdRng) -> String {
    let mut words = Vec::new();
    if rng.gen_range(0..4) != 0 {
        words.push("common".to_string());
    }
    for _ in 0..rng.gen_range(3usize..10) {
        words.push(format!("w{}", rng.gen_range(0..VOCAB * VOCAB) / VOCAB));
    }
    words.join(" ")
}

const QUERIES: &[&[&str]] = &[
    &["common"],
    &["w0", "w1"],
    &["w3", "common", "w40"],
    &["w70", "absent"],
];

/// The two engines: `filtered` walks by its filters, `blind` forgets
/// them before every look.
struct Twins {
    chips: [Flash; 2],
    engines: [SearchEngine; 2],
    oracle: NaiveSearch,
    /// Page reads the filtered engine saved over the blind one.
    saved: u64,
}

impl Twins {
    fn new(geometry: FlashGeometry, num_buckets: usize, buffer: usize) -> Twins {
        let chips = [Flash::new(geometry), Flash::new(geometry)];
        let engines = chips.clone().map(|flash| {
            let ram = RamBudget::new(64 * 1024);
            SearchEngine::new(&flash, &ram, num_buckets, buffer, DfStrategy::TwoPass).unwrap()
        });
        Twins {
            chips,
            engines,
            oracle: NaiveSearch::new(),
            saved: 0,
        }
    }

    /// `op` on both engines, which must answer alike.
    fn both<T: std::fmt::Debug>(
        &mut self,
        mut op: impl FnMut(&mut SearchEngine) -> Result<T, SearchError>,
    ) -> Result<T, SearchError> {
        let [filtered, blind] = &mut self.engines;
        let (a, b) = (op(filtered), op(blind));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        a
    }

    fn index(&mut self, text: &str) {
        self.both(|e| e.index_document(text)).unwrap();
        self.oracle.index(text);
    }

    fn delete(&mut self, doc: u32) {
        self.both(|e| e.delete_document(doc)).unwrap();
        self.oracle.delete(doc);
    }

    /// The df, the kept postings, the ranked hits and the page reads of
    /// every term and query, on both engines: the same answers, and no
    /// more reads on the filtered one.
    fn check(&mut self, ctx: &str) {
        self.engines[1].forget_tail_filters();
        let words = (0..VOCAB).map(|w| format!("w{w}"));
        for word in words.chain(["common".into(), "absent".into()]) {
            let term = term_hash(&word);
            let [(a, a_reads), (b, b_reads)] = [0, 1].map(|side| {
                let (e, flash) = (&self.engines[side], &self.chips[side]);
                let page = flash.geometry().page_size;
                let (mut read, mut keep) = (vec![0u8; page], vec![0u8; page]);
                let before = flash.stats().page_reads;
                let walked = e.walk_term(term, &mut read, &mut keep).unwrap();
                keep.truncate(walked.kept * KEPT_LEN);
                let reads = flash.stats().page_reads - before;
                ((walked.df, keep), reads)
            });
            assert_eq!(a, b, "{ctx}: df and kept postings of {word}");
            assert_eq!(a.0, self.oracle.df(term), "{ctx}: df of {word}");
            assert!(
                a_reads <= b_reads,
                "{ctx}: {word} read {a_reads} > {b_reads}"
            );
            self.saved += b_reads - a_reads;
        }
        let bits = |hits: Vec<SearchHit>| -> Vec<(u32, u64)> {
            hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
        };
        for q in QUERIES {
            for mode in [SearchMode::Any, SearchMode::All] {
                let [(a, a_reads), (b, b_reads)] = [0, 1].map(|side| {
                    let before = self.chips[side].stats().page_reads;
                    let hits = bits(self.engines[side].search_mode(q, 10, mode).unwrap());
                    (hits, self.chips[side].stats().page_reads - before)
                });
                assert_eq!(a, b, "{ctx}: {q:?} {mode:?}");
                let want = match mode {
                    SearchMode::Any => self.oracle.search(q, 10),
                    SearchMode::All => self.oracle.search_all(q, 10),
                };
                assert_eq!(a, bits(want), "{ctx}: {q:?} {mode:?} (oracle)");
                assert!(
                    a_reads <= b_reads,
                    "{ctx}: {q:?} read {a_reads} > {b_reads}"
                );
                self.saved += b_reads - a_reads;
            }
        }
    }

    /// Syncs (which never drain) until the tail is due for a drain on an
    /// index log whose last block has room for some of the drain's
    /// programs but not all; then every free block taken, and a drain
    /// that fails part-way on both engines. The blocks held back.
    fn fail_a_drain(&mut self, rng: &mut StdRng) -> [Vec<BlockId>; 2] {
        let per_block = self.chips[0].geometry().pages_per_block as u32;
        loop {
            self.both(SearchEngine::flush).unwrap();
            let e = &self.engines[0];
            if e.tail_is_due() && !e.num_index_pages().is_multiple_of(per_block) {
                break;
            }
            self.index(&text(rng));
        }
        let ballast = (self.chips.clone())
            .map(|flash| std::iter::from_fn(|| flash.alloc_block().ok()).collect());
        let pages = self.engines[0].num_index_pages();
        let err = self.both(SearchEngine::drain).unwrap_err();
        assert!(matches!(err, SearchError::Flash(_)), "{err}");
        assert!(
            self.engines[0].num_index_pages() > pages,
            "the drain programmed"
        );
        ballast
    }

    fn free(&mut self, ballast: [Vec<BlockId>; 2]) {
        for (flash, blocks) in self.chips.iter().zip(ballast) {
            blocks.into_iter().for_each(|b| flash.free_block(b));
        }
    }

    /// Index documents until one of them drains the tail.
    fn index_until_drained(&mut self, rng: &mut StdRng) {
        let tail_start = self.engines[0].tail_start;
        while self.engines[0].tail_start == tail_start {
            self.index(&text(rng));
        }
    }

    /// Sync, cut the power and recover both engines from their chips.
    fn power_cycle(&mut self) {
        self.both(SearchEngine::flush).unwrap();
        assert!(self.engines[0].num_tail_pages() > 0);
        for side in 0..2 {
            let manifest = self.engines[side].manifest();
            self.chips[side] = self.chips[side].reboot();
            let ram = RamBudget::new(64 * 1024);
            let (engine, report) =
                SearchEngine::recover(&self.chips[side], &ram, &manifest).unwrap();
            assert_eq!((report.docs_lost, report.index_rebuild), (0, None));
            self.engines[side] = engine;
        }
    }
}

#[test]
fn tail_filters_never_hide_a_posting_sweep() {
    let mut saved = 0;
    for seed in 0..sweep_seeds(24) {
        let mut rng = StdRng::seed_from_u64(0x4600 + seed);
        let page_size = [512, 2048, 4096][seed as usize % 3];
        let num_buckets = [8, 16, 24, 32][rng.gen_range(0..4usize)];
        let buffer = [32, 64, 128][rng.gen_range(0..3usize)];
        // One seed in eight runs the secure gateway's shape instead, drawn
        // over so that every other seed's script stays as it was.
        let (page_size, num_buckets, buffer) = if seed % 8 == 7 {
            (2048, 128, 768)
        } else {
            (page_size, num_buckets, buffer)
        };
        let ctx = format!("seed {seed}: {page_size} B, {num_buckets} buckets, {buffer} triples");
        let mut twins = Twins::new(FlashGeometry::new(page_size, 8, 1024), num_buckets, buffer);
        // Ingest, looking between syncs and right after them; a deletion
        // on the way.
        let docs = rng.gen_range(150..400);
        for i in 0..docs {
            twins.index(&text(&mut rng));
            if i == docs / 2 {
                twins.delete(rng.gen_range(0..=i) as u32);
            }
            if i % 50 == 49 {
                twins.check(&format!("{ctx}: {i} docs"));
                twins.both(SearchEngine::flush).unwrap();
                twins.check(&format!("{ctx}: {i} docs, synced"));
            }
        }
        // A failed drain, its pages left among the tail; then one let
        // through over them.
        let ballast = twins.fail_a_drain(&mut rng);
        twins.check(&format!("{ctx}: after a failed drain"));
        twins.free(ballast);
        twins.index_until_drained(&mut rng);
        twins.check(&format!("{ctx}: drained over a failed drain"));
        // Recovered: the wake noted the kept tail's filters, and a failed
        // drain after it leaves them as they were.
        twins.power_cycle();
        let e = &twins.engines[0];
        let known = (0..e.num_tail_pages() as usize)
            .any(|i| (e.tail.filter(i)).is_some_and(|f| f.iter().any(|&b| b != 0xFF)));
        assert!(known, "{ctx}");
        twins.check(&format!("{ctx}: recovered"));
        let ballast = twins.fail_a_drain(&mut rng);
        twins.check(&format!("{ctx}: recovered, after a failed drain"));
        twins.free(ballast);
        twins.index_until_drained(&mut rng);
        twins.check(&format!("{ctx}: recovered, drained"));
        saved += twins.saved;
    }
    assert!(saved > 0, "no read saved");
}
