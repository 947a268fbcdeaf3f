//! A wake against the engine that never lost power.
//!
//! Each script indexes seeded documents into one engine, deleting a few,
//! and syncs it now and then; at each sync a copy of its chip is
//! power-cycled and recovered beside it. The woken engine must answer
//! as the one that kept running: every term's df, every query's ranked
//! hits and the triples of every bucket in walk order — each term's
//! postings as the chains and the tail hold them — right after the wake
//! and again after both engines drained their tail.

#![cfg(test)]

use pds_flash::{Flash, FlashError, FlashGeometry, PageAddr};
use pds_mcu::RamBudget;
use pds_obs::rng::{sweep_seeds, Rng, SeedableRng, StdRng};

use super::{add_to_tally, SearchEngine, SearchError, SearchMode, Span};
use crate::tokenize::term_hash;
use crate::triple::Triple;
use crate::DfStrategy;

const VOCAB: usize = 120;

const QUERIES: &[&[&str]] = &[
    &["common"],
    &["w0"],
    &["w1", "w2"],
    &["w3", "common", "w40"],
    &["w90", "absent"],
];

/// A document of 4–12 skewed words, `common` in most of them.
fn text(rng: &mut StdRng) -> String {
    let mut words = Vec::new();
    if rng.gen_range(0..5) != 0 {
        words.push("common".to_string());
    }
    for _ in 0..rng.gen_range(4usize..12) {
        words.push(format!("w{}", rng.gen_range(0..VOCAB * VOCAB) / VOCAB));
    }
    words.join(" ")
}

/// What an engine answers from: every word's df, every query's hits
/// (scores as bits) in both modes, and every bucket's triples in walk
/// order.
#[derive(Debug, PartialEq)]
struct Answers {
    dfs: Vec<u32>,
    hits: Vec<Vec<(u32, u64)>>,
    buckets: Vec<Vec<Triple>>,
}

fn answers(e: &SearchEngine) -> Answers {
    let words = (0..VOCAB).map(|w| format!("w{w}"));
    let dfs = (words.chain(["common".into(), "absent".into()]))
        .map(|word| e.count_df(term_hash(&word)).unwrap())
        .collect();
    let mut hits = Vec::new();
    for q in QUERIES {
        for mode in [SearchMode::Any, SearchMode::All] {
            let got = e.search_mode(q, 10, mode).unwrap();
            hits.push(got.iter().map(|h| (h.doc, h.score.to_bits())).collect());
        }
    }
    let buckets = (0..e.num_buckets)
        .map(|b| e.bucket_in_walk_order(b).unwrap())
        .collect();
    Answers { dfs, hits, buckets }
}

/// Recover a power-cycled copy of `e`'s chip on a budget like its own.
fn wake(flash: &Flash, e: &SearchEngine) -> SearchEngine {
    let ram = RamBudget::new(64 * 1024);
    let (woken, report) = SearchEngine::recover(&flash.reboot(), &ram, &e.manifest()).unwrap();
    assert_eq!((report.docs_lost, report.index_rebuild), (0, None));
    woken
}

#[test]
fn a_woken_engine_answers_as_the_one_that_kept_running() {
    let shapes = [(2048, 64, 256), (512, 64, 256), (2048, 128, 768)];
    for seed in 0..3u64 {
        let (page_size, num_buckets, buffer) = shapes[seed as usize % shapes.len()];
        let ctx = format!("seed {seed}: {page_size} B, ({num_buckets}, {buffer})");
        let mut rng = StdRng::seed_from_u64(0x50A_0000 + seed);
        let flash = Flash::new(FlashGeometry::new(page_size, 64, 512));
        let ram = RamBudget::new(64 * 1024);
        let mut e =
            SearchEngine::new(&flash, &ram, num_buckets, buffer, DfStrategy::TwoPass).unwrap();
        for round in 0..3 {
            for _ in 0..rng.gen_range(60..400) {
                e.index_document(&text(&mut rng)).unwrap();
            }
            let doc = rng.gen_range(0..e.num_docs());
            e.delete_document(doc).unwrap();
            e.flush().unwrap();
            let ctx = format!("{ctx}, round {round}, {} tail pages", e.num_tail_pages());
            let mut woken = wake(&flash, &e);
            assert_eq!(answers(&woken), answers(&e), "{ctx}: woken");
            // The next drain, of the whole tail, on both.
            woken.drain().unwrap();
            e.drain().unwrap();
            assert_eq!(answers(&woken), answers(&e), "{ctx}: drained");
        }
    }
}

/// What each query keyword's walk costs — the tail pages it reads, those
/// its filters pass over, the chain pages it reads — and each query's
/// hits (scores as bits) and page reads.
#[derive(Debug, PartialEq)]
struct Walks {
    keywords: Vec<(u64, u32, u64)>,
    queries: Vec<(Vec<(u32, u64)>, u64)>,
}

fn walks(e: &SearchEngine) -> Walks {
    let page = e.flash.geometry().page_size;
    let (mut read, mut keep) = (vec![0u8; page], vec![0u8; page]);
    let keywords = (QUERIES.iter().copied().flatten())
        .map(|word| {
            let term = term_hash(word);
            let (tail, chain) = e.walk_pages(term).unwrap();
            let skipped = e.walk_term(term, &mut read, &mut keep).unwrap().skipped;
            (tail, skipped, chain)
        })
        .collect();
    let queries = (QUERIES.iter())
        .map(|q| {
            let before = e.flash.stats().page_reads;
            let hits = e.search(q, 10).unwrap();
            let hits = hits.iter().map(|h| (h.doc, h.score.to_bits())).collect();
            (hits, e.flash.stats().page_reads - before)
        })
        .collect();
    Walks { keywords, queries }
}

/// The reads and programs of a drain of `e`'s whole tail.
fn drain_io(e: &mut SearchEngine) -> (u64, u64) {
    let before = e.flash.stats();
    e.drain().unwrap();
    let io = e.flash.stats() - before;
    (io.page_reads, io.page_programs)
}

#[test]
fn a_wake_walks_and_drains_as_the_engine_that_kept_running_sweep() {
    let mut tail_pages = 0;
    for seed in 0..sweep_seeds(24) {
        let mut rng = StdRng::seed_from_u64(0x50B_0000 + seed);
        // One seed in eight runs the secure gateway's shape.
        let (num_buckets, buffer) = if seed % 8 == 5 { (128, 768) } else { (64, 256) };
        let ctx = format!("seed {seed}: ({num_buckets}, {buffer})");
        let flash = Flash::new(FlashGeometry::new(2048, 64, 512));
        let ram = RamBudget::new(64 * 1024);
        let mut e =
            SearchEngine::new(&flash, &ram, num_buckets, buffer, DfStrategy::TwoPass).unwrap();
        for round in 0..3 {
            for _ in 0..rng.gen_range(20..300) {
                e.index_document(&text(&mut rng)).unwrap();
            }
            if rng.gen_range(0..2) == 0 {
                let doc = rng.gen_range(0..e.num_docs());
                e.delete_document(doc).unwrap();
            }
            e.flush().unwrap();
            tail_pages += e.num_tail_pages();
            let ctx = format!("{ctx}, round {round}, {} tail pages", e.num_tail_pages());
            let mut woken = wake(&flash, &e);
            assert_eq!(walks(&woken), walks(&e), "{ctx}");
            assert_eq!(drain_io(&mut woken), drain_io(&mut e), "{ctx}: drain");
        }
    }
    assert!(tail_pages > 0, "no script kept a tail");
}

#[test]
fn a_kept_tail_page_no_read_passes_fails_the_walks_that_meet_it_not_the_wake() {
    let geometry = FlashGeometry::new(2048, 64, 64);
    let flash = Flash::new(geometry);
    let ram = RamBudget::new(64 * 1024);
    let mut e = SearchEngine::new(&flash, &ram, 64, 256, DfStrategy::TwoPass).unwrap();
    let mut rng = StdRng::seed_from_u64(0x50C);
    while e.num_docs() < 200 || e.num_tail_pages() < 3 {
        e.index_document(&text(&mut rng)).unwrap();
    }
    e.flush().unwrap();
    let unreadable = e.tail_start + 1;
    let addr = e.index.page_addr(unreadable).unwrap();
    // A copy of the chip, power-cycled, whose page at `addr` has one bit
    // of its record flipped in the cells: every read of it fails.
    let copy = Flash::new(geometry);
    let mut buf = vec![0u8; geometry.page_size];
    for at in (0..geometry.num_pages() as u32).map(PageAddr) {
        flash.read_page(at, &mut buf).unwrap();
        if buf.iter().any(|&b| b != 0xFF) {
            buf[geometry.page_size / 2] ^= u8::from(at == addr);
            copy.program_page(at, &buf).unwrap();
        }
    }
    let ram = RamBudget::new(64 * 1024);
    let clean = SearchEngine::recover(&flash.reboot(), &ram, &e.manifest())
        .unwrap()
        .1;
    let (mut woken, report) = SearchEngine::recover(&copy.reboot(), &ram, &e.manifest()).unwrap();
    // The wake goes through and reports what a clean one does; the page
    // stays unknown and adds nothing to the tally, every other page is
    // noted as the engine that kept running noted it.
    assert_eq!(report, clean);
    let i = unreadable - e.tail_start;
    for at in 0..e.num_tail_pages() {
        let want = if at == i {
            Span::UNKNOWN
        } else {
            e.tail.span(at)
        };
        assert_eq!(woken.tail.span(at), want, "tail page {at}");
    }
    let page = e.staged_page(unreadable, &mut buf).unwrap().unwrap();
    let mut tally = woken.tally.clone();
    add_to_tally(&mut tally, &page, e.num_buckets);
    assert_eq!(tally, e.tally);
    // An unknown page lies in every walk's way: each query fails on it,
    // as the drain's gather does. The documents answer, and the heads and
    // the tail stand.
    for q in QUERIES {
        let err = woken.search(q, 10).unwrap_err();
        assert!(
            matches!(err, SearchError::Flash(FlashError::CorruptPage(_))),
            "{q:?}: {err}"
        );
    }
    let err = woken.drain().unwrap_err();
    assert!(
        matches!(err, SearchError::Flash(FlashError::CorruptPage(_))),
        "{err}"
    );
    assert_eq!((&woken.heads, woken.tail_start), (&e.heads, e.tail_start));
    for doc in 0..e.num_docs() {
        assert_eq!(
            woken.get_document(doc).unwrap(),
            e.get_document(doc).unwrap()
        );
    }
}
