//! The engine against [`NaiveSearch`], whatever the index log looks like.
//!
//! A seeded differential over the public API only — `search`,
//! `search_mode(All)`, `search_visible` and `get_document` — so that it
//! holds for any layout of the index log: it says nothing about pages,
//! buckets or buffers, it only sizes its corpora so that the insertion
//! buffer fills dozens of times, and it asks its questions at every
//! document of whole stretches of the ingest, so that whatever states the
//! index moves through between two buffer flushes (triples in RAM only,
//! freshly written pages, reorganised pages, all of them at once), some
//! query sees each. Scores are compared to 1e-9 and ranks exactly, as the
//! ledger's `token_query` oracle does.

#![cfg(test)]

use pds_flash::{Flash, FlashGeometry};
use pds_mcu::RamBudget;
use pds_obs::rng::{Rng, SeedableRng, StdRng};

use crate::{DfStrategy, DocId, NaiveSearch, SearchEngine, SearchHit, SearchMode};

const TOP: usize = 10;

struct Case {
    seed: u64,
    geometry: FlashGeometry,
    num_buckets: usize,
    buffer_triples: usize,
    docs: usize,
    /// Every document of `dense` is followed by the whole query set;
    /// elsewhere every `stride`-th is, and the others by one query.
    stride: usize,
    dense: [std::ops::Range<usize>; 2],
    /// A run of consecutive docids, deleted in one go, holding more
    /// `common` postings than any index page has slots: wherever the
    /// page boundaries of that term's postings fall, a walk crosses one
    /// on a tombstoned document.
    tombstoned_run: std::ops::Range<DocId>,
}

const VOCAB: usize = 300;

/// `common` in seven documents of eight, `rare` in one of 50, a handful
/// of skewed words (some of them twice: tf > 1), and a unique tag.
fn text(rng: &mut StdRng, i: usize) -> String {
    let mut words = vec![format!("tag{i}")];
    if !i.is_multiple_of(8) {
        words.push("common".into());
    }
    if i % 50 == 7 {
        words.push("rare".into());
    }
    for _ in 0..rng.gen_range(4usize..10) {
        // Squaring skews toward the low ranks: long and short posting lists.
        let w = rng.gen_range(0..VOCAB * VOCAB) / VOCAB;
        words.push(format!("w{w}"));
        if rng.gen_range(0..4) == 0 {
            words.push(format!("w{w}"));
        }
    }
    words.join(" ")
}

const QUERIES: &[&[&str]] = &[
    &["common"],
    &["rare"],
    &["w0"],
    &["w1", "w2"],
    &["common", "w3", "w40"],
    // Duplicate keywords match once.
    &["common", "common", "w5"],
    &["w7", "w7"],
    &["w2", "absent"],
    &["absent"],
];

struct Pair {
    engine: SearchEngine,
    oracle: NaiveSearch,
    texts: Vec<String>,
    deleted: Vec<bool>,
}

fn assert_hits(got: &[SearchHit], want: &[SearchHit], ctx: &str) {
    assert_eq!(
        got.iter().map(|h| h.doc).collect::<Vec<_>>(),
        want.iter().map(|h| h.doc).collect::<Vec<_>>(),
        "{ctx}: ranks"
    );
    for (g, w) in got.iter().zip(want) {
        assert!(
            (g.score - w.score).abs() < 1e-9,
            "{ctx}: doc {} scored {} for {}",
            g.doc,
            g.score,
            w.score
        );
    }
}

impl Pair {
    fn index(&mut self, text: String) {
        let doc = self.engine.index_document(&text).unwrap();
        assert_eq!(doc, self.oracle.index(&text));
        self.texts.push(text);
        self.deleted.push(false);
    }

    fn delete(&mut self, doc: DocId) {
        self.engine.delete_document(doc).unwrap();
        if !std::mem::replace(&mut self.deleted[doc as usize], true) {
            self.oracle.delete(doc);
        }
    }

    /// One three-keyword query: cheap enough to ask after every document.
    fn spot_check(&self) {
        let q: &[&str] = &["common", "w3", "w40"];
        let ctx = format!("{} docs, {q:?}", self.texts.len());
        assert_hits(
            &self.engine.search(q, TOP).unwrap(),
            &self.oracle.search(q, TOP),
            &ctx,
        );
    }

    /// Every query, three ways, and a spread of documents by docid.
    fn check(&self, ctx: &str) {
        let docs = self.texts.len();
        for q in QUERIES {
            let ctx = format!("{ctx}, {docs} docs, {q:?}");
            assert_hits(
                &self.engine.search(q, TOP).unwrap(),
                &self.oracle.search(q, TOP),
                &ctx,
            );
            assert_hits(
                &self.engine.search_mode(q, TOP, SearchMode::All).unwrap(),
                &self.oracle.search_all(q, TOP),
                &format!("{ctx} (all)"),
            );
            // Membership pinned to a docid prefix, weights of the live
            // corpus: the unbounded ranking, filtered, then cut.
            for visible in [docs as DocId / 3, docs as DocId - 1] {
                let mut want = self.oracle.search(q, docs);
                want.retain(|h| h.doc < visible);
                want.truncate(TOP);
                assert_hits(
                    &self.engine.search_visible(q, TOP, visible).unwrap(),
                    &want,
                    &format!("{ctx} (visible < {visible})"),
                );
            }
        }
        for doc in (0..docs).step_by(docs / 7 + 1).chain([docs - 1]) {
            let got = self.engine.get_document(doc as DocId).ok();
            let want = (!self.deleted[doc]).then(|| self.texts[doc].as_bytes().to_vec());
            assert_eq!(got, want, "{ctx}: bytes of doc {doc}");
        }
    }
}

fn run(case: Case) {
    let flash = Flash::new(case.geometry);
    let ram = RamBudget::new(64 * 1024);
    let engine = SearchEngine::new(
        &flash,
        &ram,
        case.num_buckets,
        case.buffer_triples,
        DfStrategy::TwoPass,
    )
    .unwrap();
    let mut pair = Pair {
        engine,
        oracle: NaiveSearch::new(),
        texts: Vec::new(),
        deleted: Vec::new(),
    };
    let mut rng = StdRng::seed_from_u64(case.seed);
    let run_end = case.tombstoned_run.end as usize;
    for i in 0..case.docs {
        pair.index(text(&mut rng, i));
        let n = i + 1;
        if n == run_end + 10 {
            // Deletions with their documents' triples wherever they are
            // by now, some still in RAM; flushed; then deletions after.
            for doc in case.tombstoned_run.clone() {
                pair.delete(doc);
            }
            pair.delete(i as DocId);
            pair.check("run deleted");
            pair.engine.flush().unwrap();
            pair.check("right after flush()");
            pair.delete(i as DocId - 1);
            pair.delete(0);
            pair.check("deleted after flush()");
        } else if n % 97 == 0 {
            pair.delete(rng.gen_range(0..n) as DocId);
        }
        if n % 331 == 0 {
            pair.engine.flush().unwrap();
            pair.check("right after flush()");
        }
        if n % case.stride == 0 || case.dense.iter().any(|r| r.contains(&n)) {
            pair.check("ingesting");
        } else {
            pair.spot_check();
        }
    }
    pair.engine.flush().unwrap();
    pair.check("at the end");
    // The same answers from the same flash after a power cycle.
    let manifest = pair.engine.manifest();
    let rebooted = flash.reboot();
    let (engine, report) = SearchEngine::recover(&rebooted, &ram, &manifest).unwrap();
    assert_eq!(report.docs_lost, 0);
    pair.engine = engine;
    pair.check("recovered");
    pair.index("common w1 w2 afterwards".into());
    pair.check("recovered, one more");
}

/// 36 triples a page: ≈ 450 documents' ≈ 4 000 triples fill the 64-triple
/// buffer ≈ 60 times and cross a 288-triple (8-page) reorganisation
/// period more than a dozen times.
#[test]
fn small_pages_16_buckets_64_triples() {
    run(Case {
        seed: 0x24_0001,
        geometry: FlashGeometry::new(512, 8, 1024),
        num_buckets: 16,
        buffer_triples: 64,
        docs: 450,
        stride: 23,
        dense: [100..190, 300..340],
        tombstoned_run: 200..260,
    });
}

/// The gateway's sizing on the token's 2 KB pages, 145 triples a page:
/// ≈ 2 000 documents' ≈ 17 000 triples fill the 256-triple buffer ≈ 65
/// times and cross a 4 640-triple (32-page) period three times.
#[test]
fn token_pages_64_buckets_256_triples() {
    run(Case {
        seed: 0x24_0002,
        geometry: FlashGeometry::new(2048, 64, 512),
        num_buckets: 64,
        buffer_triples: 256,
        docs: 2000,
        stride: 41,
        dense: [520..600, 1060..1130],
        tombstoned_run: 700..900,
    });
}
