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
//! Each case power-cycles mid-ingest and fails a drain (`Pair::power_cycle`,
//! `Pair::fail_a_drain`); a golden digest pins what `reorganize()` writes.
//! One more test runs each case's events alone, reorganisations included,
//! checking every corpus term's df and every ranked answer, scores bit for
//! bit, against the oracle after each (`Pair::exact`); a last one pins
//! what the index holds and answers (`Pair::holds`).

#![cfg(test)]

use std::collections::BTreeSet;

use pds_crypto::Sha256;
use pds_flash::{Flash, FlashGeometry};
use pds_mcu::RamBudget;
use pds_obs::rng::{Rng, SeedableRng, StdRng};

use crate::tokenize::{term_hash, tokenize};
use crate::{DfStrategy, DocId, NaiveSearch, SearchEngine, SearchError, SearchHit, SearchMode};

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
    /// After this many documents: a sync and a power cycle.
    power_cycle_at: usize,
    /// After this many documents: syncs until the staged pages are due
    /// for a drain, then a drain that runs out of blocks.
    failed_drain_at: usize,
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
    flash: Flash,
    num_buckets: usize,
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
    fn new(case: &Case) -> Pair {
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
        Pair {
            flash,
            num_buckets: case.num_buckets,
            engine,
            oracle: NaiveSearch::new(),
            texts: Vec::new(),
            deleted: Vec::new(),
        }
    }

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

    /// The df of every term of the corpus — deleted documents' and a term
    /// absent from it included — is the oracle's, and every query's ranked
    /// hits in both modes are the oracle's, scores bit for bit.
    fn exact(&self, ctx: &str) {
        let terms: BTreeSet<u64> = (self.texts.iter())
            .flat_map(|text| tokenize(text))
            .chain(["absent".to_string()])
            .map(|word| term_hash(&word))
            .collect();
        for term in terms {
            assert_eq!(
                self.engine.count_df(term).unwrap(),
                self.oracle.df(term),
                "{ctx}: df of {term:#x}"
            );
        }
        let bits = |hits: &[SearchHit]| -> Vec<(DocId, u64)> {
            hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
        };
        for q in QUERIES {
            assert_eq!(
                bits(&self.engine.search(q, TOP).unwrap()),
                bits(&self.oracle.search(q, TOP)),
                "{ctx}: {q:?}"
            );
            assert_eq!(
                bits(&self.engine.search_mode(q, TOP, SearchMode::All).unwrap()),
                bits(&self.oracle.search_all(q, TOP)),
                "{ctx}: {q:?} (all)"
            );
        }
    }

    /// Sync, cut the power and recover from the chip: every document was
    /// synced, so nothing may be lost and every answer must stand. The
    /// sync leaves staged postings on flash, and whatever RAM described
    /// them is gone; the ingest and its drains go on from the recovered
    /// engine.
    fn power_cycle(&mut self, ctx: &str) {
        self.engine.flush().unwrap();
        assert!(
            self.engine.num_tail_pages() > 0,
            "{ctx}: a sync right after a document leaves staged pages"
        );
        let manifest = self.engine.manifest();
        self.flash = self.flash.reboot();
        let ram = RamBudget::new(64 * 1024);
        let (engine, report) = SearchEngine::recover(&self.flash, &ram, &manifest).unwrap();
        assert_eq!(report.docs_lost, 0, "{ctx}");
        assert_eq!(report.index_rebuild, None, "{ctx}");
        self.engine = engine;
        self.check(ctx);
    }

    /// Syncs (which never drain) until the staged pages are due for a
    /// drain on a log whose last block has room for some of the drain's
    /// programs but not all; then every free block is taken and an empty
    /// document arrives — all it asks of the index is the drain it
    /// triggers, which fails part-way and leaves what it programmed among
    /// the staged pages. Queries must read past that garbage, and so must
    /// the drain that goes through once blocks are back.
    fn fail_a_drain(&mut self, rng: &mut StdRng) {
        let due = (self.num_buckets / 2).max(1) as u32;
        let per_block = self.flash.geometry().pages_per_block as u32;
        loop {
            self.engine.flush().unwrap();
            let pages = self.engine.num_index_pages();
            if self.engine.num_tail_pages() >= due && !pages.is_multiple_of(per_block) {
                break;
            }
            self.index(text(rng, self.texts.len()));
            self.spot_check();
        }
        let ballast: Vec<_> = std::iter::from_fn(|| self.flash.alloc_block().ok()).collect();
        let pages = self.engine.num_index_pages();
        let err = self.engine.index_document("").unwrap_err();
        assert!(matches!(err, SearchError::Flash(_)), "{err}");
        assert!(
            self.engine.num_index_pages() > pages,
            "the drain programmed"
        );
        // The document itself is stored: an empty one, as the oracle has it.
        assert_eq!(self.oracle.index(""), self.engine.num_docs() - 1);
        self.texts.push(String::new());
        self.deleted.push(false);
        self.check("after a failed drain");
        for b in ballast {
            self.flash.free_block(b);
        }
        let tail = self.engine.num_tail_pages();
        self.index(text(rng, self.texts.len()));
        assert!(
            self.engine.num_tail_pages() < tail,
            "the next document drains"
        );
        self.check("drained over a failed drain's pages");
    }
}

fn run(case: Case) {
    let mut pair = Pair::new(&case);
    let mut rng = StdRng::seed_from_u64(case.seed);
    let run_end = case.tombstoned_run.end as usize;
    while pair.texts.len() < case.docs {
        let i = pair.texts.len();
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
        } else if n.is_multiple_of(97) {
            pair.delete(rng.gen_range(0..n) as DocId);
        }
        if n.is_multiple_of(331) {
            pair.engine.flush().unwrap();
            pair.check("right after flush()");
        }
        if n == case.power_cycle_at {
            pair.power_cycle("recovered mid-ingest");
        }
        if n == case.failed_drain_at {
            pair.fail_a_drain(&mut rng);
        }
        if n.is_multiple_of(case.stride) || case.dense.iter().any(|r| r.contains(&n)) {
            pair.check("ingesting");
        } else {
            pair.spot_check();
        }
    }
    pair.power_cycle("recovered");
    pair.index("common w1 w2 afterwards".into());
    pair.check("recovered, one more");
}

/// The five sizings, each with its script.
fn cases() -> [Case; 5] {
    [
        // 33 triples a staged page at worst: ≈ 450 documents' ≈ 4 000
        // triples fill the 64-triple buffer ≈ 60 times, two staged pages
        // each, and cross an 8-staged-page drain period more than a
        // dozen times.
        Case {
            seed: 0x24_0001,
            geometry: FlashGeometry::new(512, 8, 1024),
            num_buckets: 16,
            buffer_triples: 64,
            docs: 450,
            stride: 23,
            dense: [100..190, 300..340],
            tombstoned_run: 200..260,
            power_cycle_at: 150,
            failed_drain_at: 280,
        },
        // The gateway's sizing on the token's 2 KB pages, 135 triples a
        // staged page at worst and about 250 a chain page: ≈ 2 000
        // documents' ≈ 17 000 triples fill the 256-triple buffer ≈ 65
        // times, two staged pages each, and cross a 32-staged-page drain
        // period about four times.
        Case {
            seed: 0x24_0002,
            geometry: FlashGeometry::new(2048, 64, 512),
            num_buckets: 64,
            buffer_triples: 256,
            docs: 2000,
            stride: 41,
            dense: [520..600, 1060..1130],
            tombstoned_run: 700..900,
            power_cycle_at: 560,
            failed_drain_at: 1200,
        },
        // 24 buckets, so a bucket is a remainder rather than a mask, at
        // the first case's pages and buffer.
        Case {
            seed: 0x26_0003,
            geometry: FlashGeometry::new(512, 8, 1024),
            num_buckets: 24,
            buffer_triples: 64,
            docs: 450,
            stride: 29,
            dense: [60..110, 330..360],
            tombstoned_run: 150..210,
            power_cycle_at: 240,
            failed_drain_at: 120,
        },
        // E3's sizing: 1 024 triples are eight staged pages, and the
        // staged pages are drained at 64 of them, ≈ 9 300 triples — the
        // ≈ 25 000 triples of 2 400 documents cross that two and a half
        // times.
        Case {
            seed: 0x26_0004,
            geometry: FlashGeometry::new(2048, 64, 512),
            num_buckets: 128,
            buffer_triples: 1024,
            docs: 2400,
            stride: 97,
            dense: [900..940, 1800..1830],
            tombstoned_run: 400..600,
            power_cycle_at: 1500,
            failed_drain_at: 700,
        },
        // The secure gateway's sizing (`Pds::new`): a 768-triple buffer
        // is six staged pages, drained at 64 of them like E3's — the
        // ≈ 25 000 triples of 2 400 documents cross that more than twice,
        // and the failed drain and the power cycle each land between two.
        Case {
            seed: 0x2F_0005,
            geometry: FlashGeometry::new(2048, 64, 512),
            num_buckets: 128,
            buffer_triples: 768,
            docs: 2400,
            stride: 89,
            dense: [1000..1040, 2000..2030],
            tombstoned_run: 300..500,
            power_cycle_at: 1300,
            failed_drain_at: 600,
        },
    ]
}

fn case(i: usize) -> Case {
    cases().into_iter().nth(i).unwrap()
}

#[test]
fn small_pages_16_buckets_64_triples() {
    run(case(0));
}

#[test]
fn token_pages_64_buckets_256_triples() {
    run(case(1));
}

#[test]
fn small_pages_24_buckets_64_triples() {
    run(case(2));
}

#[test]
fn token_pages_128_buckets_1024_triples() {
    run(case(3));
}

#[test]
fn token_pages_128_buckets_768_triples() {
    run(case(4));
}

/// The script of a case cut down to its events — the tombstoned run,
/// the power cycle, the failed drain, a deletion every 97 documents —
/// then a reorganisation, deletions after it, a power cycle and more
/// documents, with every answer checked exactly ([`Pair::exact`]) after
/// each event.
fn run_exact(case: Case) {
    let mut pair = Pair::new(&case);
    let mut rng = StdRng::seed_from_u64(case.seed);
    let run_end = case.tombstoned_run.end as usize;
    while pair.texts.len() < case.docs {
        let i = pair.texts.len();
        pair.index(text(&mut rng, i));
        let n = i + 1;
        if n == run_end + 10 {
            for doc in case.tombstoned_run.clone() {
                pair.delete(doc);
            }
            pair.exact("run deleted");
            pair.engine.flush().unwrap();
            pair.exact("run deleted, flushed");
        } else if n.is_multiple_of(97) {
            pair.delete(rng.gen_range(0..n) as DocId);
        }
        if n == case.power_cycle_at {
            pair.power_cycle("recovered mid-ingest");
            pair.exact("recovered mid-ingest");
        }
        if n == case.failed_drain_at {
            pair.fail_a_drain(&mut rng);
            pair.exact("drained over a failed drain's pages");
        }
    }
    pair.exact("ingested");
    pair.engine.reorganize().unwrap();
    pair.exact("reorganised");
    let docs = pair.texts.len() as DocId;
    for doc in [1, docs / 2, docs - 1] {
        pair.delete(doc);
    }
    pair.exact("deleted after reorganize()");
    pair.index(text(&mut rng, docs as usize));
    pair.power_cycle("recovered after the deletions");
    pair.exact("recovered after the deletions");
    pair.engine.reorganize().unwrap();
    pair.exact("reorganised again");
    for i in 0..40 {
        pair.index(text(&mut rng, docs as usize + 1 + i));
    }
    pair.exact("indexed after the reorganisation");
}

/// Every corpus term's df and every ranked answer, scores bit for bit,
/// against [`NaiveSearch`] at the five sizings: the exactness a change to
/// how df is found must keep.
#[test]
fn every_terms_df_and_every_ranked_hit_match_the_oracle_bit_for_bit() {
    for case in cases() {
        run_exact(case);
    }
}

impl Pair {
    /// Hash what the engine holds and answers into `hash`: each indexed
    /// term, ascending, with its postings `(doc, tf)`, live or not, in
    /// the order a walk of its bucket meets them (pending, tail, chain)
    /// and its df; then every query's ranked hits — `search`,
    /// `SearchMode::All` and `search_visible` at two bounds — scores as
    /// bits. Neither pages nor where a posting lies enter it.
    fn holds(&self, hash: &mut Sha256) {
        let mut terms: std::collections::BTreeMap<u64, Vec<(DocId, u16)>> = Default::default();
        for b in 0..self.num_buckets {
            for t in self.engine.bucket_in_walk_order(b).unwrap() {
                terms.entry(t.term).or_default().push((t.doc, t.tf));
            }
        }
        hash.update(&(terms.len() as u32).to_le_bytes());
        for (term, postings) in terms {
            hash.update(&term.to_le_bytes());
            hash.update(&(postings.len() as u32).to_le_bytes());
            for (doc, tf) in postings {
                hash.update(&doc.to_le_bytes());
                hash.update(&tf.to_le_bytes());
            }
            hash.update(&self.engine.count_df(term).unwrap().to_le_bytes());
        }
        let docs = self.texts.len() as DocId;
        let mut answer = |hits: Vec<SearchHit>| {
            hash.update(&(hits.len() as u32).to_le_bytes());
            for h in hits {
                hash.update(&h.doc.to_le_bytes());
                hash.update(&h.score.to_bits().to_le_bytes());
            }
        };
        for q in QUERIES {
            answer(self.engine.search(q, TOP).unwrap());
            answer(self.engine.search_mode(q, TOP, SearchMode::All).unwrap());
            for visible in [docs / 3, docs - 1] {
                answer(self.engine.search_visible(q, TOP, visible).unwrap());
            }
        }
    }
}

impl Pair {
    /// Hash what each term's query walk yields into `hash`: every term of
    /// the corpus, ascending, an absent one included, with its df and the
    /// pages its walk loads that hold postings of it — each page's place
    /// in the index log and its postings of the term; then every query's
    /// ranked hits, scores as bits. A change to which pages a walk passes
    /// over may only drop pages without the term.
    fn yields(&self, hash: &mut Sha256) {
        let terms: BTreeSet<u64> = (self.texts.iter())
            .flat_map(|text| tokenize(text))
            .chain(["absent".to_string()])
            .map(|word| term_hash(&word))
            .collect();
        hash.update(&(terms.len() as u32).to_le_bytes());
        for term in terms {
            hash.update(&term.to_le_bytes());
            hash.update(&self.engine.count_df(term).unwrap().to_le_bytes());
            let pages = self.engine.pages_yielding(term).unwrap();
            hash.update(&(pages.len() as u32).to_le_bytes());
            for (page, postings) in pages {
                hash.update(&page.to_le_bytes());
                hash.update(&(postings as u32).to_le_bytes());
            }
        }
        let mut answer = |hits: Vec<SearchHit>| {
            hash.update(&(hits.len() as u32).to_le_bytes());
            for h in hits {
                hash.update(&h.doc.to_le_bytes());
                hash.update(&h.score.to_bits().to_le_bytes());
            }
        };
        for q in QUERIES {
            answer(self.engine.search(q, TOP).unwrap());
            answer(self.engine.search_mode(q, TOP, SearchMode::All).unwrap());
        }
    }
}

fn hex(hash: Sha256) -> String {
    hash.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

/// A case's events — the tombstoned run, a deletion every 97 documents,
/// the power cycle — then a reorganisation, deletions after it, a power
/// cycle, another reorganisation and more documents, hashed by
/// [`Pair::holds`] after each event: one digest up to the first
/// reorganisation, one from it on. The failed drain is left out: how
/// many documents its syncs take depends on how many pages the log
/// holds, which is what a change of page layout moves.
fn held(case: Case) -> [String; 2] {
    held_by(case, Pair::holds)
}

/// [`held`]'s script, hashed by `hash_of` after each event.
fn held_by(case: Case, hash_of: fn(&Pair, &mut Sha256)) -> [String; 2] {
    let mut pair = Pair::new(&case);
    let mut rng = StdRng::seed_from_u64(case.seed);
    let mut hash = Sha256::new();
    let run_end = case.tombstoned_run.end as usize;
    while pair.texts.len() < case.docs {
        let i = pair.texts.len();
        pair.index(text(&mut rng, i));
        let n = i + 1;
        if n == run_end + 10 {
            for doc in case.tombstoned_run.clone() {
                pair.delete(doc);
            }
            hash_of(&pair, &mut hash);
            pair.engine.flush().unwrap();
            hash_of(&pair, &mut hash);
        } else if n.is_multiple_of(97) {
            pair.delete(rng.gen_range(0..n) as DocId);
        }
        if n == case.power_cycle_at {
            pair.power_cycle("recovered mid-ingest");
            hash_of(&pair, &mut hash);
        }
    }
    hash_of(&pair, &mut hash);
    let before = hex(std::mem::replace(&mut hash, Sha256::new()));
    pair.engine.reorganize().unwrap();
    hash_of(&pair, &mut hash);
    let docs = pair.texts.len() as DocId;
    for doc in [1, docs / 2, docs - 1] {
        pair.delete(doc);
    }
    hash_of(&pair, &mut hash);
    pair.index(text(&mut rng, docs as usize));
    pair.power_cycle("recovered after the deletions");
    hash_of(&pair, &mut hash);
    pair.engine.reorganize().unwrap();
    hash_of(&pair, &mut hash);
    for i in 0..40 {
        pair.index(text(&mut rng, docs as usize + 1 + i));
    }
    hash_of(&pair, &mut hash);
    [before, hex(hash)]
}

/// What the index holds — every term's postings in walk order and its
/// df — and every answer, pinned at the five sizings, before and after
/// `reorganize()`: a change to how pages are laid out must leave all of
/// it as it is.
#[test]
fn what_the_index_holds_and_answers_is_pinned() {
    let digests: Vec<[String; 2]> = cases().into_iter().map(held).collect();
    assert_eq!(
        digests,
        [
            [
                "6f88b1b78012dc68f323d6f3abe56b0bd85a32121e777a4cd4bcf3152c31cbf3",
                "db03b7665e5a7488d47c1416924d17513b54cb8e3b2d717c338b0e880dee917f",
            ],
            [
                "8a8c396bd7793dce176ad82d5f29deb9615b1ff0c1fc6775389d2a1fd5bd8487",
                "8452c0fdaa0ef4f0ee79b943fedfdba7abe2f0d541adab8f37d58f928f9c9d4c",
            ],
            [
                "e24fb6ab253cf93fdc933925ed99178c0bdff2f7f94e488290250a2283bbee36",
                "1a06a9c2268f8dccff7ef54f3576207fbed1d557a79235459e8e0ba92471351d",
            ],
            [
                "d900516c804e3f6607f2461c1cc62f98336b0c73a912ab5878ea02e719d3d465",
                "c533f6a2aad21a79f101d699eb0a40862c59ea45147da2969270c4e6c3fed2ff",
            ],
            [
                "0e38b44e63d133f67f9efb705f3dff89f5952eca1cc1aa89a4d8a4121f4dbfc8",
                "446c35f0a9ffbfc64059c40e5b6e13080a3debeb8e90cdceb7ce9dadc291e2a1",
            ],
        ]
    );
}

/// What each term's query walk yields — its df and the pages it loads
/// that hold postings of it, by place and count — and every answer,
/// pinned at the five sizings over [`held`]'s script: a change to which
/// pages a walk reads may pass over pages without the term, never one
/// with it. (Re-pinned when a bucket page became a record 8 B short of
/// its flash page and a stage began keeping its last partial page in
/// the buffer: pages close a posting or two sooner and the tail's are
/// full, so the pages a walk loads lie at other places and hold other
/// counts, while df and every answer —
/// `what_the_index_holds_and_answers_is_pinned` — did not move.)
#[test]
fn what_each_terms_walk_yields_is_pinned() {
    let digests: Vec<[String; 2]> = (cases().into_iter())
        .map(|case| held_by(case, Pair::yields))
        .collect();
    assert_eq!(
        digests,
        [
            [
                "fb721b3a1a115faf7cd1230c409f6091986f07bb2a9789c65fae892b3bb57069",
                "3d20f52915a0b57997446ac91c1ce0d87151b5f80483989c94c04f09099e4730",
            ],
            [
                "c6b7b843e726b9162fb40445adcb08752b68df795c3eea897cd55165f40698aa",
                "7727aba9ae8480462639678f67dea399ae589541c7ebc6a353dc51463ebc6f28",
            ],
            [
                "676e41f66935a9a7884ab22bb5f663f1b1a95085aea759bc7377b6afb4c7e681",
                "96b8741ecc4fe1147f9b0d48525706387006b0d5601729fd8120dcdeb9d7d716",
            ],
            [
                "e16bf16b857b0688aec21d1edd9c19d9a43fef244aad54eafd7db333a0c66118",
                "23bfeb594b51ab8e1e5960f18f43b0fe9409f25ec1f558fb27b9aeaa474d5b6c",
            ],
            [
                "2c11b17b96ca1a3e7493b844971d574e68437d831b94e782cf3822422f9cd53b",
                "c75d13ebd13268276c24da785add778ac61af1e7634db19639ba2ade78cba5a1",
            ],
        ]
    );
}

/// What a recovery keeps when the power goes with the index log written
/// past its last checkpoint — staged pages and drains beyond the
/// frontier, the frontier's block relocated when it is not a block's
/// first page — pinned at the five sizings: the documents the document
/// log kept, and what [`Pair::holds`] hashes of them. Nothing of it
/// depends on the pages past the frontier or on how a page is laid out.
#[test]
fn what_a_recovery_past_the_checkpoint_keeps_is_pinned() {
    let digests: Vec<String> = (cases().into_iter())
        .map(|case| {
            let mut pair = Pair::new(&case);
            let mut rng = StdRng::seed_from_u64(case.seed ^ 0x0D1E);
            let half = case.docs / 2;
            while pair.texts.len() < case.docs {
                let i = pair.texts.len();
                pair.index(text(&mut rng, i));
                if i + 1 == half {
                    pair.engine.flush().unwrap();
                }
            }
            let manifest = pair.engine.manifest();
            pair.flash = pair.flash.reboot();
            let ram = RamBudget::new(64 * 1024);
            let (engine, report) = SearchEngine::recover(&pair.flash, &ram, &manifest).unwrap();
            assert_eq!(report.index_rebuild, None);
            assert!(engine.num_index_pages() > report.index_pages_kept);
            pair.engine = engine;
            pair.texts.truncate(report.docs_recovered as usize);
            let mut hash = Sha256::new();
            hash.update(&report.docs_recovered.to_le_bytes());
            pair.holds(&mut hash);
            hex(hash)
        })
        .collect();
    assert_eq!(
        digests,
        [
            "6ee5e21841ff9a9c730c626946739c4f69990e38a4ba04c95fe151dc3f3239f8",
            "c161b7ea136cbcdad19b7b62cb3507c9c13239c4fc75f6685bbd9c351a17b7c5",
            "38613687140bf1ede799772a0b3271a507a8cddb1031078f05745268711b2ee5",
            "1bcc71623a290882f77eb876eb5185196cf75203a8db7d3a65c5b35ae8ea9d3b",
            "379ca6a249c03f774cfa1856fd9545a14456293e4c3f06253064a94cf7326fa3",
        ]
    );
}

/// SHA-256 of the index log's pages, in log order.
fn index_digest(flash: &Flash, engine: &SearchEngine) -> String {
    let geo = flash.geometry();
    let blocks = engine.manifest().index_blocks;
    let mut hash = Sha256::new();
    let mut buf = vec![0u8; geo.page_size];
    for page in 0..engine.num_index_pages() {
        let addr = geo.log_page(&blocks, page).unwrap();
        flash.read_page(addr, &mut buf).unwrap();
        hash.update(&buf);
    }
    hash.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

/// The pages `reorganize()` writes, pinned: a fixed script — documents,
/// deletions spread over it, a sync — then a reorganisation, at the
/// first two cases' sizings. (Re-pinned when a page began naming each
/// term once, in a dictionary of its own, and again when a bucket page
/// became a record that fills its flash page, CRC and framing in its
/// first 8 bytes — the 512 B case once more when a stage began keeping
/// its last partial page in the buffer: every image moved, while what
/// the pages hold —
/// `what_the_index_holds_and_answers_is_pinned` — did not.)
#[test]
fn reorganised_index_pages_are_pinned() {
    let digests: Vec<String> = [
        (FlashGeometry::new(512, 8, 1024), 16, 64),
        (FlashGeometry::new(2048, 64, 512), 64, 256),
    ]
    .into_iter()
    .map(|(geometry, num_buckets, buffer_triples)| {
        let flash = Flash::new(geometry);
        let ram = RamBudget::new(64 * 1024);
        let mut e = SearchEngine::new(
            &flash,
            &ram,
            num_buckets,
            buffer_triples,
            DfStrategy::TwoPass,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0x26_0005);
        for i in 0..900 {
            e.index_document(&text(&mut rng, i)).unwrap();
            if i % 13 == 5 {
                e.delete_document(rng.gen_range(0..=i) as DocId).unwrap();
            }
        }
        e.flush().unwrap();
        e.reorganize().unwrap();
        index_digest(&flash, &e)
    })
    .collect();
    assert_eq!(
        digests,
        [
            "39fab41edc978ade0154991fb62793aa00441dcc2e8c40178b3ec45fbf98adfc",
            "00f141bad715afdb3266e622bc1ace91fd693dcd396374b7fabdf56c15bcea25",
        ]
    );
}
