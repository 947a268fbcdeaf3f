//! E3 — embedded search: pipeline RAM bound and exact top-N.
//!
//! The slide's claims: the classical algorithm needs "one container per
//! retrieved docid … too much!", while the chained-bucket engine merges
//! with **one RAM page per query keyword** and an N-slot heap, exactly.
//! We measure peak query RAM and page I/Os per keyword count, against
//! the naive accumulator count, plus the df-strategy ablation
//! (TwoPass vs RamDictionary).

use pds_flash::{Flash, FlashGeometry};
use pds_mcu::RamBudget;
use pds_obs::rng::SeedableRng;
use pds_obs::rng::StdRng;
use pds_search::gen::{generate_corpus, CorpusConfig};
use pds_search::{DfStrategy, NaiveSearch, SearchEngine};

use crate::table::Table;

/// One measured query configuration.
pub struct E3Point {
    /// Documents in the corpus.
    pub docs: usize,
    /// Query keywords.
    pub keywords: usize,
    /// Peak query RAM of the embedded engine (bytes).
    pub engine_ram: usize,
    /// Page reads of the query.
    pub engine_ios: u64,
    /// Accumulators the classical algorithm would allocate.
    pub naive_accumulators: usize,
    /// Top-10 identical to the oracle.
    pub exact: bool,
}

/// Build engine + oracle over a Zipf corpus.
pub fn build(docs: usize, df: DfStrategy) -> (Flash, RamBudget, SearchEngine, NaiveSearch) {
    // 128 KB: the RAM-dictionary ablation needs ~16 B per distinct term
    // (48 KB at vocabulary 3000) *on top of* the engine residents — on
    // the 64 KB secure token it aborts with a RAM error, which is
    // precisely why the tutorial's framework favors streaming df.
    let flash = Flash::new(FlashGeometry::new(2048, 64, 4096));
    let ram = RamBudget::new(128 * 1024);
    let mut engine = SearchEngine::new(&flash, &ram, 128, 1024, df).unwrap();
    let mut oracle = NaiveSearch::new();
    let cfg = CorpusConfig {
        num_docs: docs,
        vocabulary: 3000,
        doc_len: 20,
        zipf_s: 1.0,
    };
    let mut rng = StdRng::seed_from_u64(17);
    for doc in generate_corpus(&cfg, &mut rng) {
        engine.index_document(&doc).unwrap();
        oracle.index(&doc);
    }
    engine.flush().unwrap();
    (flash, ram, engine, oracle)
}

/// Measure one (corpus, query-size) point.
pub fn measure(docs: usize, keywords: usize, df: DfStrategy) -> E3Point {
    let (flash, ram, engine, oracle) = build(docs, df);
    let kw: Vec<String> = (0..keywords).map(|i| format!("w{}", 10 + i * 37)).collect();
    let kw_refs: Vec<&str> = kw.iter().map(String::as_str).collect();
    let base = ram.used();
    ram.reset_high_water();
    flash.reset_stats();
    let hits = engine.search(&kw_refs, 10).unwrap();
    let engine_ios = flash.stats().page_reads;
    let engine_ram = ram.high_water() - base;
    let expected = oracle.search(&kw_refs, 10);
    let exact = hits.iter().map(|h| h.doc).collect::<Vec<_>>()
        == expected.iter().map(|h| h.doc).collect::<Vec<_>>();
    E3Point {
        docs,
        keywords,
        engine_ram,
        engine_ios,
        naive_accumulators: oracle.accumulators_for(&kw_refs),
        exact,
    }
}

/// Regenerate the E3 table.
pub fn run() -> Table {
    let mut t = Table::new(
        "E3 — embedded search: 1 RAM page per keyword, exact top-N",
        &[
            "docs",
            "keywords",
            "df mode",
            "peak query RAM (B)",
            "page reads",
            "naive accumulators",
            "exact top-10",
        ],
    );
    for docs in [1000usize, 5000] {
        for keywords in [1usize, 2, 4] {
            for (df, label) in [
                (DfStrategy::TwoPass, "two-pass"),
                (DfStrategy::RamDictionary, "ram-dict"),
            ] {
                let p = measure(docs, keywords, df);
                t.row(vec![
                    p.docs.to_string(),
                    p.keywords.to_string(),
                    label.to_string(),
                    p.engine_ram.to_string(),
                    p.engine_ios.to_string(),
                    p.naive_accumulators.to_string(),
                    if p.exact { "yes" } else { "NO" }.to_string(),
                ]);
            }
        }
    }
    t.note("paper shape: query RAM stays ~1 page/keyword + top-N regardless of corpus size,");
    t.note("while the classical algorithm allocates one accumulator per retrieved docid;");
    t.note("ablation: two-pass df reads the tail and one chain head per keyword more than the");
    t.note("RAM dictionary, with O(1) extra RAM;");
    t.note("the dictionary alone (~16 B/term = 48 KB at vocab 3000) would not fit the 64 KB token");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ram_is_bounded_and_results_exact() {
        let p = measure(800, 3, DfStrategy::TwoPass);
        assert!(p.exact);
        // 3 cursors + df page + heap + slack, on 2 KB pages.
        assert!(p.engine_ram < 5 * 2048 + 1024, "got {}", p.engine_ram);
    }

    #[test]
    fn two_pass_reads_more_than_dictionary() {
        let a = measure(800, 2, DfStrategy::TwoPass);
        let b = measure(800, 2, DfStrategy::RamDictionary);
        assert!(a.engine_ios > b.engine_ios);
        assert!(a.exact && b.exact);
    }
}
