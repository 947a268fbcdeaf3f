//! The embedded search engine under the microscope.
//!
//! Indexes a synthetic personal corpus on a simulated secure token and
//! shows the Part II story in numbers: bounded query RAM (one flash page
//! per keyword, and one more while the keywords' df is counted), page-I/O
//! costs, and the effect of a background reorganization of the chained
//! hash buckets.
//!
//! Run with: `cargo run --release --example embedded_search`

use pds::flash::Flash;
use pds::mcu::{HardwareProfile, RamBudget};
use pds::search::gen::{generate_corpus, CorpusConfig};
use pds::search::{DfStrategy, NaiveSearch, SearchEngine};
use pds_obs::rng::SeedableRng;
use pds_obs::rng::StdRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = HardwareProfile::secure_token();
    println!(
        "device: {} — {} KB RAM, {} MB flash ({}-byte pages)",
        profile.name,
        profile.ram_bytes / 1024,
        profile.flash.capacity() / (1024 * 1024),
        profile.flash.page_size
    );
    let flash = Flash::new(profile.flash);
    let ram = RamBudget::new(profile.ram_bytes);
    let mut engine = SearchEngine::new(&flash, &ram, 128, 1024, DfStrategy::TwoPass)?;
    let mut oracle = NaiveSearch::new();

    let cfg = CorpusConfig {
        num_docs: 3000,
        vocabulary: 4000,
        doc_len: 25,
        zipf_s: 1.0,
    };
    let mut rng = StdRng::seed_from_u64(3);
    println!("indexing {} documents…", cfg.num_docs);
    for doc in generate_corpus(&cfg, &mut rng) {
        engine.index_document(&doc)?;
        oracle.index(&doc);
    }
    engine.flush()?;
    let tail = engine.num_tail_pages();
    println!(
        "index: {} tail pages (staged, read by every walk) + {} chain pages (drained; superseded ones included) across {} buckets; insertion caused {} random writes",
        tail,
        engine.num_index_pages() - tail,
        128,
        flash.stats().non_sequential_programs
    );

    let queries: &[&[&str]] = &[&["w3"], &["w10", "w55"], &["w100", "w200", "w500"]];
    for q in queries {
        ram.reset_high_water();
        let base = ram.used();
        flash.reset_stats();
        let hits = engine.search(q, 10)?;
        let expected = oracle.search(q, 10);
        assert_eq!(
            hits.iter().map(|h| h.doc).collect::<Vec<_>>(),
            expected.iter().map(|h| h.doc).collect::<Vec<_>>(),
            "embedded engine must equal the unconstrained oracle"
        );
        println!(
            "query {q:?}: top-10 exact ✓ | {} page reads | peak query RAM {} B | naive would hold {} doc accumulators",
            flash.stats().page_reads,
            ram.high_water() - base,
            oracle.accumulators_for(q)
        );
    }

    // Background reorganization: pack the chains.
    let before = engine.num_index_pages();
    flash.reset_stats();
    engine.reorganize()?;
    println!(
        "\nreorganization: {} → {} index pages, {} of them tail (cost: {} reads, {} writes)",
        before,
        engine.num_index_pages(),
        engine.num_tail_pages(),
        flash.stats().page_reads,
        flash.stats().page_programs
    );
    flash.reset_stats();
    let hits = engine.search(&["w10", "w55"], 10)?;
    println!(
        "same query after reorg: {} hits in {} page reads",
        hits.len(),
        flash.stats().page_reads
    );
    Ok(())
}
