//! Read disturb under the search engine: every page a query reads — the
//! tail's staged pages, the chains and their heads' df tables — is a
//! record page, verified and read again when it fails. Under a 1 %
//! read-flip plan each ranked answer and each df is what it is
//! flip-free, or refused as `CorruptPage` when a page fails three reads
//! in a row — never a different answer. The secure gateway's shape on
//! its 2 KB pages and the test gateway's on 512 B pages, each with
//! chains, a tail and pending triples. `PDS_CRASH_SEEDS` widens the
//! sweep, as it does pds-db's `embedded_reads_under_disturb`.

#![cfg(test)]

use pds_flash::{FaultPlan, Flash, FlashError, FlashGeometry};
use pds_mcu::RamBudget;
use pds_obs::rng::{sweep_seeds, Rng, SeedableRng, StdRng};

use crate::tokenize::term_hash;
use crate::{DfStrategy, SearchEngine, SearchError, SearchMode};

const VOCAB: usize = 300;

/// `common` in most documents, a handful of skewed words, some twice.
fn text(rng: &mut StdRng, i: usize) -> String {
    let mut words = vec![format!("tag{i}")];
    if !i.is_multiple_of(8) {
        words.push("common".into());
    }
    for _ in 0..rng.gen_range(4usize..10) {
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
    &["w0"],
    &["w1", "w2"],
    &["common", "w3", "w40"],
    &["w7", "w11"],
    &["w120", "tag5"],
    &["absent"],
];

/// Every answer of the sweep: each query's ranked hits, scores as bits,
/// in both modes, then the df of the query words and a spread of others.
type Answers = Vec<Result<Vec<(u32, u64)>, SearchError>>;

fn ask(e: &SearchEngine) -> Answers {
    let mut out = Answers::new();
    for q in QUERIES {
        for mode in [SearchMode::Any, SearchMode::All] {
            let hits = e.search_mode(q, 10, mode);
            out.push(hits.map(|hits| hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()));
        }
    }
    let words = (0..60).step_by(3).map(|w| format!("w{w}"));
    for word in words.chain(["common".into(), "tag9".into()]) {
        out.push(e.count_df(term_hash(&word)).map(|df| vec![(df, 0)]));
    }
    out
}

/// An engine of `num_buckets` buckets and a `buffer` of triples on pages
/// of `page_size` bytes, holding `docs` documents: drained chains, a tail
/// and triples still pending.
fn engine(
    page_size: usize,
    num_buckets: usize,
    buffer: usize,
    docs: usize,
) -> (Flash, SearchEngine) {
    let flash = Flash::new(FlashGeometry::new(page_size, 64, 512));
    let ram = RamBudget::new(64 * 1024);
    let mut e = SearchEngine::new(&flash, &ram, num_buckets, buffer, DfStrategy::TwoPass).unwrap();
    let mut rng = StdRng::seed_from_u64(0xD157_5EA2 ^ page_size as u64);
    for i in 0..docs {
        e.index_document(&text(&mut rng, i)).unwrap();
        if i == docs - 5 {
            e.flush().unwrap();
        }
    }
    assert!(e.num_tail_pages() > 0 && e.num_index_pages() > e.num_tail_pages());
    (flash, e)
}

#[test]
fn search_reads_under_disturb() {
    let retries = pds_obs::counter("flash.read_retries");
    let before = retries.get();
    let mut refused = 0;
    for (flash, e) in [engine(2048, 128, 768, 2400), engine(512, 64, 256, 920)] {
        let want: Vec<_> = ask(&e).into_iter().map(Result::unwrap).collect();
        for case in 0..sweep_seeds(48) {
            let seed = 0xD157_5EA0 + case;
            flash.inject_faults(FaultPlan::new(seed).read_flips(0.01));
            let got = ask(&e);
            flash.inject_faults(FaultPlan::new(seed));
            for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                let ctx = format!(
                    "{} B pages, seed {case}, answer {i}",
                    flash.geometry().page_size
                );
                match got {
                    Ok(got) => assert!(got == want, "{ctx} differs"),
                    Err(SearchError::Flash(FlashError::CorruptPage(_))) => refused += 1,
                    Err(e) => panic!("{ctx} failed: {e}"),
                }
            }
        }
    }
    // Three failed reads in a row are about one in a million reads.
    assert!(refused <= sweep_seeds(48) / 16, "{refused} refused");
    assert!(retries.get() > before, "no read was disturbed");
}
