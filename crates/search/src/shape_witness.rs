//! The secure gateway's engine shape against the one it replaced, over
//! every phase of the tail.
//!
//! A query's reads depend on how long the tail is when it runs, and a
//! single stop can land anywhere between two drains. So each shape
//! indexes the same `token_query`-shaped corpus — 40-word documents from
//! a 2 000-word skewed vocabulary, the minimum of two uniform draws, as
//! the performance ledger draws them — syncs every 125 documents from
//! document 1 500 to 3 000, and after each of those 13 syncs asks the
//! same 50 two-keyword queries. The pages a keyword costs are the page
//! reads of a stop's queries over their keywords; `(128, 768)` must cost
//! at least a fifth fewer on the mean over the stops, and no more at its
//! worst stop. They read 8.11 → 5.75 pages at the mean and 10.22 →
//! 8.64 at the worst stop (about 2 s under an unoptimised `cargo test`).

#![cfg(test)]

use pds_flash::{Flash, FlashGeometry};
use pds_mcu::RamBudget;
use pds_obs::rng::{Rng, SeedableRng, StdRng};

use crate::{DfStrategy, SearchEngine};

const DOCS: usize = 3_000;
const FIRST_STOP: usize = 1_500;
const SYNC_EVERY: usize = 125;
const WORDS: usize = 40;
const VOCAB: usize = 2_000;
const QUERIES: usize = 50;

fn skewed(rng: &mut StdRng, n: usize) -> usize {
    rng.gen_range(0..n).min(rng.gen_range(0..n))
}

/// Pages read a keyword at each stop, at `(buckets, buffer)` on the
/// secure token's chip and RAM.
fn pages_per_keyword(buckets: usize, buffer: usize) -> Vec<f64> {
    let flash = Flash::new(FlashGeometry::nand_2k(256));
    let ram = RamBudget::new(64 * 1024);
    let mut e = SearchEngine::new(&flash, &ram, buckets, buffer, DfStrategy::TwoPass).unwrap();
    let mut docs = StdRng::seed_from_u64(0x47_0003);
    let mut qs = StdRng::seed_from_u64(0x47_0004);
    let queries: Vec<[String; 2]> = (0..QUERIES)
        .map(|_| [0, 1].map(|_| format!("w{}", skewed(&mut qs, VOCAB))))
        .collect();
    let mut stops = Vec::new();
    for n in 1..=DOCS {
        let words: Vec<String> = (0..WORDS)
            .map(|_| format!("w{}", skewed(&mut docs, VOCAB)))
            .collect();
        e.index_document(&words.join(" ")).unwrap();
        if n >= FIRST_STOP && (n - FIRST_STOP).is_multiple_of(SYNC_EVERY) {
            e.flush().unwrap();
            let before = flash.stats().page_reads;
            for [a, b] in &queries {
                e.search(&[a.as_str(), b.as_str()], 10).unwrap();
            }
            let reads = flash.stats().page_reads - before;
            stops.push(reads as f64 / (2 * QUERIES) as f64);
        }
    }
    stops
}

#[test]
fn the_gateway_shape_reads_a_fifth_fewer_pages_a_keyword_at_every_tail_phase() {
    let [small, secure] = [(64, 256), (128, 768)].map(|(b, c)| pages_per_keyword(b, c));
    assert_eq!((small.len(), secure.len()), (13, 13));
    let mean = |stops: &[f64]| stops.iter().sum::<f64>() / stops.len() as f64;
    let max = |stops: &[f64]| stops.iter().copied().fold(0.0, f64::max);
    let (m_small, m_secure) = (mean(&small), mean(&secure));
    assert!(
        m_secure <= 0.8 * m_small,
        "mean {m_secure:.2} against {m_small:.2}: {secure:?} against {small:?}"
    );
    assert!(
        max(&secure) <= max(&small),
        "worst stop {:.2} against {:.2}",
        max(&secure),
        max(&small)
    );
}
