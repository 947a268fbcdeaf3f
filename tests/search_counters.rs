//! The search engine's counters. The registry is process-global, so
//! they are proven in a binary of their own: here, and only here, a
//! query moves each query counter — the tail postings kept, the tail
//! pages read again and those its term filters passed over — by exactly
//! what its `search.query` span says, and the chain pages and postings
//! programmed are counted exactly.

use pds::flash::{Flash, FlashGeometry};
use pds::mcu::RamBudget;
use pds::obs::{counter, trace};
use pds::search::{DfStrategy, SearchEngine, SearchMode};

/// The tests of this binary run one at a time: each reads counters that
/// the other's drains or queries move.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn a_query_adds_what_its_span_says_it_kept_and_read_again() {
    let _serial = SERIAL.lock();
    // 512 B pages, whose cursor page keeps 85 postings of 6 B, and
    // `common` in every document: once the tail is 20 pages long, more
    // of its postings lie there than its page keeps.
    let flash = Flash::new(FlashGeometry::new(512, 8, 1024));
    let ram = RamBudget::new(64 * 1024);
    let mut e = SearchEngine::new(&flash, &ram, 64, 256, DfStrategy::TwoPass).unwrap();
    let mut i = 0;
    while i < 300 || e.num_tail_pages() < 20 {
        e.index_document(&format!("common tag{i} w{} w{}", i % 7, i % 11))
            .unwrap();
        i += 1;
    }
    let names = [
        "search.tail_postings_kept",
        "search.tail_pages_reread",
        "search.tail_pages_skipped",
    ];
    let mut total = [0, 0, 0];
    for (query, mode) in [
        (&["common"][..], SearchMode::Any),
        (&["w3", "common", "w3"], SearchMode::Any),
        (&["w5", "tag7"], SearchMode::All),
        (&["absent"], SearchMode::Any),
    ] {
        let before = names.map(|name| counter(name).get());
        let (_, root) = trace::trace("query", || e.search_mode(query, 10, mode).unwrap());
        let span = root.find("search.query").unwrap();
        for (i, name) in names.iter().enumerate() {
            let said = span.attr_u64(name).unwrap_or(0);
            assert_eq!(counter(name).get() - before[i], said, "{query:?}: {name}");
            total[i] += said;
        }
    }
    // `common` is on every tail page its span lets through; the other
    // keywords' walks pass over most of theirs.
    assert!(total[0] > 85 && total[1] > 0 && total[2] > 0, "{total:?}");
}

#[test]
fn the_chain_pages_and_postings_programmed_are_counted() {
    let _serial = SERIAL.lock();
    let flash = Flash::new(FlashGeometry::new(2048, 64, 512));
    let ram = RamBudget::new(64 * 1024);
    let mut e = SearchEngine::new(&flash, &ram, 64, 256, DfStrategy::TwoPass).unwrap();
    let names = [
        "search.chain_pages_programmed",
        "search.chain_postings_programmed",
    ];
    let counted = || names.map(|name| counter(name).get());
    let start = counted();
    // Five distinct terms a document: 10 000 postings, enough for the
    // tail to reach its drain though a stage programs full pages only.
    for i in 0..2000 {
        let text = format!("common tag{i} w{} v{} k{}", i % 7, i % 11, i % 13);
        e.index_document(&text).unwrap();
    }
    let ingested = counted();
    let drained = [ingested[0] - start[0], ingested[1] - start[1]];
    // The drains' chain programs: each bucket's topped-up head, with the
    // postings it held before, and the pages it spilled into.
    assert_eq!(drained, [DRAINED_PAGES, DRAINED_POSTINGS]);
    // A reorganisation drains what is left, then repacks; a second one
    // only repacks: every posting once, into the chain pages that are
    // then all the index log holds.
    e.reorganize().unwrap();
    let once = counted();
    e.reorganize().unwrap();
    let twice = counted();
    let repacked = [twice[0] - once[0], twice[1] - once[1]];
    assert_eq!(repacked, [u64::from(e.num_index_pages()), 10_000]);
    assert_eq!(repacked[0], REPACKED_PAGES);
}

/// Measured on the script above (exact). (66 and 4 080 drained, 68 pages
/// repacked, over 1 200 documents, while a stage programmed its last page
/// partial and the tail reached its drain sooner.)
const DRAINED_PAGES: u64 = 76;
const DRAINED_POSTINGS: u64 = 6660;
const REPACKED_PAGES: u64 = 89;
