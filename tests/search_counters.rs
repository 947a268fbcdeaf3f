//! The search engine's query counters. The registry is process-global,
//! so they are proven in a binary of their own: here, and only here, a
//! query moves each counter by exactly what its `search.query` span
//! says.

use pds::flash::{Flash, FlashGeometry};
use pds::mcu::RamBudget;
use pds::obs::{counter, trace};
use pds::search::{DfStrategy, SearchEngine, SearchMode};

#[test]
fn a_query_adds_what_its_span_says_it_kept_and_read_again() {
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
    let names = ["search.tail_postings_kept", "search.tail_pages_reread"];
    let mut total = [0, 0];
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
    assert!(total[0] > 85 && total[1] > 0, "{total:?}");
}
