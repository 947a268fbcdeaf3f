//! Integration: the full Part II embedded stack on one chip — tables,
//! PBFilter, reorganization, climbing indexes and the search engine
//! sharing flash and RAM, with properties checked end to end.

use pds::db::climbing::{execute_spj, execute_spj_naive, TjoinIndex, TselectIndex};
use pds::db::tpcd::{TpcdConfig, TpcdData};
use pds::db::value::{ColumnType, Schema};
use pds::db::{Database, Predicate, QueryPlan, Value};
use pds::flash::{Flash, FlashGeometry};
use pds::mcu::RamBudget;
use pds::search::{DfStrategy, NaiveSearch, SearchEngine};
use pds_obs::rng::{Rng, SeedableRng, StdRng};

#[test]
fn database_and_search_engine_share_one_chip() {
    let f = Flash::new(FlashGeometry::new(512, 16, 2048));
    let ram = RamBudget::new(64 * 1024);
    let mut db = Database::new(&f, &ram);
    db.create_table(
        "NOTES",
        Schema::new(&[("day", ColumnType::U64), ("tag", ColumnType::Str)]),
    )
    .unwrap();
    let mut engine = SearchEngine::new(&f, &ram, 16, 64, DfStrategy::TwoPass).unwrap();
    for i in 0..400u64 {
        db.insert(
            "NOTES",
            vec![Value::U64(i), Value::Str(format!("tag{}", i % 9))],
        )
        .unwrap();
        engine
            .index_document(&format!("note number {i} tagged tag{}", i % 9))
            .unwrap();
    }
    db.create_index("NOTES", "tag").unwrap();
    // Both answer correctly off the same chip.
    let rows = db
        .select("NOTES", &Predicate::eq("tag", Value::str("tag3")))
        .unwrap();
    assert_eq!(rows.len(), 400 / 9 + 1);
    let hits = engine.search(&["tag3"], 50).unwrap();
    assert_eq!(hits.len(), 45);
    // Zero block erases: everything was appended.
    assert_eq!(f.stats().block_erases, 0);
}

#[test]
fn plan_ladder_costs_strictly_improve() {
    let f = Flash::new(FlashGeometry::new(512, 16, 4096));
    let ram = RamBudget::new(64 * 1024);
    let mut db = Database::new(&f, &ram);
    // The same rows twice: one table never indexed, one indexed while
    // empty, so that its inserts fill the PBFilter a reorganisation turns
    // into a tree.
    let tables = ["SCANNED", "CUSTOMER"];
    for table in tables {
        let schema = Schema::new(&[("id", ColumnType::U64), ("city", ColumnType::Str)]);
        db.create_table(table, schema).unwrap();
    }
    db.create_index("CUSTOMER", "city").unwrap();
    for i in 0..20_000u64 {
        for table in tables {
            let row = vec![Value::U64(i), Value::Str(format!("city{}", i % 500))];
            db.insert(table, row).unwrap();
        }
    }
    let pred = Predicate::eq("city", Value::str("city123"));
    let mut costs = Vec::new();
    for (step, table) in ["SCANNED", "CUSTOMER", "CUSTOMER"].into_iter().enumerate() {
        if step == 2 {
            db.reorganize_index(table, "city").unwrap();
        }
        let plan = db.explain(table, &pred).unwrap();
        f.reset_stats();
        let rows = db.select(table, &pred).unwrap();
        let reads = f.stats().page_reads;
        assert_eq!(rows.len(), 40);
        costs.push((plan, reads));
    }
    assert_eq!(costs[0].0, QueryPlan::FullScan);
    assert_eq!(costs[1].0, QueryPlan::SummaryScan);
    assert_eq!(costs[2].0, QueryPlan::TreeLookup);
    assert!(
        costs[0].1 > costs[1].1 && costs[1].1 > costs[2].1,
        "the ladder must strictly improve: {costs:?}"
    );
}

#[test]
fn tpcd_spj_fast_plan_beats_naive_by_an_order_of_magnitude() {
    let f = Flash::new(FlashGeometry::new(512, 16, 8192));
    let ram = RamBudget::new(128 * 1024);
    let mut rng = StdRng::seed_from_u64(1);
    let data = TpcdData::generate(&f, &TpcdConfig::scale(4), &mut rng).unwrap();
    let tree = data.schema_tree().unwrap();
    let tables = data.tables();
    let tjoin = TjoinIndex::build(&f, &tree, &tables).unwrap();
    let seg = TselectIndex::build(&f, &ram, &tree, &tables, "CUSTOMER", "mktsegment").unwrap();
    let sup = TselectIndex::build(&f, &ram, &tree, &tables, "SUPPLIER", "name").unwrap();

    f.reset_stats();
    let fast = execute_spj(
        &tree,
        &tables,
        &tjoin,
        &[
            (&seg, Value::str("HOUSEHOLD")),
            (&sup, Value::str("SUPPLIER-1")),
        ],
    )
    .unwrap();
    let fast_reads = f.stats().page_reads;

    f.reset_stats();
    let cust = tree.table_index("CUSTOMER").unwrap();
    let supp = tree.table_index("SUPPLIER").unwrap();
    let naive = execute_spj_naive(
        &tree,
        &tables,
        &[
            (cust, 3, Value::str("HOUSEHOLD")),
            (supp, 1, Value::str("SUPPLIER-1")),
        ],
    )
    .unwrap();
    let naive_reads = f.stats().page_reads;

    assert_eq!(fast, naive);
    assert!(
        fast_reads * 5 < naive_reads,
        "climbing indexes {fast_reads} IOs vs naive {naive_reads} IOs"
    );
}

#[test]
fn climbing_ancestors_and_joins_are_pinned() {
    let f = Flash::new(FlashGeometry::new(512, 16, 8192));
    let ram = RamBudget::new(128 * 1024);
    let mut rng = StdRng::seed_from_u64(0xC11B);
    let data = TpcdData::generate(&f, &TpcdConfig::scale(2), &mut rng).unwrap();
    let tree = data.schema_tree().unwrap();
    let tables = data.tables();
    let tjoin = TjoinIndex::build(&f, &tree, &tables).unwrap();
    let ancestors: Vec<Vec<u32>> = (0..tjoin.num_entries())
        .map(|r| tjoin.get(r).unwrap())
        .collect();
    let seg = TselectIndex::build(&f, &ram, &tree, &tables, "CUSTOMER", "mktsegment").unwrap();
    let sup = TselectIndex::build(&f, &ram, &tree, &tables, "SUPPLIER", "name").unwrap();
    let mut joins = Vec::new();
    for segment in ["HOUSEHOLD", "AUTOMOBILE", "BUILDING", "NONE"] {
        for supplier in ["SUPPLIER-0", "SUPPLIER-1", "SUPPLIER-3"] {
            let preds = [(&seg, Value::str(segment)), (&sup, Value::str(supplier))];
            joins.push(execute_spj(&tree, &tables, &tjoin, &preds).unwrap());
        }
    }
    assert!(joins.iter().any(|j| !j.is_empty()));
    let pinned = format!("{ancestors:?}{joins:?}");
    let digest = pds::crypto::sha256(pinned.as_bytes());
    let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex,
        "3de3aa4f1589ede266209ed321e1a021b3ff92f7c8f635726c5ef64b36768931"
    );
}

/// The embedded search engine equals the unconstrained oracle on
/// arbitrary corpora and queries.
#[test]
fn prop_search_engine_equals_oracle() {
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0xE50C + case);
        let docs: Vec<Vec<u8>> = (0..rng.gen_range(1usize..60))
            .map(|_| {
                (0..rng.gen_range(1usize..12))
                    .map(|_| rng.gen_range(0u8..12))
                    .collect()
            })
            .collect();
        let query: Vec<u8> = (0..rng.gen_range(1usize..3))
            .map(|_| rng.gen_range(0u8..12))
            .collect();
        let n = rng.gen_range(1usize..8);
        let f = Flash::new(FlashGeometry::new(512, 16, 1024));
        let ram = RamBudget::new(64 * 1024);
        let mut engine = SearchEngine::new(&f, &ram, 8, 16, DfStrategy::TwoPass).unwrap();
        let mut oracle = NaiveSearch::new();
        for d in &docs {
            let text: Vec<String> = d.iter().map(|w| format!("word{w}")).collect();
            let text = text.join(" ");
            engine.index_document(&text).unwrap();
            oracle.index(&text);
        }
        let kw: Vec<String> = query.iter().map(|w| format!("word{w}")).collect();
        let kw_refs: Vec<&str> = kw.iter().map(String::as_str).collect();
        let hits = engine.search(&kw_refs, n).unwrap();
        let expected = oracle.search(&kw_refs, n);
        assert_eq!(
            hits.iter().map(|h| h.doc).collect::<Vec<_>>(),
            expected.iter().map(|h| h.doc).collect::<Vec<_>>(),
            "case {case}"
        );
    }
}

/// Selection answers are identical across the three access methods
/// for arbitrary data distributions.
#[test]
fn prop_plan_ladder_equivalence() {
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0x1ADDE0 + case);
        let cities: Vec<u16> = (0..rng.gen_range(10usize..300))
            .map(|_| rng.gen_range(0u16..40))
            .collect();
        let probe = rng.gen_range(0u16..40);
        let f = Flash::new(FlashGeometry::new(512, 16, 2048));
        let ram = RamBudget::new(64 * 1024);
        let mut db = Database::new(&f, &ram);
        db.create_table(
            "T",
            Schema::new(&[("day", ColumnType::U64), ("city", ColumnType::Str)]),
        )
        .unwrap();
        for (i, c) in cities.iter().enumerate() {
            db.insert("T", vec![Value::U64(i as u64), Value::Str(format!("c{c}"))])
                .unwrap();
        }
        let pred = Predicate::eq("city", Value::Str(format!("c{probe}")));
        let scan = db.select("T", &pred).unwrap();
        db.create_index("T", "city").unwrap();
        let summary = db.select("T", &pred).unwrap();
        db.reorganize_index("T", "city").unwrap();
        let tree = db.select("T", &pred).unwrap();
        assert_eq!(&scan, &summary, "case {case}");
        assert_eq!(&scan, &tree, "case {case}");
    }
}
