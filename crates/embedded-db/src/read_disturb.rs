//! Read disturb under every embedded structure that reads its own pages:
//! an indexed table (a tree and its PBFilter delta), the key-value store,
//! the time series, the spatial trace and the climbing indexes, all on
//! one chip. Under a 1 % read-flip plan each query answers what it
//! answers flip-free: a page that fails its check is read again, and a
//! page that fails three reads in a row is refused as `CorruptPage` —
//! never a different answer. `PDS_CRASH_SEEDS` widens the sweep.

#![cfg(test)]

use crate::climbing::{execute_spj, TjoinIndex, TselectIndex};
use crate::spatial::Window;
use crate::tpcd::{TpcdConfig, TpcdData};
use crate::value::{ColumnType, Schema};
use crate::{Database, DbError, KvStore, Predicate, SpatialTrace, TimeSeries, Value};
use pds_flash::{FaultPlan, Flash, FlashError};
use pds_mcu::RamBudget;
use pds_obs::rng::{sweep_seeds, Rng, SeedableRng, StdRng};

/// Every query of the sweep, each answer in its `Debug` form.
type Answers = Vec<Result<String, DbError>>;

/// The structures under test, built flip-free on one chip.
struct World {
    db: Database,
    kv: KvStore,
    series: TimeSeries,
    trace: SpatialTrace,
    tpcd: TpcdData,
    tjoin: TjoinIndex,
    segment: TselectIndex,
    supplier: TselectIndex,
}

fn build(flash: &Flash, ram: &RamBudget) -> World {
    let mut rng = StdRng::seed_from_u64(0x0D15_7A2B);
    let mut db = Database::new(flash, ram);
    let schema = Schema::new(&[("n", ColumnType::U64), ("s", ColumnType::Str)]);
    db.create_table("T", schema).unwrap();
    let row = |rng: &mut StdRng| {
        let s = rng.gen_range(0..200u32);
        vec![
            Value::U64(rng.gen_range(0..300u64)),
            Value::Str(format!("s{s}").repeat(1 + s as usize % 3)),
        ]
    };
    for _ in 0..3000 {
        db.insert("T", row(&mut rng)).unwrap();
    }
    // A tree over the rows, then a delta of 1 500 more.
    db.create_index("T", "n").unwrap();
    db.create_index("T", "s").unwrap();
    for _ in 0..1500 {
        db.insert("T", row(&mut rng)).unwrap();
    }
    db.flush().unwrap();

    let mut kv = KvStore::new(flash);
    for i in 0..600u32 {
        let value = i.to_le_bytes().repeat(rng.gen_range(0..6));
        kv.put(format!("key{}", i % 80).as_bytes(), &value).unwrap();
    }
    kv.flush().unwrap();
    let mut series = TimeSeries::new(flash);
    let mut trace = SpatialTrace::new(flash);
    let (mut x, mut y) = (0i32, 0i32);
    for ts in 0..3000u64 {
        series.append(ts * 3, rng.gen_range(-500..500)).unwrap();
        x += rng.gen_range(-20..=20);
        y += rng.gen_range(-20..=20);
        trace.record(x, y, ts).unwrap();
    }
    series.flush().unwrap();
    trace.flush().unwrap();

    let tpcd = TpcdData::generate(flash, &TpcdConfig::scale(1), &mut rng).unwrap();
    let tree = tpcd.schema_tree().unwrap();
    let tables = tpcd.tables();
    let tjoin = TjoinIndex::build(flash, &tree, &tables).unwrap();
    let segment =
        TselectIndex::build(flash, ram, &tree, &tables, "CUSTOMER", "mktsegment").unwrap();
    let supplier = TselectIndex::build(flash, ram, &tree, &tables, "SUPPLIER", "name").unwrap();
    World {
        db,
        kv,
        series,
        trace,
        tpcd,
        tjoin,
        segment,
        supplier,
    }
}

fn answer<T: std::fmt::Debug, E: Into<DbError>>(got: Result<T, E>) -> Result<String, DbError> {
    got.map(|v| format!("{v:?}")).map_err(Into::into)
}

fn ask(w: &World) -> Answers {
    let mut out = Answers::new();
    let n = Value::U64;
    for v in (0..300).step_by(23) {
        out.push(answer(w.db.select("T", &Predicate::eq("n", n(v)))));
    }
    for (lo, hi) in [(10, 14), (150, 152), (297, 400)] {
        out.push(answer(
            w.db.select("T", &Predicate::between("n", n(lo), n(hi))),
        ));
    }
    for s in ["s7", "s19s19", "s101s101s101", "s44s44", "none"] {
        out.push(answer(w.db.select("T", &Predicate::eq("s", Value::str(s)))));
    }
    let (lo, hi) = (Value::str("s15"), Value::str("s16"));
    out.push(answer(w.db.select("T", &Predicate::between("s", lo, hi))));

    for k in (0..90).step_by(7) {
        out.push(answer(w.kv.get(format!("key{k}").as_bytes())));
    }
    for (from, to) in [(0, 8999), (100, 130), (4000, 4100), (8990, 9100)] {
        out.push(answer(w.series.range_aggregate(from, to)));
    }
    for t in [(0, 3000), (500, 520), (2900, 2950)] {
        let window = Window {
            x: (-300, 300),
            y: (-300, 300),
            t,
        };
        out.push(answer(w.trace.window_query(&window)));
    }

    let tree = w.tpcd.schema_tree().unwrap();
    let tables = w.tpcd.tables();
    for (segment, supplier) in [("HOUSEHOLD", "SUPPLIER-1"), ("AUTOMOBILE", "SUPPLIER-4")] {
        let preds = [
            (&w.segment, Value::str(segment)),
            (&w.supplier, Value::str(supplier)),
        ];
        out.push(answer(execute_spj(&tree, &tables, &w.tjoin, &preds)));
    }
    for r in (0..w.tjoin.num_entries()).step_by(17) {
        out.push(answer(w.tjoin.get(r)));
    }
    out
}

#[test]
fn embedded_reads_under_disturb() {
    let flash = Flash::small(4096);
    let ram = RamBudget::new(128 * 1024);
    let world = build(&flash, &ram);
    let want: Vec<String> = ask(&world).into_iter().map(Result::unwrap).collect();
    let mut refused = 0;
    for case in 0..sweep_seeds(48) {
        let seed = 0xD157_DB00 + case;
        flash.inject_faults(FaultPlan::new(seed).read_flips(0.01));
        let got = ask(&world);
        flash.inject_faults(FaultPlan::new(seed));
        for (i, (got, want)) in got.iter().zip(&want).enumerate() {
            match got {
                Ok(got) => assert!(got == want, "seed {case}: query {i} differs"),
                Err(DbError::Flash(FlashError::CorruptPage(_))) => refused += 1,
                Err(e) => panic!("seed {case}: query {i} failed: {e}"),
            }
        }
    }
    // Three failed reads in a row are about one in a million reads.
    assert!(refused <= sweep_seeds(48) / 16, "{refused} refused");
}
