//! Integration: the extension data models composed with the rest of the
//! stack — a life-logging token whose series, key-value state and
//! relational records share one chip and one RAM budget, archived and
//! restored through the untrusted cloud.

use pds::core::CloudStore;
use pds::crypto::{BloomFilter, Sha256, SymmetricKey};
use pds::db::spatial::{Point, Window};
use pds::db::timeseries::Aggregate;
use pds::db::value::{ColumnType, Schema};
use pds::db::{Database, KvStore, PBFilter, Predicate, SpatialTrace, TimeSeries, Value};
use pds::flash::{BlockId, FaultPlan, Flash, FlashError, FlashGeometry, PageAddr};
use pds::mcu::codesign::{calibrate_ladder, max_search_keywords};
use pds::mcu::{HardwareProfile, RamBudget};
use pds_obs::rng::{Rng, RngCore, SeedableRng, StdRng};

#[test]
fn three_data_models_share_one_chip() {
    let flash = Flash::new(FlashGeometry::new(2048, 64, 4096));
    let ram = RamBudget::new(64 * 1024);

    // Relational.
    let mut db = Database::new(&flash, &ram);
    db.create_table(
        "VISITS",
        Schema::new(&[("day", ColumnType::U64), ("doctor", ColumnType::Str)]),
    )
    .unwrap();
    for d in 0..200u64 {
        db.insert(
            "VISITS",
            vec![Value::U64(d), Value::Str(format!("dr-{}", d % 5))],
        )
        .unwrap();
    }
    db.create_index("VISITS", "doctor").unwrap();

    // Time series.
    let mut weight = TimeSeries::new(&flash);
    for d in 0..365u64 {
        weight.append(d * 86_400, 70_000 + (d % 30) as i64).unwrap();
    }
    weight.flush().unwrap();

    // Key-value.
    let mut prefs = KvStore::new(&flash);
    for i in 0..500u32 {
        prefs
            .put(format!("k{}", i % 50).as_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    prefs.flush().unwrap();

    // All three answer correctly off the shared chip.
    let visits = db
        .select("VISITS", &Predicate::eq("doctor", Value::str("dr-3")))
        .unwrap();
    assert_eq!(visits.len(), 40);
    let agg = weight.range_aggregate(0, 29 * 86_400).unwrap();
    assert_eq!(agg.count, 30);
    assert!(prefs.get(b"k10").unwrap().is_some());
    // And nothing ever erased a block (pure log discipline).
    assert_eq!(flash.stats().block_erases, 0);
}

#[test]
fn kv_state_survives_the_encrypted_archive() {
    // A token's KV state is exported, archived encrypted, and restored
    // onto a fresh token — the Trusted Cells durability story applied to
    // the extension store.
    let flash = Flash::new(FlashGeometry::new(2048, 64, 1024));
    let mut kv = KvStore::new(&flash);
    for i in 0..200u32 {
        kv.put(format!("key{i}").as_bytes(), format!("val{i}").as_bytes())
            .unwrap();
    }
    kv.flush().unwrap();
    // Export live pairs (compaction gives exactly the live set).
    let kv = kv.compact().unwrap();
    let mut payload = Vec::new();
    for i in 0..200u32 {
        let v = kv.get(format!("key{i}").as_bytes()).unwrap().unwrap();
        payload.extend_from_slice(&(v.len() as u32).to_le_bytes());
        payload.extend_from_slice(&v);
    }
    let key = SymmetricKey::from_seed(b"kv-archive");
    let mut cloud = CloudStore::new();
    let mut rng = StdRng::seed_from_u64(5);
    let archive = pds::core::EncryptedArchive::publish(&mut cloud, "kv", &key, &payload, &mut rng);
    let restored = archive.restore(&cloud, &key).unwrap();
    assert_eq!(restored, payload);
}

#[test]
fn codesign_predictions_hold_for_the_real_search_engine() {
    use pds::search::{DfStrategy, SearchEngine};
    let p = HardwareProfile::small_token();
    let flash = Flash::new(p.flash);
    let ram = RamBudget::new(p.ram_bytes);
    let mut engine = SearchEngine::new(&flash, &ram, 64, 256, DfStrategy::TwoPass).unwrap();
    let residents = SearchEngine::resident_bytes(64, 256, p.flash.page_size);
    assert_eq!(ram.used(), residents);
    for i in 0..100 {
        engine
            .index_document(&format!("w{} w{} w{} shared", i % 7, i % 11, i % 13))
            .unwrap();
    }
    let k_max = max_search_keywords(&p, residents, 10).unwrap();
    // A query at the calibrated maximum succeeds…
    let kws: Vec<String> = (0..k_max).map(|i| format!("w{}", i % 13)).collect();
    let kw_refs: Vec<&str> = kws.iter().map(String::as_str).collect();
    assert!(engine.search(&kw_refs, 10).is_ok(), "k={k_max} must fit");
    // …and well beyond it fails with a RAM error, not a crash. Distinct
    // unknown terms have df 0 and are dropped before cursor allocation,
    // so a second engine on the same budget, once the first has let its
    // reservation go, indexes the keywords first.
    drop(engine);
    assert_eq!(ram.used(), 0);
    let mut engine2 = SearchEngine::new(&flash, &ram, 64, 256, DfStrategy::TwoPass).unwrap();
    let doc: String = (0..k_max + 4).map(|i| format!("y{i} ")).collect();
    engine2.index_document(&doc).unwrap();
    let kws2: Vec<String> = (0..k_max + 4).map(|i| format!("y{i}")).collect();
    let kw2: Vec<&str> = kws2.iter().map(String::as_str).collect();
    assert!(
        engine2.search(&kw2, 10).is_err(),
        "k={} must exceed the device",
        k_max + 4
    );
}

/// The calibration's device ladder, each device charged what the real
/// engine reserves on its pages: the engine reserves exactly that on every
/// rung's page size and at a second sizing, and the ladder answers what
/// A3 reports.
#[test]
fn the_ladder_charges_each_device_what_its_engine_reserves() {
    use pds::search::{DfStrategy, SearchEngine};
    let profiles = [
        HardwareProfile::sensor(),
        HardwareProfile::population(),
        HardwareProfile::small_token(),
        HardwareProfile::secure_token(),
        HardwareProfile::plug_server(),
    ];
    for p in &profiles {
        for (buckets, buffer) in [(64, 256), (16, 64)] {
            let flash = Flash::new(p.flash);
            let ram = RamBudget::new(1 << 20);
            let _engine =
                SearchEngine::new(&flash, &ram, buckets, buffer, DfStrategy::TwoPass).unwrap();
            let residents = SearchEngine::resident_bytes(buckets, buffer, p.flash.page_size);
            assert_eq!(ram.used(), residents, "{} at ({buckets}, {buffer})", p.name);
        }
    }
    let ladder = calibrate_ladder(|page| SearchEngine::resident_bytes(64, 256, page));
    let rungs: Vec<_> = ladder
        .iter()
        .map(|c| (c.device, c.max_keywords, c.max_fan_in))
        .collect();
    // A 2 KB page's tail table is 33 entries of a 4 B span and an 85 B
    // filter (2 937 B), a 512 B page's 39 of 4 + 21 (975 B), beside 384 B
    // of heads and tallies and a 4 096 B buffer.
    assert_eq!(
        rungs,
        [
            ("sensor", None, 0),
            ("population", Some(19), 20),
            ("small-token", Some(3), 4),
            ("secure-token", Some(27), 28),
            ("plug-server", Some(131_067), 131_068),
        ]
    );
}

/// The secure gateway (`Pds::new`) runs its engine at `(128, 768)`: the
/// engine reserves what it says on the secure token's budget, a fresh
/// gateway's token holds exactly that (nothing else of the gateway is
/// resident before its first request), and the calibration's
/// keyword count at those residents is 21 where `(64, 256)`'s is 27 (a
/// sort fan-in of 22 where it is 28).
#[test]
fn the_secure_gateway_reserves_its_engine_shape() {
    use pds::core::Pds;
    use pds::mcu::codesign::max_sort_fan_in;
    use pds::mcu::Token;
    use pds::search::{DfStrategy, SearchEngine};
    let secure = HardwareProfile::secure_token();
    let page = secure.flash.page_size;
    let [small, gateway] =
        [(64, 256), (128, 768)].map(|(b, c)| SearchEngine::resident_bytes(b, c, page));
    assert_eq!((small, gateway), (7_417, 19_197));
    let token = Token::secure(1);
    let _engine =
        SearchEngine::new(token.flash(), token.ram(), 128, 768, DfStrategy::TwoPass).unwrap();
    assert_eq!(token.ram().used(), gateway);
    let pds = Pds::new(2, "alice").unwrap();
    assert_eq!(pds.token().ram().used(), gateway);
    assert_eq!(max_search_keywords(&secure, gateway, 10), Some(21));
    assert_eq!(max_search_keywords(&secure, small, 10), Some(27));
    assert_eq!(max_sort_fan_in(&secure, gateway), 22);
}

// ---- the summarised-log recipe, seen from outside pds-db -------------------
//
// PBFilter, KvStore, TimeSeries and SpatialTrace are one recipe — a data
// log of count-prefixed, page-filling records plus a record log holding
// one summary per data page. The sweep below drives each front through its public
// API against a model that knows only that recipe (which entries share
// a page, how many summary pages are on flash, which pages a query must
// probe) and checks every answer and every read count; the golden test
// pins the bytes the same scripts leave on flash.

/// Page size of the sweep chip (the 512-byte unit-test profile).
const PAGE: usize = 512;

fn sweep_chip() -> Flash {
    Flash::new(FlashGeometry::new(PAGE, 16, 64))
}

/// What a data page holds: one record filling the page but for its
/// 6-byte page header and the record's 2-byte length prefix.
const DATA_RECORD: usize = PAGE - 8;

/// Which entries share a data page, and how many summary pages are on
/// flash: a data page closes when the next entry would not fit its
/// record (or on `flush`), and closing appends one length-prefixed
/// summary record to a record page with a 6-byte header.
struct PageModel<E> {
    closed: Vec<Vec<E>>,
    open: Vec<E>,
    open_bytes: usize,
    summary_len: fn(&[E]) -> usize,
    summary_bytes: usize,
    summary_pages: u64,
}

impl<E> PageModel<E> {
    fn new(summary_len: fn(&[E]) -> usize) -> Self {
        PageModel {
            closed: Vec::new(),
            open: Vec::new(),
            open_bytes: 2,
            summary_len,
            summary_bytes: 6,
            summary_pages: 0,
        }
    }

    /// Variable-size fronts: the page closes when `entry` does not fit.
    fn push(&mut self, entry: E, len: usize) {
        if self.open_bytes + len > DATA_RECORD {
            self.close();
        }
        self.open.push(entry);
        self.open_bytes += len;
    }

    /// Fixed-size fronts close eagerly: as soon as no further entry fits.
    fn push_fixed(&mut self, entry: E, len: usize) {
        self.push(entry, len);
        if self.open_bytes + len > DATA_RECORD {
            self.close();
        }
    }

    fn close(&mut self) {
        if self.open.is_empty() {
            return;
        }
        let rec = 2 + (self.summary_len)(&self.open);
        if self.summary_bytes + rec > PAGE {
            self.summary_pages += 1;
            self.summary_bytes = 6;
        }
        self.summary_bytes += rec;
        self.closed.push(std::mem::take(&mut self.open));
        self.open_bytes = 2;
    }

    fn flush(&mut self) {
        self.close();
        if self.summary_bytes > 6 {
            self.summary_pages += 1;
            self.summary_bytes = 6;
        }
    }
}

/// `f`'s result and the page reads it cost.
fn reads_of<T>(flash: &Flash, f: impl FnOnce() -> T) -> (T, u64) {
    let before = flash.stats().page_reads;
    let out = f();
    (out, flash.stats().page_reads - before)
}

/// The answers a script's queries got, in the order it asked them.
#[derive(Default)]
struct Answers(std::cell::RefCell<Vec<String>>);

impl Answers {
    fn push(&self, answer: &impl std::fmt::Debug) {
        self.0.borrow_mut().push(format!("{answer:?}"));
    }

    /// SHA-256 of every answer, in hex.
    fn digest(&self) -> String {
        let mut hash = Sha256::new();
        for answer in self.0.borrow().iter() {
            hash.update(answer.as_bytes());
        }
        hash.finalize().iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// The ~2 B/key filter both Bloom fronts build over a page's keys.
fn bloom_of<'a>(keys: impl ExactSizeIterator<Item = &'a Vec<u8>>) -> BloomFilter {
    let mut bf = BloomFilter::per_key_16bits(keys.len());
    for k in keys {
        bf.insert(k);
    }
    bf
}

fn bloom_len(keys: usize) -> usize {
    BloomFilter::per_key_16bits(keys).to_bytes().len()
}

/// Key `k` of a small domain, with lengths from 5 to 16 bytes.
fn sweep_key(k: u32) -> Vec<u8> {
    format!("key-{k:0w$}", w = 1 + (k % 12) as usize).into_bytes()
}

fn drive_pbfilter(seed: u64) -> (Flash, Answers) {
    type Entry = (Vec<u8>, u32);
    let flash = sweep_chip();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx = PBFilter::new(&flash);
    let answers = Answers::default();
    let mut model: PageModel<Entry> = PageModel::new(|page| bloom_len(page.len()));
    let check = |idx: &PBFilter, model: &PageModel<Entry>, key: &Vec<u8>| {
        let positives = model
            .closed
            .iter()
            .filter(|page| bloom_of(page.iter().map(|(k, _)| k)).maybe_contains(key))
            .count() as u64;
        let expected: Vec<u32> = (model.closed.iter().flatten())
            .chain(&model.open)
            .filter(|(k, _)| k == key)
            .map(|(_, rowid)| *rowid)
            .collect();
        let (hits, reads) = reads_of(&flash, || idx.lookup(key).unwrap());
        answers.push(&hits);
        assert_eq!(hits, expected, "seed {seed}");
        assert_eq!(reads, model.summary_pages + positives, "seed {seed}");
        assert_eq!(idx.num_key_pages() as usize, model.closed.len());
        assert_eq!(idx.num_summary_pages() as u64, model.summary_pages);
    };
    for rowid in 0..600u32 {
        let key = sweep_key(rng.gen_range(0u32..40));
        idx.insert(&key, rowid).unwrap();
        model.push((key.clone(), rowid), 2 + key.len() + 4);
        match rng.gen_range(0u32..40) {
            0 => {
                idx.flush().unwrap();
                model.flush();
                check(&idx, &model, &key);
            }
            1..=3 => check(&idx, &model, &sweep_key(rng.gen_range(0u32..44))),
            _ => {}
        }
    }
    idx.flush().unwrap();
    model.flush();
    for k in 0..44 {
        check(&idx, &model, &sweep_key(k));
    }
    assert_eq!(
        idx.entries().collect::<Result<Vec<_>, _>>().unwrap(),
        model.closed.concat(),
        "the reorganisation stream is the insertion order"
    );
    (flash, answers)
}

fn drive_kv(seed: u64) -> (Flash, Answers) {
    /// `(key, Some(value))` is a put, `(key, None)` a tombstone.
    type Entry = (Vec<u8>, Option<Vec<u8>>);
    let flash = sweep_chip();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kv = KvStore::new(&flash);
    let answers = Answers::default();
    let mut model: PageModel<Entry> = PageModel::new(|page| bloom_len(page.len()));
    let check = |kv: &KvStore, model: &PageModel<Entry>, key: &Vec<u8>| {
        // Newest first: the open page costs nothing; otherwise every
        // summary page, then positive pages back to the first real hit.
        let newest_in = |page: &[Entry]| page.iter().rev().find(|(k, _)| k == key).cloned();
        let (mut expected, mut expected_reads) = (newest_in(&model.open), 0);
        if expected.is_none() {
            expected_reads = model.summary_pages;
            for page in model.closed.iter().rev() {
                if bloom_of(page.iter().map(|(k, _)| k)).maybe_contains(key) {
                    expected_reads += 1;
                    expected = newest_in(page);
                    if expected.is_some() {
                        break;
                    }
                }
            }
        }
        let (got, reads) = reads_of(&flash, || kv.get(key).unwrap());
        answers.push(&got);
        assert_eq!(got, expected.and_then(|(_, v)| v), "seed {seed}");
        assert_eq!(reads, expected_reads, "seed {seed}");
        assert_eq!(kv.num_data_pages() as usize, model.closed.len());
    };
    for _ in 0..600 {
        let key = sweep_key(rng.gen_range(0u32..30));
        let value = (rng.gen_range(0u32..4) > 0).then(|| {
            let mut v = vec![0u8; rng.gen_range(0usize..40)];
            rng.fill_bytes(&mut v);
            v
        });
        match &value {
            Some(v) => kv.put(&key, v).unwrap(),
            None => kv.delete(&key).unwrap(),
        }
        let len = 1 + 2 + key.len() + 2 + value.as_ref().map_or(0, Vec::len);
        model.push((key.clone(), value), len);
        match rng.gen_range(0u32..40) {
            0 => {
                kv.flush().unwrap();
                model.flush();
                check(&kv, &model, &key);
            }
            1..=3 => check(&kv, &model, &sweep_key(rng.gen_range(0u32..33))),
            _ => {}
        }
    }
    kv.flush().unwrap();
    model.flush();
    for k in 0..33 {
        check(&kv, &model, &sweep_key(k));
    }
    (flash, answers)
}

fn drive_timeseries(seed: u64) -> (Flash, Answers) {
    type Entry = (u64, i64);
    let flash = sweep_chip();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut series = TimeSeries::new(&flash);
    let answers = Answers::default();
    let mut model: PageModel<Entry> = PageModel::new(|_| 48);
    let check = |series: &TimeSeries, model: &PageModel<Entry>, from: u64, to: u64| {
        // A page is probed only when its time range straddles a bound.
        let boundary = |page: &&Vec<Entry>| {
            let (lo, hi) = (page[0].0, page[page.len() - 1].0);
            let (disjoint, covered) = (hi < from || lo > to, lo >= from && hi <= to);
            !disjoint && !covered
        };
        let probes = model.closed.iter().filter(boundary).count() as u64;
        let mut expected = Aggregate::empty();
        for (_, v) in (model.closed.iter().flatten())
            .chain(&model.open)
            .filter(|(ts, _)| (from..=to).contains(ts))
        {
            expected = expected.merge(&Aggregate {
                count: 1,
                sum: *v,
                min: *v,
                max: *v,
            });
        }
        let (got, reads) = reads_of(&flash, || series.range_aggregate(from, to).unwrap());
        answers.push(&got);
        assert_eq!(got, expected, "seed {seed} [{from},{to}]");
        assert_eq!(reads, model.summary_pages + probes, "seed {seed}");
        assert_eq!(series.num_data_pages() as usize, model.closed.len());
    };
    let mut now = 0u64;
    for _ in 0..1500 {
        now += rng.gen_range(0u64..5);
        let value = rng.gen_range(-1000i64..1000);
        series.append(now, value).unwrap();
        model.push_fixed((now, value), 16);
        let (a, b) = (rng.gen_range(0..=now + 5), rng.gen_range(0..=now + 5));
        match rng.gen_range(0u32..100) {
            0 => {
                series.flush().unwrap();
                model.flush();
                check(&series, &model, a.min(b), now);
            }
            1..=5 => check(&series, &model, a.min(b), a.max(b)),
            _ => {}
        }
    }
    series.flush().unwrap();
    model.flush();
    check(&series, &model, 0, u64::MAX);
    check(&series, &model, now / 3, now / 2);
    (flash, answers)
}

fn drive_spatial(seed: u64) -> (Flash, Answers) {
    let flash = sweep_chip();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = SpatialTrace::new(&flash);
    let answers = Answers::default();
    let mut model: PageModel<Point> = PageModel::new(|_| 32);
    let check = |trace: &SpatialTrace, model: &PageModel<Point>, w: &Window| {
        // A page is probed when its bounding box meets the window.
        let meets = |page: &&Vec<Point>| {
            let span = |f: fn(&Point) -> i64| {
                let vals = page.iter().map(f);
                (vals.clone().min().unwrap(), vals.max().unwrap())
            };
            let (x, y, t) = (
                span(|p| p.x as i64),
                span(|p| p.y as i64),
                (page[0].ts, page[page.len() - 1].ts),
            );
            x.0 <= w.x.1 as i64
                && x.1 >= w.x.0 as i64
                && y.0 <= w.y.1 as i64
                && y.1 >= w.y.0 as i64
                && t.0 <= w.t.1
                && t.1 >= w.t.0
        };
        let probes = model.closed.iter().filter(meets).count() as u64;
        let expected: Vec<Point> = (model.closed.iter().flatten())
            .chain(&model.open)
            .copied()
            .filter(|p| w.contains(p))
            .collect();
        let (got, reads) = reads_of(&flash, || trace.window_query(w).unwrap());
        answers.push(&got);
        assert_eq!(got, expected, "seed {seed} {w:?}");
        assert_eq!(reads, model.summary_pages + probes, "seed {seed}");
        assert_eq!(trace.num_data_pages() as usize, model.closed.len());
    };
    let (mut x, mut y, mut now) = (0i32, 0i32, 0u64);
    for _ in 0..1500 {
        x += rng.gen_range(-20i32..=20);
        y += rng.gen_range(-20i32..=20);
        now += rng.gen_range(0u64..3);
        trace.record(x, y, now).unwrap();
        model.push_fixed(Point { x, y, ts: now }, 16);
        let (cx, cy) = (
            x + rng.gen_range(-200i32..=200),
            y + rng.gen_range(-200i32..=200),
        );
        let w = Window {
            x: (cx - 80, cx + 80),
            y: (cy - 80, cy + 80),
            t: (rng.gen_range(0..=now), now + 1),
        };
        match rng.gen_range(0u32..100) {
            0 => {
                trace.flush().unwrap();
                model.flush();
                check(&trace, &model, &w);
            }
            1..=5 => check(&trace, &model, &w),
            _ => {}
        }
    }
    trace.flush().unwrap();
    model.flush();
    let everything = Window {
        x: (i32::MIN, i32::MAX),
        y: (i32::MIN, i32::MAX),
        t: (0, u64::MAX),
    };
    check(&trace, &model, &everything);
    (flash, answers)
}

/// The reorganisation of a seeded PBFilter into the tree index, whose
/// pages share the fronts' packer and entry layout: sort runs, level
/// logs and tree pages all land on the returned chip.
fn drive_reorganisation(seed: u64) -> (Flash, Answers) {
    let flash = sweep_chip();
    let ram = RamBudget::new(64 * 1024);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx = PBFilter::new(&flash);
    for rowid in 0..4000u32 {
        idx.insert(&sweep_key(rng.gen_range(0u32..300)), rowid)
            .unwrap();
    }
    idx.flush().unwrap();
    let tree = pds::db::reorg::reorganize(&flash, &ram, &idx).unwrap();
    assert!(tree.height() >= 2, "internal pages are pinned too");
    let answers = Answers::default();
    for k in 0..300 {
        let mut from_index = idx.lookup(&sweep_key(k)).unwrap();
        from_index.sort_unstable();
        let hits = tree.lookup(&sweep_key(k)).unwrap();
        answers.push(&hits);
        assert_eq!(hits, from_index);
    }
    (flash, answers)
}

/// A seeded script over one front, returning the chip it wrote and the
/// answers of its queries.
type Drive = fn(u64) -> (Flash, Answers);

const FRONTS: [(&str, Drive); 4] = [
    ("pbfilter", drive_pbfilter),
    ("kv", drive_kv),
    ("timeseries", drive_timeseries),
    ("spatial", drive_spatial),
];

#[test]
fn summarised_log_sweep_matches_the_model_and_the_io_formula() {
    // Per query: page reads = |summary log| + one per probed data page,
    // with random flush points so the unflushed-tail and just-flushed
    // boundaries are both hit on every front.
    for (_, drive) in FRONTS {
        for seed in 0..6 {
            drive(seed);
        }
    }
}

/// SHA-256 over every page image of the chip, in address order.
fn chip_digest(flash: &Flash) -> String {
    page_digest(
        flash,
        (0..flash.geometry().num_pages() as u32).map(PageAddr),
    )
}

/// SHA-256 over the images of `pages`, in the order given.
fn page_digest(flash: &Flash, pages: impl Iterator<Item = PageAddr>) -> String {
    let mut hash = Sha256::new();
    let mut buf = vec![0u8; flash.geometry().page_size];
    for page in pages {
        flash.read_page(page, &mut buf).unwrap();
        hash.update(&buf);
    }
    hash.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn page_images_match_the_format_pinned_at_pr15() {
    // Captured at commit d147914 (before the four fronts shared one
    // summarised log): the same scripts must leave the same bytes at the
    // same addresses. Captured again when data and tree pages became
    // page-filling records: every page gains the 8 B frame; a full data
    // page still holds 31 samples or points (16 B each, 502 of 510
    // bytes), and these scripts' flushes leave the same page counts
    // (pbfilter 26, kv 48, timeseries 58, spatial 57).
    let golden = [
        (
            "pbfilter",
            "8c3914d21266ca96378100d36098245126fc5b3d9b6ff22f5b5a49e77ee4a3bc",
        ),
        (
            "kv",
            "4fe6ab52aa293b89296de9343005485eff0c20c52adaacbc2a29973349f35ab9",
        ),
        (
            "timeseries",
            "0ea84d77d1313275c7c7f60029129f02788bb417e991eeb3232e1764a68d688e",
        ),
        (
            "spatial",
            "092ba6ae5db4236aa3c9844eee7f499fbc76ede2b185a91bbc1527da989f6702",
        ),
    ]
    .map(|(front, hex)| (front, hex.to_string()));
    let digests = FRONTS.map(|(front, drive)| (front, chip_digest(&drive(0xA11CE).0)));
    assert_eq!(digests, golden);
    assert_eq!(
        chip_digest(&drive_reorganisation(0xA11CE).0),
        // The 8 B frame: the 4 000-entry tree takes 140 → 142 pages.
        "443b5bc149e405fd646b59a60d495cecf8edefed5e09c85bc3e2cee2bcab7999",
        "sort runs + tree"
    );
}

#[test]
fn the_summarised_scripts_answer_what_they_answered_before_the_pages_were_records() {
    // Captured at commit 7608447, before data and tree pages became
    // records: a page may hold fewer entries since, the answers are the
    // same.
    let golden = [
        (
            "pbfilter",
            "7831d0105afc80e565434c000a058f6c298dbab8c59f557247946ae7a156bd6e",
        ),
        (
            "kv",
            "7e9a05487eb6fcbf2d61c3c18c4cdc051bbd684f30c2783f7d2c7ace924a5e4d",
        ),
        (
            "timeseries",
            "37520b8879625267b0855913c4a8e3b52fe41198a9db672ba11bc0ed4fb9f055",
        ),
        (
            "spatial",
            "388c887e3046444a919de7e7c5aa2d7d5713f79ed6a527f6f11b869a87f550a9",
        ),
    ]
    .map(|(front, hex)| (front, hex.to_string()));
    let digests = FRONTS.map(|(front, drive)| (front, drive(0xA11CE).1.digest()));
    assert_eq!(digests, golden);
    assert_eq!(
        drive_reorganisation(0xA11CE).1.digest(),
        "bcdb12d48699deb2aa1d68d8393022a32b4653bff6d84c4dd8e84fb75763f40f",
        "tree lookups"
    );
}

/// A seeded script over the record logs every workload goes through —
/// three tables, a document store, a change log and a flight recorder on
/// one chip — with documents at the single-record edges (0, 1 and
/// `max − 1` bytes) and random flush points. Returns the chip and the
/// blocks of the tables, the document store and the change log, each
/// log's in log order.
fn drive_record_logs(seed: u64) -> (Flash, Vec<BlockId>) {
    use pds::db::Table;
    use pds::flash::{BlackBox, ChangeLog, ChangeRec};
    use pds::search::DocStore;
    use pds_obs::flight::{subsystem, EventFrame, Severity};

    let flash = sweep_chip();
    let mut rng = StdRng::seed_from_u64(seed);
    let schemas = [
        Schema::new(&[("id", ColumnType::U64), ("city", ColumnType::Str)]),
        Schema::new(&[
            ("day", ColumnType::U64),
            ("amount", ColumnType::U64),
            ("payee", ColumnType::Str),
        ]),
        Schema::new(&[("note", ColumnType::Str)]),
    ];
    let mut tables: Vec<Table> = (schemas.iter().enumerate())
        .map(|(i, schema)| Table::new(&flash, &format!("T{i}"), schema.clone()))
        .collect();
    let mut rows: Vec<Vec<Vec<Value>>> = vec![Vec::new(); tables.len()];
    let mut docs = DocStore::new(&flash);
    let mut doc_model: Vec<Vec<u8>> = Vec::new();
    let mut changes = ChangeLog::new(&flash);
    let mut recorder = BlackBox::new(&flash);
    // The largest document that is still one record of a 512-byte page.
    let max = PAGE - 8;
    for step in 0..1200u64 {
        let word = |rng: &mut StdRng| format!("w{}", rng.gen_range(0u32..5000));
        match rng.gen_range(0u32..100) {
            0..=54 => {
                let t = rng.gen_range(0..tables.len());
                let row = match t {
                    0 => vec![Value::U64(step), Value::Str(word(&mut rng))],
                    1 => vec![
                        Value::U64(step / 7),
                        Value::U64(rng.gen_range(0u64..100_000)),
                        Value::Str(word(&mut rng)),
                    ],
                    _ => vec![Value::Str(word(&mut rng).repeat(rng.gen_range(0..12)))],
                };
                let rowid = tables[t].insert(&row).unwrap();
                assert_eq!(rowid as usize, rows[t].len());
                rows[t].push(row);
                changes
                    .append(ChangeRec {
                        hlc: step,
                        node: 1,
                        kind: 1,
                        store: t as u16,
                        entity: rowid,
                    })
                    .unwrap();
            }
            55..=89 => {
                let len = match rng.gen_range(0u32..8) {
                    0 => 0,
                    1 => 1,
                    2 => max - 1,
                    _ => rng.gen_range(2..200),
                };
                let doc: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                assert_eq!(docs.append(&doc).unwrap() as usize, doc_model.len());
                doc_model.push(doc);
                let frame = EventFrame::new(Severity::Info, subsystem::CORE, 1, [step, len as u64]);
                recorder.record(frame).unwrap();
            }
            90..=93 => tables[rng.gen_range(0usize..3)].flush().unwrap(),
            94..=96 => docs.flush().unwrap(),
            97 => changes.flush().unwrap(),
            _ => recorder.flush().unwrap(),
        }
    }
    // Every id reads back, flushed or still buffered.
    for (table, rows) in tables.iter().zip(&rows) {
        assert_eq!(table.num_rows() as usize, rows.len());
        for (rowid, row) in rows.iter().enumerate() {
            assert_eq!(&table.get(rowid as u32).unwrap(), row);
        }
    }
    for (doc, bytes) in doc_model.iter().enumerate() {
        assert_eq!(&docs.get(doc as u32).unwrap(), bytes);
    }
    for table in &mut tables {
        table.flush().unwrap();
    }
    docs.flush().unwrap();
    changes.flush().unwrap();
    recorder.flush().unwrap();
    let mut blocks: Vec<BlockId> = tables.iter().flat_map(|t| t.manifest().blocks).collect();
    blocks.extend(docs.blocks());
    blocks.extend(changes.blocks());
    (flash, blocks)
}

/// A seeded life of a search engine — documents, deletions, random
/// syncs — digested over the pages of its document and tombstone logs
/// only. The index log is raw bucket pages, not records, and the
/// checkpoint log is exempt on purpose: its records lost the 4-byte
/// part header when the record log learnt to span pages.
fn drive_engine_logs(seed: u64) -> String {
    use pds::search::{DfStrategy, SearchEngine};

    let flash = sweep_chip();
    let ram = RamBudget::new(64 * 1024);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut engine = SearchEngine::new(&flash, &ram, 16, 64, DfStrategy::TwoPass).unwrap();
    for _ in 0..600 {
        match rng.gen_range(0u32..100) {
            0..=69 => {
                let words = match rng.gen_range(0u32..10) {
                    0 => 0,
                    // "w17 " × 125 is 500 bytes, three short of the edge.
                    1 => 125,
                    _ => rng.gen_range(1..20),
                };
                let text: String = (0..words)
                    .map(|_| format!("w{:02} ", rng.gen_range(0u32..100)))
                    .collect();
                engine.index_document(&text).unwrap();
            }
            70..=89 if engine.num_docs() > 0 => {
                let doc = rng.gen_range(0..engine.num_docs());
                engine.delete_document(doc).unwrap();
            }
            90..=97 => engine.flush().unwrap(),
            98 => engine.reorganize().unwrap(),
            _ => {}
        }
    }
    engine.flush().unwrap();
    let geo = flash.geometry();
    let m = engine.manifest();
    assert!(m.doc_blocks.len() > 1 && !m.tombstone_blocks.is_empty());
    let blocks = m.doc_blocks.iter().chain(&m.tombstone_blocks);
    let pages = |block: &BlockId| {
        let block = *block;
        (0..geo.pages_per_block).map(move |offset| geo.page_in_block(block, offset))
    };
    page_digest(&flash, blocks.flat_map(pages))
}

#[test]
fn record_log_page_images_match_the_format_pinned_at_pr17() {
    // Captured at commit 3f7961f, when `Table` and `DocStore` kept an
    // address directory beside the log and the log's records could not
    // span pages: ordinal addressing and the chunk flag bits leave every
    // page of single-chunk records byte for byte where it was. The whole
    // chip was captured again when the flight recorder stopped
    // rewriting its newest half and began to release whole blocks: its
    // pages, and the blocks the allocator hands out after them, moved.
    let (flash, blocks) = drive_record_logs(0xD1CE);
    assert_eq!(
        chip_digest(&flash),
        "198de5b191e4d5d6855172f9811260d0079251be081c30c13a023e5a96ab9508",
        "tables + documents + change log + flight recorder"
    );
    // The other logs' pages in log order, wherever their blocks lie —
    // pinned before the recorder changed, and unmoved by it.
    let geo = flash.geometry();
    let pages = |block: &BlockId| {
        let block = *block;
        (0..geo.pages_per_block).map(move |offset| geo.page_in_block(block, offset))
    };
    assert_eq!(
        page_digest(&flash, blocks.iter().flat_map(pages)),
        "165c6de850a1be105b1e567215bf985404c9774451d57739dc71000def55f25c",
        "tables + documents + change log, block by block"
    );
    assert_eq!(
        drive_engine_logs(0xD1CE),
        "df09f1817120a3c4a01c438380294fbcc62850b2ad0e480948dbad43501ec960",
        "engine document + tombstone logs"
    );
}

#[test]
fn a_corrupt_summary_page_reports_its_real_flash_address() {
    // On a fresh chip the data log takes block 0 and the summary log
    // block 1. Every read flips a bit, so the first summary page fails
    // its CRC — and the error must name that page, not its ordinal.
    fn corrupt_read<T: std::fmt::Debug>(
        build: impl FnOnce(&Flash) -> Box<dyn FnOnce() -> Result<T, FlashError>>,
    ) {
        let flash = Flash::small(8);
        let query = build(&flash);
        flash.inject_faults(FaultPlan::new(1).read_flips(1.0));
        let summary_page = flash.geometry().first_page_of(BlockId(1));
        assert_eq!(query().unwrap_err(), FlashError::CorruptPage(summary_page));
    }
    corrupt_read(|f| {
        let mut idx = PBFilter::new(f);
        idx.insert(b"Lyon", 1).unwrap();
        idx.flush().unwrap();
        Box::new(move || idx.lookup(b"Lyon"))
    });
    corrupt_read(|f| {
        let mut kv = KvStore::new(f);
        kv.put(b"city", b"Lyon").unwrap();
        kv.flush().unwrap();
        Box::new(move || kv.get(b"city"))
    });
    corrupt_read(|f| {
        let mut series = TimeSeries::new(f);
        series.append(10, 1).unwrap();
        series.flush().unwrap();
        Box::new(move || series.range_aggregate(0, 100))
    });
    corrupt_read(|f| {
        let mut trace = SpatialTrace::new(f);
        trace.record(1, 1, 10).unwrap();
        trace.flush().unwrap();
        let all = Window {
            x: (0, 10),
            y: (0, 10),
            t: (0, 100),
        };
        Box::new(move || trace.window_query(&all))
    });
}
