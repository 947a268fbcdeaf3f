//! Golden pins of every span tree the stack hands back: the stitched
//! `FleetTrace` of the three fleet drivers (aggregation, cell sync,
//! subscriptions) and the gateway's `QueryTrace`s.
//!
//! A trace is a report a caller asked for, by running the round or the
//! request inside a `pds_obs::trace::trace` scope, so its bytes are a
//! contract: the SHA-256 of `render()` and of `to_json()` is pinned per
//! scenario, at 1, 2 and 8 workers where the scenario has workers. The
//! constants were generated at commit e0d9b5b, before the collection
//! path under them was replaced; a change to how spans are collected, or
//! to how a caller asks for them, must leave every one of them where it
//! is. The aggregation and gateway pins were regenerated once since,
//! when the search engine's resident RAM grew by its tail-span table
//! (156 B on 512-byte pages): every render is the same but for
//! `mcu.ram.peak_bytes` / `peak_ram_bytes`, each up by exactly that.
//! The full-mode cell-sync pin was regenerated once,
//! when full mode became the generation digest asked since 0 (its round
//! sends pushes and one digest pull per cell); the delta-mode pin,
//! generated before that change, did not move. The search pin was
//! regenerated once more, when a query came to count df and keep its
//! tail postings in one walk per keyword: its render gained the
//! `search.tail_postings_kept` and `search.tail_pages_reread` attributes
//! (both 0: every posting is still in the insertion buffer), and its
//! peak RAM rose by 432 B, from two cursor pages and a five-entry heap to
//! two cursor pages and the page the walks read into (512 B pages).
//! Every aggregation, gateway and search pin moved together once more,
//! when a tail page's entry in RAM came to carry a term filter beside
//! its span (21 B on 512-byte pages, 39 entries): every render is the
//! same but for `mcu.ram.peak_bytes` / `peak_ram_bytes`, each up by
//! exactly 819 B, and the search render's new
//! `search.tail_pages_skipped` attribute (0: nothing is on flash yet).

use std::sync::{Arc, Barrier};

use pds::core::{AccessContext, Pds, Purpose};
use pds::crypto::hash::sha256;
use pds::db::{Predicate, Value};
use pds::fleet::{
    build_fleet, fleet_secure_aggregation, CellNet, CellNetConfig, EvictPolicy, FleetAggReport,
    FleetConfig, OnTamper, SubNet, SubNetConfig,
};
use pds::global::ssi::SsiThreat;
use pds::global::GroupByQuery;
use pds::obs::rng::{Rng, SeedableRng, StdRng};
use pds::obs::trace::trace;
use pds::obs::{FinishedSpan, FleetTrace, QueryTrace};
use pds::sync::TrustedCell;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `(sha256(render), sha256(to_json))`.
fn digests(render: &str, json: &str) -> (String, String) {
    (
        hex(&sha256(render.as_bytes())),
        hex(&sha256(json.as_bytes())),
    )
}

fn fleet_digests(t: &FleetTrace) -> (String, String) {
    digests(&t.render(), &t.to_json())
}

/// The stitched roots named `root` that fleet rounds run inside the
/// caller's scope recorded there, one a round.
fn stitched(scope: &FinishedSpan, root: &str) -> Vec<FleetTrace> {
    scope
        .children
        .iter()
        .filter(|c| c.name == root)
        .map(|c| FleetTrace::new(c.clone()))
        .collect()
}

/// Run one fleet round inside a trace scope: its result and the one
/// stitched root named `root` it recorded there.
fn traced_round<T>(root: &str, round: impl FnOnce() -> T) -> (T, FleetTrace) {
    let (out, scope) = trace("caller", round);
    let mut roots = stitched(&scope, root);
    assert_eq!(roots.len(), 1, "one {root} root a round");
    (out, roots.remove(0))
}

fn assert_golden(what: &str, got: (String, String), golden: (&str, &str)) {
    assert_eq!(
        (got.0.as_str(), got.1.as_str()),
        golden,
        "{what}: (render, json) digests moved"
    );
}

// ---- (a) the traced [TNP14] aggregation of tests/fleet.rs ---------------

/// One pin for all three residency regimes: parking and reviving tokens
/// between their turns is unobservable in the stitched trace.
const AGG: (&str, &str) = (
    "ad9bfafe58a21e12e3fd3df2268f391172d19c9f1e6af5d4033d445a559f8a55",
    "032bc752dcc47ea3afdfd299e486f4e3de9a9f042b9b0de4ad497af7aaa286a9",
);

/// A second, smaller fleet on another seed, so that two runs driven at
/// once have different trees to keep apart.
const AGG_OTHER: (&str, &str) = (
    "96484464c32ccdbacdd3d06c8d0bdfaeaf912d6e73e0dc7205c612dddd2af1a2",
    "e3978001635e711e24e325c6386df62c67ab3e4a0b75ed0f4fe7a060fb1459f7",
);

/// `rounds` traced aggregations on one fleet, optionally under a
/// resident cap of a quarter of the fleet; the last round's report and
/// trace.
fn traced_rounds_of(
    tokens: usize,
    seed: u64,
    workers: usize,
    capped: Option<EvictPolicy>,
    rounds: usize,
) -> (FleetAggReport, FleetTrace) {
    let mut cfg = FleetConfig::new(tokens, workers, seed);
    cfg.partition_size = 8;
    if let Some(evict) = capped {
        cfg.resident_cap = Some(tokens / 4);
        cfg.evict = evict;
    }
    let query = GroupByQuery::bank_by_category();
    let mut fleet = build_fleet(&cfg, &query).unwrap();
    let mut round = || {
        let (rep, trace) = traced_round("fleet.agg", || {
            fleet_secure_aggregation(
                &cfg,
                &query,
                &mut fleet,
                SsiThreat::HonestButCurious,
                OnTamper::Abort,
            )
        });
        (rep.unwrap(), trace)
    };
    let mut rep = round();
    for _ in 1..rounds {
        rep = round();
    }
    rep
}

/// A traced aggregation, optionally under a resident cap of a quarter
/// of the fleet.
fn traced_agg_of(
    tokens: usize,
    seed: u64,
    workers: usize,
    capped: Option<EvictPolicy>,
) -> FleetTrace {
    traced_rounds_of(tokens, seed, workers, capped, 1).1
}

/// The `stitched_trace_is_bit_identical_at_1_2_and_8_workers` config of
/// `tests/fleet.rs`, optionally capped at 8 of its 32 tokens.
fn agg_trace(workers: usize, capped: Option<EvictPolicy>) -> FleetTrace {
    traced_agg_of(32, 0x7ACE, workers, capped)
}

#[test]
fn aggregation_trace_uncapped_is_pinned_at_1_2_and_8_workers() {
    for workers in [1, 2, 8] {
        assert_golden(
            &format!("uncapped, {workers} workers"),
            fleet_digests(&agg_trace(workers, None)),
            AGG,
        );
    }
}

#[test]
fn aggregation_trace_under_a_hibernating_cap_is_pinned_at_1_2_and_8_workers() {
    for workers in [1, 2, 8] {
        assert_golden(
            &format!("cap 8 hibernate, {workers} workers"),
            fleet_digests(&agg_trace(workers, Some(EvictPolicy::Hibernate))),
            AGG,
        );
    }
}

#[test]
fn aggregation_trace_under_a_rebuilding_cap_is_pinned_at_1_2_and_8_workers() {
    for workers in [1, 2, 8] {
        assert_golden(
            &format!("cap 8 rebuild, {workers} workers"),
            fleet_digests(&agg_trace(workers, Some(EvictPolicy::Rebuild))),
            AGG,
        );
    }
}

/// Every span and attribute key in `span`'s subtree, depth first.
fn walk(span: &FinishedSpan, visit: &mut impl FnMut(&FinishedSpan)) {
    visit(span);
    for c in &span.children {
        walk(c, visit);
    }
}

#[test]
fn residency_fix_up_never_shows_in_a_token_subtree() {
    // Under a cap the scheduler creates and wakes tokens as their turns
    // ask for them; that work is the scheduler's, not the phase's.
    // Whatever a boot path records (`pds.reopen`, `recovery.*`), none of
    // it may land under a `token.N` span. The second round on one fleet
    // is the one whose collection revives (or rebuilds) what the first
    // round parked.
    for evict in [EvictPolicy::Hibernate, EvictPolicy::Rebuild] {
        let (rep, trace) = traced_rounds_of(32, 0x7ACE, 2, Some(evict), 2);
        match evict {
            EvictPolicy::Hibernate => assert!(rep.sched.sleep_wakes > 0, "tokens were woken"),
            EvictPolicy::Rebuild => assert!(rep.sched.rebuilds > 0, "tokens were rebuilt"),
        }
        let mut turns = 0;
        for phase in trace.phases() {
            for t in phase
                .children
                .iter()
                .filter(|c| c.name.starts_with("token."))
            {
                turns += 1;
                walk(t, &mut |s| {
                    assert_ne!(s.name, "pds.reopen", "{evict:?}: {} holds a wake", t.name);
                    assert!(
                        !s.name.starts_with("recovery."),
                        "{evict:?}: {} holds {}",
                        t.name,
                        s.name
                    );
                    for (k, _) in &s.attrs {
                        assert!(
                            !k.starts_with("recovery."),
                            "{evict:?}: {} carries {k}",
                            t.name
                        );
                    }
                });
            }
        }
        assert!(turns >= 32, "every token worked in some phase");
    }
}

#[test]
fn two_traced_runs_at_once_read_as_each_run_alone() {
    // Two drivers on two threads, released together, each over its own
    // fleet: neither run's token spans may end up in the other's tree.
    let other = traced_agg_of(24, 0xB0B, 2, Some(EvictPolicy::Hibernate));
    assert_golden("the second fleet, alone", fleet_digests(&other), AGG_OTHER);
    let start = Arc::new(Barrier::new(2));
    let runs = [
        (32, 0x7ACE, None, AGG),
        (24, 0xB0B, Some(EvictPolicy::Hibernate), AGG_OTHER),
    ];
    let handles: Vec<_> = runs
        .into_iter()
        .map(|(tokens, seed, capped, golden)| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..3 {
                    let trace = traced_agg_of(tokens, seed, 2, capped);
                    assert_golden(
                        &format!("concurrent, seed {seed:#x}"),
                        fleet_digests(&trace),
                        golden,
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("a concurrent traced run drifted");
    }
}

// ---- (b) one traced cell-sync round, one traced subscription round ------

const CELL_SYNC_ROUND: (&str, &str) = (
    "9ea5516510a5be1af765afdb3ed9a24aef7156ffda012ec513a18bc7533c2892",
    "41351e8f8db1b2ff648677fac97d69506f73d5a38dcbce65774a3f053b50047d",
);
/// The same network in delta mode, pinned while full mode still pulled
/// each slice by name: folding full mode into the digest must leave it.
const CELL_SYNC_DELTA_ROUND: (&str, &str) = (
    "349a3a7474dfb54f821939da5266428756be34d367538d57ea34414c32523387",
    "842685138c00758791aa2dab290f503407ff865de6504bc91d895cb17e7bb083",
);
/// Re-pinned once, when the subscription fleet's tokens moved onto the
/// scheduler: its write and poll phases gained a (spanless) `token.N`
/// tree per token. With those trees taken out, the render and the JSON
/// hash to the digests pinned before (`940de342…`, `e747658e…`).
const SUBS_ROUND: (&str, &str) = (
    "a6bce7b69a20bed2a96e2b16f39d0af37ea4c4b20e942f6c9e84b281f89e6f94",
    "8b9187bd275941759802910c8165ccf3029d8c304dc3dda6b66846011d320593",
);

#[test]
fn cell_sync_round_trace_is_pinned_at_1_2_and_8_workers() {
    for workers in [1, 2, 8] {
        let cfg = CellNetConfig::new(6, workers, 0xCE11);
        let mut net = CellNet::build(cfg, |i| {
            TrustedCell::new(&format!("cell-{i}"), b"owner-alice")
        })
        .unwrap();
        net.write(0, "energy-profile", b"heating v1");
        net.write(3, "medical", b"diagnosis");
        // One plain round first, so the traced one has responses to
        // reconcile as well as requests to send.
        net.sync_round().unwrap();
        let (rep, trace) = traced_round("fleet.sync", || net.sync_round());
        rep.unwrap();
        assert!(trace
            .phases()
            .iter()
            .any(|p| p.children.iter().any(|c| c.name.starts_with("token."))));
        assert_golden(
            &format!("cell sync, {workers} workers"),
            fleet_digests(&trace),
            CELL_SYNC_ROUND,
        );
    }
}

#[test]
fn cell_sync_delta_round_trace_is_pinned_at_1_2_and_8_workers() {
    for workers in [1, 2, 8] {
        let cfg = CellNetConfig::new(6, workers, 0xCE11).with_delta();
        let mut net = CellNet::build(cfg, |i| {
            TrustedCell::new(&format!("cell-{i}"), b"owner-alice")
        })
        .unwrap();
        net.write(0, "energy-profile", b"heating v1");
        net.write(3, "medical", b"diagnosis");
        net.sync_round().unwrap();
        // A write after the first round, so the traced one carries a
        // push and a digest reply that lists it as well as empty ones.
        net.write(5, "medical", b"diagnosis, revised");
        let (rep, trace) = traced_round("fleet.sync", || net.sync_round());
        rep.unwrap();
        assert!(trace
            .phases()
            .iter()
            .any(|p| p.children.iter().any(|c| c.name.starts_with("token."))));
        assert_golden(
            &format!("delta cell sync, {workers} workers"),
            fleet_digests(&trace),
            CELL_SYNC_DELTA_ROUND,
        );
    }
}

#[test]
fn one_scope_around_two_rounds_holds_one_stitched_root_a_round() {
    let cfg = CellNetConfig::new(6, 2, 0xCE11);
    let mut net = CellNet::build(cfg, |i| {
        TrustedCell::new(&format!("cell-{i}"), b"owner-alice")
    })
    .unwrap();
    net.write(0, "energy-profile", b"heating v1");
    net.write(3, "medical", b"diagnosis");
    let ((first, second), scope) = trace("caller", || (net.sync_round(), net.sync_round()));
    first.unwrap();
    second.unwrap();
    let roots = stitched(&scope, "fleet.sync");
    assert_eq!(roots.len(), 2, "one root a round");
    assert_eq!(scope.children.len(), 2, "and nothing else");
    assert_golden(
        "the second of two rounds in one scope",
        fleet_digests(&roots[1]),
        CELL_SYNC_ROUND,
    );
}

#[test]
fn subscription_round_trace_is_pinned() {
    // The subscription fleet runs on a fixed number of shards: the same
    // round is run twice.
    for _ in 0..2 {
        let mut net = SubNet::build(SubNetConfig::new(4, 0x5AB5)).unwrap();
        net.round().unwrap();
        let (rep, trace) = traced_round("fleet.subs", || net.round());
        rep.unwrap();
        assert_eq!(trace.phases().len(), 3);
        assert_golden("subscription round", fleet_digests(&trace), SUBS_ROUND);
    }
}

// ---- (c) the gateway's explain reports ----------------------------------

const SELECT_FULL_SCAN: (&str, &str) = (
    "8d05308c7afc29daaf1fe5c2b4c97cd42555b0b2a5c11bbc453f8d02853297d8",
    "e7794d41892116fdd1143a9800b8496fb612abca18bac49038385c56e3caa7e6",
);
const SELECT_TREE_LOOKUP: (&str, &str) = (
    "beee5325d3dc1d3ebde3ca0cf1f9d07a9997503e273cf95bbe96c48ef2b1345a",
    "34c6873279c0f0e9caa28500a16af750ab0e5142740ea9567cc7493d60402a1c",
);
const SELECT_DENIED: (&str, &str) = (
    "86ebefeddc8a8c01d805a1e60ec4811ff3eaefc06fed73bdf2ce9e74900bdbef",
    "d51c7603c1c71d8bedca4fa82c1594adf48e378a76486f836c57848f06601139",
);
const SEARCH: (&str, &str) = (
    "b1ab2c02b2024ba9d218b34092aeb2894c9010a1d7bd87bd7f9f6dcf48efed43",
    "f7fdf2f7d588f65b7e131006dca9e9dcece35c9239a965b0aa1f84a0ce597881",
);

/// A token with seeded bank rows and emails.
fn seeded_pds() -> Pds {
    let mut rng = StdRng::seed_from_u64(0x9A7E);
    let mut pds = Pds::for_tests(9, "alice").unwrap();
    for day in 0..600u64 {
        let category = if rng.gen_range(0..20u32) == 0 {
            "salary"
        } else {
            "groceries"
        };
        let amount = 1_000 + rng.gen_range(0..9_000u64);
        pds.ingest_bank(day, category, amount, "cp").unwrap();
    }
    let words = ["salary", "invoice", "holiday", "doctor", "school", "energy"];
    for day in 0..40u64 {
        let subject = words[rng.gen_range(0..words.len())];
        let body = format!(
            "{} {} {}",
            words[rng.gen_range(0..words.len())],
            words[rng.gen_range(0..words.len())],
            words[rng.gen_range(0..words.len())]
        );
        pds.ingest_email(day, "bob@example.org", subject, &body)
            .unwrap();
    }
    pds.set_clock(600);
    pds
}

/// A gateway request inside the scope its caller opens for the explain
/// report, rooted at `pds.traced` as when the pins were generated.
fn explain<T>(request: impl FnOnce() -> T) -> (T, QueryTrace) {
    let (out, root) = trace("pds.traced", request);
    (out, QueryTrace::new(root))
}

fn query_digests(mut trace: QueryTrace) -> (String, String) {
    trace.root.strip_timing();
    digests(&trace.render(), &trace.to_json())
}

fn plan_of(trace: &QueryTrace) -> Option<&str> {
    trace
        .root
        .find("db.select")
        .and_then(|s| s.attr("db.plan"))
        .and_then(|a| a.as_str())
}

#[test]
fn gateway_explain_reports_are_pinned() {
    let mut pds = seeded_pds();
    let me = AccessContext::new("alice", Purpose::PersonalUse);
    let stranger = AccessContext::new("mallory", Purpose::PersonalUse);
    let pred = Predicate::eq("category", Value::str("salary"));

    let (res, full) = explain(|| pds.select(&me, "BANK", &pred));
    assert!(!res.unwrap().is_empty());
    assert_eq!(plan_of(&full), Some("full_scan"));
    assert_golden("full scan", query_digests(full), SELECT_FULL_SCAN);

    pds.create_index(&me, "BANK", "category").unwrap();
    let (res, tree) = explain(|| pds.select(&me, "BANK", &pred));
    assert!(!res.unwrap().is_empty());
    assert_eq!(plan_of(&tree), Some("tree_lookup"));
    assert_golden("tree lookup", query_digests(tree), SELECT_TREE_LOOKUP);

    let (res, denied) = explain(|| pds.select(&stranger, "BANK", &pred));
    assert!(res.is_err());
    assert_eq!(denied.policy_decision(), Some("denied"));
    assert_golden("denied stranger", query_digests(denied), SELECT_DENIED);

    let (res, search) = explain(|| pds.search(&me, &["salary", "doctor"], 5));
    assert!(!res.unwrap().is_empty());
    assert_golden("search", query_digests(search), SEARCH);
}
