//! Integration: every public wire and flash format held to the one
//! decoder contract of `pds_obs::wire` — seeded values round-trip, every
//! strict prefix is refused (or the format is named as ending in the
//! rest of its buffer), ten thousand flips, splices and garbage buffers
//! never panic, and a count field of all ones is refused before it sizes
//! anything. One `sweep` row per format; the formats private to a crate
//! have theirs beside the decoder. `PDS_CRASH_SEEDS` widens every row.

use pds::core::{AccessContext, Pds, Purpose};
use pds::crypto::BloomFilter;
use pds::db::value::{decode_row, encode_row};
use pds::db::{Hlc, Row, Value};
use pds::flash::ChangeRec;
use pds::fleet::telemetry::{ForensicsDigest, TelemetryMsg};
use pds::global::tuple::{ProtocolTuple, TupleKind};
use pds::obs::flight::FRAME_BYTES;
use pds::obs::rng::{Rng, RngCore, StdRng};
use pds::obs::wire::{sweep, Tail};
use pds::obs::{EventFrame, GaugePolicy, MetricsDelta, Severity};
use pds::search::triple::{decode_page, triples_per_page, PageFill, Triple};
use pds::sync::CellMsg;

/// A short name or text: ASCII with the odd multi-byte character, so
/// UTF-8 validation has something to refuse when bits flip.
fn text(rng: &mut StdRng, max: usize) -> String {
    const ALPHABET: [char; 8] = ['a', 'z', '.', '_', '7', ' ', 'é', '√'];
    (0..rng.gen_range(0..=max))
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

fn blob(rng: &mut StdRng, max: usize) -> Vec<u8> {
    let mut out = vec![0; rng.gen_range(0..=max)];
    rng.fill_bytes(&mut out);
    out
}

fn metrics_delta(rng: &mut StdRng) -> MetricsDelta {
    let mut d = MetricsDelta::new();
    for _ in 0..rng.gen_range(0..4u32) {
        d.add(&text(rng, 12), u64::from(rng.gen::<u32>()));
    }
    for _ in 0..rng.gen_range(0..3u32) {
        let policy = [GaugePolicy::Max, GaugePolicy::Sum][rng.gen_range(0..2usize)];
        d.record_gauge(&text(rng, 12), rng.gen(), policy);
    }
    for _ in 0..rng.gen_range(0..3u32) {
        let name = text(rng, 12);
        for _ in 0..rng.gen_range(1..6u32) {
            d.observe(&name, rng.gen::<u64>() >> rng.gen_range(0..64u32));
        }
    }
    d.policy_conflicts = rng.gen_range(0..3u64);
    d
}

#[test]
fn metrics_deltas_keep_the_decoder_contract() {
    // `PDM1 ‖ conflicts ‖ counter count`: a count of all ones, then one of
    // zero followed by a gauge count of all ones.
    let mut counters = b"PDM1".to_vec();
    counters.extend_from_slice(&[0; 8]);
    counters.extend_from_slice(&[0xFF; 4]);
    let mut gauges = counters[..12].to_vec();
    gauges.extend_from_slice(&[0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0]);
    sweep(
        "MetricsDelta",
        Tail::Exact,
        &[&counters, &gauges],
        metrics_delta,
        MetricsDelta::encode,
        MetricsDelta::decode,
    );
}

#[test]
fn telemetry_envelopes_keep_the_decoder_contract() {
    sweep(
        "TelemetryMsg",
        Tail::Exact,
        &[b"PDT1\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0PDM1\0\0\0\0\0\0\0\0\xFF\xFF\xFF\xFF"],
        |rng| TelemetryMsg {
            source: rng.gen(),
            tick: rng.gen(),
            delta: metrics_delta(rng),
        },
        TelemetryMsg::encode,
        TelemetryMsg::decode,
    );
    sweep(
        "ForensicsDigest",
        Tail::Exact,
        &[],
        |rng| ForensicsDigest {
            token: rng.gen(),
            tick: rng.gen(),
            crash_tick: rng.gen(),
            cause: rng.gen(),
            last_subsystem: rng.gen(),
            last_code: rng.gen(),
            frames_recovered: rng.gen(),
            torn_pages: rng.gen(),
        },
        ForensicsDigest::encode,
        ForensicsDigest::decode,
    );
}

#[test]
fn fixed_width_flash_records_keep_the_decoder_contract() {
    sweep(
        "EventFrame",
        Tail::Exact,
        &[&[0xFF; FRAME_BYTES]],
        |rng| EventFrame {
            tick: rng.gen(),
            severity: Severity::from_u8(rng.gen_range(0..4u8)).unwrap(),
            subsystem: rng.gen(),
            code: rng.gen(),
            args: [rng.gen(), rng.gen()],
        },
        |f| f.encode().to_vec(),
        EventFrame::decode,
    );
    sweep(
        "ChangeRec",
        Tail::Exact,
        &[],
        |rng| ChangeRec {
            hlc: rng.gen(),
            node: rng.gen(),
            kind: rng.gen(),
            store: rng.gen(),
            entity: rng.gen(),
        },
        |r| r.encode().to_vec(),
        ChangeRec::decode,
    );
    sweep(
        "Hlc",
        Tail::Exact,
        &[],
        |rng| Hlc::new(rng.gen(), rng.gen()),
        |h| h.encode().to_vec(),
        Hlc::decode,
    );
}

fn row(rng: &mut StdRng) -> Row {
    (0..rng.gen_range(0..7u32))
        .map(|_| {
            if rng.gen_bool(0.5) {
                Value::U64(rng.gen())
            } else {
                Value::Str(text(rng, 20))
            }
        })
        .collect()
}

#[test]
fn rows_keep_the_decoder_contract() {
    // Two bytes of arity claiming 65 535 values used to reserve 2 MB.
    sweep(
        "Row",
        Tail::Exact,
        &[&[0xFF, 0xFF], &[0xFF, 0xFF, 0, 0, 0]],
        row,
        encode_row,
        decode_row,
    );
}

#[test]
fn index_bucket_pages_keep_the_decoder_contract() {
    const PAGE: usize = 512;
    let encode_page = |prev: u32, triples: &[Triple]| {
        let mut page = vec![0; PAGE];
        let mut fill = PageFill::start(&mut page, prev);
        for &t in triples {
            assert!(fill.push(&mut page, t));
        }
        page
    };
    let mut lying = encode_page(7, &[]);
    lying[4..6].fill(0xFF);
    sweep(
        "bucket page",
        Tail::Padded,
        &[&lying, &lying[..6]],
        |rng| {
            // From one term a page to a new term every posting.
            let words: Vec<u64> = (0..rng.gen_range(1..=triples_per_page(PAGE)))
                .map(|_| rng.gen())
                .collect();
            let triples = (0..rng.gen_range(0..=triples_per_page(PAGE)))
                .map(|_| Triple {
                    term: words[rng.gen_range(0..words.len())],
                    doc: rng.gen(),
                    tf: rng.gen(),
                })
                .collect::<Vec<_>>();
            (rng.gen::<u32>(), triples)
        },
        |(prev, triples)| encode_page(*prev, triples),
        decode_page,
    );
}

#[test]
fn bloom_summaries_keep_the_decoder_contract() {
    // 2³² − 1 bits claimed over no bits at all.
    let lying = [0xFF, 0xFF, 0xFF, 0xFF, 11, 0, 0, 0, 0, 0, 0, 0];
    sweep(
        "BloomFilter",
        Tail::Exact,
        &[&lying],
        |rng| {
            let mut bf = BloomFilter::new(rng.gen_range(1..400usize), rng.gen_range(1..12u32));
            for _ in 0..rng.gen_range(0..20u32) {
                bf.insert(&blob(rng, 8));
            }
            bf
        },
        BloomFilter::to_bytes,
        BloomFilter::from_bytes,
    );
}

#[test]
fn protocol_tuples_keep_the_decoder_contract() {
    sweep(
        "ProtocolTuple",
        Tail::RestOfBuffer,
        &[],
        |rng| ProtocolTuple {
            group: text(rng, 16),
            value: rng.gen(),
            kind: [TupleKind::Real, TupleKind::Fake][rng.gen_range(0..2usize)],
            seq: rng.gen(),
        },
        ProtocolTuple::encode,
        ProtocolTuple::decode,
    );
}

#[test]
fn cell_messages_keep_the_decoder_contract() {
    let slice = |rng: &mut StdRng| text(rng, 10);
    sweep(
        "CellMsg",
        Tail::Exact,
        // A push whose slice name, then whose blob, claims 4 GB; a digest
        // reply that claims 2³² − 1 slices.
        &[
            &[3, 0xFF, 0xFF, 0xFF, 0xFF],
            &[3, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF],
            &[7, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF],
        ],
        |rng| match rng.gen_range(0..7u32) {
            0 => CellMsg::PullResp {
                slice: slice(rng),
                blob: None,
            },
            1 => CellMsg::PullResp {
                slice: slice(rng),
                blob: Some(blob(rng, 300)),
            },
            2 => CellMsg::Push {
                slice: slice(rng),
                blob: blob(rng, 300),
            },
            3 => CellMsg::PullSince {
                slice: slice(rng),
                since: rng.gen(),
            },
            4 => CellMsg::NotModified {
                slice: slice(rng),
                version: rng.gen(),
            },
            5 => CellMsg::PullChanged { since: rng.gen() },
            _ => CellMsg::Changed {
                generation: rng.gen(),
                blobs: (0..rng.gen_range(0..4u32))
                    .map(|_| (slice(rng), blob(rng, 120)))
                    .collect(),
            },
        },
        CellMsg::to_bytes,
        CellMsg::from_bytes,
    );
}

/// The plaintext archive `Pds::snapshot` writes and `Pds::restore` reads:
/// a restored token must snapshot to the bytes it was restored from.
#[test]
fn archives_keep_the_decoder_contract() {
    let owner = AccessContext::new("alice", Purpose::PersonalUse);
    let snapshot = |pds: &mut Pds| pds.snapshot(&owner).expect("the owner may export");
    sweep(
        "archive",
        Tail::Exact,
        // 2³² − 1 documents, then no documents and 2³² − 1 e-mail rows.
        &[&[0xFF; 4], &[0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF]],
        |rng| {
            let mut pds = Pds::for_tests(1, "alice").expect("token");
            for day in 0..rng.gen_range(0..3u64) {
                pds.ingest_email(day, &text(rng, 6), &text(rng, 6), &text(rng, 12))
                    .expect("ingest");
            }
            for day in 0..rng.gen_range(0..3u64) {
                pds.ingest_bank(day, &text(rng, 6), rng.gen(), &text(rng, 6))
                    .expect("ingest");
            }
            snapshot(&mut pds)
        },
        Vec::clone,
        |bytes| {
            Pds::restore(1, "alice", bytes)
                .ok()
                .map(|mut pds| snapshot(&mut pds))
        },
    );
}
