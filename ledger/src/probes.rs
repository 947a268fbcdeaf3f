//! Layer probes shared by several workloads: each times a layer's
//! public functions directly, from outside, under a span of its own.

use std::hint::black_box;
use std::time::Instant;

use pds_crypto::{
    hmac_sha256, sha256, BigUint, CommutativeGroup, CommutativeKey, Paillier, SymmetricKey,
};
use pds_fleet::{Addr, BusConfig, MailboxBus};
use pds_mcu::RamBudget;
use pds_obs::rng::{Rng, StdRng};

use crate::harness::Metrics;
use crate::span::{Span, Tracer};
use crate::stats::{median, median_u64};

/// Call `f` once under a span; its duration in µs.
pub fn time_once<T>(
    tr: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> f64 {
    let t0 = Instant::now();
    black_box(tr.call_ok(layer, name, f));
    t0.elapsed().as_nanos() as f64 / 1e3
}

/// Call `f(i)` for `i in 0..n`, each under a span; median in µs.
pub fn time_each<T>(
    tr: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    n: usize,
    mut f: impl FnMut(usize) -> T,
) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|i| time_once(tr, layer, name, || f(i)))
        .collect();
    median(&samples)
}

/// Time `reps` back-to-back calls of a function too short to time
/// alone, `batches` times; median nanoseconds per call.
pub fn time_batched<T>(
    tr: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    batches: usize,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    time_each(tr, layer, name, batches, |_| {
        for _ in 0..reps {
            black_box(f());
        }
    }) * 1e3
        / reps as f64
}

/// Median duration in µs of the recorded spans named `layer.name`
/// (0 when none was recorded).
pub fn span_median_us(tr: &Tracer, layer: &str, name: &str) -> f64 {
    let durations: Vec<u64> = tr
        .spans()
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(Span::duration_ns)
        .collect();
    median_u64(&durations) / 1e3
}

/// `obs.*`: the cost of the observability the program always carries.
pub fn obs(tr: &mut Tracer, out: &mut Metrics) {
    let reg = pds_obs::metrics::global();
    out.insert(
        "obs.snapshot_delta_us",
        time_each(tr, "obs", "snapshot_delta", 20, |_| reg.snapshot_delta()),
    );
    out.insert(
        "obs.span_ns",
        time_batched(tr, "obs", "span", 20, 1_000, || {
            pds_obs::span!("ledger.probe")
        }),
    );
    out.insert("obs.events_dropped", reg.events_dropped() as f64);
}

/// `mcu.reserve_ns`: one reserve/release pair on a token-sized budget.
pub fn mcu_reserve(tr: &mut Tracer, out: &mut Metrics) {
    let ram = RamBudget::new(64 * 1024);
    out.insert(
        "mcu.reserve_ns",
        time_batched(tr, "mcu", "reserve", 20, 1_000, || {
            ram.reserve(2_048).is_ok()
        }),
    );
}

/// Symmetric crypto on protocol-tuple-sized payloads.
pub fn crypto_sym(tr: &mut Tracer, rng: &mut StdRng, out: &mut Metrics) {
    let key = SymmetricKey::random(rng);
    let mut payload = [0u8; 64];
    rng.fill(&mut payload);
    let cts: Vec<_> = (0..200).map(|_| key.encrypt_prob(&payload, rng)).collect();
    out.insert(
        "crypto.sym_encrypt_us",
        time_each(tr, "crypto", "sym_encrypt", 200, |_| {
            key.encrypt_prob(&payload, rng)
        }),
    );
    out.insert(
        "crypto.sym_decrypt_us",
        time_each(tr, "crypto", "sym_decrypt", 200, |i| key.decrypt(&cts[i])),
    );
    let kb = vec![0xA5u8; 1024];
    out.insert(
        "crypto.sha256_us_per_kb",
        time_each(tr, "crypto", "sha256", 200, |_| sha256(&kb)),
    );
    out.insert(
        "crypto.hmac_us",
        time_each(tr, "crypto", "hmac", 200, |_| {
            hmac_sha256(key.mac_key_bytes(), &payload)
        }),
    );
}

/// The bignum primitives under the [CKV+02] toolkit.
pub fn crypto_bignum(
    tr: &mut Tracer,
    rng: &mut StdRng,
    group: &CommutativeGroup,
    out: &mut Metrics,
) {
    let m = BigUint::rand_bits(1024, rng);
    let base = BigUint::rand_below(&m, rng);
    let exp = BigUint::rand_bits(1024, rng);
    out.insert(
        "crypto.modexp_1024_us",
        time_each(tr, "crypto", "modexp_1024", 5, |_| base.mod_exp(&exp, &m)),
    );
    let mut keys = Vec::new();
    out.insert(
        "crypto.paillier_keygen_ms",
        time_each(tr, "crypto", "paillier_keygen", 9, |_| {
            keys.push(Paillier::keygen(512, rng))
        }) / 1e3,
    );
    let (pk, sk) = keys.pop().expect("nine key pairs");
    let cts: Vec<_> = (0..20).map(|i| pk.encrypt_u64(i, rng)).collect();
    out.insert(
        "crypto.paillier_encrypt_us",
        time_each(tr, "crypto", "paillier_encrypt", 20, |i| {
            pk.encrypt_u64(i as u64, rng)
        }),
    );
    out.insert(
        "crypto.paillier_decrypt_us",
        time_each(tr, "crypto", "paillier_decrypt", 20, |i| {
            sk.decrypt_u64(&cts[i])
        }),
    );
    out.insert(
        "crypto.paillier_add_us",
        time_each(tr, "crypto", "paillier_add", 19, |i| {
            pk.add(&cts[i], &cts[i + 1])
        }),
    );
    let ck = CommutativeKey::random(group, rng);
    out.insert(
        "crypto.commutative_encrypt_us",
        time_each(tr, "crypto", "commutative_encrypt", 50, |i| {
            ck.encrypt_value(&[i as u8; 8])
        }),
    );
}

/// `bus.send_tick_us`: per message, the cost of sending a batch from
/// the SSI to `tokens` endpoints over the default lossy fabric and
/// ticking until it is delivered.
pub fn bus_send_tick(tr: &mut Tracer, seed: u64, tokens: usize, out: &mut Metrics) {
    let cfg = BusConfig {
        seed,
        ..BusConfig::default()
    };
    let payload = vec![0u8; 96];
    let us = time_each(tr, "bus", "send_tick", 9, |_| {
        let mut bus = MailboxBus::new(cfg);
        for t in 0..tokens {
            bus.send(Addr::Ssi, Addr::Token(t), payload.clone());
        }
        bus.run_until_quiet(100_000);
        bus.take_token_mail().len()
    });
    out.insert("bus.send_tick_us", us / tokens as f64);
}
