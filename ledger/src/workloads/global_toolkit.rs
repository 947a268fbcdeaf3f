//! `global_toolkit` — the [CKV+02] toolkit, all bignum.
//!
//! The commutative-encryption group is fixed in set-up; every block
//! reseeds one rng, so blocks repeat exactly. The seed draws the
//! parties' inputs; the protocols' own coins (nonces, blinding, the
//! Paillier prime search) come from the fixed stream [`COINS`], because
//! a prime search is a lottery and a run holds only `2 × OPS_PER_BLOCK`
//! tickets: drawn from the seed, they made `ops_per_s` differ by a
//! third between seeds on a quiet machine. An op is one bundle of
//! the four primitives at `PARTIES` parties: `secure_sum`,
//! `secure_set_union` and `secure_intersection_size` over `ITEMS` items
//! per party, and a `secure_scalar_product` of length `VECTOR` under
//! 512-bit Paillier (including the key generation it performs).
//! `pds-crypto::num` does nearly all the work; flash, bus and scheduler
//! idle, so a crypto change shows here and must not move the others.

use std::collections::BTreeSet;
use std::time::Instant;

use pds_crypto::CommutativeGroup;
use pds_global::toolkit::{
    secure_intersection_size, secure_scalar_product, secure_set_union, secure_sum,
};
use pds_obs::rng::Rng;

use crate::gen;
use crate::harness::{Block, Counts, Meter, Metrics, Workload};
use crate::probes::{self, span_median_us};
use crate::span::Tracer;

const PARTIES: usize = 8;
const ITEMS: usize = 6;
/// Items every party holds, so the intersection is never empty.
const SHARED_ITEMS: usize = 2;
const UNIVERSE: usize = 24;
const VECTOR: usize = 16;
const PAILLIER_BITS: usize = 512;
const SUM_MODULUS: u64 = 1 << 40;
pub const OPS_PER_BLOCK: usize = 4;
/// Seed of the protocols' own randomness, the same for every run.
const COINS: u64 = 0x434b_562b_3032;

/// The inputs of one op and what the oracle expects of it.
struct Bundle {
    values: Vec<u64>,
    sets: Vec<Vec<Vec<u8>>>,
    x: Vec<u64>,
    y: Vec<u64>,
    sum: u64,
    union: usize,
    intersection: usize,
    scalar: u64,
}

impl Bundle {
    fn generate(rng: &mut pds_obs::rng::StdRng) -> Bundle {
        let values: Vec<u64> = (0..PARTIES).map(|_| rng.gen_range(0..1 << 32)).collect();
        let item = |i: usize| format!("item-{i}").into_bytes();
        let mut universe: Vec<usize> = (0..UNIVERSE).collect();
        rng.shuffle(&mut universe);
        let (shared, rest) = universe.split_at(SHARED_ITEMS);
        let ids: Vec<BTreeSet<usize>> = (0..PARTIES)
            .map(|_| {
                let mut own: BTreeSet<usize> = shared.iter().copied().collect();
                while own.len() < ITEMS {
                    own.insert(rest[rng.gen_range(0..rest.len())]);
                }
                own
            })
            .collect();
        let union: BTreeSet<usize> = ids.iter().flatten().copied().collect();
        let intersection = union
            .iter()
            .filter(|i| ids.iter().all(|own| own.contains(i)))
            .count();
        let x: Vec<u64> = (0..VECTOR).map(|_| rng.gen_range(0..1 << 16)).collect();
        let y: Vec<u64> = (0..VECTOR).map(|_| rng.gen_range(0..1 << 16)).collect();
        Bundle {
            sum: values.iter().sum::<u64>() % SUM_MODULUS,
            union: union.len(),
            intersection,
            scalar: x.iter().zip(&y).map(|(a, b)| a * b).sum(),
            sets: ids
                .iter()
                .map(|own| own.iter().map(|i| item(*i)).collect())
                .collect(),
            values,
            x,
            y,
        }
    }
}

pub struct GlobalToolkit {
    seed: u64,
    group: CommutativeGroup,
    bundles: Vec<Bundle>,
}

impl Workload for GlobalToolkit {
    const BYPASSES: &'static [&'static str] = &["flash.", "blackbox.", "bus.", "sched.", "sync."];

    fn setup(seed: u64) -> Self {
        // Public protocol parameters, not an input: the repository's
        // fixed 256-bit group. (A seeded safe-prime search would make
        // set-up time a lottery across seeds.)
        let group = CommutativeGroup::test_params();
        let mut rng = gen::stream(seed, "global_toolkit.bundles");
        GlobalToolkit {
            seed,
            group,
            bundles: (0..OPS_PER_BLOCK)
                .map(|_| Bundle::generate(&mut rng))
                .collect(),
        }
    }

    fn block(&mut self, tr: &mut Tracer) -> Block {
        let mut rng = gen::stream(COINS, "global_toolkit.block");
        let mut op_ns = Vec::with_capacity(self.bundles.len());
        let mut crypto_ops = 0;
        let mut ok = true;
        let meter = Meter::start();
        for b in &self.bundles {
            tr.next_op();
            let t0 = Instant::now();
            let got = tr.scope_ok("ledger", "op", |tr| {
                let (sum, s1) = tr.call_ok("global", "secure_sum", || {
                    secure_sum(&b.values, SUM_MODULUS, &mut rng)
                });
                let (union, s2) = tr.call_ok("global", "set_union", || {
                    secure_set_union(&b.sets, &self.group, &mut rng)
                });
                let (intersection, s3) = tr.call_ok("global", "intersection", || {
                    secure_intersection_size(&b.sets, &self.group, &mut rng)
                });
                let (scalar, s4) = tr.call_ok("global", "scalar_product", || {
                    secure_scalar_product(&b.x, &b.y, PAILLIER_BITS, &mut rng)
                });
                crypto_ops += s1.crypto_ops + s2.crypto_ops + s3.crypto_ops + s4.crypto_ops;
                (sum, union.len(), intersection, scalar)
            });
            op_ns.push(t0.elapsed().as_nanos() as u64);
            // Four integer compares: cheaper than carrying the outputs
            // out of the loop.
            ok &= got == (b.sum, b.union, b.intersection, b.scalar);
        }
        let (wall_ns, cpu_ns) = meter.stop();
        let mut counts = Counts::new();
        counts.insert("crypto_ops", crypto_ops);
        Block {
            op_ns,
            wall_ns,
            cpu_ns,
            ok,
            counts,
        }
    }

    fn sim_cost(counts: &Counts) -> f64 {
        counts.get("crypto_ops").copied().unwrap_or(0) as f64
    }

    fn probes(&mut self, tr: &mut Tracer, out: &mut Metrics) {
        for (metric, name) in [
            ("global.secure_sum_us", "secure_sum"),
            ("global.set_union_us", "set_union"),
            ("global.intersection_us", "intersection"),
            ("global.scalar_product_us", "scalar_product"),
        ] {
            out.insert(metric, span_median_us(tr, "global", name));
        }
        probes::obs(tr, out);
        let mut rng = gen::stream(self.seed, "global_toolkit.crypto");
        probes::crypto_bignum(tr, &mut rng, &self.group, out);
    }
}
