//! The [CKV+02] toolkit: "Tools for privacy-preserving distributed data
//! mining".
//!
//! Part III presents the toolkit as the *specific-algorithm* route to
//! secure computation — cheap but not generic. Its four primitives, each
//! implemented here with the costs the E7 experiment reports:
//!
//! * **Secure sum** — ring protocol with a random mask: the initiator
//!   adds a random `R (mod m)`, each party adds its value, the initiator
//!   subtracts `R`. One message per party.
//! * **Secure set union** — commutative encryption
//!   ([`pds_crypto::commutative`]): every party's items are encrypted
//!   under *all* keys; equal items collide and deduplicate without ever
//!   being exposed; all layers are then peeled.
//! * **Secure set-intersection size** — same machinery, counting the
//!   fully-encrypted values present in every party's set (cardinality
//!   only, items never decrypted).
//! * **Secure scalar product** — Paillier-based: Alice sends
//!   `E(x_i)`, Bob returns `Π E(x_i)^{y_i} = E(Σ x_i·y_i)`.

use pds_crypto::{BigUint, CommutativeGroup, CommutativeKey, Paillier};
use pds_obs::rng::Rng;

/// Cost counters of one toolkit run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ToolkitStats {
    /// Point-to-point messages exchanged.
    pub messages: u64,
    /// Public-key / group-exponentiation operations.
    pub crypto_ops: u64,
}

/// Secure sum over a ring of parties: returns `Σ values mod modulus`
/// without any party seeing another's value.
///
/// The initiator masks with a uniform random `R`; every intermediate
/// party only ever sees a uniformly-distributed partial sum.
pub fn secure_sum(values: &[u64], modulus: u64, rng: &mut impl Rng) -> (u64, ToolkitStats) {
    assert!(!values.is_empty() && modulus > 0);
    let mut stats = ToolkitStats::default();
    // Two residues can sum past u64 once the modulus exceeds 2⁶³.
    let add = |a: u64, b: u64| ((a as u128 + b as u128) % modulus as u128) as u64;
    let r = rng.gen_range(0..modulus);
    // Initiator starts the ring with value + R.
    let mut running = add(r, values[0] % modulus);
    stats.messages += 1;
    for &v in &values[1..] {
        running = add(running, v % modulus);
        stats.messages += 1; // pass to the next party
    }
    // Back at the initiator: remove the mask.
    let total = add(running, modulus - r);
    (total, stats)
}

/// Party `owner` encrypts its own items once, then the batch circulates
/// through every other party for the remaining layers (one message per
/// hop, one group exponentiation per item per key).
fn encrypt_under_every_key(
    set: &[Vec<u8>],
    owner: usize,
    keys: &[CommutativeKey],
    stats: &mut ToolkitStats,
) -> Vec<BigUint> {
    let mut batch: Vec<BigUint> = set
        .iter()
        .map(|item| keys[owner].encrypt_value(item))
        .collect();
    for (j, key) in keys.iter().enumerate() {
        if j == owner {
            continue;
        }
        stats.messages += 1;
        for x in &mut batch {
            *x = key.encrypt(x);
        }
    }
    stats.crypto_ops += (set.len() * keys.len()) as u64;
    batch
}

/// Secure set union: each party holds a set of byte-string items; the
/// output is the deduplicated union, with no party learning who
/// contributed what.
pub fn secure_set_union(
    sets: &[Vec<Vec<u8>>],
    group: &CommutativeGroup,
    rng: &mut impl Rng,
) -> (Vec<BigUint>, ToolkitStats) {
    let mut stats = ToolkitStats::default();
    let keys: Vec<CommutativeKey> = sets
        .iter()
        .map(|_| CommutativeKey::random(group, rng))
        .collect();
    let mut all: Vec<BigUint> = Vec::new();
    for (i, set) in sets.iter().enumerate() {
        all.extend(encrypt_under_every_key(set, i, &keys, &mut stats));
        stats.messages += 1; // hand the fully-encrypted batch to the combiner
    }
    // Fully-encrypted equal items are identical: dedupe blindly.
    all.sort();
    all.dedup();
    (all, stats)
}

/// Secure set-intersection **size**: how many items appear in *every*
/// party's set — without revealing the items.
pub fn secure_intersection_size(
    sets: &[Vec<Vec<u8>>],
    group: &CommutativeGroup,
    rng: &mut impl Rng,
) -> (usize, ToolkitStats) {
    let mut stats = ToolkitStats::default();
    let keys: Vec<CommutativeKey> = sets
        .iter()
        .map(|_| CommutativeKey::random(group, rng))
        .collect();
    let mut encrypted_sets: Vec<Vec<BigUint>> = Vec::with_capacity(sets.len());
    for (i, set) in sets.iter().enumerate() {
        let mut batch = encrypt_under_every_key(set, i, &keys, &mut stats);
        batch.sort();
        batch.dedup();
        encrypted_sets.push(batch);
    }
    // Count values present everywhere.
    let (first, rest) = encrypted_sets.split_first().expect("non-empty");
    let size = first
        .iter()
        .filter(|x| rest.iter().all(|s| s.binary_search(x).is_ok()))
        .count();
    (size, stats)
}

/// Secure scalar product `Σ xᵢ·yᵢ` between two parties via Paillier:
/// Alice learns the product, Bob learns nothing about `x`, Alice learns
/// nothing about `y` beyond the product.
pub fn secure_scalar_product(
    x: &[u64],
    y: &[u64],
    modulus_bits: usize,
    rng: &mut impl Rng,
) -> (u64, ToolkitStats) {
    assert_eq!(x.len(), y.len());
    let mut stats = ToolkitStats::default();
    let (pk, sk) = Paillier::keygen(modulus_bits, rng);
    // Alice → Bob: E(x_i).
    let cts: Vec<_> = x
        .iter()
        .map(|&v| {
            stats.crypto_ops += 1;
            pk.encrypt_u64(v, rng)
        })
        .collect();
    stats.messages += 1;
    // Bob: Π E(x_i)^{y_i} = E(Σ x_i y_i).
    let mut acc = pk.neutral();
    for (ct, &w) in cts.iter().zip(y) {
        stats.crypto_ops += 1;
        let term = pk.scalar_mul(ct, &BigUint::from_u64(w));
        acc = pk.add(&acc, &term);
    }
    stats.messages += 1; // Bob → Alice: the blinded product.
    (sk.decrypt_u64(&acc), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::rng::SeedableRng;
    use pds_obs::rng::StdRng;

    #[test]
    fn secure_sum_is_exact_mod_m() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let n = rng.gen_range(2..20);
            let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
            let m = 1_000_003;
            let (sum, stats) = secure_sum(&values, m, &mut rng);
            assert_eq!(sum, values.iter().sum::<u64>() % m);
            assert_eq!(stats.messages, values.len() as u64);
        }
    }

    #[test]
    fn secure_sum_is_exact_for_moduli_above_2_pow_63() {
        let m = u64::MAX;
        let values = [u64::MAX - 1, u64::MAX - 2, 5];
        let expected = values.iter().map(|&v| v as u128).sum::<u128>() % m as u128;
        let (sum, _) = secure_sum(&values, m, &mut StdRng::seed_from_u64(7));
        assert_eq!(sum as u128, expected);
    }

    /// Decrypt a union result back to group elements (run jointly by all
    /// key holders), to confirm the cardinality maps back to the true
    /// union.
    fn peel_union(encrypted: &[BigUint], keys: &[&CommutativeKey]) -> Vec<BigUint> {
        let mut out: Vec<BigUint> = encrypted.to_vec();
        for key in keys {
            for x in &mut out {
                *x = key.decrypt(x);
            }
        }
        out.sort();
        out
    }

    #[test]
    fn union_cardinality_and_content() {
        let mut rng = StdRng::seed_from_u64(2);
        let group = CommutativeGroup::test_params();
        let sets = vec![
            vec![b"flu".to_vec(), b"cold".to_vec()],
            vec![b"cold".to_vec(), b"asthma".to_vec()],
            vec![b"flu".to_vec()],
        ];
        let (union, _) = secure_set_union(&sets, &group, &mut rng);
        assert_eq!(union.len(), 3, "flu, cold, asthma");
        // Joint decryption maps back to the hashed plaintext union.
        let keys: Vec<CommutativeKey> = sets
            .iter()
            .map(|_| CommutativeKey::random(&group, &mut rng))
            .collect();
        let _ = keys; // (peel tested through intersection flow below)
        let mut expected: Vec<BigUint> = ["flu", "cold", "asthma"]
            .iter()
            .map(|s| group.hash_to_group(s.as_bytes()))
            .collect();
        expected.sort();
        // Re-run union with known keys to peel.
        let keys: Vec<CommutativeKey> = (0..3)
            .map(|_| CommutativeKey::random(&group, &mut rng))
            .collect();
        let mut all = Vec::new();
        for (i, set) in sets.iter().enumerate() {
            for item in set {
                let mut x = keys[i].encrypt_value(item);
                for (j, k) in keys.iter().enumerate() {
                    if j != i {
                        x = k.encrypt(&x);
                    }
                }
                all.push(x);
            }
        }
        all.sort();
        all.dedup();
        let peeled = peel_union(&all, &keys.iter().collect::<Vec<_>>());
        assert_eq!(peeled, expected);
    }

    #[test]
    fn intersection_size_counts_common_items_only() {
        let mut rng = StdRng::seed_from_u64(3);
        let group = CommutativeGroup::test_params();
        let sets = vec![
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()],
            vec![b"b".to_vec(), b"c".to_vec(), b"d".to_vec()],
            vec![b"c".to_vec(), b"b".to_vec(), b"x".to_vec()],
        ];
        let (size, stats) = secure_intersection_size(&sets, &group, &mut rng);
        assert_eq!(size, 2, "b and c");
        assert!(stats.crypto_ops >= 9 * 3, "every item gets every layer");
    }

    #[test]
    fn disjoint_sets_intersect_empty() {
        let mut rng = StdRng::seed_from_u64(4);
        let group = CommutativeGroup::test_params();
        let sets = vec![vec![b"a".to_vec()], vec![b"b".to_vec()]];
        let (size, _) = secure_intersection_size(&sets, &group, &mut rng);
        assert_eq!(size, 0);
    }

    #[test]
    fn scalar_product_matches_plaintext() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = [3u64, 0, 7, 2];
        let y = [10u64, 99, 1, 5];
        let (p, stats) = secure_scalar_product(&x, &y, 256, &mut rng);
        assert_eq!(p, 30 + 7 + 10);
        assert_eq!(stats.messages, 2);
    }
}
