//! The Paillier additively homomorphic cryptosystem.
//!
//! Part III's "Homomorphic Encryption Example" slide demonstrates the
//! multiplicative homomorphism of RSA and then motivates *additive*
//! homomorphism for aggregate queries. Paillier is the canonical
//! additively homomorphic scheme and serves here as the honest baseline
//! for experiment E8: computing `SUM` over N encrypted values without any
//! trusted hardware — correct, but orders of magnitude more expensive than
//! the token-based secure aggregation, which is exactly the tutorial's
//! argument ("the cost to have good security is (incredibly) high").
//!
//! Scheme (with the standard `g = n + 1` simplification):
//! * keygen: primes `p, q`; `n = pq`; `λ = lcm(p-1, q-1)`;
//!   `μ = λ⁻¹ mod n`.
//! * encrypt: `c = (1 + m·n) · rⁿ mod n²` for random `r ∈ Z*_n`.
//! * decrypt: `m = L(c^λ mod n²) · μ mod n` with `L(x) = (x-1)/n`.
//! * homomorphism: `E(m₁)·E(m₂) mod n² = E(m₁+m₂)`,
//!   `E(m)^k mod n² = E(k·m)`.

use crate::num::BigUint;
use pds_obs::rng::RngCore;

/// Public key: the modulus `n` (and cached `n²`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaillierPublicKey {
    n: BigUint,
    n_squared: BigUint,
}

/// Private key: `λ` and `μ`.
#[derive(Debug, Clone)]
pub struct PaillierPrivateKey {
    lambda: BigUint,
    mu: BigUint,
    public: PaillierPublicKey,
}

/// A Paillier ciphertext (element of `Z*_{n²}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaillierCiphertext(BigUint);

impl PaillierCiphertext {
    /// Serialized size in bytes (for communication-cost accounting).
    pub fn byte_len(&self) -> usize {
        self.0.bits().div_ceil(8)
    }
}

/// Key pair generator / convenience namespace.
pub struct Paillier;

impl Paillier {
    /// Generate a key pair with an `n` of roughly `modulus_bits` bits.
    ///
    /// 1024-bit `n` reproduces the paper-era security level; the tests use
    /// smaller keys for speed, which changes nothing structurally.
    pub fn keygen(
        modulus_bits: usize,
        rng: &mut impl RngCore,
    ) -> (PaillierPublicKey, PaillierPrivateKey) {
        let half = modulus_bits / 2;
        let one = BigUint::one();
        loop {
            let p = BigUint::gen_prime(half, rng);
            let q = BigUint::gen_prime(half, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let p1 = p.sub(&one);
            let q1 = q.sub(&one);
            // gcd(n, (p-1)(q-1)) must be 1 — guaranteed for same-size
            // primes, but check anyway.
            if n.gcd(&p1.mul(&q1)) != one {
                continue;
            }
            let lambda = p1.lcm(&q1);
            let n_squared = n.mul(&n);
            // μ = (L(g^λ mod n²))⁻¹ mod n; with g = n+1 this is λ⁻¹? No:
            // L((n+1)^λ mod n²) = λ mod n, so μ = λ⁻¹ mod n.
            let Some(mu) = lambda.rem(&n).mod_inverse(&n) else {
                continue;
            };
            let public = PaillierPublicKey { n, n_squared };
            let private = PaillierPrivateKey {
                lambda,
                mu,
                public: public.clone(),
            };
            return (public, private);
        }
    }
}

impl PaillierPublicKey {
    /// The modulus `n` (messages live in `Z_n`).
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Encrypt `m` (taken mod `n`).
    pub fn encrypt(&self, m: &BigUint, rng: &mut impl RngCore) -> PaillierCiphertext {
        let m = m.rem(&self.n);
        // r uniform in [1, n) with gcd(r, n) = 1 (overwhelming for an RSA
        // modulus; retry regardless).
        let r = loop {
            let r = BigUint::rand_below(&self.n, rng);
            if !r.is_zero() && r.gcd(&self.n) == BigUint::one() {
                break r;
            }
        };
        // c = (1 + m·n) · r^n mod n²
        let gm = BigUint::one().add(&m.mul(&self.n)).rem(&self.n_squared);
        let rn = r.mod_exp(&self.n, &self.n_squared);
        PaillierCiphertext(gm.mod_mul(&rn, &self.n_squared))
    }

    /// Encrypt a `u64` convenience wrapper.
    pub fn encrypt_u64(&self, m: u64, rng: &mut impl RngCore) -> PaillierCiphertext {
        self.encrypt(&BigUint::from_u64(m), rng)
    }

    /// Homomorphic addition: `E(m₁) ⊕ E(m₂) = E(m₁ + m₂ mod n)`.
    pub fn add(&self, a: &PaillierCiphertext, b: &PaillierCiphertext) -> PaillierCiphertext {
        PaillierCiphertext(a.0.mod_mul(&b.0, &self.n_squared))
    }

    /// Homomorphic scalar multiplication: `E(m)^k = E(k·m mod n)`.
    pub fn scalar_mul(&self, a: &PaillierCiphertext, k: &BigUint) -> PaillierCiphertext {
        PaillierCiphertext(a.0.mod_exp(k, &self.n_squared))
    }

    /// The encryption of zero with fixed randomness 1 — the neutral
    /// element for folds. (Not semantically hiding; used only as an
    /// accumulator seed, immediately absorbed by real ciphertexts.)
    pub fn neutral(&self) -> PaillierCiphertext {
        PaillierCiphertext(BigUint::one())
    }
}

impl PaillierPrivateKey {
    /// The matching public key.
    pub fn public(&self) -> &PaillierPublicKey {
        &self.public
    }

    /// Decrypt.
    pub fn decrypt(&self, c: &PaillierCiphertext) -> BigUint {
        let n = &self.public.n;
        let n2 = &self.public.n_squared;
        let x = c.0.mod_exp(&self.lambda, n2);
        // L(x) = (x - 1) / n
        let l = x.sub(&BigUint::one()).divrem(n).0;
        l.mod_mul(&self.mu, n)
    }

    /// Decrypt to `u64` (panics if the plaintext overflows — test aid).
    pub fn decrypt_u64(&self, c: &PaillierCiphertext) -> u64 {
        self.decrypt(c).to_u64().expect("plaintext exceeds u64")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::rng::SeedableRng;
    use pds_obs::rng::StdRng;

    fn keys() -> (PaillierPublicKey, PaillierPrivateKey) {
        let mut rng = StdRng::seed_from_u64(42);
        Paillier::keygen(256, &mut rng)
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let (pk, sk) = keys();
        let mut rng = StdRng::seed_from_u64(1);
        for m in [0u64, 1, 42, 1_000_000, u32::MAX as u64] {
            let c = pk.encrypt_u64(m, &mut rng);
            assert_eq!(sk.decrypt_u64(&c), m);
        }
    }

    #[test]
    fn keygen_and_encrypt_draw_the_pinned_stream() {
        // Captured before the Montgomery kernel: any RNG draw added,
        // removed or reordered in keygen/encrypt changes these.
        let (pk, _) = keys();
        assert_eq!(
            pk.modulus().to_hex(),
            "7d8ebe39dfe67731ac126848fba40662f60827c3ef77344449ce0dab04ee282d"
        );
        let c = pk.encrypt_u64(7, &mut StdRng::seed_from_u64(1));
        assert_eq!(
            c.0.to_hex(),
            "2759454810daa428228c9afc67b062b56ddb9c74012b842c1ad09b82ce62496c\
             4d70e682a55f384b6c6a8d2c2a0c3524db7ca240f6cb0b07742ef355fc19a315"
        );
    }

    #[test]
    fn encryption_is_probabilistic() {
        let (pk, _) = keys();
        let mut rng = StdRng::seed_from_u64(2);
        let c1 = pk.encrypt_u64(7, &mut rng);
        let c2 = pk.encrypt_u64(7, &mut rng);
        assert_ne!(c1, c2);
    }

    #[test]
    fn additive_homomorphism() {
        let (pk, sk) = keys();
        let mut rng = StdRng::seed_from_u64(3);
        let a = pk.encrypt_u64(1234, &mut rng);
        let b = pk.encrypt_u64(8766, &mut rng);
        assert_eq!(sk.decrypt_u64(&pk.add(&a, &b)), 10_000);
    }

    #[test]
    fn scalar_homomorphism() {
        let (pk, sk) = keys();
        let mut rng = StdRng::seed_from_u64(4);
        let a = pk.encrypt_u64(111, &mut rng);
        let c = pk.scalar_mul(&a, &BigUint::from_u64(9));
        assert_eq!(sk.decrypt_u64(&c), 999);
    }

    #[test]
    fn fold_many_values() {
        let (pk, sk) = keys();
        let mut rng = StdRng::seed_from_u64(5);
        let values: Vec<u64> = (1..=50).collect();
        let sum_ct = values
            .iter()
            .map(|&v| pk.encrypt_u64(v, &mut rng))
            .fold(pk.neutral(), |acc, c| pk.add(&acc, &c));
        assert_eq!(sk.decrypt_u64(&sum_ct), values.iter().sum::<u64>());
    }

    #[test]
    fn addition_wraps_mod_n() {
        let (pk, sk) = keys();
        let mut rng = StdRng::seed_from_u64(6);
        let n = pk.modulus().clone();
        let m = n.sub(&BigUint::one()); // n-1
        let a = pk.encrypt(&m, &mut rng);
        let b = pk.encrypt_u64(2, &mut rng);
        // (n-1) + 2 ≡ 1 (mod n)
        assert_eq!(sk.decrypt(&pk.add(&a, &b)), BigUint::one());
    }
}
