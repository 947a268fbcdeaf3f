//! A commutative cipher (SRA / Pohlig–Hellman exponentiation).
//!
//! Engine of the [CKV+02] toolkit primitives of Part III: *secure set
//! union* and *secure size of set intersection* both rely on every party
//! encrypting the circulating values under its own key such that the
//! composition order does not matter:
//!
//! `E_a(E_b(x)) = E_b(E_a(x))`
//!
//! Construction: all parties agree on a public safe prime `p = 2q + 1`.
//! Values are hashed into the order-`q` subgroup of `Z*_p`; party `i`
//! encrypts by raising to its secret exponent `e_i` (odd, `< q`, coprime
//! with `q`) and decrypts with `d_i = e_i⁻¹ mod q`. Commutativity is just
//! commutativity of exponent multiplication.

use crate::hash::sha256;
use crate::num::BigUint;
use pds_obs::rng::RngCore;

/// Shared group parameters: a safe prime `p` and its subgroup order `q`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommutativeGroup {
    p: BigUint,
    q: BigUint,
}

impl CommutativeGroup {
    /// Generate fresh parameters: a safe prime of `bits` bits.
    pub fn generate(bits: usize, rng: &mut impl RngCore) -> Self {
        loop {
            let q = BigUint::gen_prime(bits - 1, rng);
            let p = q.shl(1).add(&BigUint::one());
            if p.is_probable_prime(20, rng) {
                return CommutativeGroup { p, q };
            }
        }
    }

    /// Fixed 256-bit parameters for tests and deterministic experiments
    /// (generated once with seed 0xC0FFEE; verified prime in tests).
    pub fn test_params() -> Self {
        use pds_obs::rng::SeedableRng;
        use pds_obs::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        Self::generate(256, &mut rng)
    }

    /// Hash an arbitrary value into the order-`q` subgroup
    /// (quadratic residues of `Z*_p`): `H(v)² mod p`.
    pub fn hash_to_group(&self, value: &[u8]) -> BigUint {
        let h = BigUint::from_bytes_be(&sha256(value));
        let x = h.rem(&self.p);
        // Square to land in QR(p); map 0 (probability ~2^-256) to 4.
        let sq = x.mod_mul(&x, &self.p);
        if sq.is_zero() {
            BigUint::from_u64(4)
        } else {
            sq
        }
    }
}

/// One party's commutative encryption key.
#[derive(Debug, Clone)]
pub struct CommutativeKey {
    group: CommutativeGroup,
    e: BigUint,
    d: BigUint,
}

impl CommutativeKey {
    /// Draw a fresh key pair in the shared group.
    pub fn random(group: &CommutativeGroup, rng: &mut impl RngCore) -> Self {
        loop {
            let e = BigUint::rand_below(&group.q, rng);
            if e.is_zero() {
                continue;
            }
            if let Some(d) = e.mod_inverse(&group.q) {
                return CommutativeKey {
                    group: group.clone(),
                    e,
                    d,
                };
            }
        }
    }

    /// The shared group parameters.
    pub fn group(&self) -> &CommutativeGroup {
        &self.group
    }

    /// Encrypt a group element (a previous layer's output or
    /// [`CommutativeGroup::hash_to_group`] of a raw value).
    pub fn encrypt(&self, x: &BigUint) -> BigUint {
        x.mod_exp(&self.e, &self.group.p)
    }

    /// Remove this party's layer.
    pub fn decrypt(&self, x: &BigUint) -> BigUint {
        x.mod_exp(&self.d, &self.group.p)
    }

    /// Convenience: hash a raw value into the group, then encrypt.
    pub fn encrypt_value(&self, value: &[u8]) -> BigUint {
        self.encrypt(&self.group.hash_to_group(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::rng::SeedableRng;
    use pds_obs::rng::StdRng;

    fn setup() -> (CommutativeGroup, CommutativeKey, CommutativeKey) {
        let g = CommutativeGroup::test_params();
        let mut rng = StdRng::seed_from_u64(11);
        let a = CommutativeKey::random(&g, &mut rng);
        let b = CommutativeKey::random(&g, &mut rng);
        (g, a, b)
    }

    #[test]
    fn test_params_are_a_safe_prime() {
        let g = CommutativeGroup::test_params();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(g.p.is_probable_prime(20, &mut rng));
        assert!(g.q.is_probable_prime(20, &mut rng));
        assert_eq!(g.q.shl(1).add(&BigUint::one()), g.p);
    }

    #[test]
    fn test_params_are_pinned() {
        // Captured before the Montgomery kernel: the safe-prime search
        // still visits the same candidates with the same witnesses.
        assert_eq!(
            CommutativeGroup::test_params().p.to_hex(),
            "b6cbb74177499c565f880eb5a50b65745eb6bef331178f646a39de5e33eaa587"
        );
    }

    #[test]
    fn encryption_commutes() {
        let (g, a, b) = setup();
        let x = g.hash_to_group(b"diagnosis:flu");
        let ab = b.encrypt(&a.encrypt(&x));
        let ba = a.encrypt(&b.encrypt(&x));
        assert_eq!(ab, ba);
    }

    #[test]
    fn layers_peel_in_any_order() {
        let (g, a, b) = setup();
        let x = g.hash_to_group(b"value");
        let wrapped = b.encrypt(&a.encrypt(&x));
        assert_eq!(b.decrypt(&a.decrypt(&wrapped)), x);
        assert_eq!(a.decrypt(&b.decrypt(&wrapped)), x);
    }

    #[test]
    fn equal_values_collide_distinct_values_do_not() {
        let (_, a, b) = setup();
        // Double-encrypted equal values are equal — the property secure
        // set union exploits to deduplicate without decrypting.
        let x1 = b.encrypt(&a.encrypt_value(b"item"));
        let x2 = b.encrypt(&a.encrypt_value(b"item"));
        let y = b.encrypt(&a.encrypt_value(b"other"));
        assert_eq!(x1, x2);
        assert_ne!(x1, y);
    }

    #[test]
    fn single_layer_hides_equality_from_third_parties_keys() {
        let (g, a, b) = setup();
        // a's encryption of a value differs from b's — no cross-party
        // linkage without both layers.
        let x = g.hash_to_group(b"item");
        assert_ne!(a.encrypt(&x), b.encrypt(&x));
    }
}
