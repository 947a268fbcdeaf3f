//! Arbitrary-precision unsigned integers.
//!
//! A self-contained bignum sized for the cryptography of Part III:
//! 1024-bit Paillier moduli (2048-bit squares) and 512–768-bit
//! commutative-cipher primes. Limbs are little-endian `u32`: Knuth's
//! Algorithm D then estimates each quotient digit with one hardware
//! 64/32 divide, where `u64` limbs would need a 128/64 library call.
//! The hot loop — modular exponentiation by an odd modulus — does not
//! divide at all: it repacks into `u64` limbs at the boundary of the
//! Montgomery kernel (`mont.rs`), and that boundary — repacking plus
//! the context's `R² mod m` — is 0.8 of the 9.3 µs a 256-bit
//! exponentiation takes and 3 of 526 µs at 1024 bits.

use crate::mont::Mont;
use pds_obs::rng::RngCore;
use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// Invariant: `limbs` has no trailing zero limb; zero is the empty vector.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u32>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// From little-endian limbs (trailing zeros allowed).
    pub(crate) fn from_limbs(mut limbs: Vec<u32>) -> Self {
        trim(&mut limbs);
        BigUint { limbs }
    }

    /// The little-endian limbs (none for zero).
    pub(crate) fn limbs(&self) -> &[u32] {
        &self.limbs
    }

    /// From a `u64`.
    pub fn from_u64(v: u64) -> Self {
        BigUint::from_limbs(vec![v as u32, (v >> 32) as u32])
    }

    /// From a `u128`.
    pub fn from_u128(v: u128) -> Self {
        BigUint::from_limbs(vec![
            v as u32,
            (v >> 32) as u32,
            (v >> 64) as u32,
            (v >> 96) as u32,
        ])
    }

    /// From big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(4));
        let mut chunk_start = bytes.len();
        while chunk_start > 0 {
            let lo = chunk_start.saturating_sub(4);
            let mut limb: u32 = 0;
            for &b in &bytes[lo..chunk_start] {
                limb = (limb << 8) | b as u32;
            }
            limbs.push(limb);
            chunk_start = lo;
        }
        BigUint::from_limbs(limbs)
    }

    /// To big-endian bytes (no leading zeros; zero ⇒ empty).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 4);
        let mut limbs = self.limbs.iter().rev();
        if let Some(top) = limbs.next() {
            // The top limb is non-zero: skip its leading zero bytes.
            out.extend_from_slice(&top.to_be_bytes()[top.leading_zeros() as usize / 8..]);
        }
        for limb in limbs {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        out
    }

    /// Lowercase hex, no leading zeros ("0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, &limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:08x}"));
            }
        }
        s
    }

    /// Convert to `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u64),
            2 => Some(self.limbs[0] as u64 | (self.limbs[1] as u64) << 32),
            _ => None,
        }
    }

    /// Convert to `u128` if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        if self.limbs.len() > 4 {
            return None;
        }
        let mut v: u128 = 0;
        for (i, &l) in self.limbs.iter().enumerate() {
            v |= (l as u128) << (32 * i);
        }
        Some(v)
    }

    /// True iff zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff even (zero is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// Value of bit `i` (LSB = bit 0).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 32;
        self.limbs
            .get(limb)
            .is_some_and(|l| (l >> (i % 32)) & 1 == 1)
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (a, b) = if self.limbs.len() >= other.limbs.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut limbs = Vec::with_capacity(a.limbs.len() + 1);
        let mut carry: u64 = 0;
        for i in 0..a.limbs.len() {
            let sum = a.limbs[i] as u64 + b.limbs.get(i).copied().unwrap_or(0) as u64 + carry;
            limbs.push(sum as u32);
            carry = sum >> 32;
        }
        if carry > 0 {
            limbs.push(carry as u32);
        }
        BigUint { limbs }
    }

    /// `self - other`, `None` on underflow.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut limbs = Vec::with_capacity(self.limbs.len());
        let mut borrow: i64 = 0;
        for i in 0..self.limbs.len() {
            let mut diff =
                self.limbs[i] as i64 - other.limbs.get(i).copied().unwrap_or(0) as i64 - borrow;
            if diff < 0 {
                diff += 1 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            limbs.push(diff as u32);
        }
        debug_assert_eq!(borrow, 0);
        Some(BigUint::from_limbs(limbs))
    }

    /// `self - other`, panicking on underflow.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other).expect("BigUint underflow")
    }

    /// `self * other` (schoolbook; quadratic but ample for 2048-bit
    /// operands).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut limbs = vec![0u32; self.limbs.len() + other.limbs.len()];
        mul_acc(&mut limbs, &self.limbs, &other.limbs);
        BigUint::from_limbs(limbs)
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 32;
        let mut limbs = vec![0u32; limb_shift];
        limbs.extend_from_slice(&self.limbs);
        limbs.push(0);
        shl_small(&mut limbs[limb_shift..], bits % 32);
        BigUint::from_limbs(limbs)
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 32;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let mut limbs: Vec<u32> = self.limbs[limb_shift..].to_vec();
        shr_small(&mut limbs, bits % 32);
        BigUint::from_limbs(limbs)
    }

    /// Quotient and remainder (`Knuth TAOCP 4.3.1 Algorithm D`).
    ///
    /// Panics if `divisor` is zero.
    pub fn divrem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        let mut rem = self.limbs.clone();
        let (mut q, mut vn) = (Vec::new(), Vec::new());
        div_limbs(&mut rem, &divisor.limbs, &mut q, &mut vn);
        (BigUint::from_limbs(q), BigUint { limbs: rem })
    }

    /// `self mod m`.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.divrem(m).1
    }

    /// `(self + other) mod m` (operands must already be `< m`).
    pub fn mod_add(&self, other: &BigUint, m: &BigUint) -> BigUint {
        let s = self.add(other);
        if &s >= m {
            s.sub(m)
        } else {
            s
        }
    }

    /// `(self - other) mod m` (operands must already be `< m`).
    pub fn mod_sub(&self, other: &BigUint, m: &BigUint) -> BigUint {
        if self >= other {
            self.sub(other)
        } else {
            self.add(m).sub(other)
        }
    }

    /// `(self * other) mod m`.
    pub fn mod_mul(&self, other: &BigUint, m: &BigUint) -> BigUint {
        self.mul(other).rem(m)
    }

    /// `self^exp mod m`: Montgomery windowed exponentiation for an odd
    /// `m` (every modulus the protocols use), square-and-multiply for an
    /// even one.
    pub fn mod_exp(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero());
        if m == &BigUint::one() {
            return BigUint::zero();
        }
        if m.is_even() {
            return self.mod_exp_binary(exp, m);
        }
        Mont::new(m).exp(&self.rem(m), exp)
    }

    /// `self^exp mod m` by bit-at-a-time square-and-multiply: the
    /// even-modulus path (Montgomery reduction needs `m` odd) and the
    /// reference the kernel is tested against.
    pub(crate) fn mod_exp_binary(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        let mut base = self.rem(m);
        let mut result = BigUint::one();
        let bits = exp.bits();
        for i in 0..bits {
            if exp.bit(i) {
                result = result.mod_mul(&base, m);
            }
            if i + 1 < bits {
                base = base.mod_mul(&base, m);
            }
        }
        result
    }

    /// Greatest common divisor (binary-free Euclid; division is cheap
    /// enough at our sizes).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let (mut a, mut b) = (self.limbs.clone(), other.limbs.clone());
        let (mut q, mut vn) = (Vec::new(), Vec::new());
        while !b.is_empty() {
            div_limbs(&mut a, &b, &mut q, &mut vn);
            std::mem::swap(&mut a, &mut b);
        }
        BigUint { limbs: a }
    }

    /// Least common multiple.
    pub fn lcm(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        self.mul(other).divrem(&self.gcd(other)).0
    }

    /// Modular inverse: `x` with `self·x ≡ 1 (mod m)`, `None` when
    /// `gcd(self, m) ≠ 1`.
    pub fn mod_inverse(&self, m: &BigUint) -> Option<BigUint> {
        // Extended Euclid on reused buffers. Only the magnitude of the
        // Bézout coefficient is tracked: from t₀ = 0, t₁ = 1 its sign
        // alternates (every quotient is ≥ 1), so t₂ = t₀ − q·t₁ is
        // |t₂| = |t₀| + q·|t₁| with the sign opposite to t₁'s.
        let mut r0 = m.limbs.clone();
        let mut r1 = self.rem(m).limbs;
        let (mut t0, mut t1) = (Vec::new(), vec![1u32]);
        let mut t1_neg = false;
        let (mut q, mut vn) = (Vec::new(), Vec::new());
        while !r1.is_empty() {
            div_limbs(&mut r0, &r1, &mut q, &mut vn);
            std::mem::swap(&mut r0, &mut r1);
            t0.resize(t0.len().max(q.len() + t1.len()) + 1, 0);
            mul_acc(&mut t0, &q, &t1);
            trim(&mut t0);
            std::mem::swap(&mut t0, &mut t1);
            t1_neg = !t1_neg;
        }
        if r0 != [1] {
            return None;
        }
        // t₀ carries the sign t₁ had a step ago (and is 0 if no step ran).
        let mag = BigUint { limbs: t0 }.rem(m);
        Some(if !t1_neg && !mag.is_zero() {
            m.sub(&mag)
        } else {
            mag
        })
    }

    /// Uniform random value with exactly `bits` bits (top bit set).
    pub fn rand_bits(bits: usize, rng: &mut impl RngCore) -> BigUint {
        assert!(bits > 0);
        let limbs_needed = bits.div_ceil(32);
        let mut limbs = vec![0u32; limbs_needed];
        for l in &mut limbs {
            *l = rng.next_u32();
        }
        // Mask excess bits, then force the top bit.
        let top_bits = bits - (limbs_needed - 1) * 32;
        let mask = if top_bits == 32 {
            u32::MAX
        } else {
            (1u32 << top_bits) - 1
        };
        let last = limbs_needed - 1;
        limbs[last] &= mask;
        limbs[last] |= 1 << (top_bits - 1);
        BigUint::from_limbs(limbs)
    }

    /// Uniform random value in `[0, bound)` by rejection sampling.
    pub fn rand_below(bound: &BigUint, rng: &mut impl RngCore) -> BigUint {
        assert!(!bound.is_zero());
        let bits = bound.bits();
        loop {
            let limbs_needed = bits.div_ceil(32);
            let mut limbs = vec![0u32; limbs_needed];
            for l in &mut limbs {
                *l = rng.next_u32();
            }
            let top_bits = bits - (limbs_needed - 1) * 32;
            if top_bits < 32 {
                let last = limbs_needed - 1;
                limbs[last] &= (1u32 << top_bits) - 1;
            }
            let candidate = BigUint::from_limbs(limbs);
            if &candidate < bound {
                return candidate;
            }
        }
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random
    /// bases (error probability ≤ 4^-rounds).
    pub fn is_probable_prime(&self, rounds: usize, rng: &mut impl RngCore) -> bool {
        let two = BigUint::from_u64(2);
        let three = BigUint::from_u64(3);
        if self < &two {
            return false;
        }
        if self == &two || self == &three {
            return true;
        }
        if self.is_even() {
            return false;
        }
        // Trial division by small primes first.
        for &p in SMALL_PRIMES {
            if self.limbs == [p] {
                return true;
            }
            if self.rem_small(p) == 0 {
                return false;
            }
        }
        // self - 1 = d * 2^s with d odd.
        let n_minus_1 = self.sub(&BigUint::one());
        let mut s = 0usize;
        while !n_minus_1.bit(s) {
            s += 1;
        }
        let d = n_minus_1.shr(s);
        // One Montgomery context and scratch serve every witness.
        let mont = Mont::new(self);
        let mut ws = mont.scratch();
        // Random bases in [2, n-2].
        let range = self.sub(&three);
        (0..rounds).all(|_| {
            let a = BigUint::rand_below(&range, rng).add(&two);
            mont.strong_probable_prime(&mut ws, &a, &d, s)
        })
    }

    /// `self mod d` for a single-limb `d`, without allocating.
    fn rem_small(&self, d: u32) -> u32 {
        let rem = self
            .limbs
            .iter()
            .rev()
            .fold(0u64, |rem, &l| ((rem << 32) | l as u64) % d as u64);
        rem as u32
    }

    /// Generate a random probable prime of exactly `bits` bits.
    pub fn gen_prime(bits: usize, rng: &mut impl RngCore) -> BigUint {
        assert!(bits >= 4);
        loop {
            let mut candidate = BigUint::rand_bits(bits, rng);
            if candidate.is_even() {
                candidate = candidate.add(&BigUint::one());
            }
            if candidate.bits() != bits {
                continue;
            }
            if candidate.is_probable_prime(20, rng) {
                return candidate;
            }
        }
    }
}

/// `acc += a·b` (schoolbook; quadratic but ample for 2048-bit
/// operands). `acc` must be long enough to hold the sum.
fn mul_acc(acc: &mut [u32], a: &[u32], b: &[u32]) {
    for (i, &x) in a.iter().enumerate() {
        let mut carry: u64 = 0;
        for (j, &y) in b.iter().enumerate() {
            let cur = acc[i + j] as u64 + x as u64 * y as u64 + carry;
            acc[i + j] = cur as u32;
            carry = cur >> 32;
        }
        let mut k = i + b.len();
        while carry > 0 {
            let cur = acc[k] as u64 + carry;
            acc[k] = cur as u32;
            carry = cur >> 32;
            k += 1;
        }
    }
}

/// Shift left in place by `s < 32` bits; the top limb must have room.
fn shl_small(limbs: &mut [u32], s: usize) {
    if s == 0 {
        return;
    }
    let mut carry: u32 = 0;
    for l in limbs {
        let new = (*l << s) | carry;
        carry = *l >> (32 - s);
        *l = new;
    }
    debug_assert_eq!(carry, 0);
}

/// Shift right in place by `s < 32` bits.
fn shr_small(limbs: &mut [u32], s: usize) {
    if s == 0 {
        return;
    }
    let mut carry: u32 = 0;
    for l in limbs.iter_mut().rev() {
        let new = (*l >> s) | carry;
        carry = *l << (32 - s);
        *l = new;
    }
}

/// Drop trailing zero limbs.
fn trim(limbs: &mut Vec<u32>) {
    while limbs.last() == Some(&0) {
        limbs.pop();
    }
}

fn cmp_limbs(a: &[u32], b: &[u32]) -> Ordering {
    a.len()
        .cmp(&b.len())
        .then_with(|| a.iter().rev().cmp(b.iter().rev()))
}

/// Knuth TAOCP 4.3.1 Algorithm D on trimmed limb vectors: `u ← u mod v`
/// and `q ← ⌊u / v⌋` (trimmed), `v` non-empty. `vn` is scratch for the
/// normalized divisor; with `q` and `vn` reused, a chain of divisions
/// (Euclid) allocates nothing once the buffers have grown.
fn div_limbs(u: &mut Vec<u32>, v: &[u32], q: &mut Vec<u32>, vn: &mut Vec<u32>) {
    q.clear();
    if cmp_limbs(u, v) == Ordering::Less {
        return;
    }
    // Short divisor: simple long division.
    if let [d] = *v {
        let d = d as u64;
        let mut rem: u64 = 0;
        q.resize(u.len(), 0);
        for i in (0..u.len()).rev() {
            let cur = (rem << 32) | u[i] as u64;
            q[i] = (cur / d) as u32;
            rem = cur % d;
        }
        trim(q);
        u.clear();
        u.push(rem as u32);
        trim(u);
        return;
    }
    // Normalize: shift so the divisor's top limb has its high bit set.
    let shift = v[v.len() - 1].leading_zeros() as usize;
    vn.clear();
    vn.extend_from_slice(v);
    shl_small(vn, shift);
    let n = vn.len();
    let m = u.len() - n;
    u.push(0); // u has m+n+1 limbs
    shl_small(u, shift);
    let un = u;
    let v_top = vn[n - 1] as u64;
    let v_next = vn[n - 2] as u64;
    q.resize(m + 1, 0);

    for j in (0..=m).rev() {
        // Estimate q̂ from the top two limbs.
        let num = ((un[j + n] as u64) << 32) | un[j + n - 1] as u64;
        let mut qhat = num / v_top;
        let mut rhat = num % v_top;
        while qhat >= 1 << 32 || qhat * v_next > ((rhat << 32) | un[j + n - 2] as u64) {
            qhat -= 1;
            rhat += v_top;
            if rhat >= 1 << 32 {
                break;
            }
        }
        // Multiply-subtract qhat * v from un[j .. j+n].
        let mut borrow: i64 = 0;
        let mut carry: u64 = 0;
        for i in 0..n {
            let p = qhat * vn[i] as u64 + carry;
            carry = p >> 32;
            let t = un[j + i] as i64 - (p as u32) as i64 - borrow;
            if t < 0 {
                un[j + i] = (t + (1 << 32)) as u32;
                borrow = 1;
            } else {
                un[j + i] = t as u32;
                borrow = 0;
            }
        }
        let t = un[j + n] as i64 - carry as i64 - borrow;
        if t < 0 {
            // q̂ was one too large: add back.
            un[j + n] = (t + (1 << 32)) as u32;
            qhat -= 1;
            let mut carry2: u64 = 0;
            for i in 0..n {
                let s = un[j + i] as u64 + vn[i] as u64 + carry2;
                un[j + i] = s as u32;
                carry2 = s >> 32;
            }
            un[j + n] = un[j + n].wrapping_add(carry2 as u32);
        } else {
            un[j + n] = t as u32;
        }
        q[j] = qhat as u32;
    }
    trim(q);
    un.truncate(n);
    shr_small(un, shift);
    trim(un);
}

const SMALL_PRIMES: &[u32] = &[
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_limbs(&self.limbs, &other.limbs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::rng::StdRng;
    use pds_obs::rng::{Rng, RngCore, SeedableRng};

    fn big(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn construction_round_trips() {
        for v in [0u64, 1, 42, u32::MAX as u64, u64::MAX] {
            assert_eq!(BigUint::from_u64(v).to_u64(), Some(v));
        }
        let v = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        assert_eq!(BigUint::from_u128(v).to_u128(), Some(v));
        let bytes = [0x01, 0x02, 0x03, 0x04, 0x05];
        let n = BigUint::from_bytes_be(&bytes);
        assert_eq!(n.to_u64(), Some(0x0102030405));
        assert_eq!(n.to_bytes_be(), bytes);
    }

    #[test]
    fn hex_rendering() {
        assert_eq!(BigUint::zero().to_hex(), "0");
        assert_eq!(big(0xdeadbeef).to_hex(), "deadbeef");
        assert_eq!(big(0x1_0000_0000).to_hex(), "100000000");
    }

    #[test]
    fn bits_and_bit_access() {
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(big(1).bits(), 1);
        assert_eq!(big(0x8000_0000).bits(), 32);
        assert_eq!(big(0x1_0000_0000).bits(), 33);
        let n = big(0b1010);
        assert!(!n.bit(0) && n.bit(1) && !n.bit(2) && n.bit(3));
        assert!(!n.bit(500));
    }

    #[test]
    fn divrem_matches_u128() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2000 {
            let a = rng.next_u64() as u128 * rng.next_u64() as u128;
            let b = (rng.next_u64() as u128).max(1);
            let (q, r) = big(a).divrem(&big(b));
            assert_eq!(q.to_u128(), Some(a / b));
            assert_eq!(r.to_u128(), Some(a % b));
        }
    }

    #[test]
    fn knuth_d_addback_case() {
        // Crafted operands that exercise the rare "add back" branch:
        // u = 2^96 - 2^64, v = 2^64 - 1 (classic trigger family).
        let u = big(1u128 << 96).sub(&big(1u128 << 64));
        let v = big((1u128 << 64) - 1);
        let (q, r) = u.divrem(&v);
        let recomposed = q.mul(&v).add(&r);
        assert_eq!(recomposed, u);
        assert!(r < v);
    }

    #[test]
    fn mod_exp_small_cases() {
        assert_eq!(
            big(4).mod_exp(&big(13), &big(497)).to_u64(),
            Some(445) // 4^13 mod 497
        );
        assert_eq!(big(5).mod_exp(&BigUint::zero(), &big(7)), BigUint::one());
        assert_eq!(big(5).mod_exp(&big(100), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn fermat_little_theorem_holds() {
        let p = big(1_000_000_007);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let a = BigUint::rand_below(&p, &mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a.mod_exp(&p.sub(&BigUint::one()), &p), BigUint::one());
        }
    }

    #[test]
    fn gcd_lcm_inverse() {
        assert_eq!(big(48).gcd(&big(18)).to_u64(), Some(6));
        assert_eq!(big(4).lcm(&big(6)).to_u64(), Some(12));
        let inv = big(3).mod_inverse(&big(11)).unwrap();
        assert_eq!(inv.to_u64(), Some(4)); // 3·4 = 12 ≡ 1 mod 11
        assert!(big(6).mod_inverse(&big(9)).is_none(), "gcd 3 ≠ 1");
        // Inverse of a large residue.
        let m = big(1_000_000_007);
        let a = big(123_456_789);
        let inv = a.mod_inverse(&m).unwrap();
        assert_eq!(a.mod_mul(&inv, &m), BigUint::one());
    }

    #[test]
    fn miller_rabin_agrees_with_known_values() {
        let mut rng = StdRng::seed_from_u64(3);
        for p in [2u64, 3, 5, 104729, 1_000_000_007, 2_147_483_647] {
            assert!(BigUint::from_u64(p).is_probable_prime(20, &mut rng), "{p}");
        }
        // Carmichael numbers; 118 901 521 = 271·541·811 has no factor in
        // SMALL_PRIMES, so the witness loop has to reject it.
        let carmichael = [561u64, 1105, 1729, 41041, 118_901_521];
        for c in [1u64, 4, 104730, 1_000_000_008]
            .into_iter()
            .chain(carmichael)
        {
            assert!(!BigUint::from_u64(c).is_probable_prime(20, &mut rng), "{c}");
        }
        // Every n < 2¹⁶ against a sieve.
        let mut composite = vec![false; 1 << 16];
        for n in 2..1usize << 16 {
            assert_eq!(
                BigUint::from_u64(n as u64).is_probable_prime(20, &mut rng),
                !composite[n],
                "{n}"
            );
            for k in (n * n..1 << 16).step_by(n) {
                composite[k] = true;
            }
        }
    }

    #[test]
    fn prime_generation_produces_primes_of_right_size() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = BigUint::gen_prime(96, &mut rng);
        assert_eq!(p.bits(), 96);
        assert!(p.is_probable_prime(30, &mut rng));
    }

    #[test]
    fn shifts() {
        let n = big(0b1011);
        assert_eq!(n.shl(3).to_u64(), Some(0b1011000));
        assert_eq!(n.shl(32).to_u128(), Some(0b1011u128 << 32));
        assert_eq!(n.shl(33).shr(33), n);
        assert_eq!(n.shr(2).to_u64(), Some(0b10));
        assert_eq!(n.shr(64), BigUint::zero());
    }

    #[test]
    fn mod_add_sub() {
        let m = big(97);
        assert_eq!(big(90).mod_add(&big(20), &m).to_u64(), Some(13));
        assert_eq!(big(5).mod_sub(&big(20), &m).to_u64(), Some(82));
    }

    #[test]
    fn prop_add_sub_round_trip() {
        let mut rng = StdRng::seed_from_u64(0xADD5);
        for _ in 0..256 {
            let a: u128 = rng.gen::<u128>() / 2;
            let b: u128 = rng.gen::<u128>() / 2;
            let s = big(a).add(&big(b));
            assert_eq!(s.to_u128(), Some(a + b));
            assert_eq!(s.sub(&big(b)), big(a));
        }
    }

    #[test]
    fn prop_mul_matches_u128() {
        let mut rng = StdRng::seed_from_u64(0x4A1);
        for _ in 0..256 {
            let (a, b) = (rng.next_u64(), rng.next_u64());
            assert_eq!(
                big(a as u128).mul(&big(b as u128)).to_u128(),
                Some(a as u128 * b as u128)
            );
        }
    }

    #[test]
    fn prop_divrem_recomposes() {
        let mut rng = StdRng::seed_from_u64(0xD1F);
        for _ in 0..256 {
            let a: u128 = rng.gen();
            let b: u128 = rng.gen::<u128>().max(1);
            let (q, r) = big(a).divrem(&big(b));
            assert!(r < big(b));
            assert_eq!(q.mul(&big(b)).add(&r), big(a));
        }
    }

    #[test]
    fn prop_mod_exp_matches_naive() {
        let mut rng = StdRng::seed_from_u64(0x3A9);
        for _ in 0..256 {
            let b = rng.gen_range(0u64..1000);
            let e = rng.gen_range(0u64..64);
            let m = rng.gen_range(2u64..10_000);
            let mut expected: u128 = 1;
            for _ in 0..e {
                expected = expected * b as u128 % m as u128;
            }
            assert_eq!(
                big(b as u128)
                    .mod_exp(&big(e as u128), &big(m as u128))
                    .to_u128(),
                Some(expected)
            );
        }
    }

    #[test]
    fn prop_bytes_round_trip() {
        let mut rng = StdRng::seed_from_u64(0xB17E5);
        for _ in 0..256 {
            let mut bytes = vec![0u8; rng.gen_range(0usize..64)];
            rng.fill_bytes(&mut bytes);
            let n = BigUint::from_bytes_be(&bytes);
            let back = n.to_bytes_be();
            // Equal up to leading zeros.
            let trimmed: Vec<u8> = bytes.iter().copied().skip_while(|&b| b == 0).collect();
            assert_eq!(back, trimmed);
        }
    }

    #[test]
    fn prop_inverse_is_inverse() {
        let mut rng = StdRng::seed_from_u64(0x14);
        for _ in 0..256 {
            let a = rng.next_u64().max(1);
            let m = rng.next_u64().max(2);
            let am = big(a as u128);
            let mm = big(m as u128);
            if am.gcd(&mm) == BigUint::one() {
                let inv = am.mod_inverse(&mm).unwrap();
                assert_eq!(am.mod_mul(&inv, &mm), BigUint::one());
            } else {
                assert!(am.mod_inverse(&mm).is_none());
            }
        }
    }

    #[test]
    fn large_operand_divrem_recomposes() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let a = BigUint::rand_bits(700, &mut rng);
            let b = BigUint::rand_bits(300, &mut rng);
            let (q, r) = a.divrem(&b);
            assert!(r < b);
            assert_eq!(q.mul(&b).add(&r), a);
        }
    }
}
