//! Montgomery arithmetic for odd moduli — the kernel under
//! [`BigUint::mod_exp`] and the Miller–Rabin witness loop.
//!
//! A context repacks the modulus `m` into `n` little-endian `u64` limbs
//! and works in the Montgomery domain `x̃ = x·R mod m`, `R = 2^(64n)`:
//! one operand-scanning pass (`u128` accumulators) multiplies and
//! reduces without ever dividing by `m`. Exponentiation is fixed
//! 4-bit-window; its scratch ([`Scratch`]: the 16-entry table, the
//! accumulator and the `n+1`-limb product) is allocated once per
//! exponentiation, and nothing allocates inside a multiplication.

use crate::num::BigUint;

/// Exponent bits consumed per table lookup.
const WINDOW: usize = 4;

/// Per-modulus constants.
pub(crate) struct Mont {
    /// The modulus, `n` limbs.
    m: Vec<u64>,
    /// `-m⁻¹ mod 2⁶⁴`.
    m_inv: u64,
    /// `R² mod m`: multiplying by it enters the Montgomery domain.
    r2: Vec<u64>,
    /// `R mod m`: the Montgomery form of 1.
    one: Vec<u64>,
}

/// Working storage of one exponentiation (or of one prime candidate's
/// whole witness loop).
pub(crate) struct Scratch {
    /// `base⁰ … base¹⁵` in Montgomery form, `n` limbs each.
    table: Vec<u64>,
    /// The running power; its first `n` limbs are the value.
    acc: Vec<u64>,
    /// The product being reduced, `n + 1` limbs; swapped with `acc`.
    t: Vec<u64>,
}

impl Mont {
    /// Context for an odd modulus `m > 1`.
    pub(crate) fn new(m: &BigUint) -> Mont {
        debug_assert!(!m.is_even() && m.bits() > 1);
        let m_limbs = pack(m, m.bits().div_ceil(64));
        let n = m_limbs.len();
        // Newton: x ← x·(2 − m₀x) doubles the correct low bits; m₀ is
        // its own inverse mod 8, so five rounds reach 96 ≥ 64 bits.
        let m0 = m_limbs[0];
        let mut inv = m0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        let r2 = pack(&BigUint::one().shl(128 * n).rem(m), n);
        let mut mont = Mont {
            m: m_limbs,
            m_inv: inv.wrapping_neg(),
            r2,
            one: Vec::new(),
        };
        // R = R²·1·R⁻¹.
        let mut t = vec![0u64; n + 1];
        let mut plain_one = vec![0u64; n];
        plain_one[0] = 1;
        mont.mul(&mut t, &mont.r2, &plain_one);
        t.truncate(n);
        mont.one = t;
        mont
    }

    /// Storage for [`Mont::pow`], reusable across calls on this context.
    pub(crate) fn scratch(&self) -> Scratch {
        let n = self.m.len();
        Scratch {
            table: vec![0; n << WINDOW],
            acc: vec![0; n + 1],
            t: vec![0; n + 1],
        }
    }

    /// `base^exp mod m` for `base < m`.
    pub(crate) fn exp(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let mut ws = self.scratch();
        self.pow(&mut ws, base, exp);
        // Leave the domain: x = x̃·1·R⁻¹. The table is spent; its first
        // entry becomes the plain 1.
        let n = self.m.len();
        ws.table[..n].fill(0);
        ws.table[0] = 1;
        self.mul(&mut ws.t, &ws.acc[..n], &ws.table[..n]);
        unpack(&ws.t[..n])
    }

    /// Miller–Rabin round: is `m` a strong probable prime to base `a`,
    /// where `m − 1 = d·2^s` with `d` odd and `a < m`?
    pub(crate) fn strong_probable_prime(
        &self,
        ws: &mut Scratch,
        a: &BigUint,
        d: &BigUint,
        s: usize,
    ) -> bool {
        let n = self.m.len();
        self.pow(ws, a, d);
        if ws.acc[..n] == self.one[..] || self.is_minus_one(&ws.acc[..n]) {
            return true;
        }
        for _ in 1..s {
            self.mul(&mut ws.t, &ws.acc[..n], &ws.acc[..n]);
            std::mem::swap(&mut ws.acc, &mut ws.t);
            if self.is_minus_one(&ws.acc[..n]) {
                return true;
            }
        }
        false
    }

    /// Leave `base^exp` in Montgomery form in `ws.acc[..n]` (`base < m`).
    fn pow(&self, ws: &mut Scratch, base: &BigUint, exp: &BigUint) {
        let n = self.m.len();
        let Scratch { table, acc, t } = ws;
        table[..n].copy_from_slice(&self.one);
        // Entry 1 is the base; stage its plain limbs in `acc` to enter.
        pack_into(&mut acc[..n], base);
        self.mul(t, &acc[..n], &self.r2);
        table[n..2 * n].copy_from_slice(&t[..n]);
        for k in 2..1 << WINDOW {
            let (lower, upper) = table.split_at_mut(k * n);
            self.mul(t, &lower[(k - 1) * n..], &lower[n..2 * n]);
            upper[..n].copy_from_slice(&t[..n]);
        }
        let windows = exp.bits().div_ceil(WINDOW);
        let entry = |w: usize| {
            let k = (0..WINDOW).fold(0, |k, b| k | (exp.bit(w * WINDOW + b) as usize) << b);
            k * n..(k + 1) * n
        };
        // The top window seeds the accumulator (entry 0 when exp = 0).
        let top = windows.saturating_sub(1);
        acc[..n].copy_from_slice(&table[entry(top)]);
        for w in (0..top).rev() {
            for _ in 0..WINDOW {
                self.mul(t, &acc[..n], &acc[..n]);
                std::mem::swap(acc, t);
            }
            let e = entry(w);
            if e.start != 0 {
                self.mul(t, &acc[..n], &table[e]);
                std::mem::swap(acc, t);
            }
        }
    }

    /// Is the Montgomery-form `x` the form of `m − 1`, i.e. `x + R̃ = m`
    /// (both `< m`, so no other sum is ≡ 0)?
    fn is_minus_one(&self, x: &[u64]) -> bool {
        let mut carry = false;
        for ((&xi, &oi), &mi) in x.iter().zip(&self.one).zip(&self.m) {
            let (s, c1) = xi.overflowing_add(oi);
            let (s, c2) = s.overflowing_add(carry as u64);
            if s != mi {
                return false;
            }
            carry = c1 | c2;
        }
        !carry
    }

    /// Montgomery product: `t[..n] ← a·b·R⁻¹ mod m` for `a, b < m` of
    /// `n` limbs; `t` has `n + 1`.
    fn mul(&self, t: &mut [u64], a: &[u64], b: &[u64]) {
        // 256- and 512-bit moduli (the commutative group's `p`, the prime
        // candidates of 512- and 1024-bit Paillier keys) get constant
        // trip counts, which the compiler unrolls: 35 % and 15 % off an
        // exponentiation. Wider loops gain nothing from it.
        match self.m.len() {
            4 => self.mul_n(4, t, a, b),
            8 => self.mul_n(8, t, a, b),
            n => self.mul_n(n, t, a, b),
        }
    }

    /// One pass per limb of `b`, multiplication and reduction fused:
    /// `t ← (t + a·bᵢ + q·m) / 2⁶⁴`, with `q` chosen to zero the low limb
    /// and one carry chain per product. `t < 2m` throughout.
    #[inline(always)]
    fn mul_n(&self, n: usize, t: &mut [u64], a: &[u64], b: &[u64]) {
        let (m, a, b, t) = (&self.m[..n], &a[..n], &b[..n], &mut t[..=n]);
        t.fill(0);
        for &bi in b {
            let bi = bi as u128;
            let x = t[0] as u128 + a[0] as u128 * bi;
            let q = (x as u64).wrapping_mul(self.m_inv) as u128;
            let mut c1 = x >> 64;
            let mut c2 = (x as u64 as u128 + q * m[0] as u128) >> 64;
            for j in 1..n {
                let x = t[j] as u128 + a[j] as u128 * bi + c1;
                c1 = x >> 64;
                let y = x as u64 as u128 + q * m[j] as u128 + c2;
                c2 = y >> 64;
                t[j - 1] = y as u64;
            }
            let x = t[n] as u128 + c1 + c2;
            t[n - 1] = x as u64;
            t[n] = (x >> 64) as u64;
        }
        // One conditional subtraction normalises.
        if t[n] != 0 || t[..n].iter().rev().ge(m.iter().rev()) {
            let mut borrow = false;
            for (tj, &mj) in t.iter_mut().zip(m) {
                let (d, b1) = tj.overflowing_sub(mj);
                let (d, b2) = d.overflowing_sub(borrow as u64);
                *tj = d;
                borrow = b1 | b2;
            }
        }
    }
}

/// `x` as exactly `n` little-endian `u64` limbs (`x < 2^(64n)`).
fn pack(x: &BigUint, n: usize) -> Vec<u64> {
    let mut out = vec![0u64; n];
    pack_into(&mut out, x);
    out
}

fn pack_into(out: &mut [u64], x: &BigUint) {
    out.fill(0);
    for (i, &l) in x.limbs().iter().enumerate() {
        out[i / 2] |= (l as u64) << (32 * (i % 2));
    }
}

fn unpack(x: &[u64]) -> BigUint {
    BigUint::from_limbs(
        x.iter()
            .flat_map(|&l| [l as u32, (l >> 32) as u32])
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::rng::{Rng, SeedableRng, StdRng};

    fn odd(x: BigUint) -> BigUint {
        if x.is_even() {
            x.add(&BigUint::one())
        } else {
            x
        }
    }

    fn check(base: &BigUint, exp: &BigUint, m: &BigUint) {
        assert_eq!(
            base.mod_exp(exp, m),
            base.mod_exp_binary(exp, m),
            "{base}^{exp} mod {m}"
        );
    }

    /// Modulus widths in bits: 1, 2, 1½ (an odd `u32` limb count), 4, 8,
    /// 16, 32 and 33 `u64` limbs.
    const WIDTHS: [usize; 8] = [64, 128, 96, 256, 512, 1024, 2048, 2112];

    #[test]
    fn montgomery_matches_square_and_multiply_on_edge_cases() {
        let mut rng = StdRng::seed_from_u64(0x4d4f_4e54);
        let one = BigUint::one();
        let mut moduli = vec![BigUint::from_u64(3)];
        for bits in WIDTHS {
            moduli.push(odd(BigUint::rand_bits(bits, &mut rng)));
            moduli.push(one.shl(bits).sub(&one));
            if bits > 64 {
                // Top `u64` limb exactly 1.
                let below_top = 64 * (bits.div_ceil(64) - 1);
                moduli.push(odd(BigUint::rand_bits(below_top + 1, &mut rng)));
            }
        }
        for m in &moduli {
            let bases = [
                BigUint::zero(),
                one.clone(),
                m.sub(&one),
                m.clone(),
                BigUint::rand_bits(m.bits() + 70, &mut rng),
            ];
            let exps = [0u64, 1, 2, 15, 16]
                .map(BigUint::from_u64)
                .into_iter()
                .chain([one.shl(67), BigUint::rand_bits(m.bits().min(160), &mut rng)]);
            for exp in exps {
                for base in &bases {
                    check(base, &exp, m);
                }
            }
        }
    }

    #[test]
    fn montgomery_matches_square_and_multiply_on_random_triples() {
        let mut rng = StdRng::seed_from_u64(0x0721_91e5);
        for i in 0..240 {
            let bits = WIDTHS[i % WIDTHS.len()];
            let m = odd(BigUint::rand_bits(rng.gen_range(2..=bits), &mut rng));
            let base = BigUint::rand_bits(rng.gen_range(1..=bits + 64), &mut rng);
            // Full-length exponents up to 512 bits; the reference loop is
            // too slow for them beyond.
            let exp = BigUint::rand_bits(rng.gen_range(1..=bits.min(512)), &mut rng);
            check(&base, &exp, &m);
        }
    }
}
