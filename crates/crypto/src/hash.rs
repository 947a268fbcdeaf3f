//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The single hash behind everything in the ecosystem: HMAC tags, Merkle
//! trees, audit hash chains, Bloom-filter index derivation and the PRF of
//! the symmetric layer.
//!
//! There is one compression function, `compress_inputs`: 64 rounds
//! over the round inputs `K[i] + W[i]` of a block, folded into a chaining
//! value. `round_inputs` expands a block's sixteen words into those 64
//! inputs and is a `const fn`, so a block that never changes (the
//! keystream's padding block, `sym.rs`) is expanded at compile time and
//! costs its rounds only. [`Sha256`], [`HmacKey`](crate::mac::HmacKey)
//! and the keystream all come through here; nothing else in the crate
//! holds a copy of the round body.

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    length_bits: u64,
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// The initial chaining value.
pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The message schedule of the block whose sixteen big-endian words are
/// `words`, with the round constants added in: the 64 round inputs
/// `K[i] + W[i]`. `const`, so a constant block is expanded once, by the
/// compiler.
pub(crate) const fn round_inputs(words: [u32; 16]) -> [u32; 64] {
    let mut w = [0u32; 64];
    let mut i = 0;
    while i < 16 {
        w[i] = words[i];
        i += 1;
    }
    while i < 64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
        i += 1;
    }
    i = 0;
    while i < 64 {
        w[i] = w[i].wrapping_add(K[i]);
        i += 1;
    }
    w
}

/// The compression function: the 64 rounds over one block's round
/// inputs ([`round_inputs`]), folded into the chaining value `state`.
pub(crate) fn compress_inputs(state: &mut [u32; 8], inputs: &[u32; 64]) {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for &kw in inputs {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(kw);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Compress one block given as its sixteen big-endian words.
pub(crate) fn compress_words(state: &mut [u32; 8], words: &[u32; 16]) {
    compress_inputs(state, &round_inputs(*words));
}

/// Compress one 64-byte block.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut words = [0u32; 16];
    for (w, b) in words.iter_mut().zip(block.as_chunks::<4>().0) {
        *w = u32::from_be_bytes(*b);
    }
    compress_words(state, &words);
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self::resume(H0, 0)
    }

    /// A hasher that has already absorbed `blocks` whole blocks and
    /// stands at the chaining value `state` (HMAC's cached pads).
    pub(crate) fn resume(state: [u32; 8], blocks: u64) -> Self {
        Sha256 {
            state,
            buffer: [0; 64],
            buffer_len: 0,
            length_bits: blocks * 512,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut data: &[u8]) -> &mut Self {
        self.length_bits = self
            .length_bits
            .wrapping_add((data.len() as u64).wrapping_mul(8));
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return self;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        // Whole blocks are compressed where they lie.
        let (blocks, tail) = data.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
        self
    }

    /// Finish and produce the chaining value: the digest's eight words.
    pub(crate) fn finalize_words(mut self) -> [u32; 8] {
        // Padding: 0x80, zeros, 64-bit big-endian length — in this block
        // if the length still fits behind the 0x80, else in one more.
        let n = self.buffer_len;
        self.buffer[n] = 0x80;
        self.buffer[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        self.buffer[56..].copy_from_slice(&self.length_bits.to_be_bytes());
        compress(&mut self.state, &self.buffer);
        self.state
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        digest_bytes(&self.finalize_words())
    }
}

/// A chaining value as the digest's 32 big-endian bytes.
pub(crate) fn digest_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (o, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(state) {
        *o = word.to_be_bytes();
    }
    out
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// The straightforward SHA-256 this module had before its padding and
/// round inputs were specialised — one compression with the schedule
/// expanded in place, padding fed a byte at a time. Kept as the reference
/// the differential tests here and in `mac.rs` compare against.
#[cfg(test)]
pub(crate) mod reference {
    use super::{H0, K};

    pub(crate) struct Sha256 {
        state: [u32; 8],
        buffer: [u8; 64],
        buffer_len: usize,
        length_bits: u64,
    }

    impl Sha256 {
        pub(crate) fn new() -> Self {
            Sha256 {
                state: H0,
                buffer: [0; 64],
                buffer_len: 0,
                length_bits: 0,
            }
        }

        pub(crate) fn update(&mut self, data: &[u8]) -> &mut Self {
            self.length_bits = self
                .length_bits
                .wrapping_add((data.len() as u64).wrapping_mul(8));
            for &byte in data {
                self.push(byte);
            }
            self
        }

        pub(crate) fn finalize(mut self) -> [u8; 32] {
            let bit_len = self.length_bits;
            self.push(0x80);
            while self.buffer_len != 56 {
                self.push(0);
            }
            for byte in bit_len.to_be_bytes() {
                self.push(byte);
            }
            let mut out = [0u8; 32];
            for (i, word) in self.state.iter().enumerate() {
                out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
            }
            out
        }

        fn push(&mut self, byte: u8) {
            self.buffer[self.buffer_len] = byte;
            self.buffer_len += 1;
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }

        fn compress(&mut self, block: &[u8; 64]) {
            let mut w = [0u32; 64];
            for i in 0..16 {
                w[i] = u32::from_be_bytes([
                    block[i * 4],
                    block[i * 4 + 1],
                    block[i * 4 + 2],
                    block[i * 4 + 3],
                ]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let temp1 = h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let temp2 = s0.wrapping_add(maj);
                h = g;
                g = f;
                f = e;
                e = d.wrapping_add(temp1);
                d = c;
                c = b;
                b = a;
                a = temp1.wrapping_add(temp2);
            }
            for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *s = s.wrapping_add(v);
            }
        }
    }

    pub(crate) fn sha256(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vectors() {
        // FIPS 180-4 / NIST test vectors.
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        for split in [0, 1, 63, 64, 65, 500, 999] {
            let mut h = Sha256::new();
            h.update(&data[..split]).update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 55/56/64-byte padding edges must all work.
        for len in 50..70 {
            let data = vec![0xAAu8; len];
            let d = sha256(&data);
            assert_eq!(d.len(), 32);
            // Determinism.
            assert_eq!(d, sha256(&data));
        }
    }

    #[test]
    fn equals_the_reference_at_every_length_and_split() {
        use pds_obs::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0x5A256);
        let mut data = vec![0u8; 300];
        rng.fill(&mut data[..]);
        for len in 0..=300 {
            let want = reference::sha256(&data[..len]);
            assert_eq!(sha256(&data[..len]), want, "{len} bytes");
            // The same bytes through `update` in seeded pieces: every
            // way of straddling the buffer and the whole-block path.
            for _ in 0..4 {
                let mut cuts = [rng.gen_range(0..=len), rng.gen_range(0..=len)];
                cuts.sort_unstable();
                let mut h = Sha256::new();
                h.update(&data[..cuts[0]])
                    .update(&data[cuts[0]..cuts[1]])
                    .update(&data[cuts[1]..len]);
                assert_eq!(h.finalize(), want, "{len} bytes cut at {cuts:?}");
            }
        }
    }
}
