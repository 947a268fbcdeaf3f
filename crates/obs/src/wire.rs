//! Bytes from outside are read here — the one checked cursor under every
//! record and message decoder of the workspace.
//!
//! Everything a token parses was handed to it by a fault or an adversary:
//! flash pages a power cut tore or a read flipped (the *raw* pages —
//! index buckets, summary data pages, tree and Tjoin pages — carry no
//! CRC), mail framed by a weakly-malicious SSI, archives restored from an
//! untrusted store. A panic bricks the unattended token and an
//! allocation sized by the sender takes down the process hosting every
//! token, so the policy "how outside bytes are read" lives in this one
//! module and nowhere else.
//!
//! ## The contract every decoder built on [`Reader`] keeps
//!
//! * **Never panics.** Every accessor returns `None` instead of reading
//!   past the end; a decoder is a chain of `?`.
//! * **Never allocates for a count the sender chose.** A count field goes
//!   through [`Reader::count16`] / [`Reader::count32`], which refuse any
//!   count the bytes still in hand could not hold — the only value that
//!   may reach `Vec::with_capacity`.
//! * **Consumes its whole input or refuses it.** A record or message
//!   decoder ends in [`Reader::finish`], so every strict prefix and every
//!   over-long buffer is `None`. The exceptions are named: formats whose
//!   last field is [`Reader::rest`] (any prefix that still holds the
//!   fixed fields decodes — to something else), and page images, where
//!   erased-cell padding follows the entries.
//! * **Leaves the bytes to the encoder.** This is a cursor and two put
//!   helpers, not a serialisation framework: no trait, no derive, no
//!   option. Integers are little-endian, as every format here writes them.
//!
//! [`sweep`] is that contract as a test. Every format of the workspace is
//! one call of it — `tests/wire_formats.rs` for the public ones, a test
//! beside the decoder for the private ones — so a new record type joins
//! by adding a row.

use crate::rng::{Rng, RngCore, SeedableRng, StdRng};

/// A bounds-checked cursor over bytes that came from outside the token.
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(n)?;
        self.rest = rest;
        Some(head)
    }

    /// The next `N` bytes, for `from_le_bytes`.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.rest.split_first_chunk::<N>()?;
        self.rest = rest;
        Some(*head)
    }

    /// One byte (tags, kinds, flags).
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        self.array().map(|[b]| b)
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A byte string behind a `u16` length (see [`put_prefixed`]).
    #[inline]
    pub fn prefixed(&mut self) -> Option<&'a [u8]> {
        let len = self.u16()?;
        self.bytes(len as usize)
    }

    /// A byte string behind a `u32` length (see [`put_prefixed32`]).
    #[inline]
    pub fn prefixed32(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()?;
        self.bytes(len as usize)
    }

    /// A `u16` entry count, refused unless that many entries of at least
    /// `min_entry_len` bytes each could still follow — the clamp between
    /// a sender-chosen count and `Vec::with_capacity`, with the refusal
    /// the decode would reach anyway taken before anything is allocated.
    #[inline]
    pub fn count16(&mut self, min_entry_len: usize) -> Option<usize> {
        let count = self.u16()? as usize;
        self.holds(count, min_entry_len)
    }

    /// [`count16`](Self::count16) for a `u32` count field.
    #[inline]
    pub fn count32(&mut self, min_entry_len: usize) -> Option<usize> {
        let count = self.u32()? as usize;
        self.holds(count, min_entry_len)
    }

    #[inline]
    fn holds(&self, count: usize, min_entry_len: usize) -> Option<usize> {
        (count <= self.rest.len() / min_entry_len.max(1)).then_some(count)
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Everything not yet read — the last field of a format that has no
    /// length of its own.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    /// The exact-length check: `Some` only when every byte was read.
    #[inline]
    pub fn finish(self) -> Option<()> {
        self.rest.is_empty().then_some(())
    }
}

/// Append `bytes` behind a `u16` length. The caller bounds the length
/// (the page packers refuse what no page holds before anything reaches
/// flash); a longer string would be cut short by the `as`.
#[inline]
pub fn put_prefixed(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Append `bytes` behind a `u32` length — message blobs and archive
/// entries.
#[inline]
pub fn put_prefixed32(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// How a format's encodings end, which decides what [`sweep`] demands of
/// a strict prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// The decoder ends in [`Reader::finish`]: every strict prefix of an
    /// encoding is refused.
    Exact,
    /// The last field is [`Reader::rest`]: a prefix that still holds the
    /// fixed fields decodes to a shorter value, so prefixes must only
    /// never panic.
    RestOfBuffer,
    /// A page image: erased-cell padding follows the entries, so a cut
    /// inside the padding changes nothing. Prefixes must only never
    /// panic.
    Padded,
}

/// Seeded mutations [`sweep`] throws at every format, whatever
/// `PDS_CRASH_SEEDS` says.
const MIN_MUTATIONS: u64 = 10_000;

/// The decoder contract, swept over seeds for one format (see the module
/// docs). `gen` draws a value, `encode` writes it and `decode` reads it
/// back; `bombs` are inputs the format must refuse outright — headers
/// whose count field claims `0xFFFF` / `0xFFFF_FFFF` entries, which
/// abort the process if the count ever sizes an allocation.
///
/// Panics (fails the calling test) when a value does not round-trip,
/// when a strict prefix of an [`Tail::Exact`] format decodes, when a bomb
/// is accepted, or when no mutation was ever refused — a sweep that
/// reaches no refusal proves nothing. A decoder that panics on any input
/// fails the test by itself. `PDS_CRASH_SEEDS` widens the sweep like the
/// crash-recovery ones; at least 10 000 flips, splices and garbage
/// buffers are tried at any setting.
pub fn sweep<T: PartialEq + std::fmt::Debug>(
    format: &str,
    tail: Tail,
    bombs: &[&[u8]],
    gen: impl Fn(&mut StdRng) -> T,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Option<T>,
) {
    let seeds = crate::rng::sweep_seeds(48).max(1);
    for bomb in bombs {
        assert_eq!(decode(bomb), None, "{format}: lying count {bomb:02x?}");
    }
    let mut refused = 0u64;
    let mut previous: Vec<u8> = Vec::new();
    for case in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0x317E_0000 + case);
        let value = gen(&mut rng);
        let wire = encode(&value);
        assert_eq!(
            decode(&wire).as_ref(),
            Some(&value),
            "{format}: seed {case}"
        );
        for cut in 0..wire.len() {
            let got = decode(&wire[..cut]);
            refused += u64::from(got.is_none());
            if tail == Tail::Exact {
                assert_eq!(got, None, "{format}: seed {case}, prefix of {cut} bytes");
            }
        }
        for _ in 0..MIN_MUTATIONS.div_ceil(seeds) {
            let mutant = mutate(&wire, &previous, &mut rng);
            refused += u64::from(decode(&mutant).is_none());
        }
        previous = wire;
    }
    assert!(refused > 0, "{format}: the sweep never reached a refusal");
}

/// One damaged input: bit flips in `wire`, a run of it overwritten with
/// 0xFF (what a lying count or an erased cell reads as), a splice with
/// another encoding of the same format, or pure garbage.
fn mutate(wire: &[u8], other: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = wire.to_vec();
    match rng.gen_range(0..4u32) {
        0 if !out.is_empty() => {
            for _ in 0..rng.gen_range(1..4u32) {
                let i = rng.gen_range(0..out.len());
                out[i] ^= 1 << rng.gen_range(0..8u32);
            }
        }
        1 if !out.is_empty() => {
            let from = rng.gen_range(0..out.len());
            let to = (from + rng.gen_range(1..5usize)).min(out.len());
            out[from..to].fill(0xFF);
        }
        2 => {
            out.truncate(rng.gen_range(0..=out.len()));
            out.extend_from_slice(&other[rng.gen_range(0..=other.len())..]);
        }
        _ => {
            out = vec![0; rng.gen_range(0..64usize)];
            rng.fill_bytes(&mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_accessor_is_none_past_the_end_and_leaves_the_cursor_alone() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u64(), None);
        assert_eq!(r.u32(), None);
        assert_eq!(r.bytes(4), None);
        assert_eq!(r.array::<4>(), None);
        assert_eq!(r.remaining(), 3, "a refused read consumes nothing");
        assert_eq!(r.u8(), Some(1));
        assert_eq!(r.u16(), Some(0x0302));
        assert_eq!((r.u8(), r.u16(), r.bytes(1)), (None, None, None));
        assert_eq!(r.bytes(0), Some(&[][..]));
        assert_eq!(r.finish(), Some(()));
    }

    #[test]
    fn integers_are_little_endian_and_prefixes_carry_their_length() {
        let mut wire = vec![0x34, 0x12];
        wire.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        wire.extend_from_slice(&(u64::MAX - 1).to_le_bytes());
        put_prefixed(&mut wire, b"key");
        put_prefixed32(&mut wire, b"value");
        wire.extend_from_slice(b"tail");
        let mut r = Reader::new(&wire);
        assert_eq!(r.u16(), Some(0x1234));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.prefixed(), Some(&b"key"[..]));
        assert_eq!(r.prefixed32(), Some(&b"value"[..]));
        assert_eq!(r.remaining(), 4);
        assert_eq!(r.rest(), b"tail");
        assert_eq!(r.rest(), b"", "rest takes everything once");
        assert_eq!(r.finish(), Some(()));
        // A prefix longer than what follows is refused, not clamped.
        assert_eq!(Reader::new(&[5, 0, 1, 2]).prefixed(), None);
        assert_eq!(Reader::new(&[5, 0, 0, 0, 1]).prefixed32(), None);
        assert_eq!(Reader::new(&[1, 2]).finish(), None);
    }

    #[test]
    fn a_count_the_rest_cannot_hold_is_refused_before_it_sizes_anything() {
        // 3 entries of ≥ 4 bytes need 12 bytes; 12 follow, then 11.
        let mut wire = vec![3, 0];
        wire.extend_from_slice(&[0; 12]);
        assert_eq!(Reader::new(&wire).count16(4), Some(3));
        assert_eq!(Reader::new(&wire[..13]).count16(4), None);
        // The allocation bombs: a count field of all ones.
        assert_eq!(Reader::new(&[0xFF; 2]).count16(1), None);
        assert_eq!(Reader::new(&[0xFF; 4]).count32(1), None);
        let mut r = Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0]);
        assert_eq!(r.count32(12), None);
        // Zero entries are always holdable; a zero minimum counts as one.
        assert_eq!(Reader::new(&[0, 0]).count16(9), Some(0));
        assert_eq!(Reader::new(&[2, 0, 7, 7]).count16(0), Some(2));
        assert_eq!(Reader::new(&[3, 0, 7, 7]).count16(0), None);
    }

    /// A small format with every feature the contract names: a tag, a
    /// counted list, a prefixed string, an exact end.
    type Pairs = (u8, Vec<(u16, u64)>, String);

    fn encode_pairs(v: &Pairs) -> Vec<u8> {
        let mut out = vec![v.0];
        out.extend_from_slice(&(v.1.len() as u32).to_le_bytes());
        for (a, b) in &v.1 {
            out.extend_from_slice(&a.to_le_bytes());
            out.extend_from_slice(&b.to_le_bytes());
        }
        put_prefixed(&mut out, v.2.as_bytes());
        out
    }

    fn decode_pairs(bytes: &[u8]) -> Option<Pairs> {
        let mut r = Reader::new(bytes);
        let tag = r.u8().filter(|t| *t < 4)?;
        let count = r.count32(10)?;
        let mut pairs = Vec::with_capacity(count);
        for _ in 0..count {
            pairs.push((r.u16()?, r.u64()?));
        }
        let name = std::str::from_utf8(r.prefixed()?).ok()?.to_string();
        r.finish()?;
        Some((tag, pairs, name))
    }

    fn gen_pairs(rng: &mut StdRng) -> Pairs {
        let pairs = (0..rng.gen_range(0..6u32))
            .map(|_| (rng.gen(), rng.gen()))
            .collect();
        let name = "wire".repeat(rng.gen_range(0..3usize));
        (rng.gen_range(0..4u32) as u8, pairs, name)
    }

    #[test]
    fn the_sweep_accepts_a_decoder_that_keeps_the_contract() {
        let bomb = [1, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0];
        sweep(
            "pairs",
            Tail::Exact,
            &[&bomb],
            gen_pairs,
            encode_pairs,
            decode_pairs,
        );
    }

    #[test]
    #[should_panic(expected = "prefix of")]
    fn the_sweep_catches_a_decoder_that_forgets_to_finish() {
        let lenient = |bytes: &[u8]| {
            let mut r = Reader::new(bytes);
            Some((r.u8()?, Vec::new(), String::new()))
        };
        let one_byte = |rng: &mut StdRng| (rng.gen::<u8>(), Vec::new(), String::new());
        sweep("lenient", Tail::Exact, &[], one_byte, encode_pairs, lenient);
    }
}
