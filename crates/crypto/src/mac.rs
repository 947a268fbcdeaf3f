//! HMAC-SHA256 (RFC 2104).
//!
//! The "security primitives" of Part III: when the supporting server
//! infrastructure is *weakly malicious* (a covert adversary that "does not
//! want to be detected"), tokens attach MACs to the tuples they emit so
//! that any forgery, duplication or alteration by the SSI is detectable on
//! spot-check.
//!
//! `HMAC(k, m) = H((k ⊕ opad) ‖ H((k ⊕ ipad) ‖ m))`: both hashes open
//! with a block the key alone fixes. [`HmacKey`] keeps the two chaining
//! values after those blocks, so a tag costs the message's own blocks
//! plus one — the outer hash is a single compression of the inner digest
//! behind the cached outer pad.

use crate::hash::{compress_words, digest_bytes, sha256, Sha256, H0};

const BLOCK: usize = 64;

/// An HMAC-SHA256 key with its pad blocks already absorbed: the
/// chaining values after `key ⊕ ipad` and after `key ⊕ opad`, 64 bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Absorb `key`'s two pad blocks (a key longer than a block is
    /// hashed first, RFC 2104 §2).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| {
            let mut words = [0u32; 16];
            for (w, k) in words.iter_mut().zip(k.as_chunks::<4>().0) {
                *w = u32::from_be_bytes(*k) ^ u32::from_be_bytes([byte; 4]);
            }
            let mut state = H0;
            compress_words(&mut state, &words);
            state
        };
        HmacKey {
            inner: pad(0x36),
            outer: pad(0x5c),
        }
    }

    /// `HMAC-SHA256(key, message)`.
    pub fn tag(&self, message: &[u8]) -> [u8; 32] {
        let mut inner = Sha256::resume(self.inner, 1);
        inner.update(message);
        // The outer message is always pad ‖ digest: one block of the
        // digest's eight words, 0x80, and the length 512 + 256 bits.
        let mut words = [0u32; 16];
        words[..8].copy_from_slice(&inner.finalize_words());
        words[8] = 0x8000_0000;
        words[15] = 768;
        let mut outer = self.outer;
        compress_words(&mut outer, &words);
        digest_bytes(&outer)
    }

    /// Constant-time-ish tag comparison (length + accumulated XOR).
    pub fn verify(&self, message: &[u8], tag: &[u8]) -> bool {
        if tag.len() != 32 {
            return false;
        }
        let expected = self.tag(message);
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(tag) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

/// Compute `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::new(key).tag(message)
}

/// Constant-time-ish tag comparison (length + accumulated XOR).
pub fn verify_hmac(key: &[u8], message: &[u8], tag: &[u8]) -> bool {
    HmacKey::new(key).verify(message, tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_test_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_test_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_long_key() {
        // Test case 6: 131-byte key (forces the key-hash path).
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verification_accepts_and_rejects() {
        let tag = hmac_sha256(b"k", b"msg");
        assert!(verify_hmac(b"k", b"msg", &tag));
        assert!(!verify_hmac(b"k", b"msg2", &tag));
        assert!(!verify_hmac(b"k2", b"msg", &tag));
        let mut bad = tag;
        bad[31] ^= 1;
        assert!(!verify_hmac(b"k", b"msg", &bad));
        assert!(!verify_hmac(b"k", b"msg", &tag[..31]));
    }

    /// RFC 4231 test cases 1–4, 6 and 7 (5 truncates its tag): key,
    /// message, tag. Cases 6 and 7 carry a 131-byte key, hashed first.
    fn rfc4231() -> Vec<(Vec<u8>, Vec<u8>, &'static str)> {
        vec![
            (
                vec![0x0b; 20],
                b"Hi There".to_vec(),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?".to_vec(),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                vec![0xaa; 20],
                vec![0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                (1..=25).collect(),
                vec![0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                vec![0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                vec![0xaa; 131],
                b"This is a test using a larger than block-size key and a larger \
                  than block-size data. The key needs to be hashed before being \
                  used by the HMAC algorithm."
                    .to_vec(),
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ]
    }

    #[test]
    fn rfc4231_through_the_front_and_a_reused_key() {
        let cases = rfc4231();
        for (key, msg, tag) in &cases {
            assert_eq!(hex(&hmac_sha256(key, msg)), *tag);
        }
        // One `HmacKey` tags every message, in any order, any number of
        // times: a tag leaves nothing behind in the cached pads.
        let k6 = HmacKey::new(&cases[4].0);
        for _ in 0..2 {
            assert_eq!(hex(&k6.tag(&cases[5].1)), cases[5].2);
            assert_eq!(hex(&k6.tag(&cases[4].1)), cases[4].2);
            assert!(k6.verify(&cases[4].1, &k6.tag(&cases[4].1)));
        }
    }

    /// `hmac_sha256` as it stood before the pads were cached, on the
    /// reference hasher.
    fn reference_hmac(key: &[u8], message: &[u8]) -> [u8; 32] {
        use crate::hash::reference::{sha256, Sha256};
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&k.map(|b| b ^ 0x36)).update(message);
        let mut outer = Sha256::new();
        outer.update(&k.map(|b| b ^ 0x5c)).update(&inner.finalize());
        outer.finalize()
    }

    #[test]
    fn equals_the_reference_over_key_and_message_lengths() {
        let bytes: Vec<u8> = (0..400u32).map(|i| (i * 31 + 7) as u8).collect();
        for key_len in [0, 1, 20, 32, 63, 64, 65, 131, 200] {
            let key = &bytes[..key_len];
            let cached = HmacKey::new(key);
            for msg_len in [0, 1, 31, 32, 33, 55, 56, 63, 64, 65, 119, 120, 273, 400] {
                let msg = &bytes[bytes.len() - msg_len..];
                let want = reference_hmac(key, msg);
                assert_eq!(hmac_sha256(key, msg), want, "key {key_len}, msg {msg_len}");
                assert_eq!(cached.tag(msg), want, "key {key_len}, msg {msg_len}");
            }
        }
    }
}
