//! Symmetric encryption — deterministic and probabilistic.
//!
//! The [TNP14\] protocol family of Part III hinges on this distinction:
//!
//! * **Probabilistic (non-deterministic) encryption** reveals *nothing* to
//!   the SSI — two encryptions of the same value differ. Used by the
//!   *secure aggregation* protocol, where the SSI can only move opaque
//!   blobs between tokens.
//! * **Deterministic encryption** maps equal plaintexts to equal
//!   ciphertexts, letting the SSI group/partition tuples by equality
//!   without learning the values. Used by the *noise-based* protocols
//!   (with fake tuples to drown the frequency leakage).
//!
//! Construction: a SHA-256-based counter-mode stream cipher. The
//! deterministic mode derives the IV from the plaintext (SIV style), the
//! probabilistic mode draws it at random. An HMAC tag gives authenticated
//! encryption — the tokens of Part III must detect ciphertext forgery by a
//! weakly malicious SSI.
//!
//! What a message pays for is what depends on it. Keystream block `ctr`
//! is `SHA-256(enc ‖ iv ‖ ctr)`, a 56-byte message and therefore always
//! two compressions: the block `enc ‖ iv ‖ ctr ‖ 0x80 0⁷`, whose sixteen
//! words are built once per message (only the counter's two change), and
//! the padding block `0⁵⁶ ‖ 448`, which nothing determines — its round
//! inputs are a compile-time table. The HMAC pad blocks depend on the key
//! alone and are absorbed once, in [`SymmetricKey::from_seed`]; after it
//! a key computes no pad block again. DESIGN.md (pds-crypto) has the
//! block layout and the measurements.

use crate::hash::{compress_inputs, compress_words, digest_bytes, round_inputs, H0};
use crate::mac::{hmac_sha256, HmacKey};
use pds_obs::rng::RngCore;

/// Length of the IV / tag prefix.
const IV_LEN: usize = 16;
const TAG_LEN: usize = 16;

/// Encryption mode marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncMode {
    /// Equal plaintexts ⇒ equal ciphertexts (SIV).
    Deterministic,
    /// Fresh randomness per encryption.
    Probabilistic,
}

/// A self-describing ciphertext: `mode ‖ iv ‖ body ‖ tag`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ciphertext(pub Vec<u8>);

impl Ciphertext {
    /// Serialized length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Always false — ciphertexts carry at least the header.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Raw bytes (what travels to the SSI).
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// A symmetric key shared by the token population.
///
/// In the tutorial's architecture every PDS is issued the same protocol
/// key by the trusted manufacturer (tokens are "elements of trust" that
/// trust each other); the SSI never sees it.
#[derive(Clone, PartialEq, Eq)]
pub struct SymmetricKey {
    /// Encryption subkey.
    enc: [u8; 32],
    /// MAC subkey (key separation).
    mac: [u8; 32],
    /// `mac` with its HMAC pad blocks absorbed, once, here.
    mac_key: HmacKey,
}

/// Round inputs of the second block of every keystream hash. The hashed
/// message is always 56 bytes, so its padding is always the 0x80 that
/// closes the first block and then this block: 56 zero bytes and the
/// length, 448 bits.
const KEYSTREAM_PADDING: [u32; 64] =
    round_inputs([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 448]);

impl SymmetricKey {
    /// Derive a key pair from seed material.
    pub fn from_seed(seed: &[u8]) -> Self {
        let mac = hmac_sha256(b"pds-mac", seed);
        SymmetricKey {
            enc: hmac_sha256(b"pds-enc", seed),
            mac,
            mac_key: HmacKey::new(&mac),
        }
    }

    /// The MAC subkey, for protocols that authenticate plaintext tuples
    /// directly (spot-checking). Only tokens ever hold a `SymmetricKey`,
    /// so exposing the subkey does not widen the trust boundary.
    pub fn mac_key_bytes(&self) -> &[u8; 32] {
        &self.mac
    }

    /// [`mac_key_bytes`](Self::mac_key_bytes) ready to tag and verify:
    /// the same subkey with its pad blocks already absorbed.
    pub fn mac_key(&self) -> &HmacKey {
        &self.mac_key
    }

    /// A fresh random key.
    pub fn random(rng: &mut impl RngCore) -> Self {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Self::from_seed(&seed)
    }

    /// XOR `data` with the keystream `SHA-256(enc ‖ iv ‖ ctr)`, `ctr` a
    /// little-endian u64 counting 32-byte blocks from 0. Each hash is two
    /// compressions: the block `enc ‖ iv ‖ ctr ‖ 0x80 0⁷`, of which only
    /// the counter's two words change within a message, and the constant
    /// [`KEYSTREAM_PADDING`].
    fn keystream_xor(&self, iv: &[u8; IV_LEN], data: &mut [u8]) {
        let mut words = [0u32; 16];
        let key_iv = self
            .enc
            .as_chunks::<4>()
            .0
            .iter()
            .chain(iv.as_chunks::<4>().0);
        for (w, b) in words.iter_mut().zip(key_iv) {
            *w = u32::from_be_bytes(*b);
        }
        words[14] = 0x8000_0000;
        for (counter, chunk) in (0u64..).zip(data.chunks_mut(32)) {
            // The counter's little-endian bytes, read as big-endian words.
            words[12] = (counter as u32).swap_bytes();
            words[13] = ((counter >> 32) as u32).swap_bytes();
            let mut state = H0;
            compress_words(&mut state, &words);
            compress_inputs(&mut state, &KEYSTREAM_PADDING);
            for (d, k) in chunk.iter_mut().zip(digest_bytes(&state)) {
                *d ^= k;
            }
        }
    }

    fn seal(&self, mode: EncMode, iv: [u8; IV_LEN], plaintext: &[u8]) -> Ciphertext {
        let mode_byte = match mode {
            EncMode::Deterministic => 0u8,
            EncMode::Probabilistic => 1u8,
        };
        let mut out = Vec::with_capacity(1 + IV_LEN + plaintext.len() + TAG_LEN);
        out.push(mode_byte);
        out.extend_from_slice(&iv);
        let body_start = out.len();
        out.extend_from_slice(plaintext);
        self.keystream_xor(&iv, &mut out[body_start..]);
        let tag = self.mac_key.tag(&out);
        out.extend_from_slice(&tag[..TAG_LEN]);
        Ciphertext(out)
    }

    /// Deterministic (SIV) encryption: the IV is a PRF of the plaintext,
    /// so equal plaintexts produce byte-identical ciphertexts.
    pub fn encrypt_det(&self, plaintext: &[u8]) -> Ciphertext {
        let siv_full = self.mac_key.tag(plaintext);
        let mut iv = [0u8; IV_LEN];
        iv.copy_from_slice(&siv_full[..IV_LEN]);
        self.seal(EncMode::Deterministic, iv, plaintext)
    }

    /// Probabilistic encryption: fresh random IV per call.
    pub fn encrypt_prob(&self, plaintext: &[u8], rng: &mut impl RngCore) -> Ciphertext {
        let mut iv = [0u8; IV_LEN];
        rng.fill_bytes(&mut iv);
        self.seal(EncMode::Probabilistic, iv, plaintext)
    }

    /// Decrypt and authenticate; `None` on any tampering or truncation.
    pub fn decrypt(&self, ct: &Ciphertext) -> Option<Vec<u8>> {
        let raw = &ct.0;
        if raw.len() < 1 + IV_LEN + TAG_LEN {
            return None;
        }
        let (payload, tag) = raw.split_at(raw.len() - TAG_LEN);
        let expected = self.mac_key.tag(payload);
        let mut diff = 0u8;
        for (a, b) in expected[..TAG_LEN].iter().zip(tag) {
            diff |= a ^ b;
        }
        if diff != 0 {
            return None;
        }
        let mode = payload[0];
        let mut iv = [0u8; IV_LEN];
        iv.copy_from_slice(&payload[1..=IV_LEN]);
        let mut body = payload[1 + IV_LEN..].to_vec();
        self.keystream_xor(&iv, &mut body);
        // SIV re-check: the deterministic IV must match the plaintext.
        if mode == 0 {
            let siv = self.mac_key.tag(&body);
            if siv[..IV_LEN] != iv {
                return None;
            }
        }
        Some(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::rng::StdRng;
    use pds_obs::rng::{Rng, SeedableRng};

    fn key() -> SymmetricKey {
        SymmetricKey::from_seed(b"test-seed")
    }

    #[test]
    fn det_round_trip_and_equality() {
        let k = key();
        let c1 = k.encrypt_det(b"Lyon");
        let c2 = k.encrypt_det(b"Lyon");
        let c3 = k.encrypt_det(b"Paris");
        assert_eq!(c1, c2, "deterministic: equal plaintexts, equal ciphertexts");
        assert_ne!(c1, c3);
        assert_eq!(k.decrypt(&c1).unwrap(), b"Lyon");
    }

    #[test]
    fn prob_round_trip_and_inequality() {
        let k = key();
        let mut rng = StdRng::seed_from_u64(9);
        let c1 = k.encrypt_prob(b"Lyon", &mut rng);
        let c2 = k.encrypt_prob(b"Lyon", &mut rng);
        assert_ne!(c1, c2, "probabilistic: fresh randomness each time");
        assert_eq!(k.decrypt(&c1).unwrap(), b"Lyon");
        assert_eq!(k.decrypt(&c2).unwrap(), b"Lyon");
    }

    #[test]
    fn tampering_is_detected() {
        let k = key();
        let mut rng = StdRng::seed_from_u64(10);
        let mut c = k.encrypt_prob(b"secret", &mut rng);
        let last = c.0.len() - 1;
        c.0[last] ^= 1; // flip tag bit
        assert!(k.decrypt(&c).is_none());
        let mut c2 = k.encrypt_prob(b"secret", &mut rng);
        c2.0[20] ^= 1; // flip body bit
        assert!(k.decrypt(&c2).is_none());
        assert!(k.decrypt(&Ciphertext(vec![0; 5])).is_none(), "truncated");
    }

    #[test]
    fn wrong_key_fails() {
        let k = key();
        let other = SymmetricKey::from_seed(b"other");
        let c = k.encrypt_det(b"data");
        assert!(other.decrypt(&c).is_none());
    }

    #[test]
    fn empty_plaintext_works() {
        let k = key();
        let c = k.encrypt_det(b"");
        assert_eq!(k.decrypt(&c).unwrap(), Vec::<u8>::new());
    }

    fn rand_bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
        let mut v = vec![0u8; rng.gen_range(0..max_len)];
        rng.fill(&mut v);
        v
    }

    #[test]
    fn prop_round_trips() {
        let mut meta = StdRng::seed_from_u64(0x5E55);
        for case in 0..64u64 {
            let data = rand_bytes(&mut meta, 200);
            let k = key();
            let mut rng = StdRng::seed_from_u64(meta.gen());
            let cd = k.encrypt_det(&data);
            assert_eq!(k.decrypt(&cd).unwrap(), data.clone(), "case {case}");
            let cp = k.encrypt_prob(&data, &mut rng);
            assert_eq!(k.decrypt(&cp).unwrap(), data, "case {case}");
        }
    }

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Ciphertexts of `(i * 7 + 3) mod 256` repeated to each length,
    /// under `key()`: the whole ciphertext in hex up to 33 plaintext
    /// bytes, its SHA-256 beyond. The lengths straddle every edge of the
    /// construction — empty, one keystream block ± 1, the 55/56-byte
    /// padding edge of SHA-256, one and several compression blocks.
    const GOLDEN: [(usize, &str, &str); 14] = [
        (
            0,
            "00c6f421a7ef4f3dbf21b6e842283574d8f29a289806d2979cdf0afbececd3c02c",
            "0137baacc6eba44707d470a1767ab9d937ba62aba23e6ae31a29742f16ebf9ec30",
        ),
        (
            1,
            "009bb1655ae197185cece83104f04194d7d718f21b76229ae73b4a5f154466fb7bb8",
            "01824a58d7cabede7316f418ca7ea110d454a7caf1f335ea18774e679fbe0e753637",
        ),
        (
            15,
            "0031981ac6bae57a02ce533fd5b3f23ed4c071eede9abf7a48a76266423188bcb922e476ba4ddbbe0f14f2505be26ebe",
            "01bdc07becd0e7c8a9e4ce094b4cfb90781f3892e9a45f0b8928a6f7ad9f92a95a2a0ec83282906764e8dbd7e88f2a3d",
        ),
        (
            31,
            "00827c7eae4dc4b3ea1946ca1035c253a69202a9e016a07eb4b075ea022e926d15f2f1b28e7270387f0437c5bb7879217491d243c04a428639873154dab697ba",
            "01a627f21f65dfd38d2981f4708250cf03fa200fa483e8b1f610c5928ced61415df633482ae8163d8c65cc92c42c74081f23ef02da167b24ce41f66d910a6ab1",
        ),
        (
            32,
            "00f164bc50ffaf4c329b8a9b1508b373355e95e7275edcaa719c032b0809c54e4368ca778e9b5e93b49aae0e79e8e0cb28f5c2dd0ccd83210f81ffce03c4938537",
            "013f591db5b4e8d19d9840283415ae167a2fae3afd3c0b0eba7fe3169dbb4be25a271f5a7b7c3c90dfef52402b9ca1032293dabd35719eedd7c0c7794c67544d8b",
        ),
        (
            33,
            "00961b1f47720d5b514e2b323906cbe5365c3e01e1fd00d63730d0c3ea4dac91d2248bf115452822cc2696eb7c0951a55033eed97bd84b9e60e2c7c2bf5d8bd0a3c4",
            "013ea2f4f5882e09057494bb071b5c272f55223b294aeb6905bf4893e2aa88ea59477330cef17a06c2d56157f99c25a2c5e3fdd8458c48b9676e7c48eda1e5be391b",
        ),
        (
            55,
            "696e9474d296437e092d13f130b34043c658d3c611f0c3b667c458a64e6595d9",
            "14d2b8df466d128860ac0f7fe3b1ae8243a6912fb69f6e9d74b7ec41145c29c9",
        ),
        (
            56,
            "6e4570368e37a1c1df4815fc19622fb5ccedb897f3805ecda22229b36d1f0340",
            "73b982bb9cf0b5e45129fd37401a52dff6c6cbab7ff505a3bca6c88a34521b51",
        ),
        (
            63,
            "1499e87d03e5558fefbfbc9517768b484247260887a30eda8f7e80aedbd6a052",
            "ecb44a3fca7e3f12073c3577319cf22e7ac35b0b48193298ca48778453e1327f",
        ),
        (
            64,
            "3df022077b93cdc9357e2a211f5fb6408d9e55f9e6b7073515b082a1a7328824",
            "aec178cf2830288f8b848b36a244eb5b3c8c7c4f6f708730383e3c8b5a2c4f03",
        ),
        (
            65,
            "2a1486e280de541bec4b8652ee08b4cbe6b082443e6f3cae799e0232ac2a190f",
            "4604ca84e55014c3880427dd7dddb2552c3a6c4ed30f489614697d9517181ce7",
        ),
        (
            100,
            "4b17ebf34eaf817cfe7d8e806377089ca5a5363547cb03d2914f9445d33ad950",
            "970ada424b8315bd9f2ccae137dc86a98b925444d2d010d3e8d8e900e0a682e0",
        ),
        (
            256,
            "5427951865c6ad0560871aad2a4e91c921201e5dc8b06d299936ff4f5236ecc8",
            "d49d03e019a76bd6d090f6cf3a569d37f2f72f28ffa218f22acf824b8100bc31",
        ),
        (
            1000,
            "6acaa731f946454510a349667c52d9cdd7fcb84bad36ca7f28dfb161045709a6",
            "57d0bf335d43f213f085f33f717c44a1c2fb476d59cc7ad20b24cc4c985a9e41",
        ),
    ];

    #[test]
    fn golden_ciphertexts_are_pinned() {
        let k = key();
        for (len, det, prob) in GOLDEN {
            let plain: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let show = |ct: &Ciphertext| {
                if len <= 33 {
                    hex(&ct.0)
                } else {
                    hex(&crate::hash::sha256(&ct.0))
                }
            };
            let cd = k.encrypt_det(&plain);
            assert_eq!(show(&cd), det, "encrypt_det, {len} bytes");
            let mut rng = StdRng::seed_from_u64(0x601D ^ len as u64);
            let cp = k.encrypt_prob(&plain, &mut rng);
            assert_eq!(show(&cp), prob, "encrypt_prob, {len} bytes");
            assert_eq!(k.decrypt(&cd).as_deref(), Some(plain.as_slice()));
            assert_eq!(k.decrypt(&cp).as_deref(), Some(plain.as_slice()));
        }
    }

    #[test]
    fn prop_det_is_injective_on_samples() {
        let mut rng = StdRng::seed_from_u64(0x171);
        for _ in 0..64 {
            let a = rand_bytes(&mut rng, 50);
            let b = rand_bytes(&mut rng, 50);
            let k = key();
            if a != b {
                assert_ne!(k.encrypt_det(&a), k.encrypt_det(&b));
            }
        }
    }
}
