//! # pds-crypto — cryptographic substrate of the PDS ecosystem
//!
//! Part III of the EDBT'14 tutorial compares three routes to secure global
//! computation: generic SMC / fully homomorphic encryption ("cost is
//! (incredibly) high"), per-application toolkits ([CKV+02]), and trusted
//! hardware with conventional cryptography. Reproducing those comparisons
//! requires *working implementations* of every primitive involved, built
//! from scratch on the sanctioned dependency set:
//!
//! * [`BigUint`] — arbitrary-precision unsigned arithmetic (schoolbook
//!   multiplication, Knuth-D division, Montgomery windowed modular
//!   exponentiation for odd moduli, Miller–Rabin, extended Euclid) sized
//!   for 1024–2048-bit moduli.
//! * [`paillier`] — the additively homomorphic cryptosystem the tutorial
//!   uses as its homomorphic-encryption exemplar
//!   (`E(p1)·E(p2) = E(p1+p2)`).
//! * [`hash`] — SHA-256, the hash behind MACs, Merkle trees and Bloom
//!   filters.
//! * [`sym`] — symmetric encryption in the two flavors the [TNP14\]
//!   protocols distinguish: *deterministic* (equal plaintexts ⇒ equal
//!   ciphertexts, enabling the SSI to group opaque values) and
//!   *probabilistic* (non-deterministic, revealing nothing).
//! * [`mac`] — HMAC-SHA256 message authentication (the "security
//!   primitives" that turn a weakly malicious SSI into a detectable one).
//! * [`merkle`] — Merkle trees and hash chains for tamper-evident audit
//!   logs.
//! * [`bloom`] — the ~2 bytes/key Bloom filters of the PBFilter index.
//! * [`commutative`] — an SRA/Pohlig–Hellman-style commutative cipher, the
//!   engine of the toolkit's secure set union / set intersection size.
//!
//! ## Security disclaimer
//!
//! These are *functional reproductions* for a systems paper, implemented
//! honestly but neither constant-time nor side-channel hardened. Do not
//! protect real personal data with them.

pub mod bloom;
pub mod commutative;
pub mod hash;
pub mod mac;
pub mod merkle;
mod mont;
pub mod num;
pub mod paillier;
pub mod sym;

pub use bloom::{BloomFilter, BloomRef, KeyHash};
pub use commutative::{CommutativeGroup, CommutativeKey};
pub use hash::{sha256, Sha256};
pub use mac::{hmac_sha256, verify_hmac, HmacKey};
pub use merkle::{HashChain, MerkleTree};
pub use num::BigUint;
pub use paillier::{Paillier, PaillierCiphertext, PaillierPrivateKey, PaillierPublicKey};
pub use sym::{Ciphertext, SymmetricKey};
