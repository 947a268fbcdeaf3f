//! Encrypted archive on untrusted storage — the Trusted Cells pattern.
//!
//! Part I: "data must be made highly available, resilient to failure and
//! protected against confidentiality and integrity attacks" while
//! "cryptographic keys must be secured and only accessible by the user" —
//! exactly the weakness of Mydex/Personal.com, where "the cryptographic
//! keys are under the control of the service provider". Here the archive
//! is encrypted *inside* the token with the owner's key; the cloud
//! ([`CloudStore`]) only ever holds ciphertext and cannot alter it
//! undetected (authenticated encryption + Merkle chunk tree).

use pds_crypto::{MerkleTree, SymmetricKey};
use pds_obs::rng::RngCore;

use crate::error::PdsError;

/// Chunk size of the archive (one upload unit).
const CHUNK: usize = 1024;

/// An untrusted storage provider: stores opaque blobs by name. The
/// adversary model lets it read everything it holds and tamper at will —
/// the tests do both.
///
/// Every [`put`](Self::put) is stamped with a store-wide generation, so
/// a client can ask for what changed since the last generation it saw
/// ([`changed_since`](Self::changed_since)) instead of asking name by
/// name. The generation counts puts, nothing else: it says when a blob
/// arrived, which the provider knows anyway.
#[derive(Default)]
pub struct CloudStore {
    /// name → (generation of the put that stored it, chunks).
    blobs: std::collections::HashMap<String, (u64, Vec<Vec<u8>>)>,
    /// Generation of the latest put; 0 before the first.
    generation: u64,
}

impl CloudStore {
    /// An empty provider.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a chunked blob under `name` (overwrites), stamped with the
    /// next generation.
    pub fn put(&mut self, name: &str, chunks: Vec<Vec<u8>>) {
        self.generation += 1;
        self.blobs
            .insert(name.to_string(), (self.generation, chunks));
    }

    /// Fetch a blob.
    pub fn get(&self, name: &str) -> Option<&Vec<Vec<u8>>> {
        self.blobs.get(name).map(|(_, chunks)| chunks)
    }

    /// Generation of the latest put (0 for an empty store).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Every blob put after generation `since`, in name order (the map
    /// underneath is unordered, so the order is fixed here).
    pub fn changed_since(&self, since: u64) -> Vec<(&str, &Vec<Vec<u8>>)> {
        let mut out: Vec<(&str, &Vec<Vec<u8>>)> = self
            .blobs
            .iter()
            .filter(|(_, (generation, _))| *generation > since)
            .map(|(name, (_, chunks))| (name.as_str(), chunks))
            .collect();
        out.sort_unstable_by_key(|(name, _)| *name);
        out
    }

    /// Adversary action: corrupt one byte of one chunk. Not a put: the
    /// generation does not move.
    pub fn tamper(&mut self, name: &str, chunk: usize, byte: usize) {
        if let Some((_, chunks)) = self.blobs.get_mut(name) {
            if let Some(c) = chunks.get_mut(chunk) {
                if let Some(b) = c.get_mut(byte) {
                    *b ^= 0x01;
                }
            }
        }
    }
}

/// An encrypted, integrity-committed archive of one PDS.
pub struct EncryptedArchive {
    /// Merkle root over the ciphertext chunks — the owner keeps this
    /// 32-byte commitment locally (it fits the token).
    root: [u8; 32],
    /// Number of chunks, pinned against truncation.
    num_chunks: usize,
    name: String,
}

impl EncryptedArchive {
    /// Encrypt `plaintext` chunk-by-chunk with the owner key and upload
    /// to the cloud under `name`. Returns the local commitment.
    pub fn publish(
        cloud: &mut CloudStore,
        name: &str,
        key: &SymmetricKey,
        plaintext: &[u8],
        rng: &mut impl RngCore,
    ) -> EncryptedArchive {
        let mut chunks = Vec::new();
        if plaintext.is_empty() {
            chunks.push(key.encrypt_prob(&[], rng).0);
        } else {
            for chunk in plaintext.chunks(CHUNK) {
                chunks.push(key.encrypt_prob(chunk, rng).0);
            }
        }
        let tree = MerkleTree::build(&chunks);
        let archive = EncryptedArchive {
            root: tree.root(),
            num_chunks: chunks.len(),
            name: name.to_string(),
        };
        cloud.put(name, chunks);
        archive
    }

    /// Download, verify (count + Merkle root + authenticated decryption)
    /// and decrypt the archive.
    pub fn restore(&self, cloud: &CloudStore, key: &SymmetricKey) -> Result<Vec<u8>, PdsError> {
        let chunks = cloud
            .get(&self.name)
            .ok_or(PdsError::ArchiveCorrupt("archive missing"))?;
        if chunks.len() != self.num_chunks {
            return Err(PdsError::ArchiveCorrupt("chunk count (truncation?)"));
        }
        let tree = MerkleTree::build(chunks);
        if tree.root() != self.root {
            return Err(PdsError::ArchiveCorrupt("merkle root mismatch"));
        }
        let mut out = Vec::new();
        for c in chunks {
            let plain = key
                .decrypt(&pds_crypto::Ciphertext(c.clone()))
                .ok_or(PdsError::ArchiveCorrupt("authentication failure"))?;
            out.extend_from_slice(&plain);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::rng::SeedableRng;
    use pds_obs::rng::StdRng;

    fn setup() -> (CloudStore, SymmetricKey, StdRng) {
        (
            CloudStore::new(),
            SymmetricKey::from_seed(b"alice-archive"),
            StdRng::seed_from_u64(77),
        )
    }

    #[test]
    fn round_trip() {
        let (mut cloud, key, mut rng) = setup();
        let data: Vec<u8> = (0..5000u32).flat_map(|i| i.to_le_bytes()).collect();
        let archive = EncryptedArchive::publish(&mut cloud, "alice", &key, &data, &mut rng);
        assert_eq!(archive.restore(&cloud, &key).unwrap(), data);
    }

    #[test]
    fn provider_sees_only_ciphertext() {
        let (mut cloud, key, mut rng) = setup();
        let secret = b"diagnosis: hypertension".repeat(50);
        EncryptedArchive::publish(&mut cloud, "alice", &key, &secret, &mut rng);
        let stored: Vec<u8> = cloud
            .get("alice")
            .unwrap()
            .iter()
            .flatten()
            .copied()
            .collect();
        // The plaintext never appears in what the provider holds.
        assert!(!stored
            .windows(b"hypertension".len())
            .any(|w| w == b"hypertension"));
    }

    #[test]
    fn tampering_is_detected() {
        let (mut cloud, key, mut rng) = setup();
        let data = vec![7u8; 4000];
        let archive = EncryptedArchive::publish(&mut cloud, "alice", &key, &data, &mut rng);
        cloud.tamper("alice", 2, 10);
        assert!(matches!(
            archive.restore(&cloud, &key),
            Err(PdsError::ArchiveCorrupt(_))
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let (mut cloud, key, mut rng) = setup();
        let data = vec![7u8; 4000];
        let archive = EncryptedArchive::publish(&mut cloud, "alice", &key, &data, &mut rng);
        // Adversary action: drop a chunk (truncation attack).
        let mut chunks = cloud.get("alice").unwrap().clone();
        chunks.remove(3);
        cloud.put("alice", chunks);
        assert!(matches!(
            archive.restore(&cloud, &key),
            Err(PdsError::ArchiveCorrupt(_))
        ));
    }

    #[test]
    fn wrong_key_cannot_restore() {
        let (mut cloud, key, mut rng) = setup();
        let archive = EncryptedArchive::publish(&mut cloud, "alice", &key, b"secret", &mut rng);
        let other = SymmetricKey::from_seed(b"not-alice");
        assert!(archive.restore(&cloud, &other).is_err());
    }

    #[test]
    fn changed_since_lists_later_puts_in_name_order() {
        let mut cloud = CloudStore::new();
        assert_eq!(cloud.generation(), 0);
        assert!(cloud.changed_since(0).is_empty());
        for name in ["m", "z", "a"] {
            cloud.put(name, vec![name.as_bytes().to_vec()]);
        }
        assert_eq!(cloud.generation(), 3);
        let names = |cloud: &CloudStore, since| -> Vec<String> {
            cloud
                .changed_since(since)
                .into_iter()
                .map(|(n, _)| n.to_string())
                .collect()
        };
        assert_eq!(names(&cloud, 0), ["a", "m", "z"]);
        assert_eq!(names(&cloud, 1), ["a", "z"]);
        assert!(names(&cloud, 3).is_empty());
        // An overwrite is a new put; tampering is not.
        cloud.put("m", vec![b"m2".to_vec()]);
        cloud.tamper("a", 0, 0);
        assert_eq!(cloud.generation(), 4);
        assert_eq!(names(&cloud, 3), ["m"]);
        assert_eq!(cloud.changed_since(3)[0].1, &vec![b"m2".to_vec()]);
    }

    #[test]
    fn empty_payload_round_trips() {
        let (mut cloud, key, mut rng) = setup();
        let archive = EncryptedArchive::publish(&mut cloud, "alice", &key, &[], &mut rng);
        assert_eq!(archive.restore(&cloud, &key).unwrap(), Vec::<u8>::new());
    }
}
