//! Merkle trees and hash chains — the integrity substrate.
//!
//! Part I requires that personal data be "protected against confidentiality
//! and integrity attacks" even when archived on untrusted storage (the
//! Trusted Cells vision uses "the cloud as a storage service for encrypted
//! data"), and Part III's accountability requirement ("users must not lose
//! control over their data through data sharing") needs a tamper-evident
//! audit trail. [`MerkleTree`] authenticates an archived collection with
//! logarithmic proofs; [`HashChain`] makes an append-only audit log
//! tamper-evident.

use crate::hash::{sha256, Sha256};

/// Domain-separation prefixes (leaf vs node), preventing second-preimage
/// tree splicing.
const LEAF_PREFIX: &[u8] = b"\x00";
const NODE_PREFIX: &[u8] = b"\x01";

fn leaf_hash(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(LEAF_PREFIX).update(data);
    h.finalize()
}

fn node_hash(l: &[u8; 32], r: &[u8; 32]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(NODE_PREFIX).update(l).update(r);
    h.finalize()
}

/// A binary Merkle tree over a list of byte strings.
pub struct MerkleTree {
    /// levels[0] = leaf hashes, last level = [root].
    levels: Vec<Vec<[u8; 32]>>,
}

/// One step of an inclusion proof: the sibling hash and its side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofStep {
    /// The sibling node hash.
    pub sibling: [u8; 32],
    /// True if the sibling is on the right of the path node.
    pub sibling_is_right: bool,
}

impl MerkleTree {
    /// Build a tree over `items` (odd levels duplicate the last node).
    /// Empty input yields a tree whose root is the hash of the empty
    /// string, so every collection has a commitment.
    pub fn build<T: AsRef<[u8]>>(items: &[T]) -> Self {
        if items.is_empty() {
            return MerkleTree {
                levels: vec![vec![sha256(b"")]],
            };
        }
        let mut cur: Vec<[u8; 32]> = items.iter().map(|i| leaf_hash(i.as_ref())).collect();
        let mut levels = Vec::new();
        while cur.len() > 1 {
            let mut next = Vec::with_capacity(cur.len().div_ceil(2));
            for pair in cur.chunks(2) {
                let l = &pair[0];
                let r = pair.get(1).unwrap_or(l);
                next.push(node_hash(l, r));
            }
            levels.push(std::mem::replace(&mut cur, next));
        }
        levels.push(cur);
        MerkleTree { levels }
    }

    /// The root commitment.
    pub fn root(&self) -> [u8; 32] {
        self.levels.last().unwrap()[0]
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// True if built over the empty collection.
    pub fn is_empty(&self) -> bool {
        self.levels.len() == 1 && self.levels[0].len() == 1
    }

    /// Inclusion proof for leaf `index`.
    pub fn prove(&self, index: usize) -> Option<Vec<ProofStep>> {
        if index >= self.levels[0].len() {
            return None;
        }
        let mut proof = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = idx ^ 1;
            let sibling = *level.get(sibling_idx).unwrap_or(&level[idx]);
            proof.push(ProofStep {
                sibling,
                sibling_is_right: sibling_idx > idx,
            });
            idx /= 2;
        }
        Some(proof)
    }

    /// Verify an inclusion proof against a root.
    pub fn verify(root: &[u8; 32], item: &[u8], proof: &[ProofStep]) -> bool {
        let mut acc = leaf_hash(item);
        for step in proof {
            acc = if step.sibling_is_right {
                node_hash(&acc, &step.sibling)
            } else {
                node_hash(&step.sibling, &acc)
            };
        }
        &acc == root
    }
}

/// A tamper-evident append-only hash chain, for audit logs:
/// `head_i = H(head_{i-1} ‖ entry_i)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashChain {
    head: [u8; 32],
    entries: u64,
}

impl Default for HashChain {
    fn default() -> Self {
        Self::new()
    }
}

impl HashChain {
    /// A fresh chain with a fixed genesis head.
    pub fn new() -> Self {
        HashChain {
            head: sha256(b"pds-audit-genesis"),
            entries: 0,
        }
    }

    /// Append one entry, advancing the head.
    pub fn append(&mut self, entry: &[u8]) {
        let mut h = Sha256::new();
        h.update(&self.head).update(entry);
        self.head = h.finalize();
        self.entries += 1;
    }

    /// Current head (commit to this externally to detect truncation).
    pub fn head(&self) -> [u8; 32] {
        self.head
    }

    /// Number of appended entries.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True if nothing was appended.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Recompute a chain over `entries` and check it matches this head —
    /// the audit verification a user (or judge) performs.
    pub fn verify_entries<T: AsRef<[u8]>>(&self, entries: impl IntoIterator<Item = T>) -> bool {
        let mut replay = HashChain::new();
        for e in entries {
            replay.append(e.as_ref());
        }
        replay.head == self.head && replay.entries == self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::rng::{Rng, RngCore, SeedableRng, StdRng};

    #[test]
    fn proofs_verify_for_every_leaf() {
        for n in [1usize, 2, 3, 4, 5, 8, 13] {
            let items: Vec<Vec<u8>> = (0..n).map(|i| format!("item-{i}").into_bytes()).collect();
            let tree = MerkleTree::build(&items);
            for (i, item) in items.iter().enumerate() {
                let proof = tree.prove(i).unwrap();
                assert!(
                    MerkleTree::verify(&tree.root(), item, &proof),
                    "n={n}, i={i}"
                );
            }
        }
    }

    #[test]
    fn wrong_item_or_proof_fails() {
        let items = [b"a".to_vec(), b"b".to_vec(), b"c".to_vec()];
        let tree = MerkleTree::build(&items);
        let proof = tree.prove(1).unwrap();
        assert!(!MerkleTree::verify(&tree.root(), b"x", &proof));
        let mut bad = proof.clone();
        bad[0].sibling[0] ^= 1;
        assert!(!MerkleTree::verify(&tree.root(), b"b", &bad));
        assert!(tree.prove(3).is_none());
    }

    #[test]
    fn roots_differ_on_any_change() {
        let t1 = MerkleTree::build(&[b"a".to_vec(), b"b".to_vec()]);
        let t2 = MerkleTree::build(&[b"a".to_vec(), b"c".to_vec()]);
        let t3 = MerkleTree::build(&[b"a".to_vec()]);
        assert_ne!(t1.root(), t2.root());
        assert_ne!(t1.root(), t3.root());
    }

    #[test]
    fn empty_tree_has_stable_root() {
        let t = MerkleTree::build::<Vec<u8>>(&[]);
        assert!(t.is_empty());
        assert_eq!(t.root(), MerkleTree::build::<Vec<u8>>(&[]).root());
    }

    #[test]
    fn hash_chain_detects_tampering() {
        let entries = vec![b"grant".to_vec(), b"read".to_vec(), b"share".to_vec()];
        let mut chain = HashChain::new();
        for e in &entries {
            chain.append(e);
        }
        assert!(chain.verify_entries(&entries));
        let mut altered = entries.clone();
        altered[1] = b"READ".to_vec();
        assert!(!chain.verify_entries(&altered));
        let truncated = &entries[..2];
        assert!(!chain.verify_entries(truncated));
    }

    #[test]
    fn prop_all_proofs_verify() {
        for case in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(0x3E61 + case);
            let items: Vec<Vec<u8>> = (0..rng.gen_range(1usize..40))
                .map(|_| {
                    let mut it = vec![0u8; rng.gen_range(0usize..20)];
                    rng.fill_bytes(&mut it);
                    it
                })
                .collect();
            let tree = MerkleTree::build(&items);
            for (i, item) in items.iter().enumerate() {
                let proof = tree.prove(i).unwrap();
                assert!(
                    MerkleTree::verify(&tree.root(), item, &proof),
                    "case {case}, leaf {i}"
                );
            }
        }
    }
}
