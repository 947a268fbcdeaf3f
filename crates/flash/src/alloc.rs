//! Block-grain allocation.
//!
//! The tutorial's framework mandates: "Allocation & de-allocation are made
//! on large grains (Flash block basis) … partial garbage collection never
//! occurs (avoids costly GC)". The allocator is therefore a plain free list
//! of erase blocks; a log structure allocates whole blocks as it grows and
//! returns *all* of them when it is dropped or superseded by a
//! reorganization.

use crate::error::{FlashError, Result};
use crate::geometry::BlockId;
use std::collections::VecDeque;

/// Free list of erase blocks.
pub struct BlockAllocator {
    free: VecDeque<BlockId>,
    total: usize,
}

impl BlockAllocator {
    /// All `total` blocks start free, handed out in address order first
    /// time around, then in FIFO reclamation order (a crude but effective
    /// form of wear leveling).
    pub fn new(total: usize) -> Self {
        BlockAllocator {
            free: (0..total as u32).map(BlockId).collect(),
            total,
        }
    }

    /// Number of blocks currently free.
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// An allocator over `total` blocks of which only `free` are
    /// available — the reboot constructor: after a power loss the free
    /// list is re-derived by scanning the chip (erased blocks are free,
    /// programmed ones belong to whichever structure recovers them).
    pub fn with_free(total: usize, free: Vec<BlockId>) -> Self {
        debug_assert!(free.iter().all(|b| (b.0 as usize) < total));
        BlockAllocator {
            free: free.into(),
            total,
        }
    }

    /// Take one block from the pool.
    pub fn alloc(&mut self) -> Result<BlockId> {
        self.free.pop_front().ok_or(FlashError::OutOfBlocks)
    }

    /// Return a block to the pool (content becomes garbage; the chip
    /// erases it lazily on reuse).
    pub fn free(&mut self, bid: BlockId) {
        debug_assert!(!self.free.contains(&bid), "double free of block {}", bid.0);
        self.free.push_back(bid);
    }

    /// Take a *specific* block out of the free list. Returns false if it
    /// was not free. Recovery uses this to re-adopt a log's tail block
    /// that the reboot scan classified as erased (its next pages were
    /// never programmed) and therefore free.
    pub fn claim(&mut self, bid: BlockId) -> bool {
        match self.free.iter().position(|b| *b == bid) {
            Some(i) => {
                self.free.remove(i);
                true
            }
            None => false,
        }
    }

    /// Permanently remove a block from circulation (stuck block whose
    /// erase fails). The block must currently be allocated — the caller
    /// just failed to erase it.
    pub fn retire(&mut self) {
        debug_assert!(self.total > 0);
        self.total -= 1;
    }

    /// Number of blocks still in circulation (total minus retired).
    pub fn capacity(&self) -> usize {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_reuse_spreads_wear() {
        let mut a = BlockAllocator::new(3);
        let b0 = a.alloc().unwrap();
        let b1 = a.alloc().unwrap();
        a.free(b0);
        let b2 = a.alloc().unwrap();
        assert_eq!(b2, BlockId(2), "fresh blocks before recycled ones");
        let b3 = a.alloc().unwrap();
        assert_eq!(b3, b0, "recycled block comes back FIFO");
        assert_eq!(a.free_blocks(), 0);
        a.free(b1);
        assert_eq!(a.free_blocks(), 1);
    }

    #[test]
    fn exhaustion() {
        let mut a = BlockAllocator::new(1);
        a.alloc().unwrap();
        assert_eq!(a.alloc(), Err(FlashError::OutOfBlocks));
    }
}
