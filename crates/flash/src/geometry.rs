//! Chip geometry and addressing.
//!
//! The tutorial's target hardware is "a secure MCU connected to a GB flash
//! chip" — e.g. a secure MicroSD with 4 GB of NAND, or a contactless token
//! with 8 GB. Typical small-page NAND exposes 2 KB pages grouped in blocks
//! of 64 pages; the simulator lets each experiment pick its geometry.

/// Identifier of one erase block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

/// Global page address: `block * pages_per_block + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageAddr(pub u32);

impl PageAddr {
    /// The "null" page address, used as an end-of-chain marker in linked
    /// log structures (chained hash buckets of the embedded search engine).
    pub const NULL: PageAddr = PageAddr(u32::MAX);
}

/// Physical layout of one NAND chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashGeometry {
    /// Bytes per page (the program grain).
    pub page_size: usize,
    /// Pages per erase block (the erase grain).
    pub pages_per_block: usize,
    /// Number of erase blocks on the chip.
    pub blocks: usize,
}

impl FlashGeometry {
    /// Largest page: a record page's 16-bit length prefixes keep their
    /// two high bits for the chunk flags (see [`crate::log`]).
    pub const MAX_PAGE_SIZE: usize = 16 * 1024;

    /// Build a geometry; all dimensions must be non-zero and a page at
    /// most [`MAX_PAGE_SIZE`](Self::MAX_PAGE_SIZE).
    pub fn new(page_size: usize, pages_per_block: usize, blocks: usize) -> Self {
        // pds-lint: allow(panic.assert) — chip geometry is a construction-time
        // constant chosen by the experimenter, never derived from stored data.
        assert!(
            (1..=Self::MAX_PAGE_SIZE).contains(&page_size) && pages_per_block > 0 && blocks > 0,
            "dimensions must be non-zero and a page at most 16 KiB"
        );
        FlashGeometry {
            page_size,
            pages_per_block,
            blocks,
        }
    }

    /// A realistic small-page NAND chip: 2 KB pages, 64 pages/block.
    /// `megabytes` selects the capacity.
    pub fn nand_2k(megabytes: usize) -> Self {
        let block_bytes = 2048 * 64;
        let blocks = (megabytes * 1024 * 1024).div_ceil(block_bytes).max(1);
        FlashGeometry::new(2048, 64, blocks)
    }

    /// Total number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks
    }

    /// Total number of pages.
    pub fn num_pages(&self) -> usize {
        self.blocks * self.pages_per_block
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.num_pages() * self.page_size
    }

    /// The block containing `addr`.
    pub fn block_of(&self, addr: PageAddr) -> BlockId {
        BlockId(addr.0 / self.pages_per_block as u32)
    }

    /// Page offset of `addr` within its block.
    pub fn offset_in_block(&self, addr: PageAddr) -> usize {
        (addr.0 as usize) % self.pages_per_block
    }

    /// First page of a block.
    pub fn first_page_of(&self, bid: BlockId) -> PageAddr {
        PageAddr(bid.0 * self.pages_per_block as u32)
    }

    /// `offset`-th page of a block.
    pub fn page_in_block(&self, bid: BlockId, offset: usize) -> PageAddr {
        debug_assert!(offset < self.pages_per_block);
        PageAddr(bid.0 * self.pages_per_block as u32 + offset as u32)
    }

    /// Address of the `i`-th page of a log laid out over `blocks` in
    /// order; `None` past the last block.
    pub fn log_page(&self, blocks: &[BlockId], i: u32) -> Option<PageAddr> {
        let per = self.pages_per_block as u32;
        let bid = blocks.get((i / per) as usize)?;
        Some(self.page_in_block(*bid, (i % per) as usize))
    }

    /// True if `addr` is a valid page on this chip.
    pub fn contains(&self, addr: PageAddr) -> bool {
        (addr.0 as usize) < self.num_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_arithmetic_round_trips() {
        let geo = FlashGeometry::new(512, 16, 8);
        for b in 0..8u32 {
            for o in 0..16usize {
                let addr = geo.page_in_block(BlockId(b), o);
                assert_eq!(geo.block_of(addr), BlockId(b));
                assert_eq!(geo.offset_in_block(addr), o);
            }
        }
    }

    #[test]
    fn nand_2k_capacity_at_least_requested() {
        let geo = FlashGeometry::nand_2k(4);
        assert!(geo.capacity() >= 4 * 1024 * 1024);
        assert_eq!(geo.page_size, 2048);
        assert_eq!(geo.pages_per_block, 64);
    }

    #[test]
    fn null_page_addr_is_recognized() {
        let geo = FlashGeometry::new(512, 16, 8);
        assert!(!geo.contains(PageAddr::NULL));
    }

    #[test]
    #[should_panic(expected = "16 KiB")]
    fn pages_beyond_the_chunk_length_bits_are_rejected() {
        FlashGeometry::new(FlashGeometry::MAX_PAGE_SIZE + 1, 4, 4);
    }

    #[test]
    fn capacity_is_product_of_dimensions() {
        let geo = FlashGeometry::new(256, 4, 10);
        assert_eq!(geo.num_pages(), 40);
        assert_eq!(geo.capacity(), 10240);
    }
}
