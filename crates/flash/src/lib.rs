//! # pds-flash — NAND flash simulator and log-structured storage substrate
//!
//! The EDBT'14 tutorial *Managing Personal Data with Strong Privacy
//! Guarantees* builds every embedded data structure on raw NAND flash with
//! three hard constraints:
//!
//! 1. **Pages are erased before write** — a page can only be programmed when
//!    its block has been erased, and only once per erase cycle.
//! 2. **Erase by block vs. write by page** — erasure is only possible at
//!    block granularity (typically 64 pages), making in-place updates and
//!    random writes prohibitively expensive.
//! 3. **Random writes are costly** — data structures "must avoid random
//!    writes" by construction.
//!
//! This crate provides:
//!
//! * [`NandFlash`] — a chip model that *enforces* the constraints: it
//!   rejects programming a non-erased page and out-of-order programming
//!   inside a block, and counts every page read, page program and block
//!   erase under a calibrated latency model ([`CostModel`]).
//! * [`BlockAllocator`] — block-grain allocation/reclamation, the only
//!   legal grain per the tutorial ("allocation & de-allocation are made on
//!   large grains (Flash block basis) … partial garbage collection never
//!   occurs").
//! * [`Log`] / [`LogWriter`] — the append-only *Log* abstraction of Part II:
//!   "pages are written sequentially (and never updated nor moved)".
//! * [`Flash`] — a cheaply clonable handle sharing one chip between the many
//!   logs of a personal data server.
//!
//! Everything is deterministic and single-threaded: the secure portable
//! token of the tutorial is a single-user, single-MCU device.

pub mod alloc;
pub mod blackbox;
pub mod changelog;
pub mod cost;
pub mod error;
pub mod fault;
pub mod geometry;
pub mod log;
pub mod nand;
mod proptests;
pub mod stats;

pub use alloc::BlockAllocator;
pub use blackbox::{BlackBox, BlackboxRecovery, RING_BLOCKS};
pub use changelog::{ChangeLog, ChangeRec};
pub use cost::CostModel;
pub use error::{FlashError, Result};
pub use fault::{FaultPlan, ProgramFault};
pub use geometry::{BlockId, FlashGeometry, PageAddr};
pub use log::{Log, LogPos, LogReader, LogWriter, RecoveryReport, PAGE_RECORD};
pub use nand::{ChipSnapshot, NandFlash};
pub use stats::IoStats;

use std::cell::RefCell;
use std::rc::Rc;

/// A cheaply clonable, shared handle on one NAND chip plus its block
/// allocator.
///
/// A personal data server hosts many independent log structures (key logs,
/// Bloom-filter summaries, inverted-index buckets, document stores …) on a
/// single flash chip; they all allocate blocks from the same pool and share
/// the same I/O statistics. `Flash` is the handle they share.
///
/// The simulation is single-threaded (one secure MCU), so interior
/// mutability via `RefCell` is sufficient and keeps the embedded code free
/// of lock overhead.
#[derive(Clone)]
pub struct Flash {
    inner: Rc<RefCell<FlashInner>>,
}

struct FlashInner {
    nand: NandFlash,
    alloc: BlockAllocator,
}

impl Flash {
    /// Create a chip with the given geometry and the default cost model.
    pub fn new(geo: FlashGeometry) -> Self {
        let nand = NandFlash::new(geo, CostModel::default());
        let alloc = BlockAllocator::new(geo.num_blocks());
        Flash {
            inner: Rc::new(RefCell::new(FlashInner { nand, alloc })),
        }
    }

    /// A small chip suitable for unit tests: 512-byte pages, 16 pages per
    /// block, `blocks` blocks.
    pub fn small(blocks: usize) -> Self {
        Flash::new(FlashGeometry::new(512, 16, blocks))
    }

    /// The chip geometry.
    pub fn geometry(&self) -> FlashGeometry {
        self.inner.borrow().nand.geometry()
    }

    /// Snapshot of the cumulative I/O statistics.
    pub fn stats(&self) -> IoStats {
        self.inner.borrow().nand.stats()
    }

    /// Reset the I/O counters (used between benchmark phases).
    pub fn reset_stats(&self) {
        self.inner.borrow_mut().nand.reset_stats();
    }

    /// Number of blocks still available for allocation.
    pub fn free_blocks(&self) -> usize {
        self.inner.borrow().alloc.free_blocks()
    }

    /// Highest erase count over all blocks — the wear-leveling metric
    /// (NAND endurance is per block; the most-worn block dies first).
    pub fn max_erase_count(&self) -> u64 {
        let inner = self.inner.borrow();
        let geo = inner.nand.geometry();
        (0..geo.num_blocks() as u32)
            .map(|b| inner.nand.erase_count(BlockId(b)))
            .max()
            .unwrap_or(0)
    }

    /// Allocate one erased block, erasing it lazily if it was reclaimed.
    ///
    /// A reclaimed block whose erase fails ([`FlashError::StuckBlock`],
    /// worn-out cells) is *retired* — dropped from circulation, counted
    /// under `flash.blocks_retired` — and the next free block is tried:
    /// one bad block must not brick the token.
    pub fn alloc_block(&self) -> Result<BlockId> {
        let mut inner = self.inner.borrow_mut();
        let FlashInner { nand, alloc } = &mut *inner;
        loop {
            let bid = alloc.alloc()?;
            if nand.block_is_erased(bid) {
                return Ok(bid);
            }
            match nand.erase_block(bid) {
                Ok(()) => return Ok(bid),
                Err(FlashError::StuckBlock(_)) => {
                    alloc.retire();
                    pds_obs::counter("flash.blocks_retired").inc();
                    pds_obs::event!(
                        pds_obs::Severity::Warn,
                        pds_obs::flight::subsystem::FLASH,
                        pds_obs::flight::code::FLASH_BLOCK_RETIRED,
                        bid.0
                    );
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Return a block to the free pool. The content becomes garbage; it is
    /// erased on next allocation (block-grain reclamation, no partial GC).
    pub fn free_block(&self, bid: BlockId) {
        self.inner.borrow_mut().alloc.free(bid);
    }

    /// Read one page into `buf` (must be exactly one page long).
    pub fn read_page(&self, addr: PageAddr, buf: &mut [u8]) -> Result<()> {
        self.inner.borrow_mut().nand.read_page(addr, buf)
    }

    /// Program one page. Fails if the page is not erased or if programming
    /// would be out of order within its block.
    pub fn program_page(&self, addr: PageAddr, data: &[u8]) -> Result<()> {
        self.inner.borrow_mut().nand.program_page(addr, data)
    }

    /// Erase one block explicitly.
    pub fn erase_block(&self, bid: BlockId) -> Result<()> {
        self.inner.borrow_mut().nand.erase_block(bid)
    }

    /// Open a fresh append-only log on this chip.
    pub fn new_log(&self) -> LogWriter {
        LogWriter::new(self.clone())
    }

    // ---- faults and reboot ----------------------------------------------

    /// Install a scripted [`FaultPlan`] on the chip.
    pub fn inject_faults(&self, plan: FaultPlan) {
        pds_obs::event!(
            pds_obs::Severity::Info,
            pds_obs::flight::subsystem::FLASH,
            pds_obs::flight::code::FLASH_FAULTS_ARMED
        );
        self.inner.borrow_mut().nand.inject_faults(plan);
    }

    /// True unless an injected power loss took the chip offline.
    pub fn is_powered(&self) -> bool {
        self.inner.borrow().nand.is_powered()
    }

    /// Photograph the persistent chip content (what survives power
    /// loss): a deep copy of the cells; the chip carries on untouched.
    pub fn snapshot(&self) -> ChipSnapshot {
        self.inner.borrow().nand.snapshot()
    }

    /// Switch the power off: the chip's cells leave in the returned
    /// snapshot, moved and not copied, and every handle still sharing
    /// the chip answers [`FlashError::PowerLoss`] from here on — which is
    /// what a dead chip is ([`NandFlash::power_off`]). The way back is
    /// [`Flash::reopen`].
    pub fn power_off(&self) -> ChipSnapshot {
        self.inner.borrow_mut().nand.power_off()
    }

    /// Boot a fresh handle from persistent content: the chip state is
    /// rebuilt by scanning the cells and the allocator's free list is
    /// re-derived as "fully erased ⇒ free". Non-erased blocks start out
    /// allocated-to-nobody; each recovered structure re-adopts its own
    /// via [`LogWriter::recover`], which also frees what it truncates.
    pub fn reopen(snap: ChipSnapshot) -> Flash {
        let nand = NandFlash::reopen(snap);
        let blocks = nand.geometry().num_blocks();
        let free: Vec<BlockId> = (0..blocks as u32)
            .map(BlockId)
            .filter(|b| nand.block_is_erased(*b))
            .collect();
        let alloc = BlockAllocator::with_free(blocks, free);
        Flash {
            inner: Rc::new(RefCell::new(FlashInner { nand, alloc })),
        }
    }

    /// Simulate a full power cycle on a copy: photograph the cells and
    /// boot a new handle from them. The old handle and its chip carry on
    /// as they were — a crash test recovers, and may recover again.
    pub fn reboot(&self) -> Flash {
        Flash::reopen(self.snapshot())
    }

    /// Take a specific block out of the free list (recovery re-adopting
    /// a tail block the reboot scan saw as erased). Returns false if the
    /// block was not free.
    pub fn claim_block(&self, bid: BlockId) -> bool {
        self.inner.borrow_mut().alloc.claim(bid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_handle_shares_allocator() {
        let f = Flash::small(4);
        let g = f.clone();
        let total = f.free_blocks();
        let _b = f.alloc_block().unwrap();
        assert_eq!(g.free_blocks(), total - 1);
    }

    #[test]
    fn alloc_exhaustion_reports_error() {
        let f = Flash::small(2);
        f.alloc_block().unwrap();
        f.alloc_block().unwrap();
        assert!(matches!(f.alloc_block(), Err(FlashError::OutOfBlocks)));
    }

    #[test]
    fn freed_block_is_erased_on_realloc() {
        let f = Flash::small(2);
        let b = f.alloc_block().unwrap();
        let geo = f.geometry();
        let page = geo.first_page_of(b);
        f.program_page(page, &vec![7u8; geo.page_size]).unwrap();
        f.free_block(b);
        // All blocks cycle through the free list; allocating both must
        // return the dirty one erased.
        let b1 = f.alloc_block().unwrap();
        let b2 = f.alloc_block().unwrap();
        let dirty = if b1 == b { b1 } else { b2 };
        let mut buf = vec![0u8; geo.page_size];
        f.read_page(geo.first_page_of(dirty), &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0xFF), "reclaimed block not erased");
    }
}
