//! The NAND chip model.
//!
//! A strict simulator: it refuses the two operations real NAND cannot do —
//! reprogramming a page without erasing its whole block, and programming
//! pages of a block out of order. Data structures that run on this model
//! are legal by construction on the tutorial's target hardware.
//!
//! ## Cells at page grain
//!
//! In-order programming makes the programmed pages of a block a prefix,
//! so a block stores exactly that prefix: its cells grow by one page per
//! program and everything past them reads as the erased 0xFF fill. The
//! stored extent *is* the block's write cursor — page `k` is programmed
//! iff `k` lies below it — so the controller keeps no per-page state and
//! a chip costs host memory for what was written to it, not for what it
//! could hold.
//!
//! ## The photograph and the power switch
//!
//! [`NandFlash::snapshot`] photographs a chip: a deep copy of the cells,
//! after which the chip carries on (crash sweeps recover one photograph
//! twice; probes photograph live tokens). [`NandFlash::power_off`] is
//! the switch: the cells themselves leave in the [`ChipSnapshot`], no
//! byte copied, and the handle left behind is a dead chip. Both come
//! back through [`NandFlash::reopen`]. Either way the snapshot lists the
//! blocks that were ever used and nothing for the rest: a parked chip
//! weighs what was written to it.

use std::sync::{Arc, OnceLock};

use crate::cost::CostModel;
use crate::error::{FlashError, Result};
use crate::fault::{FaultPlan, ProgramFault};
use crate::geometry::{BlockId, FlashGeometry, PageAddr};
use crate::stats::IoStats;

/// Process-wide flash metrics, shared by every chip instance. Per-chip
/// accounting stays in [`IoStats`]; these aggregate handles feed the
/// `pds-obs` registry (`flash.*` namespace) so a JSONL export sees all
/// I/O of the process.
struct ObsCounters {
    reads: Arc<pds_obs::Counter>,
    programs: Arc<pds_obs::Counter>,
    erases: Arc<pds_obs::Counter>,
    non_seq_programs: Arc<pds_obs::Counter>,
}

impl ObsCounters {
    /// The one set of handles: a fleet boots chips by the ten thousand,
    /// and each would otherwise look the four names up again. All four
    /// register when the first chip of the process is made — exports and
    /// the cost baseline list `flash.block_erases` at 0 for a run that
    /// never erased — which is why these are not per-site `counter!`s.
    fn shared() -> &'static Self {
        static SHARED: OnceLock<ObsCounters> = OnceLock::new();
        SHARED.get_or_init(|| ObsCounters {
            reads: pds_obs::counter("flash.page_reads"),
            programs: pds_obs::counter("flash.page_programs"),
            erases: pds_obs::counter("flash.block_erases"),
            non_seq_programs: pds_obs::counter("flash.non_seq_programs"),
        })
    }
}

/// One simulated NAND chip.
pub struct NandFlash {
    geo: FlashGeometry,
    cost: CostModel,
    /// Per-block cells: the programmed prefix of each block, a whole
    /// number of pages (module docs). Empty ⇒ the block is erased; a
    /// torn program stores its page 0xFF-padded.
    data: Vec<Vec<u8>>,
    /// Erase cycles per block (endurance accounting).
    erase_counts: Vec<u64>,
    /// Last globally programmed page, to classify sequential vs random
    /// writes.
    last_programmed: Option<PageAddr>,
    stats: IoStats,
    obs: &'static ObsCounters,
    /// Scripted hardware faults (power cuts, stuck blocks, bit flips).
    fault: Option<FaultPlan>,
    /// False after a power loss, injected or switched
    /// ([`NandFlash::power_off`]): every primitive fails with
    /// [`FlashError::PowerLoss`] until the chip is rebuilt via
    /// [`NandFlash::reopen`].
    powered: bool,
}

/// The power-loss-surviving content of a chip: programmed cells and
/// per-block wear. Everything else ([`IoStats`], the write cursors) is
/// volatile controller state that a reboot rebuilds by scanning the
/// cells. Sparse: only the blocks ever used are listed.
#[derive(Clone)]
pub struct ChipSnapshot {
    geo: FlashGeometry,
    cost: CostModel,
    used: Vec<UsedBlock>,
}

/// A block that is not factory-fresh: it holds cells, wear, or both.
#[derive(Clone)]
struct UsedBlock {
    block: usize,
    erase_count: u64,
    cells: Vec<u8>,
}

impl ChipSnapshot {
    /// Geometry of the snapshotted chip.
    pub fn geometry(&self) -> FlashGeometry {
        self.geo
    }

    /// Bytes this snapshot actually holds: the pages that were
    /// programmed and an entry per used block, so a mostly-erased chip
    /// snapshots to a small fraction of its capacity — the number a
    /// scheduler parking hibernated tokens budgets against.
    pub fn resident_bytes(&self) -> usize {
        let cells: usize = self.used.iter().map(|b| b.cells.len()).sum();
        cells + std::mem::size_of_val(&self.used[..])
    }
}

impl NandFlash {
    /// A chip fully erased at power-on.
    pub fn new(geo: FlashGeometry, cost: CostModel) -> Self {
        NandFlash {
            geo,
            cost,
            data: vec![Vec::new(); geo.num_blocks()],
            erase_counts: vec![0; geo.num_blocks()],
            last_programmed: None,
            stats: IoStats::default(),
            obs: ObsCounters::shared(),
            fault: None,
            powered: true,
        }
    }

    /// Install a scripted fault plan; replaces any previous plan.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// True unless a power loss, injected or switched, took the chip
    /// offline.
    pub fn is_powered(&self) -> bool {
        self.powered
    }

    /// Photograph the persistent content (what survives a power cut): a
    /// deep copy of the cells. The chip is untouched and carries on.
    pub fn snapshot(&self) -> ChipSnapshot {
        let blocks = self
            .data
            .iter()
            .cloned()
            .zip(self.erase_counts.iter().copied());
        self.snapshot_of(blocks)
    }

    /// Switch the power off: the cells and wear counters leave in the
    /// returned snapshot — moved, not copied — and this chip is dead. It
    /// answers [`FlashError::PowerLoss`] from here on, holds no cells (a
    /// later photograph of it shows a blank chip), and the only way back
    /// is [`NandFlash::reopen`] on what this returned. A chip an injected
    /// power loss already took offline is switched off the same way: its
    /// torn page rides along.
    pub fn power_off(&mut self) -> ChipSnapshot {
        self.powered = false;
        let data = std::mem::take(&mut self.data);
        let erase_counts = std::mem::take(&mut self.erase_counts);
        self.snapshot_of(data.into_iter().zip(erase_counts))
    }

    /// A snapshot of the used ones among `blocks`: every block's cells
    /// and erase count, in block order.
    fn snapshot_of(&self, blocks: impl Iterator<Item = (Vec<u8>, u64)>) -> ChipSnapshot {
        let used = blocks
            .enumerate()
            .filter_map(|(block, (cells, erase_count))| {
                (erase_count > 0 || !cells.is_empty()).then_some(UsedBlock {
                    block,
                    erase_count,
                    cells,
                })
            });
        ChipSnapshot {
            geo: self.geo,
            cost: self.cost,
            used: used.collect(),
        }
    }

    /// Reboot: rebuild a powered chip from persistent content alone.
    ///
    /// Controller state is re-derived the way real firmware does it — by
    /// scanning the cells: a page is *programmed* iff any of its bytes
    /// differs from the erased 0xFF fill, and each block's write cursor
    /// resumes after its last programmed page (in-order programming makes
    /// programmed pages a prefix of every block). The scan walks a
    /// block's stored pages from the back, so it normally ends at the
    /// first page it looks at. A torn page with a written prefix
    /// therefore counts as programmed — it is unusable until its block
    /// is erased, exactly like real NAND. The one ambiguity is inherent
    /// to the medium: a page legitimately programmed with all-0xFF bytes
    /// (or torn before its first non-0xFF byte) is indistinguishable
    /// from an erased one (the log layer never writes such pages —
    /// record pages carry a non-0xFF header).
    pub fn reopen(snap: ChipSnapshot) -> Self {
        let geo = snap.geo;
        let mut chip = NandFlash::new(geo, snap.cost);
        for mut used in snap.used {
            let erased_tail = used
                .cells
                .rchunks(geo.page_size)
                .take_while(|page| page.iter().all(|&x| x == 0xFF))
                .count();
            used.cells
                .truncate(used.cells.len() - erased_tail * geo.page_size);
            chip.data[used.block] = used.cells;
            chip.erase_counts[used.block] = used.erase_count;
        }
        chip
    }

    fn check_powered(&self) -> Result<()> {
        if self.powered {
            Ok(())
        } else {
            Err(FlashError::PowerLoss)
        }
    }

    /// Chip geometry.
    pub fn geometry(&self) -> FlashGeometry {
        self.geo
    }

    /// Cumulative I/O counters.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Reset the I/O counters (content is untouched).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }

    /// Simulated elapsed time of all I/O so far.
    pub fn elapsed_ns(&self) -> u64 {
        self.stats.time_ns(&self.cost)
    }

    /// Erase cycles a block has endured.
    pub fn erase_count(&self, bid: BlockId) -> u64 {
        self.erase_counts.get(bid.0 as usize).copied().unwrap_or(0)
    }

    /// Pages of `bid` programmed since its last erase — its write cursor:
    /// the next (and only) offset the in-order rule lets a program take.
    fn write_cursor(&self, bid: BlockId) -> usize {
        self.data
            .get(bid.0 as usize)
            .map_or(0, |cells| cells.len() / self.geo.page_size)
    }

    /// True if every page of the block is erased.
    pub fn block_is_erased(&self, bid: BlockId) -> bool {
        self.data.get(bid.0 as usize).is_none_or(Vec::is_empty)
    }

    fn check_addr(&self, addr: PageAddr) -> Result<()> {
        if self.geo.contains(addr) {
            Ok(())
        } else {
            Err(FlashError::BadAddress(addr))
        }
    }

    /// Read one full page into `buf`.
    pub fn read_page(&mut self, addr: PageAddr, buf: &mut [u8]) -> Result<()> {
        self.check_powered()?;
        self.check_addr(addr)?;
        if buf.len() != self.geo.page_size {
            return Err(FlashError::BadPageSize {
                given: buf.len(),
                expected: self.geo.page_size,
            });
        }
        let bid = self.geo.block_of(addr);
        let start = self.geo.offset_in_block(addr) * self.geo.page_size;
        let cells = self.data.get(bid.0 as usize);
        match cells.and_then(|c| c.get(start..start + self.geo.page_size)) {
            Some(page) => buf.copy_from_slice(page),
            None => buf.fill(0xFF), // past the programmed prefix: erased
        }
        if let Some(plan) = self.fault.as_mut() {
            plan.on_read(buf); // transient bit flip; stored cells intact
        }
        self.stats.page_reads += 1;
        self.obs.reads.inc();
        Ok(())
    }

    /// Program one full page.
    ///
    /// Enforced rules:
    /// * the page must currently be erased (no in-place update);
    /// * programming must follow the block's internal order (page `k` of a
    ///   block can only be programmed after pages `0..k`).
    pub fn program_page(&mut self, addr: PageAddr, data: &[u8]) -> Result<()> {
        self.check_powered()?;
        self.check_addr(addr)?;
        if data.len() != self.geo.page_size {
            return Err(FlashError::BadPageSize {
                given: data.len(),
                expected: self.geo.page_size,
            });
        }
        let bid = self.geo.block_of(addr);
        let cursor = self.write_cursor(bid);
        let off = self.geo.offset_in_block(addr);
        if off < cursor {
            return Err(FlashError::WriteToProgrammed(addr));
        }
        if off > cursor {
            return Err(FlashError::OutOfOrderProgram {
                requested: addr,
                expected: self.geo.page_in_block(bid, cursor),
            });
        }
        let mut reached = data;
        if let Some(plan) = self.fault.as_mut() {
            match plan.on_program(self.geo.page_size) {
                ProgramFault::None => {}
                ProgramFault::Torn { prefix } => {
                    // A random prefix reached the cells before power
                    // died; the page now holds garbage and is unusable
                    // until a block erase, like real NAND.
                    reached = &data[..prefix];
                    self.powered = false;
                }
                ProgramFault::Dropped => {
                    // Power died before any cell was touched.
                    self.powered = false;
                    return Err(FlashError::PowerLoss);
                }
            }
        }
        // The block's cells grow by this page: what reached them, and
        // the erased fill where a tear stopped short.
        let cells = &mut self.data[bid.0 as usize];
        cells.extend_from_slice(reached);
        cells.resize((off + 1) * self.geo.page_size, 0xFF);
        if !self.powered {
            return Err(FlashError::PowerLoss);
        }
        // Classify the write: sequential iff it immediately follows the
        // last program on the whole chip.
        match self.last_programmed {
            Some(prev) if prev.0 + 1 == addr.0 => {}
            None => {}
            _ => {
                self.stats.non_sequential_programs += 1;
                self.obs.non_seq_programs.inc();
            }
        }
        self.last_programmed = Some(addr);
        self.stats.page_programs += 1;
        self.obs.programs.inc();
        Ok(())
    }

    /// Erase a whole block, returning every page to the erased state.
    pub fn erase_block(&mut self, bid: BlockId) -> Result<()> {
        self.check_powered()?;
        if bid.0 as usize >= self.geo.num_blocks() {
            return Err(FlashError::BadBlock(bid));
        }
        if let Some(plan) = self.fault.as_mut() {
            if plan.on_erase(bid.0) {
                return Err(FlashError::StuckBlock(bid));
            }
        }
        self.data[bid.0 as usize] = Vec::new(); // storage released, reads as 0xFF
        self.erase_counts[bid.0 as usize] += 1;
        self.stats.block_erases += 1;
        self.obs.erases.inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> NandFlash {
        NandFlash::new(FlashGeometry::new(64, 4, 4), CostModel::unit())
    }

    #[test]
    fn read_back_what_was_programmed() {
        let mut c = chip();
        let page = vec![0xAB; 64];
        c.program_page(PageAddr(0), &page).unwrap();
        let mut buf = vec![0; 64];
        c.read_page(PageAddr(0), &mut buf).unwrap();
        assert_eq!(buf, page);
    }

    #[test]
    fn erased_pages_read_all_ones() {
        let mut c = chip();
        let mut buf = vec![0; 64];
        c.read_page(PageAddr(7), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn in_place_update_is_rejected() {
        let mut c = chip();
        c.program_page(PageAddr(0), &[1; 64]).unwrap();
        assert_eq!(
            c.program_page(PageAddr(0), &[2; 64]),
            Err(FlashError::WriteToProgrammed(PageAddr(0)))
        );
    }

    #[test]
    fn out_of_order_program_is_rejected() {
        let mut c = chip();
        let err = c.program_page(PageAddr(2), &[1; 64]).unwrap_err();
        assert!(matches!(err, FlashError::OutOfOrderProgram { .. }));
        // But different blocks have independent cursors.
        c.program_page(PageAddr(4), &[1; 64]).unwrap();
    }

    #[test]
    fn erase_resets_block_cursor_and_content() {
        let mut c = chip();
        for p in 0..4 {
            c.program_page(PageAddr(p), &[9; 64]).unwrap();
        }
        c.erase_block(BlockId(0)).unwrap();
        assert_eq!(c.erase_count(BlockId(0)), 1);
        assert!(c.block_is_erased(BlockId(0)));
        c.program_page(PageAddr(0), &[1; 64]).unwrap();
    }

    #[test]
    fn stats_count_each_primitive() {
        let mut c = chip();
        c.program_page(PageAddr(0), &[1; 64]).unwrap();
        let mut buf = vec![0; 64];
        c.read_page(PageAddr(0), &mut buf).unwrap();
        c.read_page(PageAddr(0), &mut buf).unwrap();
        c.erase_block(BlockId(0)).unwrap();
        let s = c.stats();
        assert_eq!((s.page_reads, s.page_programs, s.block_erases), (2, 1, 1));
        assert_eq!(c.elapsed_ns(), 4);
    }

    #[test]
    fn random_writes_are_classified() {
        let mut c = chip();
        c.program_page(PageAddr(0), &[1; 64]).unwrap();
        c.program_page(PageAddr(1), &[1; 64]).unwrap(); // sequential
        c.program_page(PageAddr(8), &[1; 64]).unwrap(); // jump -> random
        assert_eq!(c.stats().non_sequential_programs, 1);
    }

    #[test]
    fn power_loss_takes_chip_offline_until_reopen() {
        let mut c = chip();
        c.inject_faults(FaultPlan::new(42).power_loss_after(2));
        c.program_page(PageAddr(0), &[1; 64]).unwrap();
        c.program_page(PageAddr(1), &[2; 64]).unwrap();
        assert_eq!(
            c.program_page(PageAddr(2), &[3; 64]),
            Err(FlashError::PowerLoss)
        );
        assert!(!c.is_powered());
        let mut buf = vec![0; 64];
        assert_eq!(
            c.read_page(PageAddr(0), &mut buf),
            Err(FlashError::PowerLoss)
        );
        assert_eq!(c.erase_block(BlockId(0)), Err(FlashError::PowerLoss));
        // Reboot: pages programmed before the cut survive intact.
        let mut c = NandFlash::reopen(c.snapshot());
        assert!(c.is_powered());
        c.read_page(PageAddr(0), &mut buf).unwrap();
        assert_eq!(buf, vec![1; 64]);
        c.read_page(PageAddr(1), &mut buf).unwrap();
        assert_eq!(buf, vec![2; 64]);
    }

    #[test]
    fn power_off_takes_the_cells_and_leaves_a_dead_chip() {
        let mut c = chip();
        c.program_page(PageAddr(0), &[7; 64]).unwrap();
        c.erase_block(BlockId(1)).unwrap();
        let snap = c.power_off();
        // One page, not one block (256 B); an entry for each used block.
        assert_eq!(
            snap.resident_bytes(),
            64 + 2 * std::mem::size_of::<UsedBlock>()
        );
        assert!(!c.is_powered());
        let mut buf = vec![0; 64];
        assert_eq!(
            c.read_page(PageAddr(0), &mut buf),
            Err(FlashError::PowerLoss)
        );
        // The cells left with the snapshot: a photograph of what stayed
        // behind shows a blank chip.
        let mut blank = NandFlash::reopen(c.snapshot());
        assert!(blank.block_is_erased(BlockId(0)));
        assert_eq!(blank.erase_count(BlockId(1)), 0);
        blank.program_page(PageAddr(0), &[1; 64]).unwrap();
        // And came back whole, wear included.
        let mut r = NandFlash::reopen(snap);
        r.read_page(PageAddr(0), &mut buf).unwrap();
        assert_eq!(buf, vec![7; 64]);
        assert_eq!(r.erase_count(BlockId(1)), 1);
        r.program_page(PageAddr(1), &[8; 64]).unwrap();
    }

    #[test]
    fn reopen_rederives_write_cursors_from_cells() {
        let mut c = chip();
        c.program_page(PageAddr(0), &[7; 64]).unwrap();
        c.program_page(PageAddr(1), &[8; 64]).unwrap();
        let mut r = NandFlash::reopen(c.snapshot());
        // Next program must be page 2 — the cursor was rebuilt by scan.
        assert!(matches!(
            r.program_page(PageAddr(1), &[9; 64]),
            Err(FlashError::WriteToProgrammed(_))
        ));
        r.program_page(PageAddr(2), &[9; 64]).unwrap();
    }

    #[test]
    fn torn_page_reads_as_garbage_after_reboot() {
        // Find a seed whose cut tears (writes a prefix) rather than drops.
        for seed in 0..16u64 {
            let mut c = chip();
            c.inject_faults(FaultPlan::new(seed).power_loss_after(0));
            assert_eq!(
                c.program_page(PageAddr(0), &[0xAB; 64]),
                Err(FlashError::PowerLoss)
            );
            let mut r = NandFlash::reopen(c.snapshot());
            let mut buf = vec![0; 64];
            r.read_page(PageAddr(0), &mut buf).unwrap();
            if buf.iter().any(|&b| b != 0xFF) {
                // Torn: a strict prefix of the data, 0xFF tail; the page
                // counts as programmed, so reprogramming it is illegal.
                assert!(buf.iter().all(|&b| b == 0xAB || b == 0xFF));
                assert!(matches!(
                    r.program_page(PageAddr(0), &[1; 64]),
                    Err(FlashError::WriteToProgrammed(_))
                ));
                return;
            }
        }
        panic!("no seed in 0..16 produced a torn page");
    }

    #[test]
    fn stuck_block_fails_erase_but_leaves_content() {
        let mut c = chip();
        c.inject_faults(FaultPlan::new(5).stuck_block(0));
        c.program_page(PageAddr(0), &[3; 64]).unwrap();
        assert_eq!(
            c.erase_block(BlockId(0)),
            Err(FlashError::StuckBlock(BlockId(0)))
        );
        let mut buf = vec![0; 64];
        c.read_page(PageAddr(0), &mut buf).unwrap();
        assert_eq!(buf, vec![3; 64]);
        c.erase_block(BlockId(1)).unwrap();
    }

    #[test]
    fn read_flips_are_transient() {
        let mut c = chip();
        c.program_page(PageAddr(0), &[0u8; 64]).unwrap();
        c.inject_faults(FaultPlan::new(8).read_flips(1.0));
        let mut buf = vec![0; 64];
        c.read_page(PageAddr(0), &mut buf).unwrap();
        let flipped: u32 = buf.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped per faulty read");
        // The cells themselves are clean: a fault-free chip view of the
        // same snapshot reads zeros.
        let mut clean = NandFlash::reopen(c.snapshot());
        clean.read_page(PageAddr(0), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn bad_addresses_are_rejected() {
        let mut c = chip();
        let mut buf = vec![0; 64];
        assert!(c.read_page(PageAddr(16), &mut buf).is_err());
        assert!(c.erase_block(BlockId(4)).is_err());
        assert!(matches!(
            c.read_page(PageAddr(0), &mut [0u8; 3]),
            Err(FlashError::BadPageSize { .. })
        ));
    }
}
