//! Deterministic fault injection for the NAND model.
//!
//! Real NAND can lose power mid-program (leaving a *torn* page), wear
//! out (blocks whose erase never completes), and flip bits on read
//! (transient disturb errors corrected — or not — by ECC). The seed
//! tutorial hardware is battery-less and hot-unpluggable: a secure
//! MicroSD token is yanked from its reader whenever the user walks away,
//! so mid-program power loss is the *common* case, not the exotic one.
//!
//! A [`FaultPlan`] scripts these events deterministically from a seed
//! (via `pds_obs::rng`, the workspace PRNG) so every crash scenario is
//! bit-reproducible. The chip consults the plan on each primitive:
//!
//! * **power loss** — after N successful programs, the (N+1)-th program
//!   is processed partially: either a random prefix of the page reaches
//!   the cells (*torn page*) or nothing does (*silently dropped*). The
//!   chip then goes offline — every primitive returns
//!   [`crate::FlashError::PowerLoss`] until the host reboots it.
//! * **stuck blocks** — `erase_block` on a scripted block fails with
//!   [`crate::FlashError::StuckBlock`]; the allocator retires it.
//! * **read disturb** — with probability `p`, one random bit of a read
//!   buffer is flipped. Transient: the stored cells are untouched, a
//!   re-read may succeed.
//!
//! Every injected fault increments the `flash.faults_injected` counter
//! so JSONL exports show how hostile the simulated environment was.

use std::sync::Arc;

use pds_obs::rng::{Rng, SeedableRng, StdRng};

/// What happened to a program operation that hit a power loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramFault {
    /// The program completed normally.
    None,
    /// Power failed mid-program: only the first `prefix` bytes of the
    /// page reached the cells; the rest still reads erased (0xFF).
    Torn { prefix: usize },
    /// Power failed before any cell was touched: the page stays erased.
    Dropped,
}

/// A deterministic, seeded schedule of hardware faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: StdRng,
    /// Successful programs remaining before the power cut (`None` =
    /// power never fails).
    programs_until_cut: Option<u64>,
    /// Per-read probability of a transient single-bit flip.
    read_flip_prob: f64,
    /// Blocks whose erase is scripted to fail.
    stuck_blocks: Vec<u32>,
}

/// Process-wide count of injected faults (torn/dropped programs, bit
/// flips, stuck erases).
pub(crate) fn faults_injected() -> Arc<pds_obs::Counter> {
    pds_obs::counter("flash.faults_injected")
}

impl FaultPlan {
    /// A benign plan (no faults) with a deterministic RNG for the
    /// faults other constructors enable.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            rng: StdRng::seed_from_u64(seed),
            programs_until_cut: None,
            read_flip_prob: 0.0,
            stuck_blocks: Vec::new(),
        }
    }

    /// Cut power on the `n+1`-th page program from now: that program is
    /// processed partially (torn or dropped, chosen by the seed) and the
    /// chip goes offline.
    pub fn power_loss_after(mut self, n: u64) -> Self {
        self.programs_until_cut = Some(n);
        self
    }

    /// Flip one random bit of a read buffer with probability `p` per
    /// read (transient read disturb).
    pub fn read_flips(mut self, p: f64) -> Self {
        // pds-lint: allow(panic.assert) — fault-plan builder is test-harness
        // scripting; the probability is an experimenter-chosen constant.
        assert!((0.0..=1.0).contains(&p), "probability out of [0,1]");
        self.read_flip_prob = p;
        self
    }

    /// Script `block` to fail every erase (worn out).
    pub fn stuck_block(mut self, block: u32) -> Self {
        self.stuck_blocks.push(block);
        self
    }

    /// Consult the plan before a page program of `page_size` bytes.
    pub(crate) fn on_program(&mut self, page_size: usize) -> ProgramFault {
        match self.programs_until_cut {
            Some(0) => {
                faults_injected().inc();
                // Torn vs dropped, and the torn prefix length, come from
                // the seeded stream: reproducible per plan.
                if self.rng.gen_bool(0.5) {
                    ProgramFault::Torn {
                        prefix: self.rng.gen_range(1usize..page_size.max(2)),
                    }
                } else {
                    ProgramFault::Dropped
                }
            }
            Some(ref mut n) => {
                *n -= 1;
                ProgramFault::None
            }
            None => ProgramFault::None,
        }
    }

    /// Consult the plan after a page read; may flip one bit of `buf`.
    pub(crate) fn on_read(&mut self, buf: &mut [u8]) {
        if self.read_flip_prob > 0.0 && self.rng.gen_bool(self.read_flip_prob) {
            let bit = self.rng.gen_range(0usize..buf.len() * 8);
            buf[bit / 8] ^= 1 << (bit % 8);
            faults_injected().inc();
        }
    }

    /// Consult the plan before erasing `block`.
    pub(crate) fn on_erase(&mut self, block: u32) -> bool {
        if self.stuck_blocks.contains(&block) {
            faults_injected().inc();
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_cut_fires_after_exactly_n_programs() {
        let mut plan = FaultPlan::new(1).power_loss_after(3);
        assert_eq!(plan.on_program(512), ProgramFault::None);
        assert_eq!(plan.on_program(512), ProgramFault::None);
        assert_eq!(plan.on_program(512), ProgramFault::None);
        assert_ne!(plan.on_program(512), ProgramFault::None);
    }

    #[test]
    fn cut_outcome_is_deterministic_per_seed() {
        let outcome = |seed| {
            let mut p = FaultPlan::new(seed).power_loss_after(0);
            p.on_program(512)
        };
        assert_eq!(outcome(7), outcome(7));
    }

    #[test]
    fn read_flips_touch_exactly_one_bit() {
        let mut plan = FaultPlan::new(3).read_flips(1.0);
        let clean = vec![0u8; 64];
        let mut buf = clean.clone();
        plan.on_read(&mut buf);
        let flipped: u32 = buf
            .iter()
            .zip(&clean)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn stuck_blocks_fail_erase_and_count() {
        let before = faults_injected().get();
        let mut plan = FaultPlan::new(9).stuck_block(4);
        assert!(!plan.on_erase(3));
        assert!(plan.on_erase(4));
        assert!(faults_injected().get() > before);
    }
}
