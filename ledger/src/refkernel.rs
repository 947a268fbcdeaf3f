//! The reference kernel: a fixed piece of work, owned by the benchmark,
//! timed beside every block and every set-up.
//!
//! The machine this ledger is calibrated on is a shared 2-vCPU box
//! whose neighbours slow it by 5–30 % for seconds to minutes at a time
//! (README, "Calibration"). Contention only ever slows, so the fastest
//! of a run's kernel passes says how fast the machine can go during
//! that run; dividing the run's wall-clock readings by it turns them
//! into *reference seconds* — seconds of a machine whose fastest pass
//! takes [`NOMINAL_NS`] — and the raw seconds are reported beside them.
//!
//! The kernel calls nothing outside this file, so no change to the
//! repository can speed it up or slow it down.

use std::hint::black_box;
use std::time::Instant;

/// What one kernel pass takes on the calibration machine when quiet.
pub const NOMINAL_NS: f64 = 1_000_000.0;

const WORDS: usize = 32 * 1024;
const STEPS: usize = 160_000;
/// Kernel passes per sample.
const PASSES: usize = 5;

/// One pass: a data-dependent read-modify-write walk over a 256 KB
/// buffer — integer arithmetic and cache traffic, no allocation.
fn pass(buf: &mut [u64; WORDS]) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) % WORDS;
        buf[i] = buf[i].wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(x);
        x ^= buf[i] >> 29;
    }
    x
}

/// Reference-kernel timer; owns the kernel's buffer and remembers its
/// fastest pass.
pub struct RefKernel {
    buf: Box<[u64; WORDS]>,
    best_ns: f64,
}

impl RefKernel {
    pub fn new() -> Self {
        let mut k = RefKernel {
            buf: Box::new([1; WORDS]),
            best_ns: f64::INFINITY,
        };
        // Fault the buffer in before the first timed pass.
        black_box(pass(&mut k.buf));
        k.sample();
        k
    }

    /// Time a few passes now. Called between blocks and set-ups, so the
    /// passes are spread over the same seconds as the work they scale.
    pub fn sample(&mut self) {
        for _ in 0..PASSES {
            let t0 = Instant::now();
            black_box(pass(&mut self.buf));
            self.best_ns = self.best_ns.min(t0.elapsed().as_nanos() as f64);
        }
    }

    /// The factor that turns this run's wall time into reference time:
    /// below 1 when the machine ran slower than nominal.
    pub fn speed(&self) -> f64 {
        to_reference(self.best_ns)
    }
}

/// The factor from wall time to reference time on a machine whose
/// fastest kernel pass takes `best_ns`.
pub fn to_reference(best_ns: f64) -> f64 {
    NOMINAL_NS / best_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_work() {
        let mut a = Box::new([1u64; WORDS]);
        let mut b = Box::new([1u64; WORDS]);
        assert_eq!(pass(&mut a), pass(&mut b));
        assert_eq!(a[..], b[..]);
    }

    #[test]
    fn a_slow_machine_shrinks_wall_time_to_reference_time() {
        // The kernel took twice its nominal time: the machine ran at
        // half speed, so 10 s of wall time is 5 reference seconds.
        let f = to_reference(2.0 * NOMINAL_NS);
        assert!((10.0 * f - 5.0).abs() < 1e-12);
        assert_eq!(to_reference(NOMINAL_NS), 1.0);
    }

    #[test]
    fn more_samples_never_raise_the_fastest_pass() {
        let mut k = RefKernel::new();
        let first = k.speed();
        assert!(first.is_finite() && first > 0.0);
        k.sample();
        assert!(k.speed() >= first);
    }
}
