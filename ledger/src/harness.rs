//! The measuring loop shared by every workload: rounds of a set-up
//! followed by blocks of identical fixed work, with the exact counters
//! snapshotted around each block.
//!
//! Every block of a run does the same work, so op `i` of one block is
//! the same computation as op `i` of every other. What the neighbours
//! on a shared machine add to it is never negative, so the fastest of
//! its repetitions is the one they disturbed least: the gated times are
//! built from that per-op *floor* (README, "Calibration", for the
//! measurements against the block median).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host;
use crate::refkernel::RefKernel;
use crate::span::Tracer;
use crate::stats::{hi_percentile, median, median_u64, spread_pct};

/// Named exact counts of one block.
pub type Counts = BTreeMap<&'static str, u64>;
/// Named metric values of one run.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Rounds of an end-to-end run: set-ups per run, and the fewest blocks
/// it measures however short the time budget.
const ROUNDS: usize = 5;

/// Process-wide `pds-obs` counters whose per-block deltas are exact.
const GLOBAL_COUNTERS: &[&str] = &[
    "flash.page_reads",
    "flash.page_programs",
    "flash.block_erases",
    "flash.non_seq_programs",
    "blackbox.pages_flushed",
    "mcu.ram.budget_aborts",
    "sync.bytes_sent",
    "sync.conflicts",
];
const RAM_GAUGE: &str = "mcu.ram.high_water_bytes";

/// What one block of fixed work produced.
pub struct Block {
    /// Latency of every op, in nanoseconds.
    pub op_ns: Vec<u64>,
    /// Timed wall time of the block (ops plus timed work between them;
    /// state builds and oracle checks are outside it).
    pub wall_ns: u64,
    /// CPU time over the same regions, summed over threads.
    pub cpu_ns: u64,
    /// Every output matched the oracle.
    pub ok: bool,
    /// Exact counts the workload read from public stats (bus, scheduler
    /// and protocol reports); global counter deltas are added by the
    /// harness.
    pub counts: Counts,
}

/// A workload: inputs generated from the seed, blocks of fixed work.
pub trait Workload: Sized {
    /// Prefixes of the exact counters this workload is predicted not to
    /// move: the layers it bypasses.
    const BYPASSES: &'static [&'static str] = &[];

    /// Generate the inputs and build the first state.
    fn setup(seed: u64) -> Self;

    /// Run one block. Every block of one run does identical work.
    fn block(&mut self, tr: &mut Tracer) -> Block;

    /// The workload's exact simulated cost of a block, in its own unit
    /// (the `sim_cost_per_op` numerator).
    fn sim_cost(counts: &Counts) -> f64;

    /// Time the layers' public functions directly on this workload's
    /// inputs, and read the medians of the spans `tr` recorded around
    /// the traced blocks.
    fn probes(&mut self, tr: &mut Tracer, out: &mut Metrics);
}

/// Wall and CPU time of a region.
pub struct Meter {
    t0: Instant,
    cpu0: Option<u64>,
}

impl Meter {
    pub fn start() -> Self {
        Meter {
            cpu0: host::cpu_ns(),
            t0: Instant::now(),
        }
    }

    /// `(wall_ns, cpu_ns)` since [`Meter::start`].
    pub fn stop(self) -> (u64, u64) {
        let wall = self.t0.elapsed().as_nanos() as u64;
        let cpu = match (self.cpu0, host::cpu_ns()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        };
        (wall, cpu)
    }
}

fn global_counts() -> Counts {
    GLOBAL_COUNTERS
        .iter()
        .map(|name| (*name, pds_obs::counter(name).get()))
        .collect()
}

/// Run one block with the global counters snapshotted around it.
fn counted_block<W: Workload>(w: &mut W, tr: &mut Tracer) -> Block {
    pds_obs::gauge(RAM_GAUGE).set(0);
    let before = global_counts();
    let mut block = w.block(tr);
    for (name, after) in global_counts() {
        block.counts.insert(name, after - before[name]);
    }
    block
        .counts
        .insert(RAM_GAUGE, pds_obs::gauge(RAM_GAUGE).get());
    block
}

/// How long a run measures.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Blocks until this many seconds have passed (at least one block).
    Seconds(f64),
    /// Exactly this many blocks.
    Blocks(usize),
}

impl Budget {
    /// The part of the budget that round `round` of [`ROUNDS`] measures.
    fn share(self, round: usize) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s / ROUNDS as f64),
            Budget::Blocks(n) => Budget::Blocks(n / ROUNDS + usize::from(round < n % ROUNDS)),
        }
    }
}

/// One set-up, timed in pieces so that each piece can be taken at its
/// fastest over the rounds, as the ops of the measured blocks are.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Input generation and the first state build (`Workload::setup`).
    pub build_ns: u64,
    /// Latency of every op of the warm-up block.
    pub warm_op_ns: Vec<u64>,
    /// The rest of the warm-up block: what it builds before its clock
    /// starts, its timed tail and its oracle.
    pub warm_rest_ns: u64,
}

impl Setup {
    fn wall_s(&self) -> f64 {
        (self.build_ns + self.warm_op_ns.iter().sum::<u64>() + self.warm_rest_ns) as f64 / 1e9
    }
}

/// `(steal, total)` jiffies, where `/proc/stat` could be read.
pub type StealReading = Option<(u64, u64)>;

/// Everything one run measured.
pub struct Run {
    /// Every set-up (with its warm-up block).
    pub setups: Vec<Setup>,
    pub blocks: Vec<Block>,
    /// Factor from this run's wall time to reference time (see
    /// [`crate::refkernel`]).
    pub speed: f64,
    pub loadavg_start: f64,
    /// `/proc/stat` steal readings at the start and the end.
    pub steal: (StealReading, StealReading),
}

impl Run {
    /// Append a later part of the same run.
    fn absorb(&mut self, later: Run) {
        self.setups.extend(later.setups);
        self.blocks.extend(later.blocks);
        // The kernel's fastest pass so far: the latest reading.
        self.speed = later.speed;
        self.steal.1 = later.steal.1;
    }

    pub fn ops_per_block(&self) -> usize {
        self.blocks.first().map_or(0, |b| b.op_ns.len())
    }

    pub fn attempted(&self) -> u64 {
        self.blocks.iter().map(|b| b.op_ns.len() as u64).sum()
    }

    /// Ops of blocks that failed their oracle.
    pub fn failed(&self) -> u64 {
        self.blocks
            .iter()
            .filter(|b| !b.ok)
            .map(|b| b.op_ns.len() as u64)
            .sum()
    }

    /// Raw latency of every op, in nanoseconds.
    fn op_ns(&self) -> Vec<u64> {
        self.blocks
            .iter()
            .flat_map(|b| b.op_ns.iter().copied())
            .collect()
    }

    /// Per op of a block, the fastest of its repetitions over the
    /// blocks, in nanoseconds.
    fn op_floor_ns(&self) -> Vec<u64> {
        floor_per_op(self.blocks.iter().map(|b| b.op_ns.as_slice()))
    }

    /// Wall seconds of a set-up at its floor: the build, every warm-up
    /// op and the rest at their fastest over the rounds.
    pub fn floor_setup_s(&self) -> f64 {
        let build = self.setups.iter().map(|s| s.build_ns).min().unwrap_or(0);
        let ops = floor_per_op(self.setups.iter().map(|s| s.warm_op_ns.as_slice()));
        let rest = self
            .setups
            .iter()
            .map(|s| s.warm_rest_ns)
            .min()
            .unwrap_or(0);
        (build + ops.iter().sum::<u64>() + rest) as f64 / 1e9
    }

    /// Wall seconds of each set-up as the clock read it.
    fn setup_wall_s(&self) -> Vec<f64> {
        self.setups.iter().map(Setup::wall_s).collect()
    }

    /// The timed work of a block that is not inside an op (the power
    /// cut and recovery that end a token's life), at its fastest.
    fn tail_floor_ns(&self) -> u64 {
        self.blocks
            .iter()
            .map(|b| b.wall_ns.saturating_sub(b.op_ns.iter().sum()))
            .min()
            .unwrap_or(0)
    }

    fn block_wall_s(&self) -> Vec<f64> {
        self.blocks.iter().map(|b| b.wall_ns as f64 / 1e9).collect()
    }

    /// Wall seconds of a block at its floor: every op and the tail at
    /// their fastest.
    pub fn floor_block_s(&self) -> f64 {
        (self.op_floor_ns().iter().sum::<u64>() + self.tail_floor_ns()) as f64 / 1e9
    }

    /// Ops per reference second: the ops of a block over the block's
    /// floor time.
    pub fn ops_per_s(&self) -> f64 {
        self.ops_per_block() as f64 / (self.floor_block_s() * self.speed)
    }

    /// Ops per second of wall time, as the clock read it: the ops of a
    /// block over the median block time.
    pub fn raw_ops_per_s(&self) -> f64 {
        self.ops_per_block() as f64 / median(&self.block_wall_s())
    }

    /// An exact count of the first block (every block has the same).
    pub fn count(&self, name: &str) -> u64 {
        self.blocks
            .first()
            .and_then(|b| b.counts.get(name).copied())
            .unwrap_or(0)
    }

    /// An exact count per op.
    pub fn per_op(&self, name: &str) -> f64 {
        self.count(name) as f64 / self.ops_per_block().max(1) as f64
    }

    /// True when every block ran the same number of ops and reported
    /// the same exact counts.
    pub fn blocks_agree(&self) -> bool {
        self.blocks
            .windows(2)
            .all(|w| w[0].counts == w[1].counts && w[0].op_ns.len() == w[1].op_ns.len())
    }

    /// The end-to-end metrics. The three times are reference times.
    pub fn end_to_end<W: Workload>(&self) -> Metrics {
        let mut m = Metrics::new();
        m.insert("ops_per_s", self.ops_per_s());
        m.insert(
            "op_p50_us",
            median_u64(&self.op_floor_ns()) / 1e3 * self.speed,
        );
        let cost = self.blocks.first().map_or(0.0, |b| W::sim_cost(&b.counts));
        m.insert("sim_cost_per_op", cost / self.ops_per_block().max(1) as f64);
        m.insert("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
        m.insert("setup_s", self.floor_setup_s() * self.speed);
        m
    }

    /// The host-side per-layer metrics every workload shares: the raw
    /// wall-clock twins of the gated times, CPU time, the tail, and how
    /// steady the machine was.
    pub fn host_metrics(&self, out: &mut Metrics) {
        let op_ns = self.op_ns();
        out.insert("host.raw_ops_per_s", self.raw_ops_per_s());
        out.insert("host.raw_op_p50_us", median_u64(&op_ns) / 1e3);
        out.insert("host.raw_setup_s", median(&self.setup_wall_s()));
        out.insert("host.ref_speed", self.speed);
        let cpu_ns: u64 = self.blocks.iter().map(|b| b.cpu_ns).sum();
        out.insert(
            "host.cpu_us_per_op",
            cpu_ns as f64 / 1e3 / self.attempted().max(1) as f64,
        );
        let hi = hi_percentile(&op_ns).map_or(0.0, |(_, v)| v as f64 / 1e3);
        out.insert("host.op_hi_us", hi);
        out.insert("host.block_spread_pct", spread_pct(&self.block_wall_s()));
        out.insert("host.loadavg_start", self.loadavg_start);
        out.insert(
            "host.steal_pct",
            host::steal_pct(self.steal.0, self.steal.1),
        );
    }
}

/// Per op index, the fastest of its repetitions, in nanoseconds.
fn floor_per_op<'a>(reps: impl Iterator<Item = &'a [u64]> + Clone) -> Vec<u64> {
    let ops = reps.clone().map(<[u64]>::len).max().unwrap_or(0);
    (0..ops)
        .map(|i| {
            reps.clone()
                .filter_map(|r| r.get(i))
                .min()
                .copied()
                .unwrap_or(0)
        })
        .collect()
}

/// Set up once, with an unmeasured warm-up block; returns the state
/// and what the set-up took.
pub fn setup_warm<W: Workload>(seed: u64, kernel: &mut RefKernel) -> (W, Setup) {
    let t0 = Instant::now();
    let mut w = W::setup(seed);
    let build_ns = t0.elapsed().as_nanos() as u64;
    let warm = w.block(&mut Tracer::off());
    let warm_ns = t0.elapsed().as_nanos() as u64 - build_ns;
    kernel.sample();
    let setup = Setup {
        build_ns,
        warm_rest_ns: warm_ns.saturating_sub(warm.op_ns.iter().sum()),
        warm_op_ns: warm.op_ns,
    };
    (w, setup)
}

/// Measure blocks of `w` until the budget is used, sampling the
/// reference kernel between blocks.
pub fn measure<W: Workload>(
    w: &mut W,
    setup: Setup,
    budget: Budget,
    kernel: &mut RefKernel,
    tr: &mut Tracer,
) -> Run {
    let loadavg_start = host::loadavg().unwrap_or(0.0);
    let steal_start = host::cpu_steal();
    let t0 = Instant::now();
    let mut blocks = Vec::new();
    loop {
        let done = match budget {
            Budget::Blocks(n) => blocks.len() >= n,
            // Stop where another block would overshoot the budget by
            // more than stopping undershoots it: over the rounds of a
            // run the two cancel.
            Budget::Seconds(s) => {
                let elapsed = t0.elapsed().as_secs_f64();
                !blocks.is_empty() && elapsed + elapsed / (2 * blocks.len()) as f64 >= s
            }
        };
        if done {
            break;
        }
        blocks.push(counted_block(w, tr));
        kernel.sample();
    }
    Run {
        setups: vec![setup],
        blocks,
        speed: kernel.speed(),
        loadavg_start,
        steal: (steal_start, host::cpu_steal()),
    }
}

/// The untraced end-to-end run of one workload: [`ROUNDS`] rounds, each
/// a set-up followed by its share of the blocks. Set-up is
/// deterministic, so every round measures the same blocks on the same
/// state; spreading the set-ups over the run gives them the same
/// chance of a quiet moment as the blocks have (README, "How a run is
/// measured").
pub fn run<W: Workload>(seed: u64, budget: Budget) -> Run {
    let mut kernel = RefKernel::new();
    let mut run: Option<Run> = None;
    for round in 0..ROUNDS {
        // The previous round's state is gone by now, so two never
        // coexist in the peak resident set.
        let (mut w, setup) = setup_warm::<W>(seed, &mut kernel);
        let part = measure(
            &mut w,
            setup,
            budget.share(round),
            &mut kernel,
            &mut Tracer::off(),
        );
        match &mut run {
            Some(run) => run.absorb(part),
            None => run = Some(part),
        }
    }
    let run = run.expect("at least one round");
    // For whoever reads a calibration afterwards: what the clock read
    // before any floor or scaling.
    eprintln!(
        "ledger: set-ups {:.3?} s, blocks {:.3?} s, kernel speed {:.4}",
        run.setup_wall_s(),
        run.block_wall_s(),
        run.speed
    );
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(op_ns: &[u64], tail_ns: u64) -> Block {
        Block {
            op_ns: op_ns.to_vec(),
            wall_ns: op_ns.iter().sum::<u64>() + tail_ns,
            cpu_ns: 0,
            ok: true,
            counts: Counts::new(),
        }
    }

    fn run_of(setups: Vec<Setup>, blocks: Vec<Block>) -> Run {
        Run {
            setups,
            blocks,
            speed: 0.5,
            loadavg_start: 0.0,
            steal: (None, None),
        }
    }

    #[test]
    fn the_floor_takes_each_op_at_its_fastest_repetition() {
        let reps = [vec![5, 9, 7], vec![6, 8, 4], vec![9, 9]];
        assert_eq!(floor_per_op(reps.iter().map(Vec::as_slice)), vec![5, 8, 4]);
        assert!(floor_per_op(std::iter::empty()).is_empty());
    }

    #[test]
    fn gated_times_are_floors_in_reference_time() {
        let run = run_of(
            Vec::new(),
            vec![block(&[100, 300, 200], 50), block(&[150, 250, 400], 20)],
        );
        // Op floors 100, 250, 200 and tail floor 20: 570 ns a block.
        assert_eq!(run.floor_block_s(), 570e-9);
        let m = run.end_to_end::<crate::workloads::global_toolkit::GlobalToolkit>();
        let close = |a: f64, b: f64| (a / b - 1.0).abs() < 1e-12;
        assert!(close(m["ops_per_s"], 3.0 / (570e-9 * 0.5)));
        assert!(close(m["op_p50_us"], 0.2 * 0.5));
        // The raw twin is the median block (650 and 820 ns), unscaled.
        assert!(close(run.raw_ops_per_s(), 3.0 / 735e-9));
    }

    #[test]
    fn set_up_floor_sums_the_fastest_of_each_piece() {
        let setup = |build_ns, ops: &[u64], warm_rest_ns| Setup {
            build_ns,
            warm_op_ns: ops.to_vec(),
            warm_rest_ns,
        };
        let run = run_of(
            vec![setup(1_000, &[10, 40], 500), setup(1_200, &[30, 20], 300)],
            Vec::new(),
        );
        assert_eq!(run.floor_setup_s(), (1_000 + 10 + 20 + 300) as f64 / 1e9);
        assert_eq!(run.setup_wall_s(), vec![1_550e-9, 1_550e-9]);
    }

    #[test]
    fn rounds_share_the_budget() {
        let blocks: Vec<usize> = (0..ROUNDS)
            .map(|r| match Budget::Blocks(12).share(r) {
                Budget::Blocks(n) => n,
                Budget::Seconds(_) => unreachable!(),
            })
            .collect();
        assert_eq!(blocks, vec![3, 3, 2, 2, 2]);
        assert!(matches!(Budget::Seconds(15.0).share(4), Budget::Seconds(s) if s == 3.0));
    }

    #[test]
    fn blocks_agree_only_on_equal_counts_and_op_counts() {
        let mut odd = block(&[1, 2], 0);
        odd.counts.insert("flash.page_reads", 1);
        assert!(run_of(Vec::new(), vec![block(&[1, 2], 0), block(&[3, 4], 9)]).blocks_agree());
        assert!(!run_of(Vec::new(), vec![block(&[1, 2], 0), odd]).blocks_agree());
        assert!(!run_of(Vec::new(), vec![block(&[1, 2], 0), block(&[1], 0)]).blocks_agree());
    }
}
