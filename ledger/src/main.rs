//! The performance ledger: the repository's benchmark.
//!
//! ```text
//! ledger bench --workload W --seed N --seconds S --trace 0|1   one driver run, JSON on the last line
//! ledger run [--seed N] [--workload W] [--seconds S]           end-to-end metrics, 12 blocks each
//! ledger trace [--seed N] [--workload W]                       traced blocks, layer probes, trace file
//! ledger selfcheck [--seed N]                                  exact metrics repeat; oracles hold
//! ledger manifest                                              the text of BENCHMARK.json
//! ```
//!
//! Run from the root of the repository (`cargo run --release
//! --manifest-path ledger/Cargo.toml -- …`): the trace files go to
//! `ledger/out/` under the current directory.

mod gen;
mod harness;
mod host;
mod probes;
mod refkernel;
mod report;
mod span;
mod spec;
mod stats;
mod workloads;

use std::collections::BTreeSet;
use std::process::ExitCode;

use harness::{measure, run, setup_warm, Budget, Metrics, Workload};
use refkernel::RefKernel;
use span::{layer_table, Tracer};
use spec::{END_TO_END, PER_LAYER, WORKLOADS};
use workloads::cell_sync::CellSync;
use workloads::fleet_agg::FleetAgg;
use workloads::global_toolkit::GlobalToolkit;
use workloads::token_ingest_reopen::TokenIngestReopen;
use workloads::token_query::TokenQuery;

/// Measured blocks of `run` when no `--seconds` is given.
const RUN_BLOCKS: usize = 12;
/// Blocks of each half (untraced, traced) of a traced run.
const TRACE_BLOCKS: usize = 3;
const DEFAULT_SEED: u64 = 1;

/// Call a generic function with the workload type named `$name`.
macro_rules! with_workload {
    ($name:expr, $f:ident ( $($arg:expr),* )) => {
        match $name {
            "token_query" => Ok($f::<TokenQuery>($($arg),*)),
            "token_ingest_reopen" => Ok($f::<TokenIngestReopen>($($arg),*)),
            "fleet_agg" => Ok($f::<FleetAgg>($($arg),*)),
            "cell_sync" => Ok($f::<CellSync>($($arg),*)),
            "global_toolkit" => Ok($f::<GlobalToolkit>($($arg),*)),
            other => Err(format!("unknown workload `{other}`")),
        }
    };
}

/// One end-to-end (untraced) run, summarised.
struct EndToEnd {
    metrics: Metrics,
    exact: Metrics,
    attempted: u64,
    failed: u64,
    blocks: usize,
    blocks_agree: bool,
}

fn end_to_end<W: Workload>(seed: u64, budget: Budget) -> EndToEnd {
    let run = run::<W>(seed, budget);
    let mut exact = Metrics::new();
    workloads::exact_metrics(&run, &mut exact);
    run.host_metrics(&mut exact);
    EndToEnd {
        metrics: run.end_to_end::<W>(),
        exact,
        attempted: run.attempted(),
        failed: run.failed(),
        blocks: run.blocks.len(),
        blocks_agree: run.blocks_agree(),
    }
}

/// One traced run, summarised.
struct Traced {
    per_layer: Metrics,
    rows: Vec<span::LayerRow>,
    block_wall_ns: u64,
    attempted: u64,
    failed: u64,
    blocks_agree: bool,
    moved: Vec<&'static str>,
    bypasses: &'static [&'static str],
    trace_json: String,
}

fn traced<W: Workload>(name: &str, seed: u64) -> Traced {
    let mut kernel = RefKernel::new();
    let (mut w, setup) = setup_warm::<W>(seed, &mut kernel);
    // The same blocks untraced, then traced: the difference is what the
    // tracing costs.
    let blocks = Budget::Blocks(TRACE_BLOCKS);
    let plain = measure(
        &mut w,
        setup.clone(),
        blocks,
        &mut kernel,
        &mut Tracer::off(),
    );
    let mut tr = Tracer::on();
    let run = measure(&mut w, setup, blocks, &mut kernel, &mut tr);
    let rows = layer_table(tr.spans());
    let block_wall_ns: u64 = run.blocks.iter().map(|b| b.wall_ns).sum();
    let ledger_ns: u64 = rows
        .iter()
        .filter(|r| r.layer == "ledger")
        .map(|r| r.busy_ns)
        .sum();

    let mut per_layer: Metrics = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    workloads::exact_metrics(&run, &mut per_layer);
    run.host_metrics(&mut per_layer);
    per_layer.insert(
        "trace.overhead_pct",
        100.0 * (run.floor_block_s() / plain.floor_block_s() - 1.0),
    );
    per_layer.insert(
        "trace.unattributed_pct",
        100.0 * ledger_ns as f64 / block_wall_ns.max(1) as f64,
    );
    w.probes(&mut tr, &mut per_layer);

    let counts = run
        .blocks
        .first()
        .map(|b| b.counts.clone())
        .unwrap_or_default();
    Traced {
        trace_json: report::trace_json(name, seed, tr.spans(), &counts, &per_layer),
        per_layer,
        rows,
        block_wall_ns,
        attempted: run.attempted(),
        failed: run.failed(),
        blocks_agree: run.blocks_agree(),
        moved: workloads::moved(&run, W::BYPASSES),
        bypasses: W::BYPASSES,
    }
}

/// Write the trace file under `ledger/out/` and return its path.
fn write_trace(name: &str, t: &Traced) -> std::io::Result<String> {
    std::fs::create_dir_all("ledger/out")?;
    let path = format!("ledger/out/trace-{name}.json");
    std::fs::write(&path, &t.trace_json)?;
    Ok(path)
}

/// The counts on which `a` and `b` differ.
fn differing(a: &harness::Counts, b: &harness::Counts) -> Vec<&'static str> {
    a.keys()
        .chain(b.keys())
        .filter(|k| a.get(*k) != b.get(*k))
        .copied()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect()
}

/// Two short runs of one workload on one seed: the exact counts of
/// every block of both, or what went wrong.
fn check_exact<W: Workload>(seed: u64) -> Result<harness::Counts, String> {
    let mut firsts = Vec::new();
    for attempt in 0..2 {
        let mut kernel = RefKernel::new();
        let (mut w, setup) = setup_warm::<W>(seed, &mut kernel);
        let run = measure(
            &mut w,
            setup,
            Budget::Blocks(TRACE_BLOCKS),
            &mut kernel,
            &mut Tracer::off(),
        );
        if run.failed() > 0 {
            return Err(format!(
                "run {attempt}: {} ops failed their oracle",
                run.failed()
            ));
        }
        if !run.blocks_agree() {
            let differing: BTreeSet<&str> = run
                .blocks
                .iter()
                .flat_map(|b| differing(&run.blocks[0].counts, &b.counts))
                .collect();
            return Err(format!("run {attempt}: blocks disagree on {differing:?}"));
        }
        firsts.push(run.blocks[0].counts.clone());
    }
    if firsts[0] != firsts[1] {
        return Err(format!(
            "two runs disagree on {:?}",
            differing(&firsts[0], &firsts[1])
        ));
    }
    Ok(firsts.swap_remove(0))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value.clone()),
            "--seed" => out.seed = number()?,
            "--seconds" => out.seconds = Some(number()?),
            "--trace" => out.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

fn selected(args: &Args) -> Vec<&str> {
    match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|(name, _)| *name).collect(),
    }
}

/// `bench`: one driver run; the JSON result is the last line.
fn cmd_bench(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("bench needs --workload")?;
    let seconds = args.seconds.ok_or("bench needs --seconds")?;
    if args.trace {
        let t = with_workload!(name, traced(name, args.seed))?;
        let path = write_trace(name, &t).map_err(|e| format!("trace file: {e}"))?;
        eprintln!("trace written to {path}");
        let correct = t.failed == 0 && t.blocks_agree;
        println!(
            "{}",
            report::result_line(correct, t.attempted, t.failed, PER_LAYER, &t.per_layer)
        );
    } else {
        let e = with_workload!(name, end_to_end(args.seed, Budget::Seconds(seconds as f64)))?;
        let correct = e.failed == 0 && e.blocks_agree;
        println!(
            "{}",
            report::result_line(correct, e.attempted, e.failed, END_TO_END, &e.metrics)
        );
    }
    // The verdict is in the result line; the driver reads it there.
    Ok(true)
}

/// `run`: the end-to-end metrics of each workload, by name, with units.
fn cmd_run(args: &Args) -> Result<bool, String> {
    let budget = args
        .seconds
        .map_or(Budget::Blocks(RUN_BLOCKS), |s| Budget::Seconds(s as f64));
    let mut all_ok = true;
    for name in selected(args) {
        let e = with_workload!(name, end_to_end(args.seed, budget))?;
        println!(
            "{name}  seed {}  blocks {}  ops {}",
            args.seed, e.blocks, e.attempted
        );
        report::print_metrics(END_TO_END, &e.metrics);
        println!(
            "  {:<34} {:>16.4} ratio ({} failed of {} attempted)",
            "fail_ratio",
            e.failed as f64 / e.attempted.max(1) as f64,
            e.failed,
            e.attempted
        );
        println!(
            "  raw wall-clock twins, host readings and exact per-layer counts (zero ones omitted):"
        );
        report::print_metrics(PER_LAYER, &e.exact);
        if !e.blocks_agree {
            println!("  BLOCKS DISAGREE on their exact counts");
        }
        all_ok &= e.failed == 0 && e.blocks_agree;
        println!();
    }
    Ok(all_ok)
}

/// `trace`: traced blocks and layer probes; writes the trace files.
fn cmd_trace(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    for name in selected(args) {
        let t = with_workload!(name, traced(name, args.seed))?;
        let path = write_trace(name, &t).map_err(|e| format!("trace file: {e}"))?;
        println!(
            "{name}  seed {}  traced blocks {TRACE_BLOCKS}  ops {}  failed {}",
            args.seed, t.attempted, t.failed
        );
        println!(
            "  spans of the traced blocks (share of {:.1} ms timed):",
            t.block_wall_ns as f64 / 1e6
        );
        report::print_layer_table(&t.rows, t.block_wall_ns);
        println!(
            "  trace.unattributed_pct {:.3}   trace.overhead_pct {:.3}",
            t.per_layer["trace.unattributed_pct"], t.per_layer["trace.overhead_pct"]
        );
        if !t.bypasses.is_empty() {
            if t.moved.is_empty() {
                println!("  bypass holds: no counter under {:?} moved", t.bypasses);
            } else {
                println!("  BYPASS BROKEN: {:?} moved", t.moved);
            }
        }
        println!("  per-layer metrics (zero ones omitted):");
        report::print_metrics(PER_LAYER, &t.per_layer);
        println!("  trace file: {path}");
        println!();
        all_ok &= t.failed == 0 && t.blocks_agree;
    }
    Ok(all_ok)
}

/// `selfcheck`: every exact count repeats between the blocks of a run
/// and between two runs, and every oracle holds, on two seeds.
fn cmd_selfcheck(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    for name in selected(args) {
        for seed in [args.seed, args.seed + 1] {
            match with_workload!(name, check_exact(seed))? {
                Ok(counts) => {
                    let moved = counts.values().filter(|v| **v > 0).count();
                    println!("ok    {name} seed {seed}: {moved} exact counts repeat over 2 runs x {TRACE_BLOCKS} blocks");
                }
                Err(why) => {
                    println!("FAIL  {name} seed {seed}: {why}");
                    all_ok = false;
                }
            }
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: ledger bench|run|trace|selfcheck|manifest [--workload W] [--seed N] [--seconds S] [--trace 0|1]");
        return ExitCode::from(2);
    };
    if cmd == "manifest" {
        print!("{}", spec::manifest());
        return ExitCode::SUCCESS;
    }
    // Before any workload spawns a thread: workers inherit the pin.
    match host::pin_to_one_cpu() {
        Some(cpu) => eprintln!("ledger: pinned to cpu {cpu}"),
        None => eprintln!("ledger: running unpinned"),
    }
    let outcome = parse_args(rest).and_then(|args| match cmd.as_str() {
        "bench" => cmd_bench(&args),
        "run" => cmd_run(&args),
        "trace" => cmd_trace(&args),
        "selfcheck" => cmd_selfcheck(&args),
        other => Err(format!("unknown command `{other}`")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("ledger: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn known<W: Workload>() {}

    #[test]
    fn every_workload_of_the_manifest_dispatches() {
        for (name, _) in WORKLOADS {
            assert!(with_workload!(*name, known()).is_ok(), "{name}");
        }
        assert!(with_workload!("no_such_workload", known()).is_err());
    }
}
