//! Regenerate every experiment table of EXPERIMENTS.md in one run.
//!
//! Usage:
//!   `cargo run --release -p pds-bench --bin report [FLAGS] [e1 e2 …]`
//! (no experiment ids = all experiments). Flags:
//!
//! * `--metrics` — dump the process-wide `pds-obs` registry as JSONL
//!   after the tables: every flash IO, RAM high-water mark, policy
//!   decision, and protocol round the experiments generated.
//! * `--baseline FILE` — after running the selected experiments, write
//!   their deterministic metrics (plus scope and env knobs) to `FILE`.
//!   Commit the file to pin the repo's cost envelope.
//! * `--check FILE` — replay the scope and env knobs recorded in
//!   `FILE`, then compare the fresh deterministic metrics against it.
//!   Exits 1 naming every drifted metric; CI runs this on every push.
//! * `--fleet-health` — after the experiments, snapshot the registry as
//!   a metrics delta, evaluate the standard fleet SLO set against it,
//!   and print the `fleet status` rendering plus its JSON line. Exits 1
//!   when any rule fails.
//! * `--forensics-json FILE` — crash one seeded token mid-round, reopen
//!   it, and write its [`ForensicsReport`](pds_core::ForensicsReport)
//!   JSON to `FILE`; CI uploads the file as the post-mortem artifact.

use pds_bench::baseline::{self, Baseline};
use pds_bench::*;

/// Pop `flag FILE` out of `args`; exit 2 if the value is missing.
fn take_opt(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    args.remove(i);
    if i < args.len() {
        Some(args.remove(i))
    } else {
        eprintln!("{flag} needs a file argument");
        std::process::exit(2);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics = args.iter().any(|a| a == "--metrics");
    args.retain(|a| a != "--metrics");
    let fleet_health = args.iter().any(|a| a == "--fleet-health");
    args.retain(|a| a != "--fleet-health");
    let write_path = take_opt(&mut args, "--baseline");
    let check_path = take_opt(&mut args, "--check");
    let forensics_path = take_opt(&mut args, "--forensics-json");

    let checked: Option<Baseline> = check_path.map(|p| {
        let text = std::fs::read_to_string(&p).unwrap_or_else(|e| {
            eprintln!("--check: cannot read {p}: {e}");
            std::process::exit(2);
        });
        Baseline::parse(&text).unwrap_or_else(|| {
            eprintln!("--check: {p} is not a baseline document");
            std::process::exit(2);
        })
    });
    // A check replays the recorded shape: same experiments, same env
    // knobs — a drift must mean the *code* changed, not the invocation.
    let scope: Vec<String> = match &checked {
        Some(b) => {
            b.apply_env();
            b.scope.clone()
        }
        None => args.clone(),
    };

    let want = |id: &str| scope.is_empty() || scope.iter().any(|a| a == id);
    type Exp = (&'static str, fn() -> Table);
    let experiments: Vec<Exp> = vec![
        ("e1", e1_pbfilter::run),
        ("e2", e2_reorg::run),
        ("e3", e3_search::run),
        ("e4", e4_spj::run),
        ("e5", e5_random_writes::run),
        ("e6", e6_protocols::run),
        ("e7", e7_toolkit::run),
        ("e8", e8_fhe_cost::run),
        ("e9", e9_detection::run),
        ("e10", e10_ppdp::run),
        ("e11", e11_sync::run),
        ("e12", e12_folkis::run),
        ("e13", e13_recovery::run),
        ("e14", e14_fleet::run),
        ("e15", e15_fleet_trace::run),
        ("e16", e16_telemetry::run),
        ("e17", e17_sched::run),
        ("e18", e18_mvcc::run),
        ("e19", e19_crash::run),
        ("a1", ablations::a1_bloom_budget),
        ("a2", ablations::a2_partition_size),
        ("a3", ablations::a3_codesign),
        ("a4", ablations::a4_extensions),
    ];
    for (id, run) in experiments {
        if want(id) {
            let start = std::time::Instant::now();
            let table = run();
            println!("{table}");
            println!(
                "  [{id} regenerated in {:.1}s]\n",
                start.elapsed().as_secs_f64()
            );
        }
    }

    if metrics || fleet_health || write_path.is_some() || checked.is_some() {
        // Fold the static-analysis posture into the same registry dump:
        // lint.findings / lint.waivers / lint.files_scanned sit next to
        // the runtime counters, so one run captures both.
        if let Some(root) = std::env::current_dir()
            .ok()
            .and_then(|cwd| pds_lint::find_workspace_root(&cwd))
        {
            match pds_lint::run_workspace(&root) {
                Ok(report) => report.publish(),
                Err(e) => eprintln!("  [pds-lint skipped: {e}]"),
            }
        }
    }
    if metrics {
        println!("-- pds-obs registry (JSONL) --");
        print!("{}", pds_obs::metrics::global().export_jsonl());
    }
    // An overflowed flight staging buffer means the durable rings (and
    // every forensics report cut from them) hold an *incomplete* view of
    // the event stream — say so loudly instead of letting a truncated
    // stream pass as complete.
    let dropped = pds_obs::metrics::global().events_dropped();
    if dropped > 0 {
        eprintln!(
            "WARNING: obs.events_dropped = {dropped} — a flight staging buffer overflowed \
             (its owner never drained it); the event stream is incomplete"
        );
    }

    let mut unhealthy = false;
    if fleet_health {
        // The registry snapshot *is* a one-bucket rollup: the same
        // delta/merge vocabulary the in-band collector folds, so the
        // standard SLO set reads identically here and fleet-side.
        let rollup = pds_obs::metrics::global().snapshot_delta();
        let verdict = pds_fleet::HealthEngine::standard().evaluate(&rollup);
        println!("{}", verdict.render());
        println!("{}", verdict.to_json());
        unhealthy = !verdict.healthy;
    }

    if let Some(path) = forensics_path {
        let json = e19_crash::forensics_json();
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("--forensics-json: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("forensics: wrote seeded post-mortem JSON to {path}");
    }
    if let Some(path) = write_path {
        let base = baseline::capture(&scope);
        if let Err(e) = std::fs::write(&path, base.to_json()) {
            eprintln!("--baseline: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!(
            "baseline: wrote {} deterministic metrics to {path}",
            base.metrics.len()
        );
    }
    if let Some(base) = checked {
        let drifts = base.diff(&baseline::capture(&base.scope));
        if drifts.is_empty() {
            println!(
                "baseline check OK: {} deterministic metrics match",
                base.metrics.len()
            );
        } else {
            eprintln!("baseline check FAILED: {} metric(s) drifted", drifts.len());
            for d in &drifts {
                eprintln!("  {d}");
            }
            std::process::exit(1);
        }
    }
    if unhealthy {
        std::process::exit(1);
    }
}
