#!/usr/bin/env bash
# The full offline CI gate: format, lint, build, test.
# No network access required — the workspace has zero external deps.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
# The docs build warning-free: a link to an item that was deleted,
# renamed or made private fails here (about 12 s).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
# Project-specific static analysis: panic-freedom (direct and
# call-graph-transitive), plaintext-egress information flow,
# determinism, RAM-budget and layering contracts (see DESIGN.md
# "Static guarantees"). Exits nonzero on any unwaived finding; the
# machine-readable findings report is kept as a build artifact.
mkdir -p target/lint
cargo run --release -q -p pds-lint -- --json > target/lint/findings.json || {
  cat target/lint/findings.json
  exit 1
}
cargo build --workspace --release
cargo test --workspace -q
# The performance ledger is its own workspace, so nothing above compiles
# it: build every workload against crates/* (an API break shows here,
# not in the benchmark driver) and run its BENCHMARK.json manifest test.
cargo test --offline -q --manifest-path ledger/Cargo.toml
# The bignum's end-to-end oracle: the four [CKV+02] protocols against
# plain arithmetic on two seeds, exact counts repeating between blocks
# and runs (under 2 s).
cargo run --release --quiet --offline --manifest-path ledger/Cargo.toml -- \
  selfcheck --workload global_toolkit
# The reopen path's end-to-end oracle: a token's life of ingest, sync,
# clean reopens and a seeded power cut on two seeds — every synced row
# and document survives, exact counts repeat between blocks and runs
# (about 4 s now that a reopen keeps the search index).
cargo run --release --quiet --offline --manifest-path ledger/Cargo.toml -- \
  selfcheck --workload token_ingest_reopen
# The read path's end-to-end oracle: indexed selects fetch rows by rowid
# and `get_document` fetches by docid — the two reads whose addressing
# is the record log's ordinals — checked against the in-benchmark model
# on two seeds (about 11 s).
cargo run --release --quiet --offline --manifest-path ledger/Cargo.toml -- \
  selfcheck --workload token_query
# The power cycle's end-to-end oracle: [TNP14] rounds on a hibernating
# fleet — every token parked and revived between its turns — equal the
# plaintext reference on two seeds, and the 18 exact counts (flash reads
# and programs, bus, scheduler, recorder pages) repeat between blocks
# and runs (about 5 s).
cargo run --release --quiet --offline --manifest-path ledger/Cargo.toml -- \
  selfcheck --workload fleet_agg
# The message path's end-to-end oracle, the fifth and last workload:
# Trusted-Cells reconciles over the bus converge with every slice read
# back on a cell that did not write it, on two seeds, and the 7 exact
# counts (the bus's, rounds per reconcile) repeat between blocks and
# runs (a few seconds).
cargo run --release --quiet --offline --manifest-path ledger/Cargo.toml -- \
  selfcheck --workload cell_sync
# Widened seeded crash-recovery sweeps: a fixed, larger seed set than the
# default 48 so every gate run exercises the fault paths broadly — the
# record log's (single-page records, and records of every length cut
# between their pages), the chip's page-grain cell store against a
# full-block model across moved and copied power cycles, and the search
# engine's checkpointed recovery against a full re-index of the same
# chip, and its df counts against the oracle after cuts inside drains
# that write the chain heads' df tables.
#
# `sweep <cargo test args> -- <names>` runs them and fails unless at
# least as many tests passed as names were given: a renamed or deleted
# sweep would otherwise match nothing, run 0 tests and pass.
sweep() {
  local args=() names=0 log=target/ci/sweep.log
  while [ "$1" != "--" ]; do args+=("$1"); shift; done
  shift
  names=$#
  mkdir -p target/ci
  PDS_CRASH_SEEDS=256 cargo test "${args[@]}" -q -- "$@" 2>&1 | tee "$log"
  local passed
  passed=$(sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' "$log" |
    awk '{ n += $1 } END { print n + 0 }')
  if [ "$passed" -lt "$names" ]; then
    echo "sweep: $passed tests passed for $names names: $*" >&2
    return 1
  fi
}
sweep -p pds-flash -- \
  seeded_crash_recovery_sweep record_log_sweep cell_store_sweep
sweep -p pds-search -- \
  checkpointed_recovery_equals_full_rebuild_sweep \
  a_cut_at_every_program_inside_a_drain_recovers_equal \
  a_cut_at_every_program_of_a_drain_keeps_df_in_the_heads \
  a_cut_between_a_drain_and_the_next_checkpoint \
  a_second_crash_while_the_tail_replay_drains
# The format sweep under the same widened seed set: every wire and flash
# format round-trips, refuses every strict prefix and every lying count,
# and survives flips, splices and garbage without a panic — the public
# formats (tests/wire_formats.rs) and the rows beside the private
# decoders, all named `*_keep_the_decoder_contract`.
sweep --workspace -- keep_the_decoder_contract
# Fleet smoke sweep: a small tokens × threads × connectivity run of the
# phased secure-aggregation job, with the pds-obs registry exported so
# the fleet.* counters are visible in the gate log.
PDS_E14_TOKENS=64 PDS_E14_MAX_THREADS=4 \
  cargo run --release -q -p pds-bench --bin report -- --metrics e14
# Telemetry-plane smoke: the E16 rollup-convergence sweep at CI scale,
# then the standard fleet SLO set evaluated over the run's own metrics
# (`fleet status` rendering + JSON). Exits nonzero on an UNHEALTHY
# verdict, so a redelivery-ratio or pages-lost regression fails the
# gate, not just a dashboard.
PDS_E16_TOKENS=64 PDS_E16_MAX_THREADS=4 \
  cargo run --release -q -p pds-bench --bin report -- --fleet-health e16
# Event-driven scheduler smoke: the full aggregation at 10k tokens under
# a tight resident cap — peak residency must stay at the cap and every
# cell re-proves bit-identical results against a 1-worker re-run.
PDS_E17_TOKENS=10000 PDS_E17_MAX_THREADS=4 PDS_E17_CAP=2048 \
  cargo run --release -q -p pds-bench --bin report -- e17
# MVCC change-log smoke: delta cell reconcile (one generation-digest
# request per cell per round, since the last generation the cell
# applied) must reach the full-sync witness (the same digest since 0)
# bit-identically (checked at 1/2/8 workers) while moving ≥5× fewer
# idle-round payload bytes — exactly 22 B per cell, a 9-byte request and
# a 13-byte empty reply, which the e18 unit test and tests/mvcc.rs
# assert; 29.1× fewer at 64–512 cells, 2 rounds per reconcile in both
# modes — and the subscription fleet must stay exactly-once with tokens
# power-cycled between rounds.
PDS_E18_CELLS=128 PDS_E18_MAX_THREADS=4 \
  cargo run --release -q -p pds-bench --bin report -- e18
# Crash-storm forensics smoke: E19 at CI scale — seeded power losses
# mid-aggregation-round, every victim reopened, triaged fleet-wide with
# bit-identical forensics across worker counts — plus the seeded
# post-mortem JSON kept as a build artifact.
mkdir -p target/forensics
PDS_E19_TOKENS=24 PDS_E19_MAX_THREADS=4 \
  cargo run --release -q -p pds-bench --bin report -- \
  --forensics-json target/forensics/postmortem.json e19
# Deterministic cost baseline: replay the scope and env knobs recorded
# in BENCH_BASELINE.json and compare every deterministic metric (flash
# IO, bus delivery, recovery, RAM high-water, lint posture) exactly.
# Fails naming each drifted metric; regenerate intentionally with
#   cargo run --release -p pds-bench --bin report -- \
#     --baseline BENCH_BASELINE.json e1 e3 e6 e13 e14 e15 e16 e17 e18 e19
# (env knobs as recorded) and commit the diff.
cargo run --release -q -p pds-bench --bin report -- --check BENCH_BASELINE.json
