#!/usr/bin/env bash
# The widened seeded sweeps, defined once: `scripts/ci.sh` (and so the
# CI workflow) runs this script.
#
# A fixed, larger seed set than the default 48 so every gate run
# exercises the fault paths broadly — the record log's (single-page
# records, and records of every length cut between their pages), the
# flight recorder's ring through its block releases, the change log
# through GC and a recovery that cuts its phantoms, the chip's
# page-grain cell store against a full-block model across moved and
# copied power cycles, recovery under read disturb (no record lost, no
# page relocated but a dirty frontier's, each copy as it was), and the
# search engine's checkpointed recovery
# against a full re-index of the same chip, and its df counts against
# the oracle after cuts inside drains that write the chain heads' df
# tables, and its bucket pages' codec from one term a page to a new term
# every posting, at three page sizes, topped up in place, and its tail's
# term filters against an engine that forgot them (the same answers, no
# more reads), and its searches and df counts under read disturb at the
# secure gateway's shape and the test gateway's, and a woken engine's
# walks, hits and next drain against the engine that kept running (the
# same pages read, skipped and programmed), and pds-db's
# reads under read disturb: indexed selects, the
# summarised fronts and climbing-index joins answer what they answer
# flip-free. Then the format sweep under the same seed set: every wire and
# flash format round-trips, refuses every strict prefix and every lying
# count, and survives flips, splices and garbage without a panic — the
# public formats (tests/wire_formats.rs) and the rows beside the private
# decoders, all named `*_keep_the_decoder_contract`.
set -euo pipefail
cd "$(dirname "$0")/.."

# `sweep <cargo test args> -- <names>` runs each name on its own and
# fails unless it passed at least one test: a renamed or deleted sweep
# would otherwise match nothing, run 0 tests and pass, and a name that
# matches many tests could hide one that matches none. Each name's wall
# time is printed beside its count.
sweep() {
  local args=() log=target/ci/sweep.log
  while [ "$1" != "--" ]; do args+=("$1"); shift; done
  shift
  mkdir -p target/ci
  local name passed start
  for name in "$@"; do
    start=$SECONDS
    PDS_CRASH_SEEDS=256 cargo test "${args[@]}" -q -- "$name" 2>&1 | tee "$log"
    passed=$(sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' "$log" |
      awk '{ n += $1 } END { print n + 0 }')
    echo "sweep: $name: $passed passed in $((SECONDS - start)) s"
    if [ "$passed" -lt 1 ]; then
      echo "sweep: no test passed for $name" >&2
      return 1
    fi
  done
}

sweep -p pds-flash -- \
  seeded_crash_recovery_sweep record_log_sweep recorder_ring_sweep change_log_sweep \
  cell_store_sweep read_disturb_recovery_sweep
sweep -p pds-search -- \
  checkpointed_recovery_equals_full_rebuild_sweep \
  a_cut_at_every_program_inside_a_drain_recovers_equal \
  a_cut_at_every_program_of_a_drain_keeps_df_in_the_heads \
  a_cut_between_a_drain_and_the_next_checkpoint \
  a_second_crash_while_the_tail_replay_drains \
  bucket_pages_round_trip_sweep \
  tail_filters_never_hide_a_posting_sweep \
  search_reads_under_disturb \
  a_wake_walks_and_drains_as_the_engine_that_kept_running_sweep
sweep -p pds-db -- embedded_reads_under_disturb
sweep --workspace -- keep_the_decoder_contract
