//! E18 — MVCC change log: delta-based cell sync and continuous queries.
//!
//! Two consumers of the HLC change log, measured as fleet workloads:
//!
//! * **Part A — delta reconcile** (`pds-fleet::cellnet` with
//!   `CellNetConfig::delta`): each cell asks the cloud once per round
//!   for every slice changed since the last store generation it applied,
//!   instead of pulling every slice's full snapshot. Both modes must
//!   converge to the *same* per-cell version witness
//!   ([`pds_fleet::CellNet::versions`]), bit-identical at 1/2/8 worker
//!   threads; the win is measured on an idle round after convergence —
//!   the low-write-rate steady state where a fleet spends its life —
//!   where delta reconcile must move at least 5× fewer payload bytes,
//!   and exactly [`IDLE_DELTA_BYTES_PER_CELL`] per cell: one digest
//!   request and one empty reply.
//! * **Part B — continuous queries** (`pds-fleet::subs`): every token
//!   holds a standing predicate over its own PDS, polls it after each
//!   commit round, and mails the sealed result delta to the SSI
//!   collector. The tokens live on the fleet scheduler, so a power
//!   cycle is its park (a flush and power-off) and the wake of the
//!   token's next turn. The collector's `(token, round)` ledger must
//!   equal the ground truth written — every committed matching row
//!   delivered exactly once, zero duplicates — with tokens
//!   power-cycled mid-run.
//!
//! Environment knobs: `PDS_E18_CELLS` (cap on the 64/256/512 sweep,
//! default 512), `PDS_E18_MAX_THREADS` (default 4).

use pds_fleet::{CellNet, CellNetConfig, SubNet, SubNetConfig};
use pds_sync::TrustedCell;

use crate::env_u64;
use crate::table::Table;

/// Bus payload bytes an idle delta round moves per cell: a 9-byte
/// `PullChanged` and a 13-byte empty `Changed`.
pub const IDLE_DELTA_BYTES_PER_CELL: u64 = 9 + 13;

/// Convergence witness and idle-round payload bytes of one cell network.
pub struct E18CellPoint {
    /// Rounds until the network went quiet.
    pub rounds: u32,
    /// Per-cell `(slice, version)` maps after convergence.
    pub witness: Vec<Vec<(String, u64)>>,
    /// Bus payload bytes one idle (fully converged) round moves.
    pub idle_bytes: u64,
}

/// Build a cell network, seed writes on a few cells, sync to
/// convergence, then measure one idle round.
pub fn measure_cells(cells: usize, workers: usize, seed: u64, delta: bool) -> E18CellPoint {
    let cfg = CellNetConfig::new(cells, workers, seed);
    let cfg = if delta { cfg.with_delta() } else { cfg };
    let mut n = CellNet::build(cfg, |i| {
        TrustedCell::new(&format!("cell-{i}"), b"owner-e18")
    })
    .expect("cell net build");
    // A handful of writers — the fleet is mostly readers, as in the
    // Trusted-Cells deployment the paper sketches.
    n.write(0, "energy-profile", &[0x11; 256]);
    n.write(cells / 2, "prefs", &[0x22; 128]);
    n.write(cells - 1, "notes", &[0x33; 64]);
    let rounds = n.sync_until_quiet(60).expect("sync converges");
    assert!(n.converged(), "cell network failed to converge");
    let before = n.bus_stats().payload_bytes;
    n.sync_round().expect("idle round");
    E18CellPoint {
        rounds,
        witness: n.versions(),
        idle_bytes: n.bus_stats().payload_bytes - before,
    }
}

/// Outcome of one subscription-fleet run.
pub struct E18SubPoint {
    /// Matching rows committed across the fleet (ground truth).
    pub rows_matched: usize,
    /// Rows the collector folded (first arrivals).
    pub rows_delivered: usize,
    /// Duplicate arrivals at the collector.
    pub duplicates: u64,
    /// The exactly-once witness.
    pub exactly_once: bool,
}

/// Run a subscription fleet for `rounds` rounds, power-cycling a third
/// of the tokens between rounds.
pub fn measure_subs(tokens: usize, seed: u64, rounds: u32) -> E18SubPoint {
    let mut n = SubNet::build(SubNetConfig::new(tokens, seed)).expect("sub net build");
    for r in 0..rounds {
        n.round().expect("sub round");
        // Power-cycle a sliding third of the fleet mid-run: cursors and
        // the change log must survive the hibernate/wake cycle.
        for t in (0..tokens).filter(|t| t % 3 == (r as usize) % 3) {
            n.power_cycle(t).expect("power cycle");
        }
    }
    n.settle(20_000);
    E18SubPoint {
        rows_matched: n.expected().len(),
        rows_delivered: n.delivered().len(),
        duplicates: n.duplicates(),
        exactly_once: n.exactly_once(),
    }
}

/// Regenerate the E18 table.
pub fn run() -> Table {
    let cap = env_u64("PDS_E18_CELLS", 512) as usize;
    let workers = env_u64("PDS_E18_MAX_THREADS", 4).max(1) as usize;
    let sizes: Vec<usize> = [64, 256, 512]
        .into_iter()
        .filter(|c| *c <= cap.max(64))
        .collect();

    let mut t = Table::new(
        "E18 — MVCC change log: delta cell sync and continuous queries \
         (versioned reads feeding the fleet)",
        &[
            "workload",
            "size",
            "rounds",
            "idle full (B)",
            "idle delta (B)",
            "saving",
            "witness",
            "determ",
        ],
    );

    for &cells in &sizes {
        let full = measure_cells(cells, workers, 0xE18, false);
        let delta = measure_cells(cells, workers, 0xE18, true);
        // The determinism contract: the delta-mode witness is
        // bit-identical at 1, 2 and 8 worker threads.
        let w1 = measure_cells(cells, 1, 0xE18, true);
        let w8 = measure_cells(cells, 8, 0xE18, true);
        let deterministic = delta.witness == w1.witness && delta.witness == w8.witness;
        let saving = if delta.idle_bytes == 0 {
            "inf".to_string()
        } else {
            format!("{:.1}x", full.idle_bytes as f64 / delta.idle_bytes as f64)
        };
        t.row(vec![
            "cell sync".to_string(),
            cells.to_string(),
            format!("{}/{}", full.rounds, delta.rounds),
            full.idle_bytes.to_string(),
            delta.idle_bytes.to_string(),
            saving,
            if full.witness == delta.witness {
                "equal"
            } else {
                "DIVERGED"
            }
            .to_string(),
            if deterministic { "yes" } else { "NO" }.to_string(),
        ]);
    }

    let tokens = (cap / 8).clamp(16, 64);
    let subs = measure_subs(tokens, 0xE18, 4);
    t.row(vec![
        "subscriptions".to_string(),
        tokens.to_string(),
        "4".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        format!(
            "{}/{} rows, {} dup{}",
            subs.rows_delivered,
            subs.rows_matched,
            subs.duplicates,
            if subs.exactly_once {
                ", exact"
            } else {
                ", BROKEN"
            }
        ),
        "-".to_string(),
    ]);

    t.note(
        "idle full/delta = bus payload bytes one fully-converged sync round moves; \
         delta mode is one generation-digest request and one empty reply per cell \
         (22 B) where full mode pulls every slice's ciphertext",
    );
    t.note(
        "witness = per-cell (slice, version) maps after convergence — full and \
         delta reconcile must agree; determ = delta witness bit-identical at \
         1/2/8 worker threads",
    );
    t.note(
        "subscriptions row: collector ledger vs ground truth after 4 commit \
         rounds with a third of the tokens power-cycled (a scheduler park and \
         wake) between rounds — exactly-once or BROKEN",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_reconcile_converges_equal_and_5x_cheaper() {
        let full = measure_cells(48, 2, 7, false);
        let delta = measure_cells(48, 2, 7, true);
        assert_eq!(full.witness, delta.witness);
        assert!(
            delta.idle_bytes * 5 <= full.idle_bytes,
            "idle round: delta {} B vs full {} B",
            delta.idle_bytes,
            full.idle_bytes
        );
        assert_eq!(delta.idle_bytes, 48 * IDLE_DELTA_BYTES_PER_CELL);
        let w1 = measure_cells(48, 1, 7, true);
        assert_eq!(delta.witness, w1.witness);
    }

    #[test]
    fn subscriptions_stay_exactly_once_across_power_cycles() {
        let p = measure_subs(9, 3, 3);
        assert!(
            p.exactly_once,
            "delivered {}/{} with {} duplicates",
            p.rows_delivered, p.rows_matched, p.duplicates
        );
        assert!(p.rows_matched > 0);
    }
}
