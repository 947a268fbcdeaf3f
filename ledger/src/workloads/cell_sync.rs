//! `cell_sync` — Trusted-Cells reconciles over the bus.
//!
//! Each block builds a fresh `CELLS`-cell `CellNet` with delta
//! reconcile on (the build is untimed), then times `RECONCILES`
//! reconciles; an op is one reconcile: `WRITES` seeded 256-byte writes
//! on distinct slices, then `sync_until_quiet`. The cells live on
//! `TokenPool`, talk through `MailboxBus` and `pds-sync`, and touch
//! neither flash nor the scheduler — this is the workload on which
//! hibernation and flash work must change nothing.

use std::time::Instant;

use pds_core::{CloudStore, PdsError};
use pds_fleet::{CellNet, CellNetConfig, TokenPool};
use pds_obs::rng::Rng;
use pds_sync::{serve_cloud, CellMsg, TrustedCell};

use crate::gen;
use crate::harness::{Block, Counts, Meter, Metrics, Workload};
use crate::probes::{self, time_each};
use crate::span::Tracer;

pub const CELLS: usize = 256;
pub const RECONCILES: usize = 20;
const WRITES: usize = 8;
const SLICES: usize = 16;
const WRITE_BYTES: usize = 256;
const MAX_ROUNDS: u32 = 60;
const OWNER_SEED: &[u8] = b"ledger-owner";

struct Write {
    cell: usize,
    slice: usize,
    data: Vec<u8>,
}

fn slice_name(i: usize) -> String {
    format!("slice-{i}")
}

fn cell(i: usize) -> TrustedCell {
    TrustedCell::new(&format!("cell-{i}"), OWNER_SEED)
}

pub struct CellSync {
    seed: u64,
    /// The writes of each reconcile, on distinct slices.
    plan: Vec<Vec<Write>>,
}

impl CellSync {
    fn reconcile(net: &mut CellNet, writes: &[Write], tr: &mut Tracer) -> Result<u32, PdsError> {
        tr.scope("ledger", "op", |tr| {
            for w in writes {
                tr.call_ok("fleet", "cell_write", || {
                    net.write(w.cell, &slice_name(w.slice), &w.data)
                });
            }
            tr.call("fleet", "sync_until_quiet", || {
                net.sync_until_quiet(MAX_ROUNDS)
            })
        })
    }

    /// Every slice reads back, on a cell that did not write it, as the
    /// last data written to it.
    fn contents_ok(&self, net: &CellNet) -> bool {
        (0..SLICES).all(|slice| {
            let last = self.plan.iter().flatten().rfind(|w| w.slice == slice);
            match last {
                Some(w) => {
                    let reader = (w.cell + CELLS / 2) % CELLS;
                    net.read(reader, &slice_name(slice)).as_deref() == Some(w.data.as_slice())
                }
                None => true,
            }
        })
    }
}

impl Workload for CellSync {
    const BYPASSES: &'static [&'static str] = &["flash.", "blackbox.", "sched."];

    fn setup(seed: u64) -> Self {
        let mut rng = gen::stream(seed, "cell_sync.writes");
        let plan = (0..RECONCILES)
            .map(|_| {
                let mut slices: Vec<usize> = (0..SLICES).collect();
                rng.shuffle(&mut slices);
                slices[..WRITES]
                    .iter()
                    .map(|slice| {
                        let mut data = vec![0u8; WRITE_BYTES];
                        rng.fill(&mut data);
                        Write {
                            cell: rng.gen_range(0..CELLS),
                            slice: *slice,
                            data,
                        }
                    })
                    .collect()
            })
            .collect();
        CellSync { seed, plan }
    }

    fn block(&mut self, tr: &mut Tracer) -> Block {
        // One worker: with the driver thread, two busy threads at most.
        let cfg = CellNetConfig::new(CELLS, 1, self.seed).with_delta();
        let mut net = tr
            .call("fleet", "cellnet_build", || CellNet::build(cfg, cell))
            .expect("spawn the cell network's worker thread");
        let mut op_ns = Vec::with_capacity(RECONCILES);
        let mut rounds = Vec::with_capacity(RECONCILES);
        let meter = Meter::start();
        for writes in &self.plan {
            tr.next_op();
            let t0 = Instant::now();
            rounds.push(Self::reconcile(&mut net, writes, tr));
            op_ns.push(t0.elapsed().as_nanos() as u64);
        }
        let (wall_ns, cpu_ns) = meter.stop();

        let mut counts = Counts::new();
        super::add_bus(&mut counts, &net.bus_stats());
        let quiet = rounds
            .iter()
            .all(|r| r.as_ref().is_ok_and(|r| *r < MAX_ROUNDS));
        let total: u32 = rounds.iter().flatten().sum();
        counts.insert("cellnet.rounds", u64::from(total));
        let ok = quiet && net.converged() && self.contents_ok(&net);
        Block {
            op_ns,
            wall_ns,
            cpu_ns,
            ok,
            counts,
        }
    }

    fn sim_cost(counts: &Counts) -> f64 {
        counts.get("bus.payload_bytes").copied().unwrap_or(0) as f64
    }

    fn probes(&mut self, tr: &mut Tracer, out: &mut Metrics) {
        probes::obs(tr, out);
        probes::crypto_sym(tr, &mut gen::stream(self.seed, "cell_sync.crypto"), out);
        probes::bus_send_tick(tr, self.seed, CELLS, out);

        let pool = TokenPool::build(CELLS, 1, cell).expect("spawn the pool's worker thread");
        out.insert(
            "pool.noop_map_us",
            time_each(tr, "pool", "noop_map", 50, |_| pool.map(|_, _| ()).len()),
        );

        // The cloud's side of a reconcile: one stored slice, asked for
        // by cells that are behind it and cells that are not.
        let mut cloud = CloudStore::new();
        let mut writer = cell(0);
        writer.write(&slice_name(0), &self.plan[0][0].data);
        writer
            .sync(&mut cloud, &mut gen::stream(self.seed, "cell_sync.cloud"))
            .expect("push one slice to the cloud");
        out.insert(
            "sync.serve_cloud_us",
            time_each(tr, "sync", "serve_cloud", 200, |i| {
                serve_cloud(
                    &mut cloud,
                    &CellMsg::PullSince {
                        slice: slice_name(0),
                        since: (i % 2) as u64,
                    },
                )
            }),
        );
    }
}
