//! Property tests of the NAND legality rules and log invariants under
//! arbitrary operation schedules.
//!
//! Driven by the in-tree deterministic RNG (`pds_obs::rng`) so the suite
//! runs hermetically offline; each case derives from a fixed seed and is
//! bit-reproducible.

#![cfg(test)]

use pds_obs::rng::{Rng, SeedableRng, StdRng};

use crate::{BlockId, FaultPlan, Flash, FlashError, FlashGeometry, LogWriter, ProgramFault};

/// Arbitrary interleavings of appends/flushes/new-logs never violate the
/// chip rules (the simulator would reject them) and always read back
/// exactly what was written, in order, per log.
#[derive(Debug, Clone)]
enum Op {
    Append { log: usize, len: usize },
    Flush { log: usize },
    NewLog,
}

fn random_op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0u32..3) {
        0 => Op::Append {
            log: rng.gen_range(0usize..4),
            len: rng.gen_range(1usize..200),
        },
        1 => Op::Flush {
            log: rng.gen_range(0usize..4),
        },
        _ => Op::NewLog,
    }
}

#[test]
fn interleaved_logs_never_break_chip_rules() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xF1A5_4000 + case);
        let ops: Vec<Op> = (0..rng.gen_range(1usize..200))
            .map(|_| random_op(&mut rng))
            .collect();
        let flash = Flash::new(FlashGeometry::new(512, 8, 256));
        let mut logs = vec![flash.new_log()];
        let mut written: Vec<Vec<Vec<u8>>> = vec![Vec::new()];
        let mut counter = 0u32;
        for op in ops {
            match op {
                Op::Append { log, len } => {
                    let i = log % logs.len();
                    counter += 1;
                    let rec: Vec<u8> = counter
                        .to_le_bytes()
                        .iter()
                        .cycle()
                        .take(len)
                        .copied()
                        .collect();
                    logs[i].append(&rec).unwrap();
                    written[i].push(rec);
                }
                Op::Flush { log } => {
                    let i = log % logs.len();
                    logs[i].flush().unwrap();
                }
                Op::NewLog => {
                    if logs.len() < 4 {
                        logs.push(flash.new_log());
                        written.push(Vec::new());
                    }
                }
            }
        }
        // The chip never saw an illegal write (the simulator would have
        // panicked the unwraps above), and every log reads back intact.
        for (log, expected) in logs.into_iter().zip(written) {
            let sealed = log.seal().unwrap();
            let mut got = Vec::new();
            for rec in sealed.reader() {
                got.push(rec.unwrap());
            }
            assert_eq!(got, expected, "case {case}");
        }
        // Note: the chip-global `non_sequential_programs` counter may be
        // non-zero here — interleaved logs alternate between *blocks*,
        // which is legal NAND; the in-order-within-a-block rule is the
        // hard one, and it is enforced (any violation would have failed
        // the unwraps above with OutOfOrderProgram).
    }
}

/// Number of seeds the crash sweep runs. CI pins a larger fixed set via
/// `PDS_CRASH_SEEDS` so every push exercises the fault paths broadly.
fn crash_seed_count() -> u64 {
    std::env::var("PDS_CRASH_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

/// The crash-recovery contract, swept over seeds: append records, cut
/// power at a seed-chosen program, reboot, recover — every record
/// durably programmed before the cut is back, nothing fabricated, and
/// what is recovered is an exact prefix of what was appended.
#[test]
fn seeded_crash_recovery_sweep() {
    for case in 0..crash_seed_count() {
        let seed = 0xC4A5_0000 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let flash = Flash::new(FlashGeometry::new(256, 8, 64));
        let cut_after = rng.gen_range(0u64..40);
        flash.inject_faults(FaultPlan::new(seed).power_loss_after(cut_after));

        // Pre-generate the record stream so recovery can be compared
        // byte-for-byte.
        let records: Vec<Vec<u8>> = (0..2000u32)
            .map(|i| {
                let len = rng.gen_range(1usize..60);
                i.to_le_bytes().iter().copied().cycle().take(len).collect()
            })
            .collect();

        let mut w = flash.new_log();
        let mut appended = 0usize;
        let mut durable = 0u64;
        let cut = loop {
            if appended == records.len() {
                break None;
            }
            durable = w.num_records() - w.buffered_records().len() as u64;
            match w.append(&records[appended]) {
                Ok(_) => appended += 1,
                Err(FlashError::PowerLoss) => break Some(()),
                Err(e) => panic!("case {case}: unexpected error {e}"),
            }
        };
        if cut.is_none() {
            continue; // cut landed past the workload; nothing to recover
        }
        assert_blocks_add_up(&flash, &w, &format!("case {case}: at the cut"));

        let blocks = w.blocks().to_vec();
        let rebooted = flash.reboot();
        let (rec, report) = LogWriter::recover(&rebooted, &blocks).unwrap();
        assert_blocks_add_up(&rebooted, &rec, &format!("case {case}: recovered"));
        let n = rec.num_records() as usize;
        assert!(
            n as u64 >= durable,
            "case {case}: lost a durable record ({n} < {durable})"
        );
        assert!(
            n <= appended,
            "case {case}: fabricated records ({n} > {appended})"
        );
        assert_eq!(report.records_recovered, n as u64, "case {case}");
        assert!(report.torn_pages_discarded <= 1, "case {case}");

        // Exact prefix, byte for byte — and the recovered writer keeps
        // working: append the lost suffix again and read everything back.
        let mut rec = rec;
        for r in &records[n..] {
            rec.append(r).unwrap();
        }
        let log = rec.seal().unwrap();
        let got: Vec<Vec<u8>> = log.reader().map(|r| r.unwrap()).collect();
        assert_eq!(got.len(), records.len(), "case {case}");
        assert_eq!(got[..n], records[..n], "case {case}: prefix mismatch");
        assert_eq!(got[n..], records[n..], "case {case}: resume mismatch");
    }
}

/// Stuck blocks must never brick the pool: the allocator retires them
/// and keeps handing out healthy blocks.
#[test]
fn stuck_blocks_are_retired_not_fatal() {
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0xC4A5_9000 + case);
        let flash = Flash::new(FlashGeometry::new(256, 4, 16));
        let stuck = rng.gen_range(0u32..16);
        flash.inject_faults(FaultPlan::new(case).stuck_block(stuck));
        // Dirty every block, free them all, then reallocate: the stuck
        // one fails its lazy erase and is retired silently.
        let geo = flash.geometry();
        let blocks: Vec<_> = (0..16).map(|_| flash.alloc_block().unwrap()).collect();
        for b in &blocks {
            flash
                .program_page(geo.first_page_of(*b), &vec![1u8; geo.page_size])
                .unwrap();
        }
        for b in &blocks {
            flash.free_block(*b);
        }
        let mut got = Vec::new();
        while let Ok(b) = flash.alloc_block() {
            got.push(b);
        }
        assert_eq!(got.len(), 15, "case {case}: one block retired");
        assert!(!got.iter().any(|b| b.0 == stuck), "case {case}");
    }
}

#[test]
fn reclaimed_blocks_are_fully_reusable() {
    for case in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0xF1A5_5000 + case);
        let rounds = rng.gen_range(1usize..6);
        let recs = rng.gen_range(1usize..300);
        let flash = Flash::new(FlashGeometry::new(512, 8, 32));
        let total = flash.free_blocks();
        for r in 0..rounds {
            let mut w = flash.new_log();
            for i in 0..recs {
                w.append(&(i as u32 + r as u32).to_le_bytes()).unwrap();
            }
            let log = w.seal().unwrap();
            assert_eq!(log.num_records(), recs as u64);
            log.reclaim();
            assert_eq!(flash.free_blocks(), total, "case {case} round {r} leaked");
        }
    }
}

/// One step of a record-log script.
#[derive(Debug, Clone)]
enum LogOp {
    Append(Vec<u8>),
    Flush,
}

/// `n` steps with record lengths at every edge of the chunking — empty,
/// one byte, just under / exactly / just over one page's payload, and
/// several pages — and a flush every fifth step or so.
fn record_script(rng: &mut StdRng, max: usize, n: usize) -> Vec<LogOp> {
    let lens = [0, 1, max - 1, max, max + 1, 3 * max + 7];
    (0..n)
        .map(|_| {
            if rng.gen_range(0u32..5) == 0 {
                return LogOp::Flush;
            }
            let len = lens[rng.gen_range(0..lens.len())];
            LogOp::Append((0..len).map(|_| rng.gen()).collect())
        })
        .collect()
}

/// Run `ops` until one fails, mirroring every successful append into
/// `oracle`. Returns how many records a successful flush has covered
/// (at least `flushed` on entry) and the step the power died on.
fn drive(
    w: &mut LogWriter,
    ops: &[LogOp],
    oracle: &mut Vec<Vec<u8>>,
    mut flushed: usize,
) -> (usize, Option<usize>) {
    for (step, op) in ops.iter().enumerate() {
        let done = match op {
            LogOp::Append(rec) => w.append(rec).map(|ordinal| {
                assert_eq!(ordinal as usize, oracle.len(), "ordinals are dense");
                oracle.push(rec.clone());
            }),
            LogOp::Flush => w.flush().map(|()| flushed = oracle.len()),
        };
        match done {
            Ok(()) => {}
            Err(FlashError::PowerLoss) => return (flushed, Some(step)),
            Err(e) => panic!("step {step}: unexpected error {e}"),
        }
    }
    (flushed, None)
}

/// `w` holds exactly `oracle`: by ordinal, by scan, and nothing beyond.
fn assert_log_is(w: &LogWriter, oracle: &[Vec<u8>], ctx: &str) {
    assert_eq!(w.num_records(), oracle.len() as u64, "{ctx}");
    for (i, rec) in oracle.iter().enumerate() {
        assert_eq!(&w.get(i as u32).unwrap(), rec, "{ctx}: record {i}");
    }
    let past = w.get(oracle.len() as u32);
    assert_eq!(past, Err(FlashError::BadRecordAddr), "{ctx}");
    let mut scanned = Vec::new();
    w.for_each_record(|_, rec| {
        scanned.push(rec.to_vec());
        Ok(())
    })
    .unwrap();
    assert_eq!(scanned, oracle, "{ctx}: scan");
}

/// `w` is the only log on `flash`: every block is either free or its.
/// A power cut leaks none, and recovery frees what it truncates.
fn assert_blocks_add_up(flash: &Flash, w: &LogWriter, ctx: &str) {
    assert_blocks_add_up_but(flash, w, &[], ctx);
}

/// [`assert_blocks_add_up`] on a chip rebooted after an earlier recovery
/// on its lineage returned `forgotten` to the pool unerased: the reboot
/// re-derives the free list from erased cells, so each of those that no
/// log took back since is neither free nor held (ROADMAP item 11's
/// found-not-fixed list). Those, and no other block, are missing.
fn assert_blocks_add_up_but(flash: &Flash, w: &LogWriter, forgotten: &[BlockId], ctx: &str) {
    let is_free = |b: BlockId| {
        let free = flash.claim_block(b);
        if free {
            flash.free_block(b);
        }
        free
    };
    let lost = (forgotten.iter())
        .filter(|b| !w.blocks().contains(b) && !is_free(**b))
        .count();
    let (free, held) = (flash.free_blocks(), w.blocks().len());
    let total = flash.geometry().num_blocks();
    assert_eq!(
        free + held + lost,
        total,
        "{ctx}: {free} free + {held} held + {lost} forgotten"
    );
}

/// Reboot after a cut and recover: what comes back is a prefix of what
/// was appended, holds everything a flush covered, and reads back by
/// ordinal. Truncates `oracle` to it. The chip's blocks add up at the
/// cut and after the recovery, but for the `forgotten` blocks an earlier
/// recovery freed unerased. Returns the blocks this recovery freed.
fn recover_prefix(
    flash: &Flash,
    w: &LogWriter,
    oracle: &mut Vec<Vec<u8>>,
    flushed: usize,
    forgotten: &[BlockId],
    ctx: &str,
) -> (Flash, LogWriter, Vec<BlockId>) {
    assert_blocks_add_up(flash, w, &format!("{ctx}: at the cut"));
    let rebooted = flash.reboot();
    let (rec, report) = LogWriter::recover(&rebooted, w.blocks()).unwrap();
    assert_blocks_add_up_but(&rebooted, &rec, forgotten, &format!("{ctx}: recovered"));
    let freed = (w.blocks().iter())
        .filter(|b| !rec.blocks().contains(b))
        .copied()
        .collect();
    let n = rec.num_records() as usize;
    assert!(
        n >= flushed,
        "{ctx}: lost a flushed record ({n} < {flushed})"
    );
    assert!(n <= oracle.len(), "{ctx}: fabricated a record");
    assert_eq!(report.records_recovered, n as u64, "{ctx}");
    oracle.truncate(n);
    assert_log_is(&rec, oracle, ctx);
    (rebooted, rec, freed)
}

/// Records of any length against a `Vec<Vec<u8>>` oracle: the power is
/// cut on every page program of a record that spans four pages (and at
/// one random program elsewhere), the log recovered, more appended, the
/// power cut again. A record cut between its pages is never returned,
/// never merged into the next one, and costs no record before it.
#[test]
fn record_log_sweep_over_lengths_flushes_and_cuts() {
    let geo = FlashGeometry::new(256, 8, 64);
    let max = geo.page_size - 8;
    let mut runs_left_behind = 0;
    for case in 0..crash_seed_count() {
        let seed = 0xC4A5_7000 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let steps = rng.gen_range(10usize..40);
        let mut ops = record_script(&mut rng, max, steps);
        let big = rng.gen_range(0..ops.len());
        ops[big] = LogOp::Append((0..3 * max + 7).map(|_| rng.gen()).collect());
        let more = record_script(&mut rng, max, 20);

        // Fault-free dry run: cumulative programs after each step.
        let programs: Vec<u64> = {
            let flash = Flash::new(geo);
            let (mut w, mut oracle) = (flash.new_log(), Vec::new());
            let step = |op| {
                drive(&mut w, std::slice::from_ref(op), &mut oracle, 0);
                flash.stats().page_programs
            };
            ops.iter().map(step).collect()
        };
        let inside_big = if big == 0 { 0 } else { programs[big - 1] }..programs[big];
        assert!(inside_big.end - inside_big.start >= 3, "case {case}");
        let elsewhere = rng.gen_range(0..programs[ops.len() - 1]);

        for cut in inside_big.chain([elsewhere]) {
            let ctx = format!("case {case} cut {cut}");
            let flash = Flash::new(geo);
            flash.inject_faults(FaultPlan::new(seed ^ cut).power_loss_after(cut));
            let mut w = flash.new_log();
            let mut oracle = Vec::new();
            let (flushed, died) = drive(&mut w, &ops, &mut oracle, 0);
            assert!(died.is_some(), "{ctx}: the cut lies inside the script");
            let (flash, mut w, freed) = recover_prefix(&flash, &w, &mut oracle, flushed, &[], &ctx);
            // Did the cut leave the first pages of a record on flash? Then
            // the last page is one full chunk that is no record's end (no
            // length in the script is a larger multiple of `max`).
            if let Some(page) = w.num_pages().checked_sub(1) {
                let chunks = w.read_page_records(page).unwrap();
                let run = |c: &Vec<u8>| c.len() == max && Some(c) != oracle.last();
                runs_left_behind += usize::from(chunks.last().is_some_and(run));
            }

            // The next record — itself spanning pages — takes the next
            // ordinal and reads back intact, whatever run the cut left.
            let next: Vec<u8> = (0..=max).map(|_| rng.gen()).collect();
            let resumed = [LogOp::Append(next), LogOp::Flush];
            assert_eq!(drive(&mut w, &resumed, &mut oracle, 0).1, None);
            assert_log_is(&w, &oracle, &format!("{ctx}: resumed"));

            // More of the same, and a second cut.
            let again = rng.gen_range(0u64..16);
            flash.inject_faults(FaultPlan::new(seed ^ again).power_loss_after(again));
            let durable = oracle.len();
            let (flushed, died) = drive(&mut w, &more, &mut oracle, durable);
            let ctx = format!("{ctx}, then {again}");
            let mut w = match died {
                Some(_) => recover_prefix(&flash, &w, &mut oracle, flushed, &freed, &ctx).1,
                None => {
                    // The cut lay past the script: call it off.
                    flash.inject_faults(FaultPlan::new(0));
                    w
                }
            };
            let last: Vec<u8> = (0..2 * max).map(|_| rng.gen()).collect();
            assert_eq!(
                drive(&mut w, &[LogOp::Append(last)], &mut oracle, 0).1,
                None
            );
            assert_log_is(&w, &oracle, &format!("{ctx}: tail in RAM"));
            let sealed: Vec<Vec<u8>> = w.seal().unwrap().reader().map(|r| r.unwrap()).collect();
            assert_eq!(sealed, oracle, "{ctx}: sealed");
        }
    }
    assert!(runs_left_behind > 0, "no cut fell between a record's pages");
}

/// Running out of blocks in the middle of a record that spans pages is
/// the same non-event as a power cut there: the record is absent, the
/// records before it are untouched, the next one reads back intact.
#[test]
fn an_append_that_runs_out_of_blocks_midway_leaves_no_record() {
    let flash = Flash::new(FlashGeometry::new(256, 4, 4));
    let ballast: Vec<_> = (0..3).map(|_| flash.alloc_block().unwrap()).collect();
    let mut w = flash.new_log();
    let max = w.max_record_len();
    let mut oracle = vec![b"before".to_vec()];
    w.append(&oracle[0]).unwrap();
    w.flush().unwrap();
    // Page 0 is taken; chunks 1–3 fill the block, chunk 5 needs chunk 4
    // programmed into a second block the chip does not have.
    let too_much = vec![0xAB; 4 * max + 9];
    assert_eq!(w.append(&too_much), Err(FlashError::OutOfBlocks));
    assert_eq!(w.num_pages(), 4, "three chunks did reach flash");
    assert!(w.buffered_records().is_empty(), "the fourth is dropped");
    assert_log_is(&w, &oracle, "after the failed append");

    for b in ballast {
        flash.free_block(b);
    }
    oracle.push(vec![0xCD; max + 5]);
    assert_eq!(w.append(&oracle[1]).unwrap(), 1);
    assert_log_is(&w, &oracle, "tail in RAM");
    w.flush().unwrap();
    assert_log_is(&w, &oracle, "flushed");
    let (rec, _) = LogWriter::recover(&flash.reboot(), w.blocks()).unwrap();
    assert_log_is(&rec, &oracle, "recovered");
}

/// The chip as the parent commit stored it — every block a full image of
/// 0xFF — and the boot scan as it ran there: the reference the page-grain
/// cell store is held against.
struct BlockModel {
    geo: FlashGeometry,
    cells: Vec<Vec<u8>>,
    erases: Vec<u64>,
    /// The live controller's next programmable offset per block; a boot
    /// forgets it and [`BlockModel::scan`] is all it gets back.
    cursor: Vec<usize>,
}

impl BlockModel {
    fn new(geo: FlashGeometry) -> Self {
        BlockModel {
            geo,
            cells: vec![vec![0xFF; geo.pages_per_block * geo.page_size]; geo.num_blocks()],
            erases: vec![0; geo.num_blocks()],
            cursor: vec![0; geo.num_blocks()],
        }
    }

    fn page(&self, b: usize, off: usize) -> &[u8] {
        &self.cells[b][off * self.geo.page_size..(off + 1) * self.geo.page_size]
    }

    /// The first `reached` bytes of `page` get to the cells; the page
    /// counts as programmed however few they are.
    fn program(&mut self, b: usize, page: &[u8], reached: usize) {
        let start = self.cursor[b] * self.geo.page_size;
        self.cells[b][start..start + reached].copy_from_slice(&page[..reached]);
        self.cursor[b] += 1;
    }

    fn erase(&mut self, b: usize) {
        self.cells[b].fill(0xFF);
        self.erases[b] += 1;
        self.cursor[b] = 0;
    }

    /// The boot scan: the cursor resumes after the last page holding a
    /// non-0xFF byte.
    fn scan(&self, b: usize) -> usize {
        (0..self.geo.pages_per_block)
            .rev()
            .find(|&off| self.page(b, off).iter().any(|&x| x != 0xFF))
            .map_or(0, |off| off + 1)
    }
}

/// A chip just booted from `model`'s cells is the chip the full-block
/// scan describes: every page reads alike, every block takes its next
/// program exactly where the scan says, the free list is the erased
/// blocks, the wear counters came along. Programs nothing that sticks
/// unless `consume` (then every block's next page is programmed, which
/// spoils the chip for further comparison).
fn assert_booted_chip_is(flash: &Flash, model: &BlockModel, consume: bool, ctx: &str) {
    let geo = model.geo;
    let mut buf = vec![0u8; geo.page_size];
    let page = vec![0x5A; geo.page_size];
    let mut erased = 0;
    for b in 0..geo.num_blocks() {
        let bid = BlockId(b as u32);
        for off in 0..geo.pages_per_block {
            flash
                .read_page(geo.page_in_block(bid, off), &mut buf)
                .unwrap();
            assert_eq!(buf, model.page(b, off), "{ctx}: block {b} page {off}");
        }
        let next = model.scan(b);
        erased += usize::from(next == 0);
        if let Some(below) = next.checked_sub(1) {
            let addr = geo.page_in_block(bid, below);
            let got = flash.program_page(addr, &page);
            assert_eq!(
                got,
                Err(FlashError::WriteToProgrammed(addr)),
                "{ctx}: block {b}"
            );
        }
        if next + 1 < geo.pages_per_block {
            let got = flash.program_page(geo.page_in_block(bid, next + 1), &page);
            let expected = geo.page_in_block(bid, next);
            assert!(
                matches!(got, Err(FlashError::OutOfOrderProgram { expected: e, .. }) if e == expected),
                "{ctx}: block {b} takes its next program at {next}, got {got:?}"
            );
        }
        if consume && next < geo.pages_per_block {
            flash
                .program_page(geo.page_in_block(bid, next), &page)
                .unwrap();
        }
        let wear = flash.inner.borrow().nand.erase_count(bid);
        assert_eq!(wear, model.erases[b], "{ctx}: block {b} wear");
    }
    assert_eq!(flash.free_blocks(), erased, "{ctx}: free ⇔ erased");
}

/// The page-grain cell store against the full-block model, swept over
/// seeds and two geometries: a script of programs, erases, block frees
/// and reallocations runs into a seeded power cut (torn or dropped), the
/// chip is booted twice — from a *photograph* (`snapshot`) and from the
/// cells themselves (`power_off`) — and the script carries on on the
/// moved chip into the next cut. Both boots must be the chip the model's
/// scan describes, and the handle the cells left must be a dead chip.
#[test]
fn cell_store_sweep_against_a_full_block_model() {
    let geos = [
        FlashGeometry::new(512, 16, 8),
        FlashGeometry::new(2048, 64, 4),
    ];
    // The medium's two ambiguities, which the sweep must have crossed.
    let (mut torn_before_a_mark, mut blank_last_page) = (0, 0);
    for (g, geo) in geos.into_iter().enumerate() {
        for case in 0..crash_seed_count() {
            let seed = 0xCE11_0000 + ((g as u64) << 12) + case;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut flash = Flash::new(geo);
            let mut model = BlockModel::new(geo);
            for life in 0..3u64 {
                let ctx = format!("geo {g} case {case} life {life}");
                // What the cut will do to the program it lands on.
                let plan = FaultPlan::new(seed ^ life).power_loss_after(0);
                let fate = plan.clone().on_program(geo.page_size);
                let mut programs_left = rng.gen_range(0u64..3 * geo.pages_per_block as u64);
                flash.inject_faults(plan.power_loss_after(programs_left));
                // A boot hands every non-erased block to whoever
                // recovers it: here, the script.
                let mut held: Vec<usize> = (0..geo.num_blocks())
                    .filter(|&b| model.cursor[b] > 0)
                    .collect();
                'life: for _ in 0..6 * geo.pages_per_block {
                    let pick = rng.gen_range(0..held.len().max(1));
                    match (rng.gen_range(0u32..16), held.get(pick).copied()) {
                        (0, Some(b)) => {
                            flash.erase_block(BlockId(b as u32)).unwrap();
                            model.erase(b);
                        }
                        (1, Some(b)) => {
                            flash.free_block(BlockId(b as u32));
                            held.swap_remove(pick);
                        }
                        (2 | 3, _) | (_, None) => {
                            // A reclaimed block is erased on its way out.
                            let Ok(bid) = flash.alloc_block() else {
                                continue;
                            };
                            let b = bid.0 as usize;
                            if model.cursor[b] > 0 {
                                model.erase(b);
                            }
                            held.push(b);
                        }
                        (_, Some(b)) if model.cursor[b] == geo.pages_per_block => {}
                        (kind, Some(b)) => {
                            // Random bytes, sometimes behind a blank
                            // first half, sometimes a wholly blank page.
                            let mut page: Vec<u8> = (0..geo.page_size).map(|_| rng.gen()).collect();
                            let blank = [0, 0, geo.page_size / 2, geo.page_size];
                            page[..blank[kind as usize % 4]].fill(0xFF);
                            let addr = geo.page_in_block(BlockId(b as u32), model.cursor[b]);
                            let done = flash.program_page(addr, &page);
                            if programs_left > 0 {
                                programs_left -= 1;
                                assert_eq!(done, Ok(()), "{ctx}");
                                model.program(b, &page, geo.page_size);
                                continue;
                            }
                            assert_eq!(done, Err(FlashError::PowerLoss), "{ctx}");
                            if let ProgramFault::Torn { prefix } = fate {
                                let blank = page[..prefix].iter().all(|&x| x == 0xFF);
                                torn_before_a_mark += usize::from(blank);
                                model.program(b, &page, prefix);
                            }
                            break 'life;
                        }
                    }
                }
                blank_last_page += (0..geo.num_blocks())
                    .filter(|&b| model.scan(b) < model.cursor[b])
                    .count();
                // The boot forgets the live cursors; the scan is all
                // either reboot has.
                for b in 0..geo.num_blocks() {
                    model.cursor[b] = model.scan(b);
                }
                let copied = Flash::reopen(flash.snapshot());
                assert_booted_chip_is(&copied, &model, true, &format!("{ctx}, copied"));
                let dead = flash.clone();
                flash = Flash::reopen(flash.power_off());
                assert_booted_chip_is(&flash, &model, false, &format!("{ctx}, moved"));
                let addr = geo.page_in_block(BlockId(0), 0);
                let mut buf = vec![0u8; geo.page_size];
                assert_eq!(dead.read_page(addr, &mut buf), Err(FlashError::PowerLoss));
                assert_eq!(dead.program_page(addr, &buf), Err(FlashError::PowerLoss));
                assert_eq!(dead.erase_block(BlockId(0)), Err(FlashError::PowerLoss));
            }
        }
    }
    assert!(
        torn_before_a_mark > 0,
        "no tear stopped inside a blank prefix"
    );
    assert!(blank_last_page > 0, "no block ended on an all-0xFF page");
}
