//! External merge sort built exclusively from log structures.
//!
//! Step 1 of a reorganization: "Sort the (key, pointer) pairs → temporary
//! logs (sorted "runs") → result written sequentially: «Sorted Keys»."
//! Runs are plain logs; the merge reads one page per run and writes one
//! sequential output log; temporary runs are reclaimed at block grain the
//! moment they are merged. RAM use — the run buffer during run formation,
//! one page per merged run during the merge — is charged to the MCU
//! budget, and the merge fan-in is derived from it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pds_flash::{Flash, Log, LogWriter};
use pds_mcu::{RamBudget, Reservation};
use pds_obs::wire::{put_prefixed, Reader};

use crate::error::DbError;
use crate::table::RowId;

/// One sortable entry: an order-preserving key and a rowid payload.
pub type SortEntry = (Vec<u8>, RowId);

/// Append one entry as `klen u16 ‖ key ‖ rowid u32` — the layout shared
/// by sort records, PBFilter Keys pages and tree pages.
pub(crate) fn write_entry(out: &mut Vec<u8>, key: &[u8], rowid: RowId) {
    put_prefixed(out, key);
    out.extend_from_slice(&rowid.to_le_bytes());
}

/// Shortest entry [`write_entry`] lays out: an empty key and its rowid.
pub(crate) const MIN_ENTRY_LEN: usize = 2 + 4;

/// One entry read where it lies: the key is a slice of the page or
/// record it came from.
pub(crate) type SortEntryRef<'a> = (&'a [u8], RowId);

/// Read one entry laid out by [`write_entry`] — the layout's only parser.
pub(crate) fn read_entry<'a>(r: &mut Reader<'a>) -> Option<SortEntryRef<'a>> {
    let key = r.prefixed()?;
    Some((key, r.u32()?))
}

pub(crate) fn encode_entry(key: &[u8], rowid: RowId) -> Vec<u8> {
    let mut rec = Vec::with_capacity(2 + key.len() + 4);
    write_entry(&mut rec, key, rowid);
    rec
}

/// Decode an entry record written by a run or output log.
pub fn decode_entry(rec: &[u8]) -> Option<SortEntry> {
    let mut r = Reader::new(rec);
    let (key, rowid) = read_entry(&mut r)?;
    r.finish()?;
    Some((key.to_vec(), rowid))
}

/// Sort `entries` by `(key, rowid)` into a sealed output log.
///
/// `run_bytes` bounds the RAM used for run formation; the merge fan-in is
/// `merge_pages` (one RAM page per run being merged). Both are reserved
/// from `ram` and the sort fails with [`DbError::Ram`] if the device
/// cannot afford them.
pub fn external_sort(
    flash: &Flash,
    ram: &RamBudget,
    mut entries: impl Iterator<Item = SortEntry>,
    run_bytes: usize,
    merge_pages: usize,
) -> Result<Log, DbError> {
    sort_with(flash, ram, run_bytes, merge_pages, |runs| {
        entries.try_for_each(|(key, rowid)| runs.push(key, rowid))
    })
}

/// Sorted run formation, fed one entry at a time: the entries buffered
/// in RAM (charged as they come) and the runs already written.
pub(crate) struct Runs {
    flash: Flash,
    run_bytes: usize,
    buffer: Vec<SortEntry>,
    guard: Reservation,
    logs: Vec<Log>,
}

impl Runs {
    /// Buffer one entry, writing the buffer out as a sorted run once it
    /// holds `run_bytes`.
    pub(crate) fn push(&mut self, key: Vec<u8>, rowid: RowId) -> Result<(), DbError> {
        self.guard.grow(key.len() + 8)?;
        self.buffer.push((key, rowid));
        if self.guard.bytes() >= self.run_bytes {
            self.spill()?;
        }
        Ok(())
    }

    fn spill(&mut self) -> Result<(), DbError> {
        self.logs.push(write_run(&self.flash, &mut self.buffer)?);
        self.guard.shrink(self.guard.bytes());
        Ok(())
    }
}

/// [`external_sort`] of the entries `fill` pushes. Whatever fails —
/// `fill`, a run, a merge — every run written so far goes back to the
/// pool and that error is the result.
pub(crate) fn sort_with(
    flash: &Flash,
    ram: &RamBudget,
    run_bytes: usize,
    merge_pages: usize,
    fill: impl FnOnce(&mut Runs) -> Result<(), DbError>,
) -> Result<Log, DbError> {
    // pds-lint: allow(panic.assert) — fan-in is a caller-chosen RAM-budget
    // constant fixed at plan time, never derived from stored data.
    assert!(merge_pages >= 2, "merge needs at least fan-in 2");
    // Phase 1: sorted run formation.
    let mut runs = Runs {
        flash: flash.clone(),
        run_bytes,
        buffer: Vec::new(),
        guard: ram.reserve(0)?,
        logs: Vec::new(),
    };
    let formed = fill(&mut runs).and_then(|()| {
        if runs.buffer.is_empty() {
            Ok(())
        } else {
            runs.spill()
        }
    });
    // The run buffer's RAM goes back before the merge takes its pages.
    let Runs { mut logs, .. } = runs;
    if let Err(e) = formed {
        logs.into_iter().for_each(Log::reclaim);
        return Err(e);
    }
    if logs.is_empty() {
        return Ok(flash.new_log().seal()?);
    }
    // Phase 2: iterative fan-in-limited merge.
    while logs.len() > 1 {
        let take = logs.len().min(merge_pages);
        let group: Vec<Log> = logs.drain(..take).collect();
        let merged = merge_runs(flash, ram, &group);
        group.into_iter().for_each(Log::reclaim);
        match merged {
            Ok(merged) => logs.push(merged),
            Err(e) => {
                logs.into_iter().for_each(Log::reclaim);
                return Err(e);
            }
        }
    }
    logs.pop()
        .ok_or(DbError::Corrupt("external sort merged away every run"))
}

/// Seal `w` once `written` is `Ok` and its last page programs too;
/// otherwise give back every block it claimed and return the error.
pub(crate) fn seal_or_discard(
    mut w: LogWriter,
    written: Result<(), DbError>,
) -> Result<Log, DbError> {
    match written.and_then(|()| Ok(w.flush()?)) {
        Ok(()) => Ok(w.seal()?),
        Err(e) => {
            w.discard();
            Err(e)
        }
    }
}

fn write_run(flash: &Flash, buffer: &mut Vec<SortEntry>) -> Result<Log, DbError> {
    buffer.sort();
    let mut w = flash.new_log();
    let written = buffer
        .drain(..)
        .try_for_each(|(key, rowid)| w.append(&encode_entry(&key, rowid)).map(drop));
    seal_or_discard(w, written.map_err(DbError::from))
}

fn merge_runs(flash: &Flash, ram: &RamBudget, runs: &[Log]) -> Result<Log, DbError> {
    // One page of RAM per run: the LogReader window.
    let _guard = ram.reserve(runs.len() * flash.geometry().page_size)?;
    let mut out = flash.new_log();
    let written = merge_into(&mut out, runs);
    seal_or_discard(out, written)
}

fn merge_into(out: &mut LogWriter, runs: &[Log]) -> Result<(), DbError> {
    let mut readers: Vec<_> = runs.iter().map(|r| r.reader()).collect();
    let mut next = |i: usize| -> Result<Option<Reverse<(SortEntry, usize)>>, DbError> {
        let Some(rec) = readers[i].next() else {
            return Ok(None);
        };
        let entry = decode_entry(&rec?).ok_or(DbError::Corrupt("sort run"))?;
        Ok(Some(Reverse((entry, i))))
    };
    let mut heap: BinaryHeap<Reverse<(SortEntry, usize)>> = BinaryHeap::new();
    for i in 0..runs.len() {
        heap.extend(next(i)?);
    }
    while let Some(Reverse(((key, rowid), i))) = heap.pop() {
        out.append(&encode_entry(&key, rowid))?;
        heap.extend(next(i)?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::rng::StdRng;
    use pds_obs::rng::{Rng, SeedableRng};

    fn setup() -> (Flash, RamBudget) {
        (Flash::small(512), RamBudget::new(64 * 1024))
    }

    /// Read back a sorted log as entries.
    fn read_sorted(log: &Log) -> Result<Vec<SortEntry>, DbError> {
        log.reader()
            .map(|rec| decode_entry(&rec?).ok_or(DbError::Corrupt("sorted log")))
            .collect()
    }

    #[test]
    fn entry_records_keep_the_decoder_contract() {
        pds_obs::wire::sweep(
            "sort entry",
            pds_obs::wire::Tail::Exact,
            // A key claiming 65 535 bytes.
            &[&[0xFF; 9]],
            |rng| (b"key".repeat(rng.gen_range(0..9usize)), rng.gen()),
            |(key, rowid)| encode_entry(key, *rowid),
            decode_entry,
        );
    }

    #[test]
    fn sorts_random_input() {
        let (f, ram) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let entries: Vec<SortEntry> = (0..5000u32)
            .map(|i| (rng.gen::<u32>().to_be_bytes().to_vec(), i))
            .collect();
        let mut expected = entries.clone();
        expected.sort();
        let log = external_sort(&f, &ram, entries.into_iter(), 4096, 4).unwrap();
        assert_eq!(read_sorted(&log).unwrap(), expected);
    }

    #[test]
    fn multi_pass_merge_with_tiny_fan_in() {
        let (f, ram) = setup();
        let entries: Vec<SortEntry> = (0..2000u32)
            .rev()
            .map(|i| (i.to_be_bytes().to_vec(), i))
            .collect();
        // Tiny runs (many of them) + fan-in 2 forces several merge passes.
        let log = external_sort(&f, &ram, entries.into_iter(), 256, 2).unwrap();
        let sorted = read_sorted(&log).unwrap();
        assert_eq!(sorted.len(), 2000);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn temporary_runs_are_reclaimed() {
        let (f, ram) = setup();
        let before = f.free_blocks();
        let entries: Vec<SortEntry> = (0..3000u32)
            .map(|i| ((i * 7 % 997).to_be_bytes().to_vec(), i))
            .collect();
        let log = external_sort(&f, &ram, entries.into_iter(), 512, 3).unwrap();
        let output_blocks = log.blocks().len();
        assert_eq!(
            f.free_blocks(),
            before - output_blocks,
            "only the output log may keep blocks"
        );
        log.reclaim();
        assert_eq!(f.free_blocks(), before);
    }

    #[test]
    fn duplicate_keys_order_by_rowid() {
        let (f, ram) = setup();
        let entries = vec![
            (b"k".to_vec(), 5),
            (b"k".to_vec(), 1),
            (b"a".to_vec(), 9),
            (b"k".to_vec(), 3),
        ];
        let log = external_sort(&f, &ram, entries.into_iter(), 64, 2).unwrap();
        assert_eq!(
            read_sorted(&log).unwrap(),
            vec![
                (b"a".to_vec(), 9),
                (b"k".to_vec(), 1),
                (b"k".to_vec(), 3),
                (b"k".to_vec(), 5),
            ]
        );
    }

    #[test]
    fn a_sort_out_of_blocks_leaves_no_run_behind() {
        // 18 runs a block each and fan-in 2: the chip is left `spare`
        // free blocks, and every sort short of the first count it fits in
        // fails in run formation or in a merge pass with runs still
        // waiting — and hands every block back.
        let entries = || (0..3000u32).rev().map(|i| (i.to_be_bytes().to_vec(), i));
        let mut spare = 0;
        let sorted = loop {
            let (f, ram) = (Flash::small(128), RamBudget::new(64 * 1024));
            let _held: Vec<_> = std::iter::repeat_with(|| f.alloc_block().unwrap())
                .take(f.free_blocks() - spare)
                .collect();
            match external_sort(&f, &ram, entries(), 2048, 2) {
                Ok(log) => break read_sorted(&log).unwrap(),
                Err(err) => {
                    assert!(
                        matches!(err, DbError::Flash(pds_flash::FlashError::OutOfBlocks)),
                        "{spare} spare: {err:?}"
                    );
                    assert_eq!(f.free_blocks(), spare, "{spare} spare: a block leaked");
                }
            }
            spare += 1;
        };
        assert!(spare > 18, "{spare}");
        assert_eq!(sorted.len(), 3000);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_input_yields_empty_log() {
        let (f, ram) = setup();
        let log = external_sort(&f, &ram, std::iter::empty(), 1024, 2).unwrap();
        assert_eq!(log.num_records(), 0);
    }

    #[test]
    fn ram_budget_bounds_run_buffer() {
        let f = Flash::small(64);
        let ram = RamBudget::new(1024); // smaller than the requested run
        let entries = (0..1000u32).map(|i| (i.to_be_bytes().to_vec(), i));
        let err = external_sort(&f, &ram, entries, 64 * 1024, 2).unwrap_err();
        assert!(matches!(err, DbError::Ram(_)));
    }

    #[test]
    fn merge_ram_is_one_page_per_run() {
        let (f, ram) = setup();
        ram.reset_high_water();
        let entries: Vec<SortEntry> = (0..4000u32)
            .rev()
            .map(|i| (i.to_be_bytes().to_vec(), i))
            .collect();
        external_sort(&f, &ram, entries.into_iter(), 2048, 4).unwrap();
        let page = f.geometry().page_size;
        // Peak is max(run buffer, fan_in pages) + slack.
        assert!(
            ram.high_water() <= 2048 + 4 * page + 512,
            "peak {} exceeds the declared sort budget",
            ram.high_water()
        );
    }
}
