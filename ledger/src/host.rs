//! Host-side readings from `/proc`: peak resident memory, CPU time
//! summed over threads, load average and steal time.
//!
//! Every parser takes the file's text, so it is testable without the
//! file; every reader returns `None` when the file is absent (another
//! OS, a locked-down container) and the metric is then reported as 0.

use std::fs;

/// `VmHWM` (peak resident set) in kB, from `/proc/self/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// On-CPU nanoseconds: the first field of a `schedstat` file.
pub fn parse_schedstat_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// The 1-minute load average: the first field of `/proc/loadavg`.
pub fn parse_loadavg(text: &str) -> Option<f64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of
/// `/proc/stat` (steal is the eighth counter; kernels older than 2.6.11
/// omit it, which reads as 0).
pub fn parse_cpu_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() < 4 {
        return None;
    }
    let steal = fields.get(7).copied().unwrap_or(0);
    // guest and guest_nice are already included in user and nice.
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// Index of the highest CPU set in an affinity mask of 64-bit words.
fn highest_cpu(mask: &[u64]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + 63 - word.leading_zeros() as usize)
}

/// Pin the calling thread, and every thread it spawns afterwards, to
/// the highest CPU it may run on; returns that CPU, or `None` where the
/// affinity cannot be read or set (the run then goes on unpinned).
///
/// Every workload is a chain of hand-offs in which one thread runs at a
/// time (the driver waits for its one worker), so one CPU loses no
/// parallelism — and the hand-off, which costs a cross-CPU wake-up or a
/// local context switch depending on where the scheduler happened to
/// put the two threads, stops being a coin the kernel flips per run
/// (README, "Calibration": `cell_sync` blocks 740–1 450 ms unpinned,
/// 740–910 ms pinned). The highest CPU, because interrupts land on the
/// lowest.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // cpu_set_t: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of exactly `size`
    // bytes, which is all the call writes; pid 0 names the caller.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = highest_cpu(&allowed)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `size` bytes, which the
    // call only reads; pid 0 names the caller.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Peak resident set of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// On-CPU nanoseconds summed over the live threads of this process.
/// A thread that exits takes its time with it, so callers sample
/// around a region whose threads outlive it.
pub fn cpu_ns() -> Option<u64> {
    let mut total = 0u64;
    let mut seen = false;
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let path = entry.ok()?.path().join("schedstat");
        // A thread can exit between the listing and the read.
        if let Some(ns) = fs::read_to_string(path)
            .ok()
            .as_deref()
            .and_then(parse_schedstat_ns)
        {
            total += ns;
            seen = true;
        }
    }
    seen.then_some(total)
}

/// 1-minute load average of the machine.
pub fn loadavg() -> Option<f64> {
    parse_loadavg(&fs::read_to_string("/proc/loadavg").ok()?)
}

/// `(steal, total)` jiffies of the machine so far.
pub fn cpu_steal() -> Option<(u64, u64)> {
    parse_cpu_steal(&fs::read_to_string("/proc/stat").ok()?)
}

/// Steal time between two [`cpu_steal`] readings, as a percentage of
/// all CPU time in the interval; 0 when either reading is missing.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_found_among_other_lines() {
        let status = "Name:\tledger\nVmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51200));
        assert_eq!(parse_vm_hwm_kb("Name:\tledger\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb(""), None);
    }

    #[test]
    fn schedstat_first_field_is_cpu_time() {
        assert_eq!(parse_schedstat_ns("123456789 42 7\n"), Some(123456789));
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn loadavg_first_field() {
        assert_eq!(parse_loadavg("0.52 0.41 0.30 1/123 4567\n"), Some(0.52));
        assert_eq!(parse_loadavg(""), None);
    }

    #[test]
    fn steal_is_the_eighth_counter() {
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 17 0 0\n";
        assert_eq!(parse_cpu_steal(stat), Some((35, 1000)));
        // An old kernel without the steal column.
        assert_eq!(parse_cpu_steal("cpu  1 2 3 4\n"), Some((0, 10)));
        assert_eq!(parse_cpu_steal("intr 1 2 3\n"), None);
        assert_eq!(parse_cpu_steal("cpu  1 x 3 4\n"), None);
    }

    #[test]
    fn steal_pct_handles_missing_and_flat_readings() {
        assert_eq!(steal_pct(Some((0, 0)), Some((5, 100))), 5.0);
        assert_eq!(steal_pct(None, Some((5, 100))), 0.0);
        assert_eq!(steal_pct(Some((5, 100)), Some((5, 100))), 0.0);
    }

    #[test]
    fn highest_cpu_of_a_mask() {
        assert_eq!(highest_cpu(&[0b11, 0]), Some(1));
        assert_eq!(highest_cpu(&[1, 1 << 5]), Some(69));
        assert_eq!(highest_cpu(&[1 << 63]), Some(63));
        assert_eq!(highest_cpu(&[0, 0]), None);
    }

    #[test]
    fn readers_fall_back_to_none_or_a_value_never_panic() {
        // On Linux these are Some; elsewhere None. Either way no panic,
        // and a present reading is sane.
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
        if let Some(ns) = cpu_ns() {
            assert!(ns > 0);
        }
        let _ = (loadavg(), cpu_steal());
    }
}
