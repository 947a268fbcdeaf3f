//! Calibrated device classes.
//!
//! The tutorial's Part II slide "Target hardware" lists three families:
//! sensors with flash cards, secure personal devices (smart tokens, secure
//! MicroSD with 4 GB flash, contactless tokens with 8 GB), and the
//! FreedomBox-class plug server of Part I. Each profile pairs an MCU RAM
//! size with a NAND geometry so experiments can sweep across the spectrum.

use pds_flash::FlashGeometry;

/// A device class = RAM size + flash geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardwareProfile {
    /// Human-readable class name.
    pub name: &'static str,
    /// MCU RAM available to data management, in bytes.
    pub ram_bytes: usize,
    /// NAND geometry of the storage chip.
    pub flash: FlashGeometry,
}

impl HardwareProfile {
    /// A wireless sensor node: 8 KB RAM, 64 MB flash card.
    pub fn sensor() -> Self {
        HardwareProfile {
            name: "sensor",
            ram_bytes: 8 * 1024,
            flash: FlashGeometry::nand_2k(64),
        }
    }

    /// The tutorial's secure portable token: 64 KB RAM (below the 128 KB
    /// bound of the slides), 4 GB-class secure MicroSD. The simulated chip
    /// is scaled to 256 MB so experiments stay laptop-sized; the geometry
    /// (2 KB pages, 64 pages/block) is the real one.
    pub fn secure_token() -> Self {
        HardwareProfile {
            name: "secure-token",
            ram_bytes: 64 * 1024,
            flash: FlashGeometry::nand_2k(256),
        }
    }

    /// A small secure token at the very bottom of the range: 16 KB RAM.
    pub fn small_token() -> Self {
        HardwareProfile {
            name: "small-token",
            ram_bytes: 16 * 1024,
            flash: FlashGeometry::nand_2k(128),
        }
    }

    /// A FreedomBox-class plug server: 256 MB RAM (the tutorial's minimum
    /// base requirement), flash-backed file system. RAM is no longer the
    /// bottleneck on this class; it serves as the "unconstrained" baseline.
    pub fn plug_server() -> Self {
        HardwareProfile {
            name: "plug-server",
            ram_bytes: 256 * 1024 * 1024,
            flash: FlashGeometry::nand_2k(512),
        }
    }

    /// A minimal-footprint profile for simulating large populations of
    /// tokens (Part III runs thousands of PDSs in one process): 16 KB
    /// RAM, 2 MB flash. Same constraints, smaller canvas.
    pub fn population() -> Self {
        HardwareProfile {
            name: "population",
            ram_bytes: 16 * 1024,
            flash: FlashGeometry::new(512, 16, 256),
        }
    }

    /// A tiny profile for fast unit tests.
    pub fn test_profile() -> Self {
        HardwareProfile {
            name: "test",
            ram_bytes: 32 * 1024,
            flash: FlashGeometry::new(512, 16, 4096),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_respects_the_tutorial_ram_bound() {
        let p = HardwareProfile::secure_token();
        assert!(p.ram_bytes < 128 * 1024, "slides: RAM < 128 KB");
        assert!(
            p.ram_bytes / p.flash.page_size >= 8,
            "enough for a few page cursors"
        );
    }

    #[test]
    fn profiles_are_ordered_by_ram() {
        let s = HardwareProfile::sensor();
        let t = HardwareProfile::secure_token();
        let p = HardwareProfile::plug_server();
        assert!(s.ram_bytes < t.ram_bytes);
        assert!(t.ram_bytes < p.ram_bytes);
    }
}
