//! Device configuration.

use snic_mem::planner::PagePolicy;
use snic_types::ByteSize;
pub use snic_types::NicMode;

/// Static configuration of a [`crate::device::SmartNic`].
#[derive(Debug, Clone)]
pub struct NicConfig {
    /// Personality.
    pub mode: NicMode,
    /// Programmable cores (the S-NIC management core is separate).
    pub cores: u16,
    /// On-NIC DRAM size.
    pub dram: ByteSize,
    /// Hardware TLB slots per programmable core.
    pub core_tlb_entries: usize,
    /// Clusters per accelerator family.
    pub accel_clusters: u16,
    /// Hardware threads per cluster.
    pub threads_per_cluster: u32,
    /// Physical RX port buffer space.
    pub rx_buffer: ByteSize,
    /// Physical TX port buffer space.
    pub tx_buffer: ByteSize,
    /// Page sizes available to the launch planner.
    pub page_policy: PagePolicy,
    /// Core clock.
    pub clock_hz: u64,
    /// Bus operations per second one client may issue before a commodity
    /// NIC's bus saturates and the NIC hard-crashes (§3.3's Agilio DoS).
    pub bus_crash_threshold: u64,
    /// RNG seed for the device's key generation.
    pub seed: u64,
}

impl NicConfig {
    /// A LiquidIO-like commodity NIC.
    pub fn commodity() -> NicConfig {
        NicConfig {
            mode: NicMode::Commodity,
            cores: 12,
            dram: ByteSize::gib(2),
            core_tlb_entries: 512,
            accel_clusters: 16,
            threads_per_cluster: 4,
            rx_buffer: ByteSize::mib(32),
            tx_buffer: ByteSize::mib(32),
            page_policy: PagePolicy::Equal,
            clock_hz: 1_200_000_000,
            bus_crash_threshold: 50_000_000,
            seed: 0x51c,
        }
    }

    /// The same hardware with S-NIC's isolation extensions.
    pub fn snic() -> NicConfig {
        NicConfig {
            mode: NicMode::Snic,
            ..NicConfig::commodity()
        }
    }

    /// Smaller device for fast unit tests.
    pub fn small(mode: NicMode) -> NicConfig {
        NicConfig {
            mode,
            cores: 4,
            dram: ByteSize::mib(256),
            accel_clusters: 4,
            rx_buffer: ByteSize::mib(8),
            tx_buffer: ByteSize::mib(8),
            ..NicConfig::commodity()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_only_in_mode() {
        let c = NicConfig::commodity();
        let s = NicConfig::snic();
        assert_eq!(c.mode, NicMode::Commodity);
        assert_eq!(s.mode, NicMode::Snic);
        assert_eq!(c.cores, s.cores);
        assert_eq!(c.dram, s.dram);
    }

    #[test]
    fn small_preset_is_smaller() {
        let small = NicConfig::small(NicMode::Snic);
        assert!(small.dram < NicConfig::snic().dram);
        assert!(small.cores < NicConfig::snic().cores);
    }
}
