//! Machine parameters for the microarchitectural simulator.
//!
//! Defaults follow §5.3 of the paper: "Our simulated NIC had multiple
//! out-of-order, 1.2 GHz ARM cores that used a two-level cache and 16 GB
//! of 1,600 MHz DDR3 RAM. We configured the core frequency, cache line
//! size, L1 cache size, and cache associativity and latency to match
//! those of the Marvell smart NIC described in the iPipe paper."
//!
//! The frequency, caches and DRAM follow that quote; the out-of-order
//! core does not. The engine's core blocks on every L2 miss (`Back::run`
//! resumes a missing lane at `start + BUS_BEAT_CYCLES + DRAM_CYCLES`
//! before its next event issues), so no two misses of one lane overlap.
//! DESIGN.md §2 records the deviation; ROADMAP item 17 is the miss
//! window that would close it.

use crate::bus::{BusKind, EPOCH_CYCLES};
use crate::cache::{CacheConfig, Partition};

/// Core clock in Hz.
pub const CORE_HZ: u64 = 1_200_000_000;

/// L1-miss / L2-hit penalty in cycles.
pub const L2_HIT_CYCLES: u64 = 12;

/// DRAM access latency in cycles (after winning the bus).
pub const DRAM_CYCLES: u64 = 110;

/// Bus occupancy of one cache-line transfer, in cycles.
pub const BUS_BEAT_CYCLES: u64 = 16;

/// Full machine configuration for one colocation run. The core clock
/// and the latencies are the same for every configuration: see
/// [`CORE_HZ`], [`L2_HIT_CYCLES`], [`DRAM_CYCLES`], [`BUS_BEAT_CYCLES`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Per-core private L1 data cache.
    pub l1: CacheConfig,
    /// Shared L2 cache.
    pub l2: CacheConfig,
    /// L2 sharing discipline.
    pub l2_partition: Partition,
    /// Bus arbitration discipline.
    pub bus: BusKind,
    /// Temporal-partitioning epoch length in cycles (used when `bus` is
    /// [`BusKind::Temporal`]).
    pub epoch_cycles: u64,
}

impl MachineConfig {
    /// The commodity baseline: shared L2, FCFS bus.
    pub fn commodity(tenants: u32, l2_bytes: u64) -> MachineConfig {
        let _ = tenants; // Baseline has the same cotenancy, no partitioning.
        MachineConfig {
            l1: CacheConfig {
                size: 32 << 10,
                ways: 4,
                line: 64,
            },
            l2: CacheConfig {
                size: l2_bytes,
                ways: 16,
                line: 64,
            },
            l2_partition: Partition::Shared,
            bus: BusKind::Fcfs,
            epoch_cycles: EPOCH_CYCLES,
        }
    }

    /// The S-NIC configuration: statically way-partitioned L2, temporal
    /// bus partitioning across `tenants` domains.
    pub fn snic(tenants: u32, l2_bytes: u64) -> MachineConfig {
        MachineConfig {
            l2_partition: Partition::StaticWays { tenants },
            bus: BusKind::Temporal { domains: tenants },
            ..MachineConfig::commodity(tenants, l2_bytes)
        }
    }

    /// Widen (or narrow) the L2 associativity. The Marvell-matching
    /// default is 16 ways, which caps static way partitioning at 16
    /// tenants; the 32–64-tenant colocation sweeps model a
    /// higher-associativity L2 (one way per tenant, up to the engine's
    /// 64-way scan limit) so every tenant still gets a private slice.
    pub fn with_l2_ways(mut self, ways: u32) -> MachineConfig {
        assert!(
            (1..=64).contains(&ways),
            "L2 ways must be 1..=64 (bitmask scan width)"
        );
        self.l2.ways = ways;
        self
    }

    /// S-NIC variant using SecDCP demand partitioning instead of static
    /// slices (the §4.2 alternative; ablated in the benches).
    pub fn snic_secdcp(allocation: Vec<u32>, l2_bytes: u64) -> MachineConfig {
        let tenants = allocation.len() as u32;
        MachineConfig {
            l2_partition: Partition::SecDcp { allocation },
            bus: BusKind::Temporal { domains: tenants },
            ..MachineConfig::commodity(tenants, l2_bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commodity_defaults_match_paper_machine() {
        let c = MachineConfig::commodity(4, 4 << 20);
        assert_eq!(CORE_HZ, 1_200_000_000);
        assert_eq!(c.l2.size, 4 << 20);
        assert_eq!(c.l1.size, 32 << 10);
        assert_eq!(c.l2_partition, Partition::Shared);
        assert_eq!(c.bus, BusKind::Fcfs);
    }

    #[test]
    fn snic_flips_both_mechanisms() {
        let c = MachineConfig::snic(4, 4 << 20);
        assert_eq!(c.l2_partition, Partition::StaticWays { tenants: 4 });
        assert_eq!(c.bus, BusKind::Temporal { domains: 4 });
        // Everything else matches the baseline so the comparison isolates
        // the two mechanisms.
        let b = MachineConfig::commodity(4, 4 << 20);
        assert_eq!((c.l1, c.l2, c.epoch_cycles), (b.l1, b.l2, b.epoch_cycles));
    }

    #[test]
    fn secdcp_domain_count_follows_allocation() {
        let c = MachineConfig::snic_secdcp(vec![4, 4, 8], 4 << 20);
        assert_eq!(c.bus, BusKind::Temporal { domains: 3 });
    }
}
