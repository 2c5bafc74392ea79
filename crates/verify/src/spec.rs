//! Inputs to the verifier: the device inventory and per-vNIC manifests.
//!
//! These are deliberately plain data — the verifier reasons about a
//! *description* of an allocation, not about live device state, so the
//! same pass can run inside `nf_launch`, over a CLI-supplied manifest
//! file, or in a test against a hand-built scenario.

use snic_pktio::vpp::VppBufferSpec;
use snic_types::{AccelKind, CoreId, NfId, NicMode};
use snic_uarch::bus::{BusArbiter, FcfsArbiter, TemporalArbiter, EPOCH_CYCLES};

/// A fresh, idle arbiter of the bus a `mode` device has, for `domains`
/// security domains: first-come-first-served on a commodity NIC (§3.3's
/// DoS is possible by construction; it ignores the count), temporal
/// partitioning at [`EPOCH_CYCLES`] under S-NIC (§4.5).
pub fn bus_arbiter(mode: NicMode, domains: u32) -> BusArbiter {
    match mode {
        NicMode::Commodity => BusArbiter::Fcfs(FcfsArbiter::new()),
        NicMode::Snic => BusArbiter::Temporal(TemporalArbiter::new(domains, EPOCH_CYCLES)),
    }
}

/// The hardware inventory the manifests are verified against.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Enforcement personality. Commodity devices have no denylist and
    /// no temporal bus schedule, so those checks are vacuous there;
    /// everything else (single-owner memory, capacity sums) applies to
    /// both. The bus discipline follows from it ([`bus_arbiter`]).
    pub mode: NicMode,
    /// Total device DRAM in bytes.
    pub dram: u64,
    /// First byte of NF-allocatable DRAM; everything below belongs to
    /// the NIC OS / firmware (allocator metadata, buffer pools).
    pub nf_region_base: u64,
    /// Additional reserved NIC-OS ranges `(base, len)` that no function
    /// region may touch (e.g. the shared allocator's metadata table).
    pub nic_os: Vec<(u64, u64)>,
    /// Hardware core count.
    pub cores: u16,
    /// TLB entry slots per core.
    pub core_tlb_entries: usize,
    /// Accelerator clusters available per family.
    pub accel: Vec<(AccelKind, u16)>,
    /// RX port buffer capacity in bytes.
    pub rx_capacity: u64,
    /// TX port buffer capacity in bytes.
    pub tx_capacity: u64,
}

impl DeviceSpec {
    /// Clusters available for `kind`, or `None` if the family does not
    /// exist on this device.
    pub fn accel_capacity(&self, kind: AccelKind) -> Option<u16> {
        self.accel
            .iter()
            .find(|&&(k, _)| k == kind)
            .map(|&(_, n)| n)
    }
}

/// One proposed virtual NIC: the resources a function would own.
#[derive(Debug, Clone)]
pub struct VnicManifest {
    /// The function this manifest describes.
    pub nf: NfId,
    /// Cores to bind exclusively.
    pub cores: Vec<CoreId>,
    /// Private RAM region `(base, len)` in device physical memory.
    pub region: (u64, u64),
    /// Host-physical DMA window `(base, len)`, if the function does host
    /// transfers (§4.2's SR-IOV-style windows). Host addresses — checked
    /// for exclusivity against other manifests, not against device DRAM.
    pub host_window: Option<(u64, u64)>,
    /// TLB entries required per core (region mapping plan + VPP buffer
    /// mappings).
    pub tlb_entries: usize,
    /// Accelerator clusters requested per family.
    pub accel: Vec<(AccelKind, usize)>,
    /// VPP buffer reservation (PB charged to RX, ODB to TX).
    pub vpp: VppBufferSpec,
    /// Bus-cycle reservation per epoch under temporal partitioning;
    /// `None` = no reserved bus time.
    pub bus_slice: Option<u64>,
}

impl VnicManifest {
    /// A minimal manifest: one core, one region, default VPP buffers.
    pub fn minimal(nf: NfId, core: CoreId, region: (u64, u64)) -> VnicManifest {
        let vpp = VppBufferSpec::default();
        VnicManifest {
            nf,
            cores: vec![core],
            region,
            host_window: None,
            tlb_entries: 1 + vpp.tlb_entries() as usize,
            accel: Vec::new(),
            vpp,
            bus_slice: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accel_capacity_lookup() {
        let spec = DeviceSpec {
            mode: NicMode::Snic,
            dram: 1 << 30,
            nf_region_base: 0x0800_0000,
            nic_os: Vec::new(),
            cores: 4,
            core_tlb_entries: 16,
            accel: vec![(AccelKind::Crypto, 8)],
            rx_capacity: 1 << 20,
            tx_capacity: 1 << 20,
        };
        assert_eq!(spec.accel_capacity(AccelKind::Crypto), Some(8));
        assert_eq!(spec.accel_capacity(AccelKind::Zip), None);
    }

    #[test]
    fn minimal_manifest_counts_vpp_tlb_entries() {
        let m = VnicManifest::minimal(NfId(1), CoreId(0), (0x0800_0000, 0x10_0000));
        assert_eq!(
            m.tlb_entries,
            1 + VppBufferSpec::default().tlb_entries() as usize
        );
    }
}
