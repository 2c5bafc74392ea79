//! The multi-bank DMA controller (§4.2).
//!
//! "S-NIC achieves these properties using a multi-bank DMA controller,
//! with one bank per programmable core. Each bank has TLB entries for the
//! upstream and downstream transfer directions." A transfer is validated
//! against the bank's window for its direction; anything else is a
//! [`snic_types::IsolationError::DmaViolation`].

use std::sync::Arc;

use snic_mem::planner::{plan_regions, PagePolicy};
use snic_telemetry::{metrics, NullSink, TelemetrySink};
use snic_types::{ByteSize, IsolationError, NfId, SnicError};

/// Transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaDirection {
    /// Host RAM → NIC RAM.
    HostToNic,
    /// NIC RAM → host RAM.
    NicToHost,
}

/// One DMA window: `(base, len)` in the relevant address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaWindow {
    /// Base address.
    pub base: u64,
    /// Window length in bytes.
    pub len: u64,
}

impl DmaWindow {
    fn contains(&self, addr: u64, len: u64) -> bool {
        addr >= self.base && addr.saturating_add(len) <= self.base + self.len
    }
}

/// A per-core DMA bank, fixed at `nf_launch` to its owner's NIC-side
/// region and host-side window; the core it serves is the slot the
/// device keeps it in.
#[derive(Debug)]
pub struct DmaBank {
    owner: NfId,
    /// NIC-side window (the NF-owned packet buffer).
    nic_window: DmaWindow,
    /// Host-side window (the host-sanctioned region).
    host_window: DmaWindow,
    sink: Arc<dyn TelemetrySink>,
}

impl DmaBank {
    /// A bank for `owner`'s transfers between its two windows.
    pub fn new(owner: NfId, nic_window: DmaWindow, host_window: DmaWindow) -> DmaBank {
        DmaBank {
            owner,
            nic_window,
            host_window,
            sink: Arc::new(NullSink),
        }
    }

    /// Attach a telemetry sink (observational only).
    pub fn set_sink(&mut self, sink: Arc<dyn TelemetrySink>) {
        self.sink = sink;
    }

    /// The owning NF.
    pub fn owner(&self) -> NfId {
        self.owner
    }

    /// Validate a transfer of `len` bytes between `nic_addr` and
    /// `host_addr` in the given direction; returns the byte count on
    /// success.
    pub fn validate(
        &self,
        direction: DmaDirection,
        nic_addr: u64,
        host_addr: u64,
        len: u64,
    ) -> Result<u64, SnicError> {
        let _ = direction; // Both directions check both windows.
        if !self.nic_window.contains(nic_addr, len) {
            return Err(IsolationError::DmaViolation { addr: nic_addr }.into());
        }
        if !self.host_window.contains(host_addr, len) {
            return Err(IsolationError::DmaViolation { addr: host_addr }.into());
        }
        if self.sink.enabled() {
            self.sink
                .counter_add(self.owner.0, metrics::DMA_TRANSFERS, 1);
            self.sink.record(self.owner.0, metrics::DMA_BYTES, len);
        }
        Ok(len)
    }
}

/// TLB entries one DMA bank needs: the NF packet buffer (2 MB) plus the
/// DMA instruction queue (256 KB per SR-IOV function on a LiquidIO) —
/// Table 4 says 2 under 2 MB pages.
pub fn dma_bank_tlb_entries() -> u64 {
    plan_regions(&[ByteSize::mib(2), ByteSize::kib(256)], &PagePolicy::Equal).total_entries()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> DmaBank {
        DmaBank::new(
            NfId(1),
            DmaWindow {
                base: 0x10_0000,
                len: 0x10_000,
            },
            DmaWindow {
                base: 0x8000_0000,
                len: 0x10_000,
            },
        )
    }

    #[test]
    fn valid_transfer_counts() {
        let b = bank();
        assert_eq!(
            b.validate(DmaDirection::NicToHost, 0x10_0000, 0x8000_0000, 4096)
                .unwrap(),
            4096
        );
    }

    #[test]
    fn nic_side_violation() {
        let b = bank();
        let err = b
            .validate(DmaDirection::NicToHost, 0x20_0000, 0x8000_0000, 64)
            .unwrap_err();
        assert!(matches!(
            err,
            SnicError::Isolation(IsolationError::DmaViolation { addr: 0x20_0000 })
        ));
    }

    #[test]
    fn host_side_violation() {
        let b = bank();
        // The host must not be able to aim DMA at arbitrary host memory.
        let err = b
            .validate(DmaDirection::HostToNic, 0x10_0000, 0x9000_0000, 64)
            .unwrap_err();
        assert!(matches!(
            err,
            SnicError::Isolation(IsolationError::DmaViolation { .. })
        ));
    }

    #[test]
    fn straddling_transfer_rejected() {
        let b = bank();
        assert!(b
            .validate(
                DmaDirection::NicToHost,
                0x10_0000 + 0x10_000 - 32,
                0x8000_0000,
                64
            )
            .is_err());
    }

    #[test]
    fn table4_dma_tlb_entries() {
        assert_eq!(dma_bank_tlb_entries(), 2);
    }
}
