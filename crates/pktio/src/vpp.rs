//! The buffer inventory of a virtual packet pipeline (VPP, §4.4).
//!
//! A VPP owns three DRAM buffers — the packet buffer (PB), the packet
//! descriptor buffer (PDB), and the output descriptor buffer (ODB). On a
//! LiquidIO these are 2 MB, 128 KB, and 1 MB, which is why a VPP needs
//! exactly 3 TLB entries (§5.2). The device (`snic-core`'s `SmartNic`)
//! enforces them: a full PB or PDB drops and counts the arriving packet,
//! a full ODB refuses the transmit, so one NF's backlog can never consume
//! another NF's buffer space.

use snic_mem::planner::{plan_regions, PagePolicy};
use snic_types::ByteSize;

/// The VPP buffer inventory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VppBufferSpec {
    /// Packet buffer (packet data).
    pub pb: ByteSize,
    /// Packet descriptor buffer (metadata for received packets).
    pub pdb: ByteSize,
    /// Output descriptor buffer (metadata for outgoing packets).
    pub odb: ByteSize,
}

impl Default for VppBufferSpec {
    fn default() -> Self {
        // LiquidIO sizes from §5.2.
        VppBufferSpec {
            pb: ByteSize::mib(2),
            pdb: ByteSize::kib(128),
            odb: ByteSize::mib(1),
        }
    }
}

impl VppBufferSpec {
    /// TLB entries the scheduler needs to map the three buffers under
    /// 2 MB pages (Table 4: 3).
    pub fn tlb_entries(&self) -> u64 {
        plan_regions(&[self.pb, self.pdb, self.odb], &PagePolicy::Equal).total_entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_needs_three_tlb_entries() {
        assert_eq!(VppBufferSpec::default().tlb_entries(), 3);
    }
}
