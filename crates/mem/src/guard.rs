//! Mediated memory access: the trusted-hardware checks in one place.
//!
//! Every load/store in the device model flows through a [`MemoryGuard`],
//! which combines the physical backing store with the denylist and
//! ownership structures. The guard runs in one of two modes:
//!
//! - **commodity** (`enforcing = false`): the LiquidIO/Agilio behaviour of
//!   §3.2 — any principal may read or write any physical address
//!   (`xkphys`-style flat addressing). This is what the §3.3 attacks
//!   exploit.
//! - **S-NIC** (`enforcing = true`): network functions have *no* physical
//!   addressing at all (only TLB-mediated virtual access), and the
//!   management core is subject to the denylist.

use std::cell::RefCell;

use snic_types::{ByteSize, CoreId, IsolationError, NfId, SnicError};

use crate::denylist::Denylist;
use crate::phys::PhysMem;
use crate::tlb::Tlb;

/// Who is issuing a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Principal {
    /// A programmable core running the given network function.
    Nf(NfId, CoreId),
    /// The management core (NIC OS).
    Management,
    /// Trusted hardware itself (launch microcode, scrubbing, packet DMA
    /// that has already been checked by its own TLB bank).
    TrustedHardware,
}

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A read.
    Load,
    /// A write.
    Store,
}

/// One audited physical access, recorded for offline trace analysis.
///
/// `granted = false` entries are accesses the guard refused (S-NIC
/// denials); analyzers that look for *leaks* consider only granted ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRecord {
    /// Who issued the access.
    pub who: Principal,
    /// Physical address.
    pub addr: u64,
    /// Bytes accessed.
    pub len: u64,
    /// Load or store.
    pub kind: AccessKind,
    /// Whether the guard allowed it.
    pub granted: bool,
}

/// The mediated physical memory of the NIC.
#[derive(Debug)]
pub struct MemoryGuard {
    mem: PhysMem,
    denylist: Denylist,
    enforcing: bool,
    /// Audit log (`None` = recording off). `RefCell` because reads go
    /// through `&self`.
    audit: RefCell<Option<Vec<AccessRecord>>>,
}

impl MemoryGuard {
    /// Create a guard over `size` bytes of DRAM.
    pub fn new(size: ByteSize, enforcing: bool) -> MemoryGuard {
        MemoryGuard {
            mem: PhysMem::new(size),
            denylist: Denylist::new(),
            enforcing,
            audit: RefCell::new(None),
        }
    }

    /// Begin recording every physical access into the audit log
    /// (clearing any previous log).
    pub fn start_audit(&mut self) {
        *self.audit.borrow_mut() = Some(Vec::new());
    }

    /// Drain the audit log, leaving recording enabled. Returns an empty
    /// vector if recording was never started.
    pub fn take_audit(&mut self) -> Vec<AccessRecord> {
        match self.audit.borrow_mut().as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    fn record(&self, who: Principal, addr: u64, len: usize, kind: AccessKind, granted: bool) {
        if let Some(log) = self.audit.borrow_mut().as_mut() {
            log.push(AccessRecord {
                who,
                addr,
                len: len as u64,
                kind,
                granted,
            });
        }
    }

    /// DRAM size.
    pub fn size(&self) -> ByteSize {
        self.mem.size()
    }

    /// Whether S-NIC enforcement is active.
    pub fn enforcing(&self) -> bool {
        self.enforcing
    }

    /// The denylist (mutated by launch/teardown microcode).
    pub fn denylist_mut(&mut self) -> &mut Denylist {
        &mut self.denylist
    }

    /// The denylist, read-only.
    pub fn denylist(&self) -> &Denylist {
        &self.denylist
    }

    /// Raw access for trusted hardware paths that have already performed
    /// their own checks (launch microcode hashing pages, teardown scrub).
    pub fn raw_mem(&mut self) -> &mut PhysMem {
        &mut self.mem
    }

    fn check_phys(&self, who: Principal, addr: u64, len: usize) -> Result<(), SnicError> {
        if !self.mem.in_bounds(addr, len) {
            return Err(SnicError::InvalidConfig(format!(
                "physical access oob at {addr:#x}"
            )));
        }
        if !self.enforcing {
            return Ok(());
        }
        match who {
            Principal::TrustedHardware => Ok(()),
            Principal::Management => {
                self.denylist.check(addr, len as u64)?;
                Ok(())
            }
            Principal::Nf(_, core) => {
                // Under S-NIC there is no NF-visible physical addressing.
                Err(IsolationError::TlbMiss { core, addr }.into())
            }
        }
    }

    /// Physical read (`xkphys`-style on commodity NICs).
    pub fn read_phys(&self, who: Principal, addr: u64, out: &mut [u8]) -> Result<(), SnicError> {
        let checked = self.check_phys(who, addr, out.len());
        self.record(who, addr, out.len(), AccessKind::Load, checked.is_ok());
        checked?;
        self.mem.read(addr, out);
        Ok(())
    }

    /// Physical write.
    pub fn write_phys(&mut self, who: Principal, addr: u64, data: &[u8]) -> Result<(), SnicError> {
        let checked = self.check_phys(who, addr, data.len());
        self.record(who, addr, data.len(), AccessKind::Store, checked.is_ok());
        checked?;
        self.mem.write(addr, data);
        Ok(())
    }

    /// Physical `u64` read.
    pub fn read_phys_u64(&self, who: Principal, addr: u64) -> Result<u64, SnicError> {
        let mut buf = [0u8; 8];
        self.read_phys(who, addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Physical `u64` write.
    pub fn write_phys_u64(&mut self, who: Principal, addr: u64, v: u64) -> Result<(), SnicError> {
        self.write_phys(who, addr, &v.to_le_bytes())
    }

    /// Virtual read through `tlb` (the S-NIC path for NF cores).
    pub fn read_virt(&self, tlb: &Tlb, va: u64, out: &mut [u8]) -> Result<(), SnicError> {
        let pa = tlb.translate(va, false)?;
        if !self.mem.in_bounds(pa, out.len()) {
            return Err(SnicError::InvalidConfig(format!(
                "translated access oob at {pa:#x}"
            )));
        }
        self.mem.read(pa, out);
        Ok(())
    }

    /// Virtual write through `tlb`.
    pub fn write_virt(&mut self, tlb: &Tlb, va: u64, data: &[u8]) -> Result<(), SnicError> {
        let pa = tlb.translate(va, true)?;
        if !self.mem.in_bounds(pa, data.len()) {
            return Err(SnicError::InvalidConfig(format!(
                "translated access oob at {pa:#x}"
            )));
        }
        self.mem.write(pa, data);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagetable::PageMapping;

    impl MemoryGuard {
        /// Whether the audit log is recording.
        fn audit_enabled(&self) -> bool {
            self.audit.borrow().is_some()
        }
    }

    const MB: u64 = 1 << 20;

    fn commodity() -> MemoryGuard {
        MemoryGuard::new(ByteSize::mib(256), false)
    }

    fn snic() -> MemoryGuard {
        MemoryGuard::new(ByteSize::mib(256), true)
    }

    #[test]
    fn commodity_allows_cross_nf_physical_access() {
        let mut g = commodity();
        // NF 1 writes; NF 2 reads the same physical address — the packet
        // corruption attack's enabling condition.
        g.write_phys(Principal::Nf(NfId(1), CoreId(0)), 0x1000, b"secret")
            .unwrap();
        let mut buf = [0u8; 6];
        g.read_phys(Principal::Nf(NfId(2), CoreId(1)), 0x1000, &mut buf)
            .unwrap();
        assert_eq!(&buf, b"secret");
    }

    #[test]
    fn snic_denies_nf_physical_access() {
        let g = snic();
        let mut buf = [0u8; 4];
        let err = g
            .read_phys(Principal::Nf(NfId(1), CoreId(0)), 0x1000, &mut buf)
            .unwrap_err();
        assert!(matches!(
            err,
            SnicError::Isolation(IsolationError::TlbMiss { .. })
        ));
    }

    #[test]
    fn snic_management_respects_denylist() {
        let mut g = snic();
        g.write_phys(Principal::TrustedHardware, 0x4000, b"nf-state")
            .unwrap();
        g.denylist_mut().deny(0x4000, 0x1000, NfId(5)).unwrap();
        let mut buf = [0u8; 8];
        let err = g
            .read_phys(Principal::Management, 0x4000, &mut buf)
            .unwrap_err();
        assert!(matches!(
            err,
            SnicError::Isolation(IsolationError::Denylisted { owner: NfId(5), .. })
        ));
        // Non-denied addresses remain readable.
        assert!(g.read_phys(Principal::Management, 0x8000, &mut buf).is_ok());
    }

    #[test]
    fn commodity_management_ignores_denylist() {
        // A commodity NIC has no denylist hardware; even if software
        // configures one, nothing enforces it.
        let mut g = commodity();
        g.denylist_mut().deny(0x4000, 0x1000, NfId(5)).unwrap();
        let mut buf = [0u8; 8];
        assert!(g.read_phys(Principal::Management, 0x4000, &mut buf).is_ok());
    }

    #[test]
    fn virt_access_through_tlb() {
        let mut g = snic();
        let mut tlb = Tlb::new(CoreId(2), 4);
        tlb.install(PageMapping {
            va: 0,
            pa: 16 * MB,
            page_size: 2 * MB,
            writable: true,
        })
        .unwrap();
        tlb.lock();
        g.write_virt(&tlb, 0x100, b"flow table").unwrap();
        let mut buf = [0u8; 10];
        g.read_virt(&tlb, 0x100, &mut buf).unwrap();
        assert_eq!(&buf, b"flow table");
        // The bytes physically landed inside the mapped window.
        let mut phys = [0u8; 10];
        g.read_phys(Principal::TrustedHardware, 16 * MB + 0x100, &mut phys)
            .unwrap();
        assert_eq!(&phys, b"flow table");
    }

    #[test]
    fn virt_access_outside_mapping_faults() {
        let g = snic();
        let tlb = Tlb::new(CoreId(2), 4);
        let mut buf = [0u8; 4];
        assert!(g.read_virt(&tlb, 0x100, &mut buf).is_err());
    }

    #[test]
    fn out_of_bounds_physical_rejected_in_both_modes() {
        let mut buf = [0u8; 16];
        assert!(commodity()
            .read_phys(Principal::Management, 300 * MB, &mut buf)
            .is_err());
        assert!(snic()
            .read_phys(Principal::Management, 300 * MB, &mut buf)
            .is_err());
    }

    #[test]
    fn audit_log_records_grants_and_denials() {
        let mut g = snic();
        assert!(!g.audit_enabled());
        // Accesses before start_audit leave no trace.
        let mut buf = [0u8; 4];
        g.read_phys(Principal::Management, 0x1000, &mut buf)
            .unwrap();
        g.start_audit();
        assert!(g.audit_enabled());
        g.write_phys(Principal::TrustedHardware, 0x2000, b"ab")
            .unwrap();
        let _ = g.read_phys(Principal::Nf(NfId(1), CoreId(0)), 0x2000, &mut buf);
        let log = g.take_audit();
        assert_eq!(log.len(), 2);
        assert_eq!(
            log[0],
            AccessRecord {
                who: Principal::TrustedHardware,
                addr: 0x2000,
                len: 2,
                kind: AccessKind::Store,
                granted: true,
            }
        );
        assert_eq!(log[1].who, Principal::Nf(NfId(1), CoreId(0)));
        assert_eq!(log[1].kind, AccessKind::Load);
        assert!(!log[1].granted, "S-NIC refuses NF physical loads");
        // Draining keeps recording on.
        assert!(g.audit_enabled());
        assert!(g.take_audit().is_empty());
    }

    #[test]
    fn trusted_hardware_bypasses_denylist() {
        let mut g = snic();
        g.denylist_mut().deny(0x1000, 0x1000, NfId(1)).unwrap();
        let mut buf = [0u8; 4];
        assert!(g
            .read_phys(Principal::TrustedHardware, 0x1000, &mut buf)
            .is_ok());
    }
}
