//! Fully-associative, lockable TLBs.
//!
//! Under S-NIC, `nf_launch` installs a small number of TLB entries that
//! cover all valid mappings for a function, then sets the TLB read-only:
//! "any subsequent TLB misses represent a bug in the network function, and
//! cause S-NIC to destroy the function" (§4.2). Accelerator clusters and
//! packet schedulers get the same treatment (§4.3, §4.4).

use snic_types::{CoreId, IsolationError};

use crate::pagetable::PageMapping;

/// One TLB entry (same shape as a [`PageMapping`] plus validity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// The mapping held by this entry.
    pub mapping: PageMapping,
}

/// A fully-associative TLB with a fixed number of entry slots.
#[derive(Debug, Clone)]
pub struct Tlb {
    /// Core this TLB serves (used in fault reports).
    core: CoreId,
    capacity: usize,
    entries: Vec<TlbEntry>,
    locked: bool,
}

impl Tlb {
    /// Create an empty, unlocked TLB with `capacity` entry slots.
    pub fn new(core: CoreId, capacity: usize) -> Tlb {
        Tlb {
            core,
            capacity,
            entries: Vec::new(),
            locked: false,
        }
    }

    /// Entry slots available in hardware.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently installed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True once `lock` has been called.
    pub fn is_locked(&self) -> bool {
        self.locked
    }

    /// Install one entry.
    ///
    /// Fails with [`IsolationError::TlbLocked`] after locking, and with
    /// [`IsolationError::TlbCapacity`] if hardware capacity is exceeded —
    /// the launch planner must size mappings before installation.
    pub fn install(&mut self, mapping: PageMapping) -> Result<(), IsolationError> {
        if self.locked {
            return Err(IsolationError::TlbLocked);
        }
        if self.entries.len() >= self.capacity {
            return Err(IsolationError::TlbCapacity {
                core: self.core,
                capacity: self.capacity,
            });
        }
        self.entries.push(TlbEntry { mapping });
        Ok(())
    }

    /// Make the TLB read-only (done by `nf_launch` once configured).
    pub fn lock(&mut self) {
        self.locked = true;
    }

    /// Clear all entries and unlock (done by `nf_teardown`).
    pub fn reset(&mut self) {
        self.entries.clear();
        self.locked = false;
    }

    /// Translate a virtual address for a load (`write = false`) or store.
    ///
    /// A miss — or a store through a read-only entry — is an isolation
    /// error; under S-NIC the device model treats it as fatal for the NF.
    pub fn translate(&self, va: u64, write: bool) -> Result<u64, IsolationError> {
        for e in &self.entries {
            if e.mapping.covers(va) {
                if write && !e.mapping.writable {
                    return Err(IsolationError::TlbMiss {
                        core: self.core,
                        addr: va,
                    });
                }
                return Ok(e.mapping.translate(va));
            }
        }
        Err(IsolationError::TlbMiss {
            core: self.core,
            addr: va,
        })
    }

    /// The physical ranges reachable through this TLB.
    pub fn reachable_ranges(&self) -> Vec<(u64, u64)> {
        self.entries
            .iter()
            .map(|e| (e.mapping.pa, e.mapping.page_size))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    fn mapping(va: u64, pa: u64, size: u64, writable: bool) -> PageMapping {
        PageMapping {
            va,
            pa,
            page_size: size,
            writable,
        }
    }

    fn loaded_tlb() -> Tlb {
        let mut t = Tlb::new(CoreId(1), 8);
        t.install(mapping(0, 32 * MB, 2 * MB, true)).unwrap();
        t.install(mapping(2 * MB, 128 * MB, 2 * MB, false)).unwrap();
        t
    }

    #[test]
    fn translate_hits() {
        let t = loaded_tlb();
        assert_eq!(t.translate(100, false).unwrap(), 32 * MB + 100);
        assert_eq!(t.translate(2 * MB + 8, false).unwrap(), 128 * MB + 8);
    }

    #[test]
    fn miss_is_isolation_error() {
        let t = loaded_tlb();
        match t.translate(64 * MB, false) {
            Err(IsolationError::TlbMiss { core, addr }) => {
                assert_eq!(core, CoreId(1));
                assert_eq!(addr, 64 * MB);
            }
            other => panic!("expected TlbMiss, got {other:?}"),
        }
    }

    #[test]
    fn store_through_readonly_entry_faults() {
        let t = loaded_tlb();
        assert!(t.translate(2 * MB + 8, true).is_err());
        assert!(t.translate(100, true).is_ok());
    }

    #[test]
    fn locked_tlb_rejects_installs() {
        let mut t = loaded_tlb();
        t.lock();
        assert!(t.is_locked());
        let err = t.install(mapping(4 * MB, 0, 2 * MB, true)).unwrap_err();
        assert_eq!(err, IsolationError::TlbLocked);
        // Translation still works while locked.
        assert!(t.translate(0, false).is_ok());
    }

    #[test]
    fn reset_unlocks_and_clears() {
        let mut t = loaded_tlb();
        t.lock();
        t.reset();
        assert!(!t.is_locked());
        assert!(t.is_empty());
        assert!(t.translate(0, false).is_err());
    }

    #[test]
    fn capacity_overflow_is_typed_error() {
        let mut t = Tlb::new(CoreId(0), 1);
        t.install(mapping(0, 0, 2 * MB, true)).unwrap();
        let err = t
            .install(mapping(2 * MB, 2 * MB, 2 * MB, true))
            .unwrap_err();
        assert_eq!(
            err,
            IsolationError::TlbCapacity {
                core: CoreId(0),
                capacity: 1,
            }
        );
    }
}
