//! Virtual→physical page mappings with mixed page sizes.
//!
//! §4.2 of the paper: a network function's address space is covered by "a
//! handful of TLB entries, with variable-sized pages (e.g., 2 MB, 32 MB,
//! and 128 MB) minimizing internal fragmentation". A [`PageMapping`] is
//! one such entry: `nf_launch` installs one per planned page into each
//! locked per-core TLB.

/// One mapping: a virtual range onto a physical range of equal length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMapping {
    /// Virtual base address (aligned to `page_size`).
    pub va: u64,
    /// Physical base address (aligned to `page_size`).
    pub pa: u64,
    /// Page size in bytes.
    pub page_size: u64,
    /// Whether the mapping permits stores.
    pub writable: bool,
}

impl PageMapping {
    /// True if `va` falls inside this mapping.
    pub fn covers(&self, va: u64) -> bool {
        va >= self.va && va - self.va < self.page_size
    }

    /// Translate a covered virtual address.
    pub fn translate(&self, va: u64) -> u64 {
        debug_assert!(self.covers(va));
        self.pa + (va - self.va)
    }
}
