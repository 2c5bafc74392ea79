//! Virtual→physical page mappings with mixed page sizes.
//!
//! §4.2 of the paper: a network function's address space is covered by "a
//! handful of TLB entries, with variable-sized pages (e.g., 2 MB, 32 MB,
//! and 128 MB) minimizing internal fragmentation". A [`PageTable`] is the
//! software description that `nf_launch` walks to install locked TLB
//! entries and to populate the ownership bitmap.

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

/// A page table: an ordered set of non-overlapping mappings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageTable {
    mappings: Vec<PageMapping>,
}

impl PageTable {
    /// An empty table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Add a mapping.
    ///
    /// # Panics
    ///
    /// Panics if the mapping is misaligned or overlaps (virtually) with an
    /// existing mapping — page tables handed to `nf_launch` are built by
    /// software that must keep them well-formed.
    pub fn map(&mut self, m: PageMapping) {
        // The model stores base+length ranges rather than bit-sliced tags,
        // so bases need only page-granule (4 KiB) alignment; this lets the
        // launch path pack variable-sized pages back to back.
        assert!(
            m.page_size > 0 && m.page_size.is_multiple_of(4096),
            "odd page size"
        );
        assert_eq!(m.va % 4096, 0, "virtual base misaligned");
        assert_eq!(m.pa % 4096, 0, "physical base misaligned");
        for e in &self.mappings {
            let disjoint = m.va + m.page_size <= e.va || e.va + e.page_size <= m.va;
            assert!(disjoint, "overlapping virtual mapping at {:#x}", m.va);
        }
        self.mappings.push(m);
        self.mappings.sort_by_key(|e| e.va);
    }

    /// Translate `va`, returning the physical address if mapped.
    pub fn walk(&self, va: u64) -> Option<u64> {
        self.find(va).map(|m| m.translate(va))
    }

    /// Find the mapping covering `va`.
    pub fn find(&self, va: u64) -> Option<&PageMapping> {
        // Mappings are sorted by va; binary search for the candidate.
        let idx = self.mappings.partition_point(|m| m.va <= va);
        idx.checked_sub(1)
            .map(|i| &self.mappings[i])
            .filter(|m| m.covers(va))
    }

    /// All mappings, sorted by virtual address.
    pub fn mappings(&self) -> &[PageMapping] {
        &self.mappings
    }

    /// Number of mappings (equals the TLB entries needed to pin the table).
    pub fn len(&self) -> usize {
        self.mappings.len()
    }

    /// True if there are no mappings.
    pub fn is_empty(&self) -> bool {
        self.mappings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    fn table() -> PageTable {
        let mut t = PageTable::new();
        t.map(PageMapping {
            va: 0,
            pa: 16 * MB,
            page_size: 2 * MB,
            writable: false,
        });
        t.map(PageMapping {
            va: 2 * MB,
            pa: 64 * MB,
            page_size: 32 * MB,
            writable: true,
        });
        t
    }

    #[test]
    fn walk_translates_offsets() {
        let t = table();
        assert_eq!(t.walk(0), Some(16 * MB));
        assert_eq!(t.walk(100), Some(16 * MB + 100));
        assert_eq!(t.walk(2 * MB + 5), Some(64 * MB + 5));
        assert_eq!(t.walk(34 * MB - 1), Some(96 * MB - 1));
    }

    #[test]
    fn walk_misses_outside_mappings() {
        let t = table();
        assert_eq!(t.walk(34 * MB), None);
        assert_eq!(t.walk(u64::MAX), None);
    }

    #[test]
    fn find_returns_permissions() {
        let t = table();
        assert!(!t.find(0).unwrap().writable);
        assert!(t.find(3 * MB).unwrap().writable);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlap_rejected() {
        let mut t = table();
        t.map(PageMapping {
            va: MB,
            pa: 0,
            page_size: 2 * MB,
            writable: false,
        });
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misalignment_rejected() {
        let mut t = PageTable::new();
        t.map(PageMapping {
            va: 3,
            pa: 0,
            page_size: 2 * MB,
            writable: false,
        });
    }

    #[test]
    fn empty_table_walks_to_none() {
        let t = PageTable::new();
        assert!(t.is_empty());
        assert_eq!(t.walk(0), None);
    }
}
