//! Sparse physical memory with real byte contents.
//!
//! The concrete attacks of §3.3 (packet corruption, DPI ruleset stealing)
//! work by reading and writing *actual bytes* through flat physical
//! addressing, so the device model needs a backing store, not just an
//! address-range bookkeeping structure. Memory is materialized lazily in
//! 4 KiB granules; untouched granules read as zero.

use std::collections::BTreeMap;

use snic_types::ByteSize;

/// Granule size for lazy materialization (also the ownership granule).
pub const PAGE_GRANULE: u64 = 4096;

/// Granules per slab of the sparse table (2 MiB of address space).
const SLAB: u64 = 512;

/// Sparse, lazily-materialized physical memory.
#[derive(Debug, Default)]
pub struct PhysMem {
    /// Slab index → one slot per granule of the slab, `None` until
    /// written. Ordered, so a scrub reaches the slabs inside its range
    /// without probing the indices between them, and a slab's slots are
    /// walked as an array, not looked up one by one. A slab outlives its
    /// granules: 8 KiB per 2 MiB of address space ever written.
    slabs: BTreeMap<u64, Vec<Option<Box<[u8]>>>>,
    size: u64,
}

impl PhysMem {
    /// Create a physical memory of `size` bytes.
    pub fn new(size: ByteSize) -> PhysMem {
        PhysMem {
            slabs: BTreeMap::new(),
            size: size.bytes(),
        }
    }

    /// Total addressable size in bytes.
    pub fn size(&self) -> ByteSize {
        ByteSize(self.size)
    }

    /// True if `addr..addr+len` lies inside the address space.
    pub fn in_bounds(&self, addr: u64, len: usize) -> bool {
        addr.checked_add(len as u64)
            .is_some_and(|end| end <= self.size)
    }

    /// Read `out.len()` bytes starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds; callers (the guard layer)
    /// bounds-check first.
    pub fn read(&self, addr: u64, out: &mut [u8]) {
        assert!(
            self.in_bounds(addr, out.len()),
            "physical read out of bounds"
        );
        let mut done = 0usize;
        while done < out.len() {
            let cur = addr + done as u64;
            let g = cur / PAGE_GRANULE;
            let off = (cur % PAGE_GRANULE) as usize;
            let n = ((PAGE_GRANULE as usize) - off).min(out.len() - done);
            let slab = self.slabs.get(&(g / SLAB));
            match slab.and_then(|s| s[(g % SLAB) as usize].as_deref()) {
                Some(data) => out[done..done + n].copy_from_slice(&data[off..off + n]),
                None => out[done..done + n].fill(0),
            }
            done += n;
        }
    }

    /// Write `data` starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        assert!(
            self.in_bounds(addr, data.len()),
            "physical write out of bounds"
        );
        let mut done = 0usize;
        while done < data.len() {
            let cur = addr + done as u64;
            let g = cur / PAGE_GRANULE;
            let off = (cur % PAGE_GRANULE) as usize;
            let n = ((PAGE_GRANULE as usize) - off).min(data.len() - done);
            let slab = self
                .slabs
                .entry(g / SLAB)
                .or_insert_with(|| vec![None; SLAB as usize]);
            let granule = slab[(g % SLAB) as usize]
                .get_or_insert_with(|| vec![0u8; PAGE_GRANULE as usize].into_boxed_slice());
            granule[off..off + n].copy_from_slice(&data[done..done + n]);
            done += n;
        }
    }

    /// Zero the byte range `addr..addr+len` (used by `nf_teardown`'s
    /// memory scrubbing, §4.6).
    pub fn scrub(&mut self, addr: u64, len: u64) {
        assert!(self.in_bounds(addr, len as usize), "scrub out of bounds");
        // Only resident granules hold anything to zero: drop the fully
        // covered ones, zero the partial edges.
        let end = addr + len;
        let (first, last) = (addr / PAGE_GRANULE, end.div_ceil(PAGE_GRANULE));
        for (&slab, slots) in self.slabs.range_mut(first / SLAB..last.div_ceil(SLAB)) {
            let base = slab * SLAB;
            for g in first.max(base)..last.min(base + SLAB) {
                let slot = &mut slots[(g - base) as usize];
                let Some(data) = slot else { continue };
                let g_start = g * PAGE_GRANULE;
                let s = addr.max(g_start) - g_start;
                let e = end.min(g_start + PAGE_GRANULE) - g_start;
                if e - s == PAGE_GRANULE {
                    *slot = None;
                } else {
                    data[s as usize..e as usize].fill(0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl PhysMem {
        /// Number of materialized granules (resident footprint of the model).
        fn resident_granules(&self) -> usize {
            self.slabs.values().flatten().flatten().count()
        }
    }

    fn mem() -> PhysMem {
        PhysMem::new(ByteSize::mib(64))
    }

    #[test]
    fn untouched_memory_reads_zero() {
        let m = mem();
        let mut buf = [0xffu8; 16];
        m.read(0x1234, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = mem();
        m.write(0x10_000, b"network function state");
        let mut buf = [0u8; 22];
        m.read(0x10_000, &mut buf);
        assert_eq!(&buf, b"network function state");
    }

    #[test]
    fn write_straddling_granules() {
        let mut m = mem();
        let addr = PAGE_GRANULE - 3;
        m.write(addr, &[1, 2, 3, 4, 5, 6]);
        let mut buf = [0u8; 6];
        m.read(addr, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5, 6]);
        assert_eq!(m.resident_granules(), 2);
    }

    #[test]
    fn scrub_zeroes_range() {
        let mut m = mem();
        m.write(0x3000, &[0xaa; 8192]);
        m.scrub(0x3000, 8192);
        let mut buf = [0xffu8; 8192];
        m.read(0x3000, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn scrub_partial_granule_preserves_neighbors() {
        let mut m = mem();
        m.write(0, &[0x11; 4096]);
        m.scrub(100, 200);
        let mut buf = [0u8; 4096];
        m.read(0, &mut buf);
        assert_eq!(buf[99], 0x11);
        assert_eq!(buf[100], 0);
        assert_eq!(buf[299], 0);
        assert_eq!(buf[300], 0x11);
    }

    #[test]
    fn scrub_reclaims_full_granules() {
        let mut m = mem();
        m.write(0, &[0x22; 16384]);
        assert_eq!(m.resident_granules(), 4);
        m.scrub(0, 16384);
        assert_eq!(m.resident_granules(), 0);
    }

    #[test]
    fn scrub_cost_follows_resident_granules_not_the_span() {
        // A petabyte of address space with three granules in it: a scrub
        // that walked granule indices would take 2^38 steps.
        let mut m = PhysMem::new(ByteSize(1 << 50));
        for addr in [0, 1 << 40, (1 << 50) - 8] {
            m.write(addr, &[0x33; 8]);
        }
        assert_eq!(m.resident_granules(), 3);
        m.scrub(0, 1 << 50);
        assert_eq!(m.resident_granules(), 0);
    }

    /// Granules of the model address space, which starts at `ORIGIN`:
    /// half of it in one slab of the table, half in the next.
    const SPACE: u64 = 12;
    const ORIGIN: u64 = (3 * SLAB - SPACE / 2) * PAGE_GRANULE;

    /// Flat memory plus the set of resident granules, scrubbed by the
    /// per-granule walk `PhysMem::scrub` used to be: the model.
    struct PerGranule {
        bytes: Vec<u8>,
        resident: std::collections::HashSet<u64>,
    }

    impl PerGranule {
        fn write(&mut self, addr: u64, data: &[u8]) {
            self.bytes[addr as usize..][..data.len()].copy_from_slice(data);
            if !data.is_empty() {
                let end = addr + data.len() as u64;
                self.resident
                    .extend(addr / PAGE_GRANULE..end.div_ceil(PAGE_GRANULE));
            }
        }

        fn scrub(&mut self, addr: u64, len: u64) {
            let first = addr / PAGE_GRANULE;
            let last = (addr + len).div_ceil(PAGE_GRANULE);
            for g in first..last {
                let g_start = g * PAGE_GRANULE;
                let g_end = g_start + PAGE_GRANULE;
                if addr <= g_start && addr + len >= g_end {
                    self.resident.remove(&g);
                }
                let s = addr.max(g_start);
                let e = (addr + len).min(g_end);
                self.bytes[s as usize..e as usize].fill(0);
            }
        }
    }

    proptest! {
        /// Writes and scrubs at aligned and unaligned addresses, empty,
        /// inside one granule, across several: after every step the
        /// memory reads as the flat model does and keeps resident exactly
        /// the granules the per-granule walk kept.
        #[test]
        fn scrub_matches_the_per_granule_walk(
            ops in proptest::collection::vec(
                (any::<bool>(), 0..SPACE, 0..3u64, 0..4usize, 0..4usize, 1u8..=255),
                1..24,
            ),
        ) {
            let bytes = SPACE * PAGE_GRANULE;
            let mut mem = PhysMem::new(ByteSize(ORIGIN + bytes));
            let mut model = PerGranule {
                bytes: vec![0; bytes as usize],
                resident: Default::default(),
            };
            for (write, granule, granules, addr_off, len_off, fill) in ops {
                // On a granule boundary, one byte either side of it, or
                // well inside.
                let offs = [0, 1, 100, PAGE_GRANULE - 1];
                let addr = granule * PAGE_GRANULE + offs[addr_off];
                let len = (granules * PAGE_GRANULE + offs[len_off]).min(bytes - addr);
                if write {
                    let data = vec![fill; len as usize];
                    mem.write(ORIGIN + addr, &data);
                    model.write(addr, &data);
                } else {
                    mem.scrub(ORIGIN + addr, len);
                    model.scrub(addr, len);
                }
                let mut seen = vec![0u8; bytes as usize];
                mem.read(ORIGIN, &mut seen);
                prop_assert!(seen == model.bytes, "contents differ");
                prop_assert_eq!(mem.resident_granules(), model.resident.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let m = PhysMem::new(ByteSize::kib(4));
        let mut buf = [0u8; 8];
        m.read(4090, &mut buf);
    }

    #[test]
    fn bounds_check() {
        let m = PhysMem::new(ByteSize::kib(4));
        assert!(m.in_bounds(0, 4096));
        assert!(!m.in_bounds(1, 4096));
        assert!(!m.in_bounds(u64::MAX, 2));
    }
}
