//! Set-associative cache models with isolation-aware sharing disciplines.
//!
//! Three disciplines are modeled (§4.2 of the paper):
//!
//! - [`Partition::Shared`]: ordinary LRU sharing — the commodity baseline.
//!   Co-tenants evict each other's lines, which both hurts performance
//!   and creates Prime+Probe-style side channels.
//! - [`Partition::StaticWays`]: each tenant owns a fixed slice of the
//!   ways in every set. No line is ever shared, so no cross-tenant
//!   eviction is possible — the side-channel-free configuration S-NIC
//!   evaluates.
//! - [`Partition::SecDcp`]: SecDCP-style dynamic partitioning — way
//!   allocations can be resized between *phases* (never mid-phase), which
//!   permits a one-way channel from the NIC OS to functions but not the
//!   reverse (§4.2).

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (a zero dimension) or
    /// non-dividing (`size` not a multiple of `ways * line`). A
    /// non-dividing size used to be accepted and silently truncated to
    /// `size / (ways * line)` sets — a "4.5 MB" cache quietly modeled
    /// only 4 MB — so it is now rejected outright.
    pub fn sets(&self) -> u64 {
        assert!(
            self.size > 0 && self.ways > 0 && self.line > 0,
            "degenerate cache geometry"
        );
        let per_way_bytes = u64::from(self.ways) * u64::from(self.line);
        assert!(
            self.size.is_multiple_of(per_way_bytes),
            "cache size {} is not a multiple of ways*line = {} bytes: a non-dividing \
             geometry would silently truncate the modeled capacity",
            self.size,
            per_way_bytes
        );
        self.size / per_way_bytes
    }
}

/// The sharing discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partition {
    /// Free-for-all LRU (commodity).
    Shared,
    /// Static equal way slices for `tenants` tenants.
    StaticWays {
        /// Number of co-located tenants.
        tenants: u32,
    },
    /// SecDCP-style allocation: explicit per-tenant way counts.
    SecDcp {
        /// Ways assigned to each tenant (index = tenant id).
        allocation: Vec<u32>,
    },
}

/// Tag sentinel for invalid lines; a real tag is an address shifted
/// *right*, so it can only reach `u64::MAX` from an address within one
/// line of `u64::MAX` (debug-asserted out in [`Cache::access`]).
pub(crate) const TAG_INVALID: u64 = u64::MAX;

/// Precomputed per-tenant way slices, so the hot path indexes a table
/// instead of re-deriving prefix sums from the [`Partition`] on every
/// access.
#[derive(Debug, Clone)]
enum WaySlices {
    /// Every tenant may occupy every way.
    Shared,
    /// `slices[t]`, one slice per configured tenant. Out-of-range
    /// tenants are rejected — wrapping (`t % slices.len()`), as this
    /// lookup used to do, silently parks two tenants in one slice.
    Static(Box<[(u32, u32)]>),
    /// `slices[t]`, one slice per allocation entry. Out-of-range
    /// tenants are rejected — clamping (`min(t, len - 1)`), as this
    /// lookup used to do, silently merged every mis-numbered tenant
    /// into the last tenant's partition: a cross-tenant sharing bug in
    /// the isolation model itself.
    SecDcp(Box<[(u32, u32)]>),
}

impl WaySlices {
    fn build(config: &CacheConfig, partition: &Partition) -> WaySlices {
        match partition {
            Partition::Shared => WaySlices::Shared,
            Partition::StaticWays { tenants } => {
                let per = config.ways / tenants;
                let slices = (0..*tenants)
                    .map(|t| {
                        let lo = t * per;
                        // Last tenant absorbs any remainder ways.
                        let hi = if t == tenants - 1 {
                            config.ways
                        } else {
                            lo + per
                        };
                        (lo, hi)
                    })
                    .collect();
                WaySlices::Static(slices)
            }
            Partition::SecDcp { allocation } => {
                let mut lo = 0u32;
                let slices = allocation
                    .iter()
                    .map(|&w| {
                        let s = (lo, lo + w);
                        lo += w;
                        s
                    })
                    .collect();
                WaySlices::SecDcp(slices)
            }
        }
    }
}

/// Address-to-set mapping, precomputed from the geometry. Every shipped
/// configuration has power-of-two line size and set count, so the hot
/// path is two shifts and a mask; non-power-of-two geometries (legal,
/// e.g. 3 sets from a `3 * ways * line` size) take the division path.
#[derive(Debug, Clone, Copy)]
enum SetMap {
    /// `line` and the set count are both powers of two.
    Pow2 {
        line_shift: u32,
        set_mask: u64,
        set_shift: u32,
    },
    /// General geometry: divide by `line`, then split by set count.
    Div { line: u64, nsets: u64 },
}

impl SetMap {
    fn build(config: &CacheConfig) -> SetMap {
        let nsets = config.sets();
        if config.line.is_power_of_two() && nsets.is_power_of_two() {
            SetMap::Pow2 {
                line_shift: config.line.trailing_zeros(),
                set_mask: nsets - 1,
                set_shift: nsets.trailing_zeros(),
            }
        } else {
            SetMap::Div {
                line: u64::from(config.line),
                nsets,
            }
        }
    }

    /// `(set index, tag)` of `addr`.
    #[inline]
    fn locate(self, addr: u64) -> (usize, u64) {
        match self {
            SetMap::Pow2 {
                line_shift,
                set_mask,
                set_shift,
            } => {
                let line_addr = addr >> line_shift;
                ((line_addr & set_mask) as usize, line_addr >> set_shift)
            }
            SetMap::Div { line, nsets } => {
                let line_addr = addr / line;
                ((line_addr % nsets) as usize, line_addr / nsets)
            }
        }
    }
}

/// A set-associative cache.
///
/// Line bookkeeping is stored structure-of-arrays in three contiguous
/// set-major arrays (`sets * ways` entries each) — the nested
/// `Vec<Vec<Line>>` plus `HashMap` layout this replaced cost a pointer
/// chase and two
/// SipHash lookups per access, and even a flat array-of-structs layout
/// drags the LRU stamps and owners through the host cache on every hit
/// scan. Split out, a 16-way hit check touches 128 bytes of tags
/// instead of 384 bytes of line records, and the stamps are only read
/// on a miss (the victim scan).
///
/// Validity is encoded rather than stored: an invalid line has
/// `tag == TAG_INVALID` (which no real address can produce, so the hit
/// scan is a single compare per way) and `stamp == 0` (below every
/// valid stamp — the access clock pre-increments, so live lines stamp
/// from 1 — which makes invalid lines win LRU victim selection with no
/// extra branch).
///
/// The cache keeps no per-tenant statistics: every caller counts the
/// hits and misses [`Cache::access`] returns for its own tenant.
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    partition: Partition,
    /// Line tags; `TAG_INVALID` marks an invalid line.
    tags: Box<[u64]>,
    /// LRU stamps (larger = more recent; 0 = invalid).
    stamps: Box<[u64]>,
    /// Filling tenant of each line.
    owners: Box<[u32]>,
    set_map: SetMap,
    slices: WaySlices,
    /// SecDCP resizes so far: a [`WaySlice`] is good for the generation
    /// it was resolved in.
    generation: u32,
    clock: u64,
}

/// One tenant's resolved view of a [`Cache`]: the ways `[lo, hi)` it may
/// occupy in every set, and whether its hits must be on lines it filled.
/// [`Cache::slice`] resolves it once, with the strict-domain check, so
/// [`Cache::access_slice`] does no per-access table lookup or range
/// check. A SecDCP resize moves the slices; a view resolved before it is
/// stale (debug-asserted).
#[derive(Debug, Clone, Copy)]
pub struct WaySlice {
    lo: u32,
    hi: u32,
    tenant: u32,
    /// [`Partition::Shared`]: a hit may be on any tenant's line.
    shared: bool,
    generation: u32,
}

impl Cache {
    /// Build a cache.
    ///
    /// # Panics
    ///
    /// Panics if a partitioned configuration cannot give every tenant at
    /// least one way.
    pub fn new(config: CacheConfig, partition: Partition) -> Cache {
        match &partition {
            Partition::StaticWays { tenants } => {
                assert!(
                    *tenants > 0 && *tenants <= config.ways,
                    "more tenants than ways"
                );
            }
            Partition::SecDcp { allocation } => {
                let total: u32 = allocation.iter().sum();
                assert!(total <= config.ways, "SecDCP allocation exceeds ways");
                assert!(allocation.iter().all(|&w| w > 0), "SecDCP zero-way tenant");
            }
            Partition::Shared => {}
        }
        assert!(
            config.ways <= 64,
            "associativity above 64 is unsupported (the hit scan packs \
             way matches into a u64 bitmask)"
        );
        let sets = config.sets();
        let set_map = SetMap::build(&config);
        let slices = WaySlices::build(&config, &partition);
        let n = (sets * u64::from(config.ways)) as usize;
        Cache {
            config,
            partition,
            tags: vec![TAG_INVALID; n].into_boxed_slice(),
            stamps: vec![0; n].into_boxed_slice(),
            owners: vec![0; n].into_boxed_slice(),
            set_map,
            slices,
            generation: 0,
            clock: 0,
        }
    }

    /// Tenant `t`'s way slice, resolved once for any number of
    /// [`Cache::access_slice`] calls.
    ///
    /// # Panics
    ///
    /// Panics when `t` has no slice under a partitioned discipline.
    /// Static partitioning used to *wrap* (`t % tenants`) and SecDCP
    /// used to *clamp* (`min(t, last)`): both silently co-located an
    /// out-of-range tenant with a legitimate one in the same way slice,
    /// handing them mutual eviction visibility — exactly the channel
    /// partitioning exists to close. Mirroring `TemporalArbiter::grant`,
    /// a mis-numbered tenant is a hard error (kept as a release assert:
    /// this guards an isolation claim, not a perf invariant).
    pub fn slice(&self, t: u32) -> WaySlice {
        let (lo, hi) = match &self.slices {
            WaySlices::Shared => (0, self.config.ways),
            WaySlices::Static(slices) => {
                assert!(
                    (t as usize) < slices.len(),
                    "tenant {t} out of range for a {}-tenant static way partition \
                     (wrapping would silently share a slice across tenants)",
                    slices.len()
                );
                slices[t as usize]
            }
            WaySlices::SecDcp(slices) => {
                assert!(
                    (t as usize) < slices.len(),
                    "tenant {t} out of range for a {}-tenant SecDCP allocation \
                     (clamping would silently merge it into the last tenant's slice)",
                    slices.len()
                );
                slices[t as usize]
            }
        };
        WaySlice {
            lo,
            hi,
            tenant: t,
            shared: matches!(self.slices, WaySlices::Shared),
            generation: self.generation,
        }
    }

    /// Number of tenant domains the discipline distinguishes, or `None`
    /// for [`Partition::Shared`] (any tenant id is legal there).
    pub fn domains(&self) -> Option<u32> {
        match &self.slices {
            WaySlices::Shared => None,
            WaySlices::Static(slices) | WaySlices::SecDcp(slices) => Some(slices.len() as u32),
        }
    }

    /// Access `addr` on behalf of tenant `t`; returns `true` on hit.
    /// Resolves `t`'s slice ([`Cache::slice`], which panics on a tenant
    /// without one) and accesses through it; a caller that accesses for
    /// one tenant many times resolves the slice once instead.
    #[inline(always)]
    pub fn access(&mut self, t: u32, addr: u64) -> bool {
        let slice = self.slice(t);
        self.access_slice(slice, addr)
    }

    /// Access `addr` within `slice`; returns `true` on hit.
    ///
    /// `inline(always)`: the shared/partitioned branch inside predicts
    /// perfectly only when each call site (the engine's L2 probe, the
    /// reference engine's L1 and L2 probes) gets its own copy.
    #[inline(always)]
    pub fn access_slice(&mut self, slice: WaySlice, addr: u64) -> bool {
        debug_assert_eq!(
            slice.generation, self.generation,
            "way slice resolved before a SecDCP resize"
        );
        self.clock += 1;
        let (set_idx, tag) = self.set_map.locate(addr);
        debug_assert!(
            tag != TAG_INVALID,
            "address {addr:#x} maps to the invalid-line tag sentinel"
        );
        let base = set_idx * self.config.ways as usize;
        let (lo, hi) = (base + slice.lo as usize, base + slice.hi as usize);

        // Hit scan over the tag array only — the LRU stamps stay out of
        // the host cache until a miss actually needs them. The scan
        // accumulates a match bitmask instead of branching per way:
        // whether and where a lookup hits is data-dependent (i.e.
        // unpredictable), so an early-exit loop eats a misprediction on
        // nearly every access, while the lane form runs branch-free
        // four ways per step (see `simd::match_mask`). Matching ways
        // are then visited lowest-first (`trailing_zeros`), preserving
        // the old first-match order.
        //
        // Under Shared, a hit may be satisfied from any way regardless
        // of owner (this is what makes soft partitioning like Intel CAT
        // leaky — see §4.2 footnote). Under hard partitioning only the
        // tenant's own slice is searched and `slice` rejects ids
        // without one, so the owner check is defense-in-depth (it
        // would catch a slice-table bug); it sits behind the rare tag
        // match, off the scan itself.
        let mut mask = crate::simd::match_mask(&self.tags[lo..hi], tag);
        while mask != 0 {
            let w = lo + mask.trailing_zeros() as usize;
            if slice.shared || self.owners[w] == slice.tenant {
                self.stamps[w] = self.clock;
                return true;
            }
            mask &= mask - 1;
        }

        // Miss: fill the LRU way — the first way with the smallest
        // stamp; invalid lines carry stamp 0, below every live stamp,
        // so they are chosen first.
        let victim = lo + crate::simd::min_stamp_way(&self.stamps[lo..hi]);
        self.tags[victim] = tag;
        self.stamps[victim] = self.clock;
        self.owners[victim] = slice.tenant;
        false
    }

    /// Resize a SecDCP allocation between phases.
    ///
    /// # Panics
    ///
    /// Panics if the cache is not SecDCP-partitioned or the new allocation
    /// is invalid. Lines stranded outside a tenant's new slice are
    /// invalidated (they may not be probed, which would leak).
    pub fn secdcp_resize(&mut self, allocation: Vec<u32>) {
        assert!(
            matches!(self.partition, Partition::SecDcp { .. }),
            "not a SecDCP cache"
        );
        let total: u32 = allocation.iter().sum();
        assert!(total <= self.config.ways && allocation.iter().all(|&w| w > 0));
        self.partition = Partition::SecDcp { allocation };
        self.slices = WaySlices::build(&self.config, &self.partition);
        self.generation += 1;
        // Invalidate lines that now sit outside their owner's slice.
        let ways = self.config.ways as usize;
        for idx in 0..self.tags.len() {
            if self.stamps[idx] != 0 {
                let s = self.slice(self.owners[idx]);
                let way = (idx % ways) as u32;
                if way < s.lo || way >= s.hi {
                    self.tags[idx] = TAG_INVALID;
                    self.stamps[idx] = 0;
                    self.owners[idx] = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(partition: Partition) -> Cache {
        // 4 sets x 4 ways x 64B lines = 1 KiB.
        Cache::new(
            CacheConfig {
                size: 1024,
                ways: 4,
                line: 64,
            },
            partition,
        )
    }

    #[test]
    fn geometry() {
        assert_eq!(
            CacheConfig {
                size: 1024,
                ways: 4,
                line: 64
            }
            .sets(),
            4
        );
        assert_eq!(
            CacheConfig {
                size: 4 << 20,
                ways: 16,
                line: 64
            }
            .sets(),
            4096
        );
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny(Partition::Shared);
        assert!(!c.access(0, 0x1000));
        assert!(c.access(0, 0x1000));
        assert!(c.access(0, 0x103f)); // Same line.
        assert!(!c.access(0, 0x1040)); // Next line.
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny(Partition::Shared);
        // Fill all 4 ways of set 0 (addresses with same set index).
        for i in 0..4u64 {
            c.access(0, i * 4 * 64 * 4); // Stride = sets*line = 256; x4 ways.
        }
        // Re-touch line 0 so line 1 becomes LRU.
        c.access(0, 0);
        // A 5th distinct line evicts line 1, not line 0.
        c.access(0, 4 * 1024);
        assert!(c.access(0, 0), "recently used line must survive");
        assert!(!c.access(0, 1024), "LRU line must have been evicted");
    }

    #[test]
    fn shared_cache_lets_tenants_evict_each_other() {
        let mut c = tiny(Partition::Shared);
        for i in 0..4u64 {
            c.access(0, i * 256);
        }
        // Tenant 1 thrashes the same set.
        for i in 10..14u64 {
            c.access(1, i * 256);
        }
        // Tenant 0's lines are gone: the cross-tenant side channel.
        assert!(!c.access(0, 0));
    }

    #[test]
    fn static_partition_prevents_cross_tenant_eviction() {
        let mut c = tiny(Partition::StaticWays { tenants: 2 });
        for i in 0..2u64 {
            c.access(0, i * 256);
        }
        // Tenant 1 thrashes hard — far more lines than its slice holds.
        for i in 10..30u64 {
            c.access(1, i * 256);
        }
        // Tenant 0's two lines (fitting its 2-way slice) are untouched.
        assert!(c.access(0, 0));
        assert!(c.access(0, 256));
    }

    #[test]
    fn static_partition_shrinks_effective_capacity() {
        let mut shared = tiny(Partition::Shared);
        let mut part = tiny(Partition::StaticWays { tenants: 2 });
        // A working set of 4 lines in one set: fits shared (4 ways), not
        // a 2-way slice.
        let (mut shared_misses, mut part_misses) = (0, 0);
        for _ in 0..8 {
            for i in 0..4u64 {
                shared_misses += u32::from(!shared.access(0, i * 256));
                part_misses += u32::from(!part.access(0, i * 256));
            }
        }
        assert!(part_misses > shared_misses);
    }

    #[test]
    fn secdcp_resize_invalidates_stranded_lines() {
        let mut c = tiny(Partition::SecDcp {
            allocation: vec![3, 1],
        });
        c.access(0, 0);
        c.access(0, 256);
        c.access(0, 512);
        c.secdcp_resize(vec![1, 3]);
        // Tenant 0 now owns only way 0; at most one of its lines survives.
        let survivors = [0u64, 256, 512].iter().filter(|&&a| c.access(0, a)).count();
        assert!(
            survivors <= 1,
            "{survivors} lines survived a shrink to 1 way"
        );
    }

    #[test]
    #[should_panic(expected = "more tenants than ways")]
    fn too_many_tenants_panics() {
        let _ = tiny(Partition::StaticWays { tenants: 5 });
    }

    #[test]
    fn last_tenant_absorbs_remainder_ways() {
        // 4 ways, 3 tenants: slices are 1,1,2.
        let c = tiny(Partition::StaticWays { tenants: 3 });
        let ways = |t| {
            let s = c.slice(t);
            (s.lo, s.hi)
        };
        assert_eq!(ways(0), (0, 1));
        assert_eq!(ways(1), (1, 2));
        assert_eq!(ways(2), (2, 4));
    }

    #[test]
    #[should_panic(expected = "out of range for a 2-tenant static way partition")]
    fn static_rejects_out_of_range_tenant() {
        // Regression: tenant 2 of a 2-tenant split used to wrap to
        // tenant 0's slice (t % tenants) and share its ways.
        let mut c = tiny(Partition::StaticWays { tenants: 2 });
        c.access(2, 0x1000);
    }

    #[test]
    #[should_panic(expected = "out of range for a 2-tenant SecDCP allocation")]
    fn secdcp_rejects_out_of_range_tenant() {
        // Regression: tenant 7 used to clamp into the *last* tenant's
        // slice (min(t, len-1)) — it could fill, evict, and probe
        // tenant 1's ways as if they were its own.
        let mut c = tiny(Partition::SecDcp {
            allocation: vec![2, 2],
        });
        c.access(7, 0x1000);
    }

    #[test]
    fn secdcp_clamp_no_longer_shares_the_last_slice() {
        // The concrete leak the clamp enabled: out-of-range tenant 5
        // priming tenant 1's slice and then observing tenant 1's
        // evictions. Under strict domains the prime itself refuses.
        let mut c = tiny(Partition::SecDcp {
            allocation: vec![2, 2],
        });
        c.access(1, 0x1000);
        let primed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.access(5, 0x2000);
        }));
        assert!(
            primed.is_err(),
            "mis-numbered tenant must not reach a slice"
        );
    }

    #[test]
    fn domains_reflect_discipline() {
        assert_eq!(tiny(Partition::Shared).domains(), None);
        assert_eq!(
            tiny(Partition::StaticWays { tenants: 3 }).domains(),
            Some(3)
        );
        assert_eq!(
            tiny(Partition::SecDcp {
                allocation: vec![2, 1, 1],
            })
            .domains(),
            Some(3)
        );
    }
}
