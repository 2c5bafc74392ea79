//! Differential test for the flat (structure-of-arrays) cache.
//!
//! The hot-path cache keeps its lines in three contiguous set-major
//! arrays with encoded validity, precomputed set maps, way slices
//! resolved once per tenant, and a SIMD-lane hit scan. This suite pits
//! it against a deliberately naive reference model written straight
//! from the spec — one `Vec` of line records per set, way ranges
//! re-derived from the partition on every access, linear scans, explicit
//! `valid` flags — over random geometries of 1–64 ways, all three
//! sharing disciplines (SecDCP across a resize), and random interleaved
//! multi-tenant access sequences, through both `Cache::access` and
//! slices resolved up front. The hit/miss outcome of *every individual
//! access* must match. A second property pits the four-lane tag-match
//! scan against its scalar specification over random way widths, and a
//! third holds the strict-domain contract: any out-of-range tenant id
//! under a partitioned discipline must refuse, whether it accesses or
//! asks for its slice (the old wrap/clamp lookups silently shared a
//! slice instead).

use proptest::prelude::*;
use proptest::TestRng;
use snic_uarch::cache::{Cache, CacheConfig, Partition, WaySlice};
use snic_uarch::simd;

/// One line record of the reference model; validity is an explicit flag
/// rather than the flat cache's sentinel encoding.
#[derive(Clone, Copy)]
struct RefLine {
    valid: bool,
    tag: u64,
    owner: u32,
    stamp: u64,
}

/// The naive reference: per-set vectors of line records, way ranges
/// re-derived from the [`Partition`] on every access, early-exit linear
/// scans. Slow and obvious on purpose.
struct RefCache {
    nsets: u64,
    ways: usize,
    line: u64,
    partition: Partition,
    sets: Vec<Vec<RefLine>>,
    clock: u64,
}

impl RefCache {
    fn new(config: CacheConfig, partition: Partition) -> RefCache {
        let nsets = config.sets();
        let empty = RefLine {
            valid: false,
            tag: 0,
            owner: 0,
            stamp: 0,
        };
        RefCache {
            nsets,
            ways: config.ways as usize,
            line: u64::from(config.line),
            partition,
            sets: vec![vec![empty; config.ways as usize]; nsets as usize],
            clock: 0,
        }
    }

    /// A SecDCP resize: the new allocation, and every line outside its
    /// owner's new range invalidated.
    fn resize(&mut self, allocation: Vec<u32>) {
        self.partition = Partition::SecDcp { allocation };
        for set in 0..self.sets.len() {
            for way in 0..self.ways {
                let line = self.sets[set][way];
                if line.valid {
                    let (lo, hi) = self.range(line.owner);
                    if way < lo || way >= hi {
                        self.sets[set][way].valid = false;
                    }
                }
            }
        }
    }

    /// The way range `[lo, hi)` tenant `t` may occupy, straight from the
    /// discipline definition (strict domains: a tenant without a slice
    /// is a hard error, the last static slice absorbs remainder ways).
    fn range(&self, t: u32) -> (usize, usize) {
        match &self.partition {
            Partition::Shared => (0, self.ways),
            Partition::StaticWays { tenants } => {
                assert!(t < *tenants, "tenant {t} has no static slice");
                let per = self.ways / *tenants as usize;
                let slot = t as usize;
                let lo = slot * per;
                let hi = if slot == *tenants as usize - 1 {
                    self.ways
                } else {
                    lo + per
                };
                (lo, hi)
            }
            Partition::SecDcp { allocation } => {
                assert!(
                    (t as usize) < allocation.len(),
                    "tenant {t} has no SecDCP slot"
                );
                let slot = t as usize;
                let lo: u32 = allocation[..slot].iter().sum();
                (lo as usize, (lo + allocation[slot]) as usize)
            }
        }
    }

    fn access(&mut self, t: u32, addr: u64) -> bool {
        self.clock += 1;
        let line_addr = addr / self.line;
        let set = (line_addr % self.nsets) as usize;
        let tag = line_addr / self.nsets;
        let (lo, hi) = self.range(t);
        let shared = matches!(self.partition, Partition::Shared);
        let lines = &mut self.sets[set];
        // Hit: first matching way. Shared hits are tag-only (any owner —
        // the leak that makes soft partitioning bypassable); partitioned
        // hits require ownership.
        for slot in lines[lo..hi].iter_mut() {
            if slot.valid && slot.tag == tag && (shared || slot.owner == t) {
                slot.stamp = self.clock;
                return true;
            }
        }
        // Miss: fill the first invalid way, else the first least-
        // recently-used way.
        let victim = match lines[lo..hi].iter().position(|l| !l.valid) {
            Some(w) => lo + w,
            None => {
                let mut victim = lo;
                for w in lo..hi {
                    if lines[w].stamp < lines[victim].stamp {
                        victim = w;
                    }
                }
                victim
            }
        };
        lines[victim] = RefLine {
            valid: true,
            tag,
            owner: t,
            stamp: self.clock,
        };
        false
    }
}

/// Random geometry: non-power-of-two set counts and lines included, so
/// both `SetMap` arms are exercised; 1–64 ways (half the draws at most
/// 8, where slices are a few ways wide); every dimension kept small
/// enough that sets actually fill and evict.
fn geometry(rng: &mut TestRng) -> CacheConfig {
    let max_ways = [8, 64][rng.below(2) as usize];
    let ways = 1 + rng.below(max_ways) as u32;
    let line = [32u32, 48, 64][rng.below(3) as usize];
    let nsets = 1 + rng.below(12);
    CacheConfig {
        size: nsets * u64::from(ways) * u64::from(line),
        ways,
        line,
    }
}

/// Random discipline legal for the geometry (static tenant counts no
/// larger than the way count, so the last tenant often absorbs
/// remainder ways; SecDCP allocations from [`allocation`]).
fn discipline(rng: &mut TestRng, ways: u32) -> Partition {
    match rng.below(3) {
        0 => Partition::Shared,
        1 => Partition::StaticWays {
            tenants: 1 + rng.below(u64::from(ways)) as u32,
        },
        _ => {
            let tenants = 1 + rng.below(u64::from(ways)) as usize;
            Partition::SecDcp {
                allocation: allocation(rng, ways, tenants),
            }
        }
    }
}

/// A SecDCP allocation of ≥1 way to each of `tenants`, summing to
/// `ways` or, one time in four, leaving some ways to no one.
fn allocation(rng: &mut TestRng, ways: u32, tenants: usize) -> Vec<u32> {
    let spare = if rng.below(4) == 0 {
        rng.below(u64::from(ways) - tenants as u64 + 1) as usize
    } else {
        0
    };
    let mut allocation = vec![1u32; tenants];
    for _ in 0..ways as usize - tenants - spare {
        let slot = rng.below(tenants as u64) as usize;
        allocation[slot] += 1;
    }
    allocation
}

/// Tenant-id bound for a discipline: exactly the configured domain
/// count. Ids beyond it are construction-time errors now (covered by
/// `out_of_range_tenants_always_refuse` below), not a shared-slice path
/// to exercise.
fn tenant_bound(partition: &Partition) -> u64 {
    match partition {
        Partition::Shared => 5,
        Partition::StaticWays { tenants } => u64::from(*tenants),
        Partition::SecDcp { allocation } => allocation.len() as u64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn flat_cache_matches_naive_reference(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let config = geometry(&mut rng);
        let partition = discipline(&mut rng, config.ways);

        let mut flat = Cache::new(config, partition.clone());
        let mut naive = RefCache::new(config, partition.clone());

        // A working set a few times the cache's line count keeps the
        // hit/miss mix interesting; random in-line offsets make sure
        // offset bits never leak into set or tag.
        let lines_total = config.sets() * u64::from(config.ways);
        let distinct = 1 + rng.below(3 * lines_total.max(2));
        let tenants = tenant_bound(&partition);
        let accesses = 2_000;
        // Every tenant's slice, resolved once and again after a resize.
        let resolve = |c: &Cache| -> Vec<WaySlice> { (0..tenants as u32).map(|t| c.slice(t)).collect() };
        let mut slices = resolve(&flat);
        // A SecDCP cache resizes once, at a random step, to a random
        // allocation for as many tenants.
        let resize_at = match partition {
            Partition::SecDcp { .. } => rng.below(accesses),
            _ => u64::MAX,
        };

        for step in 0..accesses {
            if step == resize_at {
                let allocation = allocation(&mut rng, config.ways, tenants as usize);
                flat.secdcp_resize(allocation.clone());
                naive.resize(allocation);
                slices = resolve(&flat);
            }
            let t = rng.below(tenants) as u32;
            let addr =
                rng.below(distinct) * u64::from(config.line) + rng.below(u64::from(config.line));
            let f = if rng.below(2) == 0 {
                flat.access(t, addr)
            } else {
                flat.access_slice(slices[t as usize], addr)
            };
            let n = naive.access(t, addr);
            prop_assert_eq!(
                f, n,
                "access #{} diverged (tenant {}, addr {:#x}, {:?}, resize at {})",
                step, t, addr, partition, resize_at
            );
        }
    }

    /// The four-lane tag-match scan against its scalar specification:
    /// random way widths (including non-multiples of the lane count),
    /// random tag values with planted duplicates, random needles.
    #[test]
    fn simd_lane_scan_matches_scalar_scan(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let ways = 1 + rng.below(24) as usize;
        // A small tag universe plants plenty of duplicates and misses.
        let universe = 1 + rng.below(6);
        let tags: Vec<u64> = (0..ways).map(|_| rng.below(universe)).collect();
        for _ in 0..16 {
            let needle = rng.below(universe + 2);
            let lane = simd::match_mask(&tags, needle);
            let scalar = simd::match_mask_scalar(&tags, needle);
            prop_assert_eq!(
                lane, scalar,
                "lane/scalar divergence: ways={} needle={}", ways, needle
            );
            // The mask's bits must be exactly the matching positions.
            for (w, &t) in tags.iter().enumerate() {
                prop_assert_eq!((lane >> w) & 1 == 1, t == needle);
            }
        }
        // The LRU victim pick agrees with a naive first-minimum scan.
        let stamps: Vec<u64> = (0..ways).map(|_| rng.below(8)).collect();
        let naive = stamps
            .iter()
            .enumerate()
            .min_by_key(|&(_, &s)| s)
            .map(|(w, _)| w)
            .unwrap_or(0);
        prop_assert_eq!(simd::min_stamp_way(&stamps), naive);
    }

    /// Strict domains: any tenant id at or beyond the configured count
    /// must refuse under a partitioned discipline, for every geometry.
    /// (Before the fix, static wrapped into `t % tenants`' slice and
    /// SecDCP clamped into the last slice — both silently shared ways.)
    #[test]
    fn out_of_range_tenants_always_refuse(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let config = geometry(&mut rng);
        let partition = discipline(&mut rng, config.ways);
        let Some(domains) = Cache::new(config, partition.clone()).domains() else {
            return Ok(()); // Shared: every tenant id is legal.
        };
        let bad = domains + rng.below(1000) as u32;
        let mut cache = Cache::new(config, partition);
        let sliced = std::panic::catch_unwind(|| cache.slice(bad)).is_err();
        prop_assert!(sliced, "tenant {} given a slice of a {}-domain cache", bad, domains);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.access(bad, 0x40)
        }))
        .is_err();
        prop_assert!(refused, "tenant {} accepted on a {}-domain cache", bad, domains);
    }
}
