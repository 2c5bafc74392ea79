//! The page-allocation planner behind Tables 5 and 6.
//!
//! Given the sizes of a function's memory regions (text, static data,
//! code, heap+stack) and a set of allowed page sizes, compute the number
//! of TLB entries needed to map everything while minimizing wasted
//! (over-allocated) memory: "When allocating pages for a function's code,
//! static data, heap, and stack regions, we try to minimize the amount of
//! wasted memory" (Table 6 caption).
//!
//! Note on naming: §5.2 of the paper defines *Flex-low* as
//! {128 KB, 2 MB, 64 MB} and *Flex-high* as {2 MB, 32 MB, 128 MB};
//! Table 5's row labels are swapped relative to that definition. We follow
//! the §5.2 text (and Table 6, which is consistent with it).

use snic_types::ByteSize;

/// Named page-size policies from the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PagePolicy {
    /// Only 2 MB pages.
    Equal,
    /// 128 KB, 2 MB, and 64 MB pages.
    FlexLow,
    /// 2 MB, 32 MB, and 128 MB pages.
    FlexHigh,
    /// Arbitrary page sizes (bytes); must be non-empty.
    Custom(Vec<u64>),
}

impl PagePolicy {
    /// The allowed page sizes in ascending order.
    pub fn page_sizes(&self) -> Vec<u64> {
        const KB: u64 = 1 << 10;
        const MB: u64 = 1 << 20;
        let mut sizes = match self {
            PagePolicy::Equal => vec![2 * MB],
            PagePolicy::FlexLow => vec![128 * KB, 2 * MB, 64 * MB],
            PagePolicy::FlexHigh => vec![2 * MB, 32 * MB, 128 * MB],
            PagePolicy::Custom(s) => s.clone(),
        };
        assert!(!sizes.is_empty(), "page policy with no sizes");
        sizes.sort_unstable();
        sizes
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            PagePolicy::Equal => "Equal",
            PagePolicy::FlexLow => "Flex-low",
            PagePolicy::FlexHigh => "Flex-high",
            PagePolicy::Custom(_) => "Custom",
        }
    }
}

/// The plan for one region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionPlan {
    /// Requested region size.
    pub requested: ByteSize,
    /// Pages chosen: `(page_size, count)` pairs, largest first.
    pub pages: Vec<(u64, u64)>,
}

impl RegionPlan {
    /// Number of TLB entries (total page count).
    pub fn entries(&self) -> u64 {
        self.pages.iter().map(|&(_, c)| c).sum()
    }

    /// Total bytes allocated.
    pub fn allocated(&self) -> ByteSize {
        ByteSize(self.pages.iter().map(|&(s, c)| s * c).sum())
    }

    /// Bytes over-allocated relative to the request.
    pub fn waste(&self) -> ByteSize {
        self.allocated().saturating_sub(self.requested)
    }
}

/// Aggregate plan over several regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanOutcome {
    /// Per-region plans in input order.
    pub regions: Vec<RegionPlan>,
}

impl PlanOutcome {
    /// Total TLB entries across all regions.
    pub fn total_entries(&self) -> u64 {
        self.regions.iter().map(|r| r.entries()).sum()
    }

    /// Total allocated bytes.
    pub fn total_allocated(&self) -> ByteSize {
        ByteSize(self.regions.iter().map(|r| r.allocated().bytes()).sum())
    }
}

/// Plan one region: waste-minimizing greedy cover.
///
/// Page sizes in the paper's policies divide each other evenly, so taking
/// as many of the largest page as fits, recursing downward, and covering
/// the final remainder with the smallest page size yields the minimum
/// possible waste; among waste-minimal covers it also minimizes entries at
/// every level above the smallest.
pub fn plan_region(size: ByteSize, policy: &PagePolicy) -> RegionPlan {
    let sizes = policy.page_sizes();
    let mut pages = Vec::new();
    let mut remaining = size.bytes();
    for (idx, &ps) in sizes.iter().enumerate().rev() {
        if remaining == 0 {
            break;
        }
        if idx == 0 {
            // Smallest size: cover the remainder, rounding up.
            let count = remaining.div_ceil(ps);
            pages.push((ps, count));
            remaining = 0;
        } else {
            let count = remaining / ps;
            if count > 0 {
                pages.push((ps, count));
                remaining -= count * ps;
            }
        }
    }
    RegionPlan {
        requested: size,
        pages,
    }
}

/// Plan a set of regions under one policy.
pub fn plan_regions(regions: &[ByteSize], policy: &PagePolicy) -> PlanOutcome {
    PlanOutcome {
        regions: regions.iter().map(|&r| plan_region(r, policy)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Region sizes from Table 6 are given in MB with two decimals; this
    /// helper converts them to bytes.
    fn mb(v: f64) -> ByteSize {
        ByteSize((v * 1024.0 * 1024.0) as u64)
    }

    /// The Monitor NF's Table 6 profile: text/data/code/heap in MB.
    fn monitor_regions() -> Vec<ByteSize> {
        vec![mb(0.85), mb(0.05), mb(2.48), mb(357.15)]
    }

    #[test]
    fn monitor_equal_matches_paper_183() {
        let plan = plan_regions(&monitor_regions(), &PagePolicy::Equal);
        assert_eq!(plan.total_entries(), 183);
    }

    #[test]
    fn monitor_flex_low_matches_paper_46() {
        let plan = plan_regions(&monitor_regions(), &PagePolicy::FlexLow);
        assert_eq!(plan.total_entries(), 46);
    }

    #[test]
    fn monitor_flex_high_matches_paper_12() {
        let plan = plan_regions(&monitor_regions(), &PagePolicy::FlexHigh);
        assert_eq!(plan.total_entries(), 12);
    }

    #[test]
    fn firewall_equal_matches_paper_11() {
        let fw = vec![mb(0.87), mb(0.08), mb(2.50), mb(13.75)];
        assert_eq!(plan_regions(&fw, &PagePolicy::Equal).total_entries(), 11);
        assert_eq!(plan_regions(&fw, &PagePolicy::FlexHigh).total_entries(), 11);
    }

    #[test]
    fn waste_is_bounded_by_smallest_page_per_region() {
        let policy = PagePolicy::FlexLow;
        let smallest = policy.page_sizes()[0];
        for size in [1u64, 1000, 1 << 20, 50 << 20, 357 << 20] {
            let plan = plan_region(ByteSize(size), &policy);
            assert!(plan.waste().bytes() < smallest, "size {size}");
            assert!(plan.allocated().bytes() >= size);
        }
    }

    #[test]
    fn zero_region_needs_no_pages() {
        let plan = plan_region(ByteSize::ZERO, &PagePolicy::Equal);
        assert_eq!(plan.entries(), 0);
        assert_eq!(plan.waste(), ByteSize::ZERO);
    }

    #[test]
    fn exact_multiple_has_zero_waste() {
        let plan = plan_region(ByteSize::mib(64), &PagePolicy::FlexLow);
        assert_eq!(plan.waste(), ByteSize::ZERO);
        assert_eq!(plan.entries(), 1, "one 64 MB page suffices");
    }

    #[test]
    fn flex_low_prefers_small_pages_over_waste() {
        // 1.15 MB: one 2 MB page wastes 0.85 MB, but ten 128 KB pages
        // waste only 0.1 MB — the planner must choose the latter.
        let plan = plan_region(
            ByteSize((1.15 * 1024.0 * 1024.0) as u64),
            &PagePolicy::FlexLow,
        );
        assert_eq!(plan.pages, vec![(128 << 10, 10)]);
    }

    #[test]
    fn policy_page_sizes_sorted_ascending() {
        for p in [PagePolicy::Equal, PagePolicy::FlexLow, PagePolicy::FlexHigh] {
            let s = p.page_sizes();
            assert!(s.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn custom_policy_round_trips() {
        let p = PagePolicy::Custom(vec![1 << 20, 1 << 16]);
        assert_eq!(p.page_sizes(), vec![1 << 16, 1 << 20]);
        let plan = plan_region(ByteSize((1 << 20) + 5), &p);
        assert_eq!(plan.entries(), 2);
    }
}
