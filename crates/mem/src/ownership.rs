//! The trusted hardware's page-ownership tracking (§4.1).
//!
//! "The hardware maintains another bitmap which tracks which physical RAM
//! pages have been allocated to a network function." `nf_launch` consults
//! this structure to reject launches whose page table references pages
//! already bound to a live function; `nf_teardown` releases them after
//! scrubbing. The bitmap is the model, not the data structure: a launch
//! claims one contiguous region, so ownership is kept as ranges and every
//! operation costs what the device has regions, not pages.

use std::collections::BTreeMap;

use snic_types::{NfId, SnicError};

use crate::phys::PAGE_GRANULE;

/// Page-granular ownership map over physical memory.
#[derive(Debug, Default)]
pub struct PageOwnership {
    /// First granule of a range → (one past its last granule, owner).
    /// Ranges are disjoint and maximal: a claim that touches a range of
    /// the same owner is merged into it.
    ranges: BTreeMap<u64, (u64, NfId)>,
}

impl PageOwnership {
    /// An empty map (all pages unowned, i.e. NIC-OS-accessible).
    pub fn new() -> PageOwnership {
        PageOwnership::default()
    }

    /// Claim `base..base+len` for `owner`.
    ///
    /// Fails with [`SnicError::PageOwned`] (naming the first conflicting
    /// page and its owner) if any page is already claimed — even by the
    /// same NF, since `nf_launch` walks each page exactly once.
    pub fn claim(&mut self, base: u64, len: u64, owner: NfId) -> Result<(), SnicError> {
        let mut first = base / PAGE_GRANULE;
        let mut last = (base + len).div_ceil(PAGE_GRANULE);
        if first >= last {
            return Ok(());
        }
        // The range at or below `first` conflicts at `first` if it reaches
        // it; otherwise the first conflict is the next range's start.
        let below = self.ranges.range(..=first).next_back();
        let above = self.ranges.range(first + 1..).next();
        let conflict = match (below, above) {
            (Some((_, &(end, o))), _) if end > first => Some((first, o)),
            (_, Some((&start, &(_, o)))) if start < last => Some((start, o)),
            _ => None,
        };
        if let Some((granule, owner)) = conflict {
            return Err(SnicError::PageOwned {
                addr: granule * PAGE_GRANULE,
                owner,
            });
        }
        // Merge with the same owner's ranges that end or start here.
        if let Some((&start, &(end, o))) = below {
            if end == first && o == owner {
                first = start;
            }
        }
        if let Some((&start, &(end, o))) = above {
            if start == last && o == owner {
                self.ranges.remove(&start);
                last = end;
            }
        }
        self.ranges.insert(first, (last, owner));
        Ok(())
    }

    /// Release every page owned by `owner`; returns the count released.
    pub fn release_owner(&mut self, owner: NfId) -> usize {
        let mut released = 0;
        self.ranges.retain(|&start, &mut (end, o)| {
            if o == owner {
                released += end - start;
            }
            o != owner
        });
        released as usize
    }

    /// Owner of the page containing `addr`, if any.
    pub fn owner_of(&self, addr: u64) -> Option<NfId> {
        let granule = addr / PAGE_GRANULE;
        let (_, &(end, owner)) = self.ranges.range(..=granule).next_back()?;
        (granule < end).then_some(owner)
    }

    /// The owned address space as maximal `(base, len, owner)` ranges,
    /// sorted by base — adjacent same-owner granules are coalesced. This
    /// is the verifier's view of the ownership map.
    pub fn owned_ranges(&self) -> Vec<(u64, u64, NfId)> {
        self.ranges
            .iter()
            .map(|(&start, &(end, o))| (start * PAGE_GRANULE, (end - start) * PAGE_GRANULE, o))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use snic_types::ByteSize;
    use std::collections::HashMap;

    impl PageOwnership {
        /// Total bytes currently owned by `owner`.
        fn owned_bytes(&self, owner: NfId) -> ByteSize {
            let ranges = self.owned_ranges();
            ByteSize(ranges.iter().filter(|r| r.2 == owner).map(|r| r.1).sum())
        }

        /// Total bytes owned by any NF.
        fn total_owned(&self) -> ByteSize {
            ByteSize(self.owned_ranges().iter().map(|r| r.1).sum())
        }
    }

    /// The paper's bitmap, one entry per owned granule: the
    /// implementation this module had before it kept ranges, retained as
    /// the model the ranges are checked against.
    #[derive(Default)]
    struct PerGranule {
        owners: HashMap<u64, NfId>,
    }

    impl PerGranule {
        fn claim(&mut self, base: u64, len: u64, owner: NfId) -> Result<(), SnicError> {
            let first = base / PAGE_GRANULE;
            let last = (base + len).div_ceil(PAGE_GRANULE);
            for g in first..last {
                if let Some(&existing) = self.owners.get(&g) {
                    return Err(SnicError::PageOwned {
                        addr: g * PAGE_GRANULE,
                        owner: existing,
                    });
                }
            }
            for g in first..last {
                self.owners.insert(g, owner);
            }
            Ok(())
        }

        fn release_owner(&mut self, owner: NfId) -> usize {
            let before = self.owners.len();
            self.owners.retain(|_, &mut o| o != owner);
            before - self.owners.len()
        }

        fn owned_bytes(&self, owner: NfId) -> ByteSize {
            ByteSize(self.owners.values().filter(|&&o| o == owner).count() as u64 * PAGE_GRANULE)
        }

        fn owned_ranges(&self) -> Vec<(u64, u64, NfId)> {
            let mut granules: Vec<(u64, NfId)> =
                self.owners.iter().map(|(&g, &o)| (g, o)).collect();
            granules.sort_unstable_by_key(|&(g, _)| g);
            let mut out: Vec<(u64, u64, NfId)> = Vec::new();
            for (g, owner) in granules {
                let base = g * PAGE_GRANULE;
                match out.last_mut() {
                    Some((b, l, o)) if *o == owner && *b + *l == base => *l += PAGE_GRANULE,
                    _ => out.push((base, PAGE_GRANULE, owner)),
                }
            }
            out
        }
    }

    /// Granules of the model address space: small, so random claims
    /// collide, abut and nest often.
    const SPACE: u64 = 24;

    proptest! {
        /// Claims (aligned and not, empty, abutting a range of the same
        /// owner or another's, overlapping at head, tail or middle) and
        /// releases: the ranges answer exactly as the bitmap does, down
        /// to which granule a refused claim names.
        #[test]
        fn ranges_answer_as_the_per_granule_bitmap(
            ops in proptest::collection::vec(
                (0u8..5, 0..SPACE, 0..4u64, 0..3u64, 0..3u64, 1u64..4),
                1..40,
            ),
        ) {
            let (mut ranges, mut bitmap) = (PageOwnership::new(), PerGranule::default());
            for (kind, granule, granules, base_off, len_off, owner) in ops {
                let owner = NfId(owner);
                if kind == 0 {
                    prop_assert_eq!(ranges.release_owner(owner), bitmap.release_owner(owner));
                } else {
                    // Offsets of 0, 1 and a granule less one byte.
                    let off = |pick: u64| [0, 1, PAGE_GRANULE - 1][pick as usize];
                    let base = granule * PAGE_GRANULE + off(base_off);
                    let len = granules * PAGE_GRANULE + off(len_off);
                    prop_assert_eq!(
                        ranges.claim(base, len, owner),
                        bitmap.claim(base, len, owner),
                        "claim({}, {}, {:?})", base, len, owner
                    );
                }
                prop_assert_eq!(ranges.owned_ranges(), bitmap.owned_ranges());
                prop_assert_eq!(
                    ranges.total_owned(),
                    ByteSize(bitmap.owners.len() as u64 * PAGE_GRANULE)
                );
                for o in 1..4 {
                    prop_assert_eq!(ranges.owned_bytes(NfId(o)), bitmap.owned_bytes(NfId(o)));
                }
                for g in 0..SPACE + 8 {
                    let addr = g * PAGE_GRANULE + 17;
                    prop_assert_eq!(ranges.owner_of(addr), bitmap.owners.get(&g).copied());
                }
            }
        }
    }

    #[test]
    fn same_owner_neighbours_merge_into_one_range() {
        let mut o = PageOwnership::new();
        let g = PAGE_GRANULE;
        o.claim(4 * g, g, NfId(1)).unwrap();
        o.claim(6 * g, g, NfId(1)).unwrap();
        o.claim(7 * g, g, NfId(2)).unwrap();
        // Fills the hole: merges with both same-owner neighbours, not
        // with the other owner's range after them.
        o.claim(5 * g, g, NfId(1)).unwrap();
        assert_eq!(
            o.owned_ranges(),
            vec![(4 * g, 3 * g, NfId(1)), (7 * g, g, NfId(2))]
        );
        assert_eq!(o.release_owner(NfId(1)), 3);
        assert_eq!(o.owned_ranges(), vec![(7 * g, g, NfId(2))]);
    }

    #[test]
    fn claim_then_conflict() {
        let mut o = PageOwnership::new();
        o.claim(0x10_000, 0x4000, NfId(1)).unwrap();
        match o.claim(0x12_000, 0x1000, NfId(2)) {
            Err(SnicError::PageOwned { owner, .. }) => assert_eq!(owner, NfId(1)),
            other => panic!("expected PageOwned, got {other:?}"),
        }
    }

    #[test]
    fn self_conflict_also_rejected() {
        let mut o = PageOwnership::new();
        o.claim(0, 0x1000, NfId(1)).unwrap();
        assert!(o.claim(0, 0x1000, NfId(1)).is_err());
    }

    #[test]
    fn failed_claim_leaves_no_partial_state() {
        let mut o = PageOwnership::new();
        o.claim(0x4000, 0x1000, NfId(1)).unwrap();
        // This claim overlaps at its tail; the head pages must not leak.
        assert!(o.claim(0x2000, 0x3000, NfId(2)).is_err());
        assert_eq!(o.owner_of(0x2000), None);
        assert_eq!(o.owner_of(0x3000), None);
    }

    #[test]
    fn release_frees_only_one_owner() {
        let mut o = PageOwnership::new();
        o.claim(0, 0x2000, NfId(1)).unwrap();
        o.claim(0x10_000, 0x2000, NfId(2)).unwrap();
        let released = o.release_owner(NfId(1));
        assert_eq!(released, 2);
        assert_eq!(o.owner_of(0), None);
        assert_eq!(o.owner_of(0x10_000), Some(NfId(2)));
    }

    #[test]
    fn owned_bytes_accounting() {
        let mut o = PageOwnership::new();
        o.claim(0, 3 * PAGE_GRANULE, NfId(9)).unwrap();
        assert_eq!(o.owned_bytes(NfId(9)), ByteSize(3 * PAGE_GRANULE));
        assert_eq!(o.owned_bytes(NfId(1)), ByteSize::ZERO);
        assert_eq!(o.total_owned(), ByteSize(3 * PAGE_GRANULE));
    }

    #[test]
    fn owned_ranges_coalesce_per_owner() {
        let mut o = PageOwnership::new();
        o.claim(0, 2 * PAGE_GRANULE, NfId(1)).unwrap();
        o.claim(2 * PAGE_GRANULE, PAGE_GRANULE, NfId(2)).unwrap();
        o.claim(10 * PAGE_GRANULE, PAGE_GRANULE, NfId(1)).unwrap();
        assert_eq!(
            o.owned_ranges(),
            vec![
                (0, 2 * PAGE_GRANULE, NfId(1)),
                (2 * PAGE_GRANULE, PAGE_GRANULE, NfId(2)),
                (10 * PAGE_GRANULE, PAGE_GRANULE, NfId(1)),
            ]
        );
    }

    #[test]
    fn partial_page_claims_round_up() {
        let mut o = PageOwnership::new();
        // One byte still claims its whole granule.
        o.claim(PAGE_GRANULE, 1, NfId(3)).unwrap();
        assert_eq!(o.owner_of(PAGE_GRANULE + 100), Some(NfId(3)));
        assert!(o.claim(PAGE_GRANULE + 200, 8, NfId(4)).is_err());
    }
}
