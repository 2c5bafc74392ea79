//! The management-core memory denylist (§4.2).
//!
//! "The denylist page table, which resides in private hardware memory,
//! contains a mapping for a physical address if that address should not be
//! accessed by the management core." We model it as an interval set over
//! physical addresses, each interval tagged with the owning network
//! function; lookups are the dual page-table walk the paper describes.

use snic_types::{IsolationError, NfId, SnicError};

/// An interval-set denylist over physical addresses.
#[derive(Debug, Clone, Default)]
pub struct Denylist {
    /// Sorted, non-overlapping `(base, len, owner)` intervals.
    intervals: Vec<(u64, u64, NfId)>,
}

impl Denylist {
    /// An empty denylist.
    pub fn new() -> Denylist {
        Denylist::default()
    }

    /// Deny `base..base+len`, recording `owner` as the owning NF.
    ///
    /// Fails if the range is empty or overlaps an existing denied range:
    /// the ownership bitmap guarantees launch-time exclusivity, so an
    /// overlap indicates a bug in the launch path.
    pub fn deny(&mut self, base: u64, len: u64, owner: NfId) -> Result<(), SnicError> {
        if len == 0 {
            return Err(SnicError::InvalidConfig("empty denylist range".into()));
        }
        for &(b, l, _) in &self.intervals {
            let disjoint = base + len <= b || b + l <= base;
            if !disjoint {
                return Err(SnicError::InvalidConfig(format!(
                    "overlapping denylist range at {base:#x}"
                )));
            }
        }
        self.intervals.push((base, len, owner));
        self.intervals.sort_by_key(|&(b, _, _)| b);
        Ok(())
    }

    /// Remove every range owned by `owner` (the allowlisting step of
    /// `nf_teardown`); returns the ranges removed.
    pub fn allow_owner(&mut self, owner: NfId) -> Vec<(u64, u64)> {
        let mut removed = Vec::new();
        self.intervals.retain(|&(b, l, o)| {
            if o == owner {
                removed.push((b, l));
                false
            } else {
                true
            }
        });
        removed
    }

    /// The dual page-table walk: check whether `addr..addr+len` touches a
    /// denylisted page.
    pub fn check(&self, addr: u64, len: u64) -> Result<(), IsolationError> {
        let end = addr.saturating_add(len);
        // Intervals are sorted by base and disjoint; scan until past `end`.
        for &(b, l, owner) in &self.intervals {
            if b >= end {
                break;
            }
            if addr < b + l {
                return Err(IsolationError::Denylisted {
                    addr: addr.max(b),
                    owner,
                });
            }
        }
        Ok(())
    }

    /// The sorted, disjoint `(base, len, owner)` intervals — consumed by
    /// the static verifier's denylist-completeness check.
    pub fn intervals(&self) -> &[(u64, u64, NfId)] {
        &self.intervals
    }

    /// Number of denied intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// True if nothing is denied.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_denylist_allows_everything() {
        let d = Denylist::new();
        assert!(d.check(0, u64::MAX / 2).is_ok());
    }

    #[test]
    fn denied_range_rejected_with_owner() {
        let mut d = Denylist::new();
        d.deny(0x1000, 0x1000, NfId(7)).unwrap();
        match d.check(0x1800, 8) {
            Err(IsolationError::Denylisted { owner, .. }) => assert_eq!(owner, NfId(7)),
            other => panic!("expected Denylisted, got {other:?}"),
        }
    }

    #[test]
    fn boundary_conditions() {
        let mut d = Denylist::new();
        d.deny(0x1000, 0x1000, NfId(1)).unwrap();
        // One byte before and the first byte after are allowed.
        assert!(d.check(0xfff, 1).is_ok());
        assert!(d.check(0x2000, 1).is_ok());
        // First and last denied bytes are rejected.
        assert!(d.check(0x1000, 1).is_err());
        assert!(d.check(0x1fff, 1).is_err());
        // A straddling access is rejected.
        assert!(d.check(0xff0, 0x20).is_err());
    }

    #[test]
    fn allow_owner_removes_only_that_owner() {
        let mut d = Denylist::new();
        d.deny(0x1000, 0x1000, NfId(1)).unwrap();
        d.deny(0x3000, 0x1000, NfId(2)).unwrap();
        let removed = d.allow_owner(NfId(1));
        assert_eq!(removed, vec![(0x1000, 0x1000)]);
        assert!(d.check(0x1000, 1).is_ok());
        assert!(d.check(0x3000, 1).is_err());
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn overlap_and_empty_ranges_rejected() {
        let mut d = Denylist::new();
        d.deny(0x1000, 0x1000, NfId(1)).unwrap();
        assert!(matches!(
            d.deny(0x1800, 0x1000, NfId(2)),
            Err(SnicError::InvalidConfig(_))
        ));
        assert!(d.deny(0x9000, 0, NfId(3)).is_err());
        // The failed calls left the interval set untouched.
        assert_eq!(d.len(), 1);
    }

    proptest! {
        #[test]
        fn check_agrees_with_naive_scan(
            ranges in proptest::collection::vec((0u64..10_000, 1u64..500), 0..10),
            probe in 0u64..12_000,
            len in 1u64..600,
        ) {
            // Build, skipping overlaps the same way a caller would.
            let mut d = Denylist::new();
            let mut kept: Vec<(u64, u64)> = Vec::new();
            for (i, &(b, l)) in ranges.iter().enumerate() {
                if kept.iter().all(|&(kb, kl)| b + l <= kb || kb + kl <= b) {
                    kept.push((b, l));
                    d.deny(b, l, NfId(i as u64)).unwrap();
                }
            }
            let naive_denied = kept.iter().any(|&(b, l)| probe < b + l && b < probe + len);
            prop_assert_eq!(d.check(probe, len).is_err(), naive_denied);
        }
    }
}
