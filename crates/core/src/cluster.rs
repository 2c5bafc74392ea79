//! Hardware-thread clusters: allocation, release and fault poisoning.
//!
//! §4.3: "S-NIC statically assigns each thread to a cluster, and places a
//! TLB bank in front of each cluster. ... the hardware marks the clusters
//! as allocated and then configures the associated TLB banks so that
//! hardware threads can only access the physical memory that belongs to
//! the new function."
//!
//! [`ClusterPool`] is that allocation state for one accelerator family:
//! which clusters are bound to which function, and which a hardware
//! fault has poisoned.

use std::sync::Arc;

use snic_telemetry::{metrics, NullSink, TelemetrySink};
use snic_types::{AccelClusterId, AccelKind, NfId, SnicError};

/// Tracks cluster allocation for one accelerator family.
///
/// Clusters can be *poisoned* by a hardware fault (§4.3: "S-NIC treats
/// any cluster TLB misses as fatal errors"): a faulted cluster stays
/// out of the allocatable pool — even after its owner is torn down —
/// until the device repairs it on the next power cycle.
#[derive(Debug)]
pub struct ClusterPool {
    kind: AccelKind,
    owners: Vec<Option<NfId>>,
    faulted: Vec<bool>,
    sink: Arc<dyn TelemetrySink>,
}

impl ClusterPool {
    /// A pool of `clusters` clusters (the paper assumes 64 threads per
    /// accelerator, grouped as 16×4, 8×8, or 4×16).
    pub fn new(kind: AccelKind, clusters: u16) -> ClusterPool {
        ClusterPool {
            kind,
            owners: vec![None; clusters as usize],
            faulted: vec![false; clusters as usize],
            sink: Arc::new(NullSink),
        }
    }

    /// Attach a telemetry sink (observational only).
    pub fn set_sink(&mut self, sink: Arc<dyn TelemetrySink>) {
        self.sink = sink;
    }

    /// Allocated, healthy cluster count (occupancy).
    fn occupancy(&self) -> usize {
        self.owners.iter().filter(|o| o.is_some()).count()
    }

    /// Accelerator family.
    pub fn kind(&self) -> AccelKind {
        self.kind
    }

    /// Unallocated, healthy cluster count.
    pub fn available(&self) -> usize {
        self.owners
            .iter()
            .zip(&self.faulted)
            .filter(|(o, &f)| o.is_none() && !f)
            .count()
    }

    /// Mark cluster `index` as faulted; it is withheld from allocation
    /// until [`ClusterPool::repair_all`].
    pub fn fault(&mut self, index: u16) {
        if let Some(f) = self.faulted.get_mut(usize::from(index)) {
            *f = true;
            if self.sink.enabled() {
                self.sink.counter_add(0, metrics::ACCEL_FAULTS, 1);
            }
        }
    }

    /// Clear every fault flag (power-cycle repair).
    pub fn repair_all(&mut self) {
        self.faulted.fill(false);
    }

    /// Allocate `count` clusters to `owner` atomically.
    ///
    /// Fails (allocating nothing) if not enough healthy clusters are
    /// free.
    pub fn allocate(
        &mut self,
        owner: NfId,
        count: usize,
    ) -> Result<Vec<AccelClusterId>, SnicError> {
        let free: Vec<usize> = self
            .owners
            .iter()
            .zip(&self.faulted)
            .enumerate()
            .filter(|(_, (o, &f))| o.is_none() && !f)
            .map(|(i, _)| i)
            .take(count)
            .collect();
        if free.len() < count {
            return Err(SnicError::AccelUnavailable(AccelClusterId {
                kind: self.kind,
                index: self.owners.len() as u16,
            }));
        }
        for &i in &free {
            self.owners[i] = Some(owner);
        }
        if self.sink.enabled() {
            self.sink
                .counter_add(owner.0, metrics::ACCEL_CLUSTERS, count as u64);
            self.sink
                .record(0, metrics::ACCEL_OCCUPANCY, self.occupancy() as u64);
        }
        Ok(free
            .into_iter()
            .map(|i| AccelClusterId {
                kind: self.kind,
                index: i as u16,
            })
            .collect())
    }

    /// Release every cluster owned by `owner`; returns how many.
    pub fn release_owner(&mut self, owner: NfId) -> usize {
        let mut n = 0;
        for o in &mut self.owners {
            if *o == Some(owner) {
                *o = None;
                n += 1;
            }
        }
        if self.sink.enabled() && n > 0 {
            self.sink
                .counter_add(owner.0, metrics::ACCEL_RELEASED, n as u64);
            self.sink
                .record(0, metrics::ACCEL_OCCUPANCY, self.occupancy() as u64);
        }
        n
    }

    /// Owner of a cluster.
    pub fn owner_of(&self, index: u16) -> Option<NfId> {
        self.owners.get(usize::from(index)).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_allocates_and_releases() {
        let mut p = ClusterPool::new(AccelKind::Dpi, 16);
        assert_eq!(p.available(), 16);
        let a = p.allocate(NfId(1), 3).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(p.available(), 13);
        assert_eq!(p.owner_of(a[0].index), Some(NfId(1)));
        assert_eq!(p.release_owner(NfId(1)), 3);
        assert_eq!(p.available(), 16);
    }

    #[test]
    fn pool_allocation_is_atomic() {
        let mut p = ClusterPool::new(AccelKind::Zip, 4);
        p.allocate(NfId(1), 3).unwrap();
        // Requesting 2 with only 1 free must fail without taking the 1.
        assert!(p.allocate(NfId(2), 2).is_err());
        assert_eq!(p.available(), 1);
    }
}
