//! The compute plane (§4.1, §4.3, §4.5): each programmable core with
//! its owner, locked TLB and DMA bank, the accelerator cluster pools,
//! and each function's bus-operation count.

use std::collections::BTreeMap;
use std::sync::Arc;

use snic_mem::pagetable::PageMapping;
use snic_mem::planner::RegionPlan;
use snic_mem::tlb::Tlb;
use snic_pktio::dma::{DmaBank, DmaWindow};
use snic_telemetry::TelemetrySink;
use snic_types::{AccelClusterId, AccelKind, CoreId, NfId, SnicError};

use super::{ensure, Invariant};
use crate::cluster::ClusterPool;
use crate::config::{NicConfig, NicMode};

/// One programmable core: who it is bound to, the TLB its loads and
/// stores go through (S-NIC), and its bank of the DMA controller.
#[derive(Default)]
struct Core {
    owner: Option<NfId>,
    tlb: Option<Tlb>,
    dma: Option<DmaBank>,
}

pub(crate) struct ComputePlane {
    /// Indexed by `CoreId`.
    cores: Vec<Core>,
    pools: Vec<ClusterPool>,
    /// Saturating running total of each live function's bus operations.
    bus_ops: BTreeMap<NfId, u64>,
}

impl ComputePlane {
    pub(crate) fn new(config: &NicConfig) -> ComputePlane {
        ComputePlane {
            cores: (0..config.cores).map(|_| Core::default()).collect(),
            pools: AccelKind::ALL
                .iter()
                .map(|&k| ClusterPool::new(k, config.accel_clusters))
                .collect(),
            bus_ops: BTreeMap::new(),
        }
    }

    /// Share `sink` with the pools and every installed DMA bank.
    pub(crate) fn set_sink(&mut self, sink: &Arc<dyn TelemetrySink>) {
        for pool in &mut self.pools {
            pool.set_sink(Arc::clone(sink));
        }
        for bank in self.cores.iter_mut().filter_map(|c| c.dma.as_mut()) {
            bank.set_sink(Arc::clone(sink));
        }
    }

    /// The core bitmap check (§4.1): every requested core exists and is
    /// unassigned.
    pub(crate) fn check_free(&self, cores: &[CoreId]) -> Result<(), SnicError> {
        for &c in cores {
            match self.cores.get(usize::from(c.0)) {
                None => return Err(SnicError::InvalidConfig(format!("no such core {c}"))),
                Some(Core { owner: Some(_), .. }) => return Err(SnicError::CoreBusy(c)),
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Allocate `nf`'s accelerator clusters (§4.3), all or none.
    pub(crate) fn allocate_accel(
        &mut self,
        nf: NfId,
        request: &[(AccelKind, usize)],
    ) -> Result<Vec<AccelClusterId>, SnicError> {
        let got = request
            .iter()
            .try_fold(Vec::new(), |mut accel, &(kind, count)| {
                let pool = self.pools.iter_mut().find(|p| p.kind() == kind);
                let pool = pool.ok_or_else(|| {
                    SnicError::InvalidConfig(format!("device has no {kind:?} accelerator pool"))
                })?;
                accel.append(&mut pool.allocate(nf, count)?);
                Ok(accel)
            });
        if got.is_err() {
            self.release(nf, &[]);
        }
        got
    }

    /// Bind `cores` to `nf` with their locked TLBs (empty on a commodity
    /// NIC) and, given a host window, a DMA bank per core whose NIC side
    /// is the function's region.
    pub(crate) fn bind(
        &mut self,
        nf: NfId,
        cores: &[CoreId],
        tlbs: Vec<Tlb>,
        windows: Option<(DmaWindow, DmaWindow)>,
        sink: &Arc<dyn TelemetrySink>,
    ) {
        let mut tlbs = tlbs.into_iter();
        for &c in cores {
            let core = &mut self.cores[usize::from(c.0)];
            core.owner = Some(nf);
            if let Some(tlb) = tlbs.next() {
                core.tlb = Some(tlb);
            }
            if let Some((nic, host)) = windows {
                let mut bank = DmaBank::new(nf, nic, host);
                bank.set_sink(Arc::clone(sink));
                core.dma = Some(bank);
            }
        }
    }

    /// Release every compute binding `nf` holds: its `cores` (TLBs reset,
    /// DMA banks removed), its clusters and its bus accounting.
    pub(crate) fn release(&mut self, nf: NfId, cores: &[CoreId]) {
        for &c in cores {
            let core = &mut self.cores[usize::from(c.0)];
            core.owner = None;
            core.dma = None;
            if let Some(tlb) = &mut core.tlb {
                tlb.reset();
            }
        }
        for pool in &mut self.pools {
            pool.release_owner(nf);
        }
        self.bus_ops.remove(&nf);
    }

    /// `core`'s slot, if `core` is bound to `nf`.
    fn bound(&self, nf: NfId, core: CoreId) -> Result<&Core, SnicError> {
        self.cores
            .get(usize::from(core.0))
            .filter(|c| c.owner == Some(nf))
            .ok_or_else(|| SnicError::InvalidConfig(format!("{core} not bound to {nf}")))
    }

    /// The locked TLB of `core`, which must be bound to `nf`.
    pub(crate) fn tlb(&self, nf: NfId, core: CoreId) -> Result<&Tlb, SnicError> {
        let tlb = self.bound(nf, core)?.tlb.as_ref();
        tlb.ok_or_else(|| SnicError::InvalidConfig("core has no TLB (commodity mode)".into()))
    }

    /// The DMA bank of `core`, which must be bound to `nf`.
    pub(crate) fn dma_bank(&self, nf: NfId, core: CoreId) -> Result<&DmaBank, SnicError> {
        let bank = self.bound(nf, core)?.dma.as_ref();
        bank.ok_or_else(|| SnicError::InvalidConfig("no DMA bank configured".into()))
    }

    /// Each core's owner, in `CoreId` order.
    pub(crate) fn owners(&self) -> impl Iterator<Item = Option<NfId>> + '_ {
        self.cores.iter().map(|c| c.owner)
    }

    pub(crate) fn dma_banks(&self) -> usize {
        self.cores.iter().filter(|c| c.dma.is_some()).count()
    }

    /// Healthy, unallocated clusters per accelerator family.
    pub(crate) fn accel_available(&self) -> Vec<(AccelKind, usize)> {
        self.pools
            .iter()
            .map(|p| (p.kind(), p.available()))
            .collect()
    }

    /// Poison `clusters` after a cluster-fatal fault (§4.3).
    pub(crate) fn fault_clusters(&mut self, clusters: &[AccelClusterId]) {
        for c in clusters {
            if let Some(pool) = self.pools.iter_mut().find(|p| p.kind() == c.kind) {
                pool.fault(c.index);
            }
        }
    }

    /// Power-cycle repair of every poisoned cluster.
    pub(crate) fn repair(&mut self) {
        for pool in &mut self.pools {
            pool.repair_all();
        }
    }

    /// Add `ops` to `nf`'s bus-operation total; returns the new total.
    pub(crate) fn add_bus_ops(&mut self, nf: NfId, ops: u64) -> u64 {
        let total = self.bus_ops.entry(nf).or_default();
        *total = total.saturating_add(ops);
        *total
    }

    /// §4.1/§4.2/§4.5: a core holding a TLB or DMA bank is bound, a
    /// bank serves its own core for that core's owner, and a function
    /// with bus accounting holds a core.
    pub(crate) fn check(&self) -> Result<(), Invariant> {
        for (i, core) in self.cores.iter().enumerate() {
            let busy = core
                .tlb
                .as_ref()
                .is_some_and(|t| !t.is_empty() || t.is_locked());
            ensure(
                core.owner.is_some() || !busy && core.dma.is_none(),
                "§4.1",
                || format!("core {i} is unbound but holds a TLB or DMA bank"),
            )?;
            if let Some(bank) = &core.dma {
                ensure(Some(bank.owner()) == core.owner, "§4.2", || {
                    format!("core {i}'s DMA bank serves {}", bank.owner())
                })?;
            }
        }
        let stray = self
            .bus_ops
            .keys()
            .find(|&&nf| !self.cores.iter().any(|c| c.owner == Some(nf)));
        ensure(stray.is_none(), "§4.5", || {
            format!("bus accounting for {stray:?}, which holds no core")
        })
    }
}

/// The locked per-core TLBs an S-NIC launch installs, mapping the
/// region from virtual address 0; none on a commodity NIC. Built before
/// anything is committed, so a (planner-bug) capacity overflow refuses
/// the launch cleanly.
pub(crate) fn build_tlbs(
    config: &NicConfig,
    cores: &[CoreId],
    base: u64,
    plan: &RegionPlan,
) -> Result<Vec<Tlb>, SnicError> {
    if config.mode == NicMode::Commodity {
        return Ok(Vec::new());
    }
    let mut tlbs = Vec::with_capacity(cores.len());
    for &c in cores {
        let mut tlb = Tlb::new(c, config.core_tlb_entries);
        let (mut va, mut pa) = (0u64, base);
        for &(page_size, count) in &plan.pages {
            for _ in 0..count {
                tlb.install(PageMapping {
                    va,
                    pa,
                    page_size,
                    writable: true,
                })?;
                va += page_size;
                pa += page_size;
            }
        }
        tlb.lock();
        tlbs.push(tlb);
    }
    Ok(tlbs)
}
