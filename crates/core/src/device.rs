//! The SoC smart-NIC device model.
//!
//! One [`SmartNic`] struct implements both personalities (§3 commodity
//! vs. §4 S-NIC); every difference is driven by [`NicMode`] so the
//! attacks crate can run identical attack code against both and assert
//! opposite outcomes.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use rand::SeedableRng;
use snic_crypto::keys::{AttestationKey, EndorsementKey, VendorCa};
use snic_crypto::sha256::Sha256;
use snic_faults::{FaultEventKind, FaultInjector, FaultKind, FaultPlan, FaultRecord, FaultSite};
use snic_mem::guard::{AccessRecord, MemoryGuard, Principal};
use snic_mem::ownership::PageOwnership;
use snic_mem::pagetable::PageMapping;
use snic_mem::phys::PhysMem;
use snic_mem::planner::{plan_region, RegionPlan};
use snic_mem::tlb::Tlb;
use snic_pktio::dma::{DmaBank, DmaDirection, DmaWindow};
use snic_pktio::port::PortBuffers;
use snic_pktio::rules::RuleTable;
use snic_pktio::vpp::VppBufferSpec;
use snic_telemetry::{metrics, NullSink, TelemetrySink};
use snic_types::{
    AccelClusterId, AccelKind, ByteSize, CoreId, IsolationError, NfId, NfState, Packet, Picos,
    SnicError, TransientResource,
};
use snic_verify::{
    analyze_launch, verify_denylist_coverage, verify_manifests, verify_tlb_state, DeviceSpec,
    VerificationReport, VnicManifest,
};

use crate::alloc::{BufferAllocator, META_BASE, META_SLOT, POOL_BASE};
use crate::cluster::ClusterPool;
use crate::config::{NicConfig, NicMode};
use crate::instr::{
    scrub_time, sha_digest_time, LaunchLatency, LaunchReceipt, LaunchRequest, TeardownLatency,
    TeardownReceipt, ALLOWLISTING, DENYLISTING, TLB_SETUP,
};

/// Physical base of the region pool used for S-NIC private regions.
const REGION_BASE: u64 = 0x0800_0000;

/// Teardown zeroization proceeds in chunks of this size; the scrub
/// watermark (and any injected power loss) has chunk granularity.
const SCRUB_CHUNK: u64 = 256 * 1024;

/// Crash-consistent record of an interrupted teardown scrub (§4.6).
///
/// When power is lost mid-scrub the ticket — not the region — survives:
/// the region stays denylisted and off the free list until
/// [`SmartNic::resume_scrubs`] finishes zeroizing from `watermark`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubTicket {
    /// The torn-down function the region belonged to.
    pub nf: NfId,
    /// Region base.
    pub base: u64,
    /// Region length.
    pub len: u64,
    /// Bytes already zeroized (scrub resumes here).
    pub watermark: u64,
}

/// A comparable snapshot of every allocatable resource the device
/// tracks. Launch-rollback and power-cycle regression tests snapshot
/// before an operation and assert equality after a failed one: any
/// field drift is a leak.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceSnapshot {
    /// Free-region list (sorted, coalesced).
    pub free_regions: Vec<(u64, u64)>,
    /// Bump pointer for fresh regions.
    pub next_region: u64,
    /// Per-core owner map.
    pub core_owner: Vec<Option<NfId>>,
    /// Healthy, unallocated clusters per accelerator family.
    pub accel_available: Vec<(AccelKind, usize)>,
    /// RX buffer bytes reserved.
    pub rx_reserved: u64,
    /// TX buffer bytes reserved.
    pub tx_reserved: u64,
    /// Denylist intervals `(base, len, owner)`.
    pub denylist: Vec<(u64, u64, NfId)>,
    /// Page-ownership ranges `(base, len, owner)`.
    pub owned: Vec<(u64, u64, NfId)>,
    /// Pending interrupted scrubs.
    pub pending_scrubs: Vec<ScrubTicket>,
    /// Live function count.
    pub live_nfs: usize,
    /// Cores with an installed DMA bank.
    pub dma_banks: usize,
}

/// Bookkeeping for one launched function.
#[derive(Debug)]
pub struct NfRecord {
    /// Bound cores.
    pub cores: Vec<CoreId>,
    /// Private physical region `(base, len)`.
    pub region: (u64, u64),
    /// Where the initial image landed (inside the region under S-NIC; in
    /// the shared pool on a commodity NIC).
    pub image_base: u64,
    /// Launch measurement (§4.6 cumulative hash).
    pub measurement: [u8; 32],
    /// Digest of the Pass 0 analysis certificate; all-zero when the
    /// function launched without a dataflow-IR submission. Bound into
    /// `nf_attest` quotes so a relying party can demand the proof.
    pub analysis_digest: [u8; 32],
    /// Bound accelerator clusters.
    pub accel: Vec<AccelClusterId>,
    /// Requested memory.
    pub memory: ByteSize,
    /// Host-sanctioned DMA window, if any.
    pub host_window: Option<(u64, u64)>,
    /// The function's VPP buffer reservation.
    pub vpp: VppBufferSpec,
    /// TLB entries installed per core.
    pub tlb_entries: u64,
    /// Lifecycle state (`Launched → Running → Faulted → Scrubbing →
    /// Reclaimed`; data-path calls refuse non-operational states).
    pub state: NfState,
    /// RX descriptor queue: `(base, len)` of packets in DRAM.
    rx_queue: VecDeque<(u64, u32)>,
    rx_bytes: u64,
    /// Buffer-space caps from the VPP spec.
    pb_cap: u64,
    pdb_slots: u64,
    /// Next packet-slot offset within the region's packet ring (S-NIC).
    ring_next: u64,
    /// ODB descriptors in use: this function's packets still on the wire.
    tx_undrained: u64,
    /// Statistics.
    pub rx_delivered: u64,
    /// Packets dropped at the VPP.
    pub rx_dropped: u64,
    /// Packets sent.
    pub tx_sent: u64,
}

/// The device.
pub struct SmartNic {
    config: NicConfig,
    guard: MemoryGuard,
    ownership: PageOwnership,
    core_owner: Vec<Option<NfId>>,
    core_tlbs: HashMap<CoreId, Tlb>,
    pools: Vec<ClusterPool>,
    rx_port: PortBuffers,
    tx_port: PortBuffers,
    rules: RuleTable,
    launched: BTreeMap<NfId, NfRecord>,
    allocator: BufferAllocator,
    next_region: u64,
    /// Regions returned by `nf_teardown`, available for reuse: sorted,
    /// coalesced `(base, len)` pairs.
    free_regions: Vec<(u64, u64)>,
    next_nf: u64,
    bus_ops: HashMap<NfId, u64>,
    crashed: bool,
    now: Picos,
    ek: EndorsementKey,
    ak: AttestationKey,
    /// Transmitted packets not yet drained, each tagged with its sender:
    /// a function's entries are the descriptors its ODB holds (§4.4).
    tx_wire: VecDeque<(NfId, Packet)>,
    /// Host RAM model, target of the multi-bank DMA controller (§4.2).
    host_mem: PhysMem,
    dma_banks: HashMap<CoreId, DmaBank>,
    /// Deterministic fault injector + lifecycle transcript recorder.
    injector: FaultInjector,
    /// Interrupted teardown scrubs awaiting resumption (sorted by base).
    pending_scrubs: Vec<ScrubTicket>,
    /// Observability sink shared with ports, pools and DMA banks.
    /// Defaults to [`NullSink`]; every use is behind `enabled()`.
    telemetry: Arc<dyn TelemetrySink>,
}

impl SmartNic {
    /// Build a device; the vendor CA certifies its endorsement key at
    /// "manufacture" time (Appendix A).
    pub fn new(config: NicConfig, vendor: &VendorCa) -> SmartNic {
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let ek = EndorsementKey::manufacture(&mut rng, vendor);
        let ak = AttestationKey::generate(&mut rng, &ek);
        let enforcing = config.mode == NicMode::Snic;
        let pools = AccelKind::ALL
            .iter()
            .map(|&k| ClusterPool::new(k, config.accel_clusters, config.threads_per_cluster))
            .collect();
        SmartNic {
            guard: MemoryGuard::new(config.dram, enforcing),
            ownership: PageOwnership::new(),
            core_owner: vec![None; usize::from(config.cores)],
            core_tlbs: HashMap::new(),
            pools,
            rx_port: PortBuffers::new(config.rx_buffer),
            tx_port: PortBuffers::new(config.tx_buffer),
            rules: RuleTable::new(),
            launched: BTreeMap::new(),
            allocator: BufferAllocator::new(ByteSize::mib(64).min(config.dram)),
            next_region: REGION_BASE,
            free_regions: Vec::new(),
            next_nf: 1,
            bus_ops: HashMap::new(),
            crashed: false,
            now: Picos::ZERO,
            ek,
            ak,
            config,
            tx_wire: VecDeque::new(),
            host_mem: PhysMem::new(ByteSize::gib(1)),
            dma_banks: HashMap::new(),
            injector: FaultInjector::disarmed(),
            pending_scrubs: Vec::new(),
            telemetry: Arc::new(NullSink),
        }
    }

    /// Attach a telemetry sink to the device and to every component it
    /// owns (ports, accelerator pools, DMA banks). Telemetry is purely
    /// observational: with or without a sink the device's behaviour,
    /// receipts and transcripts are byte-identical.
    pub fn set_telemetry(&mut self, sink: Arc<dyn TelemetrySink>) {
        self.telemetry = Arc::clone(&sink);
        self.rx_port.set_sink(Arc::clone(&sink));
        self.tx_port.set_sink(Arc::clone(&sink));
        for pool in &mut self.pools {
            pool.set_sink(Arc::clone(&sink));
        }
        for bank in self.dma_banks.values_mut() {
            bank.set_sink(Arc::clone(&sink));
        }
    }

    /// The attached telemetry sink ([`NullSink`] by default).
    pub fn telemetry(&self) -> Arc<dyn TelemetrySink> {
        Arc::clone(&self.telemetry)
    }

    // ------------------------------------------------------------------
    // Fault injection & lifecycle observation
    // ------------------------------------------------------------------

    /// Arm the device with a deterministic fault plan. Replaces any
    /// previous injector but preserves nothing: counters and transcript
    /// start fresh.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.injector = FaultInjector::new(plan);
    }

    /// Arm additional fault rules *mid-stream*, preserving the
    /// transcript and per-site counters accumulated so far. The
    /// resident daemon's `inject-fault` verb uses this: replacing the
    /// injector with [`SmartNic::inject_faults`] would erase lifecycle
    /// history that Pass 3/Pass 4 lint and the restart differential
    /// replays.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.injector.arm(plan);
    }

    /// How many events the injector has observed at `site` — the base
    /// for arming "k-th event from now" triggers mid-stream.
    pub fn fault_site_count(&self, site: FaultSite) -> u64 {
        self.injector.count(site)
    }

    /// The fault/lifecycle transcript so far.
    pub fn fault_log(&self) -> &[FaultRecord] {
        self.injector.log()
    }

    /// Drain the transcript (the armed plan and counters stay).
    pub fn take_fault_log(&mut self) -> Vec<FaultRecord> {
        self.injector.take_log()
    }

    /// Consult the injector at `site` on behalf of a management caller
    /// (the NIC OS and harnesses use this for sites the device itself
    /// does not instrument).
    pub fn fault_check(&mut self, site: FaultSite, nf: Option<NfId>) -> Option<FaultKind> {
        self.injector.check(site, self.now, nf)
    }

    /// Append an externally observed event to the transcript so device
    /// and harness events share one total order.
    pub fn fault_note(&mut self, nf: Option<NfId>, kind: FaultEventKind) {
        self.injector.note(self.now, nf, kind);
    }

    /// Lifecycle state of a live NF.
    pub fn state_of(&self, nf: NfId) -> Result<NfState, SnicError> {
        Ok(self.launched.get(&nf).ok_or(SnicError::NoSuchNf(nf))?.state)
    }

    /// Interrupted teardown scrubs awaiting [`SmartNic::resume_scrubs`].
    pub fn pending_scrubs(&self) -> &[ScrubTicket] {
        &self.pending_scrubs
    }

    /// The free-region list (sorted, coalesced) — exposed for the
    /// allocator-invariant property tests.
    pub fn free_regions(&self) -> &[(u64, u64)] {
        &self.free_regions
    }

    /// Record a lifecycle transition for a *live* NF and log it.
    fn transition(&mut self, nf: NfId, to: NfState) {
        if let Some(record) = self.launched.get_mut(&nf) {
            let from = record.state;
            debug_assert!(from.can_transition(to), "illegal {from} -> {to}");
            record.state = to;
            self.injector
                .note(self.now, Some(nf), FaultEventKind::Transition { from, to });
        }
    }

    /// Comparable snapshot of every allocatable resource (leak tests).
    pub fn resource_snapshot(&self) -> ResourceSnapshot {
        ResourceSnapshot {
            free_regions: self.free_regions.clone(),
            next_region: self.next_region,
            core_owner: self.core_owner.clone(),
            accel_available: self
                .pools
                .iter()
                .map(|p| (p.kind(), p.available()))
                .collect(),
            rx_reserved: self.rx_port.reserved().bytes(),
            tx_reserved: self.tx_port.reserved().bytes(),
            denylist: self.guard.denylist().intervals().to_vec(),
            owned: self.ownership.owned_ranges(),
            pending_scrubs: self.pending_scrubs.clone(),
            live_nfs: self.launched.len(),
            dma_banks: self.dma_banks.len(),
        }
    }

    /// The device mode.
    pub fn mode(&self) -> NicMode {
        self.config.mode
    }

    /// Device configuration.
    pub fn config(&self) -> &NicConfig {
        &self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> Picos {
        self.now
    }

    /// Advance simulated time, returning the new time; `None`, with the
    /// clock left where it was, if the u64-picosecond clock cannot hold
    /// it.
    #[must_use = "a clock at its end does not advance"]
    pub fn advance(&mut self, dt: Picos) -> Option<Picos> {
        self.now = Picos(self.now.0.checked_add(dt.0)?);
        Some(self.now)
    }

    /// True after a bus-DoS hard crash (§3.3's Agilio attack).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Power-cycle the NIC: clears the crash flag and all NF state
    /// (everything is lost, as the paper's attack required).
    ///
    /// Reclamation is *forced*: if an NF's orderly teardown fails
    /// partway (e.g. power is lost again mid-scrub), its cores, ports,
    /// clusters and ownership are reclaimed anyway — but its region is
    /// routed through the pending-scrub queue, never handed out dirty.
    /// The cycle also repairs faulted accelerator clusters and resumes
    /// any interrupted scrubs. If a scrub is interrupted *again* during
    /// the cycle, the device comes back crashed with the remaining
    /// tickets still pending; another cycle finishes the job.
    pub fn power_cycle(&mut self) {
        if self.telemetry.enabled() {
            self.telemetry.instant(0, "device.power_cycle", self.now.0);
        }
        let ids: Vec<NfId> = self.launched.keys().copied().collect();
        self.restore_power();
        for id in ids {
            if self.nf_teardown(id).is_err() {
                self.force_reclaim(id);
            }
        }
        self.bus_ops.clear();
        for pool in &mut self.pools {
            pool.repair_all();
        }
        self.resume_scrubs();
    }

    /// Restore power after a loss WITHOUT resuming interrupted scrubs —
    /// a boot where the background scrub janitor has not run yet.
    /// Admission control refuses pending regions in the meantime
    /// ([`SnicError::ScrubPending`]); [`SmartNic::resume_scrubs`] or a
    /// full [`SmartNic::power_cycle`] drains them.
    pub fn restore_power(&mut self) {
        self.crashed = false;
        self.injector
            .note(self.now, None, FaultEventKind::PowerRestored);
    }

    /// Reclaim every resource bound to `nf` without running (or after a
    /// failed) orderly teardown. Volatile bindings are simply dropped;
    /// the DRAM region is queued for scrubbing under S-NIC so it cannot
    /// be reused before zeroization.
    fn force_reclaim(&mut self, nf: NfId) {
        if let Some(record) = self.launched.remove(&nf) {
            self.release_bindings(nf, &record.cores);
            let _ = self.release_buffers(&record);
            let (base, len) = record.region;
            if self.config.mode == NicMode::Snic {
                self.pending_scrubs.push(ScrubTicket {
                    nf,
                    base,
                    len,
                    watermark: 0,
                });
                self.pending_scrubs.sort_unstable_by_key(|t| t.base);
            } else {
                self.free_region(base, len);
            }
        }
    }

    /// Release every volatile binding `nf` holds: its `cores` with
    /// their DMA banks and TLBs, page ownership, accelerator clusters,
    /// VPP buffers, switch rules and bus accounting. Each release is a
    /// no-op for an id that claimed nothing, so this is also the undo
    /// of a launch that failed partway through admission. The DRAM
    /// region is the caller's to scrub, queue or restore.
    fn release_bindings(&mut self, nf: NfId, cores: &[CoreId]) {
        for &c in cores {
            self.core_owner[usize::from(c.0)] = None;
            self.dma_banks.remove(&c);
            if let Some(tlb) = self.core_tlbs.get_mut(&c) {
                tlb.reset();
            }
        }
        self.ownership.release_owner(nf);
        for pool in &mut self.pools {
            pool.release_owner(nf);
        }
        let _ = self.rx_port.release_owner(nf);
        let _ = self.tx_port.release_owner(nf);
        self.rules.remove_target(nf);
        self.bus_ops.remove(&nf);
    }

    /// Return a departing function's shared-pool buffers — its queued
    /// packets and its image — to the commodity allocator. Under S-NIC
    /// both live in the function's own region, so nothing is freed.
    fn release_buffers(&mut self, record: &NfRecord) -> Result<(), SnicError> {
        for &(base, _) in &record.rx_queue {
            self.allocator.free(&mut self.guard, base)?;
        }
        self.allocator.free(&mut self.guard, record.image_base)
    }

    /// Resume every interrupted teardown scrub from its watermark;
    /// completed regions are allowlisted and returned to the free list.
    /// Returns how many tickets completed. Stops early (leaving the
    /// rest pending) if power is lost again mid-scrub.
    pub fn resume_scrubs(&mut self) -> usize {
        let mut done = 0;
        while let Some(ticket) = self.pending_scrubs.first().copied() {
            self.pending_scrubs.remove(0);
            self.injector.note(
                self.now,
                Some(ticket.nf),
                FaultEventKind::Transition {
                    from: NfState::Scrubbing,
                    to: NfState::Scrubbing,
                },
            );
            match self.scrub_region(ticket.nf, ticket.base, ticket.len, ticket.watermark) {
                Ok(t) => {
                    self.now += t;
                    self.guard.denylist_mut().allow_owner(ticket.nf);
                    self.free_region(ticket.base, ticket.len);
                    self.injector.note(
                        self.now,
                        Some(ticket.nf),
                        FaultEventKind::Transition {
                            from: NfState::Scrubbing,
                            to: NfState::Reclaimed,
                        },
                    );
                    done += 1;
                }
                Err(_) => break,
            }
        }
        done
    }

    /// The EK certificate chain root material, for verifiers.
    pub fn ek_certificate(&self) -> &snic_crypto::keys::Certificate {
        &self.ek.certificate
    }

    /// The per-boot AK endorsement.
    pub fn ak_endorsement(&self) -> &snic_crypto::keys::Certificate {
        &self.ak.endorsement
    }

    /// Read-only view of the mediated memory (for attack code that scans
    /// structures via a principal's access rights).
    pub fn guard_ref(&self) -> &MemoryGuard {
        &self.guard
    }

    // ------------------------------------------------------------------
    // Static verification (snic-verify)
    // ------------------------------------------------------------------

    /// The device inventory as the static verifier sees it.
    pub fn device_spec(&self) -> DeviceSpec {
        DeviceSpec {
            mode: self.config.mode,
            dram: self.config.dram.bytes(),
            nf_region_base: REGION_BASE,
            nic_os: vec![
                (META_BASE, crate::alloc::META_SLOTS * META_SLOT),
                (POOL_BASE, ByteSize::mib(64).min(self.config.dram).bytes()),
            ],
            cores: self.config.cores,
            core_tlb_entries: self.config.core_tlb_entries,
            accel: AccelKind::ALL
                .iter()
                .map(|&k| (k, self.config.accel_clusters))
                .collect(),
            rx_capacity: self.config.rx_buffer.bytes(),
            tx_capacity: self.config.tx_buffer.bytes(),
        }
    }

    /// The manifests of every live function.
    pub fn live_manifests(&self) -> Vec<VnicManifest> {
        self.launched
            .iter()
            .map(|(&id, r)| manifest_of(id, r))
            .collect()
    }

    /// Pass 1 over a candidate launch: the live manifests plus the one
    /// the request would create.
    fn verify_launch(
        &self,
        nf: NfId,
        req: &LaunchRequest,
        base: u64,
        region_len: u64,
        tlb_entries: usize,
    ) -> VerificationReport {
        let mut manifests = self.live_manifests();
        manifests.push(VnicManifest {
            nf,
            cores: req.cores.clone(),
            region: (base, region_len),
            host_window: req.host_window,
            tlb_entries,
            accel: req.accel.clone(),
            vpp: req.vpp,
            bus_slice: None,
        });
        verify_manifests(&self.device_spec(), &manifests)
    }

    /// Re-verify the *live* device: Pass 1 over the current manifests,
    /// plus the §4.2 state checks (denylist covers the ownership map,
    /// per-core TLBs locked and confined). `nf_attest` embeds this
    /// report's verdict in its signed statement.
    pub fn verify_state(&self) -> VerificationReport {
        let spec = self.device_spec();
        let manifests = self.live_manifests();
        let mut report = verify_manifests(&spec, &manifests);
        report.violations.extend(verify_denylist_coverage(
            spec.mode,
            &self.ownership.owned_ranges(),
            self.guard.denylist(),
        ));
        for m in &manifests {
            let tlbs: Vec<&Tlb> = m
                .cores
                .iter()
                .filter_map(|c| self.core_tlbs.get(c))
                .collect();
            report
                .violations
                .extend(verify_tlb_state(spec.mode, m, &tlbs));
        }
        report
    }

    /// Begin recording every mediated physical access (Pass 2 input).
    pub fn start_audit(&mut self) {
        self.guard.start_audit();
    }

    /// Drain the recorded access trace; recording stays enabled.
    pub fn take_audit(&mut self) -> Vec<AccessRecord> {
        self.guard.take_audit()
    }

    /// The current security domains as `(base, len, owner)` ranges: every
    /// NF-owned region plus every live shared-pool buffer (commodity
    /// packet and image buffers are owned too, even though they sit
    /// outside the ownership bitmap). This is the domain map the trace
    /// linter checks memory references against.
    pub fn security_domains(&self) -> Vec<(u64, u64, NfId)> {
        let mut out = self.ownership.owned_ranges();
        let slots = (0..self.allocator.slots()).map_while(|slot| {
            BufferAllocator::read_slot(&self.guard, Principal::TrustedHardware, slot).ok()
        });
        out.extend(
            slots
                .filter(|m| m.in_use() && m.len > 0)
                .map(|m| (m.base, m.len, m.owner)),
        );
        out
    }

    /// The commodity NIC hard-crashes (a wedged shared accelerator or
    /// bus): the fault log records it, and every call fails until a
    /// power cycle. Returns the error the crashing call reports.
    fn hard_crash(&mut self) -> SnicError {
        self.injector
            .note(self.now, None, FaultEventKind::DeviceCrashed);
        self.crashed = true;
        SnicError::NicCrashed
    }

    fn fail_if_crashed(&self) -> Result<(), SnicError> {
        if self.crashed {
            Err(SnicError::NicCrashed)
        } else {
            Ok(())
        }
    }

    /// The launch measurement of a live NF.
    pub fn measurement_of(&self, nf: NfId) -> Result<[u8; 32], SnicError> {
        Ok(self
            .launched
            .get(&nf)
            .ok_or(SnicError::NoSuchNf(nf))?
            .measurement)
    }

    /// Record of a live NF.
    pub fn record_of(&self, nf: NfId) -> Result<&NfRecord, SnicError> {
        self.launched.get(&nf).ok_or(SnicError::NoSuchNf(nf))
    }

    /// Live NF count.
    pub fn live_nfs(&self) -> usize {
        self.launched.len()
    }

    /// Ids of every live NF, in ascending order (the durable truth a
    /// restarted NIC OS rebuilds its managed list from).
    pub fn live_nf_ids(&self) -> Vec<NfId> {
        self.launched.keys().copied().collect()
    }

    // ------------------------------------------------------------------
    // nf_launch (§4.1–§4.5)
    // ------------------------------------------------------------------

    /// The `nf_launch` trusted instruction.
    pub fn nf_launch(&mut self, req: LaunchRequest) -> Result<LaunchReceipt, SnicError> {
        let t0 = self.now.0;
        let result = self.nf_launch_inner(req);
        if self.telemetry.enabled() {
            match &result {
                Ok(receipt) => {
                    let nf = receipt.nf_id.0;
                    self.telemetry.counter_add(0, metrics::LAUNCHES, 1);
                    self.telemetry.span_begin(nf, "nf.launch", t0);
                    self.telemetry.span_end(nf, "nf.launch", self.now.0);
                    // Launch materialized fresh DMA banks; share the
                    // sink with them.
                    for bank in self.dma_banks.values_mut() {
                        bank.set_sink(Arc::clone(&self.telemetry));
                    }
                }
                Err(_) => self.telemetry.instant(0, "nf.launch_rejected", t0),
            }
        }
        result
    }

    fn nf_launch_inner(&mut self, mut req: LaunchRequest) -> Result<LaunchReceipt, SnicError> {
        self.fail_if_crashed()?;
        // Injected admission faults (all transient except power loss):
        // the orchestrator is expected to retry these with backoff.
        match self.injector.check(FaultSite::Launch, self.now, None) {
            Some(FaultKind::DramExhaustion) => {
                return Err(SnicError::Transient(TransientResource::Dram));
            }
            Some(FaultKind::AccelPoolExhaustion) => {
                return Err(SnicError::Transient(TransientResource::AccelPool));
            }
            Some(FaultKind::PowerLoss) => {
                self.injector
                    .note(self.now, None, FaultEventKind::PowerLost);
                self.crashed = true;
                return Err(SnicError::PowerLoss);
            }
            _ => {}
        }
        if req.cores.is_empty() {
            return Err(SnicError::InvalidConfig("nf_launch with zero cores".into()));
        }
        if req.memory.bytes() == 0 {
            return Err(SnicError::InvalidConfig(
                "nf_launch with zero memory".into(),
            ));
        }
        // Pass 0 (static program analysis): when the tenant submits a
        // dataflow IR, prove it confined to its claimed envelope before
        // *any* resource is reserved. A rejection here is trivially
        // atomic — no allocator, core, pool, or port state has been
        // touched yet — and the resulting certificate digest is bound
        // into the record so `nf_attest` can vouch for the proof.
        let analysis_digest = match &req.analysis {
            Some(submission) => {
                let outcome = analyze_launch(NfId(self.next_nf), submission);
                if !outcome.is_clean() {
                    let report = VerificationReport {
                        violations: outcome.violations,
                        manifests_checked: 1,
                    };
                    return Err(SnicError::Verification(report.to_string()));
                }
                outcome.certificate_digest()
            }
            None => [0u8; 32],
        };
        // Check the core bitmap (§4.1): all requested cores must exist
        // and be unassigned.
        for &c in &req.cores {
            let idx = usize::from(c.0);
            match self.core_owner.get(idx) {
                None => {
                    return Err(SnicError::InvalidConfig(format!("no such core {c}")));
                }
                Some(Some(_)) => return Err(SnicError::CoreBusy(c)),
                Some(None) => {}
            }
        }
        // Plan the mapping and check TLB capacity.
        let policy = req
            .page_policy
            .clone()
            .unwrap_or(self.config.page_policy.clone());
        let plan = plan_region(req.memory, &policy);
        if plan.entries() as usize > self.config.core_tlb_entries {
            return Err(SnicError::InvalidConfig(format!(
                "mapping needs {} TLB entries; core has {}",
                plan.entries(),
                self.config.core_tlb_entries
            )));
        }
        // Admission reserves as it checks, so the allocator state is
        // saved first and one rollback undoes whatever a failed
        // admission claimed — a failed launch must not leak (or even
        // fragment) region space. Merely re-freeing the region would
        // not do: it leaves fragmentation and, on hinted launches,
        // leaks.
        let nf = NfId(self.next_nf);
        let saved_free_regions = self.free_regions.clone();
        let saved_next_region = self.next_region;
        let (base, accel, new_tlbs) = match self.admit(nf, &req, &plan) {
            Ok(admitted) => admitted,
            Err(e) => {
                self.free_regions = saved_free_regions;
                self.next_region = saved_next_region;
                self.release_bindings(nf, &[]);
                return Err(e);
            }
        };
        let region_len = plan.allocated().bytes();

        // Commit point: everything below cannot fail.
        self.next_nf += 1;
        self.injector.note(
            self.now,
            Some(nf),
            FaultEventKind::RegionReused {
                base,
                len: region_len,
            },
        );
        for &c in &req.cores {
            self.core_owner[usize::from(c.0)] = Some(nf);
        }

        let mut denylist_time = Picos::ZERO;
        if self.config.mode == NicMode::Snic {
            // Denylist the region against the management core (§4.2).
            // Ownership exclusivity makes an overlap impossible here.
            self.guard.denylist_mut().deny(base, region_len, nf)?;
            denylist_time = DENYLISTING;
            // Install the locked per-core TLBs built above.
            for (c, tlb) in new_tlbs {
                self.core_tlbs.insert(c, tlb);
            }
        } else {
            // Commodity: the image lands in the shared pool with
            // discoverable allocator metadata (§3.3's attack surface).
        }

        // Copy the initial image into the function's memory.
        let image_base = if self.config.mode == NicMode::Commodity && !req.image.is_empty() {
            let (_, buf) = self
                .allocator
                .alloc(&mut self.guard, nf, req.image.len() as u64, false)
                .unwrap_or((0, base));
            buf
        } else {
            base
        };
        let hw = Principal::TrustedHardware;
        self.guard.write_phys(hw, image_base, &req.image.code)?;
        self.guard.write_phys(
            hw,
            image_base + req.image.code.len() as u64,
            &req.image.config,
        )?;

        // Cumulative measurement (§4.6): code, config, rules, topology.
        let mut h = Sha256::new();
        h.update(&req.image.code);
        h.update(&req.image.config);
        for r in &req.rules {
            h.update(format!("{r:?}").as_bytes());
        }
        for c in &req.cores {
            h.update(&c.0.to_le_bytes());
        }
        h.update(&req.memory.bytes().to_le_bytes());
        let measurement = h.finalize();

        // Install switching rules pointing at the new function.
        for rule in &mut req.rules {
            rule.target = nf;
            self.rules.install(rule.clone());
        }

        // Per-core DMA banks (§4.2): one bank per programmable core, TLB
        // windows locked to the function's region and the
        // host-sanctioned window.
        if let Some((hbase, hlen)) = req.host_window {
            for &c in &req.cores {
                let mut bank = DmaBank::new(
                    c,
                    nf,
                    DmaWindow {
                        base,
                        len: region_len,
                    },
                    DmaWindow {
                        base: hbase,
                        len: hlen,
                    },
                );
                bank.lock();
                self.dma_banks.insert(c, bank);
            }
        }

        let record = NfRecord {
            cores: req.cores.clone(),
            region: (base, region_len),
            image_base,
            measurement,
            analysis_digest,
            accel,
            memory: req.memory,
            host_window: req.host_window,
            vpp: req.vpp,
            tlb_entries: plan.entries(),
            state: NfState::Launched,
            rx_queue: VecDeque::new(),
            rx_bytes: 0,
            pb_cap: req.vpp.pb.bytes(),
            pdb_slots: req.vpp.pdb.bytes() / 32,
            ring_next: 0,
            tx_undrained: 0,
            rx_delivered: 0,
            rx_dropped: 0,
            tx_sent: 0,
        };
        self.launched.insert(nf, record);

        let latency = LaunchLatency {
            tlb_setup: TLB_SETUP,
            denylisting: denylist_time,
            sha_digest: sha_digest_time(req.memory),
        };
        self.now += latency.total();
        Ok(LaunchReceipt {
            nf_id: nf,
            measurement,
            latency,
        })
    }

    /// The fallible part of `nf_launch`: reserve the region, verify the
    /// augmented manifest set, claim ownership, clusters and VPP
    /// buffers, and build the locked TLBs. It reserves as it goes and
    /// undoes nothing — on `Err` the caller restores the allocator and
    /// releases whatever `nf` claimed.
    fn admit(
        &mut self,
        nf: NfId,
        req: &LaunchRequest,
        plan: &RegionPlan,
    ) -> Result<Admitted, SnicError> {
        // Reserve the physical region: the caller's placement hint if
        // given, else first-fit from freed regions, falling back to the
        // bump pointer.
        let region_len = plan.allocated().bytes();
        let base = match req.region_base {
            Some(hint) => hint,
            None => match self
                .free_regions
                .iter()
                .position(|&(_, len)| len >= region_len)
            {
                Some(idx) => {
                    let (b, len) = self.free_regions.remove(idx);
                    if len > region_len {
                        self.free_regions.push((b + region_len, len - region_len));
                        self.free_regions.sort_unstable();
                    }
                    b
                }
                None => {
                    let b = self.next_region.div_ceil(4096) * 4096;
                    if b + region_len > self.config.dram.bytes() {
                        // DRAM held hostage by interrupted scrubs is
                        // coming back; report that as retryable.
                        if self.pending_scrubs.is_empty() {
                            return Err(SnicError::InvalidConfig("DRAM exhausted".into()));
                        }
                        return Err(SnicError::Transient(TransientResource::Dram));
                    }
                    self.next_region = b + region_len;
                    b
                }
            },
        };
        // A region still awaiting zeroization is not reusable (§4.6),
        // no matter what placement hint the caller supplied.
        if let Some(t) = self
            .pending_scrubs
            .iter()
            .find(|t| base < t.base + t.len && t.base < base + region_len)
        {
            return Err(SnicError::ScrubPending { base: t.base });
        }
        if base.saturating_add(region_len) > self.config.dram.bytes() {
            return Err(SnicError::InvalidConfig("DRAM exhausted".into()));
        }
        if req.image.len() as u64 > region_len {
            return Err(SnicError::InvalidConfig("image larger than region".into()));
        }

        // Static verification (Pass 1 of `snic-verify`): prove the
        // augmented manifest set is still an isolation-respecting
        // partition of the device *before* any hardware state mutates.
        // The report, not just a boolean, travels in the error so the
        // operator sees every broken invariant with its paper citation.
        let report = self.verify_launch(nf, req, base, region_len, plan.entries() as usize);
        if report.concerning(nf).next().is_some() {
            return Err(SnicError::Verification(report.to_string()));
        }

        // Page-table walk: claim ownership (fails atomically on overlap).
        self.ownership.claim(base, region_len, nf)?;
        // Accelerator clusters (§4.3) — atomic per pool.
        let mut accel = Vec::new();
        for &(kind, count) in &req.accel {
            let pool = self
                .pools
                .iter_mut()
                .find(|p| p.kind() == kind)
                .ok_or_else(|| {
                    SnicError::InvalidConfig(format!("device has no {kind:?} accelerator pool"))
                })?;
            accel.append(&mut pool.allocate(nf, count)?);
        }
        // VPP buffer reservations (§4.4).
        self.rx_port.reserve(nf, req.vpp.pb)?;
        self.tx_port.reserve(nf, req.vpp.odb)?;
        // Build the locked per-core TLBs before committing anything, so a
        // (planner-bug) capacity overflow still rolls back cleanly.
        let mut new_tlbs: Vec<(CoreId, Tlb)> = Vec::new();
        if self.config.mode == NicMode::Snic {
            for &c in &req.cores {
                let mut tlb = Tlb::new(c, self.config.core_tlb_entries);
                let mut va = 0u64;
                let mut pa = base;
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
                new_tlbs.push((c, tlb));
            }
        }
        Ok((base, accel, new_tlbs))
    }

    // ------------------------------------------------------------------
    // nf_teardown (§4.6)
    // ------------------------------------------------------------------

    /// Return a region to the free list, coalescing with neighbors.
    fn free_region(&mut self, base: u64, len: u64) {
        self.free_regions.push((base, len));
        self.free_regions.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.free_regions.len());
        for &(b, l) in &self.free_regions {
            match merged.last_mut() {
                Some(&mut (pb, ref mut pl)) if pb + *pl == b => *pl += l,
                _ => merged.push((b, l)),
            }
        }
        self.free_regions = merged;
    }

    /// Zeroize `[base+start, base+len)` in [`SCRUB_CHUNK`] steps,
    /// consulting the injector before each chunk. On an injected power
    /// loss the progress watermark is pushed as a [`ScrubTicket`] (the
    /// crash-consistent §4.6 metadata), the device is marked crashed,
    /// and the region stays denylisted and off the free list.
    fn scrub_region(
        &mut self,
        nf: NfId,
        base: u64,
        len: u64,
        start: u64,
    ) -> Result<Picos, SnicError> {
        let mut watermark = start;
        while watermark < len {
            if let Some(FaultKind::PowerLoss) =
                self.injector.check(FaultSite::Scrub, self.now, Some(nf))
            {
                self.injector.note(
                    self.now,
                    Some(nf),
                    FaultEventKind::ScrubProgress {
                        base,
                        watermark,
                        len,
                    },
                );
                self.injector
                    .note(self.now, None, FaultEventKind::PowerLost);
                self.pending_scrubs.push(ScrubTicket {
                    nf,
                    base,
                    len,
                    watermark,
                });
                self.pending_scrubs.sort_unstable_by_key(|t| t.base);
                self.crashed = true;
                if self.telemetry.enabled() {
                    self.telemetry
                        .instant(nf.0, "fault.power_loss_mid_scrub", self.now.0);
                }
                return Err(SnicError::PowerLoss);
            }
            let chunk = SCRUB_CHUNK.min(len - watermark);
            self.guard.raw_mem().scrub(base + watermark, chunk);
            watermark += chunk;
        }
        self.injector.note(
            self.now,
            Some(nf),
            FaultEventKind::ScrubCompleted { base, len },
        );
        let elapsed = scrub_time(ByteSize(len - start));
        if self.telemetry.enabled() {
            self.telemetry.record(nf.0, metrics::SCRUB_PS, elapsed.0);
        }
        Ok(elapsed)
    }

    /// The `nf_teardown` trusted instruction.
    ///
    /// Volatile bindings (cores, TLBs, DMA banks, clusters, VPP buffers,
    /// switch rules) are released first; DRAM zeroization then runs
    /// chunk by chunk. If power is lost mid-scrub the call returns
    /// [`SnicError::PowerLoss`] with the region still denylisted and
    /// unavailable — [`SmartNic::resume_scrubs`] (or the next power
    /// cycle) finishes the job from the saved watermark.
    pub fn nf_teardown(&mut self, nf: NfId) -> Result<TeardownReceipt, SnicError> {
        let t0 = self.now.0;
        let result = self.nf_teardown_inner(nf);
        if self.telemetry.enabled() {
            match &result {
                Ok(_) => {
                    self.telemetry.counter_add(0, metrics::TEARDOWNS, 1);
                    self.telemetry.span_begin(nf.0, "nf.teardown", t0);
                    self.telemetry.span_end(nf.0, "nf.teardown", self.now.0);
                }
                Err(_) => self.telemetry.instant(nf.0, "nf.teardown_failed", t0),
            }
        }
        result
    }

    fn nf_teardown_inner(&mut self, nf: NfId) -> Result<TeardownReceipt, SnicError> {
        let record = self.launched.get(&nf).ok_or(SnicError::NoSuchNf(nf))?;
        let (base, len) = record.region;
        let from = record.state;
        self.injector.note(
            self.now,
            Some(nf),
            FaultEventKind::TeardownStarted { base, len },
        );
        self.injector.note(
            self.now,
            Some(nf),
            FaultEventKind::Transition {
                from,
                to: NfState::Scrubbing,
            },
        );
        let record = self.launched.remove(&nf).expect("checked above");
        self.release_bindings(nf, &record.cores);
        self.release_buffers(&record)?;
        let mut scrub = Picos::ZERO;
        let mut allowlist = Picos::ZERO;
        if self.config.mode == NicMode::Snic {
            // Zero the function's pages before releasing them (§4.6).
            scrub = self.scrub_region(nf, base, len, 0)?;
            self.guard.denylist_mut().allow_owner(nf);
            allowlist = ALLOWLISTING;
        }
        self.free_region(base, len);
        self.injector.note(
            self.now,
            Some(nf),
            FaultEventKind::Transition {
                from: NfState::Scrubbing,
                to: NfState::Reclaimed,
            },
        );
        let latency = TeardownLatency {
            allowlisting: allowlist,
            scrub,
        };
        self.now += latency.total();
        Ok(TeardownReceipt { latency })
    }

    // ------------------------------------------------------------------
    // Packet path (§4.4)
    // ------------------------------------------------------------------

    /// The packet input module: classify and deliver one packet.
    ///
    /// Returns the receiving NF, or `None` if no rule matched (packet
    /// dropped at the switch).
    pub fn rx_packet(&mut self, pkt: &Packet) -> Result<Option<NfId>, SnicError> {
        self.fail_if_crashed()?;
        if self.telemetry.enabled() {
            self.telemetry.counter_add(0, metrics::RX_PACKETS, 1);
        }
        let Some(nf) = self.rules.classify(pkt) else {
            return Ok(None);
        };
        if !self.launched.contains_key(&nf) {
            return Ok(None);
        }
        if self.telemetry.enabled() {
            self.telemetry.counter_add(nf.0, metrics::RX_MATCHED, 1);
        }
        // Delivery can crash the receiving core (a poisoned packet).
        if let Some(FaultKind::NfCrash) = self.injector.check(FaultSite::Rx, self.now, Some(nf)) {
            self.fault_nf(nf)?;
            return Ok(Some(nf));
        }
        let record = self.launched.get_mut(&nf).expect("checked above");
        if !record.state.is_operational() {
            // A faulted NF's core is halted: the VPP drops its traffic.
            record.rx_dropped += 1;
            return Ok(Some(nf));
        }
        if record.state == NfState::Launched {
            record.state = NfState::Running;
            self.injector.note(
                self.now,
                Some(nf),
                FaultEventKind::Transition {
                    from: NfState::Launched,
                    to: NfState::Running,
                },
            );
        }
        let record = self.launched.get_mut(&nf).expect("checked above");
        let len = pkt.len() as u64;
        if record.rx_bytes + len > record.pb_cap
            || record.rx_queue.len() as u64 + 1 > record.pdb_slots
        {
            record.rx_dropped += 1;
            return Ok(Some(nf));
        }
        // Copy the packet into DRAM: commodity → shared pool with
        // metadata; S-NIC → the NF's private region (a ring at its top).
        let base = match self.config.mode {
            NicMode::Commodity => {
                let (_, base) = self.allocator.alloc(&mut self.guard, nf, len, true)?;
                base
            }
            NicMode::Snic => {
                let (rbase, rlen) = record.region;
                let ring_span = record.pb_cap.min(rlen / 2);
                let ring_base = rbase + rlen - ring_span;
                let aligned = len.div_ceil(64) * 64;
                // Frames take 64-byte-aligned slots in arrival order,
                // wrapping to the ring's start when the end cannot hold
                // the next one. A slot that would reach the oldest
                // unpolled frame is refused like a full PB: the ring
                // never laps its own backlog.
                let at = if record.ring_next + aligned > ring_span {
                    0
                } else {
                    record.ring_next
                };
                let fits = match record.rx_queue.front() {
                    None => at + aligned <= ring_span,
                    Some(&(oldest, _)) => {
                        let oldest = oldest - ring_base;
                        // Queued frames run from `oldest` to `ring_next`,
                        // across the end of the ring when it has wrapped.
                        if oldest < record.ring_next {
                            at == record.ring_next || aligned <= oldest
                        } else {
                            at == record.ring_next && at + aligned <= oldest
                        }
                    }
                };
                if !fits {
                    record.rx_dropped += 1;
                    return Ok(Some(nf));
                }
                record.ring_next = at + aligned;
                ring_base + at
            }
        };
        self.guard
            .write_phys(Principal::TrustedHardware, base, &pkt.data)?;
        let record = self.launched.get_mut(&nf).ok_or(SnicError::NoSuchNf(nf))?;
        record.rx_bytes += len;
        record.rx_queue.push_back((base, pkt.len() as u32));
        Ok(Some(nf))
    }

    /// The NF polls its next packet; bytes are read back from DRAM, so
    /// any tampering that happened while the packet sat in the buffer is
    /// visible to the function (this is how the §3.3 corruption attack
    /// bites).
    pub fn poll_packet(&mut self, nf: NfId) -> Result<Option<Packet>, SnicError> {
        self.fail_if_crashed()?;
        self.datapath_gate(nf)?;
        let record = self.launched.get_mut(&nf).ok_or(SnicError::NoSuchNf(nf))?;
        let Some((base, len)) = record.rx_queue.pop_front() else {
            return Ok(None);
        };
        record.rx_bytes -= u64::from(len);
        record.rx_delivered += 1;
        if self.telemetry.enabled() {
            self.telemetry.counter_add(nf.0, metrics::RX_POLLED, 1);
        }
        let mut buf = vec![0u8; len as usize];
        self.guard
            .read_phys(Principal::TrustedHardware, base, &mut buf)?;
        // A commodity packet buffer goes back to the shared pool (an
        // S-NIC ring slot is not the allocator's).
        self.allocator.free(&mut self.guard, base)?;
        Ok(Some(Packet::from_bytes(bytes::Bytes::from(buf))))
    }

    /// The NF hands a packet to the output module.
    ///
    /// The function's output descriptor buffer is fixed at launch: one
    /// 32-byte descriptor per undrained packet, the PDB's rule on the way
    /// out. A full ODB refuses the packet with
    /// [`SnicError::PortBufferExhausted`] — nothing is queued or counted —
    /// and the function retries once [`SmartNic::wire_pop`] has drained
    /// a slot, so a function that transmits while nothing drains cannot
    /// grow the device.
    pub fn tx_packet(&mut self, nf: NfId, pkt: Packet) -> Result<(), SnicError> {
        self.fail_if_crashed()?;
        self.datapath_gate(nf)?;
        let record = self.launched.get_mut(&nf).ok_or(SnicError::NoSuchNf(nf))?;
        if (record.tx_undrained + 1) * 32 > record.vpp.odb.bytes() {
            return Err(SnicError::PortBufferExhausted);
        }
        record.tx_undrained += 1;
        record.tx_sent += 1;
        if self.telemetry.enabled() {
            self.telemetry.counter_add(nf.0, metrics::TX_SENT, 1);
        }
        self.tx_wire.push_back((nf, pkt));
        Ok(())
    }

    /// Drain one packet from the wire side, freeing its sender's ODB
    /// slot. A sender torn down in the meantime has no ODB left to free,
    /// and ids are never reused, so its packets free nobody else's.
    pub fn wire_pop(&mut self) -> Option<Packet> {
        let (sender, pkt) = self.tx_wire.pop_front()?;
        if let Some(record) = self.launched.get_mut(&sender) {
            record.tx_undrained -= 1;
        }
        Some(pkt)
    }

    // ------------------------------------------------------------------
    // Memory access paths
    // ------------------------------------------------------------------

    /// Physical read as `who` (the commodity `xkphys` path; under S-NIC
    /// this fails for NFs and is denylist-checked for management).
    pub fn mem_read(&self, who: Principal, addr: u64, out: &mut [u8]) -> Result<(), SnicError> {
        self.fail_if_crashed()?;
        self.guard.read_phys(who, addr, out)
    }

    /// Physical write as `who`.
    pub fn mem_write(&mut self, who: Principal, addr: u64, data: &[u8]) -> Result<(), SnicError> {
        self.fail_if_crashed()?;
        self.guard.write_phys(who, addr, data)
    }

    /// Virtual read through an NF core's locked TLB (the S-NIC path).
    pub fn nf_read(
        &self,
        nf: NfId,
        core: CoreId,
        va: u64,
        out: &mut [u8],
    ) -> Result<(), SnicError> {
        self.fail_if_crashed()?;
        let record = self.launched.get(&nf).ok_or(SnicError::NoSuchNf(nf))?;
        if !record.state.is_operational() {
            return Err(SnicError::NfFaulted(nf));
        }
        if !record.cores.contains(&core) {
            return Err(SnicError::InvalidConfig(format!(
                "{core} not bound to {nf}"
            )));
        }
        let tlb = self
            .core_tlbs
            .get(&core)
            .ok_or_else(|| SnicError::InvalidConfig("core has no TLB (commodity mode)".into()))?;
        self.guard.read_virt(tlb, va, out)
    }

    /// Virtual write through an NF core's locked TLB.
    pub fn nf_write(
        &mut self,
        nf: NfId,
        core: CoreId,
        va: u64,
        data: &[u8],
    ) -> Result<(), SnicError> {
        self.fail_if_crashed()?;
        self.datapath_gate(nf)?;
        let record = self.launched.get(&nf).ok_or(SnicError::NoSuchNf(nf))?;
        if !record.cores.contains(&core) {
            return Err(SnicError::InvalidConfig(format!(
                "{core} not bound to {nf}"
            )));
        }
        let tlb =
            self.core_tlbs.get(&core).cloned().ok_or_else(|| {
                SnicError::InvalidConfig("core has no TLB (commodity mode)".into())
            })?;
        self.guard.write_virt(&tlb, va, data)
    }

    /// Common data-path admission: the NF must exist and be operational;
    /// an injected [`FaultKind::NfCrash`] at the `DataPath` site fells
    /// it here. First use promotes `Launched → Running`.
    fn datapath_gate(&mut self, nf: NfId) -> Result<(), SnicError> {
        let record = self.launched.get(&nf).ok_or(SnicError::NoSuchNf(nf))?;
        if !record.state.is_operational() {
            return Err(SnicError::NfFaulted(nf));
        }
        if let Some(FaultKind::NfCrash) =
            self.injector.check(FaultSite::DataPath, self.now, Some(nf))
        {
            self.fault_nf(nf)?;
            return Err(SnicError::NfFaulted(nf));
        }
        if self.launched[&nf].state == NfState::Launched {
            self.transition(nf, NfState::Running);
        }
        Ok(())
    }

    /// An NF core crashes: wild stores spray from the dying core, then
    /// it halts (`state → Faulted`; its region is not reclaimed until
    /// `nf_teardown`). Under S-NIC the stores bounce off the locked
    /// TLBs/denylist, so the blast radius is the NF itself. On a
    /// commodity NIC the same store lands physically (`xkphys`) in a
    /// co-located tenant's queued packet buffer — §3.3's corruption,
    /// now arising from an accident instead of an attack.
    pub fn fault_nf(&mut self, nf: NfId) -> Result<(), SnicError> {
        let record = self.launched.get(&nf).ok_or(SnicError::NoSuchNf(nf))?;
        if !record.state.is_operational() {
            return Ok(());
        }
        let core = record.cores[0];
        // The wild store aims at another live tenant's freshest queued
        // packet (or its image when no packet is in flight).
        let target = self
            .launched
            .iter()
            .filter(|(&id, r)| id != nf && r.state.is_operational())
            .map(|(_, r)| r.rx_queue.front().map(|&(b, _)| b).unwrap_or(r.image_base))
            .next();
        if let Some(addr) = target {
            // Enforcement decides containment: commodity lets this
            // through, S-NIC returns an isolation error we swallow —
            // the dying core cannot corrupt anyone.
            let _ = self
                .guard
                .write_phys(Principal::Nf(nf, core), addr, &[0xDE; 32]);
        }
        self.transition(nf, NfState::Faulted);
        Ok(())
    }

    /// Submit one accelerator request on behalf of `nf` — the §4.3
    /// fault-domain model. This models allocation and fault containment,
    /// not service time: no engine runs and nothing queues, so the
    /// returned latency is nominal and deterministic. An injected
    /// [`FaultKind::AccelClusterFault`] is cluster-fatal: under S-NIC the
    /// owner's clusters are poisoned (withheld from reallocation until a
    /// power cycle) and the owner faults; on a commodity NIC the *shared*
    /// engine wedges and the whole device hard-crashes.
    pub fn accel_submit(&mut self, nf: NfId) -> Result<Picos, SnicError> {
        self.fail_if_crashed()?;
        let record = self.launched.get(&nf).ok_or(SnicError::NoSuchNf(nf))?;
        if !record.state.is_operational() {
            return Err(SnicError::NfFaulted(nf));
        }
        if let Some(FaultKind::AccelClusterFault) =
            self.injector.check(FaultSite::Accel, self.now, Some(nf))
        {
            match self.config.mode {
                NicMode::Snic => {
                    let clusters = self.launched[&nf].accel.clone();
                    for c in clusters {
                        if let Some(pool) = self.pools.iter_mut().find(|p| p.kind() == c.kind) {
                            pool.fault(c.index);
                        }
                    }
                    self.transition(nf, NfState::Faulted);
                    return Err(SnicError::NfFaulted(nf));
                }
                NicMode::Commodity => return Err(self.hard_crash()),
            }
        }
        if self.telemetry.enabled() {
            self.telemetry.counter_add(nf.0, metrics::ACCEL_SUBMITS, 1);
        }
        Ok(Picos::nanos(1))
    }

    // ------------------------------------------------------------------
    // Bus behaviour (§3.3 DoS / §4.5 arbitration)
    // ------------------------------------------------------------------

    /// Issue `ops` back-to-back bus operations from `nf` (the Agilio
    /// `test_subsat` flood). On a commodity NIC, saturating the bus
    /// hard-crashes the device; under S-NIC the temporal arbiter bounds
    /// the NF to its own slots, so the flood only slows the attacker.
    ///
    /// Returns the simulated time the flood took.
    pub fn bus_flood(&mut self, nf: NfId, ops: u64) -> Result<Picos, SnicError> {
        self.fail_if_crashed()?;
        if !self.launched.contains_key(&nf) {
            return Err(SnicError::NoSuchNf(nf));
        }
        let total = self.bus_ops.entry(nf).or_default();
        *total = total.saturating_add(ops);
        let total = *total;
        if self.telemetry.enabled() {
            self.telemetry
                .counter_add(nf.0, metrics::BUS_FLOOD_OPS, ops);
        }
        // Bus cycles each op costs the issuer.
        let stretch = match self.config.mode {
            NicMode::Commodity => {
                if total > self.config.bus_crash_threshold {
                    return Err(self.hard_crash());
                }
                // Unarbitrated: each op takes one bus cycle.
                1
            }
            // Temporal partitioning: the NF only owns 1/N of bus time,
            // so the flood stretches by the domain count but can never
            // saturate the shared bus.
            NicMode::Snic => self.launched.len().max(1) as u64,
        };
        // `ops` is the tenant's number: a flood too long for the
        // picosecond clock is refused, not wrapped.
        ops.checked_mul(stretch)
            .and_then(|cycles| cycles.checked_mul(1_000_000))
            .map(|ps| Picos(ps / (self.config.clock_hz / 1_000_000)))
            .ok_or_else(|| {
                SnicError::InvalidConfig("bus flood outlasts the simulated clock".into())
            })
    }

    // ------------------------------------------------------------------
    // Host DMA (§4.2)
    // ------------------------------------------------------------------

    /// Host-side direct access to host RAM (the host OS writing its own
    /// memory; no NIC involvement).
    pub fn host_mem(&mut self) -> &mut PhysMem {
        &mut self.host_mem
    }

    fn dma_bank(&mut self, nf: NfId, core: CoreId) -> Result<&mut DmaBank, SnicError> {
        let record = self.launched.get(&nf).ok_or(SnicError::NoSuchNf(nf))?;
        if !record.cores.contains(&core) {
            return Err(SnicError::InvalidConfig(format!(
                "{core} not bound to {nf}"
            )));
        }
        self.dma_banks
            .get_mut(&core)
            .ok_or_else(|| SnicError::InvalidConfig("no DMA bank configured".into()))
    }

    /// Admit one DMA transfer: the function must be operational,
    /// `nic_off` — the tenant's number — must stay inside the address
    /// space, and `core`'s bank must sanction both ends. Returns the
    /// NIC-side physical address.
    fn dma_admit(
        &mut self,
        nf: NfId,
        core: CoreId,
        direction: DmaDirection,
        nic_off: u64,
        host_addr: u64,
        len: u64,
    ) -> Result<u64, SnicError> {
        self.fail_if_crashed()?;
        let record = self.launched.get(&nf).ok_or(SnicError::NoSuchNf(nf))?;
        if !record.state.is_operational() {
            return Err(SnicError::NfFaulted(nf));
        }
        let (base, _) = record.region;
        let nic_addr = base
            .checked_add(nic_off)
            .ok_or(IsolationError::DmaViolation { addr: nic_off })?;
        self.dma_fault_gate(nf, nic_addr)?;
        self.dma_bank(nf, core)?
            .validate(direction, nic_addr, host_addr, len)?;
        Ok(nic_addr)
    }

    /// DMA from the function's region (at `nic_off`) to host RAM.
    pub fn dma_to_host(
        &mut self,
        nf: NfId,
        core: CoreId,
        nic_off: u64,
        host_addr: u64,
        len: u64,
    ) -> Result<(), SnicError> {
        let nic_addr =
            self.dma_admit(nf, core, DmaDirection::NicToHost, nic_off, host_addr, len)?;
        let mut buf = vec![0u8; len as usize];
        self.guard.raw_mem().read(nic_addr, &mut buf);
        self.host_mem.write(host_addr, &buf);
        Ok(())
    }

    /// Injected bus errors on the DMA path. Under S-NIC the per-bank
    /// transaction simply aborts ([`SnicError::BusError`], contained to
    /// the one transfer); on a commodity NIC a wedged shared bus takes
    /// the whole device down (§3.3's DoS, by accident).
    fn dma_fault_gate(&mut self, nf: NfId, nic_addr: u64) -> Result<(), SnicError> {
        if let Some(FaultKind::DmaBusError) =
            self.injector.check(FaultSite::Dma, self.now, Some(nf))
        {
            match self.config.mode {
                NicMode::Snic => return Err(SnicError::BusError { addr: nic_addr }),
                NicMode::Commodity => return Err(self.hard_crash()),
            }
        }
        Ok(())
    }

    /// DMA from host RAM into the function's region (at `nic_off`).
    pub fn dma_from_host(
        &mut self,
        nf: NfId,
        core: CoreId,
        nic_off: u64,
        host_addr: u64,
        len: u64,
    ) -> Result<(), SnicError> {
        let nic_addr =
            self.dma_admit(nf, core, DmaDirection::HostToNic, nic_off, host_addr, len)?;
        let mut buf = vec![0u8; len as usize];
        self.host_mem.read(host_addr, &mut buf);
        self.guard.raw_mem().write(nic_addr, &buf);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Attestation support (Appendix A)
    // ------------------------------------------------------------------

    /// The `nf_attest` instruction: sign `Hash(initial state) ‖ verdict
    /// ‖ analysis_digest ‖ context` with the AK. The context carries the
    /// verifier nonce and DH transcript; the analysis digest is the
    /// Pass 0 certificate (all-zero when the function launched without
    /// one). Protocol logic lives in [`crate::attest`].
    pub fn nf_attest(
        &mut self,
        nf: NfId,
        context: &[u8],
    ) -> Result<crate::attest::SignedStatement, SnicError> {
        self.fail_if_crashed()?;
        // The quote embeds the live verifier verdict: a relying party
        // learns not just *what* launched but that the device's current
        // allocation still verifies as an isolation-respecting partition.
        let verdict = self.verify_state().is_ok();
        let record = self.launched.get(&nf).ok_or(SnicError::NoSuchNf(nf))?;
        let mut statement = Vec::with_capacity(65 + context.len());
        statement.extend_from_slice(&record.measurement);
        statement.push(u8::from(verdict));
        statement.extend_from_slice(&record.analysis_digest);
        statement.extend_from_slice(context);
        let signature = self.ak.sign(&statement);
        self.now += crate::instr::ATTEST_RSA + crate::instr::ATTEST_SHA;
        if self.telemetry.enabled() {
            self.telemetry.counter_add(nf.0, metrics::ATTESTS, 1);
        }
        Ok(crate::attest::SignedStatement {
            measurement: record.measurement,
            verdict,
            analysis_digest: record.analysis_digest,
            signature,
            ak_endorsement: self.ak.endorsement.clone(),
            ek_certificate: self.ek.certificate.clone(),
        })
    }
}

/// A live function's record, rendered as the manifest the verifier
/// checks.
/// What [`SmartNic::admit`] reserved: the region base, the accelerator
/// clusters, and the locked per-core TLBs ready to install (S-NIC mode
/// only).
type Admitted = (u64, Vec<AccelClusterId>, Vec<(CoreId, Tlb)>);

fn manifest_of(nf: NfId, r: &NfRecord) -> VnicManifest {
    let mut accel: Vec<(AccelKind, usize)> = Vec::new();
    for c in &r.accel {
        match accel.iter_mut().find(|(k, _)| *k == c.kind) {
            Some((_, n)) => *n += 1,
            None => accel.push((c.kind, 1)),
        }
    }
    VnicManifest {
        nf,
        cores: r.cores.clone(),
        region: r.region,
        host_window: r.host_window,
        tlb_entries: r.tlb_entries as usize,
        accel,
        vpp: r.vpp,
        bus_slice: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::NfImage;
    use proptest::prelude::*;
    use snic_pktio::rules::SwitchRule;
    use snic_pktio::vpp::VppBufferSpec;
    use snic_types::packet::PacketBuilder;
    use snic_types::Protocol;

    impl SmartNic {
        /// Clusters bound to `nf` for `kind`.
        fn clusters_of(&self, nf: NfId, kind: AccelKind) -> Vec<AccelClusterId> {
            self.launched
                .get(&nf)
                .map(|r| r.accel.iter().filter(|c| c.kind == kind).copied().collect())
                .unwrap_or_default()
        }
    }

    fn vendor() -> VendorCa {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        VendorCa::new(&mut rng)
    }

    fn snic() -> SmartNic {
        SmartNic::new(NicConfig::small(NicMode::Snic), &vendor())
    }

    fn commodity() -> SmartNic {
        SmartNic::new(NicConfig::small(NicMode::Commodity), &vendor())
    }

    fn req(core: u16, mem_mib: u64) -> LaunchRequest {
        LaunchRequest::minimal(
            CoreId(core),
            ByteSize::mib(mem_mib),
            NfImage {
                code: vec![0xAA; 128],
                config: vec![0xBB; 64],
            },
        )
    }

    fn req_with_rule(core: u16, mem_mib: u64, dst_port: u16) -> LaunchRequest {
        let mut r = req(core, mem_mib);
        r.rules.push(SwitchRule {
            dst_port: snic_pktio::rules::RuleMatch::Exact(dst_port),
            priority: 5,
            ..SwitchRule::any(NfId(0))
        });
        r
    }

    fn pkt(dst_port: u16) -> Packet {
        PacketBuilder::new(1, 2, Protocol::Udp, 1000, dst_port)
            .payload(b"payload".to_vec())
            .build()
    }

    #[test]
    fn telemetry_sink_does_not_perturb_device_behaviour() {
        use snic_telemetry::Recorder;
        // The same scripted episode on two identical devices — one
        // observed, one not — must produce byte-identical receipts,
        // packets and fault transcripts.
        let run = |observed: bool| {
            let mut nic = snic();
            let recorder = Arc::new(Recorder::new());
            if observed {
                nic.set_telemetry(Arc::clone(&recorder) as Arc<dyn TelemetrySink>);
            }
            let r = nic.nf_launch(req_with_rule(0, 4, 443)).unwrap();
            let nf = r.nf_id;
            assert!(nic.rx_packet(&pkt(443)).unwrap().is_some());
            let p = nic.poll_packet(nf).unwrap().expect("queued packet");
            nic.tx_packet(nf, p.clone()).unwrap();
            let _ = nic.accel_submit(nf).unwrap();
            let _ = nic.bus_flood(nf, 100).unwrap();
            let t = nic.nf_teardown(nf).unwrap();
            (r, p, t, nic.take_fault_log(), recorder)
        };
        let (r_on, p_on, t_on, log_on, recorder) = run(true);
        let (r_off, p_off, t_off, log_off, _) = run(false);
        assert_eq!(r_on.measurement, r_off.measurement);
        assert_eq!(r_on.latency, r_off.latency);
        assert_eq!(p_on.data, p_off.data);
        assert_eq!(t_on.latency, t_off.latency);
        assert_eq!(log_on, log_off, "transcripts must be sink-independent");

        // And the observed run actually recorded the episode.
        let summary = recorder.summary();
        let nf = r_on.nf_id.0;
        assert_eq!(summary.counters[&(0, metrics::LAUNCHES.to_string())], 1);
        assert_eq!(summary.counters[&(0, metrics::TEARDOWNS.to_string())], 1);
        assert_eq!(summary.counters[&(0, metrics::RX_PACKETS.to_string())], 1);
        assert_eq!(summary.counters[&(nf, metrics::RX_POLLED.to_string())], 1);
        assert_eq!(summary.counters[&(nf, metrics::TX_SENT.to_string())], 1);
        assert_eq!(
            summary.counters[&(nf, metrics::ACCEL_SUBMITS.to_string())],
            1
        );
        assert_eq!(
            summary.counters[&(nf, metrics::BUS_FLOOD_OPS.to_string())],
            100
        );
        assert_eq!(
            summary.hists[&(nf, metrics::SCRUB_PS.to_string())].count(),
            1
        );
        assert!(
            summary.counters[&(nf, metrics::PORT_RESERVED_BYTES.to_string())] > 0,
            "port reservations flow through the shared sink"
        );
        // Span events: launch + teardown begin/end pairs at least.
        let events = recorder.events();
        assert!(events.iter().any(|e| e.name == "nf.launch"));
        assert!(events.iter().any(|e| e.name == "nf.teardown"));
    }

    #[test]
    fn launch_assigns_unique_ids_and_cores() {
        let mut nic = snic();
        let a = nic.nf_launch(req(0, 4)).unwrap();
        let b = nic.nf_launch(req(1, 4)).unwrap();
        assert_ne!(a.nf_id, b.nf_id);
        assert_eq!(nic.live_nfs(), 2);
        // Core reuse rejected.
        assert_eq!(
            nic.nf_launch(req(0, 4)).unwrap_err(),
            SnicError::CoreBusy(CoreId(0))
        );
    }

    #[test]
    fn launch_measurement_depends_on_image() {
        let mut nic = snic();
        let a = nic.nf_launch(req(0, 4)).unwrap();
        let mut other = req(1, 4);
        other.image.code[0] ^= 1;
        let b = nic.nf_launch(other).unwrap();
        assert_ne!(a.measurement, b.measurement);
    }

    #[test]
    fn launch_latency_scales_with_memory() {
        let mut nic = snic();
        let small = nic.nf_launch(req(0, 4)).unwrap();
        let big = nic.nf_launch(req(1, 64)).unwrap();
        assert!(big.latency.sha_digest.0 > 10 * small.latency.sha_digest.0);
        assert!(big.latency.total() > small.latency.total());
        assert_eq!(small.latency.tlb_setup, TLB_SETUP);
    }

    #[test]
    fn commodity_launch_skips_denylisting() {
        let mut nic = commodity();
        let r = nic.nf_launch(req(0, 4)).unwrap();
        assert_eq!(r.latency.denylisting, Picos::ZERO);
        let mut nic2 = snic();
        let r2 = nic2.nf_launch(req(0, 4)).unwrap();
        assert_eq!(r2.latency.denylisting, DENYLISTING);
    }

    #[test]
    fn snic_nf_private_memory_via_tlb() {
        let mut nic = snic();
        let id = nic.nf_launch(req(0, 4)).unwrap().nf_id;
        nic.nf_write(id, CoreId(0), 0x1000, b"flow state").unwrap();
        let mut buf = [0u8; 10];
        nic.nf_read(id, CoreId(0), 0x1000, &mut buf).unwrap();
        assert_eq!(&buf, b"flow state");
        // Out-of-range virtual access is fatal (TLB miss).
        assert!(nic.nf_read(id, CoreId(0), 64 << 20, &mut buf).is_err());
        // A core not bound to the NF cannot use its mapping.
        assert!(nic.nf_read(id, CoreId(1), 0x1000, &mut buf).is_err());
    }

    #[test]
    fn snic_blocks_cross_nf_physical_access() {
        let mut nic = snic();
        let victim = nic.nf_launch(req(0, 4)).unwrap().nf_id;
        let attacker = nic.nf_launch(req(1, 4)).unwrap().nf_id;
        nic.nf_write(victim, CoreId(0), 0, b"secret").unwrap();
        let (vbase, _) = nic.record_of(victim).unwrap().region;
        let mut buf = [0u8; 6];
        // Attacker NF: no physical addressing at all under S-NIC.
        let err = nic
            .mem_read(Principal::Nf(attacker, CoreId(1)), vbase, &mut buf)
            .unwrap_err();
        assert!(matches!(err, SnicError::Isolation(_)));
        // Management core: denylisted.
        let err = nic
            .mem_read(Principal::Management, vbase, &mut buf)
            .unwrap_err();
        assert!(matches!(err, SnicError::Isolation(_)));
    }

    #[test]
    fn commodity_allows_cross_nf_physical_access() {
        let mut nic = commodity();
        let victim = nic.nf_launch(req(0, 4)).unwrap().nf_id;
        let attacker = nic.nf_launch(req(1, 4)).unwrap().nf_id;
        let vbase = nic.record_of(victim).unwrap().image_base;
        let mut buf = [0u8; 128];
        nic.mem_read(Principal::Nf(attacker, CoreId(1)), vbase, &mut buf)
            .unwrap();
        assert_eq!(buf[0], 0xAA, "attacker read the victim's code image");
    }

    #[test]
    fn teardown_scrubs_and_releases() {
        let mut nic = snic();
        let id = nic.nf_launch(req(0, 4)).unwrap().nf_id;
        nic.nf_write(id, CoreId(0), 0x100, b"sensitive").unwrap();
        let (base, _) = nic.record_of(id).unwrap().region;
        let receipt = nic.nf_teardown(id).unwrap();
        assert!(receipt.latency.scrub > Picos::ZERO);
        // The region is zero and no longer denylisted.
        let mut buf = [0xffu8; 9];
        nic.mem_read(Principal::Management, base + 0x100, &mut buf)
            .unwrap();
        assert_eq!(buf, [0u8; 9]);
        // Core is reusable.
        assert!(nic.nf_launch(req(0, 4)).is_ok());
    }

    #[test]
    fn ownership_holds_one_range_per_live_region() {
        for mut nic in both_modes() {
            // 64 launches of mixed sizes, each tearing down the core's
            // previous tenant first: freed regions are split and reused,
            // neighbours belong to different functions.
            let mut on_core = [None; 4];
            for step in 0..64u64 {
                let core = (step % 4) as usize;
                if let Some(old) = on_core[core].take() {
                    nic.nf_teardown(old).unwrap();
                }
                let mem = [4, 16, 8, 12, 4, 20][step as usize % 6];
                on_core[core] = Some(nic.nf_launch(req(core as u16, mem)).unwrap().nf_id);
                let owned = nic.resource_snapshot().owned;
                assert_eq!(owned.len(), nic.live_nfs(), "step {step}: {owned:?}");
                for id in on_core.iter().flatten() {
                    let region = nic.record_of(*id).unwrap().region;
                    assert!(owned.contains(&(region.0, region.1, *id)), "step {step}");
                }
            }
        }
    }

    #[test]
    fn teardown_unknown_nf_fails() {
        let mut nic = snic();
        assert_eq!(
            nic.nf_teardown(NfId(99)).unwrap_err(),
            SnicError::NoSuchNf(NfId(99))
        );
    }

    #[test]
    fn packet_path_end_to_end() {
        let mut nic = snic();
        let id = nic.nf_launch(req_with_rule(0, 4, 8080)).unwrap().nf_id;
        assert_eq!(nic.rx_packet(&pkt(8080)).unwrap(), Some(id));
        assert_eq!(
            nic.rx_packet(&pkt(9999)).unwrap(),
            None,
            "unmatched packet dropped"
        );
        let got = nic.poll_packet(id).unwrap().unwrap();
        assert_eq!(got.udp().unwrap().dst_port, 8080);
        assert_eq!(got.payload(), b"payload");
        assert!(nic.poll_packet(id).unwrap().is_none());
        nic.tx_packet(id, got).unwrap();
        assert!(nic.wire_pop().is_some());
    }

    #[test]
    fn vpp_capacity_enforced() {
        for mut nic in both_modes() {
            // pdb 64 bytes = 2 descriptors, whatever the PB could hold.
            let id = launch_vpp(&mut nic, 256, 64, 1024);
            assert_eq!(nic.rx_packet(&pkt(80)).unwrap(), Some(id));
            assert_eq!(nic.rx_packet(&pkt(80)).unwrap(), Some(id));
            assert_eq!(nic.rx_packet(&pkt(80)).unwrap(), Some(id));
            assert_eq!(nic.record_of(id).unwrap().rx_dropped, 1);
        }
    }

    /// The device is the one VPP (§4.4), so its buffer rules are checked
    /// against both personalities: the commodity shared-pool buffers and
    /// the S-NIC ring at the top of the function's region.
    fn both_modes() -> [SmartNic; 2] {
        [commodity(), snic()]
    }

    /// Launch on core 0 behind port 80 with the given PB/PDB/ODB bytes.
    fn launch_vpp(nic: &mut SmartNic, pb: u64, pdb: u64, odb: u64) -> NfId {
        let mut r = req_with_rule(0, 4, 80);
        r.vpp = VppBufferSpec {
            pb: ByteSize(pb),
            pdb: ByteSize(pdb),
            odb: ByteSize(odb),
        };
        nic.nf_launch(r).unwrap().nf_id
    }

    /// A 64-byte frame for port 80 tagged `n`: one whole ring slot, so PB
    /// bytes and ring bytes agree and a wrap lands on a drained slot.
    fn frame64(n: u8) -> Packet {
        let p = PacketBuilder::new(1, 2, Protocol::Udp, u16::from(n), 80)
            .payload(vec![n; 22])
            .build();
        assert_eq!(p.len(), 64);
        p
    }

    #[test]
    fn rx_is_fifo_across_a_ring_wrap() {
        for mut nic in both_modes() {
            // PB of 256 bytes: a four-slot ring under S-NIC.
            let id = launch_vpp(&mut nic, 256, 1024, 1024);
            let mut polled = Vec::new();
            for n in 1..=3 {
                nic.rx_packet(&frame64(n)).unwrap();
            }
            for _ in 0..2 {
                polled.push(nic.poll_packet(id).unwrap().unwrap());
            }
            // Slots 3, then (wrapping) 0 and 1 — the two just drained.
            for n in 4..=6 {
                nic.rx_packet(&frame64(n)).unwrap();
            }
            while let Some(p) = nic.poll_packet(id).unwrap() {
                polled.push(p);
            }
            let sent: Vec<Packet> = (1..=6).map(frame64).collect();
            assert_eq!(
                polled,
                sent,
                "{:?}: arrival order, byte for byte",
                nic.mode()
            );
            let record = nic.record_of(id).unwrap();
            assert_eq!((record.rx_delivered, record.rx_dropped), (6, 0));
        }
    }

    #[test]
    fn pb_overflow_drops_and_draining_frees_space() {
        for mut nic in both_modes() {
            // PB of 128 bytes holds exactly two 64-byte frames, whatever
            // the PDB could still describe.
            let id = launch_vpp(&mut nic, 128, 1024, 1024);
            for n in 1..=3 {
                assert_eq!(nic.rx_packet(&frame64(n)).unwrap(), Some(id));
            }
            assert_eq!(nic.record_of(id).unwrap().rx_dropped, 1);
            // Draining one frees its bytes (and, under S-NIC, its slot).
            assert_eq!(nic.poll_packet(id).unwrap(), Some(frame64(1)));
            nic.rx_packet(&frame64(4)).unwrap();
            assert_eq!(nic.record_of(id).unwrap().rx_dropped, 1);
            assert_eq!(nic.poll_packet(id).unwrap(), Some(frame64(2)));
            assert_eq!(nic.poll_packet(id).unwrap(), Some(frame64(4)));
            assert_eq!(nic.poll_packet(id).unwrap(), None);
            assert_eq!(nic.record_of(id).unwrap().rx_delivered, 3);
        }
    }

    #[test]
    fn a_frame_that_would_lap_the_ring_is_dropped_not_overlaid() {
        for mut nic in both_modes() {
            // A 320-byte PB holds two 142-byte frames' bytes, but under
            // S-NIC their 192-byte slots overrun its five-slot ring: the
            // second would wrap onto the first, still unpolled.
            let id = launch_vpp(&mut nic, 320, 1024, 1024);
            let frame = |n: u8| {
                PacketBuilder::new(1, 2, Protocol::Udp, u16::from(n), 80)
                    .payload(vec![n; 100])
                    .build()
            };
            assert_eq!(frame(1).len(), 142);
            nic.rx_packet(&frame(1)).unwrap();
            nic.rx_packet(&frame(2)).unwrap();
            let lapped = u64::from(nic.mode() == NicMode::Snic);
            assert_eq!(nic.record_of(id).unwrap().rx_dropped, lapped);
            assert_eq!(nic.poll_packet(id).unwrap(), Some(frame(1)));
            let second = (lapped == 0).then(|| frame(2));
            assert_eq!(nic.poll_packet(id).unwrap(), second, "{:?}", nic.mode());
            assert_eq!(nic.poll_packet(id).unwrap(), None);
        }
    }

    #[test]
    fn odb_overflow_rejects_without_losing() {
        for mut nic in both_modes() {
            // ODB of 64 bytes = two output descriptors.
            let id = launch_vpp(&mut nic, 1024, 1024, 64);
            let other = nic.nf_launch(req(1, 4)).unwrap().nf_id;
            nic.tx_packet(id, frame64(1)).unwrap();
            nic.tx_packet(id, frame64(2)).unwrap();
            assert_eq!(
                nic.tx_packet(id, frame64(3)).unwrap_err(),
                SnicError::PortBufferExhausted,
                "ODB full: the function must retry"
            );
            assert_eq!(
                nic.record_of(id).unwrap().tx_sent,
                2,
                "a refusal is not a send"
            );
            // The backlog is the sender's alone: a co-tenant still transmits.
            nic.tx_packet(other, frame64(9)).unwrap();
            // Draining one descriptor admits the retry; nothing was lost.
            assert_eq!(nic.wire_pop(), Some(frame64(1)));
            nic.tx_packet(id, frame64(3)).unwrap();
            assert_eq!(nic.record_of(id).unwrap().tx_sent, 3);
            let drained: Vec<Packet> = std::iter::from_fn(|| nic.wire_pop()).collect();
            assert_eq!(drained, [frame64(2), frame64(9), frame64(3)]);
        }
    }

    #[test]
    fn a_torn_down_senders_backlog_frees_no_successors_odb_slot() {
        for mut nic in both_modes() {
            // The sender fills its two-descriptor ODB and is torn down
            // with both packets still on the wire.
            let gone = launch_vpp(&mut nic, 1024, 1024, 64);
            nic.tx_packet(gone, frame64(1)).unwrap();
            nic.tx_packet(gone, frame64(2)).unwrap();
            nic.nf_teardown(gone).unwrap();
            // Its successor on the same core starts with an empty ODB...
            let next = launch_vpp(&mut nic, 1024, 1024, 64);
            nic.tx_packet(next, frame64(3)).unwrap();
            nic.tx_packet(next, frame64(4)).unwrap();
            let full = Err(SnicError::PortBufferExhausted);
            assert_eq!(nic.tx_packet(next, frame64(5)), full);
            // ...and draining the dead sender's packets credits nobody.
            assert_eq!(nic.wire_pop(), Some(frame64(1)));
            assert_eq!(nic.wire_pop(), Some(frame64(2)));
            assert_eq!(nic.tx_packet(next, frame64(5)), full);
            assert_eq!(nic.wire_pop(), Some(frame64(3)));
            nic.tx_packet(next, frame64(5)).unwrap();
            let drained: Vec<Packet> = std::iter::from_fn(|| nic.wire_pop()).collect();
            assert_eq!(drained, [frame64(4), frame64(5)]);
            assert_eq!(nic.record_of(next).unwrap().tx_sent, 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        #[test]
        fn vpp_conserves_packets(lens in proptest::collection::vec(0usize..200, 1..60)) {
            for mut nic in both_modes() {
                // Sixteen descriptors of at most four ring slots each fit
                // the 4 KiB PB exactly, so the S-NIC ring cannot lap its
                // own backlog.
                let id = launch_vpp(&mut nic, 4096, 32 * 16, 1024);
                let mut accepted = Vec::new();
                for (i, &len) in lens.iter().enumerate() {
                    let pkt = PacketBuilder::new(i as u32, 2, Protocol::Udp, 1, 80)
                        .payload(vec![i as u8; len])
                        .build();
                    let dropped = nic.record_of(id).unwrap().rx_dropped;
                    prop_assert_eq!(nic.rx_packet(&pkt).unwrap(), Some(id));
                    if nic.record_of(id).unwrap().rx_dropped == dropped {
                        accepted.push(pkt);
                    }
                }
                let (n, dropped) = (accepted.len() as u64, nic.record_of(id).unwrap().rx_dropped);
                prop_assert_eq!(n + dropped, lens.len() as u64);
                // Every accepted packet is delivered exactly once, intact.
                for pkt in accepted {
                    prop_assert_eq!(nic.poll_packet(id).unwrap(), Some(pkt));
                }
                prop_assert_eq!(nic.poll_packet(id).unwrap(), None);
                prop_assert_eq!(nic.record_of(id).unwrap().rx_delivered, n);
            }
        }

        /// Random frame sizes and rx/poll interleavings against PBs too
        /// small for the backlog: every accepted frame polls back
        /// byte-equal in arrival order in both modes; commodity admits
        /// exactly by PB bytes and PDB slots, and S-NIC never admits
        /// more.
        #[test]
        fn rx_ring_polls_back_every_accepted_frame_intact(
            pb in 64u64..1024,
            ops in proptest::collection::vec((0usize..300, 0u8..3), 1..80),
        ) {
            for mut nic in both_modes() {
                let id = launch_vpp(&mut nic, pb, 32 * 8, 1024);
                let mut queued: VecDeque<Packet> = VecDeque::new();
                for (i, &(len, op)) in ops.iter().enumerate() {
                    if op == 0 {
                        prop_assert_eq!(nic.poll_packet(id).unwrap(), queued.pop_front());
                        continue;
                    }
                    let pkt = PacketBuilder::new(i as u32, 2, Protocol::Udp, 1, 80)
                        .payload(vec![i as u8; len])
                        .build();
                    let bytes: u64 = queued.iter().map(|p| p.len() as u64).sum();
                    let by_bytes = bytes + pkt.len() as u64 <= pb && queued.len() < 8;
                    let dropped = nic.record_of(id).unwrap().rx_dropped;
                    nic.rx_packet(&pkt).unwrap();
                    let accepted = nic.record_of(id).unwrap().rx_dropped == dropped;
                    match nic.mode() {
                        NicMode::Commodity => prop_assert_eq!(accepted, by_bytes),
                        NicMode::Snic => prop_assert!(by_bytes || !accepted),
                    }
                    if accepted {
                        queued.push_back(pkt);
                    }
                }
                while let Some(want) = queued.pop_front() {
                    prop_assert_eq!(nic.poll_packet(id).unwrap(), Some(want), "{:?}", nic.mode());
                }
                prop_assert_eq!(nic.poll_packet(id).unwrap(), None);
            }
        }
    }

    #[test]
    fn bus_flood_crashes_commodity_only() {
        let mut commodity_nic = commodity();
        let a = commodity_nic.nf_launch(req(0, 4)).unwrap().nf_id;
        assert_eq!(
            commodity_nic.bus_flood(a, 100_000_000).unwrap_err(),
            SnicError::NicCrashed
        );
        assert!(commodity_nic.is_crashed());
        // Everything now fails until a power cycle.
        assert_eq!(
            commodity_nic.rx_packet(&pkt(80)).unwrap_err(),
            SnicError::NicCrashed
        );
        commodity_nic.power_cycle();
        assert!(!commodity_nic.is_crashed());
        assert_eq!(commodity_nic.live_nfs(), 0, "power cycle loses all NFs");

        let mut snic_nic = snic();
        let b = snic_nic.nf_launch(req(0, 4)).unwrap().nf_id;
        let t = snic_nic.bus_flood(b, 100_000_000).unwrap();
        assert!(!snic_nic.is_crashed());
        assert!(t > Picos::ZERO);
    }

    #[test]
    fn commodity_bus_flood_crash_reaches_the_fault_log() {
        let mut nic = commodity();
        let a = nic.nf_launch(req(0, 4)).unwrap().nf_id;
        assert_eq!(
            nic.bus_flood(a, 100_000_000).unwrap_err(),
            SnicError::NicCrashed
        );
        let last = nic.fault_log().last().expect("a logged crash");
        assert_eq!(
            (last.nf, &last.kind),
            (None, &FaultEventKind::DeviceCrashed)
        );
        nic.power_cycle();
        let kinds: Vec<_> = nic.fault_log().iter().map(|r| &r.kind).collect();
        let crash = kinds
            .iter()
            .position(|k| **k == FaultEventKind::DeviceCrashed);
        let restored = kinds
            .iter()
            .position(|k| **k == FaultEventKind::PowerRestored);
        assert!(crash < restored, "{kinds:?}");
    }

    #[test]
    fn commodity_rx_poll_recycles_pool_buffers() {
        let mut nic = commodity();
        let id = nic.nf_launch(req_with_rule(0, 4, 80)).unwrap().nf_id;
        for i in 0..10_000 {
            assert_eq!(nic.rx_packet(&pkt(80)), Ok(Some(id)), "rx {i}");
            let p = nic
                .poll_packet(id)
                .unwrap_or_else(|e| panic!("poll {i}: {e}"));
            assert_eq!(p.expect("queued").data, pkt(80).data);
        }
        // Only the image is still live in the pool.
        let pooled = |nic: &SmartNic| {
            nic.security_domains()
                .into_iter()
                .filter(|&(b, _, _)| b < REGION_BASE)
                .count()
        };
        assert_eq!(pooled(&nic), 1);
        // Teardown returns the image and whatever was still queued.
        assert_eq!(nic.rx_packet(&pkt(80)), Ok(Some(id)));
        assert_eq!(pooled(&nic), 2);
        nic.nf_teardown(id).unwrap();
        assert_eq!(pooled(&nic), 0);
    }

    #[test]
    fn commodity_launch_teardown_cycles_keep_images_in_the_pool() {
        let mut nic = commodity();
        let pool = POOL_BASE..POOL_BASE + ByteSize::mib(64).bytes();
        for i in 0..5_000 {
            let id = nic.nf_launch(req(0, 1)).unwrap().nf_id;
            let image = nic.record_of(id).unwrap().image_base;
            assert!(pool.contains(&image), "launch {i}: image at {image:#x}");
            nic.nf_teardown(id).unwrap();
        }
    }

    #[test]
    fn bus_flood_op_count_saturates() {
        // The running per-function total is a sum of tenant numbers.
        let mut nic = commodity();
        let a = nic.nf_launch(req(0, 4)).unwrap().nf_id;
        nic.bus_flood(a, 1).unwrap();
        assert_eq!(
            nic.bus_flood(a, u64::MAX).unwrap_err(),
            SnicError::NicCrashed
        );
    }

    #[test]
    fn bus_flood_too_long_for_the_clock_is_refused_unarbitrated() {
        let mut config = NicConfig::small(NicMode::Commodity);
        config.bus_crash_threshold = u64::MAX;
        let mut nic = SmartNic::new(config, &vendor());
        let a = nic.nf_launch(req(0, 4)).unwrap().nf_id;
        assert!(matches!(
            nic.bus_flood(a, u64::MAX),
            Err(SnicError::InvalidConfig(_))
        ));
        assert!(!nic.is_crashed());
    }

    #[test]
    fn bus_flood_too_long_for_the_clock_is_refused_arbitrated() {
        let mut nic = snic();
        let a = nic.nf_launch(req(0, 4)).unwrap().nf_id;
        nic.nf_launch(req(1, 4)).unwrap();
        // Two domains: `ops * domains` is what no longer fits.
        assert!(matches!(
            nic.bus_flood(a, u64::MAX / 2 + 1),
            Err(SnicError::InvalidConfig(_))
        ));
        assert!(!nic.is_crashed());
    }

    #[test]
    fn accel_clusters_allocated_and_released() {
        let mut nic = snic();
        let mut r = req(0, 4);
        r.accel = vec![(AccelKind::Dpi, 2), (AccelKind::Zip, 1)];
        let id = nic.nf_launch(r).unwrap().nf_id;
        assert_eq!(nic.clusters_of(id, AccelKind::Dpi).len(), 2);
        assert_eq!(nic.clusters_of(id, AccelKind::Zip).len(), 1);
        // Exhaustion fails atomically.
        let mut r2 = req(1, 4);
        r2.accel = vec![(AccelKind::Dpi, 100)];
        assert!(nic.nf_launch(r2).is_err());
        // The failed launch did not leak cores or clusters.
        assert!(nic.nf_launch(req(1, 4)).is_ok());
        nic.nf_teardown(id).unwrap();
        assert_eq!(nic.clusters_of(id, AccelKind::Dpi).len(), 0);
    }

    #[test]
    fn attest_signs_measurement_with_chain() {
        let v = vendor();
        let mut nic = SmartNic::new(NicConfig::small(NicMode::Snic), &v);
        let id = nic.nf_launch(req(0, 4)).unwrap().nf_id;
        let stmt = nic.nf_attest(id, b"nonce+dh").unwrap();
        assert!(stmt.verdict, "a healthy device verifies cleanly");
        let mut expected = Vec::new();
        expected.extend_from_slice(&stmt.measurement);
        expected.push(1); // verifier verdict byte
        expected.extend_from_slice(&[0u8; 32]); // no Pass 0 submission
        expected.extend_from_slice(b"nonce+dh");
        assert!(snic_crypto::keys::verify_chain(
            v.public(),
            &stmt.ek_certificate,
            &stmt.ak_endorsement,
            &expected,
            &stmt.signature,
        ));
    }

    fn clean_analysis() -> snic_verify::pass0::LaunchAnalysis {
        use snic_verify::pass0::{AnalysisManifest, Operand, ProgramBuilder, RegionClass};
        let mut b = ProgramBuilder::new("attested-nf");
        let pkt = b.region("pktbuf", 0x1000, 0x200, RegionClass::PacketBuf);
        let v = b.load(pkt, Operand::Imm(0), 8, 10);
        b.emit(Operand::Reg(v), 5);
        snic_verify::pass0::LaunchAnalysis {
            program: b.finish(),
            manifest: AnalysisManifest {
                regions: vec![(0x1000, 0x200)],
                accel: vec![],
                dma_window: None,
                max_insns_per_packet: 100,
            },
        }
    }

    fn failing_analysis() -> snic_verify::pass0::LaunchAnalysis {
        use snic_verify::pass0::{Operand, ProgramBuilder, RegionClass};
        let mut sub = clean_analysis();
        let mut b = ProgramBuilder::new("escaping-nf");
        let pkt = b.region("pktbuf", 0x1000, 0x200, RegionClass::PacketBuf);
        // The 8-byte load at offset 0x200 ends past the window.
        let v = b.load(pkt, Operand::Imm(0x200), 8, 10);
        b.emit(Operand::Reg(v), 5);
        sub.program = b.finish();
        sub
    }

    #[test]
    fn launch_refuses_failing_analysis_atomically() {
        for mut nic in [snic(), commodity()] {
            // A live neighbor so the snapshot is non-trivial.
            nic.nf_launch(req(0, 4)).unwrap();
            let before = nic.resource_snapshot();
            let mut bad = req(1, 4);
            bad.analysis = Some(failing_analysis());
            match nic.nf_launch(bad).unwrap_err() {
                SnicError::Verification(report) => {
                    assert!(report.contains("OobLoad"), "{report}");
                    assert!(report.contains("Pass 0"), "{report}");
                    assert!(report.contains("REFUSED"), "{report}");
                }
                other => panic!("expected Pass 0 refusal, got {other:?}"),
            }
            // The refusal happened before any reservation: every
            // allocatable resource is byte-identical.
            assert_eq!(before, nic.resource_snapshot());
            // And the same core still launches cleanly afterwards.
            assert!(nic.nf_launch(req(1, 4)).is_ok());
        }
    }

    #[test]
    fn attest_binds_analysis_certificate_digest() {
        let v = vendor();
        let mut nic = SmartNic::new(NicConfig::small(NicMode::Snic), &v);
        let mut analyzed = req(0, 4);
        analyzed.analysis = Some(clean_analysis());
        let id = nic.nf_launch(analyzed).unwrap().nf_id;
        let digest = nic.record_of(id).unwrap().analysis_digest;
        assert_ne!(digest, [0u8; 32], "clean analysis must yield a certificate");
        let expected_cert = {
            let sub = clean_analysis();
            snic_verify::analyze_launch(id, &sub).certificate_digest()
        };
        assert_eq!(digest, expected_cert, "record binds the exact certificate");

        let stmt = nic.nf_attest(id, b"nonce+dh").unwrap();
        assert_eq!(stmt.analysis_digest, digest);
        // The digest sits inside the signed statement: tampering with it
        // breaks the chain.
        let mut statement = Vec::new();
        statement.extend_from_slice(&stmt.measurement);
        statement.push(1);
        statement.extend_from_slice(&digest);
        statement.extend_from_slice(b"nonce+dh");
        assert!(snic_crypto::keys::verify_chain(
            v.public(),
            &stmt.ek_certificate,
            &stmt.ak_endorsement,
            &statement,
            &stmt.signature,
        ));
        let mut tampered = statement.clone();
        tampered[33] ^= 0xff; // first analysis-digest byte
        assert!(!snic_crypto::keys::verify_chain(
            v.public(),
            &stmt.ek_certificate,
            &stmt.ak_endorsement,
            &tampered,
            &stmt.signature,
        ));
    }

    #[test]
    fn launch_refuses_overlapping_manifest() {
        for mut nic in [snic(), commodity()] {
            let a = nic.nf_launch(req(0, 4)).unwrap().nf_id;
            let (base, _) = nic.record_of(a).unwrap().region;
            // A manifest whose region overlaps the live function's.
            let mut overlapping = req(1, 4);
            overlapping.region_base = Some(base + 0x1000);
            match nic.nf_launch(overlapping).unwrap_err() {
                SnicError::Verification(report) => {
                    assert!(report.contains("RegionOverlap"), "{report}");
                    assert!(report.contains("§4.1"), "{report}");
                }
                other => panic!("expected Verification refusal, got {other:?}"),
            }
            // The refusal leaked nothing: the same core launches cleanly.
            assert!(nic.nf_launch(req(1, 4)).is_ok());
        }
    }

    #[test]
    fn launch_refuses_nic_os_collision() {
        let mut nic = snic();
        let mut r = req(0, 4);
        r.region_base = Some(0x0200_0000); // inside the shared buffer pool
        match nic.nf_launch(r).unwrap_err() {
            SnicError::Verification(report) => {
                assert!(report.contains("NicOsCollision"), "{report}");
            }
            other => panic!("expected Verification refusal, got {other:?}"),
        }
    }

    #[test]
    fn launch_refuses_duplicate_core_in_request() {
        let mut nic = snic();
        let mut r = req(0, 4);
        r.cores = vec![CoreId(0), CoreId(0)];
        match nic.nf_launch(r).unwrap_err() {
            SnicError::Verification(report) => {
                assert!(report.contains("CoreConflict"), "{report}");
            }
            other => panic!("expected Verification refusal, got {other:?}"),
        }
    }

    #[test]
    fn live_device_verifies_cleanly_in_both_modes() {
        for mut nic in [snic(), commodity()] {
            nic.nf_launch(req(0, 4)).unwrap();
            nic.nf_launch(req(1, 16)).unwrap();
            let report = nic.verify_state();
            assert!(report.is_ok(), "{report}");
            assert_eq!(report.manifests_checked, 2);
        }
    }

    #[test]
    fn security_domains_cover_regions_and_pool_buffers() {
        let mut nic = commodity();
        let id = nic.nf_launch(req_with_rule(0, 4, 80)).unwrap().nf_id;
        assert_eq!(nic.rx_packet(&pkt(80)).unwrap(), Some(id));
        let domains = nic.security_domains();
        let (rbase, rlen) = nic.record_of(id).unwrap().region;
        assert!(domains.contains(&(rbase, rlen, id)), "region domain");
        // The image and the queued packet live in the shared pool below
        // REGION_BASE, still attributed to the owner.
        assert!(
            domains
                .iter()
                .any(|&(b, _, o)| o == id && b < rbase && b >= 0x0200_0000),
            "{domains:?}"
        );
    }

    #[test]
    fn zero_core_and_zero_memory_rejected() {
        let mut nic = snic();
        let mut r = req(0, 4);
        r.cores.clear();
        assert!(matches!(
            nic.nf_launch(r).unwrap_err(),
            SnicError::InvalidConfig(_)
        ));
        let r2 = LaunchRequest::minimal(CoreId(0), ByteSize::ZERO, NfImage::default());
        assert!(matches!(
            nic.nf_launch(r2).unwrap_err(),
            SnicError::InvalidConfig(_)
        ));
    }

    #[test]
    fn dma_round_trip_within_windows() {
        let mut nic = snic();
        let mut r = req(0, 4);
        r.host_window = Some((0x1000_0000, 0x10_000));
        let id = nic.nf_launch(r).unwrap().nf_id;
        // Host stages data; the NF pulls it in, transforms, pushes back.
        nic.host_mem().write(0x1000_0000, b"host payload");
        nic.dma_from_host(id, CoreId(0), 0x100, 0x1000_0000, 12)
            .unwrap();
        let mut buf = [0u8; 12];
        nic.nf_read(id, CoreId(0), 0x100, &mut buf).unwrap();
        assert_eq!(&buf, b"host payload");
        nic.nf_write(id, CoreId(0), 0x200, b"nic answer!!").unwrap();
        nic.dma_to_host(id, CoreId(0), 0x200, 0x1000_0100, 12)
            .unwrap();
        let mut hbuf = [0u8; 12];
        nic.host_mem().read(0x1000_0100, &mut hbuf);
        assert_eq!(&hbuf, b"nic answer!!");
    }

    #[test]
    fn dma_outside_host_window_rejected() {
        let (mut nic, id) = nic_with_host_window();
        // Target beyond the sanctioned host window: the §4.2 property
        // that a function cannot aim DMA at arbitrary host memory.
        let err = nic
            .dma_to_host(id, CoreId(0), 0, 0x2000_0000, 64)
            .unwrap_err();
        assert!(matches!(
            err,
            SnicError::Isolation(IsolationError::DmaViolation { .. })
        ));
        // And beyond its own region on the NIC side.
        let err = nic
            .dma_to_host(id, CoreId(0), 64 << 20, 0x1000_0000, 64)
            .unwrap_err();
        assert!(matches!(
            err,
            SnicError::Isolation(IsolationError::DmaViolation { .. })
        ));
    }

    /// An S-NIC with one function on core 0 that owns the host window
    /// `[0x1000_0000, +0x1000)`.
    fn nic_with_host_window() -> (SmartNic, NfId) {
        let mut nic = snic();
        let mut r = req(0, 4);
        r.host_window = Some((0x1000_0000, 0x1000));
        let id = nic.nf_launch(r).unwrap().nf_id;
        (nic, id)
    }

    // `base + u64::MAX` must be refused — not wrapped below the window
    // (release) or panicked on (test profile).
    #[test]
    fn dma_to_host_offset_overflow_is_a_violation() {
        let (mut nic, id) = nic_with_host_window();
        assert_eq!(
            nic.dma_to_host(id, CoreId(0), u64::MAX, 0x1000_0000, 8)
                .unwrap_err(),
            IsolationError::DmaViolation { addr: u64::MAX }.into()
        );
    }

    #[test]
    fn dma_from_host_offset_overflow_is_a_violation() {
        let (mut nic, id) = nic_with_host_window();
        assert_eq!(
            nic.dma_from_host(id, CoreId(0), u64::MAX, 0x1000_0000, 8)
                .unwrap_err(),
            IsolationError::DmaViolation { addr: u64::MAX }.into()
        );
    }

    #[test]
    fn dma_requires_a_configured_bank_and_owned_core() {
        let mut nic = snic();
        let id = nic.nf_launch(req(0, 4)).unwrap().nf_id; // No host window.
        assert!(nic.dma_to_host(id, CoreId(0), 0, 0x1000_0000, 8).is_err());
        let mut r = req(1, 4);
        r.host_window = Some((0x1000_0000, 0x1000));
        let other = nic.nf_launch(r).unwrap().nf_id;
        // NF `id` cannot use `other`'s bank on core 1.
        assert!(nic.dma_to_host(id, CoreId(1), 0, 0x1000_0000, 8).is_err());
        let _ = other;
    }

    #[test]
    fn lifecycle_promotes_on_first_traffic() {
        use snic_faults::{FaultKind, FaultPlan, FaultSite};
        let mut nic = snic();
        let id = nic.nf_launch(req_with_rule(0, 4, 80)).unwrap().nf_id;
        assert_eq!(nic.state_of(id).unwrap(), NfState::Launched);
        nic.rx_packet(&pkt(80)).unwrap();
        assert_eq!(nic.state_of(id).unwrap(), NfState::Running);
        // An injected data-path crash freezes the NF.
        nic.inject_faults(FaultPlan::none().on_nth(FaultSite::DataPath, 1, FaultKind::NfCrash));
        assert_eq!(
            nic.poll_packet(id).unwrap_err(),
            SnicError::NfFaulted(id),
            "crash injected on the poll"
        );
        assert_eq!(nic.state_of(id).unwrap(), NfState::Faulted);
        // Faulted NFs refuse further data-path work but tear down fine.
        assert!(matches!(
            nic.tx_packet(id, pkt(80)).unwrap_err(),
            SnicError::NfFaulted(_)
        ));
        nic.nf_teardown(id).unwrap();
    }

    #[test]
    fn power_loss_mid_scrub_keeps_region_unavailable() {
        use snic_faults::{FaultKind, FaultPlan, FaultSite};
        let mut nic = snic();
        let id = nic.nf_launch(req(0, 4)).unwrap().nf_id;
        nic.nf_write(id, CoreId(0), 0x100, b"secret state").unwrap();
        let (base, len) = nic.record_of(id).unwrap().region;
        // Power dies on the 3rd scrub chunk.
        nic.inject_faults(FaultPlan::none().on_nth(FaultSite::Scrub, 3, FaultKind::PowerLoss));
        assert_eq!(nic.nf_teardown(id).unwrap_err(), SnicError::PowerLoss);
        assert!(nic.is_crashed());
        let tickets = nic.pending_scrubs().to_vec();
        assert_eq!(tickets.len(), 1);
        assert_eq!(tickets[0].base, base);
        assert_eq!(tickets[0].watermark, 2 * SCRUB_CHUNK);
        // The region is still denylisted: management cannot read it...
        let mut buf = [0u8; 4];
        assert!(nic
            .mem_read(Principal::Management, base + tickets[0].watermark, &mut buf)
            .is_err());
        // ...and a hinted relaunch onto it is refused.
        nic.power_cycle(); // restores power AND resumes the scrub
        assert!(nic.pending_scrubs().is_empty(), "cycle finished the scrub");
        assert!(!nic.is_crashed());
        // Now fully scrubbed: the whole region reads back as zeros.
        let mut tail = vec![0u8; 64];
        nic.mem_read(Principal::Management, base + len - 64, &mut tail)
            .unwrap();
        assert_eq!(tail, vec![0u8; 64]);
    }

    #[test]
    fn hinted_launch_cannot_reuse_pending_scrub_region() {
        use snic_faults::{FaultKind, FaultPlan, FaultSite};
        let mut nic = snic();
        let id = nic.nf_launch(req(0, 4)).unwrap().nf_id;
        let (base, _) = nic.record_of(id).unwrap().region;
        nic.inject_faults(FaultPlan::none().on_nth(FaultSite::Scrub, 1, FaultKind::PowerLoss));
        assert_eq!(nic.nf_teardown(id).unwrap_err(), SnicError::PowerLoss);
        // Boot WITHOUT the scrub janitor: admission must hold the line
        // against a buggy/malicious NIC OS placing a tenant onto the
        // half-scrubbed region.
        nic.restore_power();
        let mut r = req(1, 4);
        r.region_base = Some(base);
        assert_eq!(
            nic.nf_launch(r.clone()).unwrap_err(),
            SnicError::ScrubPending { base }
        );
        // Unhinted placement steers around the pending region.
        let other = nic.nf_launch(req(2, 4)).unwrap().nf_id;
        assert_ne!(nic.record_of(other).unwrap().region.0, base);
        // Once the janitor drains the ticket the hint is honored.
        assert_eq!(nic.resume_scrubs(), 1);
        nic.nf_launch(r).unwrap();
    }

    #[test]
    fn accel_fault_poisons_clusters_under_snic_only() {
        use snic_faults::{FaultKind, FaultPlan, FaultSite};
        let build = |mut nic: SmartNic| {
            let mut r = req(0, 4);
            r.accel = vec![(AccelKind::Crypto, 2)];
            let mut v = req(1, 4);
            v.accel = vec![(AccelKind::Crypto, 1)];
            let id = nic.nf_launch(r).unwrap().nf_id;
            let victim = nic.nf_launch(v).unwrap().nf_id;
            nic.inject_faults(FaultPlan::none().on_nth(
                FaultSite::Accel,
                1,
                FaultKind::AccelClusterFault,
            ));
            (nic, id, victim)
        };
        // S-NIC: the owner faults, its clusters are poisoned, the
        // victim's accelerator work continues unperturbed.
        let (mut nic, id, victim) = build(snic());
        assert_eq!(nic.accel_submit(id).unwrap_err(), SnicError::NfFaulted(id));
        assert_eq!(nic.state_of(id).unwrap(), NfState::Faulted);
        assert_eq!(nic.state_of(victim).unwrap(), NfState::Launched);
        nic.accel_submit(victim).unwrap();
        // Poisoned clusters stay out of the pool even after teardown...
        nic.nf_teardown(id).unwrap();
        let mut r2 = req(0, 4);
        r2.accel = vec![(AccelKind::Crypto, 3)];
        assert!(
            nic.nf_launch(r2.clone()).is_err(),
            "2 of 4 clusters poisoned, 1 held by victim: 3 unavailable"
        );
        // ...until a power cycle repairs them.
        nic.power_cycle();
        nic.nf_launch(r2).unwrap();
        // Commodity: the shared engine wedges the whole device.
        let (mut nic, id, victim) = build(commodity());
        assert_eq!(nic.accel_submit(id).unwrap_err(), SnicError::NicCrashed);
        assert!(nic.is_crashed());
        assert_eq!(
            nic.accel_submit(victim).unwrap_err(),
            SnicError::NicCrashed,
            "victim is collateral damage on commodity hardware"
        );
    }

    #[test]
    fn transient_launch_faults_and_bus_errors() {
        use snic_faults::{FaultKind, FaultPlan, FaultSite};
        let mut nic = snic();
        nic.inject_faults(
            FaultPlan::none()
                .on_nth(FaultSite::Launch, 1, FaultKind::DramExhaustion)
                .on_nth(FaultSite::Launch, 2, FaultKind::AccelPoolExhaustion),
        );
        let snapshot = nic.resource_snapshot();
        let e1 = nic.nf_launch(req(0, 4)).unwrap_err();
        assert!(e1.is_retryable());
        let e2 = nic.nf_launch(req(0, 4)).unwrap_err();
        assert!(e2.is_retryable());
        assert_eq!(nic.resource_snapshot(), snapshot, "failed launches leak");
        // Third attempt (plan exhausted) succeeds.
        let mut r = req(0, 4);
        r.host_window = Some((0x1000_0000, 0x10000));
        let id = nic.nf_launch(r).unwrap().nf_id;
        // DMA bus error: contained to the one transfer under S-NIC.
        nic.inject_faults(FaultPlan::none().on_nth(FaultSite::Dma, 1, FaultKind::DmaBusError));
        let err = nic
            .dma_to_host(id, CoreId(0), 0, 0x1000_0000, 64)
            .unwrap_err();
        assert!(matches!(err, SnicError::BusError { .. }));
        assert!(!nic.is_crashed());
        nic.dma_to_host(id, CoreId(0), 0, 0x1000_0000, 64).unwrap();
    }

    #[test]
    fn power_cycle_after_mid_teardown_fault_leaks_nothing() {
        use snic_faults::{FaultKind, FaultPlan, FaultSite};
        // Satellite regression: a power cycle issued while an NF's
        // teardown keeps failing must still reclaim every resource.
        let mut nic = snic();
        let baseline = nic.resource_snapshot();
        let mut r = req(0, 4);
        r.accel = vec![(AccelKind::Crypto, 1)];
        r.host_window = Some((0x1000_0000, 0x1000));
        let _ = nic.nf_launch(r).unwrap().nf_id;
        let _ = nic.nf_launch(req(1, 8)).unwrap().nf_id;
        // Both teardown scrubs die instantly, and so does the first
        // resume attempt of the cycle's janitor pass.
        nic.inject_faults(
            FaultPlan::none()
                .on_nth(FaultSite::Scrub, 1, FaultKind::PowerLoss)
                .on_nth(FaultSite::Scrub, 2, FaultKind::PowerLoss)
                .on_nth(FaultSite::Scrub, 3, FaultKind::PowerLoss),
        );
        nic.power_cycle(); // both teardowns fail; scrubs pend; resume also dies
        assert!(!nic.pending_scrubs().is_empty());
        assert!(nic.is_crashed(), "power died again during the cycle");
        nic.power_cycle(); // injector exhausted: resume completes
        let after = nic.resource_snapshot();
        assert!(after.pending_scrubs.is_empty());
        assert_eq!(after.core_owner, baseline.core_owner);
        assert_eq!(after.accel_available, baseline.accel_available);
        assert_eq!(after.rx_reserved, baseline.rx_reserved);
        assert_eq!(after.tx_reserved, baseline.tx_reserved);
        assert_eq!(after.denylist, baseline.denylist);
        assert_eq!(after.owned, baseline.owned);
        assert_eq!(after.dma_banks, baseline.dma_banks);
        assert_eq!(after.live_nfs, 0);
        // Region space is fully recyclable (free list covers both
        // regions, coalesced against the bump pointer history).
        let total_free: u64 = after.free_regions.iter().map(|&(_, l)| l).sum();
        assert_eq!(total_free, after.next_region - baseline.next_region);
    }

    #[test]
    fn nf_crash_corrupts_neighbor_on_commodity_not_snic() {
        use snic_faults::{FaultKind, FaultPlan, FaultSite};
        for (mode, expect_corruption) in [(NicMode::Commodity, true), (NicMode::Snic, false)] {
            let mut nic = SmartNic::new(NicConfig::small(mode), &vendor());
            let victim = nic.nf_launch(req_with_rule(0, 4, 80)).unwrap().nf_id;
            let crasher = nic.nf_launch(req_with_rule(1, 4, 81)).unwrap().nf_id;
            // The victim has a packet in flight when the neighbor dies.
            nic.rx_packet(&pkt(80)).unwrap();
            nic.inject_faults(FaultPlan::none().on_nth(FaultSite::DataPath, 1, FaultKind::NfCrash));
            assert_eq!(
                nic.tx_packet(crasher, pkt(81)).unwrap_err(),
                SnicError::NfFaulted(crasher)
            );
            let delivered = nic.poll_packet(victim).unwrap().unwrap();
            let corrupted = delivered.data.contains(&0xDE);
            assert_eq!(
                corrupted, expect_corruption,
                "{mode:?}: wild-store containment mismatch"
            );
            // Either way the victim's lifecycle is its own.
            assert_eq!(nic.state_of(victim).unwrap(), NfState::Running);
        }
    }
}
