//! The SoC smart-NIC device model.
//!
//! One [`SmartNic`] struct implements both personalities (§3 commodity
//! vs. §4 S-NIC); every difference is driven by [`NicMode`] so the
//! attacks crate can run identical attack code against both and assert
//! opposite outcomes.
//!
//! The device's state is split by the paper's resource list, one plane
//! per module, each the one owner of its state and of its invariants:
//! `memory` (§4.2), `compute` (§4.1, §4.3, §4.5), `packet` (§4.4) and
//! `lifecycle` (§4.6). The public API here is orchestration: each op
//! calls into the planes in a fixed order, and [`SmartNic::check`]
//! composes the planes' checks with the clauses that span them.
//!
//! Preconditions are one gate, the lifecycle plane's `require`: every
//! op a downed device must refuse names what it needs (the device up,
//! a live function, an operational one) in its first statement, and
//! the ops a downed device still serves name nothing (DESIGN.md §5
//! item 4 lists both).

mod compute;
mod lifecycle;
mod memory;
mod packet;

use std::fmt;
use std::sync::Arc;

use rand::SeedableRng;
use snic_crypto::keys::{AttestationKey, EndorsementKey, VendorCa};
use snic_crypto::sha256::Sha256;
use snic_faults::{FaultEventKind, FaultKind, FaultPlan, FaultRecord, FaultSite};
use snic_mem::guard::{AccessRecord, MemoryGuard, Principal};
use snic_mem::phys::PhysMem;
use snic_mem::planner::plan_region;
use snic_mem::tlb::Tlb;
use snic_pktio::dma::{DmaDirection, DmaWindow};
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

use self::compute::{build_tlbs, ComputePlane};
use self::lifecycle::{Lifecycle, Need};
use self::memory::MemoryPlane;
use self::packet::PacketPlane;
use crate::alloc::{META_BASE, META_SLOT, POOL_BASE};
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

/// A broken device invariant, as [`SmartNic::check`] reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invariant {
    /// The paper section whose property failed (`"§4.2"`, ...).
    pub clause: &'static str,
    /// What was found.
    pub detail: String,
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} invariant broken: {}", self.clause, self.detail)
    }
}

/// `Ok` if `holds`, else the [`Invariant`] `clause` with `detail`.
fn ensure(
    holds: bool,
    clause: &'static str,
    detail: impl FnOnce() -> String,
) -> Result<(), Invariant> {
    if holds {
        Ok(())
    } else {
        Err(Invariant {
            clause,
            detail: detail(),
        })
    }
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
    memory: MemoryPlane,
    compute: ComputePlane,
    packet: PacketPlane,
    life: Lifecycle,
    ek: EndorsementKey,
    ak: AttestationKey,
    /// Observability sink shared with the pools and DMA banks.
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
        SmartNic {
            memory: MemoryPlane::new(&config),
            compute: ComputePlane::new(&config),
            packet: PacketPlane::default(),
            life: Lifecycle::default(),
            ek,
            ak,
            config,
            telemetry: Arc::new(NullSink),
        }
    }

    /// Attach a telemetry sink to the device and to every component it
    /// owns (accelerator pools, DMA banks). Telemetry is purely
    /// observational: with or without a sink the device's behaviour,
    /// receipts and transcripts are byte-identical.
    pub fn set_telemetry(&mut self, sink: Arc<dyn TelemetrySink>) {
        self.compute.set_sink(&sink);
        self.telemetry = sink;
    }

    /// The attached telemetry sink ([`NullSink`] by default).
    pub fn telemetry(&self) -> Arc<dyn TelemetrySink> {
        Arc::clone(&self.telemetry)
    }

    /// Check every device invariant (S-NIC §4, plane by plane): the
    /// memory, compute, packet and lifecycle planes' own clauses, then
    /// the ones that span them — each live function's region is owned
    /// by it and its cores are bound to it, its queued frames sit in its
    /// ring within its PB/PDB/ODB, and the live device still passes
    /// Pass 1 (port reservations included) and the §4.2 state checks.
    pub fn check(&self) -> Result<(), Invariant> {
        self.memory.check()?;
        self.compute.check()?;
        self.packet.check()?;
        self.life.check()?;
        let live = self.life.records();
        let owned = self.memory.ownership().owned_ranges();
        let owners: Vec<Option<NfId>> = self.compute.owners().collect();
        ensure(owned.len() == live.len(), "§4.2", || {
            format!(
                "{} owned ranges for {} live functions",
                owned.len(),
                live.len()
            )
        })?;
        let bound = owners.iter().flatten().count();
        let held: usize = live.values().map(|r| r.cores.len()).sum();
        ensure(bound == held, "§4.1", || {
            format!("{bound} bound cores, {held} held")
        })?;
        for (&nf, r) in live {
            let (base, len) = r.region;
            ensure(owned.contains(&(base, len, nf)), "§4.2", || {
                format!("{nf}'s region {base:#x}+{len:#x} is not owned by it: {owned:x?}")
            })?;
            let cores = r
                .cores
                .iter()
                .all(|c| owners.get(usize::from(c.0)) == Some(&Some(nf)));
            ensure(cores, "§4.1", || {
                format!("{nf}'s cores {:?} are bound to {owners:?}", r.cores)
            })?;
            self.packet
                .check_frames(nf, r, self.config.mode == NicMode::Snic)?;
        }
        ensure(
            self.packet.open_nfs().eq(live.keys().copied()),
            "§4.4",
            || "packet queues are not the live functions'".into(),
        )?;
        let report = self.verify_state();
        ensure(report.is_ok(), "§4.1", || report.to_string())
    }

    /// Arm the device with a deterministic fault plan. Replaces any
    /// previous injector but preserves nothing: counters and transcript
    /// start fresh.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        *self.life.injector_mut() = snic_faults::FaultInjector::new(plan);
    }

    /// Arm additional fault rules *mid-stream*, preserving the
    /// transcript and per-site counters accumulated so far. The
    /// resident daemon's `inject-fault` verb uses this: replacing the
    /// injector with [`SmartNic::inject_faults`] would erase lifecycle
    /// history that Pass 3/Pass 4 lint and the restart differential
    /// replays.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.life.injector_mut().arm(plan);
    }

    /// How many events the injector has observed at `site` — the base
    /// for arming "k-th event from now" triggers mid-stream.
    pub fn fault_site_count(&self, site: FaultSite) -> u64 {
        self.life.injector().count(site)
    }

    /// The fault/lifecycle transcript so far.
    pub fn fault_log(&self) -> &[FaultRecord] {
        self.life.injector().log()
    }

    /// Drain the transcript (the armed plan and counters stay).
    pub fn take_fault_log(&mut self) -> Vec<FaultRecord> {
        self.life.injector_mut().take_log()
    }

    /// Consult the injector at `site` on behalf of a management caller
    /// (the NIC OS and harnesses use this for sites the device itself
    /// does not instrument).
    pub fn fault_check(&mut self, site: FaultSite, nf: Option<NfId>) -> Option<FaultKind> {
        self.life.fault_at(site, nf)
    }

    /// Append an externally observed event to the transcript so device
    /// and harness events share one total order.
    pub fn fault_note(&mut self, nf: Option<NfId>, kind: FaultEventKind) {
        self.life.note(nf, kind);
    }

    /// Lifecycle state of a live NF.
    pub fn state_of(&self, nf: NfId) -> Result<NfState, SnicError> {
        Ok(self.life.record(nf)?.state)
    }

    /// Interrupted teardown scrubs awaiting [`SmartNic::resume_scrubs`].
    pub fn pending_scrubs(&self) -> &[ScrubTicket] {
        self.memory.pending_scrubs()
    }

    /// The free-region list (sorted, coalesced) — exposed for the
    /// allocator-invariant property tests.
    pub fn free_regions(&self) -> &[(u64, u64)] {
        self.memory.free_regions()
    }

    /// Bytes the live functions hold in the physical RX and TX port
    /// buffers (§4.4): each one's PB and ODB.
    fn port_reserved(&self) -> (u64, u64) {
        self.life.records().values().fold((0, 0), |(rx, tx), r| {
            (rx + r.vpp.pb.bytes(), tx + r.vpp.odb.bytes())
        })
    }

    /// Comparable snapshot of every allocatable resource (leak tests).
    pub fn resource_snapshot(&self) -> ResourceSnapshot {
        let (rx_reserved, tx_reserved) = self.port_reserved();
        ResourceSnapshot {
            free_regions: self.memory.free_regions().to_vec(),
            next_region: self.memory.next_region(),
            core_owner: self.compute.owners().collect(),
            accel_available: self.compute.accel_available(),
            rx_reserved,
            tx_reserved,
            denylist: self.memory.guard().denylist().intervals().to_vec(),
            owned: self.memory.ownership().owned_ranges(),
            pending_scrubs: self.memory.pending_scrubs().to_vec(),
            live_nfs: self.life.records().len(),
            dma_banks: self.compute.dma_banks(),
        }
    }

    /// The lowest-numbered core no function is bound to, if any.
    pub fn free_core(&self) -> Option<CoreId> {
        let free = self.compute.owners().position(|owner| owner.is_none())?;
        u16::try_from(free).ok().map(CoreId)
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
        self.life.now()
    }

    /// Advance simulated time, returning the new time; `None`, with the
    /// clock left where it was, if the u64-picosecond clock cannot hold
    /// it.
    #[must_use = "a clock at its end does not advance"]
    pub fn advance(&mut self, dt: Picos) -> Option<Picos> {
        self.life.advance(dt)
    }

    /// True while the device is down: after a hard crash (§3.3's Agilio
    /// bus DoS) or a power loss, until power is restored.
    pub fn is_crashed(&self) -> bool {
        self.life.require(Need::Up).is_err()
    }

    /// Power-cycle the NIC: clears the crash flag and all NF state
    /// (everything is lost, as the paper's attack required).
    ///
    /// Every function is torn down; a teardown releases its bindings
    /// before it scrubs, so if power is lost again mid-scrub its cores,
    /// ports, clusters and ownership are reclaimed anyway — but its
    /// region is routed through the pending-scrub queue, never handed
    /// out dirty.
    /// The cycle also repairs faulted accelerator clusters and resumes
    /// any interrupted scrubs. If a scrub is interrupted *again* during
    /// the cycle, the device comes back crashed with the remaining
    /// tickets still pending; another cycle finishes the job.
    pub fn power_cycle(&mut self) {
        if self.telemetry.enabled() {
            self.telemetry
                .instant(0, "device.power_cycle", self.life.now().0);
        }
        let ids: Vec<NfId> = self.life.records().keys().copied().collect();
        self.restore_power();
        // Past the gate: a teardown that loses power mid-scrub has
        // already released the function's bindings and queued its
        // region's ticket, and the next one still runs.
        for id in ids {
            let _ = self.teardown(id);
        }
        self.compute.repair();
        // A scrub that loses power again leaves the device crashed with
        // its ticket pending, as documented above.
        let _ = self.drain_scrubs();
    }

    /// Restore power after a loss WITHOUT resuming interrupted scrubs —
    /// a boot where the background scrub janitor has not run yet.
    /// Admission control refuses pending regions in the meantime
    /// ([`SnicError::ScrubPending`]); [`SmartNic::resume_scrubs`] or a
    /// full [`SmartNic::power_cycle`] drains them.
    pub fn restore_power(&mut self) {
        self.life.restore();
    }

    /// Release every binding `nf` holds except its DRAM region, which is
    /// the caller's to scrub, queue or free: its cores with their DMA
    /// banks and TLBs, its accelerator clusters and bus accounting, its
    /// switch rules and queues, its port reservations, its page
    /// ownership, and its shared-pool buffers (queued frames, then its
    /// image; under S-NIC both live in its region and nothing is freed).
    fn release(&mut self, nf: NfId, record: &NfRecord) -> Result<(), SnicError> {
        self.compute.release(nf, &record.cores);
        let mut buffers = self.packet.close(nf);
        buffers.push(record.image_base);
        if self.telemetry.enabled() {
            for freed in [record.vpp.pb, record.vpp.odb] {
                if freed > ByteSize::ZERO {
                    self.telemetry
                        .counter_add(nf.0, metrics::PORT_RELEASED_BYTES, freed.bytes());
                }
            }
        }
        self.memory.release(nf, buffers)
    }

    /// Resume every interrupted teardown scrub from its watermark;
    /// completed regions are allowlisted and returned to the free list.
    /// Returns how many tickets completed. If power is lost again
    /// mid-scrub the call fails with [`SnicError::PowerLoss`], the device
    /// crashed and the interrupted ticket re-queued at its new watermark
    /// with the rest still pending.
    pub fn resume_scrubs(&mut self) -> Result<usize, SnicError> {
        self.life.require(Need::Up)?;
        self.drain_scrubs()
    }

    /// [`SmartNic::resume_scrubs`] past its gate, as `power_cycle` runs it.
    fn drain_scrubs(&mut self) -> Result<usize, SnicError> {
        let mut done = 0;
        while let Some(t) = self.memory.pop_scrub() {
            let scrubbing = NfState::Scrubbing;
            self.life.note_transition(t.nf, scrubbing, scrubbing);
            let elapsed = self.scrub_region(t.nf, t.base, t.len, t.watermark)?;
            self.life.spend(elapsed);
            self.memory.reclaim(t.nf, t.base, t.len);
            self.life
                .note_transition(t.nf, scrubbing, NfState::Reclaimed);
            done += 1;
        }
        Ok(done)
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
        self.memory.guard()
    }

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
        self.life
            .records()
            .iter()
            .map(|(&id, r)| manifest_of(id, r))
            .collect()
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
            &self.memory.ownership().owned_ranges(),
            self.memory.guard().denylist(),
        ));
        for m in &manifests {
            let tlbs: Vec<&Tlb> = m
                .cores
                .iter()
                .filter_map(|&c| self.compute.tlb(m.nf, c).ok())
                .collect();
            report
                .violations
                .extend(verify_tlb_state(spec.mode, m, &tlbs));
        }
        report
    }

    /// Begin recording every mediated physical access (Pass 2 input).
    pub fn start_audit(&mut self) {
        self.memory.guard_mut().start_audit();
    }

    /// Drain the recorded access trace; recording stays enabled.
    pub fn take_audit(&mut self) -> Vec<AccessRecord> {
        self.memory.guard_mut().take_audit()
    }

    /// The current security domains as `(base, len, owner)` ranges: every
    /// NF-owned region plus every live shared-pool buffer (commodity
    /// packet and image buffers are owned too, even though they sit
    /// outside the ownership bitmap). This is the domain map the trace
    /// linter checks memory references against.
    pub fn security_domains(&self) -> Vec<(u64, u64, NfId)> {
        self.memory.security_domains()
    }

    /// The commodity NIC hard-crashes (a wedged shared accelerator or
    /// bus): the fault log records it, and every gated op fails until
    /// power is restored. Returns the error the crashing call reports.
    fn hard_crash(&mut self) -> SnicError {
        self.life.crash(FaultEventKind::DeviceCrashed);
        SnicError::NicCrashed
    }

    /// The launch measurement of a live NF.
    pub fn measurement_of(&self, nf: NfId) -> Result<[u8; 32], SnicError> {
        Ok(self.life.record(nf)?.measurement)
    }

    /// Record of a live NF.
    pub fn record_of(&self, nf: NfId) -> Result<&NfRecord, SnicError> {
        self.life.record(nf)
    }

    /// Live NF count.
    pub fn live_nfs(&self) -> usize {
        self.life.records().len()
    }

    /// Ids of every live NF, in ascending order (the durable truth a
    /// restarted NIC OS rebuilds its managed list from).
    pub fn live_nf_ids(&self) -> Vec<NfId> {
        self.life.records().keys().copied().collect()
    }

    /// The `nf_launch` trusted instruction.
    pub fn nf_launch(&mut self, req: LaunchRequest) -> Result<LaunchReceipt, SnicError> {
        let t0 = self.life.now().0;
        let result = self.nf_launch_inner(req);
        let launched = result.as_ref().ok().map(|r| r.nf_id.0);
        let refused = (0, "nf.launch_rejected");
        self.observe(t0, ("nf.launch", metrics::LAUNCHES), launched, refused);
        result
    }

    /// Telemetry for one trusted instruction that began at `t0`: on
    /// success (`Some(nf)`) a span named `span` on `nf` and a `counter`
    /// tick; on failure the instant `refused`.
    fn observe(
        &self,
        t0: u64,
        (span, counter): (&'static str, &'static str),
        done: Option<u64>,
        refused: (u64, &'static str),
    ) {
        if self.telemetry.enabled() {
            match done {
                Some(nf) => {
                    self.telemetry.counter_add(0, counter, 1);
                    self.telemetry.span_begin(nf, span, t0);
                    self.telemetry.span_end(nf, span, self.life.now().0);
                }
                None => self.telemetry.instant(refused.0, refused.1, t0),
            }
        }
    }

    /// Admission checks every resource before it reserves any, so a
    /// refused launch leaves the device as it was: the accelerator
    /// clusters, the last check, are allocated all or none. The VPP's
    /// port buffers (§4.4) are Pass 1's to refuse (`VppOvercommit`); the
    /// reservation itself is the record's `vpp`.
    fn nf_launch_inner(&mut self, mut req: LaunchRequest) -> Result<LaunchReceipt, SnicError> {
        self.life.require(Need::Up)?;
        // Injected admission faults (all transient except power loss):
        // the orchestrator is expected to retry these with backoff.
        match self.life.fault_at(FaultSite::Launch, None) {
            Some(FaultKind::DramExhaustion) => {
                return Err(SnicError::Transient(TransientResource::Dram));
            }
            Some(FaultKind::AccelPoolExhaustion) => {
                return Err(SnicError::Transient(TransientResource::AccelPool));
            }
            Some(FaultKind::PowerLoss) => {
                self.life.crash(FaultEventKind::PowerLost);
                return Err(SnicError::PowerLoss);
            }
            _ => {}
        }
        if req.cores.is_empty() {
            return Err(SnicError::InvalidConfig("nf_launch with zero cores".into()));
        }
        if req.memory.bytes() == 0 {
            let zero = "nf_launch with zero memory";
            return Err(SnicError::InvalidConfig(zero.into()));
        }
        let nf = self.life.next_id();
        // Pass 0 (static program analysis): when the tenant submits a
        // dataflow IR, prove it confined to its claimed envelope before
        // any resource is reserved; the certificate digest is bound into
        // the record so `nf_attest` can vouch for the proof.
        let analysis_digest = match &req.analysis {
            Some(submission) => {
                let outcome = analyze_launch(nf, submission);
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
        self.compute.check_free(&req.cores)?;
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
        let region_len = plan.allocated().bytes();
        let base = self.memory.pick_region(req.region_base, region_len)?;
        if req.image.len() as u64 > region_len {
            return Err(SnicError::InvalidConfig("image larger than region".into()));
        }
        // Static verification (Pass 1 of `snic-verify`): prove the
        // augmented manifest set is still an isolation-respecting
        // partition of the device *before* any hardware state mutates.
        // The report, not just a boolean, travels in the error so the
        // operator sees every broken invariant with its paper citation.
        let mut manifests = self.live_manifests();
        manifests.push(VnicManifest {
            nf,
            cores: req.cores.clone(),
            region: (base, region_len),
            host_window: req.host_window,
            tlb_entries: plan.entries() as usize,
            accel: req.accel.clone(),
            vpp: req.vpp,
            bus_slice: None,
        });
        let report = verify_manifests(&self.device_spec(), &manifests);
        if report.concerning(nf).next().is_some() {
            return Err(SnicError::Verification(report.to_string()));
        }
        let tlbs = build_tlbs(&self.config, &req.cores, base, &plan)?;
        let accel = self.compute.allocate_accel(nf, &req.accel)?;

        // Commit point: everything below cannot fail.
        let len = region_len;
        self.life
            .note(Some(nf), FaultEventKind::RegionReused { base, len });
        self.memory.assign(nf, base, len)?;
        let windows = req.host_window.map(|(hbase, hlen)| {
            let window = |base, len| DmaWindow { base, len };
            (window(base, region_len), window(hbase, hlen))
        });
        self.compute
            .bind(nf, &req.cores, tlbs, windows, &self.telemetry);
        let denylist_time = match self.config.mode {
            NicMode::Snic => DENYLISTING,
            NicMode::Commodity => Picos::ZERO,
        };

        // Copy the initial image into the function's memory: inside its
        // region under S-NIC; on a commodity NIC in the shared pool with
        // discoverable allocator metadata (§3.3's attack surface).
        let image_base = if self.config.mode == NicMode::Commodity && !req.image.is_empty() {
            self.memory
                .alloc(nf, req.image.len() as u64, false)
                .unwrap_or(base)
        } else {
            base
        };
        let hw = Principal::TrustedHardware;
        let guard = self.memory.guard_mut();
        guard.write_phys(hw, image_base, &req.image.code)?;
        let config_base = image_base + req.image.code.len() as u64;
        guard.write_phys(hw, config_base, &req.image.config)?;

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

        // Switching rules pointing at the new function, and its queues.
        self.packet.open(nf, &mut req.rules);
        if self.telemetry.enabled() {
            for reserved in [req.vpp.pb, req.vpp.odb] {
                self.telemetry
                    .counter_add(nf.0, metrics::PORT_RESERVED_BYTES, reserved.bytes());
            }
        }
        self.life.enter(NfRecord {
            cores: req.cores,
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
            rx_delivered: 0,
            rx_dropped: 0,
            tx_sent: 0,
        });

        let latency = LaunchLatency {
            tlb_setup: TLB_SETUP,
            denylisting: denylist_time,
            sha_digest: sha_digest_time(req.memory),
        };
        self.life.spend(latency.total());
        Ok(LaunchReceipt {
            nf_id: nf,
            measurement,
            latency,
        })
    }

    /// Zeroize `[base+start, base+len)` in [`SCRUB_CHUNK`] steps,
    /// consulting the injector before each chunk. On an injected power
    /// loss the progress watermark is queued as a [`ScrubTicket`] (the
    /// crash-consistent §4.6 metadata), the device goes down, and the
    /// region stays denylisted and off the free list.
    fn scrub_region(
        &mut self,
        nf: NfId,
        base: u64,
        len: u64,
        start: u64,
    ) -> Result<Picos, SnicError> {
        let mut watermark = start;
        while watermark < len {
            if let Some(FaultKind::PowerLoss) = self.life.fault_at(FaultSite::Scrub, Some(nf)) {
                let progress = FaultEventKind::ScrubProgress {
                    base,
                    watermark,
                    len,
                };
                self.life.note(Some(nf), progress);
                self.life.crash(FaultEventKind::PowerLost);
                let ticket = ScrubTicket {
                    nf,
                    base,
                    len,
                    watermark,
                };
                self.memory.queue_scrub(ticket);
                if self.telemetry.enabled() {
                    self.telemetry
                        .instant(nf.0, "fault.power_loss_mid_scrub", self.life.now().0);
                }
                return Err(SnicError::PowerLoss);
            }
            let chunk = SCRUB_CHUNK.min(len - watermark);
            self.memory
                .guard_mut()
                .raw_mem()
                .scrub(base + watermark, chunk);
            watermark += chunk;
        }
        self.life
            .note(Some(nf), FaultEventKind::ScrubCompleted { base, len });
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
        self.life.require(Need::Up)?;
        self.teardown(nf)
    }

    /// [`SmartNic::nf_teardown`] past its gate, with its telemetry; the
    /// path `power_cycle` takes.
    fn teardown(&mut self, nf: NfId) -> Result<TeardownReceipt, SnicError> {
        let t0 = self.life.now().0;
        let result = self.nf_teardown_inner(nf);
        let done = result.as_ref().ok().map(|_| nf.0);
        let refused = (nf.0, "nf.teardown_failed");
        self.observe(t0, ("nf.teardown", metrics::TEARDOWNS), done, refused);
        result
    }

    fn nf_teardown_inner(&mut self, nf: NfId) -> Result<TeardownReceipt, SnicError> {
        let record = self.life.retire(nf)?;
        let (base, len) = record.region;
        self.release(nf, &record)?;
        let mut latency = TeardownLatency {
            allowlisting: Picos::ZERO,
            scrub: Picos::ZERO,
        };
        if self.config.mode == NicMode::Snic {
            // Zero the function's pages before releasing them (§4.6).
            latency.scrub = self.scrub_region(nf, base, len, 0)?;
            latency.allowlisting = ALLOWLISTING;
        }
        self.memory.reclaim(nf, base, len);
        self.life
            .note_transition(nf, NfState::Scrubbing, NfState::Reclaimed);
        self.life.spend(latency.total());
        Ok(TeardownReceipt { latency })
    }

    /// The packet input module: classify and deliver one packet.
    ///
    /// Returns the receiving NF, or `None` if no rule matched (packet
    /// dropped at the switch).
    pub fn rx_packet(&mut self, pkt: &Packet) -> Result<Option<NfId>, SnicError> {
        self.life.require(Need::Up)?;
        if self.telemetry.enabled() {
            self.telemetry.counter_add(0, metrics::RX_PACKETS, 1);
        }
        let Some(nf) = self.packet.rules().classify(pkt) else {
            return Ok(None);
        };
        if self.life.record(nf).is_err() {
            return Ok(None);
        }
        if self.telemetry.enabled() {
            self.telemetry.counter_add(nf.0, metrics::RX_MATCHED, 1);
        }
        // Delivery can crash the receiving core (a poisoned packet); a
        // faulted NF's core is halted and the VPP drops its traffic.
        let crash = self.life.fault_at(FaultSite::Rx, Some(nf));
        if crash == Some(FaultKind::NfCrash) {
            self.fault_nf(nf)?;
            return Ok(Some(nf));
        }
        if self.life.record(nf)?.state == NfState::Launched {
            self.life.transition(nf, NfState::Running);
        }
        // Copy the packet into DRAM: commodity → shared pool with
        // metadata; S-NIC → the NF's private region (a ring at its top).
        let record = self.life.record(nf)?;
        let len = pkt.len() as u64;
        let slot = match self.config.mode {
            _ if !record.state.is_operational() => None,
            _ if !self.packet.has_room(nf, &record.vpp, len) => None,
            NicMode::Commodity => Some(self.memory.alloc(nf, len, true)?),
            NicMode::Snic => self.packet.ring_slot(nf, record, len),
        };
        let Some(base) = slot else {
            self.life.record_mut(nf)?.rx_dropped += 1;
            return Ok(Some(nf));
        };
        self.memory
            .guard_mut()
            .write_phys(Principal::TrustedHardware, base, &pkt.data)?;
        self.packet.enqueue(nf, base, pkt.len() as u32);
        Ok(Some(nf))
    }

    /// The NF polls its next packet; bytes are read back from DRAM, so
    /// any tampering that happened while the packet sat in the buffer is
    /// visible to the function (this is how the §3.3 corruption attack
    /// bites).
    pub fn poll_packet(&mut self, nf: NfId) -> Result<Option<Packet>, SnicError> {
        self.life.require(Need::Operational(nf))?;
        self.enter_datapath(nf)?;
        let Some((base, len)) = self.packet.dequeue(nf) else {
            return Ok(None);
        };
        self.life.record_mut(nf)?.rx_delivered += 1;
        if self.telemetry.enabled() {
            self.telemetry.counter_add(nf.0, metrics::RX_POLLED, 1);
        }
        let mut buf = vec![0u8; len as usize];
        self.memory
            .guard()
            .read_phys(Principal::TrustedHardware, base, &mut buf)?;
        // A commodity packet buffer goes back to the shared pool (an
        // S-NIC ring slot is not the allocator's).
        self.memory.free(base)?;
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
        self.life.require(Need::Operational(nf))?;
        self.enter_datapath(nf)?;
        let record = self.life.record_mut(nf)?;
        self.packet.send(nf, record.vpp.odb.bytes(), pkt)?;
        record.tx_sent += 1;
        if self.telemetry.enabled() {
            self.telemetry.counter_add(nf.0, metrics::TX_SENT, 1);
        }
        Ok(())
    }

    /// Drain one packet from the wire side, freeing its sender's ODB
    /// slot. A sender torn down in the meantime has no ODB left to free,
    /// and ids are never reused, so its packets free nobody else's.
    pub fn wire_pop(&mut self) -> Option<Packet> {
        self.packet.wire_pop()
    }

    /// Physical read as `who` (the commodity `xkphys` path; under S-NIC
    /// this fails for NFs and is denylist-checked for management).
    pub fn mem_read(&self, who: Principal, addr: u64, out: &mut [u8]) -> Result<(), SnicError> {
        self.life.require(Need::Up)?;
        self.memory.guard().read_phys(who, addr, out)
    }

    /// Physical write as `who`.
    pub fn mem_write(&mut self, who: Principal, addr: u64, data: &[u8]) -> Result<(), SnicError> {
        self.life.require(Need::Up)?;
        self.memory.guard_mut().write_phys(who, addr, data)
    }

    /// Virtual read through an NF core's locked TLB (the S-NIC path).
    pub fn nf_read(
        &self,
        nf: NfId,
        core: CoreId,
        va: u64,
        out: &mut [u8],
    ) -> Result<(), SnicError> {
        self.life.require(Need::Operational(nf))?;
        self.memory
            .guard()
            .read_virt(self.compute.tlb(nf, core)?, va, out)
    }

    /// Virtual write through an NF core's locked TLB.
    pub fn nf_write(
        &mut self,
        nf: NfId,
        core: CoreId,
        va: u64,
        data: &[u8],
    ) -> Result<(), SnicError> {
        self.life.require(Need::Operational(nf))?;
        self.enter_datapath(nf)?;
        let tlb = self.compute.tlb(nf, core)?.clone();
        self.memory.guard_mut().write_virt(&tlb, va, data)
    }

    /// An operational NF enters the data path: an injected
    /// [`FaultKind::NfCrash`] at the `DataPath` site fells it here, and
    /// first use promotes `Launched → Running`.
    fn enter_datapath(&mut self, nf: NfId) -> Result<(), SnicError> {
        if let Some(FaultKind::NfCrash) = self.life.fault_at(FaultSite::DataPath, Some(nf)) {
            self.fault_nf(nf)?;
            return Err(SnicError::NfFaulted(nf));
        }
        if self.life.record(nf)?.state == NfState::Launched {
            self.life.transition(nf, NfState::Running);
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
        self.life.require(Need::Live(nf))?;
        let record = self.life.record(nf)?;
        if !record.state.is_operational() {
            return Ok(());
        }
        let core = record.cores[0];
        // The wild store aims at another live tenant's freshest queued
        // packet (or its image when no packet is in flight).
        let target = self
            .life
            .records()
            .iter()
            .filter(|(&id, r)| id != nf && r.state.is_operational())
            .map(|(&id, r)| self.packet.oldest(id).unwrap_or(r.image_base))
            .next();
        if let Some(addr) = target {
            // Enforcement decides containment: commodity lets this
            // through, S-NIC returns an isolation error we swallow —
            // the dying core cannot corrupt anyone.
            let _ = self
                .memory
                .guard_mut()
                .write_phys(Principal::Nf(nf, core), addr, &[0xDE; 32]);
        }
        self.life.transition(nf, NfState::Faulted);
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
        self.life.require(Need::Operational(nf))?;
        if let Some(FaultKind::AccelClusterFault) = self.life.fault_at(FaultSite::Accel, Some(nf)) {
            match self.config.mode {
                NicMode::Snic => {
                    let record = self.life.record(nf)?;
                    self.compute.fault_clusters(&record.accel);
                    self.life.transition(nf, NfState::Faulted);
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

    /// Issue `ops` back-to-back bus operations from `nf` (the Agilio
    /// `test_subsat` flood). On a commodity NIC, saturating the bus
    /// hard-crashes the device; under S-NIC the temporal arbiter bounds
    /// the NF to its own slots, so the flood only slows the attacker.
    ///
    /// Returns the simulated time the flood took.
    pub fn bus_flood(&mut self, nf: NfId, ops: u64) -> Result<Picos, SnicError> {
        self.life.require(Need::Live(nf))?;
        let total = self.compute.add_bus_ops(nf, ops);
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
            NicMode::Snic => self.life.records().len().max(1) as u64,
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

    /// Host-side direct access to host RAM (the host OS writing its own
    /// memory; no NIC involvement).
    pub fn host_mem(&mut self) -> &mut PhysMem {
        self.memory.host_mem()
    }

    /// One DMA transfer between the function's region (at `nic_off`)
    /// and host RAM. The function must be operational, `nic_off` — the
    /// tenant's number — must stay inside the address space, and
    /// `core`'s bank must sanction both ends. Injected bus errors abort
    /// the one transfer under S-NIC ([`SnicError::BusError`]); on a
    /// commodity NIC a wedged shared bus takes the whole device down
    /// (§3.3's DoS, by accident).
    fn dma(
        &mut self,
        nf: NfId,
        core: CoreId,
        direction: DmaDirection,
        nic_off: u64,
        host_addr: u64,
        len: u64,
    ) -> Result<(), SnicError> {
        self.life.require(Need::Operational(nf))?;
        let (base, _) = self.life.record(nf)?.region;
        let nic_addr = base
            .checked_add(nic_off)
            .ok_or(IsolationError::DmaViolation { addr: nic_off })?;
        if let Some(FaultKind::DmaBusError) = self.life.fault_at(FaultSite::Dma, Some(nf)) {
            match self.config.mode {
                NicMode::Snic => return Err(SnicError::BusError { addr: nic_addr }),
                NicMode::Commodity => return Err(self.hard_crash()),
            }
        }
        let bank = self.compute.dma_bank(nf, core)?;
        bank.validate(direction, nic_addr, host_addr, len)?;
        let mut buf = vec![0u8; len as usize];
        match direction {
            DmaDirection::NicToHost => {
                self.memory.guard_mut().raw_mem().read(nic_addr, &mut buf);
                self.memory.host_mem().write(host_addr, &buf);
            }
            DmaDirection::HostToNic => {
                self.memory.host_mem().read(host_addr, &mut buf);
                self.memory.guard_mut().raw_mem().write(nic_addr, &buf);
            }
        }
        Ok(())
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
        self.dma(nf, core, DmaDirection::NicToHost, nic_off, host_addr, len)
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
        self.dma(nf, core, DmaDirection::HostToNic, nic_off, host_addr, len)
    }

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
        self.life.require(Need::Live(nf))?;
        // The quote embeds the live verifier verdict: a relying party
        // learns not just *what* launched but that the device's current
        // allocation still verifies as an isolation-respecting partition.
        let verdict = self.verify_state().is_ok();
        let record = self.life.record(nf)?;
        let (measurement, analysis_digest) = (record.measurement, record.analysis_digest);
        let signature = self.ak.sign(&crate::attest::statement(
            &measurement,
            verdict,
            &analysis_digest,
            context,
        ));
        self.life
            .spend(crate::instr::ATTEST_RSA + crate::instr::ATTEST_SHA);
        if self.telemetry.enabled() {
            self.telemetry.counter_add(nf.0, metrics::ATTESTS, 1);
        }
        Ok(crate::attest::SignedStatement {
            measurement,
            verdict,
            analysis_digest,
            signature,
            ak_endorsement: self.ak.endorsement.clone(),
            ek_certificate: self.ek.certificate.clone(),
        })
    }
}

/// A live function's record, rendered as the manifest the verifier
/// checks.
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
    use std::collections::VecDeque;

    impl SmartNic {
        /// Clusters bound to `nf` for `kind`.
        fn clusters_of(&self, nf: NfId, kind: AccelKind) -> Vec<AccelClusterId> {
            self.life
                .records()
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

    /// §4.6: a downed device tears nothing down. The refused teardown
    /// leaves every resource and the fault log as they were; once power
    /// is back the same teardown runs, and under S-NIC it scrubs.
    #[test]
    fn a_downed_device_refuses_teardown_until_power_returns() {
        use snic_faults::{FaultKind, FaultPlan, FaultSite};
        for mode in [NicMode::Commodity, NicMode::Snic] {
            let mut nic = SmartNic::new(NicConfig::small(mode), &vendor());
            let id = nic.nf_launch(req(0, 4)).unwrap().nf_id;
            let base = nic.record_of(id).unwrap().region.0;
            nic.mem_write(Principal::TrustedHardware, base + 0x100, b"secret")
                .unwrap();
            match mode {
                NicMode::Commodity => {
                    let flood = nic.bus_flood(id, 100_000_000);
                    assert_eq!(flood.unwrap_err(), SnicError::NicCrashed);
                }
                NicMode::Snic => {
                    let next = nic.fault_site_count(FaultSite::Launch) + 1;
                    let power =
                        FaultPlan::none().on_nth(FaultSite::Launch, next, FaultKind::PowerLoss);
                    nic.arm_faults(power);
                    assert_eq!(nic.nf_launch(req(1, 4)).unwrap_err(), SnicError::PowerLoss);
                }
            }
            assert!(nic.is_crashed(), "{mode:?}");
            let (before, log) = (nic.resource_snapshot(), nic.fault_log().to_vec());
            assert_eq!(nic.nf_teardown(id).unwrap_err(), SnicError::NicCrashed);
            assert_eq!(
                nic.resource_snapshot(),
                before,
                "{mode:?}: teardown while down"
            );
            assert_eq!(nic.fault_log(), &log[..], "{mode:?}: teardown while down");
            assert_eq!(nic.state_of(id), Ok(NfState::Launched));
            nic.restore_power();
            let receipt = nic.nf_teardown(id).unwrap();
            assert_eq!(nic.live_nfs(), 0);
            if mode == NicMode::Snic {
                assert!(receipt.latency.scrub > Picos::ZERO);
                let mut buf = [0xffu8; 6];
                nic.mem_read(Principal::Management, base + 0x100, &mut buf)
                    .unwrap();
                assert_eq!(buf, [0; 6], "the teardown scrubbed");
            }
            nic.check().unwrap();
        }
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
    fn hinted_relaunch_takes_its_range_off_the_free_list() {
        for mut nic in both_modes() {
            let a = nic.nf_launch(req(0, 4)).unwrap().nf_id;
            let (base, _) = nic.record_of(a).unwrap().region;
            nic.nf_teardown(a).unwrap();
            let mut hinted = req(1, 4);
            hinted.region_base = Some(base);
            let b = nic.nf_launch(hinted).unwrap().nf_id;
            // The freed range went to B, so an unhinted launch of the same
            // size lands elsewhere instead of colliding with it.
            let c = nic.nf_launch(req(2, 4)).unwrap().nf_id;
            assert_ne!(nic.record_of(c).unwrap().region.0, base, "{:?}", nic.mode());
            nic.nf_teardown(b).unwrap();
            let free = nic.free_regions();
            assert!(
                free.windows(2).all(|w| w[0].0 + w[0].1 < w[1].0),
                "{:?}: free list {free:x?}",
                nic.mode()
            );
        }
    }

    /// Launch on `core` with the given PB and ODB bytes.
    fn launch_ports(nic: &mut SmartNic, core: u16, pb: u64, odb: u64) -> Result<NfId, SnicError> {
        let mut r = req(core, 4);
        r.vpp.pb = ByteSize(pb);
        r.vpp.odb = ByteSize(odb);
        Ok(nic.nf_launch(r)?.nf_id)
    }

    /// A launch whose PB or ODB does not fit what the ports have left.
    fn overcommits(refused: Result<NfId, SnicError>) -> bool {
        matches!(refused, Err(SnicError::Verification(r)) if r.contains("VppOvercommit"))
    }

    #[test]
    fn launch_over_port_capacity_fails_cleanly() {
        let mib = ByteSize::mib(1).bytes();
        for mut nic in both_modes() {
            // 8 MiB ports: 6 MiB held, so 3 more cannot fit either way.
            launch_ports(&mut nic, 0, 6 * mib, 6 * mib).unwrap();
            let before = nic.resource_snapshot();
            for (pb, odb) in [(3 * mib, mib), (mib, 3 * mib)] {
                assert!(overcommits(launch_ports(&mut nic, 1, pb, odb)));
                assert_eq!(nic.resource_snapshot(), before, "a refusal takes nothing");
            }
            assert_eq!((before.rx_reserved, before.tx_reserved), (6 * mib, 6 * mib));
        }
    }

    #[test]
    fn port_reservation_exact_fit_is_admitted() {
        let full = ByteSize::mib(8).bytes();
        for mut nic in both_modes() {
            launch_ports(&mut nic, 0, full, full).unwrap();
            let snapshot = nic.resource_snapshot();
            assert_eq!((snapshot.rx_reserved, snapshot.tx_reserved), (full, full));
            assert!(overcommits(launch_ports(&mut nic, 1, 1, 0)));
            assert!(overcommits(launch_ports(&mut nic, 1, 0, 1)));
        }
    }

    #[test]
    fn port_reservation_is_released_at_teardown() {
        let mib = ByteSize::mib(1).bytes();
        for mut nic in both_modes() {
            let a = launch_ports(&mut nic, 0, 2 * mib, mib).unwrap();
            launch_ports(&mut nic, 1, 4 * mib, 3 * mib).unwrap();
            let held = nic.resource_snapshot();
            assert_eq!((held.rx_reserved, held.tx_reserved), (6 * mib, 4 * mib));
            nic.nf_teardown(a).unwrap();
            let left = nic.resource_snapshot();
            assert_eq!((left.rx_reserved, left.tx_reserved), (4 * mib, 3 * mib));
            // What the teardown freed is admitted again, and no more.
            launch_ports(&mut nic, 0, 4 * mib, 5 * mib).unwrap();
            assert!(overcommits(launch_ports(&mut nic, 2, 1, 0)));
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
    fn resume_scrubs_fails_when_it_loses_power() {
        use snic_faults::{FaultKind, FaultPlan, FaultSite};
        let mut nic = snic();
        let id = nic.nf_launch(req(0, 4)).unwrap().nf_id;
        let (base, _) = nic.record_of(id).unwrap().region;
        nic.inject_faults(FaultPlan::none().on_nth(FaultSite::Scrub, 2, FaultKind::PowerLoss));
        assert_eq!(nic.nf_teardown(id).unwrap_err(), SnicError::PowerLoss);
        nic.restore_power();
        // Power dies again one chunk into the resumed scrub: the call
        // fails from a crashed device, the ticket re-queued further on.
        let next = nic.fault_site_count(FaultSite::Scrub) + 2;
        nic.arm_faults(FaultPlan::none().on_nth(FaultSite::Scrub, next, FaultKind::PowerLoss));
        assert_eq!(nic.resume_scrubs(), Err(SnicError::PowerLoss));
        assert!(nic.is_crashed());
        let tickets = nic.pending_scrubs().to_vec();
        assert_eq!(tickets.len(), 1);
        assert_eq!(
            (tickets[0].base, tickets[0].watermark),
            (base, 2 * SCRUB_CHUNK)
        );
        assert_eq!(nic.resume_scrubs(), Err(SnicError::NicCrashed));
        // Once power is back the next call completes it.
        nic.restore_power();
        assert_eq!(nic.resume_scrubs(), Ok(1));
        assert!(nic.pending_scrubs().is_empty());
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
        assert_eq!(nic.resume_scrubs(), Ok(1));
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
