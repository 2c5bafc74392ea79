//! Blast-radius differential: what does one tenant's fault cost its
//! neighbors?
//!
//! For every [`FaultScenario`] the harness measures containment at two
//! layers and under both personalities:
//!
//! - **Device layer** ([`device_differential`]): a scripted episode
//!   drives a [`SmartNic`] through launch / traffic / fault / teardown /
//!   relaunch twice — once clean, once with the scenario's deterministic
//!   [`FaultPlan`] armed — and compares the *victim's* observables
//!   (delivered packets, payload digest, TX availability) plus a
//!   data-remanence probe of the recycled region. The faulted episode's
//!   transcript is linted by `snic-verify` Pass 3.
//! - **Microarchitectural layer** ([`uarch_jobs`]): the fig5-style
//!   colocation engine replays a fixed victim trace against an
//!   aggressor + NIC-OS trace pair, then replays it again with the
//!   aggressor/NIC-OS streams perturbed the way the fault would perturb
//!   them (early crash, retry storm, scrub sweep...). Under S-NIC the
//!   victim's [`NfRunStats`] must be **bit-identical** with and without
//!   the fault; on the commodity machine the shared L2 and FCFS bus let
//!   the perturbation through.
//!
//! Every run is deterministic: no wall clock, no unseeded RNG, and the
//! sweep fans through `snic-sim`'s order-preserving pool, so the matrix
//! is byte-identical however many threads the budget lends it
//! (`crates/bench/tests/fault_determinism.rs`).

use std::fmt::Write as _;

use rand::SeedableRng;
use snic_core::config::{NicConfig, NicMode};
use snic_core::device::SmartNic;
use snic_core::instr::{LaunchRequest, NfImage};
use snic_core::nicos::{NicOs, RetryPolicy};
use snic_crypto::keys::VendorCa;
use snic_faults::{
    render_transcript, FaultEventKind, FaultKind, FaultPlan, FaultRecord, FaultSite,
};
use snic_nf::NfKind;
use snic_pktio::rules::{RuleMatch, SwitchRule};
use snic_sim::{par_map, SimJob};
use snic_types::mix::{fnv1a, FNV_OFFSET};
use snic_types::packet::PacketBuilder;
use snic_types::{AccelKind, ByteSize, CoreId, NfId, Packet, Protocol, SnicError};
use snic_uarch::config::MachineConfig;
use snic_uarch::engine::RunOutcome;
use snic_uarch::stream::{Access, AccessKind, EventSource, SharedReplayStream};
use snic_verify::{lint_fault_transcript, Finding};

use crate::streams::{all_traces, trace_of, SharedTrace, TraceSet};
use crate::{render_table, Scale};

/// L2 size used for the microarchitectural differential: small enough
/// that the tiny recorded traces still thrash it: commodity cache
/// sharing then makes any aggressor perturbation
/// visible in the victim's hit rates.
pub const BLAST_L2_BYTES: u64 = 32 << 10;

/// One injectable failure mode, spanning the fault sites of §4.3
/// (accelerators), §4.6 (teardown/scrub/lifecycle) and the transient
/// management-plane failures in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultScenario {
    /// An NF core crashes mid-datapath and sprays wild stores.
    NfCrash,
    /// An accelerator cluster bound to the aggressor dies (§4.3
    /// cluster-fatal).
    AccelClusterFault,
    /// A bus error hits the aggressor's DMA transaction.
    DmaBusError,
    /// Transient DRAM + accelerator-pool exhaustion at `nf_launch`.
    TransientExhaustion,
    /// The (untrusted, restartable) NIC OS crashes mid-call.
    NicOsRestart,
    /// Power is lost in the middle of a teardown scrub.
    PowerLossMidTeardown,
}

impl FaultScenario {
    /// Every scenario, in matrix order.
    pub const ALL: [FaultScenario; 6] = [
        FaultScenario::NfCrash,
        FaultScenario::AccelClusterFault,
        FaultScenario::DmaBusError,
        FaultScenario::TransientExhaustion,
        FaultScenario::NicOsRestart,
        FaultScenario::PowerLossMidTeardown,
    ];

    /// Short name for tables and labels.
    pub fn name(self) -> &'static str {
        match self {
            FaultScenario::NfCrash => "nf-crash",
            FaultScenario::AccelClusterFault => "accel-cluster-fault",
            FaultScenario::DmaBusError => "dma-bus-error",
            FaultScenario::TransientExhaustion => "transient-exhaustion",
            FaultScenario::NicOsRestart => "nicos-restart",
            FaultScenario::PowerLossMidTeardown => "power-loss-mid-teardown",
        }
    }

    /// The deterministic injection plan the device episode arms. Event
    /// ordinals are pinned to the scripted episode: the first `DataPath`
    /// event after arming is the aggressor's poll, the second `Dma`
    /// event is the aggressor's host transfer (the first seeds the
    /// remanence probe), and so on.
    pub fn plan(self) -> FaultPlan {
        match self {
            FaultScenario::NfCrash => {
                FaultPlan::none().on_nth(FaultSite::DataPath, 1, FaultKind::NfCrash)
            }
            FaultScenario::AccelClusterFault => {
                FaultPlan::none().on_nth(FaultSite::Accel, 1, FaultKind::AccelClusterFault)
            }
            FaultScenario::DmaBusError => {
                FaultPlan::none().on_nth(FaultSite::Dma, 2, FaultKind::DmaBusError)
            }
            FaultScenario::TransientExhaustion => FaultPlan::none()
                .on_nth(FaultSite::Launch, 1, FaultKind::DramExhaustion)
                .on_nth(FaultSite::Launch, 2, FaultKind::AccelPoolExhaustion),
            FaultScenario::NicOsRestart => {
                FaultPlan::none().on_nth(FaultSite::NicOs, 1, FaultKind::NicOsCrash)
            }
            FaultScenario::PowerLossMidTeardown => {
                FaultPlan::none().on_nth(FaultSite::Scrub, 1, FaultKind::PowerLoss)
            }
        }
    }
}

// --------------------------------------------------------------------
// Device-layer episodes
// --------------------------------------------------------------------

/// Everything the victim can observe about its own service during an
/// episode. Bit-compared between the clean and the faulted run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VictimObservables {
    /// Packets the victim successfully polled.
    pub delivered: u32,
    /// FNV-1a digest over the polled packet bytes (catches silent
    /// corruption, not just loss).
    pub payload_digest: u64,
    /// Whether the victim's TX path stayed available.
    pub tx_ok: bool,
}

/// The result of one scripted episode on one device.
#[derive(Debug, Clone)]
pub struct EpisodeReport {
    /// The victim function's id.
    pub victim: NfId,
    /// What the victim observed.
    pub observables: VictimObservables,
    /// Whether the remanence probe of the recycled aggressor region
    /// read back all zeros.
    pub residue_clean: bool,
    /// The fault/lifecycle transcript of the run.
    pub transcript: Vec<FaultRecord>,
}

fn pkt(dst_port: u16, fill: u8) -> Packet {
    PacketBuilder::new(0x0a00_0001, 0x0a00_0002, Protocol::Udp, 4096, dst_port)
        .payload(vec![fill; 96])
        .build()
}

fn port_rule(dst_port: u16) -> SwitchRule {
    SwitchRule {
        dst_port: RuleMatch::Exact(dst_port),
        priority: 5,
        ..SwitchRule::any(NfId(0))
    }
}

const VICTIM_PORT: u16 = 100;
const AGGRESSOR_PORT: u16 = 200;
/// Offset inside the aggressor's region where the episode plants a
/// secret via DMA; the remanence probe reads it back after the region
/// is recycled.
const SECRET_OFF: u64 = 2048;
const SECRET: [u8; 64] = [0x5e; 64];
const HOST_WINDOW: (u64, u64) = (0x1000, 0x1_0000);

/// Run the scripted episode on a fresh device.
///
/// The script is identical for every scenario and both personalities —
/// launch victim + aggressor, deliver traffic, plant a DMA secret,
/// exercise the aggressor's data/accel/DMA paths, admit a third
/// function with retry, read the victim's service, tear the aggressor
/// down and recycle its region — so the only degree of freedom is the
/// armed [`FaultPlan`]. `faulted == false` arms an empty plan and is
/// the baseline the differential compares against.
pub fn run_episode(mode: NicMode, scenario: FaultScenario, faulted: bool) -> EpisodeReport {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xb1a5);
    let vendor = VendorCa::new(&mut rng);
    let mut nic = SmartNic::new(NicConfig::small(mode), &vendor);

    // Victim on core 0, aggressor on core 1 (with an accelerator
    // cluster and a host DMA window so every fault site is reachable).
    let mut victim_req = LaunchRequest::minimal(
        CoreId(0),
        ByteSize::mib(4),
        NfImage {
            code: vec![0x11; 128],
            config: vec![0x22; 64],
        },
    );
    victim_req.rules.push(port_rule(VICTIM_PORT));
    // The three `expect`s below cannot fire: a fresh `NicConfig::small`
    // device admits these two constant requests (free cores 0 and 1,
    // 4 MiB each, one Zip cluster) with no fault plan armed yet, and a
    // launched NF has a record.
    let victim = nic.nf_launch(victim_req).expect("victim launch").nf_id;

    let mut aggr_req = LaunchRequest::minimal(
        CoreId(1),
        ByteSize::mib(4),
        NfImage {
            code: vec![0x33; 128],
            config: vec![0x44; 64],
        },
    );
    aggr_req.rules.push(port_rule(AGGRESSOR_PORT));
    aggr_req.accel = vec![(AccelKind::Zip, 1)];
    aggr_req.host_window = Some(HOST_WINDOW);
    let aggr = nic.nf_launch(aggr_req).expect("aggressor launch").nf_id;
    let aggr_base = nic.record_of(aggr).expect("aggressor record").region.0;

    // Arm the plan only now, so the two admission launches above do not
    // consume Launch-site ordinals.
    nic.inject_faults(if faulted {
        scenario.plan()
    } else {
        FaultPlan::none()
    });

    // Traffic: four packets each, interleaved victim-first.
    for i in 0..4u8 {
        let _ = nic.rx_packet(&pkt(VICTIM_PORT, 0x60 + i));
        let _ = nic.rx_packet(&pkt(AGGRESSOR_PORT, 0xa0 + i));
    }

    // Plant the secret in the aggressor's region (first Dma ordinal).
    nic.host_mem().write(HOST_WINDOW.0, &SECRET);
    let _ = nic.dma_from_host(
        aggr,
        CoreId(1),
        SECRET_OFF,
        HOST_WINDOW.0,
        SECRET.len() as u64,
    );

    // Aggressor-side triggers, one per fault site. Each may fail under
    // injection; the script carries on regardless, as a real
    // multi-tenant device would.
    let _ = nic.poll_packet(aggr);
    let _ = nic.poll_packet(aggr);
    let _ = nic.accel_submit(aggr);
    let _ = nic.dma_to_host(aggr, CoreId(1), SECRET_OFF, HOST_WINDOW.0 + 0x100, 64);

    // Management plane: admit a third function with capped backoff (the
    // transient-exhaustion and NIC-OS-restart scenarios hit here).
    {
        let mut os = NicOs::new(&mut nic);
        let _ = os.nf_create_with_retry(
            LaunchRequest::minimal(CoreId(2), ByteSize::mib(2), NfImage::default()),
            RetryPolicy::default(),
        );
    }

    // The victim reads its own service.
    let mut delivered = 0u32;
    let mut digest = 0u64;
    for _ in 0..4 {
        if let Ok(Some(p)) = nic.poll_packet(victim) {
            delivered += 1;
            digest = fnv1a(if digest == 0 { FNV_OFFSET } else { digest }, &p.data);
        }
    }
    let tx_ok = nic.tx_packet(victim, pkt(VICTIM_PORT, 0xee)).is_ok();

    // Teardown the aggressor and recycle its region under a placement
    // hint, resuming any power-lost scrub first.
    let _ = nic.nf_teardown(aggr);
    if nic.is_crashed() {
        nic.restore_power();
    }
    let relaunch = |nic: &mut SmartNic| {
        let mut r = LaunchRequest::minimal(CoreId(1), ByteSize::mib(4), NfImage::default());
        r.region_base = Some(aggr_base);
        nic.nf_launch(r)
    };
    if let Err(SnicError::ScrubPending { .. }) = relaunch(&mut nic) {
        nic.resume_scrubs();
        let _ = relaunch(&mut nic);
    }

    // Remanence probe: does the recycled region still hold the secret?
    let mut probe = [0u8; SECRET.len()];
    let _ = nic.mem_read(
        snic_mem::guard::Principal::TrustedHardware,
        aggr_base + SECRET_OFF,
        &mut probe,
    );
    let residue_clean = probe.iter().all(|&b| b == 0);

    EpisodeReport {
        victim,
        observables: VictimObservables {
            delivered,
            payload_digest: digest,
            tx_ok,
        },
        residue_clean,
        transcript: nic.take_fault_log(),
    }
}

/// The device-layer verdict for one `(mode, scenario)` cell.
#[derive(Debug, Clone)]
pub struct DeviceDiff {
    /// Victim observables bit-identical between the clean and faulted
    /// episode.
    pub victim_intact: bool,
    /// The recycled region read back as zeros in the faulted episode.
    pub residue_clean: bool,
    /// Pass-3 findings over the faulted episode's transcript.
    pub findings: Vec<Finding>,
    /// Rendered faulted-episode transcript (byte-comparable).
    pub transcript: String,
}

/// Run the clean/faulted episode pair for one cell, note any victim
/// perturbation into the transcript, and lint it with Pass 3.
pub fn device_differential(mode: NicMode, scenario: FaultScenario) -> DeviceDiff {
    let clean = run_episode(mode, scenario, false);
    let mut fault = run_episode(mode, scenario, true);

    let mut perturbed: Vec<&'static str> = Vec::new();
    if fault.observables.delivered != clean.observables.delivered {
        perturbed.push("rx_delivered");
    }
    if fault.observables.payload_digest != clean.observables.payload_digest {
        perturbed.push("rx_payload_digest");
    }
    if fault.observables.tx_ok != clean.observables.tx_ok {
        perturbed.push("tx_available");
    }
    let victim_intact = perturbed.is_empty();
    // Observed perturbations become transcript records so Pass 3 can
    // attribute the blast radius.
    let (mut seq, at) = fault
        .transcript
        .last()
        .map(|r| (r.seq + 1, r.at))
        .unwrap_or((0, snic_types::Picos::ZERO));
    for metric in perturbed {
        fault.transcript.push(FaultRecord {
            seq,
            at,
            nf: Some(fault.victim),
            kind: FaultEventKind::VictimPerturbed { metric },
        });
        seq += 1;
    }

    DeviceDiff {
        victim_intact,
        residue_clean: fault.residue_clean,
        findings: lint_fault_transcript(&fault.transcript),
        transcript: render_transcript(&fault.transcript),
    }
}

// --------------------------------------------------------------------
// Microarchitectural layer
// --------------------------------------------------------------------

/// How a scenario perturbs the aggressor and NIC-OS reference streams.
/// The *victim* stream is never touched: any victim-visible difference
/// must therefore flow through a shared resource.
fn perturb_streams(
    scenario: FaultScenario,
    aggr: &[Access],
    nicos: &[Access],
) -> (Vec<Access>, Vec<Access>) {
    let store = |addr: u64| Access {
        insns: 1,
        addr,
        kind: AccessKind::Store,
    };
    match scenario {
        // The aggressor dies a third of the way in.
        FaultScenario::NfCrash => (aggr[..aggr.len() / 3].to_vec(), nicos.to_vec()),
        // Half a run, then an error-handling store storm across the
        // cluster's queue pages.
        FaultScenario::AccelClusterFault => {
            let mut v = aggr[..aggr.len() / 2].to_vec();
            v.extend((0..4096u64).map(|i| store(i * 4096)));
            (v, nicos.to_vec())
        }
        // Every 64th transfer retried eight times.
        FaultScenario::DmaBusError => {
            let mut v = Vec::with_capacity(aggr.len() + aggr.len() / 8);
            for (i, a) in aggr.iter().enumerate() {
                v.push(*a);
                if i % 64 == 0 {
                    v.extend(std::iter::repeat_n(*a, 8));
                }
            }
            (v, nicos.to_vec())
        }
        // The admission retry loop replays the warm-up prefix.
        FaultScenario::TransientExhaustion => {
            let mut v = aggr[..aggr.len() / 4].to_vec();
            v.extend_from_slice(aggr);
            (v, nicos.to_vec())
        }
        // The NIC OS reboots halfway through: it walks its management
        // structures back into cache (a strided load sweep), replays
        // its startup accesses, then resumes where it left off.
        FaultScenario::NicOsRestart => {
            let half = nicos.len() / 2;
            let mut v = nicos[..half].to_vec();
            v.extend((0..8192u64).map(|i| Access {
                insns: 1,
                addr: i * 64,
                kind: AccessKind::Load,
            }));
            v.extend_from_slice(&nicos[..half]);
            v.extend_from_slice(&nicos[half..]);
            (aggr.to_vec(), v)
        }
        // The aggressor disappears two thirds in; the management core
        // then sweeps its region with sequential scrub stores.
        FaultScenario::PowerLossMidTeardown => {
            let mut v = aggr[..aggr.len() * 2 / 3].to_vec();
            v.extend((0..2048u64).map(|i| store(i * 64)));
            (v, nicos.to_vec())
        }
    }
}

fn replay(trace: &SharedTrace) -> EventSource {
    SharedReplayStream::new(SharedTrace::clone(trace)).into()
}

fn doubled(trace: &SharedTrace) -> EventSource {
    SharedReplayStream::repeated(SharedTrace::clone(trace), 2).into()
}

/// Repeat a recorded trace end to end `repeats` times (owned; the
/// perturbation functions need a materialized sequence to cut up).
fn tiled(trace: &[Access], repeats: usize) -> Vec<Access> {
    let mut v = Vec::with_capacity(trace.len() * repeats);
    for _ in 0..repeats {
        v.extend_from_slice(trace);
    }
    v
}

/// The four colocation jobs of one scenario, in
/// `[commodity-clean, commodity-faulted, snic-clean, snic-faulted]`
/// order. Stream slot 0 is the victim (a firewall trace — a working set
/// that lives in the L2, so shared-cache and bus coupling is visible —
/// replayed twice with the first pass as warmup), slot 1 the aggressor
/// (NAT), slot 2 the NIC OS (monitor). The aggressor/NIC-OS recordings
/// are tiled until they outlast both victim passes — otherwise the
/// fault perturbation would land entirely inside the victim's warmup
/// window and be invisible by construction.
pub fn uarch_jobs(scenario: FaultScenario, traces: &TraceSet) -> Vec<SimJob> {
    let victim = trace_of(traces, NfKind::Firewall);
    let aggr = trace_of(traces, NfKind::Nat);
    let nicos = trace_of(traces, NfKind::Monitor);
    let span = 2 * victim.len();
    let aggr_reps = span.div_ceil(aggr.len());
    let nicos_reps = span.div_ceil(nicos.len());
    let (aggr_f, nicos_f) =
        perturb_streams(scenario, &tiled(aggr, aggr_reps), &tiled(nicos, nicos_reps));
    let (aggr_f, nicos_f) = (SharedTrace::from(aggr_f), SharedTrace::from(nicos_f));
    let warmups = vec![victim.len() as u64, 0, 0];
    let clean = || -> Vec<EventSource> {
        vec![
            doubled(victim),
            SharedReplayStream::repeated(SharedTrace::clone(aggr), aggr_reps as u32).into(),
            SharedReplayStream::repeated(SharedTrace::clone(nicos), nicos_reps as u32).into(),
        ]
    };
    let faulted =
        || -> Vec<EventSource> { vec![doubled(victim), replay(&aggr_f), replay(&nicos_f)] };
    vec![
        SimJob::new(MachineConfig::commodity(3, BLAST_L2_BYTES), clean())
            .with_warmups(warmups.clone()),
        SimJob::new(MachineConfig::commodity(3, BLAST_L2_BYTES), faulted())
            .with_warmups(warmups.clone()),
        SimJob::new(MachineConfig::snic(3, BLAST_L2_BYTES), clean()).with_warmups(warmups.clone()),
        SimJob::new(MachineConfig::snic(3, BLAST_L2_BYTES), faulted()).with_warmups(warmups),
    ]
}

/// The microarchitectural verdict for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct UarchDiff {
    /// Victim stats bit-identical across the fault on the commodity
    /// machine.
    pub commodity_bit_identical: bool,
    /// Victim stats bit-identical across the fault under S-NIC.
    pub snic_bit_identical: bool,
    /// Victim IPC delta (%) caused by the fault on commodity.
    pub commodity_delta_pct: f64,
    /// Victim IPC delta (%) caused by the fault under S-NIC.
    pub snic_delta_pct: f64,
}

/// Fold one scenario's four outcomes (see [`uarch_jobs`] order) into a
/// verdict.
pub fn uarch_diff_from(outcomes: &[RunOutcome]) -> UarchDiff {
    // Every caller folds the output of `uarch_jobs`, which always builds
    // four jobs (whole, or as `chunks_exact(4)` of the matrix sweep).
    assert_eq!(outcomes.len(), 4, "one scenario = four runs");
    UarchDiff {
        commodity_bit_identical: outcomes[1].nfs[0] == outcomes[0].nfs[0],
        snic_bit_identical: outcomes[3].nfs[0] == outcomes[2].nfs[0],
        commodity_delta_pct: outcomes[1].ipc_degradation_vs(&outcomes[0], 0),
        snic_delta_pct: outcomes[3].ipc_degradation_vs(&outcomes[2], 0),
    }
}

// --------------------------------------------------------------------
// The matrix
// --------------------------------------------------------------------

/// One row of the blast-radius matrix.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The injected failure mode.
    pub scenario: FaultScenario,
    /// Device-layer verdict on the commodity personality.
    pub device_commodity: DeviceDiff,
    /// Device-layer verdict under S-NIC.
    pub device_snic: DeviceDiff,
    /// Microarchitectural verdict.
    pub uarch: UarchDiff,
}

/// Run the full matrix: six scenarios × (device episodes on both
/// personalities + four colocation runs each). Uarch jobs and device
/// differentials both fan through [`par_map`], which preserves input
/// order, so the matrix does not depend on how many workers it got.
pub fn blast_matrix(scale: &Scale) -> Vec<ScenarioOutcome> {
    let traces = all_traces(scale, 0xb1a57);
    let jobs: Vec<SimJob> = FaultScenario::ALL
        .iter()
        .flat_map(|&s| uarch_jobs(s, &traces))
        .collect();
    let outcomes = par_map(jobs, SimJob::run);
    let device: Vec<(DeviceDiff, DeviceDiff)> = par_map(FaultScenario::ALL.to_vec(), |s| {
        (
            device_differential(NicMode::Commodity, s),
            device_differential(NicMode::Snic, s),
        )
    });
    FaultScenario::ALL
        .iter()
        .zip(outcomes.chunks_exact(4))
        .zip(device)
        .map(
            |((&scenario, chunk), (device_commodity, device_snic))| ScenarioOutcome {
                scenario,
                device_commodity,
                device_snic,
                uarch: uarch_diff_from(chunk),
            },
        )
        .collect()
}

fn device_cell(d: &DeviceDiff) -> String {
    let victim = if d.victim_intact {
        "intact"
    } else {
        "perturbed"
    };
    let residue = if d.residue_clean { "clean" } else { "dirty" };
    format!("{victim}/{residue}/{} findings", d.findings.len())
}

fn uarch_cell(identical: bool, delta_pct: f64) -> String {
    if identical {
        "bit-identical".to_string()
    } else {
        format!("perturbed ({delta_pct:+.2}% IPC)")
    }
}

/// Render the matrix as the EXPERIMENTS.md table.
pub fn render_matrix(rows: &[ScenarioOutcome]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.name().to_string(),
                device_cell(&r.device_commodity),
                device_cell(&r.device_snic),
                uarch_cell(r.uarch.commodity_bit_identical, r.uarch.commodity_delta_pct),
                uarch_cell(r.uarch.snic_bit_identical, r.uarch.snic_delta_pct),
            ]
        })
        .collect();
    render_table(
        "Blast radius: victim under fault (victim/scrub/Pass-3)",
        &[
            "scenario",
            "device commodity",
            "device S-NIC",
            "uarch commodity",
            "uarch S-NIC",
        ],
        &table,
    )
}

/// The blast-radius experiment as text: the matrix, the expectation it
/// is read against, and every Pass-3 finding behind the device cells.
pub fn report(scale: &Scale, _: bool) -> String {
    let rows = blast_matrix(scale);
    let mut out = render_matrix(&rows);
    let _ = writeln!(
        out,
        "{} scenarios; expectation: S-NIC victims bit-identical + transcripts lint clean, \
         commodity victims perturbed (except pure management-plane faults at the device layer).",
        FaultScenario::ALL.len()
    );
    for r in &rows {
        for f in &r.device_commodity.findings {
            let _ = writeln!(out, "  commodity/{}: {f}", r.scenario.name());
        }
        for f in &r.device_snic.findings {
            let _ = writeln!(out, "  S-NIC/{}: {f}", r.scenario.name());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::{assert_commodity_device_leaks, assert_snic_device_contained};
    use snic_verify::FindingKind;

    #[test]
    fn every_scenario_has_a_nonempty_unique_plan() {
        let mut names = Vec::new();
        for s in FaultScenario::ALL {
            assert!(!s.plan().is_empty(), "{} has no rules", s.name());
            assert!(!names.contains(&s.name()), "duplicate name {}", s.name());
            names.push(s.name());
        }
    }

    #[test]
    fn nf_crash_corrupts_victim_only_on_commodity() {
        let c = device_differential(NicMode::Commodity, FaultScenario::NfCrash);
        assert!(!c.victim_intact, "commodity victim must see the wild store");
        assert_commodity_device_leaks(FaultScenario::NfCrash, &c);
        assert!(
            c.findings
                .iter()
                .any(|f| f.kind == FindingKind::FaultPropagation),
            "commodity transcript must lint dirty: {}",
            c.transcript
        );
        assert_snic_device_contained(
            FaultScenario::NfCrash,
            &device_differential(NicMode::Snic, FaultScenario::NfCrash),
        );
    }

    #[test]
    fn accel_fault_crashes_whole_commodity_device() {
        let c = device_differential(NicMode::Commodity, FaultScenario::AccelClusterFault);
        assert!(!c.victim_intact);
        assert!(c.transcript.contains("device hard-crashed"));
        assert_snic_device_contained(
            FaultScenario::AccelClusterFault,
            &device_differential(NicMode::Snic, FaultScenario::AccelClusterFault),
        );
    }

    #[test]
    fn teardown_scrub_is_snic_only() {
        // Even the clean power-loss episode recycles dirty memory on a
        // commodity NIC (no teardown scrubbing at all), and Pass 3
        // flags the reuse.
        let c = device_differential(NicMode::Commodity, FaultScenario::PowerLossMidTeardown);
        assert!(!c.residue_clean, "commodity leaks the DMA'd secret");
        assert!(c
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::UnscrubbedReuse));
        assert_snic_device_contained(
            FaultScenario::PowerLossMidTeardown,
            &device_differential(NicMode::Snic, FaultScenario::PowerLossMidTeardown),
        );
    }

    #[test]
    fn management_plane_faults_are_contained_everywhere() {
        for scenario in [
            FaultScenario::TransientExhaustion,
            FaultScenario::NicOsRestart,
        ] {
            for mode in [NicMode::Commodity, NicMode::Snic] {
                let d = device_differential(mode, scenario);
                assert!(
                    d.victim_intact,
                    "{:?}/{} must not perturb the victim",
                    mode,
                    scenario.name()
                );
            }
            let s = device_differential(NicMode::Snic, scenario);
            assert!(s.transcript.contains("retry"), "{}", s.transcript);
        }
    }

    #[test]
    fn episodes_are_deterministic() {
        let a = run_episode(NicMode::Snic, FaultScenario::DmaBusError, true);
        let b = run_episode(NicMode::Snic, FaultScenario::DmaBusError, true);
        assert_eq!(a.observables, b.observables);
        assert_eq!(
            render_transcript(&a.transcript),
            render_transcript(&b.transcript)
        );
    }
}
