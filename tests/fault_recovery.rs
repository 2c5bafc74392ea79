//! Recoverable-lifecycle regressions at the public API surface.
//!
//! Each test injects a deterministic fault ([`snic::faults::FaultPlan`])
//! and checks the §4.6 recovery contract: failed launches roll back to
//! a bit-identical resource snapshot, a power cycle after a mid-teardown
//! power loss leaks nothing, the untrusted NIC OS restarts without
//! touching running functions, transient admission failures back off in
//! simulated time, and a region interrupted mid-scrub is never reused
//! before zeroization completes.

use rand::SeedableRng;
use snic::core::config::{NicConfig, NicMode};
use snic::core::device::SmartNic;
use snic::core::instr::{LaunchRequest, NfImage};
use snic::core::nicos::{NicOs, RetryPolicy};
use snic::crypto::keys::VendorCa;
use snic::faults::{FaultEventKind, FaultKind, FaultPlan, FaultSite};
use snic::mem::guard::Principal;
use snic::types::{ByteSize, CoreId, SnicError};
use snic::verify::lint_fault_transcript;

fn nic(mode: NicMode) -> SmartNic {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xfa17);
    SmartNic::new(NicConfig::small(mode), &VendorCa::new(&mut rng))
}

fn request(core: u16, mem_mib: u64) -> LaunchRequest {
    LaunchRequest::minimal(
        CoreId(core),
        ByteSize::mib(mem_mib),
        NfImage {
            code: vec![core as u8; 64],
            config: vec![],
        },
    )
}

/// Satellite: every `nf_launch` error path must restore the allocator
/// snapshot exactly — no leaked regions, cores, clusters, or buffer
/// reservations, and no bump-pointer fragmentation.
#[test]
fn failed_launches_roll_back_to_an_identical_snapshot() {
    let mut device = nic(NicMode::Snic);
    let first = device.nf_launch(request(0, 4)).expect("seed launch");
    let first_base = device.record_of(first.nf_id).unwrap().region.0;

    // (error label, request) pairs, each expected to fail.
    let mut overlap = request(1, 4);
    overlap.region_base = Some(first_base);
    let cases: Vec<(&str, LaunchRequest)> = vec![
        ("core busy", request(0, 4)),
        ("zero memory", request(1, 0)),
        ("DRAM exhausted", request(1, 100_000)),
        ("hinted overlap", overlap),
    ];
    for (label, req) in cases {
        let before = device.resource_snapshot();
        let err = device.nf_launch(req).expect_err(label);
        assert!(
            matches!(
                err,
                SnicError::CoreBusy(_)
                    | SnicError::InvalidConfig(_)
                    | SnicError::PageOwned { .. }
                    | SnicError::Verification(_)
            ),
            "{label}: unexpected error {err:?}"
        );
        assert_eq!(
            before,
            device.resource_snapshot(),
            "{label}: failed launch leaked resources"
        );
    }

    // Injected transient exhaustion must also leave the snapshot intact.
    device.inject_faults(
        FaultPlan::none()
            .on_nth(FaultSite::Launch, 1, FaultKind::DramExhaustion)
            .on_nth(FaultSite::Launch, 2, FaultKind::AccelPoolExhaustion),
    );
    for label in ["injected DRAM exhaustion", "injected accel exhaustion"] {
        let before = device.resource_snapshot();
        let err = device.nf_launch(request(1, 4)).expect_err(label);
        assert!(err.is_retryable(), "{label}: {err:?} should be retryable");
        assert_eq!(before, device.resource_snapshot(), "{label}: leak");
    }
    // The injector is exhausted: the identical request now succeeds.
    device.nf_launch(request(1, 4)).expect("post-fault launch");
}

/// Satellite: a power cycle after a power loss mid-teardown reclaims
/// everything — the resulting snapshot is identical to a device that
/// tore the same functions down cleanly.
#[test]
fn power_cycle_after_mid_teardown_power_loss_leaks_nothing() {
    // Clean twin: same launches, orderly teardowns.
    let mut clean = nic(NicMode::Snic);
    let a = clean.nf_launch(request(0, 4)).unwrap().nf_id;
    let b = clean.nf_launch(request(1, 8)).unwrap().nf_id;
    clean.nf_teardown(a).unwrap();
    clean.nf_teardown(b).unwrap();
    let want = clean.resource_snapshot();

    // Faulted device: power dies on the first scrub chunk of `a`'s
    // teardown; the cycle must finish the job.
    let mut device = nic(NicMode::Snic);
    let a = device.nf_launch(request(0, 4)).unwrap().nf_id;
    let _b = device.nf_launch(request(1, 8)).unwrap().nf_id;
    device.inject_faults(FaultPlan::none().on_nth(FaultSite::Scrub, 1, FaultKind::PowerLoss));
    let err = device.nf_teardown(a).expect_err("power loss mid-scrub");
    assert!(matches!(err, SnicError::PowerLoss), "{err:?}");
    assert!(device.is_crashed());

    device.power_cycle();
    assert!(!device.is_crashed());
    assert_eq!(device.live_nfs(), 0);
    assert!(device.pending_scrubs().is_empty());
    assert_eq!(
        want,
        device.resource_snapshot(),
        "power cycle after interrupted teardown leaked resources"
    );
}

/// §4.6: the NIC OS is untrusted and restartable — a crash mid-
/// management-call restarts the OS in place, surfaces a retryable
/// error, and leaves every running function (state, memory, bindings)
/// untouched.
#[test]
fn nicos_crash_restart_leaves_running_nfs_untouched() {
    let mut device = nic(NicMode::Snic);
    let mut os = NicOs::new(&mut device);
    let a = os.nf_create(request(0, 4)).unwrap().nf_id;
    let b = os.nf_create(request(1, 4)).unwrap().nf_id;
    os.device()
        .nf_write(a, CoreId(0), 128, b"survives")
        .unwrap();

    os.device()
        .inject_faults(FaultPlan::none().on_nth(FaultSite::NicOs, 1, FaultKind::NicOsCrash));
    let err = os.nf_create(request(2, 4)).expect_err("OS crash");
    assert!(matches!(
        err,
        SnicError::Transient(snic::types::TransientResource::NicOs)
    ));
    // The in-place restart rebuilt the managed list from the device.
    assert_eq!(os.managed(), &[a, b]);
    // Re-issuing the interrupted call succeeds.
    let c = os.nf_create(request(2, 4)).unwrap().nf_id;
    assert_eq!(os.managed(), &[a, b, c]);

    // A fresh OS instance recovers the same view, and the functions'
    // memory survived both restarts.
    drop(os);
    let mut os = NicOs::recover(&mut device);
    assert_eq!(os.managed(), &[a, b, c]);
    let mut buf = [0u8; 8];
    os.device().nf_read(a, CoreId(0), 128, &mut buf).unwrap();
    assert_eq!(&buf, b"survives");
}

/// Transient admission failures retry with capped exponential backoff
/// in *simulated* time: the clock advances by the backoff schedule and
/// the transcript records each retry.
#[test]
fn retry_backoff_advances_simulated_time() {
    let mut device = nic(NicMode::Snic);
    device.inject_faults(
        FaultPlan::none()
            .on_nth(FaultSite::Launch, 1, FaultKind::DramExhaustion)
            .on_nth(FaultSite::Launch, 2, FaultKind::DramExhaustion),
    );
    let t0 = device.now();
    let policy = RetryPolicy::default();
    let mut os = NicOs::new(&mut device);
    os.nf_create_with_retry(request(0, 4), policy, None)
        .expect("third attempt succeeds");
    let elapsed = device.now() - t0;
    // Two backoffs: initial + doubled (both under the cap), plus the
    // successful launch's own instruction latency.
    let floor = policy.initial_backoff + snic::types::Picos(policy.initial_backoff.0 * 2);
    assert!(
        elapsed >= floor,
        "clock advanced {elapsed:?}, backoff floor {floor:?}"
    );
    let retries = device
        .fault_log()
        .iter()
        .filter(|r| matches!(r.kind, FaultEventKind::RetryBackoff { .. }))
        .count();
    assert_eq!(retries, 2, "transcript records each backoff");
    assert!(lint_fault_transcript(device.fault_log()).is_empty());
}

/// §4.6's crash-consistency contract: a region whose teardown scrub was
/// interrupted by power loss is refused to every launch (even a hinted
/// one) until the resumed scrub finishes zeroizing from its watermark.
#[test]
fn power_loss_mid_scrub_blocks_reuse_until_zeroized() {
    let mut device = nic(NicMode::Snic);
    let nf = device.nf_launch(request(0, 4)).unwrap().nf_id;
    let base = device.record_of(nf).unwrap().region.0;
    // Plant a secret deep in the region, past the first scrub chunk.
    device
        .nf_write(nf, CoreId(0), 1 << 20, &[0x5e; 64])
        .unwrap();

    device.inject_faults(FaultPlan::none().on_nth(FaultSite::Scrub, 1, FaultKind::PowerLoss));
    let err = device.nf_teardown(nf).expect_err("power loss mid-scrub");
    assert!(matches!(err, SnicError::PowerLoss));
    let ticket = device.pending_scrubs()[0];
    assert_eq!(ticket.base, base, "watermark ticket survives the crash");

    device.restore_power();
    // The dirty region is refused, even with a placement hint.
    let mut hinted = request(1, 4);
    hinted.region_base = Some(base);
    let err = device.nf_launch(hinted.clone()).expect_err("dirty reuse");
    assert!(matches!(err, SnicError::ScrubPending { base: b } if b == base));
    // Still denylisted: not even the management plane may read it.
    let mut buf = [0xffu8; 64];
    assert!(device
        .mem_read(Principal::Management, base + (1 << 20), &mut buf)
        .is_err());

    // Resume from the watermark; the region comes back zeroed and the
    // hinted relaunch is admitted.
    assert!(device.resume_scrubs().unwrap() >= 1);
    device
        .mem_read(Principal::Management, base + (1 << 20), &mut buf)
        .unwrap();
    assert_eq!(buf, [0u8; 64], "secret must not survive the resumed scrub");
    device
        .nf_launch(hinted)
        .expect("region reusable once zeroed");
    // The whole episode — power loss, refusal, resumed scrub, reuse —
    // is a transcript Pass 3 finds nothing in.
    let findings = lint_fault_transcript(device.fault_log());
    assert!(findings.is_empty(), "{findings:?}");
}
