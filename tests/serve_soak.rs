//! The `snicd` soak acceptance suite.
//!
//! Runs the seeded ~30-simulated-second multi-tenant overload schedule
//! with its mid-run fault plan and enforces the acceptance criteria:
//! under seeded overload plus a NIC-OS-crash schedule, non-faulted
//! tenants see zero failed requests, the faulted tenant's queue is
//! frozen and then reclaimed, and a snapshot/restart mid-soak yields a
//! byte-identical transcript. The rendered run is the `soak` entry of
//! `snicctl exp`, pinned by the registry's golden test.

use snic::serve::soak::{self, SEED};

/// The seeded run passes the gate; a run that misses any one
/// acceptance criterion fails it, naming what it missed.
#[test]
fn soak_meets_the_acceptance_gate() {
    let report = soak::run(SEED);
    report.gate().expect("soak acceptance gate");

    let mut alpha_shed = report.clone();
    let (_, alpha) = alpha_shed
        .tenants
        .iter_mut()
        .find(|(n, _)| n == "alpha")
        .unwrap();
    alpha.shed = 1;
    let e = alpha_shed.gate().unwrap_err();
    assert!(
        e.starts_with("non-faulted tenant 'alpha' was disrupted"),
        "{e}"
    );

    let mut never_thawed = report.clone();
    never_thawed.victim.thawed = false;
    let e = never_thawed.gate().unwrap_err();
    assert_eq!(e, "victim 'bravo' was never thawed by reclaim");

    let mut no_drain = report;
    no_drain
        .responses
        .retain(|r| !r.contains(r#""op":"drain""#));
    assert_eq!(no_drain.gate().unwrap_err(), "drain never completed");
}

/// A run restored from a snapshot in the thick of the overload phase,
/// or right after the fault plan has frozen the victim, is the
/// uninterrupted run byte for byte; a restarted run that diverges in
/// any of responses, transcript or device state is refused.
#[test]
fn mid_soak_restart_transcript_is_byte_identical() {
    let report = soak::run(SEED);
    let n = soak::schedule(SEED).len();
    for split in [n / 3, (2 * n) / 3] {
        let restarted = soak::run_with_restart(SEED, split).expect("restart");
        assert_eq!(report.check_restart(split, &restarted), Ok(()));

        let mut diverged = [restarted.clone(), restarted.clone(), restarted];
        diverged[0].responses[0].push(' ');
        diverged[1].transcript.push(' ');
        diverged[2].state.push(' ');
        for (what, diverged) in ["responses", "transcript", "device state"]
            .iter()
            .zip(&diverged)
        {
            assert_eq!(
                report.check_restart(split, diverged).unwrap_err(),
                format!("restart at line {split}: {what} diverged from the uninterrupted run")
            );
        }
    }
}
