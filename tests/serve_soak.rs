//! The `snicd` soak acceptance suite (ISSUE 8 gate).
//!
//! Runs the seeded ~30-simulated-second multi-tenant overload schedule
//! with its mid-run fault plan and enforces the acceptance criteria:
//! under seeded overload plus a NIC-OS-crash schedule, non-faulted
//! tenants see zero failed requests, the faulted tenant's queue is
//! frozen and then reclaimed, and a snapshot/restart mid-soak yields a
//! byte-identical transcript. The rendered summary is also pinned as a
//! golden snapshot (regenerate intentionally with `SNIC_BLESS=1`).

use snic::bench::golden;
use snic::serve::soak;

const SEED: u64 = 0xBEEF;

fn summary(report: &soak::SoakReport) -> String {
    format!(
        "# snicd soak golden (seed {seed:#x})\n{table}victim: {victim:?}\ndigest: {digest}\n",
        seed = report.seed,
        table = report.table(),
        victim = report.victim,
        digest = report.digest()
    )
}

#[test]
fn soak_meets_the_acceptance_gate() {
    let report = soak::run(SEED);
    report.gate().expect("soak acceptance gate");

    // Spot-check the specific acceptance wording over the raw numbers,
    // independent of gate()'s own implementation.
    let get = |t: &str| {
        report
            .tenants
            .iter()
            .find(|(n, _)| n == t)
            .map(|(_, s)| *s)
            .expect("tenant present")
    };
    let (alpha, bravo, flood) = (get("alpha"), get("bravo"), get("flood"));
    assert_eq!(alpha.failed, 0, "non-faulted tenant saw failures");
    assert_eq!(alpha.shed, 0, "non-faulted tenant was shed");
    assert_eq!(alpha.expired, 0, "non-faulted tenant expired");
    assert_eq!(flood.failed, 0, "overloaded but non-faulted tenant failed");
    assert!(flood.shed > 0, "backpressure never engaged");
    assert!(report.victim.frozen && report.victim.thawed);
    assert!(
        report.victim.held_shed > 0,
        "frozen queue was not reclaimed"
    );
    assert!(bravo.reclaimed > 0, "reclaim accounting missing");
    assert!(report.findings.is_empty(), "Pass 4: {:?}", report.findings);
}

#[test]
fn mid_soak_restart_transcript_is_byte_identical() {
    let n = soak::schedule(SEED).len();
    // One restart in the thick of the overload phase and one right
    // after the fault plan has frozen the victim.
    for split in [n / 3, (2 * n) / 3] {
        let (a, b) = soak::run_with_restart(SEED, split).expect("restart");
        assert_eq!(a.responses, b.responses, "responses at split {split}");
        assert_eq!(a.transcript, b.transcript, "transcript at split {split}");
        assert_eq!(a.state, b.state, "device state at split {split}");
        b.gate().expect("restarted run still passes the gate");
    }
}

#[test]
fn soak_summary_matches_golden() {
    let actual = summary(&soak::run(SEED));
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/soak.txt");
    golden::check_or_bless(&path, &actual).unwrap_or_else(|e| panic!("{e}"));
}
