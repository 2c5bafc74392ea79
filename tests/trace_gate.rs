//! `snicctl trace billion --gate` end to end, as its own process.
//!
//! The gate checks the run's peak resident set (`VmHWM`) against
//! `SNIC_MEM_BUDGET_MB`. Inside a test binary that peak would also count
//! every other test the binary runs alongside it, so the gated runs
//! spawn the built `snicctl` instead and judge only its own memory.

use std::process::Command;

/// Run `snicctl trace billion <args> --gate`: its exit code and stdout.
fn gated(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_snicctl"))
        .args(["trace", "billion"])
        .args(args)
        .arg("--gate")
        .output()
        .expect("snicctl runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into(),
    )
}

/// A miniature gated run exercises the identity pre-check, the
/// exact-count check and the RSS budget path end to end.
#[test]
fn a_miniature_gated_run_passes_every_check() {
    let (code, out) = gated(&["--tenants", "4", "--events", "40000", "--shards", "2"]);
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("serial≡sharded identity OK"), "{out}");
    assert!(out.contains("gate: OK (40000 events"), "{out}");
}

/// One event per tenant is the smallest run the gate accepts, and it
/// counts exactly.
#[test]
fn one_event_per_tenant_passes_the_exact_count() {
    let (code, out) = gated(&["--tenants", "4", "--events", "4"]);
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("gate: OK (4 events"), "{out}");
}
