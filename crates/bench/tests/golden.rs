//! Golden-snapshot suite: every figure pipeline rendered at the pinned
//! golden scale and compared byte-for-byte against the checked-in
//! documents under `tests/golden/`.
//!
//! On an intentional behaviour change, regenerate the snapshots with
//!
//! ```text
//! SNIC_BLESS=1 cargo test -p snic-bench --test golden
//! ```
//!
//! and review the diff like any other code change. An *unintentional*
//! diff here means a simulation result moved — exactly what this suite
//! exists to catch.

use std::path::PathBuf;

use snic_bench::blast::{blast_matrix, render_matrix};
use snic_bench::differential::assert_blast_invariants;
use snic_bench::golden;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `actual` against the checked-in snapshot `name`, or rewrite
/// the snapshot when `SNIC_BLESS=1`.
fn check(name: &str, actual: &str) {
    golden::check_or_bless(&golden_path(name), actual).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn fig5a_matches_golden() {
    check("fig5a.txt", &golden::fig5a_text(&golden::golden_scale()));
}

#[test]
fn fig5b_matches_golden() {
    check("fig5b.txt", &golden::fig5b_text(&golden::golden_scale()));
}

#[test]
fn fig6_matches_golden() {
    check("fig6.txt", &golden::fig6_text());
}

#[test]
fn fig8_matches_golden() {
    check("fig8.txt", &golden::fig8_text(&golden::golden_scale()));
}

/// Render registry entry `name` the way `snicctl exp <name>` does. The
/// attack and verifier entries ignore `Scale`, so any scale pins them.
fn exp_text(name: &str) -> String {
    let run = snic_bench::experiments::find(name).expect(name).run;
    run(&golden::golden_scale(), false)
}

#[test]
fn exp_attacks_matches_golden() {
    check("attacks.txt", &exp_text("attacks"));
}

#[test]
fn exp_verify_matches_golden() {
    check("verify.txt", &exp_text("verify"));
}

#[test]
fn blast_matrix_matches_golden_and_invariants_hold() {
    let rows = blast_matrix(&golden::golden_scale());
    // The snapshot freezes the rendering; the differential assertions
    // freeze the *meaning* (S-NIC contained, commodity leaking), so a
    // blessed-but-wrong snapshot cannot slip through.
    for row in &rows {
        assert_blast_invariants(row);
    }
    check("blast.txt", &render_matrix(&rows));
}
