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
use snic_bench::colo::{outcome_digest, outcome_events};
use snic_bench::differential::assert_blast_invariants;
use snic_bench::golden;
use snic_bench::perf::{PERF_L2_BYTES, PERF_TENANTS};
use snic_bench::streams::{all_traces, SharedTrace};
use snic_bench::Scale;
use snic_types::mix::{fnv1a, FNV_OFFSET};
use snic_uarch::config::MachineConfig;
use snic_uarch::engine::{run_colocated_warm, with_helper};
use snic_uarch::stream::{EventSource, SharedReplayStream};

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

/// The `replay_fig5` grid at `seed`: every `PERF_TENANTS` count under
/// the commodity and S-NIC machines at `PERF_L2_BYTES`, each tenant a
/// quick-scale recording (kinds round-robin) replayed twice with the
/// first pass as warm-up. Returns the events consumed and the FNV-1a
/// fold of each cell's `outcome_digest`, as the benchmark folds them.
fn replay_grid(seed: u64) -> (u64, u64) {
    let traces = all_traces(&Scale::quick(), seed);
    let mut events = 0;
    let mut digest = FNV_OFFSET;
    for &tenants in &PERF_TENANTS {
        for snic in [false, true] {
            let cfg = if snic {
                MachineConfig::snic(tenants as u32, PERF_L2_BYTES)
            } else {
                MachineConfig::commodity(tenants as u32, PERF_L2_BYTES)
            };
            let slots = || (0..tenants).map(|slot| &traces[slot % traces.len()].1);
            let streams: Vec<EventSource> = slots()
                .map(|t| SharedReplayStream::repeated(SharedTrace::clone(t), 2).into())
                .collect();
            let warmups: Vec<u64> = slots().map(|t| t.len() as u64).collect();
            let outcome = run_colocated_warm(&cfg, streams, &warmups);
            assert_eq!(outcome_events(&outcome), warmups.iter().sum::<u64>());
            events += 2 * outcome_events(&outcome);
            digest = fnv1a(digest, &outcome_digest(&outcome).to_le_bytes());
        }
    }
    (events, digest)
}

/// The engine's benchmark grid, pinned: every engine event of
/// `replay_fig5` at its default seed with the fronts inline and on a
/// helper thread, and at a held-out seed.
#[test]
fn replay_grid_digests_are_pinned() {
    for helper in [false, true] {
        assert_eq!(
            with_helper(helper, || replay_grid(0xf15a)),
            (62_350_492, 0x82d0_4daf_b928_2eed),
            "seed 0xf15a, helper={helper}"
        );
    }
    assert_eq!(
        replay_grid(7777),
        (61_707_488, 0x8b8a_e73b_a38d_936c),
        "seed 7777"
    );
}
