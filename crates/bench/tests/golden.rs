//! Golden-snapshot suite: every entry of the experiment registry,
//! rendered at the pinned golden scale exactly as `snicctl exp <name>`
//! renders it, compared byte for byte with `golden/<name>.txt` beside
//! this file. One table-driven test checks every entry, and an entry
//! that fails its own check (the leakage bounds, the soak gate) fails
//! it; the figure, attack, verifier and blast-radius entries also keep a
//! test of their own, and the blast one asserts the containment
//! invariants behind its table.
//! Beside them, `<name>_full.txt` holds `snicctl exp <name> --full` at
//! its own scale; those take minutes, so `scripts/lint.sh` diffs them
//! instead of this suite.
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
use std::sync::OnceLock;

use snic_bench::blast::blast_matrix;
use snic_bench::colo::{outcome_digest, outcome_events};
use snic_bench::differential::{
    assert_commodity_device_leaks, assert_snic_device_contained, assert_uarch_contained,
};
use snic_bench::experiments::REGISTRY;
use snic_bench::golden;
use snic_bench::perf::{PERF_L2_BYTES, PERF_TENANTS};
use snic_bench::streams::{all_traces, SharedTrace};
use snic_bench::Scale;
use snic_types::mix::{fnv1a, FNV_OFFSET};
use snic_uarch::config::MachineConfig;
use snic_uarch::engine::{memo_events, run_colocated_warm, with_helper};
use snic_uarch::stream::{EventSource, SharedReplayStream};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Registry entry `name` rendered at golden scale exactly as `snicctl
/// exp <name>` renders it. Each entry renders once per test binary, so
/// the table-driven test and the per-entry tests below share the work.
fn rendered(name: &str) -> &'static Result<String, String> {
    static TEXTS: OnceLock<Vec<OnceLock<Result<String, String>>>> = OnceLock::new();
    let texts = TEXTS.get_or_init(|| REGISTRY.iter().map(|_| OnceLock::new()).collect());
    let i = REGISTRY.iter().position(|e| e.name == name).expect(name);
    texts[i].get_or_init(|| (REGISTRY[i].run)(&golden::golden_scale(), false))
}

/// Compare entry `name` with `golden/<name>.txt`, or rewrite the
/// snapshot when `SNIC_BLESS=1`. An entry that fails its own check is
/// an `Err` without either.
fn check(name: &str) -> Result<(), String> {
    let text = rendered(name)
        .as_ref()
        .map_err(|e| format!("exp {name} failed its check:\n{e}"))?;
    golden::check_or_bless(&golden_dir().join(format!("{name}.txt")), text)
}

/// Every registry entry matches its golden; a failure names every file
/// that differs, not just the first.
#[test]
fn every_registry_entry_matches_its_golden() {
    let failures: Vec<String> = REGISTRY
        .iter()
        .filter_map(|e| check(e.name).err())
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} goldens differ:\n\n{}",
        failures.len(),
        REGISTRY.len(),
        failures.join("\n\n")
    );
}

#[test]
fn fig5a_matches_golden() {
    check("fig5a").unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn fig5b_matches_golden() {
    check("fig5b").unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn fig6_matches_golden() {
    check("fig6").unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn fig8_matches_golden() {
    check("fig8").unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn exp_attacks_matches_golden() {
    check("attacks").unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn exp_verify_matches_golden() {
    check("verify").unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn blast_matrix_matches_golden_and_invariants_hold() {
    // The snapshot freezes the rendering; the differential assertions
    // freeze the *meaning* (S-NIC contained, commodity leaking), so a
    // blessed-but-wrong snapshot cannot slip through.
    for row in blast_matrix(&golden::golden_scale()) {
        assert_snic_device_contained(row.scenario, &row.device_snic);
        assert_commodity_device_leaks(row.scenario, &row.device_commodity);
        assert_uarch_contained(row.scenario, &row.uarch);
    }
    check("blast_radius").unwrap_or_else(|e| panic!("{e}"));
}

/// The golden directory holds nothing but `<name>.txt` and
/// `<name>_full.txt` files of registry entries (that every entry has its
/// `<name>.txt` is the test above): a renamed or deleted entry cannot
/// leave a snapshot behind that nothing checks.
#[test]
fn golden_dir_holds_only_registry_goldens() {
    let mut stray = Vec::new();
    for file in std::fs::read_dir(golden_dir()).expect("golden dir") {
        let file = file.expect("golden dir entry").file_name();
        let file = file.to_string_lossy();
        let name = file.strip_suffix(".txt").unwrap_or(&file);
        let name = name.strip_suffix("_full").unwrap_or(name);
        if !file.ends_with(".txt") || REGISTRY.iter().all(|e| e.name != name) {
            stray.push(file.into_owned());
        }
    }
    assert!(
        stray.is_empty(),
        "golden files no registry entry renders: {stray:?}"
    );
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
/// helper thread, and at a held-out seed. The pass memo serves more than
/// nine tenths of the measured passes both ways.
#[test]
fn replay_grid_digests_are_pinned() {
    for helper in [false, true] {
        let before = memo_events();
        assert_eq!(
            with_helper(helper, || replay_grid(0xf15a)),
            (62_350_492, 0x82d0_4daf_b928_2eed),
            "seed 0xf15a, helper={helper}"
        );
        let served = memo_events() - before;
        assert!(
            served > 62_350_492 / 2 * 9 / 10,
            "helper={helper}: the memo served {served} events"
        );
    }
    assert_eq!(
        replay_grid(7777),
        (61_707_488, 0x8b8a_e73b_a38d_936c),
        "seed 7777"
    );
}
