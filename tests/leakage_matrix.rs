//! The leakage-bandwidth matrix golden and its differential security
//! bounds (ISSUE 9 acceptance).
//!
//! The full sweep — 3 channel families × 4 geometries × 3 epoch
//! lengths × {commodity, S-NIC} — is pinned byte-for-byte against
//! `tests/golden/leakage.txt` (regenerate intentionally with
//! `SNIC_BLESS=1`). On top of the snapshot, the *differential*
//! assertions hold unconditionally: every S-NIC cell sits under the
//! hard capacity ceiling, every exploitable commodity cell clears the
//! floor, and each family has at least one commodity cell transmitting
//! above 1 bit per simulated second. The smoke subset (the lint-gate
//! form) must measure byte-identically serial (every spare thread of the
//! budget held) vs parallel and diff clean against the full golden.

use snic::bench::golden;
use snic::leakage::{
    full_specs, smoke_specs, ChannelFamily, LeakageMatrix, CELL_BITS, COMMODITY_CAPACITY_FLOOR_BPS,
};
use snic::types::NicMode;
use snic::uarch::budget::Threads;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/leakage.txt")
}

#[test]
fn leakage_matrix_matches_golden_and_security_bounds() {
    let matrix = LeakageMatrix::measure(full_specs(), CELL_BITS);
    let actual = matrix.to_text();

    // The bounds hold regardless of what the golden says: they are the
    // quantitative isolation claim itself.
    let violations = matrix.check_bounds();
    assert!(
        violations.is_empty(),
        "security bounds violated: {violations:#?}"
    );
    for family in ChannelFamily::ALL {
        assert!(
            matrix.cells.iter().any(|c| c.spec.family == family
                && c.spec.mode == NicMode::Commodity
                && c.capacity_bps > COMMODITY_CAPACITY_FLOOR_BPS),
            "family {family:?} has no commodity cell above \
             {COMMODITY_CAPACITY_FLOOR_BPS} bit/s"
        );
    }

    golden::check_or_bless(&golden_path(), &actual).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn smoke_subset_is_serial_parallel_identical_and_diffs_clean_against_golden() {
    let held = Threads::take(usize::MAX);
    let serial = LeakageMatrix::measure(smoke_specs(), CELL_BITS);
    drop(held);
    let parallel = LeakageMatrix::measure(smoke_specs(), CELL_BITS);
    assert_eq!(
        serial.to_text(),
        parallel.to_text(),
        "smoke sweep must be byte-identical serial vs parallel"
    );

    // The smoke rows are a strict subset of the full sweep and must
    // measure to exactly the golden's values (this is what the lint
    // gate relies on).
    if let Ok(text) = std::fs::read_to_string(golden_path()) {
        let golden = LeakageMatrix::from_text(&text).expect("parse golden");
        let mismatches = serial.diff(&golden);
        assert!(mismatches.is_empty(), "smoke vs golden: {mismatches:#?}");
    }
}
