//! The commodity-vs-S-NIC containment invariants, stated once.
//!
//! The blast-radius experiment's claim is differential: the *same*
//! injected fault that leaks across tenants on a commodity NIC is
//! contained by S-NIC's trusted instructions. The assertions below are
//! the reusable statement of that claim, shared by the unit tests in
//! [`crate::blast`], the end-to-end determinism suite
//! (`tests/fault_determinism.rs`) and the `blast_radius` golden test —
//! so every layer checks the identical invariant instead of each
//! hand-rolling its own subset.

use crate::blast::{DeviceDiff, FaultScenario, UarchDiff};

/// Device-layer invariant under S-NIC: the victim's observables are
/// bit-identical across the fault, the recycled region scrubs to
/// zeros, and the fault transcript lints clean under Pass 3.
pub fn assert_snic_device_contained(scenario: FaultScenario, snic: &DeviceDiff) {
    assert!(
        snic.victim_intact,
        "S-NIC/{}: victim observables perturbed",
        scenario.name()
    );
    assert!(
        snic.residue_clean,
        "S-NIC/{}: recycled region not zeroed",
        scenario.name()
    );
    assert!(
        snic.findings.is_empty(),
        "S-NIC/{}: transcript should lint clean: {:?}\n{}",
        scenario.name(),
        snic.findings,
        snic.transcript
    );
}

/// Device-layer invariant on the commodity personality: the fault is
/// *visible* to Pass 3 — every scenario produces at least one finding
/// (tenant faults propagate; even management-plane faults expose the
/// scrub-free teardown as unscrubbed reuse).
pub fn assert_commodity_device_leaks(scenario: FaultScenario, commodity: &DeviceDiff) {
    assert!(
        !commodity.findings.is_empty(),
        "commodity/{}: transcript should lint dirty:\n{}",
        scenario.name(),
        commodity.transcript
    );
}

/// Microarchitectural invariant: the victim's `NfRunStats` are
/// bit-identical across the fault under S-NIC (partitioned L2,
/// per-tenant bus slots) and perturbed on the commodity machine
/// (shared L2, FCFS bus).
pub fn assert_uarch_contained(scenario: FaultScenario, uarch: &UarchDiff) {
    assert!(
        uarch.snic_bit_identical,
        "{}: S-NIC victim stats changed across the fault (Δ {:+.4}%)",
        scenario.name(),
        uarch.snic_delta_pct
    );
    assert!(
        !uarch.commodity_bit_identical,
        "{}: commodity victim stats unexpectedly unchanged",
        scenario.name()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blast::device_differential;
    use snic_core::config::NicMode;

    #[test]
    #[should_panic(expected = "victim observables perturbed")]
    fn snic_assertion_rejects_commodity_diff() {
        // The commodity NfCrash diff leaks by construction; feeding it
        // to the S-NIC invariant must trip the assertion.
        let c = device_differential(NicMode::Commodity, FaultScenario::NfCrash);
        assert_snic_device_contained(FaultScenario::NfCrash, &c);
    }

    #[test]
    #[should_panic(expected = "should lint dirty")]
    fn commodity_assertion_rejects_snic_diff() {
        let s = device_differential(NicMode::Snic, FaultScenario::NfCrash);
        assert_commodity_device_leaks(FaultScenario::NfCrash, &s);
    }
}
