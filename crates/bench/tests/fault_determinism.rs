//! The blast-radius matrix's contract, end to end:
//!
//! - the matrix is deterministic and byte-identical whether it runs
//!   inline (every spare thread of the budget held) or on the pool
//!   (transcripts included);
//! - per scenario, the victim's microarchitectural stats are
//!   **bit-identical** across the fault under S-NIC and perturbed on
//!   the commodity machine;
//! - S-NIC fault transcripts lint clean under `snic-verify` Pass 3,
//!   commodity transcripts produce findings for every
//!   tenant-originated fault.

use snic_bench::blast::{
    blast_matrix, device_differential, uarch_diff_from, uarch_jobs, FaultScenario,
};
use snic_bench::differential::{
    assert_commodity_device_leaks, assert_snic_device_contained, assert_uarch_contained,
};
use snic_bench::streams::all_traces;
use snic_bench::Scale;
use snic_core::config::NicMode;
use snic_sim::{par_map, SimJob};
use snic_uarch::budget::Threads;

fn tiny() -> Scale {
    Scale {
        flows: 2_000,
        packets: 2_500,
        patterns: 200,
        fw_rules: 100,
        lpm_prefixes: 400,
        monitor_ms: 20,
    }
}

#[test]
fn matrix_serial_and_parallel_byte_identical() {
    let held = Threads::take(usize::MAX);
    let serial = blast_matrix(&tiny());
    drop(held);
    let parallel = blast_matrix(&tiny());
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.scenario, b.scenario);
        // The uarch verdict compares f64s produced by identical
        // arithmetic on identical integer stats: bit equality expected.
        assert_eq!(a.uarch, b.uarch, "{}", a.scenario.name());
        for (x, y) in [
            (&a.device_commodity, &b.device_commodity),
            (&a.device_snic, &b.device_snic),
        ] {
            assert_eq!(x.victim_intact, y.victim_intact, "{}", a.scenario.name());
            assert_eq!(x.residue_clean, y.residue_clean, "{}", a.scenario.name());
            assert_eq!(x.transcript, y.transcript, "{}", a.scenario.name());
            assert_eq!(x.findings.len(), y.findings.len(), "{}", a.scenario.name());
        }
    }
}

#[test]
fn snic_victim_bit_identical_commodity_perturbed() {
    let traces = all_traces(&tiny(), 0xb1a57);
    for scenario in FaultScenario::ALL {
        let outcomes = par_map(uarch_jobs(scenario, &traces), SimJob::run);
        assert_uarch_contained(scenario, &uarch_diff_from(&outcomes));
    }
}

#[test]
fn snic_transcripts_lint_clean_commodity_dirty() {
    // Tenant-originated faults: the commodity episode must produce
    // Pass-3 findings; the S-NIC episode must lint clean. (Management-
    // plane faults — transient exhaustion, NIC-OS restart — are
    // contained on both personalities at the device layer; commodity
    // still shows the unscrubbed-reuse finding from its scrub-free
    // teardown.)
    for scenario in FaultScenario::ALL {
        assert_commodity_device_leaks(scenario, &device_differential(NicMode::Commodity, scenario));
        assert_snic_device_contained(scenario, &device_differential(NicMode::Snic, scenario));
    }
}

#[test]
fn repeat_runs_are_identical() {
    let a = blast_matrix(&tiny());
    let b = blast_matrix(&tiny());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.uarch, y.uarch);
        assert_eq!(x.device_snic.transcript, y.device_snic.transcript);
        assert_eq!(x.device_commodity.transcript, y.device_commodity.transcript);
    }
}
