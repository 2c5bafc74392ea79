//! Cross-crate checks of the paper's quantitative claims — the
//! "shape holds" assertions behind EXPERIMENTS.md.

use snic::bench::dpi::{DpiAccel, DpiAccelConfig};
use snic::cost::overhead::{snic_overhead, OverheadConfig};
use snic::cost::tco::{tco_report, TcoInputs};
use snic::mem::planner::PagePolicy;
use snic::nf::dpi::synth_patterns;
use snic::nf::{paper_profile, NfKind};

#[test]
fn silicon_overhead_headline() {
    let o = snic_overhead(&OverheadConfig::default());
    let area = o.total_area_pct();
    let power = o.total_power_pct();
    // Paper: +8.89% area, +11.45% power.
    assert!((area - 8.89).abs() < 0.9, "area {area:.2}%");
    assert!((power - 11.45).abs() < 1.2, "power {power:.2}%");
}

#[test]
fn tco_headline() {
    let r = tco_report(&TcoInputs::default());
    assert!((r.nic_per_core - 38.97).abs() < 0.05);
    assert!((r.host_per_core - 163.56).abs() < 0.1);
    assert!((r.snic_per_core - 42.53).abs() < 0.1);
    assert!((r.advantage_decrease - 0.0837).abs() < 0.002);
}

#[test]
fn table6_tlb_columns() {
    let equal: Vec<u64> = NfKind::ALL
        .iter()
        .map(|&k| paper_profile(k).tlb_entries(&PagePolicy::Equal))
        .collect();
    assert_eq!(equal, vec![11, 28, 25, 10, 37, 183]);
    let flex_high: Vec<u64> = NfKind::ALL
        .iter()
        .map(|&k| paper_profile(k).tlb_entries(&PagePolicy::FlexHigh))
        .collect();
    assert_eq!(flex_high, vec![11, 13, 10, 10, 7, 12]);
}

#[test]
fn figure8_shape() {
    let accel = DpiAccel::new(&synth_patterns(1_000, 1), DpiAccelConfig::default());
    // 64B flat at the frontend cap; 9KB scales ~2x from 16→32 threads.
    let flat64 = (accel.throughput_pps(16, 64) - accel.throughput_pps(48, 64)).abs();
    assert!(flat64 < 1.0);
    let t16 = accel.throughput_pps(16, 9000);
    let t32 = accel.throughput_pps(32, 9000);
    assert!(t32 / t16 > 1.8 && t32 / t16 < 2.2);
}

#[test]
fn figure5_trend_quick() {
    // Degradation grows with cotenancy at 4 MB L2 and the 4-NF point
    // stays small (the paper's 0.93% median / 1.66% p99 neighborhood).
    use snic_bench::{fig5, Scale};
    let scale = Scale {
        flows: 5_000,
        packets: 6_000,
        patterns: 400,
        fw_rules: 200,
        lpm_prefixes: 1_000,
        monitor_ms: 20,
    };
    let rows = fig5::fig5b(&scale, &[2, 8], 4 << 20);
    let means: Vec<f64> = rows
        .iter()
        .map(|(_, pts)| fig5::headline_stats(pts).0)
        .collect();
    assert!(
        means[1] > means[0],
        "8NF {:.3}% vs 2NF {:.3}%",
        means[1],
        means[0]
    );
    assert!(
        means[1] > 0.05,
        "8NF degradation should be visible: {:.3}%",
        means[1]
    );
    assert!(
        means[1] < 25.0,
        "8NF degradation implausibly large: {:.2}%",
        means[1]
    );
    assert!(
        means[0] >= -1.0 && means[0] < 3.0,
        "2NF should be near-zero: {:.3}%",
        means[0]
    );
}

#[test]
fn attack_matrix_inverts_between_modes() {
    use snic::attacks::run_all;
    use snic::core::config::NicMode;
    for (mode, vulnerable) in [(NicMode::Commodity, true), (NicMode::Snic, false)] {
        let outcomes = run_all(mode);
        assert_eq!(outcomes.len(), 4);
        // Verdict and Pass 2 findings are read from the same run: the
        // linter sees every attack that lands and none that is stopped.
        for o in outcomes {
            assert_eq!(o.succeeded, vulnerable, "{o:?}");
            assert_eq!(o.findings.is_empty(), !vulnerable, "{o:?}");
        }
    }
}

#[test]
fn instruction_latency_claims() {
    use snic_bench::fig6;
    let rows = fig6::run();
    for r in &rows {
        // Digesting dominates launch; scrubbing dominates destroy
        // ("memory scrubbing takes 99.99% of the time").
        assert!(r.launch.sha_digest.0 > r.launch.tlb_setup.0 + r.launch.denylisting.0);
        let scrub_frac = r.teardown.scrub.0 as f64 / r.teardown.total().0 as f64;
        assert!(
            scrub_frac > 0.95,
            "{:?}: scrub fraction {scrub_frac:.4}",
            r.kind
        );
    }
}
