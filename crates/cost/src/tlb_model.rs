//! The calibrated fully-associative TLB (CAM) cost model.
//!
//! Structure: a fixed periphery cost (decoder, comparators' shared
//! logic), a linear per-entry cell cost, and a superlinear match-line /
//! search term — the standard shape of CAM scaling. Coefficients are
//! least-squares fits (relative-error weighted) against the ten per-unit
//! `(entries, area, power)` points recoverable from Tables 2–5 of the
//! paper at 28 nm / 2 GHz:
//!
//! | entries | source |
//! |---------|--------|
//! | 2, 3    | Table 4 (DMA, VPP; the paper notes 2 ≈ 3 in McPAT) |
//! | 5, 54, 70 | Table 3 (RAID/DPI/ZIP clusters, ÷16) |
//! | 13, 51  | Table 5 (Flex policies, ÷48 cores) |
//! | 183, 256, 512 | Table 2 (per-core TLBs, ÷4 cores) |

/// Baseline 4-core ARM Cortex-A9 area (mm², 28 nm) implied by Table 2
/// (each row's Total minus its TLB addition is constant at this value).
pub const A9_QUAD_AREA_MM2: f64 = 4.939;
/// Baseline 4-core A9 power (W) implied by Table 2.
pub const A9_QUAD_POWER_W: f64 = 1.883;
/// The paper's reference configuration (4-core A9 + 512-entry TLBs),
/// which §5.2 uses as the denominator for the accelerator and VPP/DMA
/// percentages.
pub const A9_QUAD_512TLB_AREA_MM2: f64 = 5.102;
/// Power of the reference configuration.
pub const A9_QUAD_512TLB_POWER_W: f64 = 1.971;

// Area model: c0 + c1·N + c2·N^1.7 (mm² per TLB unit).
const AREA_C0: f64 = 2.991995e-3;
const AREA_C1: f64 = 1.976335e-5;
const AREA_C2: f64 = 6.457373e-7;
const AREA_EXP: f64 = 1.7;

// Power model: c0 + c1·N + c2·N^1.35 (W per TLB unit).
const POWER_C0: f64 = 1.389198e-3;
const POWER_C1: f64 = -2.347059e-6;
const POWER_C2: f64 = 4.718857e-6;
const POWER_EXP: f64 = 1.35;

/// Area of one fully-associative TLB with `entries` entries, in mm².
///
/// # Panics
///
/// Panics on zero entries (a TLB with no entries is a config bug).
pub fn tlb_area_mm2(entries: u64) -> f64 {
    assert!(entries > 0, "TLB with zero entries");
    let n = entries as f64;
    AREA_C0 + AREA_C1 * n + AREA_C2 * n.powf(AREA_EXP)
}

/// Power of one fully-associative TLB with `entries` entries, in W.
pub fn tlb_power_w(entries: u64) -> f64 {
    assert!(entries > 0, "TLB with zero entries");
    let n = entries as f64;
    POWER_C0 + POWER_C1 * n + POWER_C2 * n.powf(POWER_EXP)
}

/// A (area, power) pair for some hardware addition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Area in mm².
    pub area_mm2: f64,
    /// Power in W.
    pub power_w: f64,
}

impl CostEstimate {
    /// Cost of `units` identical TLBs of `entries` entries.
    pub fn tlbs(entries: u64, units: u64) -> CostEstimate {
        CostEstimate {
            area_mm2: tlb_area_mm2(entries) * units as f64,
            power_w: tlb_power_w(entries) * units as f64,
        }
    }

    /// The zero cost.
    pub fn zero() -> CostEstimate {
        CostEstimate {
            area_mm2: 0.0,
            power_w: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ten calibration points: (entries, per-unit area, per-unit power).
    fn calibration_points() -> Vec<(u64, f64, f64)> {
        vec![
            (2, 0.037 / 12.0, 0.017 / 12.0),
            (3, 0.037 / 12.0, 0.017 / 12.0),
            (5, 0.050 / 16.0, 0.023 / 16.0),
            (13, 0.150 / 48.0, 0.069 / 48.0),
            (51, 0.214 / 48.0, 0.106 / 48.0),
            (54, 0.074 / 16.0, 0.037 / 16.0),
            (70, 0.091 / 16.0, 0.044 / 16.0),
            (183, 0.045 / 4.0, 0.026 / 4.0),
            (256, 0.060 / 4.0, 0.035 / 4.0),
            (512, 0.163 / 4.0, 0.088 / 4.0),
        ]
    }

    #[test]
    fn area_fit_within_8_percent_everywhere() {
        for (n, area, _) in calibration_points() {
            let rel = (tlb_area_mm2(n) - area).abs() / area;
            assert!(
                rel < 0.08,
                "N={n}: model {} vs paper {area} ({rel:.3})",
                tlb_area_mm2(n)
            );
        }
    }

    #[test]
    fn power_fit_within_6_percent_everywhere() {
        for (n, _, power) in calibration_points() {
            let rel = (tlb_power_w(n) - power).abs() / power;
            assert!(
                rel < 0.06,
                "N={n}: model {} vs paper {power} ({rel:.3})",
                tlb_power_w(n)
            );
        }
    }

    #[test]
    fn mean_fit_error_small() {
        let pts = calibration_points();
        let mean_area: f64 = pts
            .iter()
            .map(|&(n, a, _)| (tlb_area_mm2(n) - a).abs() / a)
            .sum::<f64>()
            / pts.len() as f64;
        let mean_power: f64 = pts
            .iter()
            .map(|&(n, _, p)| (tlb_power_w(n) - p).abs() / p)
            .sum::<f64>()
            / pts.len() as f64;
        assert!(mean_area < 0.04, "mean area error {mean_area:.3}");
        assert!(mean_power < 0.03, "mean power error {mean_power:.3}");
    }

    #[test]
    fn models_are_monotone() {
        let mut last_a = 0.0;
        let mut last_p = 0.0;
        for n in 1..=2048u64 {
            let a = tlb_area_mm2(n);
            let p = tlb_power_w(n);
            assert!(a > last_a, "area not monotone at {n}");
            assert!(p > last_p, "power not monotone at {n}");
            last_a = a;
            last_p = p;
        }
    }

    #[test]
    fn table2_rows_reproduce() {
        // Table 2: N-core NICs scale linearly in core count.
        for (entries, area4, power4) in [
            (183u64, 0.045, 0.026),
            (256, 0.060, 0.035),
            (512, 0.163, 0.088),
        ] {
            let c4 = CostEstimate::tlbs(entries, 4);
            assert!(
                (c4.area_mm2 - area4).abs() / area4 < 0.08,
                "{entries}: {c4:?}"
            );
            assert!(
                (c4.power_w - power4).abs() / power4 < 0.06,
                "{entries}: {c4:?}"
            );
            let c48 = CostEstimate::tlbs(entries, 48);
            assert!(
                (c48.area_mm2 - 12.0 * c4.area_mm2).abs() < 1e-9,
                "linear in units"
            );
        }
    }

    #[test]
    fn baseline_constants_consistent_with_table2() {
        // Total column = baseline + addition, for each Table 2 row.
        for (entries, total_area, total_power) in [
            (183u64, 4.984, 1.909),
            (256, 4.999, 1.913),
            (512, 5.102, 1.971),
        ] {
            let add = CostEstimate::tlbs(entries, 4);
            let area = A9_QUAD_AREA_MM2 + add.area_mm2;
            let power = A9_QUAD_POWER_W + add.power_w;
            assert!((area - total_area).abs() < 0.02, "{entries}: area {area}");
            assert!(
                (power - total_power).abs() < 0.01,
                "{entries}: power {power}"
            );
        }
    }
}
