//! Experiment harness: one [`experiments::REGISTRY`] entry per table
//! and figure of the paper, reached through `snicctl exp`.
//!
//! Every entry renders the same rows/series the paper reports;
//! `snicctl exp all` runs the lot in one process. Scale is controlled
//! by [`Scale`]: `quick` (CI friendly) vs `paper` (full workload
//! sizes); `snicctl exp` takes `--full` to select the latter.
//!
//! Two accelerator models sit beside the entries that use them: [`dpi`],
//! the Figure 8 DPI cost model, and `profile`, the Table 7 accelerator
//! memory profiles behind Tables 3 and 7.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blast;
pub mod colo;
pub mod differential;
pub mod dpi;
pub mod experiments;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod golden;
pub mod perf;
mod profile;
pub mod streams;
pub mod tables;
pub mod telemetry;

use std::fmt::Write as _;

/// Workload scale for experiments.
///
/// `Hash` because a scale (plus a seed) keys the memoized trace cache
/// in [`streams::all_traces`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scale {
    /// Distinct flows in the ICTF-like pool.
    pub flows: usize,
    /// Packets per NF used to record reference streams.
    pub packets: usize,
    /// DPI pattern count.
    pub patterns: usize,
    /// Firewall rules.
    pub fw_rules: usize,
    /// LPM prefixes.
    pub lpm_prefixes: usize,
    /// Monitor trace duration in milliseconds.
    pub monitor_ms: u64,
}

impl Scale {
    /// Fast scale for tests and smoke runs.
    pub fn quick() -> Scale {
        Scale {
            flows: 14_000,
            packets: 10_000,
            patterns: 1_500,
            fw_rules: 643,
            lpm_prefixes: 4_000,
            monitor_ms: 150,
        }
    }

    /// The paper's workload sizes (§5.1).
    pub fn paper() -> Scale {
        Scale {
            flows: 100_000,
            packets: 60_000,
            patterns: 33_471,
            fw_rules: 643,
            lpm_prefixes: 16_000,
            monitor_ms: 2_000,
        }
    }
}

/// Render a table with a header row.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let line = |cells: &[String], widths: &[usize]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            let _ = write!(s, "{:>w$}  ", c, w = widths[i]);
        }
        s.trim_end().to_string()
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    let _ = writeln!(out, "{}", line(&header_cells, &widths));
    for row in rows {
        let _ = writeln!(out, "{}", line(row, &widths));
    }
    out
}

/// Median of a float slice (panics on empty input).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Percentile (0–100) of a float slice.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let idx = ((p / 100.0) * (values.len() - 1) as f64).round() as usize;
    values[idx.min(values.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_bounds() {
        let mut v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 100.0), 5.0);
        assert_eq!(percentile(&mut v, 50.0), 3.0);
    }

    #[test]
    fn table_renders_aligned() {
        let s = render_table("T", &["a", "long"], &[vec!["1".into(), "2".into()]]);
        assert!(s.contains("== T =="));
        assert!(s.contains("long"));
    }

    #[test]
    fn scales_differ() {
        assert!(Scale::paper().flows > Scale::quick().flows);
    }
}
