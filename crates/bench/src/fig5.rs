//! Figure 5: IPC degradation from cache partitioning + bus arbitration.
//!
//! For each experimental setting the paper "calculate[s] the median IPC
//! degradation of a function by running every possible colocation with
//! other functions, and determining the median IPC decrease", with
//! 1st/99th percentile error bars.
//!
//! Every colocation is an independent simulation, so the sweeps build
//! the full job list up front and fan it across [`snic_sim`]'s worker
//! pool. Results come back in input order and each job replays shared
//! [`SharedTrace`] recordings instead of private `Vec` clones, so the
//! parallel sweep is bit-identical to the serial one (proved in
//! `crates/bench/tests/parallel_determinism.rs`).

use std::fmt::Write as _;

use snic_nf::NfKind;
use snic_sim::{par_map, SimJob};
use snic_uarch::config::MachineConfig;
use snic_uarch::engine::RunOutcome;
use snic_uarch::stream::{EventSource, SharedReplayStream};

use crate::streams::{all_traces, trace_of, SharedTrace, TraceSet};
use crate::{median, percentile, render_table, Scale};

/// One measured point: an NF at one setting.
#[derive(Debug, Clone)]
pub struct DegradationPoint {
    /// The function under measurement.
    pub kind: NfKind,
    /// Median IPC degradation (percent) across colocations.
    pub median_pct: f64,
    /// 1st percentile.
    pub p1_pct: f64,
    /// 99th percentile.
    pub p99_pct: f64,
}

/// A stream that replays the recorded trace twice: the first pass warms
/// the caches (as §5.3's 1-billion-instruction warmup does), the second
/// is measured. The recording is shared, not copied — the old owned
/// version materialised four full copies of every trace per measured
/// point (two streams × two machine configs).
fn doubled(trace: &SharedTrace) -> EventSource {
    SharedReplayStream::repeated(SharedTrace::clone(trace), 2).into()
}

/// One colocation run of `kinds` on `cfg`, tenant order as given.
pub(crate) fn colocation_job(traces: &TraceSet, kinds: &[NfKind], cfg: MachineConfig) -> SimJob {
    let streams = kinds
        .iter()
        .map(|&k| doubled(trace_of(traces, k)))
        .collect();
    let warmups = kinds
        .iter()
        .map(|&k| trace_of(traces, k).len() as u64)
        .collect();
    SimJob::new(cfg, streams).with_warmups(warmups)
}

/// The two jobs (commodity baseline, S-NIC) measuring one colocation:
/// NF `focus` (index 0) plus `partners`.
pub(crate) fn colocation_jobs(
    traces: &TraceSet,
    focus: NfKind,
    partners: &[NfKind],
    l2_bytes: u64,
) -> [SimJob; 2] {
    let kinds: Vec<NfKind> = std::iter::once(focus)
        .chain(partners.iter().copied())
        .collect();
    let tenants = kinds.len() as u32;
    [
        colocation_job(traces, &kinds, MachineConfig::commodity(tenants, l2_bytes)),
        colocation_job(traces, &kinds, MachineConfig::snic(tenants, l2_bytes)),
    ]
}

/// Degradation of the focus NF from one (baseline, snic) outcome pair.
fn degradation(pair: &[RunOutcome]) -> f64 {
    pair[1].ipc_degradation_vs(&pair[0], 0)
}

/// Fold a flat list of per-colocation degradations — `group` values per
/// focus NF, [`NfKind::ALL`] focus order — into [`DegradationPoint`]s.
fn points_from(degs: &[f64], group: usize) -> Vec<DegradationPoint> {
    NfKind::ALL
        .iter()
        .zip(degs.chunks_exact(group))
        .map(|(&kind, chunk)| {
            let mut degs = chunk.to_vec();
            DegradationPoint {
                kind,
                median_pct: median(&mut degs.clone()),
                p1_pct: percentile(&mut degs.clone(), 1.0),
                p99_pct: percentile(&mut degs, 99.0),
            }
        })
        .collect()
}

/// Figure 5a: vary L2 size with two colocated NFs.
pub fn fig5a(scale: &Scale, l2_sizes: &[u64]) -> Vec<(u64, Vec<DegradationPoint>)> {
    let traces = all_traces(scale, 0xf15a);
    // Job order: size-major, then focus, then partner — two jobs
    // (commodity, snic) per colocation.
    let mut jobs = Vec::new();
    for &l2 in l2_sizes {
        for &focus in &NfKind::ALL {
            for &partner in &NfKind::ALL {
                jobs.extend(colocation_jobs(&traces, focus, &[partner], l2));
            }
        }
    }
    let outcomes = par_map(jobs, SimJob::run);
    let degs: Vec<f64> = outcomes.chunks_exact(2).map(degradation).collect();
    let per_size = NfKind::ALL.len() * NfKind::ALL.len();
    l2_sizes
        .iter()
        .zip(degs.chunks_exact(per_size))
        .map(|(&l2, chunk)| (l2, points_from(chunk, NfKind::ALL.len())))
        .collect()
}

/// Figure 5b: vary cotenancy at a fixed 4 MB L2.
///
/// At 8 and 16 NFs the full colocation space is sampled by rotating the
/// six kinds through the co-tenant slots (the paper's space is likewise
/// too large to enumerate at high cotenancy).
pub fn fig5b(
    scale: &Scale,
    nf_counts: &[usize],
    l2_bytes: u64,
) -> Vec<(usize, Vec<DegradationPoint>)> {
    let traces = all_traces(scale, 0xf15b);
    let rotations = NfKind::ALL.len();
    let mut jobs = Vec::new();
    for &n in nf_counts {
        // Unreachable from the CLI: every caller passes constant counts
        // >= 2 (`fig5b_report`'s sweeps and the tests below).
        assert!(n >= 2, "cotenancy below 2 is meaningless");
        for &focus in &NfKind::ALL {
            // Rotate which kinds fill the other n-1 slots.
            for rot in 0..rotations {
                let partners: Vec<NfKind> = (0..n - 1)
                    .map(|i| NfKind::ALL[(rot + i) % rotations])
                    .collect();
                jobs.extend(colocation_jobs(&traces, focus, &partners, l2_bytes));
            }
        }
    }
    let outcomes = par_map(jobs, SimJob::run);
    let degs: Vec<f64> = outcomes.chunks_exact(2).map(degradation).collect();
    let per_count = NfKind::ALL.len() * rotations;
    nf_counts
        .iter()
        .zip(degs.chunks_exact(per_count))
        .map(|(&n, chunk)| (n, points_from(chunk, rotations)))
        .collect()
}

/// The headline §5.3 statistics at one cotenancy: (mean-of-medians,
/// worst 99th percentile).
pub fn headline_stats(points: &[DegradationPoint]) -> (f64, f64) {
    let mean = points.iter().map(|p| p.median_pct).sum::<f64>() / points.len() as f64;
    let worst = points.iter().map(|p| p.p99_pct).fold(f64::MIN, f64::max);
    (mean, worst)
}

fn point_rows(
    label: String,
    points: &[DegradationPoint],
) -> impl Iterator<Item = Vec<String>> + '_ {
    points.iter().map(move |p| {
        vec![
            label.clone(),
            p.kind.name().to_string(),
            format!("{:.4}", p.median_pct),
            format!("{:.4}", p.p1_pct),
            format!("{:.4}", p.p99_pct),
        ]
    })
}

/// Figure 5a as text: IPC degradation vs. L2 cache size with two
/// colocated NFs. `full` sweeps the paper's twelve sizes, 8 KB .. 16 MB.
pub fn fig5a_report(scale: &Scale, full: bool) -> Result<String, String> {
    let sizes: Vec<u64> = if full {
        (0..12).map(|i| (8 * 1024u64) << i).collect()
    } else {
        vec![64 << 10, 512 << 10, 4 << 20, 16 << 20]
    };
    let results = fig5a(scale, &sizes);
    let rows: Vec<Vec<String>> = results
        .iter()
        .flat_map(|(l2, points)| point_rows(format!("{}KB", l2 / 1024), points))
        .collect();
    let mut out = render_table(
        "Figure 5a: IPC degradation (%) vs L2 size, 2 colocated NFs (paper: ~0-3%, worst at small caches; FW/DPI/NAT worst)",
        &["L2", "NF", "median", "p1", "p99"],
        &rows,
    );
    if let Some((_, points)) = results.iter().find(|(l2, _)| *l2 == 4 << 20) {
        let (mean, worst) = headline_stats(points);
        let _ = writeln!(
            out,
            "@4MB L2, 2 NFs: mean-of-medians {mean:.2}% (paper 0.24%), worst p99 {worst:.2}%"
        );
    }
    Ok(out)
}

/// Figure 5b as text: IPC degradation vs. degree of cotenancy at a 4 MB
/// L2 (the Marvell NIC's size). `full` adds the 3- and 16-NF points.
pub fn fig5b_report(scale: &Scale, full: bool) -> Result<String, String> {
    let counts: &[usize] = if full { &[2, 3, 4, 8, 16] } else { &[2, 4, 8] };
    let results = fig5b(scale, counts, 4 << 20);
    let rows: Vec<Vec<String>> = results
        .iter()
        .flat_map(|(n, points)| point_rows(format!("{n} NFs"), points))
        .collect();
    let mut out = render_table(
        "Figure 5b: IPC degradation (%) vs cotenancy @4MB L2 (paper: 2NF 0.24%, 4NF 0.93%/1.66%, 8NF 3.41%/5.12%, 16NF 9.44%/13.71%)",
        &["cotenancy", "NF", "median", "p1", "p99"],
        &rows,
    );
    for (n, points) in &results {
        let (mean, worst) = headline_stats(points);
        let _ = writeln!(
            out,
            "{n} NFs: mean-of-medians {mean:.2}%, worst p99 {worst:.2}%"
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            flows: 5_000,
            packets: 6_000,
            patterns: 300,
            fw_rules: 120,
            lpm_prefixes: 500,
            monitor_ms: 20,
        }
    }

    #[test]
    fn fig5b_degradation_grows_with_cotenancy() {
        let rows = fig5b(&tiny(), &[2, 8], 4 << 20);
        let (mean2, _) = headline_stats(&rows[0].1);
        let (mean8, _) = headline_stats(&rows[1].1);
        assert!(
            mean8 > mean2,
            "expected monotone degradation: 2NF {mean2:.3}% vs 8NF {mean8:.3}%"
        );
        assert!(
            mean8 > 0.05,
            "8NF degradation should be visible: {mean8:.3}%"
        );
    }

    #[test]
    fn fig5a_produces_all_nfs_per_size() {
        let rows = fig5a(&tiny(), &[256 << 10]);
        assert_eq!(rows.len(), 1);
        for (_, points) in &rows {
            assert_eq!(points.len(), 6);
            for p in points {
                assert!(p.p1_pct <= p.median_pct + 1e-9);
                assert!(p.median_pct <= p.p99_pct + 1e-9);
            }
        }
    }

    #[test]
    fn small_cache_hurts_more_than_big_cache() {
        let rows = fig5a(&tiny(), &[64 << 10, 8 << 20]);
        let (small_mean, _) = headline_stats(&rows[0].1);
        let (big_mean, _) = headline_stats(&rows[1].1);
        assert!(
            small_mean >= big_mean - 0.05,
            "small cache {small_mean:.3}% should not beat big cache {big_mean:.3}%"
        );
    }
}
