//! The fig5 telemetry smoke point: one small colocation sweep that can
//! run with or without a sink attached.
//!
//! This is the workload behind three consumers:
//!
//! - `snicctl telemetry record` — runs it with a [`Recorder`] and
//!   writes the Chrome trace + summary;
//! - `snicctl telemetry overhead` ([`overhead_gate`]) — times it
//!   sink-off vs sink-on and fails `scripts/lint.sh` if instrumentation
//!   costs more than the overhead budget;
//! - tests asserting sink-on and sink-off statistics are identical.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use snic_nf::NfKind;
use snic_sim::{execute, Exec, SimJob};
use snic_telemetry::{Recorder, Summary, TelemetrySink, TraceEvent};
use snic_uarch::engine::RunOutcome;

use crate::fig5::colocation_jobs;
use crate::streams::all_traces;
use crate::Scale;

/// L2 size of the smoke point (one mid-curve fig5a setting).
pub const SMOKE_L2_BYTES: u64 = 256 << 10;

/// Trace seed of the smoke point (fig5a's, so traces are shared with a
/// real fig5a run at the same scale).
pub const SMOKE_SEED: u64 = 0xf15a;

/// The smoke scale: small enough for a lint-gate, big enough that the
/// engine loop dominates the wall clock.
pub fn smoke_scale() -> Scale {
    Scale {
        flows: 5_000,
        packets: 6_000,
        patterns: 300,
        fw_rules: 120,
        lpm_prefixes: 500,
        monitor_ms: 20,
    }
}

/// Build the smoke jobs: every NF kind colocated with every other at
/// [`SMOKE_L2_BYTES`], commodity + S-NIC personalities. When `sink` is
/// set, every job reports to it.
pub fn smoke_jobs(scale: &Scale, sink: Option<Arc<dyn TelemetrySink>>) -> Vec<SimJob> {
    let traces = all_traces(scale, SMOKE_SEED);
    let mut jobs = Vec::new();
    for &focus in &NfKind::ALL {
        for &partner in &NfKind::ALL {
            jobs.extend(colocation_jobs(&traces, focus, &[partner], SMOKE_L2_BYTES));
        }
    }
    if let Some(sink) = sink {
        jobs = jobs
            .into_iter()
            .map(|j| j.with_sink(Arc::clone(&sink)))
            .collect();
    }
    jobs
}

/// Run the smoke point and return the raw outcomes (job order is
/// deterministic: focus-major, then partner, commodity before S-NIC).
pub fn run_smoke(
    exec: Exec,
    scale: &Scale,
    sink: Option<Arc<dyn TelemetrySink>>,
) -> Vec<RunOutcome> {
    execute(exec, smoke_jobs(scale, sink))
}

/// Run the smoke point under a fresh [`Recorder`] and return the
/// outcomes plus everything it captured.
pub fn record_smoke(exec: Exec, scale: &Scale) -> (Vec<RunOutcome>, Summary, Vec<TraceEvent>) {
    let recorder = Arc::new(Recorder::new());
    let outcomes = run_smoke(
        exec,
        scale,
        Some(Arc::clone(&recorder) as Arc<dyn TelemetrySink>),
    );
    let recorder = Arc::try_unwrap(recorder).expect("no job holds the recorder after execute");
    let (summary, events) = recorder.into_parts();
    (outcomes, summary, events)
}

/// Percent of sink-off wall clock a live [`Recorder`] may add.
const OVERHEAD_BUDGET_PCT: f64 = 10.0;

/// The telemetry-overhead gate: telemetry must be near-free when off
/// and cheap when on.
///
/// Runs the smoke point alternately with no sink (the `NullSink`
/// zero-cost path) and with a live [`Recorder`], takes the minimum wall
/// clock of each arm over three repetitions (minimum, not mean — the
/// floor is the least noisy location statistic on a shared CI box),
/// asserts the outcomes are bit-identical, and returns `Err` if the
/// recorded arm exceeds the sink-off arm by more than
/// `OVERHEAD_BUDGET_PCT`.
pub fn overhead_gate() -> Result<String, String> {
    const REPS: usize = 3;
    let scale = smoke_scale();

    // Warm the memoized trace cache so neither arm pays for trace
    // recording.
    let baseline = run_smoke(Exec::Serial, &scale, None);

    let mut out = String::new();
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    for rep in 0..REPS {
        let t = Instant::now();
        let off = run_smoke(Exec::Serial, &scale, None);
        let off_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let (on, summary, events) = record_smoke(Exec::Serial, &scale);
        let on_s = t.elapsed().as_secs_f64();

        for (i, (a, b)) in off.iter().zip(&on).enumerate() {
            assert_eq!(
                a.nfs, b.nfs,
                "rep {rep} job {i}: sink-on outcome diverged from sink-off"
            );
        }
        for (i, (a, b)) in baseline.iter().zip(&off).enumerate() {
            assert_eq!(a.nfs, b.nfs, "rep {rep} job {i}: run not deterministic");
        }
        assert!(!summary.is_empty(), "recorder captured no counters");
        assert!(!events.is_empty(), "recorder captured no events");

        best_off = best_off.min(off_s);
        best_on = best_on.min(on_s);
        let _ = writeln!(out, "rep {rep}: sink-off {off_s:.3}s  sink-on {on_s:.3}s");
    }

    let overhead_pct = (best_on / best_off - 1.0) * 100.0;
    let _ = writeln!(
        out,
        "telemetry overhead: best sink-off {best_off:.3}s, best sink-on {best_on:.3}s \
         => {overhead_pct:+.2}% (budget {OVERHEAD_BUDGET_PCT:.0}%)"
    );
    if overhead_pct > OVERHEAD_BUDGET_PCT {
        return Err(format!(
            "{out}FAIL: telemetry overhead {overhead_pct:+.2}% exceeds budget {OVERHEAD_BUDGET_PCT:.0}%"
        ));
    }
    out.push_str("OK");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snic_telemetry::{parse_chrome_trace, to_chrome_trace};

    #[test]
    fn smoke_sink_on_equals_sink_off() {
        let scale = smoke_scale();
        let off = run_smoke(Exec::Serial, &scale, None);
        let (on, summary, events) = record_smoke(Exec::Serial, &scale);
        assert_eq!(on.len(), off.len());
        for (a, b) in on.iter().zip(&off) {
            assert_eq!(a.nfs, b.nfs, "sink must not perturb outcomes");
        }
        assert!(!summary.is_empty());
        assert!(!events.is_empty());
    }

    #[test]
    fn recorded_trace_round_trips_through_chrome_format() {
        let (_, _, events) = record_smoke(Exec::Serial, &smoke_scale());
        let doc = to_chrome_trace(&events);
        let back = parse_chrome_trace(&doc).expect("valid Chrome trace JSON");
        assert_eq!(back, events, "export → parse must be lossless");
    }
}
