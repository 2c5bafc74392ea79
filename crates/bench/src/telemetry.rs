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
use snic_sim::{par_map, SimJob};
use snic_telemetry::{Recorder, Summary, TelemetrySink, TraceEvent};
use snic_uarch::budget::Threads;
use snic_uarch::engine::RunOutcome;

use crate::fig5::colocation_jobs;
use crate::streams::all_traces;
use crate::{median, Scale};

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
pub fn run_smoke(scale: &Scale, sink: Option<Arc<dyn TelemetrySink>>) -> Vec<RunOutcome> {
    par_map(smoke_jobs(scale, sink), SimJob::run)
}

/// Run the smoke point under a fresh [`Recorder`] and return the
/// outcomes plus everything it captured.
pub fn record_smoke(scale: &Scale) -> (Vec<RunOutcome>, Summary, Vec<TraceEvent>) {
    let recorder = Arc::new(Recorder::new());
    let outcomes = run_smoke(scale, Some(Arc::clone(&recorder) as Arc<dyn TelemetrySink>));
    // Cannot fail: every clone went into a job, and `SimJob::run`
    // consumed and dropped each job before `run_smoke` returned.
    let recorder = Arc::try_unwrap(recorder).expect("no job holds the recorder after the run");
    let (summary, events) = recorder.into_parts();
    (outcomes, summary, events)
}

/// Percent of sink-off wall clock a live [`Recorder`] may add.
const OVERHEAD_BUDGET_PCT: f64 = 10.0;

/// Timed (sink-off, sink-on) pairs behind one gate verdict.
const OVERHEAD_PAIRS: usize = 5;

/// The gate's verdict on timed `(sink-off s, sink-on s)` pairs: the
/// median of the per-pair sink-on / sink-off ratios, as a percent
/// overhead — `Ok` within [`OVERHEAD_BUDGET_PCT`], `Err` beyond it.
/// A pair's two runs share whatever the host was doing at the time, so
/// the ratio cancels slow drift, and the median ignores one or two
/// pairs a noisy neighbour hit.
fn overhead_verdict(pairs: &[(f64, f64)]) -> Result<f64, f64> {
    let mut ratios: Vec<f64> = pairs.iter().map(|&(off, on)| on / off).collect();
    let pct = (median(&mut ratios) - 1.0) * 100.0;
    if pct > OVERHEAD_BUDGET_PCT {
        Err(pct)
    } else {
        Ok(pct)
    }
}

/// The telemetry-overhead gate: telemetry must be near-free when off
/// and cheap when on.
///
/// Times [`OVERHEAD_PAIRS`] pairs of smoke-point runs, one with no sink
/// (the `NullSink` zero-cost path) and one with a live [`Recorder`],
/// alternating which arm goes first (off→on, on→off, …) so neither arm
/// always runs on a warmer host. The gate holds every spare thread of
/// the budget for its whole run, so both arms take the same
/// single-thread schedule: no pool workers, no engine helper. It
/// checks the outcomes are bit-identical across arms and pairs, and
/// returns `Err` if [`overhead_verdict`] finds the median per-pair
/// overhead above `OVERHEAD_BUDGET_PCT`.
pub fn overhead_gate() -> Result<String, String> {
    let _serial = Threads::take(usize::MAX);
    let scale = smoke_scale();
    // Warm the memoized trace cache so neither arm pays for trace
    // recording.
    all_traces(&scale, SMOKE_SEED);

    let time_off = || {
        let t = Instant::now();
        let off = run_smoke(&scale, None);
        (t.elapsed().as_secs_f64(), off)
    };
    let time_on = || {
        let t = Instant::now();
        let on = record_smoke(&scale);
        (t.elapsed().as_secs_f64(), on)
    };
    let diverged =
        |a: &[RunOutcome], b: &[RunOutcome]| a.iter().zip(b).position(|(x, y)| x.nfs != y.nfs);
    let mut out = String::new();
    let mut pairs = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut baseline: Option<Vec<RunOutcome>> = None;
    for pair in 0..OVERHEAD_PAIRS {
        let ((off_s, off), (on_s, (on, summary, events))) = if pair % 2 == 0 {
            let off = time_off();
            (off, time_on())
        } else {
            let on = time_on();
            (time_off(), on)
        };
        if let Some(i) = diverged(&off, &on) {
            return Err(format!(
                "{out}pair {pair} job {i}: sink-on outcome diverged from sink-off"
            ));
        }
        let baseline = baseline.get_or_insert_with(|| off.clone());
        if let Some(i) = diverged(baseline, &off) {
            return Err(format!("{out}pair {pair} job {i}: run not deterministic"));
        }
        if summary.is_empty() {
            return Err(format!("{out}pair {pair}: recorder captured no counters"));
        }
        if events.is_empty() {
            return Err(format!("{out}pair {pair}: recorder captured no events"));
        }
        pairs.push((off_s, on_s));
        let _ = writeln!(
            out,
            "pair {pair}: sink-off {off_s:.3}s  sink-on {on_s:.3}s  ({:+.2}%)",
            (on_s / off_s - 1.0) * 100.0
        );
    }

    let verdict = overhead_verdict(&pairs);
    let (Ok(pct) | Err(pct)) = verdict;
    let _ = writeln!(
        out,
        "telemetry overhead: median of {OVERHEAD_PAIRS} paired ratios {pct:+.2}% \
         (budget {OVERHEAD_BUDGET_PCT:.0}%)"
    );
    if verdict.is_err() {
        return Err(format!(
            "{out}FAIL: telemetry overhead {pct:+.2}% exceeds budget {OVERHEAD_BUDGET_PCT:.0}%"
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
        let off = run_smoke(&scale, None);
        let (on, summary, events) = record_smoke(&scale);
        assert_eq!(on.len(), off.len());
        for (a, b) in on.iter().zip(&off) {
            assert_eq!(a.nfs, b.nfs, "sink must not perturb outcomes");
        }
        assert!(!summary.is_empty());
        assert!(!events.is_empty());
    }

    #[test]
    fn recorded_trace_round_trips_through_chrome_format() {
        let (_, _, events) = record_smoke(&smoke_scale());
        let doc = to_chrome_trace(&events);
        let back = parse_chrome_trace(&doc).expect("valid Chrome trace JSON");
        assert_eq!(back, events, "export → parse must be lossless");
    }

    #[test]
    fn overhead_verdict_judges_the_median_pair() {
        // A constant +15 % fails however quiet the host.
        let slow: Vec<(f64, f64)> = [1.0, 1.3, 0.9, 1.1, 1.2]
            .iter()
            .map(|&off| (off, off * 1.15))
            .collect();
        let pct = overhead_verdict(&slow).expect_err("+15 % is over budget");
        assert!((pct - 15.0).abs() < 1e-9, "{pct}");
        // Equal arms with two pairs hit hard in either direction pass:
        // the outliers land at the ends of the sorted ratios.
        let noisy = [
            (1.0, 1.25),
            (1.2, 1.19),
            (1.0, 0.78),
            (0.9, 0.92),
            (1.1, 1.1),
        ];
        let pct = overhead_verdict(&noisy).expect("noisy but equal");
        assert!(pct.abs() < 2.0, "{pct}");
    }
}
