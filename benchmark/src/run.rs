//! One run of one workload: set-up, timed trials, correctness checks,
//! and (traced) the per-layer ledger.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::host::{proc_status_mib, usable_shards};
use crate::layers::{self, Ledger, KIND_NAMES};
use crate::metrics::PER_LAYER;
use crate::serve::{
    churn_script, dataplane_script, replay_in_process, replay_with_spans, snicd_bin, socket_trial,
    Script, ServeTrial, Snicd, OUT_DIR, WINDOW,
};
use crate::sim::{ReplayGrid, SimTrial, StreamMix, FILL_SPAN};
use crate::span::{chrome_trace, covered_ns, Span, SpanId, Tracer};
use crate::stats::{median, percentile, supported_tail};
use crate::{Sizes, DEFAULT_SEED};

/// Events of one `replay_fig5` trial at the default seed and full size:
/// the `total_events` of `BENCH_uarch.json`, whose trajectory this
/// workload continues.
pub const REPLAY_EVENTS_AT_DEFAULT_SEED: u64 = 62_350_492;
/// In-process lines replayed with spans in a traced serving run.
const SPAN_REPLAY_LINES: usize = 8_000;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// One of [`crate::WORKLOADS`].
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Sizes of the run.
    pub sizes: Sizes,
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Shards the sharded trials used (1 for the other workloads).
    pub shards: usize,
    /// Timed trials.
    pub trials: usize,
    /// Operations attempted (trials for the simulation workloads,
    /// requests for the serving ones).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// End-to-end samples by metric; the reported value is the median.
    pub end_to_end: Vec<(&'static str, Vec<f64>)>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Ledger,
    /// Counts that must repeat bit for bit at a given seed.
    pub exact: Vec<(&'static str, u64)>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

/// Call `trial` until one more would overshoot `seconds`, at least
/// `min` times; returns how many ran.
fn measure_for(seconds: f64, min: usize, mut trial: impl FnMut(usize)) -> usize {
    let begin = Instant::now();
    let mut n = 0;
    loop {
        trial(n);
        n += 1;
        let used = begin.elapsed().as_secs_f64();
        if n >= min && used + used / n as f64 > seconds {
            return n;
        }
    }
}

/// Every layer measured in isolation (each for a hundredth of the run),
/// and every traced-only metric at 0: a workload that never enters the
/// layer leaves it there.
fn isolated_layers(args: &RunArgs, grid: &ReplayGrid) -> Ledger {
    let slice = Duration::from_secs_f64((args.seconds / 100.0).clamp(0.002, 0.2));
    let mut ledger = layers::measure(&args.sizes, args.seed, slice, grid);
    for (name, _) in PER_LAYER {
        ledger.entry(name).or_insert(0.0);
    }
    ledger
}

fn write_trace(workload: &str, spans: &[Span], notes: &mut Vec<String>) {
    let path = format!("{OUT_DIR}/trace-{workload}.json");
    match std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, chrome_trace(workload, spans)))
    {
        Ok(()) => notes.push(format!("trace: {} spans written to {path}", spans.len())),
        Err(e) => notes.push(format!("trace: could not write {path}: {e}")),
    }
}

fn overhead_share(traced_secs: &[f64], untraced_secs: &[f64]) -> f64 {
    let base = median(untraced_secs);
    (median(traced_secs) - base) / base
}

// ------------------------------------------------------------------
// Simulation workloads
// ------------------------------------------------------------------

/// Trials whose digest or event count differs from the first trial's, or
/// from the count the workload is defined to have.
fn sim_failures(trials: &[SimTrial], want_events: Option<u64>, want_digest: Option<u64>) -> u64 {
    let first = &trials[0];
    trials
        .iter()
        .filter(|t| {
            t.digest != want_digest.unwrap_or(first.digest)
                || t.events != want_events.unwrap_or(first.events)
        })
        .count() as u64
}

/// The counts of a simulation trial that must repeat bit for bit.
fn sim_exact(trial: &SimTrial) -> Vec<(&'static str, u64)> {
    vec![
        ("events_per_trial", trial.events),
        ("outcome_digest", trial.digest),
    ]
}

fn sim_end_to_end(setup: Vec<f64>, trials: &[SimTrial]) -> Vec<(&'static str, Vec<f64>)> {
    let secs: Vec<f64> = trials.iter().map(|t| t.secs).collect();
    vec![
        ("setup_s", setup),
        (
            "throughput_per_s",
            trials.iter().map(|t| t.events as f64 / t.secs).collect(),
        ),
        ("latency_p50_ms", vec![median(&secs) * 1e3]),
        ("latency_p90_ms", vec![percentile(&secs, 90.0) * 1e3]),
        (
            "peak_rss_mib",
            vec![proc_status_mib("self", "VmHWM:").unwrap_or(f64::NAN)],
        ),
    ]
}

/// Time `snicd` from spawn to an accepted connection (for the runs whose
/// workload never starts one).
fn boot_ms(notes: &mut Vec<String>) -> f64 {
    let samples: Vec<f64> = (0..3)
        .filter_map(|_| match Snicd::spawn(&snicd_bin(), false) {
            Ok(snicd) => {
                let ms = snicd.boot_ms;
                snicd.drain().ok().map(|()| ms)
            }
            Err(e) => {
                notes.push(format!("snicd.boot_ms: {e}"));
                None
            }
        })
        .collect();
    if samples.is_empty() {
        0.0
    } else {
        median(&samples)
    }
}

fn replay_events_check(args: &RunArgs) -> Option<u64> {
    (args.seed == DEFAULT_SEED && args.sizes.div == 1).then_some(REPLAY_EVENTS_AT_DEFAULT_SEED)
}

fn run_replay(args: &RunArgs) -> RunResult {
    let scale = args.sizes.scale;
    let start = Instant::now();
    let grid = ReplayGrid::record(&scale, args.seed);
    let mut setup = vec![start.elapsed().as_secs_f64()];
    let mut out = RunResult {
        shards: 1,
        ..RunResult::default()
    };

    if !args.trace {
        // The cache now holds this seed, so further set-up samples redo
        // the recording work directly.
        for _ in 0..args.sizes.setup_repeats {
            let start = Instant::now();
            std::hint::black_box(ReplayGrid::record_uncached(&scale, args.seed));
            setup.push(start.elapsed().as_secs_f64());
        }
        let mut trials = Vec::new();
        measure_for(args.seconds, args.sizes.min_trials, |_| {
            trials.push(grid.run_trial(None))
        });
        out.trials = trials.len();
        out.attempted = trials.len() as u64;
        out.failed = sim_failures(&trials, replay_events_check(args), None);
        out.exact = sim_exact(&trials[0]);
        out.end_to_end = sim_end_to_end(setup, &trials);
        return out;
    }

    let tracer = Tracer::new();
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    for unit in 0..args.sizes.traced_pairs as u64 {
        plain.push(grid.run_trial(None));
        let span = tracer.open("trial", None, unit);
        let trial = grid.run_trial(Some((&tracer, span, unit)));
        tracer.close(span, trial.events);
        traced.push(trial);
    }
    let all: Vec<SimTrial> = plain.iter().chain(&traced).cloned().collect();
    out.trials = all.len();
    out.attempted = all.len() as u64;
    out.failed = sim_failures(&all, replay_events_check(args), None);
    out.exact = sim_exact(&all[0]);

    let spans = tracer.spans();
    let mut ledger = isolated_layers(args, &grid);
    let (self_ns, dur_ns) = run_span_shares(&spans, "run_colocated_warm");
    ledger.insert(
        "uarch.engine.self_share",
        self_ns as f64 / dur_ns.max(1) as f64,
    );
    ledger.insert(
        "trace_overhead_share",
        overhead_share(&secs_of(&traced), &secs_of(&plain)),
    );
    ledger.insert("snicd.boot_ms", boot_ms(&mut out.notes));
    write_trace(&args.workload, &spans, &mut out.notes);
    out.per_layer = ledger;
    out
}

fn secs_of(trials: &[SimTrial]) -> Vec<f64> {
    trials.iter().map(|t| t.secs).collect()
}

/// Over every span called `name`: summed self time and summed duration.
fn run_span_shares(spans: &[Span], name: &str) -> (u64, u64) {
    let mut total = (0, 0);
    for (id, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
        total.0 += crate::span::self_ns(spans, id as SpanId);
        total.1 += s.dur_ns();
    }
    total
}

fn run_stream(args: &RunArgs) -> RunResult {
    let scale = args.sizes.scale;
    let shards = usable_shards(2);
    let mix = StreamMix::new(&scale, args.seed, args.sizes.stream_events);
    let mut out = RunResult {
        shards,
        ..RunResult::default()
    };
    if shards < 2 {
        out.notes.push(
            "host has one hardware thread: trials run and are recorded with shards=1".to_string(),
        );
    }

    if !args.trace {
        // Set-up is what precedes the first event: the tenant mix and one
        // build of the job (32 NF structures and packet generators).
        let mut setup = Vec::new();
        for _ in 0..args.sizes.setup_repeats + 1 {
            let start = Instant::now();
            let again = StreamMix::new(&scale, args.seed, args.sizes.stream_events);
            std::hint::black_box(again.spec(shards).build());
            setup.push(start.elapsed().as_secs_f64());
        }
        let mut trials = Vec::new();
        measure_for(args.seconds, args.sizes.min_trials, |_| {
            trials.push(mix.run_trial(shards))
        });
        out.trials = trials.len();
        out.attempted = trials.len() as u64;
        out.failed = sim_failures(&trials, Some(mix.events), None);
        out.exact = sim_exact(&trials[0]);
        out.end_to_end = sim_end_to_end(setup, &trials);
        return out;
    }

    let tracer = Arc::new(Tracer::new());
    let (mut traced, mut plain, mut run_spans) = (Vec::new(), Vec::new(), Vec::new());
    for unit in 0..args.sizes.traced_pairs as u64 {
        plain.push(mix.run_trial(shards));
        let (trial, run_span) = mix.run_traced_trial(shards, &tracer, unit);
        traced.push(trial);
        run_spans.push(run_span);
    }
    // One serial trial: with one thread nothing overlaps, so shares of
    // the run add up, and its digest is what sharded runs must equal.
    let (serial, serial_run) = mix.run_traced_trial(1, &tracer, 100);
    let sharded: Vec<SimTrial> = plain.iter().chain(&traced).cloned().collect();
    out.trials = sharded.len() + 1;
    out.attempted = out.trials as u64;
    out.failed = sim_failures(&sharded, Some(mix.events), Some(serial.digest))
        + sim_failures(std::slice::from_ref(&serial), Some(mix.events), None);
    out.exact = sim_exact(&serial);

    let spans = tracer.spans();
    let grid = ReplayGrid::record(&scale, args.seed);
    let mut ledger = isolated_layers(args, &grid);
    let fills: Vec<&Span> = spans
        .iter()
        .filter(|s| s.parent == Some(serial_run))
        .collect();
    let run = &spans[serial_run as usize];
    let fill_ns = covered_ns(
        run.start_ns,
        run.end_ns,
        &fills
            .iter()
            .map(|s| (s.start_ns, s.end_ns))
            .collect::<Vec<_>>(),
    );
    let regen_share = fill_ns as f64 / run.dur_ns() as f64;
    ledger.insert("bench.regen_share", regen_share);
    ledger.insert("uarch.engine.self_share", 1.0 - regen_share);
    ledger.insert("bench.fill_calls", fills.len() as f64);
    out.exact.push(("bench.fill_calls", fills.len() as u64));

    let imbalance: Vec<f64> = run_spans
        .iter()
        .map(|&run_span| {
            let mut per_shard = vec![0u64; shards];
            for s in spans
                .iter()
                .filter(|s| s.parent == Some(run_span) && s.name == FILL_SPAN)
            {
                per_shard[mix.shard_of(s.lane as usize, shards)] += s.dur_ns();
            }
            let mean = per_shard.iter().sum::<u64>() as f64 / shards as f64;
            *per_shard.iter().max().expect("at least one shard") as f64 / mean
        })
        .collect();
    ledger.insert("sim.shard_imbalance", median(&imbalance));
    ledger.insert("sim.shard_speedup", serial.secs / median(&secs_of(&traced)));
    ledger.insert(
        "trace_overhead_share",
        overhead_share(&secs_of(&traced), &secs_of(&plain)),
    );
    ledger.insert("snicd.boot_ms", boot_ms(&mut out.notes));

    // Cross-check: the share the isolated per-kind rates predict for the
    // serial run, from each kind's event budget.
    let predicted_fill_s: f64 = KIND_NAMES
        .iter()
        .map(|(kind, name)| {
            let budget: u64 = mix
                .tenants
                .iter()
                .filter(|t| t.kind == *kind)
                .map(|t| t.events)
                .sum();
            budget as f64 / ledger[name]
        })
        .sum();
    out.notes.push(format!(
        "bench.regen_share: traced {:.3}; predicted from isolated nf.regen.* rates and per-kind budgets {:.3} \
         ({:.3} s of fills over a {:.3} s serial run)",
        regen_share,
        predicted_fill_s / (run.dur_ns() as f64 / 1e9),
        predicted_fill_s,
        run.dur_ns() as f64 / 1e9,
    ));
    write_trace(&args.workload, &spans, &mut out.notes);
    out.per_layer = ledger;
    out
}

// ------------------------------------------------------------------
// Serving workloads
// ------------------------------------------------------------------

struct ServeShape {
    script: Script,
    window: usize,
    journal: bool,
}

fn serve_shape(args: &RunArgs) -> ServeShape {
    if args.workload == "serve_dataplane" {
        ServeShape {
            script: dataplane_script(args.seed, args.sizes.dataplane_requests),
            window: WINDOW,
            journal: false,
        }
    } else {
        ServeShape {
            script: churn_script(args.seed, args.sizes.churn_lifecycles),
            window: 1,
            journal: true,
        }
    }
}

/// The samples one trial contributes to the latency metrics: requests
/// on the data plane, whole NF lifecycles under churn (half its verbs
/// take ~0.15 ms and half ~1 ms, so a per-request median sits on the
/// seam).
fn latency_ms(trial: &ServeTrial) -> Vec<f64> {
    if trial.lifecycle_ms.is_empty() {
        trial.request_us.iter().map(|us| us / 1e3).collect()
    } else {
        trial.lifecycle_ms.clone()
    }
}

/// Alternating pairs of a short data-plane trial with and without
/// `--journal`; the difference per line is what the write-ahead journal
/// costs. A churn line takes ~400 us, which buries the journal's few
/// microseconds under the host's noise; a data-plane line takes ~7 us.
fn journal_pairs(bin: &Path, args: &RunArgs) -> Vec<(ServeTrial, ServeTrial)> {
    let script = dataplane_script(args.seed, args.sizes.dataplane_requests / 3);
    let oracle = replay_in_process(&script);
    let trial = |journal| socket_trial(bin, &script, WINDOW, journal, &oracle.digest, None);
    (0..args.sizes.traced_pairs + 1)
        .map(|_| (trial(true), trial(false)))
        .collect()
}

fn run_serve(args: &RunArgs) -> RunResult {
    let shape = serve_shape(args);
    let bin = snicd_bin();
    let oracle = replay_in_process(&shape.script);
    let requests = shape.script.requests().len();
    let mut out = RunResult {
        shards: 1,
        ..RunResult::default()
    };
    out.exact = vec![("requests_per_trial", requests as u64)];
    if oracle.failed > 0 {
        out.notes.push(format!(
            "in-process replay: {} of {} lines were refused; the workload no longer measures service",
            oracle.failed,
            shape.script.lines.len()
        ));
    }
    let trial = |journal: bool, trace: Option<(&Tracer, u64)>| {
        socket_trial(
            &bin,
            &shape.script,
            shape.window,
            journal,
            &oracle.digest,
            trace,
        )
    };

    if !args.trace {
        let mut trials = Vec::new();
        measure_for(args.seconds, args.sizes.min_trials, |_| {
            trials.push(trial(shape.journal, None))
        });
        out.trials = trials.len();
        out.attempted = trials.iter().map(|t| t.attempted).sum();
        out.failed = trials.iter().map(|t| t.failed).sum::<u64>() + oracle.failed;
        let done: Vec<&ServeTrial> = trials.iter().filter(|t| t.secs.is_finite()).collect();
        if done.is_empty() {
            return out;
        }
        let lat: Vec<Vec<f64>> = done.iter().map(|t| latency_ms(t)).collect();
        out.end_to_end = vec![
            ("setup_s", done.iter().map(|t| t.setup_s).collect()),
            (
                "throughput_per_s",
                done.iter()
                    .map(|t| (t.attempted - t.failed) as f64 / t.secs)
                    .collect(),
            ),
            (
                "latency_p50_ms",
                lat.iter().map(|l| percentile(l, 50.0)).collect(),
            ),
            (
                "latency_p90_ms",
                lat.iter().map(|l| percentile(l, 90.0)).collect(),
            ),
            (
                "peak_rss_mib",
                vec![done.iter().map(|t| t.peak_rss_mib).fold(f64::NAN, f64::max)],
            ),
        ];
        return out;
    }

    let tracer = Tracer::new();
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    for unit in 0..args.sizes.traced_pairs as u64 {
        plain.push(trial(shape.journal, None));
        traced.push(trial(shape.journal, Some((&tracer, unit))));
    }
    let journal_pairs = if shape.journal {
        journal_pairs(&bin, args)
    } else {
        Vec::new()
    };
    replay_with_spans(
        &shape.script,
        SPAN_REPLAY_LINES.min(shape.script.lines.len()),
        &tracer,
    );

    let all: Vec<&ServeTrial> = plain
        .iter()
        .chain(&traced)
        .chain(
            journal_pairs
                .iter()
                .flat_map(|(with, without)| [with, without]),
        )
        .collect();
    out.trials = all.len();
    out.attempted = all.iter().map(|t| t.attempted).sum();
    out.failed = all.iter().map(|t| t.failed).sum::<u64>() + oracle.failed;
    if all.iter().any(|t| !t.secs.is_finite()) {
        out.failed = out.failed.max(1);
        return out;
    }

    let grid = ReplayGrid::record(&args.sizes.scale, args.seed);
    let mut ledger = isolated_layers(args, &grid);
    let secs = |trials: &[ServeTrial]| -> Vec<f64> { trials.iter().map(|t| t.secs).collect() };
    let socket_us = median(&secs(&plain)) / requests as f64 * 1e6;
    ledger.insert(
        "snicd.io_us_per_req",
        socket_us - oracle.secs / requests as f64 * 1e6,
    );
    if !journal_pairs.is_empty() {
        let per_line: Vec<f64> = journal_pairs
            .iter()
            .map(|(with, without)| (with.secs - without.secs) / with.attempted as f64 * 1e6)
            .collect();
        ledger.insert("snicd.journal_us_per_line", median(&per_line));
    }
    let pooled: Vec<f64> = plain
        .iter()
        .flat_map(|t| t.request_us.iter().copied())
        .collect();
    ledger.insert("snicd.latency_p99_us", percentile(&pooled, 99.0));
    ledger.insert(
        "snicd.latency_max_us",
        pooled.iter().copied().fold(0.0, f64::max),
    );
    out.notes.push(format!(
        "snicd.latency_*: {} samples; the highest percentile with ten samples beyond it is p{}",
        pooled.len(),
        supported_tail(pooled.len()).unwrap_or(50.0),
    ));
    ledger.insert(
        "snicd.boot_ms",
        median(&all.iter().map(|t| t.boot_ms).collect::<Vec<_>>()),
    );
    ledger.insert(
        "trace_overhead_share",
        overhead_share(&secs(&traced), &secs(&plain)),
    );
    write_trace(&args.workload, &tracer.spans(), &mut out.notes);
    out.per_layer = ledger;
    out
}

/// Run one workload.
pub fn run(args: &RunArgs) -> RunResult {
    match args.workload.as_str() {
        "replay_fig5" => run_replay(args),
        "stream_mix32" => run_stream(args),
        "serve_dataplane" | "serve_churn" => run_serve(args),
        other => panic!("unknown workload '{other}' (checked by the argument parser)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_for_stops_before_overshooting_and_honours_the_minimum() {
        let mut calls = 0;
        let n = measure_for(0.0, 3, |_| calls += 1);
        assert_eq!((n, calls), (3, 3));
        let n = measure_for(0.05, 1, |_| std::thread::sleep(Duration::from_millis(20)));
        assert!((2..=3).contains(&n), "{n} trials of 20 ms in 50 ms");
    }

    #[test]
    fn failures_compare_with_the_first_trial_and_the_defined_count() {
        let t = |events, digest| SimTrial {
            secs: 1.0,
            events,
            digest,
        };
        assert_eq!(
            sim_failures(&[t(5, 1), t(5, 1), t(5, 2), t(4, 1)], None, None),
            2
        );
        assert_eq!(sim_failures(&[t(5, 1), t(5, 1)], Some(6), None), 2);
        assert_eq!(sim_failures(&[t(5, 1), t(5, 1)], Some(5), Some(9)), 2);
        assert_eq!(sim_failures(&[t(5, 1)], Some(5), Some(1)), 0);
    }

    #[test]
    fn overhead_is_relative_to_the_untraced_median() {
        assert!((overhead_share(&[1.1, 1.2, 1.0], &[1.0, 1.0, 1.0]) - 0.1).abs() < 1e-12);
    }
}
