//! The repo's benchmark: four workloads over the simulation stack and the
//! serving stack, every layer measured from outside. See `README.md` in
//! this directory and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run, JSON on the last line
//! run.sh                                                 every workload, untraced then traced
//! run.sh --traced | --smoke | --compare N [--vary-seed] | --record
//! ```

mod host;
mod layers;
mod metrics;
mod run;
mod serve;
mod sim;
mod span;
mod stats;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use snic_bench::Scale;
use snic_telemetry::{parse_json, Json};

use crate::host::Host;
use crate::metrics::{unit_of, END_TO_END, PER_LAYER};
use crate::run::{RunArgs, RunResult};
use crate::stats::{iqr_share, median, quartiles};

/// The workloads, in report order.
pub const WORKLOADS: [&str; 4] = [
    "replay_fig5",
    "stream_mix32",
    "serve_dataplane",
    "serve_churn",
];
/// The fig5a seed, so the default replay is the `BENCH_uarch.json` one.
pub const DEFAULT_SEED: u64 = 0xf15a;
/// Where `--record` writes the latest numbers with host metadata.
const LEDGER_PATH: &str = "benchmark/LEDGER.json";

/// How much work one trial of each workload does.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Workload scale of the simulation stack.
    pub scale: Scale,
    /// 1 for real runs; 20 for `--smoke` (every size divided by it).
    pub div: u64,
    /// Events of one `stream_mix32` trial.
    pub stream_events: u64,
    /// Requests of one `serve_dataplane` trial.
    pub dataplane_requests: usize,
    /// NF lifecycles of one `serve_churn` trial.
    pub churn_lifecycles: usize,
    /// Extra times set-up is repeated so `setup_s` is a median.
    pub setup_repeats: usize,
    /// Fewest timed trials of an untraced run.
    pub min_trials: usize,
    /// Untraced/traced trial pairs a traced run alternates.
    pub traced_pairs: usize,
}

impl Sizes {
    /// The sizes every reported number uses.
    pub fn full() -> Sizes {
        Sizes {
            scale: Scale::quick(),
            div: 1,
            stream_events: 16_000_000,
            dataplane_requests: 150_000,
            churn_lifecycles: 1_500,
            setup_repeats: 4,
            min_trials: 3,
            traced_pairs: 2,
        }
    }

    /// One twentieth of everything: exercises every path in seconds.
    pub fn smoke() -> Sizes {
        let full = Sizes::full();
        Sizes {
            scale: Scale {
                packets: full.scale.packets / 20,
                ..full.scale
            },
            div: 20,
            stream_events: full.stream_events / 20,
            dataplane_requests: full.dataplane_requests / 20,
            churn_lifecycles: full.churn_lifecycles / 20,
            setup_repeats: 0,
            min_trials: 1,
            traced_pairs: 1,
        }
    }
}

// ------------------------------------------------------------------
// Arguments
// ------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    /// One workload, one process (the contract's command line).
    Single(String),
    /// Every workload untraced, then traced.
    All,
    /// Every workload traced only.
    Traced,
    /// N full sets, compared against the bounds.
    Compare(usize),
}

#[derive(Debug, Clone)]
struct Cli {
    mode: Mode,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    vary_seed: bool,
    record: bool,
}

const USAGE: &str = "usage: run.sh [--workload NAME --trace 0|1] [--seed N] [--seconds S] \
     [--traced | --smoke | --compare N [--vary-seed]] [--record]";

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: Mode::All,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        vary_seed: false,
        record: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload '{w}'; one of {WORKLOADS:?}"));
                }
                cli.mode = Mode::Single(w.clone());
            }
            "--seed" => cli.seed = parse_u64(value()?).ok_or("--seed needs an integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--traced" => cli.mode = Mode::Traced,
            "--smoke" => cli.smoke = true,
            "--compare" => {
                let n = parse_u64(value()?)
                    .filter(|n| *n >= 2)
                    .ok_or("--compare needs N >= 2")?;
                cli.mode = Mode::Compare(n as usize);
            }
            "--vary-seed" => cli.vary_seed = true,
            "--record" => cli.record = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(cli)
}

// ------------------------------------------------------------------
// BENCHMARK.json: run length and bounds
// ------------------------------------------------------------------

struct Contract {
    run_seconds: f64,
    /// `(better, bound)` by end-to-end metric name.
    bounds: BTreeMap<String, (String, f64)>,
}

fn read_contract() -> Result<Contract, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Json::as_num)
        .ok_or("BENCHMARK.json: run_seconds")?;
    let mut bounds = BTreeMap::new();
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: end_to_end")?
    {
        let text = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
        let (Some(name), Some(better), Some(bound)) = (
            text("name"),
            text("better"),
            m.get("bound").and_then(Json::as_num),
        ) else {
            return Err(
                "BENCHMARK.json: an end_to_end entry lacks name, better or bound".to_string(),
            );
        };
        bounds.insert(name, (better, bound));
    }
    Ok(Contract {
        run_seconds,
        bounds,
    })
}

/// How long one run measures: `--seconds`, else a token length for
/// `--smoke` (one trial each), else the contract's `run_seconds`.
fn run_seconds(cli: &Cli, contract: &Contract) -> f64 {
    cli.seconds.unwrap_or(if cli.smoke {
        0.05
    } else {
        contract.run_seconds
    })
}

// ------------------------------------------------------------------
// One run: report and the contract's last line
// ------------------------------------------------------------------

fn metric_json(name: &str, value: f64) -> String {
    format!(
        "\"{name}\":{{\"value\":{value},\"unit\":\"{}\"}}",
        unit_of(name)
    )
}

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn result_line(result: &RunResult, trace: bool) -> String {
    let metrics: Vec<String> = if trace {
        PER_LAYER
            .iter()
            .map(|(n, _)| metric_json(n, result.per_layer[n]))
            .collect()
    } else {
        result
            .end_to_end
            .iter()
            .map(|(n, samples)| metric_json(n, median(samples)))
            .collect()
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(",")
    )
}

/// Everything else a reader or the orchestrator wants from a run: host,
/// seed, trial and shard counts, quartiles, exact counts.
fn detail_line(args: &RunArgs, result: &RunResult, host: &Host) -> String {
    let quartile_json: Vec<String> = result
        .end_to_end
        .iter()
        .map(|(n, s)| {
            let [q1, q2, q3] = quartiles(s);
            format!(
                "\"{n}\":{{\"q1\":{q1},\"median\":{q2},\"q3\":{q3},\"samples\":{}}}",
                s.len()
            )
        })
        .collect();
    let exact: Vec<String> = result
        .exact
        .iter()
        .map(|(n, v)| format!("\"{n}\":\"{v:#x}\""))
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":\"{:#x}\",\"seconds\":{},\"trace\":{},\"size_divisor\":{},\
         \"shards\":{},\"trials\":{},\"host\":{},\"quartiles\":{{{}}},\"exact\":{{{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.sizes.div,
        result.shards,
        result.trials,
        host.to_json(),
        quartile_json.join(","),
        exact.join(","),
    )
}

fn single(cli: &Cli, workload: &str) -> Result<ExitCode, String> {
    let seconds = run_seconds(cli, &read_contract()?);
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds,
        trace: cli.trace,
        sizes: if cli.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        },
    };
    let host = Host::probe();
    eprintln!(
        "benchmark: {} seed={:#x} seconds={} trace={} | nproc={} cpu=\"{}\" {} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        host.nproc,
        host.cpu_model,
        host.rustc,
        host.commit
    );
    let result = run::run(&args);
    for note in &result.notes {
        eprintln!("benchmark: {note}");
    }
    let complete = if args.trace {
        !result.per_layer.is_empty()
    } else {
        result.end_to_end.len() == END_TO_END.len()
            && result
                .end_to_end
                .iter()
                .all(|(_, s)| !s.is_empty() && s.iter().all(|v| v.is_finite()))
    };
    if !complete {
        return Err(format!(
            "{}: no trial completed ({} of {} operations failed); nothing to report",
            args.workload, result.failed, result.attempted
        ));
    }
    eprintln!(
        "benchmark: {} trials={} shards={} attempted={} failed={}",
        args.workload, result.trials, result.shards, result.attempted, result.failed
    );
    for (name, samples) in &result.end_to_end {
        let shown: Vec<String> = samples.iter().map(|v| format!("{v:.5}")).collect();
        eprintln!(
            "benchmark:   {name} [{}] = {}",
            unit_of(name),
            shown.join(" ")
        );
    }
    println!("detail {}", detail_line(&args, &result, &host));
    println!("{}", result_line(&result, args.trace));
    Ok(ExitCode::SUCCESS)
}

// ------------------------------------------------------------------
// Orchestration: one child process per workload
// ------------------------------------------------------------------

/// One child run, parsed back.
struct ChildRun {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    detail: Json,
    /// The detail line as printed, for the ledger file.
    detail_text: String,
}

fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    // One process per workload, so one workload's memory high-water mark
    // never leaks into the next one's.
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload}: run exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let last = lines.next().ok_or("run printed nothing")?;
    let detail = lines
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or("run printed no detail line")?;
    let result = parse_json(last).map_err(|e| format!("result line: {e:?}"))?;
    let metrics = match result.get("metrics") {
        Some(Json::Obj(members)) => members
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_num()?)))
            .collect(),
        _ => return Err("result line has no metrics".to_string()),
    };
    Ok(ChildRun {
        metrics,
        attempted: result.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: result.get("failed").and_then(Json::as_u64).unwrap_or(0),
        detail: parse_json(detail).map_err(|e| format!("detail line: {e:?}"))?,
        detail_text: detail.to_string(),
    })
}

/// The name a metric goes by in ISSUE 11's tables, where it differs.
fn issue_name(workload: &str, metric: &str) -> Option<&'static str> {
    let sim = workload == "replay_fig5" || workload == "stream_mix32";
    match (metric, sim, workload) {
        ("throughput_per_s", true, _) => Some("sim_events_per_s"),
        ("throughput_per_s", false, _) => Some("req_per_s"),
        ("latency_p50_ms", _, "serve_dataplane") => Some("latency_p50_us / 1000"),
        ("latency_p90_ms", _, "serve_dataplane") => Some("latency_p90_us / 1000"),
        ("latency_p50_ms", _, "serve_churn") => Some("lifecycle_p50_ms"),
        ("latency_p90_ms", _, "serve_churn") => Some("lifecycle_p90_ms"),
        _ => None,
    }
}

fn print_run(workload: &str, run: &ChildRun, names: &[(&str, &str)]) {
    let d = &run.detail;
    let num = |k: &str| d.get(k).and_then(Json::as_num).unwrap_or(f64::NAN);
    println!(
        "\n== {workload}  (seed {}, trials {}, shards {}, attempted {}, failed {}, failed_share {})",
        d.get("seed").and_then(Json::as_str).unwrap_or("?"),
        num("trials"),
        num("shards"),
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted.max(1) as f64,
    );
    for (name, unit) in names {
        let Some(value) = run.metrics.get(*name) else {
            continue;
        };
        let spread = d
            .get("quartiles")
            .and_then(|q| q.get(name))
            .and_then(|q| {
                Some((
                    q.get("q1")?.as_num()?,
                    q.get("q3")?.as_num()?,
                    q.get("samples")?.as_num()?,
                ))
            })
            .map_or(String::new(), |(q1, q3, n)| {
                format!("   [q1 {q1:.6} .. q3 {q3:.6}, {n} samples]")
            });
        let alias = issue_name(workload, name).map_or(String::new(), |a| format!("   ({a})"));
        println!("  {name:<40} {value:>18.6} {unit:<14}{spread}{alias}");
    }
    if let Some(Json::Obj(exact)) = d.get("exact") {
        for (k, v) in exact {
            println!("  exact {k:<34} {}", v.as_str().unwrap_or("?"));
        }
    }
}

fn host_line() -> String {
    let h = Host::probe();
    format!(
        "host: nproc={} cpu=\"{}\" {} commit={}",
        h.nproc, h.cpu_model, h.rustc, h.commit
    )
}

/// Run every workload `untraced` and/or `traced`; print each; return the
/// runs by `(workload, traced)`.
fn run_set(
    seed: u64,
    seconds: f64,
    smoke: bool,
    untraced: bool,
    traced: bool,
) -> Result<BTreeMap<(String, bool), ChildRun>, String> {
    let mut runs = BTreeMap::new();
    for workload in WORKLOADS {
        if untraced {
            let run = child_run(workload, seed, seconds, false, smoke)?;
            print_run(workload, &run, &END_TO_END);
            runs.insert((workload.to_string(), false), run);
        }
        if traced {
            let run = child_run(workload, seed, seconds, true, smoke)?;
            print_run(workload, &run, &PER_LAYER);
            runs.insert((workload.to_string(), true), run);
        }
    }
    Ok(runs)
}

/// The latest numbers with the host they were measured on: per workload
/// the untraced run (end-to-end metrics) and the traced run (per-layer
/// metrics), each with its own detail block (seed, trials, shards, host,
/// quartiles, exact counts).
fn ledger_json(runs: &BTreeMap<(String, bool), ChildRun>) -> String {
    let block = |workload: &str, traced: bool| -> String {
        let Some(run) = runs.get(&(workload.to_string(), traced)) else {
            return "null".to_string();
        };
        let metrics: Vec<String> = run
            .metrics
            .iter()
            .map(|(n, v)| format!("\n      {}", metric_json(n, *v)))
            .collect();
        format!(
            "{{\n    \"attempted\":{},\"failed\":{},\n    \"detail\":{},\n    \"metrics\":{{{}\n    }}\n  }}",
            run.attempted,
            run.failed,
            run.detail_text,
            metrics.join(",")
        )
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "\"{w}\":{{\n  \"untraced\":{},\n  \"traced\":{}\n}}",
                block(w, false),
                block(w, true)
            )
        })
        .collect();
    format!("{{\n{}\n}}\n", workloads.join(",\n"))
}

fn worse_by(better: &str, first: f64, second: f64) -> f64 {
    if better == "higher" {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

/// `--compare N`: N sets of the same code; per workload x end-to-end
/// metric print the median of the first half of the sets and of the
/// second half, the spread over all sets, each set's value, and PASS/FAIL
/// against the bound. Spread is the quartile distance over the median (as
/// Python's `statistics.quantiles` cuts it) from four sets up, else the
/// range over the median.
fn compare(cli: &Cli, sets: usize, contract: &Contract) -> Result<ExitCode, String> {
    let seconds = run_seconds(cli, contract);
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut exact: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut failed = 0;
    for set in 0..sets {
        let seed = if cli.vary_seed {
            cli.seed.wrapping_add(set as u64)
        } else {
            cli.seed
        };
        println!("\n#### set {} of {sets} (seed {seed:#x})", set + 1);
        for ((workload, _), run) in run_set(seed, seconds, cli.smoke, true, false)? {
            failed += run.failed;
            for (name, v) in &run.metrics {
                values
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(*v);
            }
            let counts = run
                .detail
                .get("exact")
                .map_or(String::new(), |e| format!("{e:?}"));
            exact.entry(workload).or_default().push(counts);
        }
    }
    println!("\n#### comparison of {sets} sets ({})", host_line());
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>10} {:>8} {:>8}  values",
        "workload", "metric", "median 1st", "median 2nd", "spread", "bound", ""
    );
    let mut all_pass = failed == 0;
    for workload in WORKLOADS {
        for (name, _) in END_TO_END {
            let v = &values[&(workload.to_string(), name.to_string())];
            let (better, bound) = &contract.bounds[name];
            let spread = if v.len() >= 4 {
                iqr_share(v)
            } else {
                let (lo, hi) = v
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
                (hi - lo) / median(v)
            };
            // The acceptance rule: the second half's median may not be
            // worse than the first half's by more than the bound, and the
            // spread must stay inside it (set-up time is exempt from the
            // spread rule).
            let (first, second) = v.split_at(v.len() / 2);
            let (first, second) = (median(first), median(second));
            let pass = worse_by(better, first, second) <= *bound
                && (name == "setup_s" || spread <= *bound);
            all_pass &= pass;
            let shown: Vec<String> = v.iter().map(|x| format!("{x:.5}")).collect();
            println!(
                "{workload:<16} {name:<18} {first:>14.6} {second:>14.6} {:>9.2}% {:>7.0}% {:>8}  {}",
                spread * 100.0,
                bound * 100.0,
                if pass { "PASS" } else { "FAIL" },
                shown.join(" ")
            );
        }
        if !cli.vary_seed {
            let counts = &exact[workload];
            let same = counts.iter().all(|c| *c == counts[0]);
            all_pass &= same;
            println!(
                "{workload:<16} exact counts identical across sets: {}",
                if same { "PASS" } else { "FAIL" }
            );
        }
    }
    println!("failed operations over all sets: {failed}");
    Ok(if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn orchestrate(cli: &Cli) -> Result<ExitCode, String> {
    let contract = read_contract()?;
    let seconds = run_seconds(cli, &contract);
    println!("{}", host_line());
    if let Mode::Compare(sets) = cli.mode {
        return compare(cli, sets, &contract);
    }
    let untraced = cli.mode != Mode::Traced;
    let runs = run_set(cli.seed, seconds, cli.smoke, untraced, true)?;
    if cli.record {
        std::fs::write(LEDGER_PATH, ledger_json(&runs))
            .map_err(|e| format!("{LEDGER_PATH}: {e}"))?;
        println!("\nrecorded {LEDGER_PATH}");
    }
    let failed: u64 = runs.values().map(|r| r.failed).sum();
    println!("\nfailed operations: {failed}");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| match &cli.mode {
        Mode::Single(workload) => single(&cli, workload),
        _ => orchestrate(&cli),
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_command_line_parses() {
        let c = cli(&[
            "--workload",
            "serve_churn",
            "--seed",
            "12",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("ok");
        assert_eq!(c.mode, Mode::Single("serve_churn".to_string()));
        assert_eq!((c.seed, c.seconds, c.trace), (12, Some(20.0), true));
        assert_eq!(cli(&["--seed", "0xf15a"]).expect("hex").seed, DEFAULT_SEED);
        assert_eq!(
            cli(&["--compare", "3", "--vary-seed"]).expect("ok").mode,
            Mode::Compare(3)
        );
        assert!(cli(&["--smoke"]).expect("ok").smoke);
        for bad in [
            vec!["--workload", "nope"],
            vec!["--trace", "2"],
            vec!["--seconds", "0"],
            vec!["--compare", "1"],
            vec!["--frobnicate"],
            vec!["--seed"],
        ] {
            assert!(cli(&bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            attempted: 10,
            failed: 0,
            end_to_end: END_TO_END
                .iter()
                .map(|(n, _)| (*n, vec![1.5, 2.5, 3.5]))
                .collect(),
            ..RunResult::default()
        };
        let line = parse_json(&result_line(&result, false)).expect("json");
        let Json::Obj(members) = &line else {
            panic!("object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let m = line
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(m.get("value").and_then(Json::as_num), Some(2.5));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by("higher", 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worse_by("lower", 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!(worse_by("lower", 100.0, 90.0) < 0.0);
    }

    #[test]
    fn smoke_sizes_are_a_twentieth() {
        let (full, smoke) = (Sizes::full(), Sizes::smoke());
        assert_eq!(smoke.stream_events * 20, full.stream_events);
        assert_eq!(smoke.dataplane_requests * 20, full.dataplane_requests);
        assert_eq!(smoke.churn_lifecycles * 20, full.churn_lifecycles);
        assert_eq!(smoke.scale.packets * 20, full.scale.packets);
    }
}
