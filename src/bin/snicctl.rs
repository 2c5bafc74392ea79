//! `snicctl` — the command-line front door to the S-NIC reproduction.
//!
//! Every mode is one row of [`VERBS`]: its name, the exit code its
//! operational failures map to, its usage line and its entry point.
//! `snicctl help` prints the usage lines; the README's exit-code table
//! is asserted equal to the table's `(name, fail_code)` pairs. A first
//! argument that names no verb is a `.snic` script path (or `-` for
//! stdin). A script line is a `snicd` verb, its one positional
//! argument and `key=value` pairs; `snic::serve::script::lower` turns it
//! into the request line it stands for, an in-process `snicd` serves
//! it, and the responses are printed:
//!
//! ```text
//! nic snic                      # or: nic commodity
//! launch fw core=0 mem=16 port=80
//! send 100 port=80
//! poll fw
//! attest fw
//! stats fw
//! teardown fw
//! ```
//!
//! Exit codes: `0` success, `2` usage or I/O error (any error whose
//! text starts with `usage:`), otherwise the verb's `fail_code`.

use std::io::Read;

use snic::serve::host::{Fatal, Host, HostOpts};

/// `snicctl trace <describe|sweep|billion> [flags]`: drive the streamed
/// colocation machinery (see `crates/bench/src/colo.rs`). `describe`
/// prints the tenant mix (personality, event budget, phase schedule);
/// `sweep` runs a streamed commodity-vs-S-NIC colocation at each
/// cotenancy; `billion` is one S-NIC run with `--events` total events
/// streamed in O(workers × NF) memory, where `--gate` enforces a
/// small-scale serial≡sharded identity check, the exact event count, and
/// peak RSS <= `SNIC_MEM_BUDGET_MB`.
fn trace_main(args: &[String]) -> Result<String, String> {
    use snic::bench::colo;
    use snic::bench::Scale;

    let usage = || usage("trace");
    let verb = args.first().ok_or_else(usage)?.as_str();
    let mut tenants_list: Option<Vec<usize>> = None;
    let mut seed: u64 = 0xc010;
    let mut events: Option<u64> = None;
    let mut events_per_tenant: u64 = 50_000;
    let mut shards: usize = 3;
    let mut gate = false;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        // A seed is any u64; a count is at least 1.
        let mut next_u64 = |flag: &str, min: u64| -> Result<u64, String> {
            it.next()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n >= min)
                .ok_or_else(|| format!("{}\n({flag} needs an integer >= {min})", usage()))
        };
        match a.as_str() {
            "--tenants" => {
                let list = it
                    .next()
                    .map(|v| {
                        v.split(',')
                            .map(|t| t.parse::<usize>())
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .and_then(Result::ok)
                    .filter(|l| !l.is_empty() && l.iter().all(|&t| (1..=64).contains(&t)))
                    .ok_or_else(|| {
                        format!(
                            "{}\n(--tenants needs counts in 1..=64, one L2 way each)",
                            usage()
                        )
                    })?;
                tenants_list = Some(list);
            }
            "--seed" => seed = next_u64("--seed", 0)?,
            "--events" => events = Some(next_u64("--events", 1)?),
            "--events-per-tenant" => events_per_tenant = next_u64("--events-per-tenant", 1)?,
            "--shards" => shards = next_u64("--shards", 1)? as usize,
            "--gate" => gate = true,
            other => return Err(format!("{}\n(unknown flag '{other}')", usage())),
        }
    }
    let scale = Scale::quick();
    // `describe` and `billion` share one mix: the first `--tenants`
    // count and `--events` in total, every tenant fed at least one.
    let tenants = tenants_list.as_ref().map_or(48, |l| l[0]);
    let total = events.unwrap_or(1_000_000_000);
    if matches!(verb, "describe" | "billion") && total < tenants as u64 {
        return Err(format!(
            "{}\n(--events {total} is fewer than one event for each of {tenants} tenants)",
            usage()
        ));
    }
    match verb {
        "describe" => {
            let mix = colo::tenant_mix(tenants, seed, total, true);
            let mut out = vec![format!(
                "streamed tenant mix: {tenants} tenants, {total} events total"
            )];
            for (i, t) in mix.iter().enumerate() {
                out.push(format!(
                    "  tenant {i:>2}: {:<13} events={:>12} seed={:#018x} {}",
                    format!("{:?}", t.kind),
                    t.events,
                    t.seed,
                    t.schedule.describe()
                ));
            }
            Ok(out.join("\n"))
        }
        "sweep" => {
            let counts = tenants_list.unwrap_or_else(|| vec![32, 48, 64]);
            let rows = colo::streamed_sweep(&scale, &counts, events_per_tenant, seed, shards);
            Ok(colo::render_sweep(&rows))
        }
        "billion" => {
            let mut out = Vec::new();
            if gate {
                // Identity first, at a scale where re-running is cheap:
                // the same machinery must be bit-identical serial vs
                // sharded before the big run's digest means anything.
                let specs = colo::tenant_mix(6, seed, 60_000, false);
                let spec = colo::colo_spec(&scale, &specs, colo::many_tenant_snic(6, 1 << 20), 1);
                let serial = spec.run();
                let sharded = spec.build().with_shards(3).run();
                if serial.nfs != sharded.nfs {
                    return Err("trace gate: serial and sharded streamed runs diverged".into());
                }
                out.push(format!(
                    "gate: serial≡sharded identity OK (digest {:016x})",
                    colo::outcome_digest(&serial)
                ));
            }
            eprintln!(
                "snicctl trace: streaming {total} events over {tenants} tenants \
                 (shards={shards})..."
            );
            let report = colo::billion_run(&scale, tenants, total, seed, shards);
            out.push(colo::render_billion(&report));
            if gate {
                if report.events != total {
                    return Err(format!(
                        "trace gate: expected exactly {total} events, engine processed {}",
                        report.events
                    ));
                }
                // Default budget: about 3× the measured peak of ≈ 15 MiB,
                // which is workers × the largest NF structure plus the
                // identity leg's six resident tenants and the
                // O(tenants × chunk) streaming state — independent of
                // event count and of tenant count. A run whose LPM
                // tenants hold the flat 64 MB tbl24 they model (≈ 79 MiB)
                // fails it, and so does the `--shards 1` run (≈ 75 MiB).
                let budget_mb: u64 = std::env::var("SNIC_MEM_BUDGET_MB")
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(64);
                match report.peak_rss_mb {
                    Some(rss) if rss > budget_mb => {
                        return Err(format!(
                            "trace gate: peak RSS {rss} MiB exceeds the \
                             SNIC_MEM_BUDGET_MB budget of {budget_mb} MiB"
                        ));
                    }
                    Some(rss) => out.push(format!(
                        "gate: OK ({} events, peak RSS {rss} MiB <= {budget_mb} MiB budget)",
                        report.events
                    )),
                    None => out.push(format!(
                        "gate: OK ({} events; no RSS probe on this platform)",
                        report.events
                    )),
                }
            }
            Ok(out.join("\n"))
        }
        other => Err(format!("{}\n(unknown trace verb '{other}')", usage())),
    }
}

/// `snicctl telemetry ...`: record the fig5 smoke sweep (the Chrome
/// trace opens in <https://ui.perfetto.dev> or `chrome://tracing`),
/// render a summary file, diff two of them, or run the sink-off vs
/// sink-on overhead gate `scripts/lint.sh` enforces.
fn telemetry_main(args: &[String]) -> Result<String, String> {
    use snic::telemetry::{to_chrome_trace, Summary};

    let read = |path: &String| {
        std::fs::read_to_string(path).map_err(|e| format!("usage: cannot read {path}: {e}"))
    };
    match args {
        [cmd, trace_path, summary_path] if cmd == "record" => {
            let scale = snic::bench::telemetry::smoke_scale();
            let (outcomes, summary, events) = snic::bench::telemetry::record_smoke(&scale);
            std::fs::write(trace_path, to_chrome_trace(&events))
                .map_err(|e| format!("usage: cannot write {trace_path}: {e}"))?;
            std::fs::write(summary_path, summary.to_text())
                .map_err(|e| format!("usage: cannot write {summary_path}: {e}"))?;
            Ok(format!(
                "recorded {} colocation runs: {} events -> {trace_path} (open in \
                 ui.perfetto.dev), {} counters + {} histograms -> {summary_path}\n\n{}",
                outcomes.len(),
                events.len(),
                summary.counters.len(),
                summary.hists.len(),
                summary.render()
            ))
        }
        [cmd, path] if cmd == "summary" => Ok(Summary::from_text(&read(path)?)?.render()),
        [cmd, before, after] if cmd == "diff" => {
            let a = Summary::from_text(&read(before)?)?;
            let b = Summary::from_text(&read(after)?)?;
            Ok(Summary::render_diff(&a.diff(&b)))
        }
        [cmd] if cmd == "overhead" => snic::bench::telemetry::overhead_gate(),
        _ => Err(usage("telemetry")),
    }
}

/// `snicctl analyze [--json] [--gate]`: run Pass 0 over every paper NF
/// (all must verify clean, each earning a certificate) and over the
/// seeded adversarial corpus (each must be rejected with its exact
/// stable code). `--gate` additionally enforces an analyzer runtime
/// budget and exits nonzero on any drift — the CI hook behind
/// `scripts/lint.sh analyze`.
fn analyze_main(args: &[String]) -> Result<String, String> {
    use snic::nf::NfKind;
    use snic::verify::pass0::analyze;

    let mut json = false;
    let mut gate = false;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            "--gate" => gate = true,
            other => return Err(format!("{} (unknown flag '{other}')", usage("analyze"))),
        }
    }

    let mut lines = Vec::new();
    let mut json_nfs = Vec::new();
    let mut failures = Vec::new();
    let mut analyzer_time = std::time::Duration::ZERO;

    for kind in NfKind::ALL {
        let nf = snic::nf::build(kind, 7);
        let sub = snic::nf::launch_analysis(nf.as_ref());
        let t0 = std::time::Instant::now();
        let report = analyze(&sub.program, &sub.manifest);
        analyzer_time += t0.elapsed();
        if !report.is_clean() {
            failures.push(format!("{kind:?} must verify clean: {report}"));
        }
        lines.push(report.to_string());
        json_nfs.push(report.to_json());
    }

    let mut json_corpus = Vec::new();
    for entry in snic::attacks::adversarial_corpus() {
        let t0 = std::time::Instant::now();
        let report = analyze(&entry.submission.program, &entry.submission.manifest);
        analyzer_time += t0.elapsed();
        let codes: Vec<&str> = report.violations.iter().map(|v| v.kind.code()).collect();
        if report.is_clean() || !codes.contains(&entry.expected_code) {
            failures.push(format!(
                "corpus '{}' must be rejected with {}, got {codes:?}",
                entry.name, entry.expected_code
            ));
        }
        lines.push(format!(
            "Pass 0 {}: rejected as expected ({})",
            entry.name, entry.expected_code
        ));
        json_corpus.push(format!(
            "{{\"name\":\"{}\",\"expected_code\":\"{}\",\"report\":{}}}",
            entry.name,
            entry.expected_code,
            report.to_json()
        ));
    }

    // The analyzer must stay launch-path cheap: a generous 2 s budget
    // over all twelve programs catches a fixpoint blow-up in CI without
    // flaking on slow runners.
    const BUDGET_MS: u128 = 2_000;
    if gate && analyzer_time.as_millis() > BUDGET_MS {
        failures.push(format!(
            "analyzer runtime {} ms exceeds the {BUDGET_MS} ms gate budget",
            analyzer_time.as_millis()
        ));
    }

    if gate && !failures.is_empty() {
        return Err(format!("analyze gate failed:\n  {}", failures.join("\n  ")));
    }
    if json {
        return Ok(format!(
            "{{\"nfs\":[{}],\"corpus\":[{}],\"analyzer_ms\":{},\"ok\":{}}}",
            json_nfs.join(","),
            json_corpus.join(","),
            analyzer_time.as_millis(),
            failures.is_empty()
        ));
    }
    if !failures.is_empty() {
        lines.push(format!("FAILURES:\n  {}", failures.join("\n  ")));
    }
    Ok(lines.join("\n"))
}

/// `snicctl verify [--json] [--bad]`: run Pass 1 over a paper-shaped
/// manifest set (one vNIC per paper NF on a 16-core device). `--bad`
/// swaps in a deliberately conflicting set so the violation codes are
/// visible; `--json` emits the machine-readable report.
fn verify_main(args: &[String]) -> Result<String, String> {
    use snic::types::{AccelKind, ByteSize, NfId, NicMode};
    use snic::verify::{verify_manifests, DeviceSpec, VnicManifest};

    let mut json = false;
    let mut bad = false;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            "--bad" => bad = true,
            other => return Err(format!("{} (unknown flag '{other}')", usage("verify"))),
        }
    }

    const MB: u64 = 1 << 20;
    let spec = DeviceSpec {
        mode: NicMode::Snic,
        dram: 2048 * MB,
        nf_region_base: 0x0800_0000,
        nic_os: vec![(0x0010_0000, 0x2_0000), (0x0200_0000, 32 * MB)],
        cores: 16,
        core_tlb_entries: 64,
        accel: vec![(AccelKind::Crypto, 8), (AccelKind::Dpi, 8)],
        rx_capacity: 64 * MB,
        tx_capacity: 64 * MB,
    };
    let mut manifests: Vec<VnicManifest> = (0..6u64)
        .map(|i| {
            let mut m = VnicManifest::minimal(
                NfId(i + 1),
                snic::types::CoreId(i as u16),
                (0x0800_0000 + i * 64 * MB, 48 * MB),
            );
            m.vpp.pb = ByteSize::mib(4);
            m
        })
        .collect();
    if bad {
        // Overlap nf 2 onto nf 1's region and double-claim core 0.
        manifests[1].region = (0x0800_0000 + 16 * MB, 48 * MB);
        manifests[1].cores = vec![snic::types::CoreId(0)];
    }
    let report = verify_manifests(&spec, &manifests);
    Ok(if json {
        report.to_json()
    } else {
        report.to_string()
    })
}

/// The whole of a file transport's input: `path`, or stdin for `-`.
/// An input that cannot be read is a usage error, not a peer that went
/// away.
fn read_input(path: &str) -> Result<Vec<u8>, String> {
    let mut stdin = Vec::new();
    let read = match path {
        "-" => std::io::stdin()
            .lock()
            .read_to_end(&mut stdin)
            .map(|_| stdin),
        _ => std::fs::read(path),
    };
    read.map_err(|e| format!("usage: cannot read {path}: {e}"))
}

/// A host failure as `main` wants it: a `usage:` prefix maps to exit 2,
/// anything else to the verb's code.
fn fatal((code, e): Fatal) -> String {
    if code == 2 {
        format!("usage: {e}")
    } else {
        e
    }
}

fn into_lines(out: Vec<u8>) -> String {
    let out = String::from_utf8(out).expect("responses are rendered from UTF-8");
    out.trim_end_matches('\n').to_string()
}

/// `snicctl soak`: print the seeded soak schedule `snicctl exp soak`
/// runs, one request line each, for `snicd` to replay.
fn soak_main(args: &[String]) -> Result<String, String> {
    use snic::serve::soak;

    if !args.is_empty() {
        return Err(usage("soak"));
    }
    Ok(soak::schedule(soak::SEED).join("\n"))
}

/// `snicctl exp <name | all | list> [--full]`: render one entry of the
/// experiment registry (`snic_bench::experiments::REGISTRY`), all of
/// them in registry order under `########## name ##########` banners,
/// or the list of names. `--full` selects the paper's workload sizes.
/// An entry that fails its check is the error, named under `all`.
fn exp_main(args: &[String]) -> Result<String, String> {
    use snic::bench::{experiments, Scale};

    let mut full = false;
    let mut name = None;
    for a in args {
        match a.as_str() {
            "--full" => full = true,
            other if name.is_none() && !other.starts_with("--") => name = Some(other),
            _ => return Err(usage("exp")),
        }
    }
    let name = name.ok_or_else(|| usage("exp"))?;
    let scale = if full { Scale::paper() } else { Scale::quick() };
    let text = match name {
        "list" => experiments::list(),
        "all" => experiments::run_all(&scale, full)?,
        name => {
            let exp = experiments::find(name).ok_or_else(|| {
                format!(
                    "{}\n(unknown experiment '{name}'; see `snicctl exp list`)",
                    usage("exp")
                )
            })?;
            (exp.run)(&scale, full)?
        }
    };
    // `main` ends the output with the newline the renderers already
    // wrote.
    Ok(text.strip_suffix('\n').unwrap_or(&text).to_string())
}

/// `snicctl [script] <script.snic | ->`: the script mode described in
/// the module header — the `snicd` host in process, fed the lowered
/// lines one at a time. A line answered `"ok":false` ends the run: the
/// responses so far are printed and the refusal is the error.
fn script_main(args: &[String]) -> Result<String, String> {
    let [path] = args else {
        return Err(usage_all());
    };
    let text = String::from_utf8(read_input(path)?)
        .map_err(|e| format!("usage: cannot read {path}: {e}"))?;
    run_script(&text)
}

fn run_script(text: &str) -> Result<String, String> {
    use snic::telemetry::{parse_json, Json};

    let (mode, requests) = snic::serve::script::lower(text)?;
    let mut opts = HostOpts::default();
    opts.cfg.mode = mode;
    let mut host = Host::boot(&opts).map_err(fatal)?;
    let mut out = Vec::new();
    for request in &requests {
        let mark = out.len();
        host.serve(request.as_bytes(), &mut out).map_err(fatal)?;
        let refused = String::from_utf8_lossy(&out[mark..])
            .lines()
            .filter_map(|response| parse_json(response).ok())
            .find(|r| matches!(r.get("ok"), Some(Json::Bool(false))));
        if let Some(r) = refused {
            println!("{}", into_lines(out));
            let field = |k| r.get(k).and_then(Json::as_str).unwrap_or("?");
            let line = r.get("id").and_then(Json::as_u64).unwrap_or(0);
            return Err(format!(
                "line {line}: {}: {}",
                field("code"),
                field("error")
            ));
        }
    }
    Ok(into_lines(out))
}

/// One `snicctl` mode.
struct Verb {
    name: &'static str,
    /// Exit code of an operational failure (an `Err` whose text does not
    /// start with `usage:`); distinct per verb so scripts and CI can
    /// tell failure classes apart without parsing stderr. A verb whose
    /// only errors are usage errors has 2.
    fail_code: i32,
    usage: &'static str,
    run: fn(&[String]) -> Result<String, String>,
}

/// Every mode. Row 0 is also the fallback: arguments that start with no
/// verb name are handed to it whole, as a script path.
const VERBS: &[Verb] = &[
    Verb {
        name: "script",
        fail_code: 3,
        usage: "snicctl [script] <script.snic | ->",
        run: script_main,
    },
    Verb {
        name: "verify",
        fail_code: 4,
        usage: "snicctl verify [--json] [--bad]",
        run: verify_main,
    },
    Verb {
        name: "analyze",
        fail_code: 5,
        usage: "snicctl analyze [--json] [--gate]",
        run: analyze_main,
    },
    Verb {
        name: "telemetry",
        fail_code: 7,
        usage: "snicctl telemetry <record <trace.json> <summary.txt> | \
                summary <file> | diff <before> <after> | overhead>",
        run: telemetry_main,
    },
    Verb {
        name: "soak",
        fail_code: 2,
        usage: "snicctl soak",
        run: soak_main,
    },
    Verb {
        name: "trace",
        fail_code: 11,
        usage: "snicctl trace <describe [--tenants N] [--seed N] | \
                sweep [--tenants A,B,..] [--events-per-tenant N] [--shards N] | \
                billion [--tenants N] [--events N] [--shards N] [--gate]>",
        run: trace_main,
    },
    Verb {
        name: "exp",
        fail_code: 12,
        usage: "snicctl exp <name | all | list> [--full]",
        run: exp_main,
    },
];

/// `usage: <the verb's usage line>` — the prefix `main` maps to exit 2.
fn usage(verb: &str) -> String {
    let verb = VERBS
        .iter()
        .find(|v| v.name == verb)
        .expect("callers name a VERBS row");
    format!("usage: {}", verb.usage)
}

/// Every verb's usage line, for bare `snicctl` and `snicctl help`.
fn usage_all() -> String {
    let lines: Vec<&str> = VERBS.iter().map(|v| v.usage).collect();
    format!("usage: one of\n  {}\n  snicctl help", lines.join("\n  "))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let first = argv.first().map(String::as_str);
    if first == Some("help") {
        println!("{}", usage_all());
        return;
    }
    let (verb, args) = match VERBS.iter().find(|v| Some(v.name) == first) {
        Some(verb) => (verb, &argv[1..]),
        None => (&VERBS[0], &argv[..]),
    };
    match (verb.run)(args) {
        Ok(out) => {
            if !out.is_empty() {
                println!("{out}");
            }
        }
        Err(e) => {
            eprintln!("snicctl: {e}");
            std::process::exit(if e.starts_with("usage:") {
                2
            } else {
                verb.fail_code
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(script: &str) -> Vec<String> {
        let out = run_script(script).expect("every line answered ok");
        out.lines().map(str::to_string).collect()
    }

    #[test]
    fn full_lifecycle_script() {
        let out = run("\
nic snic
launch fw core=0 mem=8 port=80
send 10 port=80
stats fw
poll fw
teardown fw
");
        assert!(out[0].starts_with(r#"{"id":2,"tenant":"script","op":"launch","ok":true,"nf":1,"#));
        assert!(out[1].contains(r#""op":"send","ok":true,"delivered":10"#));
        assert!(out[2].contains(r#""op":"stats","ok":true,"delivered":0,"#));
        assert!(out[3].contains(r#""op":"poll","ok":true,"polled":10"#));
        assert!(out[4].contains(r#""op":"teardown","ok":true,"scrub_ps":"#));
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn attestation_command_verifies() {
        let out = run("\
nic snic
launch ids core=1 mem=4
attest ids
");
        assert!(out[1].contains(r#""op":"attest","ok":true,"verified":true"#));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        assert!(run("# a comment\n\nnic commodity\n").is_empty());
        let out = run("# a comment\n\nhealth # the daemon's own verbs script too\n");
        assert_eq!(out.len(), 1);
        assert!(out[0].starts_with(r#"{"id":3,"op":"health","ok":true,"#));
    }

    #[test]
    fn errors_are_reported() {
        // A line that lowers to no request stops the script unexecuted.
        let e = run_script("health\nbogus").unwrap_err();
        assert!(e.starts_with("line 2: unknown verb"), "{e}");
        // A line the daemon refuses stops it with the typed code;
        // 65536 and 65616 must not narrow to core 0 and port 80.
        for (script, refusal) in [
            (
                "launch x core=0",
                "line 1: SERVE-BAD-REQUEST: missing \"mem\"",
            ),
            ("teardown ghost", "line 1: SERVE-UNKNOWN-NF: "),
            (
                "launch a core=0 mem=4\nlaunch b core=0 mem=4\nhealth",
                "line 2: SERVE-FAULT: ",
            ),
            (
                "launch a core=65536 mem=4",
                "line 1: SERVE-BAD-REQUEST: \"core\" out of range",
            ),
            (
                "launch a core=0 mem=4 port=65616",
                "line 1: SERVE-BAD-REQUEST: \"port\" out of range",
            ),
        ] {
            let e = run_script(script).unwrap_err();
            assert!(e.starts_with(refusal), "{script}: {e}");
        }
    }

    #[test]
    fn script_is_the_serve_transport_over_lowered_lines() {
        let demo = concat!(env!("CARGO_MANIFEST_DIR"), "/scripts/demo.snic");
        let text = std::fs::read_to_string(demo).unwrap();
        let (mode, lowered) = snic::serve::script::lower(&text).unwrap();
        let mut opts = HostOpts::default();
        opts.cfg.mode = mode;
        let mut host = Host::boot(&opts).unwrap();
        let mut out = Vec::new();
        host.serve(lowered.join("\n").as_bytes(), &mut out).unwrap();
        let served = into_lines(out);
        assert_eq!(script_main(&[demo.to_string()]).unwrap(), served);
        assert_eq!(served.lines().count(), 11);
        assert!(
            served.lines().all(|l| l.contains("\"ok\":true")),
            "{served}"
        );
        // An input that cannot be read is a usage error naming it, not
        // a connection that dropped.
        let dir = [std::env::temp_dir().to_string_lossy().into_owned()];
        let e = script_main(&dir).unwrap_err();
        assert!(
            e.starts_with(&format!("usage: cannot read {}: ", dir[0])),
            "{e}"
        );
    }

    #[test]
    fn telemetry_usage_and_diff() {
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        assert!(telemetry_main(&s(&["bogus"])).is_err());
        assert!(telemetry_main(&s(&["record", "only-one-path"])).is_err());
        let dir = std::env::temp_dir();
        let (a, b) = (dir.join("snicctl-tel-a.txt"), dir.join("snicctl-tel-b.txt"));
        std::fs::write(&a, "# snic-telemetry summary v1\ncounter 0 nf.tx_sent 1\n").unwrap();
        std::fs::write(&b, "# snic-telemetry summary v1\ncounter 0 nf.tx_sent 3\n").unwrap();
        let (a, b) = (
            a.to_string_lossy().into_owned(),
            b.to_string_lossy().into_owned(),
        );
        let rendered = telemetry_main(&s(&["summary", &a])).unwrap();
        assert!(rendered.contains("nf.tx_sent"), "{rendered}");
        let diff = telemetry_main(&s(&["diff", &a, &b])).unwrap();
        assert!(diff.contains("nf.tx_sent"), "{diff}");
        let same = telemetry_main(&s(&["diff", &a, &a])).unwrap();
        assert!(same.contains("no differences"), "{same}");
    }

    /// The shared JSON escaper differs from the private ones it replaced
    /// only on tab and carriage return; a document with neither is
    /// byte-identical under all of them.
    fn assert_escaper_neutral(json: &str) {
        for form in ["\\t", "\\r", "\\u0009", "\\u000d"] {
            assert!(!json.contains(form), "{form} in {json}");
        }
    }

    #[test]
    fn analyze_command_clean_nfs_and_rejected_corpus() {
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        assert!(analyze_main(&s(&["--bogus"])).is_err());
        // The gate must pass on the shipped NFs and corpus.
        let out = analyze_main(&s(&["--gate"])).unwrap();
        assert!(out.contains("CLEAN"), "{out}");
        assert!(out.contains("P0-TAINT-LEAK"), "{out}");
        let j = analyze_main(&s(&["--json"])).unwrap();
        assert!(j.contains("\"ok\":true"), "{j}");
        assert!(j.contains("\"expected_code\":\"P0-DMA-OVERFLOW\""), "{j}");
        assert!(j.contains("certificate_digest"), "{j}");
        assert_escaper_neutral(&j);
    }

    #[test]
    fn verify_command_human_and_json() {
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        assert!(verify_main(&s(&["--bogus"])).is_err());
        let clean = verify_main(&s(&[])).unwrap();
        assert!(clean.contains("verified"), "{clean}");
        let bad = verify_main(&s(&["--bad"])).unwrap();
        assert!(bad.contains("REFUSED"), "{bad}");
        let j = verify_main(&s(&["--bad", "--json"])).unwrap();
        assert!(j.contains("\"ok\":false"), "{j}");
        assert!(j.contains("P1-REGION-OVERLAP"), "{j}");
        assert!(j.contains("P1-CORE-CONFLICT"), "{j}");
        assert_escaper_neutral(&j);
        assert_escaper_neutral(&verify_main(&s(&["--json"])).unwrap());
    }

    #[test]
    fn soak_command_prints_the_schedule() {
        let sched = soak_main(&[]).unwrap();
        assert_eq!(sched.lines().count(), 221);
        assert!(
            sched.lines().all(|l| l.starts_with(r#"{"op":""#)),
            "{sched}"
        );
    }

    /// A malformed invocation of any verb, or a file it cannot read, is
    /// a usage error (exit 2), never the verb's failure code.
    #[test]
    fn every_verb_refuses_malformed_invocations_as_usage_errors() {
        let missing = std::env::temp_dir().join("snicctl-no-such-file");
        let missing = missing.to_string_lossy();
        let cases: &[(&str, &[&str])] = &[
            ("script", &[]),
            ("script", &["a.snic", "b.snic"]),
            ("script", &[&missing]),
            ("verify", &["--bogus"]),
            ("analyze", &["--bogus"]),
            ("telemetry", &[]),
            ("telemetry", &["summary", &missing]),
            ("telemetry", &["diff", &missing, &missing]),
            ("soak", &["--gate"]),
            ("soak", &["--seed", "1"]),
            ("trace", &[]),
            ("trace", &["describe", "--tenants", "0"]),
            ("trace", &["describe", "--seed", "-1"]),
            ("trace", &["billion", "--events", "0"]),
            ("trace", &["sweep", "--shards"]),
            ("exp", &[]),
            ("exp", &["nosuch"]),
        ];
        for (name, args) in cases {
            let verb = VERBS.iter().find(|v| v.name == *name).expect(name);
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let e = (verb.run)(&args).unwrap_err();
            assert!(e.starts_with("usage:"), "{name} {args:?}: {e}");
        }
    }

    #[test]
    fn trace_command_describe_sweep_and_gate() {
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        assert!(trace_main(&s(&[])).is_err());
        assert!(trace_main(&s(&["bogus"])).is_err());
        assert!(trace_main(&s(&["describe", "--tenants", "0"])).is_err());
        assert!(trace_main(&s(&["describe", "--tenants", "65"])).is_err());
        assert!(trace_main(&s(&["billion", "--events"])).is_err());
        // Fewer events than tenants is a usage error, with or without the
        // gate — not "engine processed 48", not a panic.
        for verb in ["describe", "billion"] {
            let e = trace_main(&s(&[verb, "--tenants", "48", "--events", "10", "--gate"]));
            let e = e.unwrap_err();
            assert!(e.starts_with("usage: ") && e.contains("--events 10"), "{e}");
        }
        // Ungated, one event per tenant is a run of exactly that many.
        let one_each = trace_main(&s(&["billion", "--tenants", "4", "--events", "4"])).unwrap();
        assert!(one_each.contains(" events=4 "), "{one_each}");
        assert!(!one_each.contains("gate:"), "{one_each}");
        // A seed is any u64, 0 included.
        let desc = s(&[
            "describe",
            "--tenants",
            "8",
            "--events",
            "80000",
            "--seed",
            "0",
        ]);
        let desc = trace_main(&desc).unwrap();
        assert_eq!(desc.matches("  tenant ").count(), 8, "{desc}");
        assert!(desc.contains("Dpi"), "{desc}");
        let sweep = trace_main(&s(&[
            "sweep",
            "--tenants",
            "4",
            "--events-per-tenant",
            "2000",
            "--shards",
            "2",
        ]))
        .unwrap();
        assert!(sweep.contains("digest"), "{sweep}");
        // The gated runs measure their own peak RSS, so they run as
        // their own process: tests/trace_gate.rs.
    }

    #[test]
    fn exp_command_lists_runs_and_rejects() {
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        let list = exp_main(&s(&["list"])).unwrap();
        assert!(list.starts_with("table1 "), "{list}");
        assert!(!list.ends_with('\n'), "main adds the final newline");
        let table3 = exp_main(&s(&["table3"])).unwrap();
        assert!(table3.starts_with("== Table 3: "), "{table3}");
        assert_eq!(table3, exp_main(&s(&["--full", "table3"])).unwrap());
        // Usage errors: exit 2 through the `usage:` prefix.
        for bad in [
            &["nosuch"][..],
            &[],
            &["table3", "--quick"],
            &["table3", "table4"],
        ] {
            let e = exp_main(&s(bad)).unwrap_err();
            assert!(e.starts_with("usage: snicctl exp "), "{bad:?}: {e}");
        }
    }

    /// The README's exit-code table is `VERBS`, row for row.
    #[test]
    fn readme_exit_code_table_matches_verbs() {
        let readme = include_str!("../../README.md");
        let section = readme
            .split("### `snicctl` exit codes")
            .nth(1)
            .expect("README has the exit-code section");
        // `| 4    | `verify` error |` -> ("verify", 4); the rows for 0
        // and 2 name no verb.
        let rows: Vec<(&str, i32)> = section
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .filter_map(|l| {
                let mut cells = l.split('|').map(str::trim).skip(1);
                let code = cells.next()?.parse().ok()?;
                let name = cells.next()?.strip_prefix('`')?.split('`').next()?;
                Some((name, code))
            })
            .collect();
        // A verb that fails only with usage errors has 2's row.
        let verbs: Vec<(&str, i32)> = VERBS
            .iter()
            .filter(|v| v.fail_code != 2)
            .map(|v| (v.name, v.fail_code))
            .collect();
        assert_eq!(rows, verbs);
    }

    /// The README's protocol verb table is `snicd`'s op table, row for
    /// row: name, class, arguments, and the positional one in italics.
    #[test]
    fn readme_protocol_verb_table_matches_the_op_table() {
        use snic::serve::daemon::Class;

        let readme = include_str!("../../README.md");
        let section = readme
            .split("### Protocol verbs")
            .nth(1)
            .expect("README has the protocol verb section");
        // `| `send` | queued | *count* port |`
        let rows: Vec<(String, String, String, Option<String>)> = section
            .lines()
            .skip_while(|l| !l.starts_with("| `"))
            .take_while(|l| l.starts_with('|'))
            .map(|l| {
                let cells: Vec<&str> = l.split('|').map(str::trim).collect();
                let positional = cells[3].split('*').nth(1).map(str::to_string);
                let name = cells[1].trim_matches('`').to_string();
                let args = cells[3].replace('*', "");
                (name, cells[2].to_string(), args, positional)
            })
            .collect();
        let table: Vec<_> = snic::serve::daemon::VERBS
            .iter()
            .map(|v| {
                let positional = v.positional.map(str::to_string);
                let class = match v.class {
                    Class::Queued(_) => "queued",
                    Class::Tenant(_) => "tenant-management",
                    Class::Daemon(_) => "daemon-management",
                };
                let (name, class) = (v.name.to_string(), class.to_string());
                (name, class, v.args.to_string(), positional)
            })
            .collect();
        assert_eq!(rows, table);
    }
}
