//! `snicd` — the resident S-NIC serving daemon.
//!
//! Owns one simulated [`snic::core::device::SmartNic`] for its whole
//! lifetime and serves the line-delimited JSON protocol from
//! `snic::serve` — admission control, backpressure, deadlines, fault
//! containment, crash-safe restart.
//!
//! ```text
//! snicd [flags]                      # stdin/stdout, one JSON line each way
//! snicd --socket /run/snicd.sock     # serve Unix-socket connections instead
//! ```
//!
//! Flags:
//!
//! - `--seed N`, `--tick-us N`, `--auto-steps N`, `--deadline-us N`:
//!   daemon configuration (see `DaemonConfig`); all deterministic.
//! - `--journal <path>`: write-ahead log — every request line is
//!   appended and flushed *before* it is executed, so a crashed daemon
//!   can be reconstructed by replaying the journal.
//! - `--restore <image>`: boot by replaying a snapshot image (written
//!   by the `snapshot` op, `--snapshot-out`, or a journal promoted to
//!   an image); replayed responses are not re-emitted.
//! - `--snapshot-out <path>`: whenever a `snapshot` op completes, write
//!   the sealed image there; also writes a final image at clean exit.
//!
//! Exit codes (documented in the README): `0` success, `2` usage or
//! I/O error, `8` restore failure.

use std::io::{BufRead, Write};

use snic::serve::daemon::{Daemon, DaemonConfig};
use snic::serve::protocol::pump_lines;
use snic::serve::snapshot;

struct Opts {
    cfg: DaemonConfig,
    journal: Option<String>,
    restore: Option<String>,
    snapshot_out: Option<String>,
    socket: Option<String>,
}

const USAGE: &str = "usage: snicd [--seed N] [--tick-us N] [--auto-steps N] [--deadline-us N] \
     [--journal <path>] [--restore <image>] [--snapshot-out <path>] [--socket <path>]";

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        cfg: DaemonConfig::default(),
        journal: None,
        restore: None,
        snapshot_out: None,
        socket: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            it.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{USAGE}\n({name} needs an integer)"))
        };
        match a.as_str() {
            "--seed" => opts.cfg.seed = num("--seed")?,
            "--tick-us" => opts.cfg.tick_ps = num("--tick-us")?.saturating_mul(1_000_000),
            "--auto-steps" => opts.cfg.auto_steps = num("--auto-steps")? as u32,
            "--deadline-us" => opts.cfg.default_deadline_us = num("--deadline-us")?,
            "--journal" => opts.journal = it.next().cloned(),
            "--restore" => opts.restore = it.next().cloned(),
            "--snapshot-out" => opts.snapshot_out = it.next().cloned(),
            "--socket" => opts.socket = it.next().cloned(),
            other => return Err(format!("{USAGE}\n(unknown flag '{other}')")),
        }
    }
    Ok(opts)
}

/// Feed one request line through the daemon, honoring the write-ahead
/// journal and snapshot sink, and hand each response to `emit`.
fn serve_line(
    daemon: &mut Daemon,
    opts: &Opts,
    line: &str,
    emit: &mut dyn FnMut(&str) -> std::io::Result<()>,
) -> Result<(), String> {
    if let Some(path) = &opts.journal {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open journal {path}: {e}"))?;
        // Write-ahead: the line is durable before any effect happens.
        writeln!(f, "{line}").map_err(|e| format!("journal write: {e}"))?;
        f.flush().map_err(|e| format!("journal flush: {e}"))?;
    }
    let before = daemon.last_snapshot().map(str::to_string);
    for response in daemon.ingest(line) {
        emit(&response).map_err(|e| format!("write response: {e}"))?;
    }
    if let (Some(path), Some(image)) = (&opts.snapshot_out, daemon.last_snapshot()) {
        if before.as_deref() != Some(image) {
            std::fs::write(path, image).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    Ok(())
}

/// Serve one request stream to its end: every line of `input` goes
/// through [`serve_line`], except lines the pump refuses (over-long or
/// not UTF-8), which are answered and otherwise ignored — one client's
/// garbage must not take the daemon down for every tenant. Each
/// response is written to `output` and flushed.
fn serve_stream(
    daemon: &mut Daemon,
    opts: &Opts,
    input: impl BufRead,
    mut output: impl Write,
) -> Result<(), String> {
    let mut emit = |r: &str| writeln!(output, "{r}").and_then(|()| output.flush());
    pump_lines(input, |line| match line {
        Ok(line) => serve_line(daemon, opts, line, &mut emit),
        Err(refusal) => emit(refusal).map_err(|e| format!("write response: {e}")),
    })
}

fn run(opts: &Opts) -> Result<(), (i32, String)> {
    let mut daemon = match &opts.restore {
        Some(path) => {
            let image = std::fs::read_to_string(path)
                .map_err(|e| (2, format!("cannot read {path}: {e}")))?;
            let (daemon, replayed) =
                snapshot::restore(&image).map_err(|e| (8, format!("restore failed: {e}")))?;
            eprintln!(
                "snicd: restored from {path}: {} lines replayed, {} responses suppressed",
                daemon.history().len(),
                replayed.len()
            );
            daemon
        }
        None => Daemon::new(opts.cfg.clone()),
    };

    if let Some(path) = &opts.socket {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)
            .map_err(|e| (2, format!("cannot bind {path}: {e}")))?;
        eprintln!("snicd: listening on {path}");
        for stream in listener.incoming() {
            let stream = stream.map_err(|e| (2, format!("accept: {e}")))?;
            let reader = std::io::BufReader::new(
                stream.try_clone().map_err(|e| (2, format!("clone: {e}")))?,
            );
            let writer = std::io::BufWriter::new(stream);
            serve_stream(&mut daemon, opts, reader, writer).map_err(|e| (2, e))?;
            // One connection at a time; a client sending `drain` then
            // disconnecting is the clean shutdown signal.
            if daemon
                .transcript()
                .iter()
                .any(|r| matches!(r.kind, snic::faults::ServeEventKind::DrainCompleted { .. }))
            {
                break;
            }
        }
    } else {
        let (stdin, stdout) = (std::io::stdin(), std::io::stdout());
        serve_stream(&mut daemon, opts, stdin.lock(), stdout.lock()).map_err(|e| (2, e))?;
    }

    if let Some(path) = &opts.snapshot_out {
        std::fs::write(path, snapshot::render_image(&daemon))
            .map_err(|e| (2, format!("cannot write {path}: {e}")))?;
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("snicd: {e}");
            std::process::exit(2);
        }
    };
    if let Err((code, e)) = run(&opts) {
        eprintln!("snicd: {e}");
        std::process::exit(code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse() {
        let o = parse_opts(&s(&[
            "--seed",
            "9",
            "--auto-steps",
            "0",
            "--tick-us",
            "2",
            "--deadline-us",
            "100",
            "--journal",
            "j.log",
        ]))
        .expect("parse");
        assert_eq!(o.cfg.seed, 9);
        assert_eq!(o.cfg.auto_steps, 0);
        assert_eq!(o.cfg.tick_ps, 2_000_000);
        assert_eq!(o.cfg.default_deadline_us, 100);
        assert_eq!(o.journal.as_deref(), Some("j.log"));
        assert!(parse_opts(&s(&["--bogus"])).is_err());
        assert!(parse_opts(&s(&["--seed", "many"])).is_err());
    }

    #[test]
    fn serve_line_journals_before_effects_and_snapshots() {
        let dir = std::env::temp_dir();
        let journal = dir.join("snicd-test-journal.log");
        let snap = dir.join("snicd-test-snap.img");
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&snap);
        let opts = Opts {
            cfg: DaemonConfig::default(),
            journal: Some(journal.to_string_lossy().into_owned()),
            restore: None,
            snapshot_out: Some(snap.to_string_lossy().into_owned()),
            socket: None,
        };
        let mut daemon = Daemon::new(opts.cfg.clone());
        let mut responses = Vec::new();
        for line in [
            r#"{"op":"launch","tenant":"a","id":1,"name":"fw","mem":8}"#,
            r#"{"op":"snapshot","id":2}"#,
        ] {
            serve_line(&mut daemon, &opts, line, &mut |r| {
                responses.push(r.to_string());
                Ok(())
            })
            .expect("serve");
        }
        let logged = std::fs::read_to_string(&journal).expect("journal exists");
        assert_eq!(logged.lines().count(), 2, "both lines journaled");
        let image = std::fs::read_to_string(&snap).expect("snapshot written");
        let (restored, _) = snapshot::restore(&image).expect("image restores");
        assert_eq!(restored.history(), daemon.history());
        assert!(responses.iter().any(|r| r.contains("\"op\":\"snapshot\"")));
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&snap);
    }

    #[test]
    fn serve_stream_answers_hostile_lines_without_journaling_them() {
        let journal = std::env::temp_dir().join("snicd-test-hostile-journal.log");
        let _ = std::fs::remove_file(&journal);
        let opts = Opts {
            cfg: DaemonConfig::default(),
            journal: Some(journal.to_string_lossy().into_owned()),
            restore: None,
            snapshot_out: None,
            socket: None,
        };
        let valid = [
            r#"{"op":"register","tenant":"a","id":1}"#,
            r#"{"op":"health","id":2}"#,
        ];
        let mut input = format!("{}\n", valid[0]).into_bytes();
        input.extend_from_slice(b"\xff\xfe{\n");
        input.resize(input.len() + 100 * 1024, b'a');
        input.extend_from_slice(format!("\n{}\n", valid[1]).as_bytes());
        let mut daemon = Daemon::new(opts.cfg.clone());
        let mut output = Vec::new();
        serve_stream(&mut daemon, &opts, &input[..], &mut output).expect("serve");
        let output = String::from_utf8(output).expect("responses are UTF-8");
        let bad: Vec<bool> = output
            .lines()
            .map(|r| r.contains("SERVE-BAD-REQUEST"))
            .collect();
        assert_eq!(bad, [false, true, true, false], "{output}");
        let logged = std::fs::read_to_string(&journal).expect("journal exists");
        assert_eq!(logged.lines().collect::<Vec<_>>(), valid);
        assert_eq!(daemon.history(), valid);
        let _ = std::fs::remove_file(&journal);
    }
}
