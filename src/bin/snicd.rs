//! `snicd` — the resident S-NIC serving daemon.
//!
//! Owns one simulated [`snic::core::device::SmartNic`] for its whole
//! lifetime and serves the line-delimited JSON protocol from
//! `snic::serve` — admission control, backpressure, deadlines, fault
//! containment, crash-safe restart. This file is two transports, stdin
//! and a Unix socket, over `snic::serve::host`, which owns the flags,
//! boot-or-restore, the serving loop, the journal and the snapshot sink.
//!
//! ```text
//! snicd [flags]                      # stdin/stdout, one JSON line each way
//! snicd --socket /run/snicd.sock     # serve Unix-socket connections instead
//! ```
//!
//! The flags are the host's one table, documented on
//! `snic::serve::host::HostOpts` and in the README: `--seed`,
//! `--tick-us`, `--auto-steps`, `--deadline-us`, `--journal`,
//! `--restore`, `--snapshot-out`, `--socket`.
//!
//! Exit codes (documented in the README): `0` success, `2` usage or
//! I/O error on the journal, snapshot or restore file, `8` restore
//! refused. A peer that goes away, even mid-response, ends its stream
//! and nothing else.

use std::io::{BufReader, BufWriter};

use snic::serve::host::{Fatal, Host, HostOpts, FLAGS_USAGE};

fn parse_opts(args: &[String]) -> Result<HostOpts, String> {
    let usage = |why: String| format!("usage: snicd {FLAGS_USAGE}\n({why})");
    match HostOpts::parse(args).map_err(usage)? {
        (opts, rest) if rest.is_empty() => Ok(opts),
        (_, rest) => Err(usage(format!("unexpected '{}'", rest[0]))),
    }
}

fn run(opts: &HostOpts) -> Result<(), Fatal> {
    let mut host = Host::boot(opts)?;
    if let Some(path) = &opts.socket {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)
            .map_err(|e| (2, format!("cannot bind {path}: {e}")))?;
        eprintln!("snicd: listening on {path}");
        // One connection at a time; a client sending `drain` then
        // disconnecting is the clean shutdown signal.
        loop {
            let (stream, _) = listener.accept().map_err(|e| (2, format!("accept: {e}")))?;
            host.serve(BufReader::new(&stream), BufWriter::new(&stream))?;
            if host.daemon().is_draining() {
                break;
            }
        }
    } else {
        let (stdin, stdout) = (std::io::stdin(), std::io::stdout());
        host.serve(stdin.lock(), stdout.lock())?;
    }
    host.finish()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let ran = parse_opts(&argv)
        .map_err(|e| (2, e))
        .and_then(|opts| run(&opts));
    if let Err((code, e)) = ran {
        eprintln!("snicd: {e}");
        std::process::exit(code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snic::serve::snapshot;
    use std::io::Write;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// A scratch file path unique to this process and `name`, removed
    /// before use.
    fn scratch(name: &str) -> String {
        let path = std::env::temp_dir().join(format!("snicd-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path.to_string_lossy().into_owned()
    }

    /// The request lines of a journal: everything after its header and
    /// config line.
    fn journaled(path: &str) -> Vec<String> {
        let text = std::fs::read_to_string(path).expect("journal exists");
        let mut lines = text.lines().map(str::to_string);
        assert_eq!(lines.next().as_deref(), Some(snapshot::JOURNAL_HEADER_V1));
        assert!(lines.next().is_some_and(|l| l.starts_with("config {")));
        lines.collect()
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
        // Nothing is narrowed, defaulted or skipped silently.
        assert!(parse_opts(&s(&["--auto-steps", "4294967297"])).is_err());
        // 18446744073709 us is the last tick u64 picoseconds hold; one
        // more used to saturate and boot a daemon on a different clock.
        let o = parse_opts(&s(&["--tick-us", "18446744073709"])).expect("fits");
        assert_eq!(o.cfg.tick_ps, 18_446_744_073_709_000_000);
        let err = parse_opts(&s(&["--tick-us", "18446744073710"])).expect_err("overflows");
        assert!(err.contains("--tick-us overflows"), "{err}");
        assert!(parse_opts(&s(&["--journal"])).is_err());
        assert!(parse_opts(&s(&["requests.jsonl"])).is_err());
        let o = parse_opts(&s(&["--seed", "18446744073709551557"])).expect("parse");
        assert_eq!(o.cfg.seed, 18_446_744_073_709_551_557);
    }

    #[test]
    fn serve_line_journals_before_effects_and_snapshots() {
        let opts = HostOpts {
            journal: Some(scratch("journal.log")),
            snapshot_out: Some(scratch("snap.img")),
            ..HostOpts::default()
        };
        let (journal, snap) = (
            opts.journal.clone().unwrap(),
            opts.snapshot_out.clone().unwrap(),
        );
        let mut host = Host::boot(&opts).expect("boot");
        let lines = [
            r#"{"op":"launch","tenant":"a","id":1,"name":"fw","mem":8}"#,
            r#"{"op":"snapshot","id":2}"#,
        ];
        let mut responses = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            // A writer that looks at the journal while the response is
            // being delivered: the line must already be in it.
            struct Probe<'a>(&'a str, &'a mut Vec<u8>, usize);
            impl Write for Probe<'_> {
                fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                    assert_eq!(journaled(self.0).len(), self.2, "journaled first");
                    self.1.write(buf)
                }
                fn flush(&mut self) -> std::io::Result<()> {
                    Ok(())
                }
            }
            host.serve(line.as_bytes(), Probe(&journal, &mut responses, i + 1))
                .expect("serve");
        }
        assert_eq!(journaled(&journal), lines, "both lines journaled");
        // The image was written when the `snapshot` op completed, not
        // at exit, and restores to the daemon that took it.
        let image = std::fs::read_to_string(&snap).expect("snapshot written");
        let (restored, _) = snapshot::restore(&image).expect("image restores");
        assert_eq!(restored.history(), host.daemon().history());
        assert_eq!(image, snapshot::render_image(host.daemon()));
        let responses = String::from_utf8(responses).expect("UTF-8");
        assert!(responses.contains("\"op\":\"snapshot\""), "{responses}");
        // A second run must not be appended to this journal...
        let (code, err) = Host::boot(&opts).err().expect("non-empty journal refused");
        assert_eq!(code, 2, "{err}");
        // ...unless it is the run being restored.
        let resumed = HostOpts {
            restore: Some(journal.clone()),
            ..opts.clone()
        };
        let resumed = Host::boot(&resumed).expect("restore from the journal");
        assert_eq!(resumed.daemon().history(), host.daemon().history());
        assert_eq!(
            snapshot::state_digest(resumed.daemon()),
            snapshot::state_digest(host.daemon())
        );
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&snap);
    }

    /// `--snapshot-out` is written at a clean exit too; booting from it
    /// replays the history without answering it again, and an image
    /// that cannot be read is an I/O error.
    #[test]
    fn the_exit_image_restores_without_answering_again() {
        let opts = HostOpts {
            snapshot_out: Some(scratch("exit.img")),
            ..HostOpts::default()
        };
        let image = opts.snapshot_out.clone().unwrap();
        let mut host = Host::boot(&opts).expect("boot");
        let lines = concat!(
            r#"{"op":"launch","tenant":"a","id":1,"name":"fw","mem":8,"port":80}"#,
            "\n",
            r#"{"op":"send","tenant":"a","id":2,"count":3,"port":80}"#,
            "\n",
            r#"{"op":"health","id":3}"#,
            "\n"
        );
        let mut out = Vec::new();
        host.serve(lines.as_bytes(), &mut out).expect("serve");
        let out = String::from_utf8(out).expect("UTF-8");
        assert_eq!(out.lines().count(), 3, "{out}");
        assert!(out.contains(r#""op":"launch","ok":true"#), "{out}");
        assert!(out.contains(r#""delivered":3"#), "{out}");
        let history = host.daemon().history().to_vec();
        host.finish().expect("exit image");
        let restored = parse_opts(&s(&["--restore", &image])).expect("flags");
        let mut host = Host::boot(&restored).expect("restore");
        assert_eq!(host.daemon().history(), history);
        let mut replayed = Vec::new();
        host.serve(&b""[..], &mut replayed).expect("serve nothing");
        assert!(replayed.is_empty(), "replayed responses are not re-emitted");
        let missing = parse_opts(&s(&["--restore", "/no/such/image"])).expect("flags");
        assert_eq!(Host::boot(&missing).err().map(|(code, _)| code), Some(2));
        let _ = std::fs::remove_file(&image);
    }

    #[test]
    fn serve_stream_answers_hostile_lines_without_journaling_them() {
        let opts = HostOpts {
            journal: Some(scratch("hostile-journal.log")),
            ..HostOpts::default()
        };
        let journal = opts.journal.clone().unwrap();
        let valid = [
            r#"{"op":"register","tenant":"a","id":1}"#,
            r#"{"op":"health","id":2}"#,
        ];
        let mut input = format!("{}\n", valid[0]).into_bytes();
        input.extend_from_slice(b"\xff\xfe{\n");
        input.resize(input.len() + 100 * 1024, b'a');
        input.extend_from_slice(format!("\n{}\n", valid[1]).as_bytes());
        let mut host = Host::boot(&opts).expect("boot");
        let mut output = Vec::new();
        host.serve(&input[..], &mut output).expect("serve");
        let output = String::from_utf8(output).expect("responses are UTF-8");
        let bad: Vec<bool> = output
            .lines()
            .map(|r| r.contains("SERVE-BAD-REQUEST"))
            .collect();
        assert_eq!(bad, [false, true, true, false], "{output}");
        assert_eq!(journaled(&journal), valid);
        assert_eq!(host.daemon().history(), valid);
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn a_client_that_disconnects_mid_response_ends_only_its_connection() {
        /// Accepts `left` bytes, then fails like a closed socket.
        struct Hangup {
            left: usize,
        }
        impl Write for Hangup {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.left == 0 {
                    return Err(std::io::ErrorKind::BrokenPipe.into());
                }
                let n = buf.len().min(self.left);
                self.left -= n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        /// Yields `data`, then fails like a reset connection.
        struct Reset<'a>(&'a [u8]);
        impl std::io::Read for Reset<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(std::io::ErrorKind::ConnectionReset.into());
                }
                std::io::Read::read(&mut self.0, buf)
            }
        }

        let first = concat!(
            r#"{"op":"register","tenant":"a","id":1}"#,
            "\n",
            r#"{"op":"health","id":2}"#,
            "\n",
            r#"{"op":"health","id":3}"#,
            "\n"
        );
        let second = concat!(r#"{"op":"register","tenant":"b","id":4}"#, "\n");
        let third = concat!(r#"{"op":"health","id":5}"#, "\n");
        let mut host = Host::boot(&HostOpts::default()).expect("boot");

        // The peer takes 30 bytes and hangs up: the connection ends at
        // the first line whose response cannot be delivered. That line
        // took effect (it was ingested before the write was tried); the
        // one behind it was never read.
        host.serve(first.as_bytes(), Hangup { left: 30 })
            .expect("a hangup is not the daemon's problem");
        assert_eq!(host.daemon().history().len(), 1);
        // So does a peer whose read side is reset after one line.
        host.serve(BufReader::new(Reset(second.as_bytes())), Vec::new())
            .expect("neither is a reset");
        // The same daemon serves the next connection, and remembers
        // what the dropped ones asked for.
        let mut output = Vec::new();
        host.serve(third.as_bytes(), &mut output).expect("serve");
        let output = String::from_utf8(output).expect("UTF-8");
        assert!(
            output.contains(r#""a":{"#) && output.contains(r#""b":{"#),
            "{output}"
        );
        let lines: Vec<&str> = first
            .lines()
            .take(1)
            .chain(second.lines())
            .chain(third.lines())
            .collect();
        assert_eq!(host.daemon().history(), lines);
    }
}
