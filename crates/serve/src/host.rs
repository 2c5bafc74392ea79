//! The one host around a [`Daemon`]: everything between a byte stream
//! and [`Daemon::ingest`]. `snicd` over stdin, `snicd --socket` per
//! connection and `snicctl script` over a lowered `.snic` file are
//! transports: each boots one [`Host`]
//! from [`HostOpts`] (its arguments through [`HostOpts::parse`]), hands
//! it `(input, output)` pairs and calls [`Host::finish`].
//!
//! The journal is write-ahead — opened once, each line written and
//! flushed *before* it is ingested — so a daemon killed at any
//! instruction is rebuilt by `--restore <journal>`: every line that had
//! an effect is in the file, and a torn last line had none. (Flushed to
//! the kernel, not `fsync`ed: it survives the death of the process,
//! the failure S-NIC §4.6 assigns to the NIC OS, not of the machine.)
//! A peer that goes away ends its stream and nothing else; only I/O on
//! the journal, snapshot and restore files stops the daemon.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufWriter, Write};

use snic_faults::ServeEventKind;

use crate::daemon::{Daemon, DaemonConfig};
use crate::protocol::pump_lines;
use crate::snapshot;

/// What stops the daemon: the process exit code — `2` for a bad flag or
/// I/O on a journal, snapshot or restore file, `8` for a refused
/// restore — and the message.
pub type Fatal = (i32, String);

/// The flag table of [`HostOpts::parse`], for usage lines.
pub const FLAGS_USAGE: &str = "[--seed N] [--tick-us N] [--auto-steps N] [--deadline-us N] \
     [--journal <path>] [--restore <image | journal>] [--snapshot-out <path>] [--socket <path>]";

/// What a host's command line selects.
#[derive(Debug, Clone, Default)]
pub struct HostOpts {
    /// `--seed`, `--tick-us`, `--auto-steps`, `--deadline-us`. Ignored
    /// under `--restore`, which takes the artefact's config.
    pub cfg: DaemonConfig,
    /// `--journal`: the write-ahead log. Must be new, empty, or the
    /// journal being restored.
    pub journal: Option<String>,
    /// `--restore`: a snapshot image or a journal to boot from, told
    /// apart by the header line.
    pub restore: Option<String>,
    /// `--snapshot-out`: where the sealed image goes whenever a
    /// `snapshot` op completes, and at clean exit.
    pub snapshot_out: Option<String>,
    /// `--socket`: serve Unix-socket connections (`snicd` only).
    pub socket: Option<String>,
}

impl HostOpts {
    /// Parse the flag table. Arguments that are not flags come back in
    /// order for the transport to interpret. `Err` carries the reason,
    /// without a usage line.
    pub fn parse(args: &[String]) -> Result<(HostOpts, Vec<String>), String> {
        let mut opts = HostOpts::default();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                rest.push(flag.clone());
                continue;
            }
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            let int = |v: &String| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag} needs an integer, got '{v}'"))
            };
            match flag.as_str() {
                "--seed" => opts.cfg.seed = int(value()?)?,
                "--tick-us" => {
                    opts.cfg.tick_ps = int(value()?)?
                        .checked_mul(1_000_000)
                        .ok_or(format!("{flag} overflows the simulated clock"))?;
                }
                "--auto-steps" => {
                    opts.cfg.auto_steps = u32::try_from(int(value()?)?)
                        .map_err(|_| format!("{flag} does not fit 32 bits"))?;
                }
                "--deadline-us" => opts.cfg.default_deadline_us = int(value()?)?,
                "--journal" => opts.journal = Some(value()?.clone()),
                "--restore" => opts.restore = Some(value()?.clone()),
                "--snapshot-out" => opts.snapshot_out = Some(value()?.clone()),
                "--socket" => opts.socket = Some(value()?.clone()),
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok((opts, rest))
    }
}

/// A booted daemon with its journal and snapshot sink.
pub struct Host {
    daemon: Daemon,
    journal: Option<BufWriter<File>>,
    snapshot_out: Option<String>,
}

impl Host {
    /// Boot a fresh daemon, or restore one from `opts.restore` (replayed
    /// responses are not re-emitted), and open the journal.
    pub fn boot(opts: &HostOpts) -> Result<Host, Fatal> {
        // Where a journal that is itself being restored resumes.
        let mut resume_at = None;
        let daemon = match &opts.restore {
            None => Daemon::new(opts.cfg.clone()),
            Some(path) => {
                let bytes =
                    std::fs::read(path).map_err(|e| (2, format!("cannot read {path}: {e}")))?;
                let restored = snapshot::restore_artefact(&bytes)
                    .map_err(|e| (8, format!("restore of {path} failed: {e}")))?;
                eprintln!(
                    "snicd: restored from {path}: {} lines replayed, {} responses suppressed",
                    restored.daemon.history().len(),
                    restored.replayed.len()
                );
                if opts.journal.as_ref() == Some(path) {
                    resume_at = restored.journal_len;
                }
                restored.daemon
            }
        };
        let journal = match &opts.journal {
            Some(path) => Some(open_journal(path, &daemon, resume_at)?),
            None => None,
        };
        Ok(Host {
            daemon,
            journal,
            snapshot_out: opts.snapshot_out.clone(),
        })
    }

    /// The daemon being served.
    pub fn daemon(&self) -> &Daemon {
        &self.daemon
    }

    /// Serve one request stream to its end: every line of `input` is
    /// journaled and ingested, except lines the pump refuses (over-long
    /// or not UTF-8), which are answered and otherwise ignored — one
    /// client's garbage must not take the daemon down for every tenant.
    /// Each response is written to `output` and flushed. A read or write
    /// that fails means the peer went away: that ends the stream early,
    /// with every line it got as far as sending journaled and ingested.
    pub fn serve(&mut self, input: impl BufRead, mut output: impl Write) -> Result<(), Fatal> {
        let mut emit = |r: &str| {
            output
                .write_all(r.as_bytes())
                .and_then(|()| output.write_all(b"\n"))
                .and_then(|()| output.flush())
                .map_err(|e| format!("write response: {e}"))
        };
        let mut fatal = None;
        let pumped = pump_lines(input, |line| match line {
            Ok(line) => match self.serve_line(line) {
                Ok(responses) => responses.iter().try_for_each(|r| emit(r)),
                Err(e) => {
                    fatal = Some(e);
                    Err(String::new())
                }
            },
            Err(refusal) => emit(refusal),
        });
        if let Some(e) = fatal {
            return Err(e);
        }
        if let Err(gone) = pumped {
            eprintln!("snicd: connection dropped: {gone}");
        }
        Ok(())
    }

    /// Journal, ingest, and feed the snapshot sink; the responses are
    /// the caller's to deliver.
    fn serve_line(&mut self, line: &str) -> Result<Vec<String>, Fatal> {
        if let Some(journal) = &mut self.journal {
            journal
                .write_all(line.as_bytes())
                .and_then(|()| journal.write_all(b"\n"))
                .and_then(|()| journal.flush())
                .map_err(|e| (2, format!("journal write: {e}")))?;
        }
        let mark = self.daemon.transcript().len();
        let responses = self.daemon.ingest(line);
        let snapshotted = self.daemon.transcript()[mark..]
            .iter()
            .any(|r| matches!(r.kind, ServeEventKind::SnapshotTaken { .. }));
        if snapshotted {
            self.write_image()?;
        }
        Ok(responses)
    }

    /// Render the sealed image of the daemon as it stands into
    /// `--snapshot-out`, if set. No copy is kept.
    fn write_image(&self) -> Result<(), Fatal> {
        match &self.snapshot_out {
            Some(path) => std::fs::write(path, snapshot::render_image(&self.daemon))
                .map_err(|e| (2, format!("cannot write {path}: {e}"))),
            None => Ok(()),
        }
    }

    /// Clean exit: write the exit-time image.
    pub fn finish(self) -> Result<(), Fatal> {
        self.write_image()
    }
}

/// Open the write-ahead journal at `path` for appending. `resume_at` is
/// the length of its complete records when `path` is the journal
/// `daemon` was just restored from: the torn tail is cut off there.
/// Otherwise the file must be new or empty — a second run is never
/// concatenated onto a first — and starts with
/// [`snapshot::render_journal`], so it is restorable on its own even
/// when `daemon` was itself restored.
fn open_journal(
    path: &str,
    daemon: &Daemon,
    resume_at: Option<u64>,
) -> Result<BufWriter<File>, Fatal> {
    let io = |e: std::io::Error| (2, format!("journal {path}: {e}"));
    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(io)?;
    match resume_at {
        Some(len) => file.set_len(len).map_err(io)?,
        None if file.metadata().map_err(io)?.len() > 0 => {
            let why = "is not empty and is not the journal being restored";
            return Err((2, format!("journal {path} {why}")));
        }
        None => file
            .write_all(snapshot::render_journal(daemon).as_bytes())
            .map_err(io)?,
    }
    Ok(BufWriter::new(file))
}
