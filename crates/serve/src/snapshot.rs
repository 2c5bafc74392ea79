//! Crash-safe restart artefacts: event-sourced, byte-stable.
//!
//! Because the daemon is a pure function of `(config, input lines)`
//! (see [`crate::daemon`]), neither artefact serializes the device —
//! both serialize the *cause*: the canonical config plus every ingested
//! line, in order. Restoring either one is the same [`replay`] through
//! a fresh daemon. They differ in what they can promise:
//!
//! - A **snapshot image** is written whole, at a moment of the writer's
//!   choosing, so it is sealed: a line count and two SHA-256 digests
//!   recorded at snapshot time, `transcript-sha256` over the rendered
//!   [`ServeRecord`] transcript and `state-sha256` over
//!   [`Daemon::state_fingerprint`] (simulated time, the full resource
//!   snapshot **including pending scrub watermarks**, per-tenant
//!   admission state). A restore that is truncated, miscounted or
//!   replays to different digests is *refused* instead of resuming from
//!   divergent state (a corrupted image, a config edit, a
//!   non-deterministic regression — the differential tests exist to
//!   keep that last set empty).
//! - A **write-ahead journal** is appended one line at a time and dies
//!   mid-write by design, so it cannot be sealed: it *recovers* to its
//!   last newline-terminated record and drops the torn tail (a line the
//!   daemon never executed, because the journal write precedes every
//!   effect). Its header and config line are written before the first
//!   request is read; damage there is refused like an image's.
//!
//! # Formats (version 1)
//!
//! ```text
//! # snicd snapshot v1                    # snicd journal v1
//! config <canonical one-line JSON>       config <canonical one-line JSON>
//! lines <n>                              <raw input line>
//! <n raw input lines>                    <raw input line>
//! transcript-sha256 <64 hex chars>       ...
//! state-sha256 <64 hex chars>
//! ```
//!
//! Lines are split on `\n` only — a history line may end in `\r` or be
//! a `#` comment, and both are part of what the `snapshot` op digests.
//! The header line is a hard gate: readers refuse artefacts whose header
//! they do not know, so either format can evolve by bumping `v1` without
//! silent misparses. Every refusal names the line it stopped at.

use snic_crypto::sha256::{sha256, to_hex};
use snic_faults::render_serve_transcript;

use crate::daemon::{Daemon, DaemonConfig};

/// The version-1 snapshot image header line.
pub const HEADER_V1: &str = "# snicd snapshot v1";

/// The version-1 write-ahead journal header line.
pub const JOURNAL_HEADER_V1: &str = "# snicd journal v1";

/// Digest of the daemon's serve transcript, as recorded in images.
pub fn transcript_digest(daemon: &Daemon) -> String {
    to_hex(&sha256(
        render_serve_transcript(daemon.transcript()).as_bytes(),
    ))
}

/// Digest of the daemon's state fingerprint, as recorded in images.
pub fn state_digest(daemon: &Daemon) -> String {
    to_hex(&sha256(daemon.state_fingerprint().as_bytes()))
}

/// The two lines every artefact of `daemon` starts with after its
/// `header`: the header itself and the canonical config.
fn render_head(header: &str, daemon: &Daemon) -> String {
    format!("{header}\nconfig {}\n", daemon.config().render())
}

/// Render a version-1 snapshot image of `daemon` as it stands.
pub fn render_image(daemon: &Daemon) -> String {
    let mut out = render_head(HEADER_V1, daemon);
    out.push_str(&format!("lines {}\n", daemon.history().len()));
    for line in daemon.history() {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&format!(
        "transcript-sha256 {}\n",
        transcript_digest(daemon)
    ));
    out.push_str(&format!("state-sha256 {}\n", state_digest(daemon)));
    out
}

/// Render a version-1 journal that restores to `daemon` as it stands:
/// what a new `--journal` file starts with. For a fresh daemon that is
/// the header and config line; for a restored one its history follows,
/// so every journal is restorable on its own.
pub fn render_journal(daemon: &Daemon) -> String {
    let mut out = render_head(JOURNAL_HEADER_V1, daemon);
    for line in daemon.history() {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Split an artefact into its config and body (line 3 onward), having
/// checked that line 1 is `header`. Lines end at `\n` and nowhere else.
fn open<'a>(text: &'a str, header: &str) -> Result<(DaemonConfig, Vec<&'a str>), String> {
    let mut lines = text.split_terminator('\n');
    match lines.next() {
        Some(h) if h == header => {}
        Some(h) => return Err(format!("line 1: unknown header '{h}'")),
        None => return Err("line 1: empty artefact".to_string()),
    }
    let cfg = lines
        .next()
        .and_then(|l| l.strip_prefix("config "))
        .ok_or("line 2: expected 'config ...'")?;
    let cfg = DaemonConfig::parse(cfg).map_err(|e| format!("line 2: {e}"))?;
    Ok((cfg, lines.collect()))
}

/// Boot a daemon from `cfg` and feed it `lines`: the one way either
/// artefact becomes a daemon. Returns every response the replay
/// produced.
fn replay(cfg: DaemonConfig, lines: &[&str]) -> (Daemon, Vec<String>) {
    let mut daemon = Daemon::new(cfg);
    let mut replayed = Vec::new();
    for line in lines {
        replayed.extend(daemon.ingest(line));
    }
    (daemon, replayed)
}

/// Restore a daemon from a snapshot image: parse, replay, verify.
///
/// Returns the restored daemon plus every response line the replay
/// produced — byte-identical to what the original daemon emitted for
/// the same prefix, which is exactly what the differential restart
/// tests assert.
pub fn restore(image: &str) -> Result<(Daemon, Vec<String>), String> {
    let (cfg, body) = open(image, HEADER_V1)?;
    // Body line `i` is line `i + 3` of the image.
    let field = |i: usize, prefix: &str| {
        body.get(i)
            .and_then(|l| l.strip_prefix(prefix))
            .ok_or_else(|| format!("line {}: expected '{prefix}...'", i + 3))
    };
    let n: usize = field(0, "lines ")?
        .parse()
        .map_err(|_| "line 3: malformed lines count")?;
    let have = body.len() - 1;
    if have < n {
        return Err(format!(
            "line {}: truncated image: {have} of {n} history lines",
            have + 4
        ));
    }
    let want_transcript = field(n + 1, "transcript-sha256 ")?;
    let want_state = field(n + 2, "state-sha256 ")?;

    let (daemon, replayed) = replay(cfg, &body[1..=n]);
    let got_transcript = transcript_digest(&daemon);
    if got_transcript != want_transcript {
        return Err(format!(
            "line {}: transcript digest mismatch after replay: image {want_transcript}, \
             replay {got_transcript}",
            n + 4
        ));
    }
    let got_state = state_digest(&daemon);
    if got_state != want_state {
        return Err(format!(
            "line {}: state digest mismatch after replay: image {want_state}, replay {got_state}",
            n + 5
        ));
    }
    Ok((daemon, replayed))
}

/// What [`restore_artefact`] booted.
pub struct Restored {
    /// The restored daemon.
    pub daemon: Daemon,
    /// Every response line the replay produced (see [`restore`]).
    pub replayed: Vec<String>,
    /// For a journal, the byte length of its complete records: what the
    /// file must be truncated to before anything is appended. `None` for
    /// a sealed image.
    pub journal_len: Option<u64>,
}

/// Restore from the bytes of either artefact, told apart by the header
/// line: a sealed image goes through [`restore`] and every check it
/// performs; a journal recovers to its last newline-terminated record.
pub fn restore_artefact(bytes: &[u8]) -> Result<Restored, String> {
    let utf8 = |b| std::str::from_utf8(b).map_err(|e| format!("artefact is not UTF-8: {e}"));
    let is_journal = bytes
        .strip_prefix(JOURNAL_HEADER_V1.as_bytes())
        .is_some_and(|rest| rest.first() == Some(&b'\n'));
    if !is_journal {
        let (daemon, replayed) = restore(utf8(bytes)?)?;
        return Ok(Restored {
            daemon,
            replayed,
            journal_len: None,
        });
    }
    // Whatever follows the last newline is a torn write.
    let end = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let (cfg, history) = open(utf8(&bytes[..end])?, JOURNAL_HEADER_V1)?;
    let (daemon, replayed) = replay(cfg, &history);
    Ok(Restored {
        daemon,
        replayed,
        journal_len: Some(end as u64),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_daemon() -> Daemon {
        let mut d = Daemon::new(DaemonConfig::default());
        for line in [
            r#"{"op":"launch","tenant":"a","id":1,"name":"fw","mem":8,"port":80}"#,
            r#"{"op":"send","tenant":"a","id":2,"count":5,"port":80}"#,
            r#"{"op":"stats","tenant":"a","id":3,"name":"fw"}"#,
        ] {
            d.ingest(line);
        }
        d
    }

    #[test]
    fn image_round_trips_and_verifies() {
        let d = seeded_daemon();
        let image = render_image(&d);
        assert!(image.starts_with(HEADER_V1));
        let (restored, _) = restore(&image).expect("restore");
        assert_eq!(restored.state_fingerprint(), d.state_fingerprint());
        assert_eq!(
            render_serve_transcript(restored.transcript()),
            render_serve_transcript(d.transcript())
        );
        // And the image of the restored daemon is byte-identical.
        assert_eq!(render_image(&restored), image);
    }

    #[test]
    fn replay_reproduces_responses() {
        let mut d = Daemon::new(DaemonConfig::default());
        let mut original = Vec::new();
        for line in [
            r#"{"op":"launch","tenant":"a","id":1,"name":"fw","mem":8}"#,
            r#"{"op":"bogus","tenant":"a","id":2}"#,
        ] {
            original.extend(d.ingest(line));
        }
        let (_, replayed) = restore(&render_image(&d)).expect("restore");
        assert_eq!(replayed, original);
    }

    #[test]
    fn corrupt_images_are_refused() {
        let d = seeded_daemon();
        let image = render_image(&d);
        assert!(restore("# snicd snapshot v9\n").is_err(), "unknown version");
        assert!(restore("").is_err(), "empty");
        // Tamper with one history line: the transcript digest must
        // catch the divergent replay.
        let tampered = image.replace("\"count\":5", "\"count\":6");
        assert_ne!(tampered, image);
        let err = match restore(&tampered) {
            Err(e) => e,
            Ok(_) => panic!("tampered image must fail"),
        };
        assert!(err.contains("digest mismatch"), "{err}");
        // Truncation is refused before any replay.
        let cut: String = image.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(restore(&cut).is_err());
    }
}
