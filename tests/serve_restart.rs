//! Differential crash-safe-restart tests for `snicd`.
//!
//! The contract under test: a daemon restored from a snapshot image is
//! indistinguishable from one that never stopped. For *every* split
//! point of an eventful request history — launches, overload sheds, an
//! injected NF crash and freeze, a reclaim, and a power loss mid-scrub
//! that leaves a watermarked scrub ticket behind — snapshotting at the
//! split, restoring, and replaying the suffix must reproduce the
//! uninterrupted run byte for byte: every response line, the full
//! serve transcript, and the device-state fingerprint (which includes
//! pending scrub watermarks).
//!
//! The write-ahead journal is held to the same contract from the other
//! side: it cannot be sealed, so instead of refusing damage it must
//! recover — cut anywhere, it restores to exactly the daemon that
//! ingested its complete lines. What *is* refused, for either artefact,
//! is refused with the line it stopped at.

use snic::faults::render_serve_transcript;
use snic::serve::daemon::{Daemon, DaemonConfig};
use snic::serve::host::{Host, HostOpts};
use snic::serve::snapshot::{render_image, render_journal, restore, restore_artefact};

fn config() -> DaemonConfig {
    DaemonConfig {
        seed: 0x1757A7,
        // Service is driven by explicit `step` lines so the fixture
        // can actually build queues and shed.
        auto_steps: 0,
        ..DaemonConfig::default()
    }
}

/// An eventful history: multi-tenant traffic, an overload burst, an
/// injected NF crash (freeze + reclaim), and a power loss mid-scrub
/// whose watermarked ticket must survive a restart.
fn history() -> Vec<String> {
    let mut id = 0u64;
    let mut lines = Vec::new();
    let mut l = |s: &str| {
        id += 1;
        lines.push(s.replace("{id}", &id.to_string()));
    };
    l(r#"{"op":"register","tenant":"a","id":{id},"queue_depth":2,"burst":3,"refill_ps":5000000}"#);
    l(r#"{"op":"launch","tenant":"a","id":{id},"name":"fw","mem":8,"port":80}"#);
    l(r#"{"op":"step","id":{id},"n":1}"#);
    l(r#"{"op":"launch","tenant":"b","id":{id},"name":"ids","mem":8,"port":81}"#);
    l(r#"{"op":"step","id":{id},"n":1}"#);
    l(r#"{"op":"send","tenant":"a","id":{id},"count":5,"port":80}"#);
    l(r#"{"op":"send","tenant":"b","id":{id},"count":3,"port":81}"#);
    l(r#"{"op":"step","id":{id},"n":2}"#);
    l(r#"{"op":"poll","tenant":"a","id":{id},"name":"fw"}"#);
    l(r#"{"op":"step","id":{id},"n":1}"#);
    // Refill a's bucket to its burst of 3, then burst 5 requests with
    // no service in between: 2 admitted (queue depth 2), 1 shed
    // SERVE-OVERLOADED on a token, 2 shed SERVE-RATE-LIMITED dry.
    l(r#"{"op":"advance","id":{id},"us":50}"#);
    for _ in 0..5 {
        l(r#"{"op":"send","tenant":"a","id":{id},"count":1,"port":80}"#);
    }
    l(r#"{"op":"step","id":{id},"n":4}"#);
    l(r#"{"op":"stats","tenant":"a","id":{id},"name":"fw"}"#);
    l(r#"{"op":"step","id":{id},"n":1}"#);
    // Crash b's NF on the next delivered packet: freeze with one
    // request still queued, shed the next at admission, then reclaim.
    l(r#"{"op":"inject-fault","id":{id},"site":"rx","kind":"nf-crash","after":1}"#);
    l(r#"{"op":"send","tenant":"b","id":{id},"count":1,"port":81}"#);
    l(r#"{"op":"send","tenant":"b","id":{id},"count":1,"port":81}"#);
    l(r#"{"op":"step","id":{id},"n":2}"#);
    l(r#"{"op":"send","tenant":"b","id":{id},"count":1,"port":81}"#);
    l(r#"{"op":"health","id":{id}}"#);
    l(r#"{"op":"reclaim","tenant":"b","id":{id}}"#);
    // Power loss on the third scrub chunk of the next teardown: the
    // request fails typed, the region keeps a watermarked scrub
    // ticket, and the device keeps serving.
    l(r#"{"op":"inject-fault","id":{id},"site":"scrub","kind":"power-loss","after":3}"#);
    l(r#"{"op":"teardown","tenant":"a","id":{id},"name":"fw"}"#);
    l(r#"{"op":"step","id":{id},"n":1}"#);
    l(r#"{"op":"health","id":{id}}"#);
    l(r#"{"op":"launch","tenant":"b","id":{id},"name":"ids2","mem":4,"port":82}"#);
    l(r#"{"op":"send","tenant":"b","id":{id},"count":2,"port":82}"#);
    l(r#"{"op":"step","id":{id},"n":2}"#);
    l(r#"{"op":"resume-scrubs","id":{id}}"#);
    l(r#"{"op":"snapshot","id":{id}}"#);
    l(r#"{"op":"verify","id":{id}}"#);
    l(r#"{"op":"drain","id":{id}}"#);
    lines
}

fn run_uninterrupted(lines: &[String]) -> (Daemon, Vec<String>) {
    let mut d = Daemon::new(config());
    let mut responses = Vec::new();
    for line in lines {
        responses.extend(d.ingest(line));
    }
    (d, responses)
}

#[test]
fn the_history_is_actually_eventful() {
    // Guard the fixture itself: if a refactor makes the schedule
    // boring, the differential below stops proving anything.
    let (d, responses) = run_uninterrupted(&history());
    let all = responses.join("\n");
    assert!(all.contains("SERVE-OVERLOADED"), "no overload shed:\n{all}");
    assert!(all.contains("SERVE-RATE-LIMITED"), "no rate shed:\n{all}");
    assert!(all.contains("SERVE-FROZEN"), "no freeze shed:\n{all}");
    assert!(all.contains("\"thawed\":true"), "no reclaim thaw:\n{all}");
    assert!(all.contains("SERVE-FAULT"), "no power-loss fault:\n{all}");
    assert!(
        all.contains("\"pending_scrubs\":1"),
        "no watermarked scrub ticket observed:\n{all}"
    );
    assert!(d.lint().is_empty(), "Pass 4: {:?}", d.lint());
}

#[test]
fn every_split_point_restarts_byte_identically() {
    let lines = history();
    let (reference, want_responses) = run_uninterrupted(&lines);
    let want_state = reference.state_fingerprint();

    for split in 0..=lines.len() {
        // Run the prefix, "crash", restore from the image, replay.
        let mut first = Daemon::new(config());
        let mut responses = Vec::new();
        for line in &lines[..split] {
            responses.extend(first.ingest(line));
        }
        let image = render_image(&first);
        let prefix_state = first.state_fingerprint();
        drop(first);

        let (mut second, replayed) =
            restore(&image).unwrap_or_else(|e| panic!("restore at split {split}: {e}"));
        assert_eq!(replayed, responses, "replayed prefix at split {split}");
        assert_eq!(
            second.state_fingerprint(),
            prefix_state,
            "restored state at split {split}"
        );
        let mut all = replayed;
        for line in &lines[split..] {
            all.extend(second.ingest(line));
        }
        assert_eq!(all, want_responses, "full responses at split {split}");
        assert_eq!(
            second.state_fingerprint(),
            want_state,
            "final state at split {split}"
        );
    }
}

#[test]
fn pending_scrub_watermarks_round_trip_through_restore() {
    // Split immediately after the power-loss teardown, while the
    // interrupted region still holds a watermarked scrub ticket.
    let lines = history();
    // inject-fault line, then the teardown request, then the `step`
    // that executes it.
    let power_loss_at = lines
        .iter()
        .position(|l| l.contains("\"site\":\"scrub\""))
        .expect("scrub power-loss line")
        + 3;
    let mut d = Daemon::new(config());
    for line in &lines[..power_loss_at] {
        d.ingest(line);
    }
    let tickets: Vec<_> = d.nic().pending_scrubs().to_vec();
    assert_eq!(tickets.len(), 1, "the interrupted scrub left its ticket");
    assert!(
        tickets[0].watermark > 0,
        "partial scrub progress recorded: {tickets:?}"
    );

    let (restored, _) = restore(&render_image(&d)).expect("restore");
    let restored_tickets: Vec<_> = restored.nic().pending_scrubs().to_vec();
    assert_eq!(
        format!("{tickets:?}"),
        format!("{restored_tickets:?}"),
        "scrub tickets (base, len, watermark) must survive restart"
    );
    assert_eq!(restored.state_fingerprint(), d.state_fingerprint());
}

/// A scratch file path unique to this process and `name`.
fn scratch(name: &str) -> String {
    let path = std::env::temp_dir().join(format!("serve-restart-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path.to_string_lossy().into_owned()
}

/// Serve `lines` through a host booted from `opts`; returns the
/// response lines.
fn serve(opts: &HostOpts, lines: &[String]) -> Vec<String> {
    let mut host = Host::boot(opts).expect("boot");
    let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let mut out = Vec::new();
    host.serve(input.as_bytes(), &mut out).expect("serve");
    host.finish().expect("finish");
    String::from_utf8(out)
        .expect("UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

/// The journal a host writes while serving the whole history, checked
/// against the uninterrupted in-process run on the way.
fn full_journal(lines: &[String], reference: &Daemon, want_responses: &[String]) -> Vec<u8> {
    let opts = HostOpts {
        cfg: config(),
        journal: Some(scratch("full.journal")),
        ..HostOpts::default()
    };
    assert_eq!(serve(&opts, lines), want_responses);
    let path = opts.journal.expect("set above");
    let journal = std::fs::read(&path).expect("journal written");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        journal,
        render_journal(reference).into_bytes(),
        "a run's journal is its daemon's cause, nothing else"
    );
    journal
}

/// Every place a dying daemon can leave its journal: `(bytes kept,
/// complete lines among them)`, once inside each line and once at each
/// line boundary, header and config line included.
fn cuts(journal: &[u8]) -> Vec<(usize, usize)> {
    let mut cuts = Vec::new();
    let mut start = 0;
    for (i, line) in journal.split_inclusive(|&b| b == b'\n').enumerate() {
        cuts.push((start + line.len() / 2, i));
        start += line.len();
        cuts.push((start, i + 1));
    }
    cuts
}

#[test]
fn a_journal_cut_anywhere_restores_to_its_last_complete_line() {
    let lines = history();
    let (reference, want_responses) = run_uninterrupted(&lines);
    let want_state = reference.state_fingerprint();
    let journal = full_journal(&lines, &reference, &want_responses);

    // What a daemon that ingested exactly `k` lines looks like.
    let mut oracle = Daemon::new(config());
    let mut responses = Vec::new();
    let mut after = Vec::new();
    for k in 0..=lines.len() {
        after.push((
            oracle.state_fingerprint(),
            render_serve_transcript(oracle.transcript()),
            responses.clone(),
        ));
        if let Some(line) = lines.get(k) {
            responses.extend(oracle.ingest(line));
        }
    }

    let mut complete_bytes = 0;
    for (cut, complete) in cuts(&journal) {
        if journal[..cut].ends_with(b"\n") {
            complete_bytes = cut;
        }
        let restored = restore_artefact(&journal[..cut]);
        // Header and config are written before the first request is
        // read; without them there is no daemon to recover.
        let Some(k) = complete.checked_sub(2) else {
            let err = restored.err().expect("no config, no daemon");
            let line = format!("line {}:", complete + 1);
            assert!(err.starts_with(&line), "cut {cut}: {err}");
            continue;
        };
        let restored = restored.unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        let (state, transcript, responses) = &after[k];
        assert_eq!(restored.journal_len, Some(complete_bytes as u64));
        assert_eq!(&restored.daemon.state_fingerprint(), state, "cut {cut}");
        assert_eq!(
            &render_serve_transcript(restored.daemon.transcript()),
            transcript,
            "cut {cut}"
        );
        assert_eq!(&restored.replayed, responses, "cut {cut}");
        // Resuming with the lines that never made it — the torn one
        // first, its client never saw an answer — is the uninterrupted
        // run.
        let (mut daemon, mut all) = (restored.daemon, restored.replayed);
        for line in &lines[k..] {
            all.extend(daemon.ingest(line));
        }
        assert_eq!(all, want_responses, "cut {cut}");
        assert_eq!(daemon.state_fingerprint(), want_state, "cut {cut}");
    }
}

#[test]
fn restoring_a_torn_journal_in_place_leaves_a_journal_that_restores() {
    let lines = history();
    let (reference, want_responses) = run_uninterrupted(&lines);
    let journal = full_journal(&lines, &reference, &want_responses);
    let path = scratch("torn.journal");
    let opts = HostOpts {
        restore: Some(path.clone()),
        journal: Some(path.clone()),
        ..HostOpts::default()
    };
    // Torn inside every fifth request line, and inside the last.
    let torn = cuts(&journal)
        .into_iter()
        .filter(|&(cut, complete)| !journal[..cut].ends_with(b"\n") && complete >= 2)
        .map(|(cut, complete)| (cut, complete - 2));
    for (cut, k) in torn.filter(|&(_, k)| k % 5 == 0 || k == lines.len() - 1) {
        std::fs::write(&path, &journal[..cut]).expect("write torn journal");
        // What the first daemon's clients saw, then what the second's do.
        let mut all = run_uninterrupted(&lines[..k]).1;
        all.extend(serve(&opts, &lines[k..]));
        assert_eq!(all, want_responses, "torn in line {k}");
        // The torn bytes are gone, not buried mid-file: the journal is
        // the one an uninterrupted run writes, and it restores.
        let healed = std::fs::read(&path).expect("journal");
        assert_eq!(healed, journal, "torn in line {k}");
        let again = restore_artefact(&healed).expect("restores again");
        assert_eq!(
            again.daemon.state_fingerprint(),
            reference.state_fingerprint()
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn damaged_artefacts_are_refused_with_the_line_that_stopped_them() {
    let lines = history();
    let (reference, _) = run_uninterrupted(&lines);
    let image = render_image(&reference);
    let journal = render_journal(&reference);
    let n = lines.len();
    let count = format!("lines {n}\n");
    let refused = |artefact: String, line: usize, what: &str| {
        let want = format!("line {line}: {what}");
        match restore_artefact(artefact.as_bytes()) {
            Err(e) => assert!(e.starts_with(&want), "want '{want}...', got '{e}'"),
            Ok(_) => panic!("must be refused ({want}):\n{artefact}"),
        }
    };
    // Unknown headers: a future version, another file entirely, nothing.
    refused(
        journal.replacen("journal v1", "journal v2", 1),
        1,
        "unknown header",
    );
    refused(
        image.replacen("snapshot v1", "snapshot v9", 1),
        1,
        "unknown header",
    );
    refused(lines.join("\n"), 1, "unknown header");
    refused(String::new(), 1, "empty artefact");
    // A damaged config line, in either artefact.
    refused(
        journal.replacen("config {", "config [", 1),
        2,
        "JSON parse error",
    );
    refused(
        image.replacen("config {", "confi {", 1),
        2,
        "expected 'config ",
    );
    refused(
        image.replacen("\"seed\":", "\"sede\":", 1),
        2,
        "config: missing 'seed'",
    );
    refused(
        journal.replacen(":\"snic\"", ":\"sonic\"", 1),
        2,
        "config: bad mode",
    );
    // An image is sealed: its count, both digests, and its own end.
    let fewer = image.replacen(&count, &format!("lines {}\n", n - 1), 1);
    refused(fewer, n + 3, "expected 'transcript-sha256 ");
    let more = image.replacen(&count, &format!("lines {}\n", n + 1), 1);
    refused(more, n + 5, "expected 'transcript-sha256 ");
    refused(
        image.replacen(&count, "lines many\n", 1),
        3,
        "malformed lines count",
    );
    let resealed = image.replacen("transcript-sha256 ", "transcript-sha256 0", 1);
    refused(resealed, n + 4, "transcript digest mismatch");
    let resealed = image.replacen("state-sha256 ", "state-sha256 0", 1);
    refused(resealed, n + 5, "state digest mismatch");
    let unsealed = image[..image.find("transcript-sha256").expect("sealed")].to_string();
    refused(unsealed, n + 4, "expected 'transcript-sha256 ");
    let cut = image.lines().take(10).collect::<Vec<_>>().join("\n");
    refused(cut, 11, &format!("truncated image: 7 of {n} history lines"));
}

#[test]
fn carriage_returns_and_comments_survive_both_artefacts_byte_for_byte() {
    // The `snapshot` op digests the history verbatim, so a reader that
    // normalised line endings would replay to a different digest.
    let mut d = Daemon::new(config());
    let mut responses = Vec::new();
    for line in [
        "{\"op\":\"register\",\"tenant\":\"a\",\"id\":1}\r",
        "# operator note: tenant a onboarded\r",
        "",
        "   # indented comment",
        "{\"op\":\"snapshot\",\"id\":2}",
        "{\"op\":\"health\",\"id\":3}\r",
    ] {
        responses.extend(d.ingest(line));
    }
    let image = render_image(&d);
    let (restored, replayed) = restore(&image).expect("image restores");
    assert_eq!(restored.history(), d.history());
    assert_eq!(replayed, responses);
    assert_eq!(render_image(&restored), image);

    let journal = render_journal(&d);
    let restored = restore_artefact(journal.as_bytes()).expect("journal restores");
    assert_eq!(restored.replayed, responses);
    assert_eq!(render_journal(&restored.daemon), journal);
    assert_eq!(render_image(&restored.daemon), image);
}

#[test]
fn an_image_cannot_be_rebound_to_another_tenant() {
    // Two tenants with different entitlements. An attacker holding the
    // image wants `b` to come back with `a`'s quota (or to be first in
    // the round-robin order): swap the two `register` lines, or the two
    // names. The history is still well-formed and still the same
    // length, so only the digests stand in the way.
    let mut lines = history();
    lines.insert(
        1,
        r#"{"op":"register","tenant":"b","id":100,"queue_depth":1,"burst":1,"refill_ps":9000000}"#
            .to_string(),
    );
    let (d, _) = run_uninterrupted(&lines);
    let image = render_image(&d);
    restore(&image).expect("the honest image restores");

    let swapped_lines = image.replacen(
        &format!("{}\n{}\n", lines[0], lines[1]),
        &format!("{}\n{}\n", lines[1], lines[0]),
        1,
    );
    let rename = |l: &str| {
        l.replace("\"tenant\":\"a\"", "\"tenant\":\"?\"")
            .replace("\"tenant\":\"b\"", "\"tenant\":\"a\"")
            .replace("\"tenant\":\"?\"", "\"tenant\":\"b\"")
    };
    let swapped_names = image.replacen(
        &format!("{}\n{}\n", lines[0], lines[1]),
        &format!("{}\n{}\n", rename(&lines[0]), rename(&lines[1])),
        1,
    );
    for forged in [swapped_lines, swapped_names] {
        assert_ne!(forged, image);
        let err = restore(&forged)
            .err()
            .expect("forged image must be refused");
        assert!(err.contains("digest mismatch"), "{err}");
    }
}

/// `lifecycles` NF lifecycles the way `serve_churn` drives them: four
/// tenants round-robin, `launch` (4…32 MiB) → `attest` → `stats` →
/// `teardown`, a `snapshot` after every tenth.
fn churn(lifecycles: usize) -> Vec<String> {
    let mut lines: Vec<String> = (0..4)
        .map(|t| format!(r#"{{"op":"register","tenant":"t{t}","id":{}}}"#, t + 1))
        .collect();
    let mems = [4, 32, 12, 8, 28, 16, 24, 20];
    for k in 0..lifecycles {
        let launch = format!(r#","name":"nf","mem":{}"#, mems[k % mems.len()]);
        for (op, extra) in [
            ("launch", launch.as_str()),
            ("attest", r#","name":"nf""#),
            ("stats", r#","name":"nf""#),
            ("teardown", r#","name":"nf""#),
        ] {
            let (t, id) = (k % 4, lines.len() + 1);
            lines.push(format!(
                r#"{{"op":"{op}","tenant":"t{t}","id":{id}{extra}}}"#
            ));
        }
        if (k + 1) % 10 == 0 {
            lines.push(format!(r#"{{"op":"snapshot","id":{}}}"#, lines.len() + 1));
        }
    }
    lines
}

/// The lifecycle kernels (RSA, page ownership, scrub) may change what
/// they cost, never what they answer: the digests below were captured
/// at the commit before Montgomery/CRT signing, range-keyed ownership
/// and the resident-only scrub, over everything a client or a restart
/// can see — the response stream, the serve transcript, the state
/// fingerprint (ownership ranges, denylist and free list with three
/// functions left live) and the sealed exit image.
#[test]
fn a_churn_run_answers_as_it_did_before_the_lifecycle_kernels_changed() {
    use snic::crypto::sha256::{sha256, to_hex};
    let mut lines = churn(40);
    for t in 0..3 {
        let id = lines.len() + 1;
        lines.push(format!(
            r#"{{"op":"launch","tenant":"t{t}","id":{id},"name":"kept","mem":{}}}"#,
            8 + 4 * t
        ));
    }
    let opts = HostOpts {
        snapshot_out: Some(scratch("churn.image")),
        ..HostOpts::default()
    };
    let mut host = Host::boot(&opts).expect("boot");
    let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let mut responses = Vec::new();
    host.serve(input.as_bytes(), &mut responses).expect("serve");
    let state = host.daemon().state_fingerprint();
    let transcript = render_serve_transcript(host.daemon().transcript());
    host.finish().expect("finish");
    let path = opts.snapshot_out.expect("set above");
    let image = std::fs::read(&path).expect("exit-time image");
    let _ = std::fs::remove_file(&path);

    let responses = String::from_utf8(responses).expect("UTF-8");
    assert_eq!(responses.lines().count(), lines.len());
    assert!(responses.lines().all(|r| r.contains(r#""ok":true"#)));
    assert_eq!(responses.matches(r#""verified":true"#).count(), 40);
    let digest = |bytes: &[u8]| to_hex(&sha256(bytes));
    assert_eq!(
        digest(responses.as_bytes()),
        "ea407f04fcc370d4a93091e5a161b12021b9c9efa6f69e980575936823ea5d1a"
    );
    assert_eq!(
        digest(transcript.as_bytes()),
        "b495ccc1af54f0c25cdf249032f4de5e5e9206320e1c5b666be032691cfac926"
    );
    assert_eq!(
        digest(state.as_bytes()),
        "9ccc494c3ea92b311d2cc3857b7de6cee4324b799486347fbdb9ff0887cc6fa0"
    );
    assert_eq!(
        digest(&image),
        "093906654d7463636742aa40a793deb08b699514986bbf562c4767b8b986ec9c"
    );
}

/// Serve `lines` through a host with `cfg`; returns everything a client
/// or a restart can see: the response stream, the serve transcript, the
/// state fingerprint and the sealed exit image.
fn observables(cfg: DaemonConfig, lines: &[String], image: &str) -> [Vec<u8>; 4] {
    let opts = HostOpts {
        cfg,
        snapshot_out: Some(scratch(image)),
        ..HostOpts::default()
    };
    let mut host = Host::boot(&opts).expect("boot");
    let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let mut responses = Vec::new();
    host.serve(input.as_bytes(), &mut responses).expect("serve");
    let state = host.daemon().state_fingerprint();
    let transcript = render_serve_transcript(host.daemon().transcript());
    host.finish().expect("finish");
    let path = opts.snapshot_out.expect("set above");
    let image = std::fs::read(&path).expect("exit-time image");
    let _ = std::fs::remove_file(&path);
    [
        responses,
        transcript.into_bytes(),
        state.into_bytes(),
        image,
    ]
}

/// `bodies` with each `{id}` replaced by the line's 1-based number.
fn numbered(bodies: impl IntoIterator<Item = String>) -> Vec<String> {
    let number = |(i, body): (usize, String)| body.replace("{id}", &(i + 1).to_string());
    bodies.into_iter().enumerate().map(number).collect()
}

/// The request path (parse, admission, counters, rendering) may change
/// what it costs, never what it answers: the digests below were captured
/// at the commit before the borrowed request reader, the static-keyed
/// recorder and in-place rendering. Two runs, hashed one after the
/// other. The first is `serve_dataplane`'s shape under the default
/// config — four tenants, 2 000 requests of 6 `send` : 1 `poll` :
/// 1 `stats` in a seeded order — followed by a tenant name that needs
/// every escape, a rate-limited tenant's shed, malformed lines, an
/// unknown op, `telemetry-summary` and `health`. The second serves by
/// explicit `step`s, so a queue can build: an overload shed, a request
/// that expires while queued, a `reclaim` of nothing.
#[test]
fn a_dataplane_run_answers_as_it_did_before_the_request_path_changed() {
    use snic::crypto::sha256::{sha256, to_hex};
    let mut bodies: Vec<String> = Vec::new();
    for t in 0..4 {
        bodies.push(format!(
            r#"{{"op":"register","tenant":"t{t}","id":{{id}}}}"#
        ));
    }
    for t in 0..4 {
        let launch = format!(r#"{{"op":"launch","tenant":"t{t}","id":{{id}},"name":"nf","mem":8"#);
        bodies.push(format!(r#"{launch},"port":{}}}"#, 2_000 + t));
    }
    let mut rng = 0x5eed_da7a_u64;
    let mut next = || {
        rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut block = [
        "send", "send", "send", "send", "send", "send", "poll", "stats",
    ];
    for i in 0..2_000 {
        if i % block.len() == 0 {
            for k in (1..block.len()).rev() {
                block.swap(k, (next() % (k as u64 + 1)) as usize);
            }
        }
        let (t, op) = (i % 4, block[i % block.len()]);
        let args = match op {
            "send" => format!(r#""count":4,"port":{}"#, 2_000 + t),
            _ => r#""name":"nf""#.to_string(),
        };
        bodies.push(format!(
            r#"{{"op":"{op}","tenant":"t{t}","id":{{id}},{args}}}"#
        ));
    }
    bodies.extend(
        [
            // Every escape the reader knows, in a member the response
            // echoes and the transcript keeps; whitespace around every
            // token.
            r#" { "op" : "send" , "tenant" : "q\"\\\/\b\f\n\r\téé" , "id" : {id} , "count" : 1 , "port" : 2001 } "#,
            r#"{"op":"poll","tenant":"q\"\\\/\b\f\n\r\téé","id":{id},"name":"nf"}"#,
            r#"{"op":"register","tenant":"slow","id":{id},"burst":1,"refill_ps":9000000000000}"#,
            r#"{"op":"send","tenant":"slow","id":{id},"count":2,"port":2000,"ignored":[1,{"a":null}],"id":7}"#,
            r#"{"op":"send","tenant":"slow","id":{id},"count":2,"port":2000}"#,
            r#"{"op":"send","tenant":"t0","id":{id},"count":1,"port":2000"#,
            r#"{"op":"send","tenant":"t0","id":{id}.0,"count":1.0,"port":2e3}"#,
            r#"{"op":"send","tenant":"t0","id":{id},"count":1,"port":65616}"#,
            r#"{"op":"frobnicate","tenant":"t1","id":{id}}"#,
            r#"{"tenant":"t1","id":{id}}"#,
            r#"{"op":"stats","id":{id},"name":"nf"}"#,
            r#"{"op":"telemetry-summary","id":{id}}"#,
            r#"{"op":"health","id":{id}}"#,
        ]
        .map(str::to_string),
    );
    let lines = numbered(bodies);
    let first = observables(DaemonConfig::default(), &lines, "dataplane.image");
    let responses = String::from_utf8(first[0].clone()).expect("UTF-8");
    assert_eq!(responses.lines().count(), lines.len());
    assert_eq!(responses.matches(r#""ok":false"#).count(), 7, "{responses}");
    assert!(responses.contains("SERVE-RATE-LIMITED"));

    let lines = numbered(
        [
            r#"{"op":"register","tenant":"a","id":{id},"queue_depth":2,"burst":9}"#,
            r#"{"op":"launch","tenant":"a","id":{id},"name":"fw","mem":8,"port":80}"#,
            r#"{"op":"step","id":{id}}"#,
            r#"{"op":"send","tenant":"a","id":{id},"count":3,"port":80,"deadline_us":5}"#,
            r#"{"op":"stats","tenant":"a","id":{id},"name":"fw"}"#,
            r#"{"op":"poll","tenant":"a","id":{id},"name":"fw"}"#,
            r#"{"op":"advance","id":{id},"us":10}"#,
            r#"{"op":"step","id":{id},"n":5}"#,
            r#"{"op":"poll","tenant":"a","id":{id},"name":"nope"}"#,
            r#"{"op":"step","id":{id},"n":1}"#,
            r#"{"op":"reclaim","tenant":"a","id":{id}}"#,
            r#"{"op":"reclaim","tenant":"b","id":{id}}"#,
            r#"{"op":"telemetry-summary","id":{id}}"#,
            r#"{"op":"health","id":{id}}"#,
            r#"{"op":"verify","id":{id}}"#,
        ]
        .map(str::to_string),
    );
    let second = observables(config(), &lines, "stepped.image");
    let responses = String::from_utf8(second[0].clone()).expect("UTF-8");
    for code in ["SERVE-OVERLOADED", "SERVE-EXPIRED", "SERVE-UNKNOWN-NF"] {
        assert!(responses.contains(code), "no {code}:\n{responses}");
    }

    let digest = |i: usize| to_hex(&sha256(&[&first[i][..], &second[i][..]].concat()));
    assert_eq!(
        [digest(0), digest(1), digest(2), digest(3)],
        [
            "29fff0e82db77ae2b33bfff18ab544c7dc3860d6fac59706c87b5cda3ee8e55c",
            "b4ed9f286e990ca49e73750c5b744d523ef3bb7af91f07f9558a9ddcea71e3bd",
            "784cd247b42cca48b0983f24bb6e7de53f919ce01505f86816fe5cc466683f8b",
            "f4e7a331d1f30c6d5f6bc591522cfe826dd6f6c487537cacf291b1113119ff8e",
        ],
        "responses, transcript, state fingerprint, sealed image"
    );
}

/// One accepted line may carry a string member of almost
/// `MAX_LINE_BYTES`. The JSON reader used to re-validate the rest of the
/// line for every character it copied, so such a line held the
/// single-writer daemon for tens to hundreds of milliseconds with every
/// tenant waiting: these 200 took 57 s at the parent commit. Copied a
/// run at a time they take ≈ 0.1 s; the bound sits between, a factor of
/// twenty from either. The answers — the string echoed in a rejection,
/// ignored in a `send`, as a tenant name, as a key — are the digest
/// captured at the parent.
#[test]
fn long_string_members_are_answered_in_linear_time() {
    use snic::crypto::sha256::{sha256, to_hex};
    const LEN: usize = 63 << 10;
    let fill = |unit: &str| unit.repeat(LEN / unit.len());
    let strings = [fill("x"), fill(r"\né\\"), fill("é€𝄞")];
    let mut bodies = vec![
        r#"{"op":"launch","tenant":"t0","id":{id},"name":"nf","mem":8,"port":80}"#.to_string(),
    ];
    for i in 0..200 {
        let long = &strings[i % 3];
        bodies.push(match i % 4 {
            0 => format!(r#"{{"op":"poll","tenant":"t0","id":{{id}},"name":"{long}"}}"#),
            1 => format!(
                r#"{{"op":"send","pad":"{long}","tenant":"t0","id":{{id}},"count":1,"port":80}}"#
            ),
            2 => format!(r#"{{"op":"send","tenant":"{long}","id":{{id}},"count":1,"port":80}}"#),
            _ => format!(r#"{{"{long}":1,"op":"stats","tenant":"t0","id":{{id}},"name":"nf"}}"#),
        });
    }
    let input: String = numbered(bodies).iter().map(|l| format!("{l}\n")).collect();
    let mut host = Host::boot(&HostOpts::default()).expect("boot");
    let mut responses = Vec::new();
    let start = std::time::Instant::now();
    host.serve(input.as_bytes(), &mut responses).expect("serve");
    let took = start.elapsed();
    assert_eq!(responses.iter().filter(|&&b| b == b'\n').count(), 201);
    assert_eq!(
        to_hex(&sha256(&responses)),
        "97d5d35577d659f8eddcfe28004a7452ff182639c70cf0db699a55f076d430be",
        "the parent's answers"
    );
    assert!(took.as_secs_f64() < 2.0, "200 long lines took {took:?}");
}
