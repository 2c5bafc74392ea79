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
