//! The deterministic soak harness: a seeded multi-tenant overload
//! schedule with a mid-run fault plan, plus the acceptance gate CI
//! runs over it.
//!
//! The schedule (one protocol line per entry, service driven by
//! explicit `step` ops so arrival and service rates are part of the
//! seed) covers roughly 30 simulated seconds and exercises:
//!
//! - a well-behaved tenant (`alpha`) that must sail through with zero
//!   sheds, zero failures, zero expiries;
//! - a victim tenant (`bravo`) whose NF is crashed mid-run by an
//!   injected `rx`/`nf-crash` fault: its queue freezes with a request
//!   still held, its later submissions shed `SERVE-FROZEN`, and an
//!   explicit `reclaim` tears the faulted NF down, sheds the held
//!   queue, thaws, and lets it resume service;
//! - an abusive tenant (`flood`) with a tight quota whose bursts shed
//!   `SERVE-OVERLOADED` and `SERVE-RATE-LIMITED` and whose
//!   tight-deadline request expires in queue;
//! - a NIC-OS crash injected in front of a launch, absorbed by the
//!   retry policy without any tenant-visible failure;
//! - a mid-run `snapshot`, a final `verify` (Pass 4 must be clean) and
//!   `drain`.
//!
//! [`SoakReport::gate`] encodes the acceptance criteria and
//! [`SoakReport::check_restart`] the restart differential; [`run_checked`]
//! holds a run to both, and is what `snicctl exp soak` renders (exit 12
//! if any of them drifts). `snicctl soak` prints [`schedule`] for
//! `snicd`.

use snic_crypto::sha256::{sha256, to_hex};
use snic_faults::{render_serve_transcript, ServeEventKind};
use snic_verify::Finding;

use crate::admission::TenantStats;
use crate::daemon::{Daemon, DaemonConfig};
use crate::snapshot;

/// What happened to the victim tenant, read back off the transcript.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VictimOutcome {
    /// The victim's queue was frozen after the injected NF crash.
    pub frozen: bool,
    /// `reclaim` thawed it again.
    pub thawed: bool,
    /// Requests still held in the frozen queue when it was reclaimed.
    pub held_shed: u32,
    /// The victim was served successfully again after the thaw.
    pub served_after_thaw: bool,
}

/// Everything a soak run produced, plus the acceptance gate.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The seed the schedule was generated from.
    pub seed: u64,
    /// Every response line, in order.
    pub responses: Vec<String>,
    /// The rendered [`snic_faults::ServeRecord`] transcript.
    pub transcript: String,
    /// The daemon's final state fingerprint.
    pub state: String,
    /// Final per-tenant accounting, in round-robin order.
    pub tenants: Vec<(String, TenantStats)>,
    /// Pass 4 findings over the transcript (must be empty).
    pub findings: Vec<Finding>,
    /// Victim-tenant lifecycle, from the transcript.
    pub victim: VictimOutcome,
}

impl SoakReport {
    /// The run's text: a fixed-width per-tenant table, the victim's
    /// lifecycle and the [`SoakReport::digest`].
    pub fn render(&self) -> String {
        let mut out = format!(
            "soak seed={:#x}: {} requests ingested\n\n\
             tenant   submitted admitted served failed shed expired reclaimed\n",
            self.seed,
            self.responses.len()
        );
        for (name, s) in &self.tenants {
            out.push_str(&format!(
                "{name:<8} {:>9} {:>8} {:>6} {:>6} {:>4} {:>7} {:>9}\n",
                s.submitted, s.admitted, s.served, s.failed, s.shed, s.expired, s.reclaimed
            ));
        }
        out.push_str(&format!(
            "\nvictim: {:?}\ndigest: {}\n",
            self.victim,
            self.digest()
        ));
        out
    }

    /// SHA-256 over responses, transcript and state — the one-line
    /// identity the golden pins down.
    pub fn digest(&self) -> String {
        let mut bytes = Vec::new();
        for r in &self.responses {
            bytes.extend_from_slice(r.as_bytes());
            bytes.push(b'\n');
        }
        bytes.extend_from_slice(self.transcript.as_bytes());
        bytes.extend_from_slice(self.state.as_bytes());
        to_hex(&sha256(&bytes))
    }

    fn stats(&self, tenant: &str) -> TenantStats {
        self.tenants
            .iter()
            .find(|(n, _)| n == tenant)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    /// The acceptance gate: blast-radius containment at the serving
    /// layer, backpressure engaged, Pass 4 clean, drain completed.
    pub fn gate(&self) -> Result<(), String> {
        let mut problems = Vec::new();
        if !self.findings.is_empty() {
            problems.push(format!(
                "Pass 4 found {} violation(s): {:?}",
                self.findings.len(),
                self.findings
                    .iter()
                    .map(|f| f.kind.code())
                    .collect::<Vec<_>>()
            ));
        }
        let alpha = self.stats("alpha");
        if alpha.failed != 0 || alpha.shed != 0 || alpha.expired != 0 {
            problems.push(format!(
                "non-faulted tenant 'alpha' was disrupted: failed={} shed={} expired={}",
                alpha.failed, alpha.shed, alpha.expired
            ));
        }
        let flood = self.stats("flood");
        if flood.failed != 0 {
            problems.push(format!(
                "non-faulted tenant 'flood' saw {} hard failures (sheds are fine, \
                 failures are not)",
                flood.failed
            ));
        }
        if flood.shed == 0 {
            problems.push("backpressure never engaged: 'flood' was never shed".to_string());
        }
        if flood.expired == 0 {
            problems.push("deadline expiry never exercised for 'flood'".to_string());
        }
        if !self.victim.frozen {
            problems.push("victim 'bravo' was never frozen".to_string());
        }
        if !self.victim.thawed {
            problems.push("victim 'bravo' was never thawed by reclaim".to_string());
        }
        if self.victim.held_shed == 0 {
            problems.push("reclaim shed no held requests from the frozen queue".to_string());
        }
        if !self.victim.served_after_thaw {
            problems.push("victim 'bravo' was not served again after the thaw".to_string());
        }
        if !self
            .responses
            .iter()
            .any(|r| r.contains("\"op\":\"drain\",\"ok\":true"))
        {
            problems.push("drain never completed".to_string());
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("\n"))
        }
    }

    /// The restart differential: `restarted`, restored from a snapshot
    /// at schedule line `split`, must answer, record and end exactly as
    /// this uninterrupted run did, and pass the gate itself.
    pub fn check_restart(&self, split: usize, restarted: &SoakReport) -> Result<(), String> {
        for (what, same) in [
            ("responses", self.responses == restarted.responses),
            ("transcript", self.transcript == restarted.transcript),
            ("device state", self.state == restarted.state),
        ] {
            if !same {
                return Err(format!(
                    "restart at line {split}: {what} diverged from the uninterrupted run"
                ));
            }
        }
        restarted.gate()
    }
}

/// splitmix64 — the workspace's standard cheap deterministic mixer.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        snic_types::mix::splitmix64(&mut self.0)
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const ROUNDS: u32 = 36;

/// The seed `snicctl soak` and `snicctl exp soak` run.
pub const SEED: u64 = 0xBEEF;

/// The daemon configuration the soak runs under: service is driven
/// entirely by the schedule's explicit `step` ops.
pub fn soak_config(seed: u64) -> DaemonConfig {
    DaemonConfig {
        seed,
        auto_steps: 0,
        ..DaemonConfig::default()
    }
}

/// Generate the seeded soak schedule (~30 simulated seconds).
pub fn schedule(seed: u64) -> Vec<String> {
    let mut mix = Mix(seed);
    let mut id = 0u64;
    let mut next_id = || {
        id += 1;
        id
    };
    let mut lines: Vec<String> = Vec::new();
    let mut l = |s: String| lines.push(s);

    l(format!(
        r#"{{"op":"register","tenant":"alpha","id":{}}}"#,
        next_id()
    ));
    l(format!(
        r#"{{"op":"register","tenant":"bravo","id":{}}}"#,
        next_id()
    ));
    l(format!(
        r#"{{"op":"register","tenant":"flood","id":{},"queue_depth":2,"burst":4,"refill_ps":2000000}}"#,
        next_id()
    ));
    l(format!(
        r#"{{"op":"launch","tenant":"alpha","id":{},"name":"fw","mem":8,"port":80}}"#,
        next_id()
    ));
    l(format!(r#"{{"op":"step","id":{},"n":1}}"#, next_id()));
    l(format!(
        r#"{{"op":"launch","tenant":"bravo","id":{},"name":"ids","mem":8,"port":81}}"#,
        next_id()
    ));
    l(format!(r#"{{"op":"step","id":{},"n":1}}"#, next_id()));

    let mut bravo_port = 81u16;
    for round in 0..ROUNDS {
        l(format!(
            r#"{{"op":"advance","id":{},"us":850000}}"#,
            next_id()
        ));
        let mut steps = 3u32;

        // The well-behaved tenant: one modest request per round.
        match round {
            5 => l(format!(
                r#"{{"op":"attest","tenant":"alpha","id":{},"name":"fw"}}"#,
                next_id()
            )),
            7 | 16 => l(format!(
                r#"{{"op":"stats","tenant":"alpha","id":{},"name":"fw"}}"#,
                next_id()
            )),
            _ => match mix.pick(3) {
                0 => l(format!(
                    r#"{{"op":"send","tenant":"alpha","id":{},"count":{},"port":80,"deadline_us":30000000}}"#,
                    next_id(),
                    3 + mix.pick(5)
                )),
                1 => l(format!(
                    r#"{{"op":"poll","tenant":"alpha","id":{},"name":"fw"}}"#,
                    next_id()
                )),
                _ => l(format!(
                    r#"{{"op":"stats","tenant":"alpha","id":{},"name":"fw"}}"#,
                    next_id()
                )),
            },
        }

        // The victim tenant.
        match round {
            16 => {
                // Crash the next NF to receive a packet — bravo's, by
                // construction: alpha does no rx this round and the
                // flood's port matches no rule.
                l(format!(
                    r#"{{"op":"inject-fault","id":{},"site":"rx","kind":"nf-crash","after":1}}"#,
                    next_id()
                ));
                l(format!(
                    r#"{{"op":"send","tenant":"bravo","id":{},"count":1,"port":81}}"#,
                    next_id()
                ));
                // A second request that will still be queued when the
                // freeze lands — reclaim must shed it.
                l(format!(
                    r#"{{"op":"send","tenant":"bravo","id":{},"count":1,"port":81}}"#,
                    next_id()
                ));
            }
            23 => {
                l(format!(
                    r#"{{"op":"reclaim","tenant":"bravo","id":{}}}"#,
                    next_id()
                ));
            }
            24 => {
                bravo_port = 82;
                l(format!(
                    r#"{{"op":"launch","tenant":"bravo","id":{},"name":"ids2","mem":8,"port":82}}"#,
                    next_id()
                ));
                steps += 1;
            }
            _ => l(format!(
                r#"{{"op":"send","tenant":"bravo","id":{},"count":{},"port":{bravo_port}}}"#,
                next_id(),
                1 + mix.pick(4)
            )),
        }

        // The abusive tenant: every third round, a burst past its
        // depth and rate; once, a deadline too tight to survive the
        // next round's time advance.
        if round % 3 == 0 {
            for _ in 0..5 {
                l(format!(
                    r#"{{"op":"send","tenant":"flood","id":{},"count":1,"port":99}}"#,
                    next_id()
                ));
            }
            steps += 1;
        }
        if round == 13 {
            // Admitted now, expired by round 14's `advance`.
            l(format!(
                r#"{{"op":"send","tenant":"flood","id":{},"count":1,"port":99,"deadline_us":1}}"#,
                next_id()
            ));
            steps = 0;
        }

        // The management plane.
        match round {
            7 => {
                // A NIC-OS crash in front of alpha's second launch:
                // absorbed by the retry policy, invisible to tenants.
                l(format!(
                    r#"{{"op":"inject-fault","id":{},"site":"nicos","kind":"nic-os-crash","after":1}}"#,
                    next_id()
                ));
                l(format!(
                    r#"{{"op":"launch","tenant":"alpha","id":{},"name":"lb","mem":4}}"#,
                    next_id()
                ));
                steps += 1;
            }
            10 => {
                l(format!(
                    r#"{{"op":"teardown","tenant":"alpha","id":{},"name":"lb"}}"#,
                    next_id()
                ));
                steps += 1;
            }
            30 => l(format!(r#"{{"op":"snapshot","id":{}}}"#, next_id())),
            _ => {}
        }

        if steps > 0 {
            l(format!(r#"{{"op":"step","id":{},"n":{steps}}}"#, next_id()));
        }
    }

    l(format!(r#"{{"op":"health","id":{}}}"#, next_id()));
    l(format!(r#"{{"op":"verify","id":{}}}"#, next_id()));
    l(format!(
        r#"{{"op":"telemetry-summary","id":{}}}"#,
        next_id()
    ));
    l(format!(r#"{{"op":"drain","id":{}}}"#, next_id()));
    lines
}

fn report_of(seed: u64, daemon: &Daemon, responses: Vec<String>) -> SoakReport {
    let mut victim = VictimOutcome::default();
    let mut thaw_seq = None;
    for r in daemon.transcript() {
        if &*r.tenant != "bravo" {
            continue;
        }
        match &r.kind {
            ServeEventKind::Frozen { .. } => victim.frozen = true,
            ServeEventKind::Thawed => {
                victim.thawed = true;
                thaw_seq = Some(r.seq);
            }
            ServeEventKind::Reclaimed { shed } => victim.held_shed += shed,
            ServeEventKind::Served { ok: true, .. } if thaw_seq.is_some_and(|t| r.seq > t) => {
                victim.served_after_thaw = true;
            }
            _ => {}
        }
    }
    SoakReport {
        seed,
        transcript: render_serve_transcript(daemon.transcript()),
        state: daemon.state_fingerprint(),
        tenants: daemon
            .tenant_names()
            .iter()
            .map(|n| (n.clone(), daemon.tenant_stats(n).unwrap_or_default()))
            .collect(),
        findings: daemon.lint(),
        victim,
        responses,
    }
}

/// Run the full soak schedule for `seed`.
pub fn run(seed: u64) -> SoakReport {
    let mut daemon = Daemon::new(soak_config(seed));
    let mut responses = Vec::new();
    for line in schedule(seed) {
        responses.extend(daemon.ingest(&line));
    }
    report_of(seed, &daemon, responses)
}

/// Run the soak with a snapshot/restart at line `split_at`: the first
/// daemon ingests the prefix and is discarded; a second daemon is
/// restored from its snapshot image and ingests the suffix. Returns the
/// restarted run's report.
pub fn run_with_restart(seed: u64, split_at: usize) -> Result<SoakReport, String> {
    let lines = schedule(seed);
    let split_at = split_at.min(lines.len());

    let mut first = Daemon::new(soak_config(seed));
    let mut prefix_responses = Vec::new();
    for line in &lines[..split_at] {
        prefix_responses.extend(first.ingest(line));
    }
    let image = snapshot::render_image(&first);
    drop(first); // the "crash"

    let (mut second, replayed) = snapshot::restore(&image)?;
    if replayed != prefix_responses {
        return Err("replayed prefix responses diverge from the original".to_string());
    }
    let mut responses = replayed;
    for line in &lines[split_at..] {
        responses.extend(second.ingest(line));
    }
    Ok(report_of(seed, &second, responses))
}

/// Run the soak for `seed` and hold it to the gate and to the restart
/// differential at a third, half and two thirds of the schedule: in the
/// thick of the overload, and right after the fault plan froze the
/// victim.
pub fn run_checked(seed: u64) -> Result<SoakReport, String> {
    let report = run(seed);
    report.gate()?;
    let n = schedule(seed).len();
    for split in [n / 3, n / 2, 2 * n / 3] {
        report.check_restart(split, &run_with_restart(seed, split)?)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
    }

    #[test]
    fn soak_passes_its_own_gate() {
        let report = run(SEED);
        report.gate().expect("soak gate");
        assert_eq!(report.digest(), run(SEED).digest(), "byte-stable");
    }

    #[test]
    fn restart_mid_soak_is_byte_identical() {
        let report = run_checked(SEED).expect("gate and restart differential");
        assert_eq!(report.digest(), run(SEED).digest());
    }
}
