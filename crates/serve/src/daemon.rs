//! The resident daemon: a [`Daemon`] owns one [`SmartNic`] and serves
//! the line protocol of [`crate::protocol`].
//!
//! # Determinism contract
//!
//! Every observable output — response lines, the [`ServeRecord`]
//! transcript, device state — is a pure function of the
//! [`DaemonConfig`] and the sequence of ingested lines. The daemon
//! consults no wall clock and no OS entropy: time is the device's
//! simulated clock (one [`DaemonConfig::tick_ps`] per ingested line,
//! plus whatever operations cost), randomness is seeded from
//! [`DaemonConfig::seed`]. This is what makes snapshots cheap: a
//! snapshot is just the config plus the ingested line history, and a
//! restore is a replay (see [`crate::snapshot`]).
//!
//! # Serving model
//!
//! Every op is one row of [`VERBS`] — its name, its [`Class`], its
//! arguments and its handler — and nothing else knows the op names.
//! Queued ops pass admission control — bounded per-tenant queue,
//! token-bucket rate limit — and wait in their tenant's queue; a
//! round-robin pump serves queues one request per step, so a bursty
//! tenant cannot starve the others. Management ops execute
//! immediately. Whatever an op's outcome, its response line is
//! rendered in one place, `Daemon::respond`.
//!
//! When an executed op leaves one of a tenant's NFs in the `Faulted`
//! lifecycle state, the daemon freezes *that tenant's* queue — its
//! subsequent requests are rejected `SERVE-FROZEN`, its queued
//! requests wait — while every other tenant keeps being served
//! (§4.3/§4.6 blast-radius containment, lifted to the serving layer).
//! An explicit `reclaim` tears down the faulted NFs, sheds the frozen
//! queue, and thaws the tenant.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use snic_core::attest::{FunctionAttestation, Verifier};
use snic_core::config::{NicConfig, NicMode};
use snic_core::device::SmartNic;
use snic_core::instr::{LaunchRequest, NfImage};
use snic_core::{NicOs, RetryError, RetryPolicy};
use snic_crypto::dh::DhParams;
use snic_crypto::keys::VendorCa;
use snic_crypto::sha256::{sha256, to_hex};
use snic_faults::{FaultKind, FaultPlan, FaultSite, ServeEventKind, ServeRecord};
use snic_pktio::rules::{RuleMatch, SwitchRule};
use snic_telemetry::json::escape_into;
use snic_telemetry::{metrics, Json, Recorder, TelemetrySink};
use snic_types::mix::{fnv1a, mix64, FNV_OFFSET, GOLDEN_GAMMA};
use snic_types::packet::PacketBuilder;
use snic_types::{ByteSize, CoreId, NfId, NfState, Picos, Protocol};
use snic_verify::Finding;

use crate::admission::{Pending, QueuedOp, TenantQuota, TenantState};
use crate::protocol::{self, codes, extra, parse_request, Request};

/// Daemon configuration. Rendered canonically into snapshot images;
/// two daemons with equal configs and equal input histories are
/// byte-identical in every observable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonConfig {
    /// Master seed: NIC config seed, vendor CA keys, retry jitter,
    /// attestation nonces all derive from it.
    pub seed: u64,
    /// Device personality.
    pub mode: NicMode,
    /// Simulated picoseconds added per ingested line.
    pub tick_ps: u64,
    /// Service-pump steps run after each ingested line.
    pub auto_steps: u32,
    /// Default relative deadline (µs) applied to queued requests that
    /// carry none; `0` means no default deadline.
    pub default_deadline_us: u64,
    /// Default per-tenant admission limits (override per tenant with
    /// the `register` op).
    pub quota: TenantQuota,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            seed: 0xD5EED,
            mode: NicMode::Snic,
            tick_ps: 1_000_000, // 1 µs per line
            auto_steps: 2,
            default_deadline_us: 0,
            quota: TenantQuota::default(),
        }
    }
}

impl DaemonConfig {
    /// Canonical one-line JSON form (the snapshot header).
    pub fn render(&self) -> String {
        let mode = self.mode.name();
        format!(
            "{{\"seed\":{},\"mode\":\"{mode}\",\"tick_ps\":{},\"auto_steps\":{},\
             \"default_deadline_us\":{},\"quota\":{{\"queue_depth\":{},\"max_live_nfs\":{},\
             \"burst\":{},\"refill_ps\":{}}}}}",
            self.seed,
            self.tick_ps,
            self.auto_steps,
            self.default_deadline_us,
            self.quota.queue_depth,
            self.quota.max_live_nfs,
            self.quota.burst,
            self.quota.refill_ps,
        )
    }

    /// Parse the canonical form back. Inverse of [`DaemonConfig::render`].
    pub fn parse(text: &str) -> Result<DaemonConfig, String> {
        let j = snic_telemetry::parse_json(text).map_err(|e| e.to_string())?;
        fn num<T: TryFrom<u64>>(j: &Json, k: &str) -> Result<T, String> {
            let n = j.get(k).and_then(Json::as_u64);
            let n = n.ok_or_else(|| format!("config: missing '{k}'"))?;
            T::try_from(n).map_err(|_| format!("config: '{k}' out of range"))
        }
        let mode = j.get("mode").and_then(Json::as_str);
        let mode = mode
            .and_then(NicMode::named)
            .ok_or_else(|| format!("config: bad mode {mode:?}"))?;
        let q = j.get("quota").ok_or("config: missing 'quota'")?;
        Ok(DaemonConfig {
            seed: num(&j, "seed")?,
            mode,
            tick_ps: num(&j, "tick_ps")?,
            auto_steps: num(&j, "auto_steps")?,
            default_deadline_us: num(&j, "default_deadline_us")?,
            quota: TenantQuota {
                queue_depth: num(q, "queue_depth")?,
                max_live_nfs: num(q, "max_live_nfs")?,
                burst: num(q, "burst")?,
                refill_ps: num(q, "refill_ps")?,
            },
        })
    }
}

/// Deterministic per-request seed: the splitmix64 finalizer over the
/// daemon seed, an FNV-1a hash of the tenant name, and the request id.
fn request_seed(seed: u64, tenant: &str, id: u64) -> u64 {
    mix64(seed ^ fnv1a(FNV_OFFSET, tenant.as_bytes()) ^ id.wrapping_mul(GOLDEN_GAMMA))
}

/// `us` microseconds after `now`; `None` where the simulated clock
/// (u64 picoseconds) cannot hold that instant.
fn after_us(now: Picos, us: u64) -> Option<Picos> {
    let ps = us.checked_mul(1_000_000)?;
    now.0.checked_add(ps).map(Picos)
}

/// A typed rejection: the stable code and the human-readable text.
type Reject = (&'static str, String);

/// Outcome of one op: its extras appended to the response line it was
/// handed (see [`extra`]), or a typed rejection.
type ExecResult = Result<(), Reject>;

fn bad(error: impl Into<String>) -> Reject {
    (codes::BAD_REQUEST, error.into())
}

/// How an op is served, and by what.
#[derive(Clone, Copy)]
pub enum Class {
    /// A tenant op: typed argument extraction, then admission control
    /// and the tenant's queue; executed by the service pump.
    Queued(fn(&Request) -> Result<QueuedOp, String>),
    /// Executes immediately on behalf of the request's tenant, which
    /// its response names.
    Tenant(fn(&mut Daemon, &Request, &mut String) -> ExecResult),
    /// Executes immediately on the daemon as a whole; its response
    /// names no tenant.
    Daemon(fn(&mut Daemon, &Request, &mut String) -> ExecResult),
}

/// One protocol op. Its row in [`VERBS`] is the only place its name is
/// written.
pub struct Verb {
    /// The `"op"` member of a request, and the first word of a `.snic`
    /// script line.
    pub name: &'static str,
    /// The key a script line's one bare (not `key=value`) word is filed
    /// under.
    pub positional: Option<&'static str>,
    /// Every argument key, optional ones in brackets. Queued ops also
    /// take `[deadline_us]`.
    pub args: &'static str,
    /// Class and handler.
    pub class: Class,
}

fn name_of(req: &Request) -> Result<String, String> {
    Ok(req.str("name").ok_or("missing \"name\"")?.to_string())
}

const fn verb(
    name: &'static str,
    positional: Option<&'static str>,
    args: &'static str,
    class: Class,
) -> Verb {
    Verb {
        name,
        positional,
        args,
        class,
    }
}

// The queued rows are named: `QueuedOp::tag` maps a queued request
// back to its row.
const LAUNCH: Verb = verb(
    "launch",
    Some("name"),
    "name mem [core] [port]",
    Class::Queued(|req| {
        Ok(QueuedOp::Launch {
            name: name_of(req)?,
            core: req.int("core")?,
            mem_mib: req.num("mem").ok_or("missing \"mem\"")?,
            port: req.int("port")?,
        })
    }),
);
const TEARDOWN: Verb = verb(
    "teardown",
    Some("name"),
    "name",
    Class::Queued(|req| name_of(req).map(|name| QueuedOp::Teardown { name })),
);
const ATTEST: Verb = verb(
    "attest",
    Some("name"),
    "name",
    Class::Queued(|req| name_of(req).map(|name| QueuedOp::Attest { name })),
);
const STATS: Verb = verb(
    "stats",
    Some("name"),
    "name",
    Class::Queued(|req| name_of(req).map(|name| QueuedOp::Stats { name })),
);
const SEND: Verb = verb(
    "send",
    Some("count"),
    "count port",
    Class::Queued(|req| {
        Ok(QueuedOp::Send {
            count: req.int("count")?.ok_or("missing \"count\"")?,
            port: req.int("port")?.ok_or("missing \"port\"")?,
        })
    }),
);
const POLL: Verb = verb(
    "poll",
    Some("name"),
    "name",
    Class::Queued(|req| name_of(req).map(|name| QueuedOp::Poll { name })),
);

/// Every op the daemon serves.
pub const VERBS: &[Verb] = &[
    LAUNCH,
    TEARDOWN,
    ATTEST,
    STATS,
    SEND,
    POLL,
    verb(
        "register",
        None,
        "[queue_depth] [max_live_nfs] [burst] [refill_ps]",
        Class::Tenant(Daemon::op_register),
    ),
    verb("reclaim", None, "", Class::Tenant(Daemon::op_reclaim)),
    verb("step", Some("n"), "[n]", Class::Daemon(Daemon::op_step)),
    verb(
        "advance",
        Some("us"),
        "us",
        Class::Daemon(Daemon::op_advance),
    ),
    verb(
        "inject-fault",
        None,
        "site kind [after]",
        Class::Daemon(Daemon::op_inject_fault),
    ),
    verb(
        "resume-scrubs",
        None,
        "",
        Class::Daemon(Daemon::op_resume_scrubs),
    ),
    verb("health", None, "", Class::Daemon(Daemon::op_health)),
    verb(
        "telemetry-summary",
        None,
        "",
        Class::Daemon(Daemon::op_telemetry_summary),
    ),
    verb("verify", None, "", Class::Daemon(Daemon::op_verify)),
    verb("snapshot", None, "", Class::Daemon(Daemon::op_snapshot)),
    verb("drain", None, "", Class::Daemon(Daemon::op_drain)),
];

impl QueuedOp {
    /// The op name as it appears in the protocol and the serve
    /// transcript.
    pub fn tag(&self) -> &'static str {
        match self {
            QueuedOp::Launch { .. } => LAUNCH.name,
            QueuedOp::Teardown { .. } => TEARDOWN.name,
            QueuedOp::Attest { .. } => ATTEST.name,
            QueuedOp::Stats { .. } => STATS.name,
            QueuedOp::Send { .. } => SEND.name,
            QueuedOp::Poll { .. } => POLL.name,
        }
    }
}

/// The resident serving daemon.
pub struct Daemon {
    cfg: DaemonConfig,
    vendor: VendorCa,
    nic: SmartNic,
    recorder: Arc<Recorder>,
    /// Tenants in first-contact order: a tenant's slot is its place in
    /// the round-robin schedule, and what a line's tenant name is
    /// resolved to, once.
    tenants: Vec<TenantState>,
    /// Slot by name; name order is the order fingerprints, `health` and
    /// the fault scan walk tenants in.
    slots: BTreeMap<Arc<str>, usize>,
    cursor: usize,
    /// Every ingested line, verbatim — the event source.
    history: Vec<String>,
    audit: Vec<ServeRecord>,
    seq: u64,
    draining: bool,
    served_total: u64,
    packet_seq: u32,
    /// Length of the device's fault log when `scan_faults` last walked
    /// the tenants.
    faults_scanned: usize,
    /// Response lines of the line being ingested, in order.
    out: Vec<String>,
}

impl Daemon {
    /// Boot a daemon: fresh device, fresh vendor CA, empty tenant set.
    pub fn new(cfg: DaemonConfig) -> Daemon {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let vendor = VendorCa::new(&mut rng);
        let mut nic_cfg = NicConfig::small(cfg.mode);
        nic_cfg.seed = cfg.seed;
        let mut nic = SmartNic::new(nic_cfg, &vendor);
        let recorder = Arc::new(Recorder::new());
        nic.set_telemetry(recorder.clone());
        Daemon {
            cfg,
            vendor,
            nic,
            recorder,
            tenants: Vec::new(),
            slots: BTreeMap::new(),
            cursor: 0,
            history: Vec::new(),
            audit: Vec::new(),
            seq: 0,
            draining: false,
            served_total: 0,
            packet_seq: 0,
            faults_scanned: 0,
            out: Vec::new(),
        }
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.cfg
    }

    /// The admission transcript so far.
    pub fn transcript(&self) -> &[ServeRecord] {
        &self.audit
    }

    /// The ingested line history (the event source a snapshot embeds).
    pub fn history(&self) -> &[String] {
        &self.history
    }

    /// Read access to the device, for tests and state digests.
    pub fn nic(&self) -> &SmartNic {
        &self.nic
    }

    /// Whether `tenant` is currently frozen (fault attributed, queue
    /// held until `reclaim`).
    pub fn is_frozen(&self, tenant: &str) -> bool {
        self.tenant(tenant).is_some_and(|t| t.frozen.is_some())
    }

    /// Per-tenant accounting, for gates and tables.
    pub fn tenant_stats(&self, tenant: &str) -> Option<crate::admission::TenantStats> {
        self.tenant(tenant).map(|t| t.stats)
    }

    /// Current queue depth of `tenant` (0 if unknown).
    pub fn queue_depth(&self, tenant: &str) -> usize {
        self.tenant(tenant).map_or(0, |t| t.queue.len())
    }

    /// The configured queue bound of `tenant`, if registered.
    pub fn queue_bound(&self, tenant: &str) -> Option<u32> {
        self.tenant(tenant).map(|t| t.quota.queue_depth)
    }

    /// Tenant names in first-contact (round-robin) order.
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants.iter().map(|t| t.name.to_string()).collect()
    }

    fn tenant(&self, name: &str) -> Option<&TenantState> {
        self.slots.get(name).map(|&slot| &self.tenants[slot])
    }

    /// Tenants in name order.
    fn by_name(&self) -> impl Iterator<Item = &TenantState> {
        self.slots.values().map(|&slot| &self.tenants[slot])
    }

    /// The slot of the tenant called `name`, registered under `quota`
    /// if this is its first contact.
    fn slot_of(&mut self, name: &str, quota: TenantQuota) -> usize {
        if let Some(&slot) = self.slots.get(name) {
            return slot;
        }
        let name: Arc<str> = Arc::from(name);
        let slot = self.tenants.len();
        self.tenants
            .push(TenantState::new(name.clone(), quota, self.nic.now()));
        self.slots.insert(name, slot);
        slot
    }

    /// Run Pass 4 over the daemon's own transcript.
    pub fn lint(&self) -> Vec<Finding> {
        snic_verify::lint_serve_transcript(&self.audit)
    }

    /// Whether a `drain` op has completed: the queues were served dry
    /// and no new work is admitted. A socket host stops accepting once
    /// the draining client disconnects.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// A stable multi-line digest of everything that must survive a
    /// restart: simulated time, the full device resource snapshot
    /// (including pending scrub watermarks), and every tenant's
    /// admission state. Snapshot images embed its SHA-256; the
    /// differential restart tests compare it byte-for-byte.
    pub fn state_fingerprint(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("now_ps {}\n", self.nic.now().0));
        s.push_str(&format!("resource {:?}\n", self.nic.resource_snapshot()));
        s.push_str(&format!(
            "daemon draining={} served_total={} seq={} cursor={} packet_seq={}\n",
            self.draining, self.served_total, self.seq, self.cursor, self.packet_seq
        ));
        for t in self.by_name() {
            s.push_str(&format!(
                "tenant {} frozen={:?} stats={:?} nfs={:?} queue={:?} bucket={:?}\n",
                t.name, t.frozen, t.stats, t.nfs, t.queue, t.bucket
            ));
        }
        s
    }

    /// Append to the transcript, stamped with the simulated clock. The
    /// record shares the name of the tenant in `slot`; `None` is a
    /// daemon-wide event.
    fn record(&mut self, slot: Option<usize>, id: u64, kind: ServeEventKind) {
        self.audit.push(ServeRecord {
            seq: self.seq,
            at: self.nic.now(),
            tenant: slot.map_or_else(|| Arc::from(""), |slot| self.tenants[slot].name.clone()),
            id,
            kind,
        });
        self.seq += 1;
    }

    fn count(&self, metric: &'static str) {
        self.recorder.counter_add(0, metric, 1);
    }

    /// Feed one input line; returns every response line it produced
    /// (admission rejections plus whatever the auto pumps completed).
    /// Blank lines and `#` comments are recorded in history (so
    /// replays stay aligned) but otherwise ignored.
    pub fn ingest(&mut self, line: &str) -> Vec<String> {
        self.history.push(line.to_string());
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Vec::new();
        }
        let parsed = parse_request(trimmed);
        if self.nic.advance(Picos(self.cfg.tick_ps)).is_none() {
            // The clock is at its end: answer, and change nothing else.
            let (id, tenant, op) = match &parsed {
                Ok(req) => (req.id, &*req.tenant, &*req.op),
                Err(_) => (0, "", "?"),
            };
            let why = format!(
                "a {} ps tick overflows the simulated clock at {} ps",
                self.cfg.tick_ps,
                self.nic.now().0
            );
            self.refuse(id, tenant, op, (codes::CLOCK_EXHAUSTED, why));
            return std::mem::take(&mut self.out);
        }
        match parsed {
            Err(e) => self.refuse(0, "", "?", bad(e)),
            Ok(req) => self.dispatch(&req),
        }
        for _ in 0..self.cfg.auto_steps {
            self.pump();
        }
        std::mem::take(&mut self.out)
    }

    /// Pump the scheduler until every unfrozen queue is empty, moving
    /// the responses into `out`. Returns how many requests were
    /// completed by this call.
    pub fn pump_dry(&mut self, out: &mut Vec<String>) -> u64 {
        let mut n = 0;
        while self.pump() {
            n += 1;
        }
        out.append(&mut self.out);
        n
    }

    /// The one place a response line is rendered, in the one buffer it
    /// is handed back in: the head, then the extras `run` appends after
    /// `"ok":true` — or, where `run` refuses, the typed rejection in
    /// their place. Returns the rejection code, if any.
    fn respond(
        &mut self,
        id: u64,
        tenant: &str,
        op: &str,
        run: impl FnOnce(&mut Daemon, &mut String) -> ExecResult,
    ) -> Option<&'static str> {
        let mut line = String::with_capacity(96);
        protocol::head(&mut line, id, tenant, op);
        let head = line.len();
        line.push_str(protocol::OK);
        let refused = run(self, &mut line).err();
        if let Some((code, error)) = &refused {
            line.truncate(head);
            protocol::refusal(&mut line, code, error);
        }
        line.push('}');
        self.out.push(line);
        refused.map(|(code, _)| code)
    }

    fn refuse(&mut self, id: u64, tenant: &str, op: &str, why: Reject) {
        self.respond(id, tenant, op, |_, _| Err(why));
    }

    fn dispatch(&mut self, req: &Request) {
        let Some(verb) = VERBS.iter().find(|v| v.name == req.op) else {
            return self.refuse(req.id, &req.tenant, &req.op, bad("unknown op"));
        };
        let (tenant, run) = match verb.class {
            Class::Queued(parse) => return self.admit(verb.name, parse(req), req),
            Class::Tenant(run) => (&*req.tenant, run),
            Class::Daemon(run) => ("", run),
        };
        self.respond(req.id, tenant, verb.name, |d, line| run(d, req, line));
    }

    // --------------------------------------------------------------
    // Admission
    // --------------------------------------------------------------

    fn admit(&mut self, tag: &'static str, op: Result<QueuedOp, String>, req: &Request) {
        if req.tenant.is_empty() {
            return self.refuse(req.id, "", tag, bad("tenant required"));
        }
        let now = self.nic.now();
        let slot = self.slot_of(&req.tenant, self.cfg.quota);
        let draining = self.draining;
        let t = &mut self.tenants[slot];
        t.stats.submitted += 1;
        let deadline = req
            .num("deadline_us")
            .or(Some(self.cfg.default_deadline_us).filter(|&us| us != 0))
            .map(|us| {
                after_us(now, us)
                    .ok_or_else(|| format!("deadline {us}us overflows the simulated clock"))
            })
            .transpose();
        // A malformed op is shed like any other refusal, before it can
        // cost the tenant a token.
        let verdict = op
            .and_then(|op| Ok((op, deadline?)))
            .map_err(bad)
            .and_then(|admitted| {
                if draining {
                    Err((codes::DRAINING, "daemon is draining".to_string()))
                } else if let Some(reason) = &t.frozen {
                    Err((codes::FROZEN, format!("tenant frozen: {reason}")))
                } else if !t.bucket.try_take(&t.quota, now) {
                    Err((
                        codes::RATE_LIMITED,
                        format!("token bucket empty (burst {})", t.quota.burst),
                    ))
                } else if t.queue.len() >= t.quota.queue_depth as usize {
                    Err((
                        codes::OVERLOADED,
                        format!("queue full at depth {}", t.quota.queue_depth),
                    ))
                } else {
                    Ok(admitted)
                }
            });
        match verdict {
            Err((code, error)) => {
                t.stats.shed += 1;
                self.record(Some(slot), req.id, ServeEventKind::Shed { code });
                self.count(metrics::SERVE_SHED);
                self.refuse(req.id, &req.tenant, tag, (code, error));
            }
            Ok((op, deadline)) => {
                t.queue.push_back(Pending {
                    id: req.id,
                    op,
                    deadline,
                });
                t.stats.admitted += 1;
                let depth = t.queue.len() as u32;
                let bound = t.quota.queue_depth;
                let admitted = ServeEventKind::Admitted {
                    op: tag,
                    depth,
                    bound,
                };
                self.record(Some(slot), req.id, admitted);
                self.count(metrics::SERVE_ADMITTED);
                self.recorder
                    .record(0, metrics::SERVE_QUEUE_DEPTH, u64::from(depth));
            }
        }
    }

    // --------------------------------------------------------------
    // Service pump
    // --------------------------------------------------------------

    /// Serve at most one queued request, round-robin across unfrozen
    /// tenants. Returns whether anything was served.
    fn pump(&mut self) -> bool {
        let n = self.tenants.len();
        for k in 0..n {
            let slot = (self.cursor + k) % n;
            let t = &mut self.tenants[slot];
            if t.frozen.is_some() {
                continue;
            }
            let Some(pending) = t.queue.pop_front() else {
                continue;
            };
            self.cursor = (slot + 1) % n;
            self.execute(slot, pending);
            return true;
        }
        false
    }

    fn execute(&mut self, slot: usize, p: Pending) {
        let tenant = self.tenants[slot].name.clone();
        let (id, tag) = (p.id, p.op.tag());
        if let Some(d) = p.deadline.filter(|&d| self.nic.now() > d) {
            self.tenants[slot].stats.expired += 1;
            self.record(Some(slot), id, ServeEventKind::Expired);
            self.count(metrics::SERVE_EXPIRED);
            let error = format!("deadline {}ps passed while queued", d.0);
            return self.refuse(id, &tenant, tag, (codes::EXPIRED, error));
        }
        let code = self.respond(id, &tenant, tag, |d, line| match p.op {
            QueuedOp::Launch {
                name,
                core,
                mem_mib,
                port,
            } => d.exec_launch(slot, id, &name, core, mem_mib, port, p.deadline, line),
            QueuedOp::Teardown { name } => d.exec_teardown(slot, &name, line),
            QueuedOp::Attest { name } => d.exec_attest(slot, id, &name, line),
            QueuedOp::Stats { name } => d.exec_stats(slot, &name, line),
            QueuedOp::Send { count, port } => d.exec_send(count, port, line),
            QueuedOp::Poll { name } => d.exec_poll(slot, &name, line),
        });
        self.served_total += 1;
        let t = &mut self.tenants[slot];
        t.stats.served += 1;
        if code.is_some() {
            t.stats.failed += 1;
        }
        let ok = code.is_none();
        self.record(Some(slot), id, ServeEventKind::Served { ok, code });
        self.count(metrics::SERVE_SERVED);
        self.scan_faults();
    }

    /// Unfrozen tenants that own a `Faulted` NF, in name order, each
    /// with the first such NF's name.
    fn newly_faulted(&self) -> Vec<(usize, String)> {
        let faulted = |nf: &NfId| matches!(self.nic.state_of(*nf), Ok(NfState::Faulted));
        self.slots
            .values()
            .filter(|&&slot| self.tenants[slot].frozen.is_none())
            .filter_map(|&slot| {
                let mut nfs = self.tenants[slot].nfs.iter();
                nfs.find_map(|(name, nf)| faulted(nf).then(|| (slot, name.clone())))
            })
            .collect()
    }

    /// Attribute newly `Faulted` NFs to their owning tenants and freeze
    /// those tenants' queues. The serving layer's blast radius is
    /// exactly the faulted tenant: everyone else keeps being served.
    ///
    /// An NF becomes `Faulted` only through a device transition, every
    /// transition is noted in the device's fault log, and the daemon
    /// never drains that log — so while the log has not grown since the
    /// last walk there is nothing new to find, and a served request
    /// costs one length compare instead of a walk over every NF of
    /// every tenant.
    fn scan_faults(&mut self) {
        let noted = self.nic.fault_log().len();
        if noted == self.faults_scanned {
            debug_assert!(self.newly_faulted().is_empty(), "a fault the log missed");
            return;
        }
        self.faults_scanned = noted;
        for (slot, nf_name) in self.newly_faulted() {
            let reason = format!("nf '{nf_name}' faulted");
            self.tenants[slot].frozen = Some(reason.clone());
            self.record(Some(slot), 0, ServeEventKind::Frozen { reason });
            self.count(metrics::SERVE_FROZEN);
        }
    }

    // --------------------------------------------------------------
    // Queued-op execution
    // --------------------------------------------------------------

    fn lookup(&self, slot: usize, name: &str) -> Result<NfId, Reject> {
        let t = &self.tenants[slot];
        t.nfs.get(name).copied().ok_or_else(|| {
            (
                codes::UNKNOWN_NF,
                format!("tenant '{}' has no NF '{name}'", t.name),
            )
        })
    }

    fn free_core(&self) -> Option<u16> {
        self.nic
            .resource_snapshot()
            .core_owner
            .iter()
            .position(Option::is_none)
            .map(|i| i as u16)
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_launch(
        &mut self,
        slot: usize,
        id: u64,
        name: &str,
        core: Option<u16>,
        mem_mib: u64,
        port: Option<u16>,
        deadline: Option<Picos>,
        line: &mut String,
    ) -> ExecResult {
        let t = &self.tenants[slot];
        let tenant = t.name.clone();
        if t.nfs.len() >= t.quota.max_live_nfs as usize {
            return Err((
                codes::QUOTA,
                format!("live-NF quota {} reached", t.quota.max_live_nfs),
            ));
        }
        if t.nfs.contains_key(name) {
            return Err((
                codes::BAD_REQUEST,
                format!("NF '{name}' already exists for tenant '{tenant}'"),
            ));
        }
        let core = match core.or_else(|| self.free_core()) {
            Some(c) => c,
            None => return Err((codes::FAULT, "no free core".to_string())),
        };
        let mut request = LaunchRequest::minimal(
            CoreId(core),
            ByteSize::mib(mem_mib),
            NfImage {
                code: format!("{tenant}/{name}").into_bytes(),
                config: vec![],
            },
        );
        if let Some(p) = port {
            request.rules.push(SwitchRule {
                dst_port: RuleMatch::Exact(p),
                priority: 10,
                ..SwitchRule::any(NfId(0))
            });
        }
        let before = self.nic.resource_snapshot();
        let policy = RetryPolicy::jittered(request_seed(self.cfg.seed, &tenant, id));
        match NicOs::new(&mut self.nic).nf_create_with_retry(request, policy, deadline) {
            Ok(receipt) => {
                self.tenants[slot]
                    .nfs
                    .insert(name.to_string(), receipt.nf_id);
                extra(line, "nf", receipt.nf_id.0);
                extra(line, "latency_ps", receipt.latency.total().0);
                Ok(())
            }
            Err(RetryError::DeadlineExceeded { attempts, deadline }) => {
                debug_assert_eq!(
                    before,
                    self.nic.resource_snapshot(),
                    "cancelled launch must leave no partial effects"
                );
                Err((
                    codes::EXPIRED,
                    format!(
                        "launch cancelled after {attempts} attempts: next backoff crosses \
                         deadline {}ps",
                        deadline.0
                    ),
                ))
            }
            Err(RetryError::Exhausted { attempts, last }) => {
                debug_assert_eq!(
                    before,
                    self.nic.resource_snapshot(),
                    "failed launch must leave no partial effects"
                );
                Err((
                    codes::RETRIES_EXHAUSTED,
                    format!("gave up after {attempts} attempts: {last}"),
                ))
            }
            Err(RetryError::Fatal(e)) => Err((codes::FAULT, e.to_string())),
        }
    }

    fn exec_teardown(&mut self, slot: usize, name: &str, line: &mut String) -> ExecResult {
        let nf = self.lookup(slot, name)?;
        match self.nic.nf_teardown(nf) {
            Ok(receipt) => {
                self.tenants[slot].nfs.remove(name);
                extra(line, "scrub_ps", receipt.latency.scrub.0);
                Ok(())
            }
            Err(snic_types::SnicError::PowerLoss) => {
                // The scrub was interrupted: its watermark ticket
                // survives on the device; the region stays quarantined
                // until `resume-scrubs`. Power comes back immediately
                // (the daemon is the operator) and the NF is gone.
                self.nic.restore_power();
                self.tenants[slot].nfs.remove(name);
                Err((
                    codes::FAULT,
                    "power lost mid-scrub; region pending with watermark".to_string(),
                ))
            }
            Err(e) => Err((codes::FAULT, e.to_string())),
        }
    }

    fn exec_attest(&mut self, slot: usize, id: u64, name: &str, line: &mut String) -> ExecResult {
        let nf = self.lookup(slot, name)?;
        let measurement = self
            .nic
            .measurement_of(nf)
            .map_err(|e| (codes::FAULT, e.to_string()))?;
        let seed = request_seed(self.cfg.seed, &self.tenants[slot].name, id);
        let params = DhParams::tiny_test_group();
        let mut verifier = Verifier::hello(&mut StdRng::seed_from_u64(seed ^ 0xA77E57));
        let nonce = verifier.nonce;
        let f = FunctionAttestation::respond(
            &mut StdRng::seed_from_u64(seed ^ 0xF0),
            &mut self.nic,
            nf,
            &params,
            nonce,
        )
        .map_err(|e| (codes::FAULT, e.to_string()))?;
        let v_pub = verifier
            .accept(
                &mut StdRng::seed_from_u64(seed ^ 0xF1),
                self.vendor.public(),
                &measurement,
                &f.quote,
            )
            .map_err(|e| (codes::FAULT, e.to_string()))?;
        let ok = f.session_key(&v_pub) == verifier.session_key(&f.quote.dh_public);
        extra(line, "verified", ok);
        Ok(())
    }

    fn exec_stats(&mut self, slot: usize, name: &str, line: &mut String) -> ExecResult {
        let nf = self.lookup(slot, name)?;
        let r = self
            .nic
            .record_of(nf)
            .map_err(|e| (codes::FAULT, e.to_string()))?;
        extra(line, "delivered", r.rx_delivered);
        extra(line, "dropped", r.rx_dropped);
        extra(line, "sent", r.tx_sent);
        Ok(())
    }

    fn exec_send(&mut self, count: u32, port: u16, line: &mut String) -> ExecResult {
        let mut delivered = 0u32;
        for _ in 0..count {
            self.packet_seq += 1;
            let pkt = PacketBuilder::new(
                0x0a00_0000 + self.packet_seq,
                0xc633_0001,
                Protocol::Tcp,
                (1024 + self.packet_seq % 60_000) as u16,
                port,
            )
            .build_around(b"snicd");
            match self.nic.rx_packet(&pkt) {
                Ok(Some(_)) => delivered += 1,
                Ok(None) => {}
                Err(e) => return Err((codes::FAULT, e.to_string())),
            }
        }
        extra(line, "delivered", delivered);
        Ok(())
    }

    fn exec_poll(&mut self, slot: usize, name: &str, line: &mut String) -> ExecResult {
        let nf = self.lookup(slot, name)?;
        let mut n = 0u32;
        loop {
            match self.nic.poll_packet(nf) {
                Ok(Some(_)) => n += 1,
                Ok(None) => break,
                Err(e) => return Err((codes::FAULT, e.to_string())),
            }
        }
        extra(line, "polled", n);
        Ok(())
    }

    // --------------------------------------------------------------
    // Management ops
    // --------------------------------------------------------------

    fn op_register(&mut self, req: &Request, line: &mut String) -> ExecResult {
        if req.tenant.is_empty() {
            return Err(bad("tenant required"));
        }
        let mut quota = self.cfg.quota;
        if let Some(depth) = req.int("queue_depth").map_err(bad)? {
            quota.queue_depth = depth;
        }
        if let Some(live) = req.int("max_live_nfs").map_err(bad)? {
            quota.max_live_nfs = live;
        }
        if let Some(b) = req.num("burst") {
            quota.burst = b;
        }
        if let Some(r) = req.num("refill_ps") {
            quota.refill_ps = r;
        }
        let slot = self.slot_of(&req.tenant, quota);
        self.tenants[slot].quota = quota;
        extra(line, "queue_depth", quota.queue_depth);
        extra(line, "max_live_nfs", quota.max_live_nfs);
        extra(line, "burst", quota.burst);
        extra(line, "refill_ps", quota.refill_ps);
        Ok(())
    }

    /// `step {"n":k}`: run up to `k` service-pump steps explicitly,
    /// stopping early once nothing is ready. With `auto_steps: 0` in the
    /// config this is the only way queued work gets served, which lets
    /// schedules control the service rate — the soak harness and the
    /// admission property tests drive backpressure this way.
    fn op_step(&mut self, req: &Request, line: &mut String) -> ExecResult {
        let n = req.num("n").unwrap_or(1);
        let served = (0..n).take_while(|_| self.pump()).count();
        extra(line, "served", served);
        Ok(())
    }

    fn op_health(&mut self, _: &Request, line: &mut String) -> ExecResult {
        extra(line, "now_ps", self.nic.now().0);
        extra(line, "draining", self.draining);
        extra(line, "pending_scrubs", self.nic.pending_scrubs().len());
        line.push_str(",\"tenants\":{");
        for (i, t) in self.by_name().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push('"');
            escape_into(line, &t.name);
            let _ = write!(
                line,
                "\":{{\"frozen\":{},\"queued\":{},\"live\":{},\"submitted\":{},\
                 \"admitted\":{},\"served\":{},\"failed\":{},\"shed\":{},\"expired\":{},\
                 \"reclaimed\":{}}}",
                t.frozen.is_some(),
                t.queue.len(),
                t.nfs.len(),
                t.stats.submitted,
                t.stats.admitted,
                t.stats.served,
                t.stats.failed,
                t.stats.shed,
                t.stats.expired,
                t.stats.reclaimed,
            );
        }
        line.push('}');
        Ok(())
    }

    fn op_telemetry_summary(&mut self, _: &Request, line: &mut String) -> ExecResult {
        let summary = self.recorder.summary();
        let counters = summary.counters.iter().filter(|((domain, metric), _)| {
            *domain == 0 && (metric.starts_with("serve.") || metric.starts_with("nicos."))
        });
        line.push_str(",\"counters\":{");
        for (i, ((_, metric), value)) in counters.enumerate() {
            line.push_str(if i > 0 { ",\"" } else { "\"" });
            escape_into(line, metric);
            let _ = write!(line, "\":{value}");
        }
        line.push('}');
        Ok(())
    }

    fn op_verify(&mut self, _: &Request, line: &mut String) -> ExecResult {
        let findings = self.lint();
        extra(line, "findings", findings.len());
        line.push_str(",\"codes\":[");
        for (i, f) in findings.iter().enumerate() {
            let _ = write!(
                line,
                "{}\"{}\"",
                if i > 0 { "," } else { "" },
                f.kind.code()
            );
        }
        line.push(']');
        Ok(())
    }

    fn op_inject_fault(&mut self, req: &Request, line: &mut String) -> ExecResult {
        let site = req.str("site");
        let site = FaultSite::ALL
            .into_iter()
            .find(|s| Some(s.to_string().as_str()) == site)
            .ok_or_else(|| bad(format!("bad site {site:?}")))?;
        let kind = req.str("kind");
        let kind = FaultKind::ALL
            .into_iter()
            .find(|k| Some(k.to_string().as_str()) == kind)
            .ok_or_else(|| bad(format!("bad kind {kind:?}")))?;
        // `after` counts from now: 1 = the very next event at `site`.
        let after = req.num("after").unwrap_or(1).max(1);
        let nth = self.nic.fault_site_count(site) + after;
        self.nic
            .arm_faults(FaultPlan::none().on_nth(site, nth, kind));
        extra(line, "nth", nth);
        Ok(())
    }

    fn op_advance(&mut self, req: &Request, line: &mut String) -> ExecResult {
        let us = req.num("us").ok_or_else(|| bad("missing \"us\""))?;
        let now = self.nic.now();
        let then = after_us(now, us)
            .and_then(|then| self.nic.advance(then - now))
            .ok_or_else(|| bad(format!("\"us\" overflows the simulated clock: {us}")))?;
        extra(line, "now_ps", then.0);
        Ok(())
    }

    fn op_resume_scrubs(&mut self, _: &Request, line: &mut String) -> ExecResult {
        extra(line, "completed", self.nic.resume_scrubs());
        extra(line, "pending", self.nic.pending_scrubs().len());
        Ok(())
    }

    fn op_reclaim(&mut self, req: &Request, line: &mut String) -> ExecResult {
        let Some(&slot) = self.slots.get(&*req.tenant) else {
            return Err(bad("unknown tenant"));
        };
        let t = &self.tenants[slot];
        // Tear down this tenant's faulted NFs (scrub + reclaim their
        // resources), then shed the held queue and thaw.
        let faulted: Vec<(String, NfId)> = t
            .nfs
            .iter()
            .filter(|(_, nf)| matches!(self.nic.state_of(**nf), Ok(NfState::Faulted)))
            .map(|(n, nf)| (n.clone(), *nf))
            .collect();
        for (_, nf) in &faulted {
            if let Err(snic_types::SnicError::PowerLoss) = self.nic.nf_teardown(*nf) {
                self.nic.restore_power();
            }
        }
        let t = &mut self.tenants[slot];
        for (name, _) in &faulted {
            t.nfs.remove(name);
        }
        let dropped: Vec<Pending> = t.queue.drain(..).collect();
        let shed = dropped.len() as u32;
        t.stats.reclaimed += u64::from(shed);
        let was_frozen = t.frozen.take().is_some();
        for p in &dropped {
            let held = (codes::FROZEN, "queue reclaimed".to_string());
            self.refuse(p.id, &req.tenant, p.op.tag(), held);
        }
        self.record(Some(slot), req.id, ServeEventKind::Reclaimed { shed });
        if was_frozen {
            self.record(Some(slot), req.id, ServeEventKind::Thawed);
        }
        extra(line, "torn_down", faulted.len());
        extra(line, "shed", shed);
        extra(line, "thawed", was_frozen);
        Ok(())
    }

    fn op_snapshot(&mut self, req: &Request, line: &mut String) -> ExecResult {
        // The digest covers the config and the full input history
        // (including this very line): both are known before any effect
        // of the op, so a replayed `snapshot` line reproduces it
        // bit-for-bit.
        let mut pre = self.cfg.render();
        pre.push('\n');
        for l in &self.history {
            pre.push_str(l);
            pre.push('\n');
        }
        let digest = to_hex(&sha256(pre.as_bytes()));
        let taken = ServeEventKind::SnapshotTaken {
            digest: digest.clone(),
        };
        self.record(None, req.id, taken);
        let _ = write!(line, ",\"digest\":\"{digest}\"");
        extra(line, "lines", self.history.len());
        Ok(())
    }

    fn op_drain(&mut self, req: &Request, line: &mut String) -> ExecResult {
        if self.draining {
            return Err((codes::DRAINING, "already draining".to_string()));
        }
        self.draining = true;
        self.record(None, req.id, ServeEventKind::DrainStarted);
        while self.pump() {}
        let served = self.served_total;
        self.record(None, req.id, ServeEventKind::DrainCompleted { served });
        let frozen = self.tenants.iter().filter(|t| t.frozen.is_some());
        let frozen_pending: usize = frozen.map(|t| t.queue.len()).sum();
        extra(line, "served", served);
        extra(line, "frozen_pending", frozen_pending);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_through_its_canonical_form_at_u64_max() {
        let cfg = DaemonConfig {
            seed: u64::MAX,
            tick_ps: 18_446_744_073_709_551_557,
            auto_steps: u32::MAX,
            default_deadline_us: (1 << 53) + 1,
            quota: TenantQuota {
                burst: u64::MAX - 1,
                ..TenantQuota::default()
            },
            ..DaemonConfig::default()
        };
        assert_eq!(DaemonConfig::parse(&cfg.render()), Ok(cfg.clone()));
        let wide = cfg.render().replace("4294967295", "4294967296");
        let err = DaemonConfig::parse(&wide).expect_err("auto_steps past u32");
        assert!(err.contains("auto_steps"), "{err}");
    }

    #[test]
    fn config_mode_is_spelled_by_nic_mode() {
        for mode in NicMode::ALL {
            let cfg = DaemonConfig {
                mode,
                ..DaemonConfig::default()
            };
            let text = cfg.render();
            assert!(
                text.contains(&format!("\"mode\":\"{}\"", mode.name())),
                "{text}"
            );
            assert_eq!(DaemonConfig::parse(&text), Ok(cfg));
        }
        let text = DaemonConfig::default()
            .render()
            .replace("\"snic\"", "\"fpga\"");
        assert_eq!(
            DaemonConfig::parse(&text),
            Err("config: bad mode Some(\"fpga\")".into())
        );
    }

    #[test]
    fn out_of_range_integers_are_refused_not_narrowed() {
        let mut d = Daemon::new(DaemonConfig::default());
        let bad = [
            r#"{"op":"send","tenant":"a","id":1,"count":1,"port":65616}"#,
            r#"{"op":"send","tenant":"a","id":2,"count":4294967297,"port":80}"#,
            r#"{"op":"launch","tenant":"a","id":3,"name":"fw","mem":8,"core":65536}"#,
            r#"{"op":"launch","tenant":"a","id":4,"name":"fw","mem":8,"port":65616}"#,
            r#"{"op":"register","tenant":"b","id":5,"queue_depth":4294967297}"#,
            r#"{"op":"register","tenant":"b","id":6,"max_live_nfs":4294967296}"#,
        ];
        for line in bad {
            let out = d.ingest(line);
            assert_eq!(out.len(), 1, "{line}: {out:?}");
            assert!(out[0].contains(codes::BAD_REQUEST), "{line}: {}", out[0]);
            assert!(out[0].contains("out of range"), "{line}: {}", out[0]);
        }
        // Malformed queued ops are shed-accounted; a refused `register`
        // registers nobody.
        let a = d.tenant_stats("a").expect("first contact registers");
        assert_eq!((a.submitted, a.shed, a.admitted), (4, 4, 0));
        assert!(d.tenant_stats("b").is_none());
        assert!(d.lint().is_empty(), "{:?}", d.lint());
        // The largest values each field holds still pass.
        let ok = d.ingest(r#"{"op":"send","tenant":"a","id":7,"count":0,"port":65535}"#);
        assert!(ok[0].contains("\"ok\":true"), "{ok:?}");
    }

    /// Both the `us * 1_000_000` multiply and the add onto `now` are
    /// checked: a wrapped clock would answer `"now_ps":0` in release and
    /// a panic would take the daemon down for every tenant in debug.
    #[test]
    fn microseconds_the_clock_cannot_hold_are_refused_like_any_bad_request() {
        // One line in, `now` is one tick (1 us); u64::MAX ps is
        // 18446744073709.551615 us.
        const FITS: u64 = 18_446_744_073_708; // now + FITS us <= u64::MAX ps
        let overflowing = [FITS + 1, FITS + 2, u64::MAX]; // the add, the multiply, both
        let boot = |default_deadline_us| {
            Daemon::new(DaemonConfig {
                default_deadline_us,
                ..DaemonConfig::default()
            })
        };
        let refused = |d: &mut Daemon, line: &str| {
            let out = d.ingest(line);
            assert_eq!(out.len(), 1, "{line}: {out:?}");
            assert!(out[0].contains(codes::BAD_REQUEST), "{line}: {}", out[0]);
            assert!(out[0].contains("overflows the simulated clock"), "{out:?}");
            d.state_fingerprint()
        };
        for us in overflowing {
            // A refused line leaves the state any other refused line
            // would: one tick on the clock, a shed on the tenant's
            // account, nothing else.
            let (mut d, mut twin) = (boot(0), boot(0));
            let advance = format!(r#"{{"op":"advance","id":1,"us":{us}}}"#);
            twin.ingest(r#"{"op":"advance","id":1}"#);
            assert_eq!(refused(&mut d, &advance), twin.state_fingerprint(), "{us}");

            let send = r#"{"op":"send","tenant":"a","id":1,"count":1"#;
            let (mut d, mut twin) = (boot(0), boot(us));
            let state = refused(&mut d, &format!(r#"{send},"port":80,"deadline_us":{us}}}"#));
            assert_eq!(state, refused(&mut twin, &format!(r#"{send},"port":80}}"#)));
            let mut malformed = boot(0);
            malformed.ingest(&format!("{send}}}"));
            assert_eq!(state, malformed.state_fingerprint(), "{us}");
            assert_eq!(
                d.tenant_stats("a").map(|a| (a.submitted, a.shed)),
                Some((1, 1))
            );
            assert!(d.lint().is_empty() && twin.lint().is_empty());
        }
        // The last instant the clock holds is still served.
        let mut d = boot(FITS);
        let out = d.ingest(r#"{"op":"send","tenant":"a","id":1,"count":1,"port":80}"#);
        assert!(out[0].contains("\"ok\":true"), "--deadline-us: {out:?}");
        let mut d = boot(0);
        let out = d.ingest(&format!(
            r#"{{"op":"send","tenant":"a","id":1,"count":1,"port":80,"deadline_us":{FITS}}}"#
        ));
        assert!(out[0].contains("\"ok\":true"), "deadline_us: {out:?}");
        let out = boot(0).ingest(&format!(r#"{{"op":"advance","id":1,"us":{FITS}}}"#));
        assert!(
            out[0].ends_with("\"now_ps\":18446744073709000000}"),
            "{out:?}"
        );
    }

    /// Every line adds a tick through `SmartNic::advance`: the line whose
    /// tick the clock cannot hold is refused with a stable code and
    /// leaves the state as it found it, instead of wrapping the clock
    /// (release) or panicking the daemon (debug).
    #[test]
    fn a_tick_past_the_end_of_the_clock_is_refused_without_effect() {
        let mut d = Daemon::new(DaemonConfig {
            tick_ps: u64::MAX - 1,
            ..DaemonConfig::default()
        });
        let first = d.ingest(r#"{"op":"send","tenant":"a","id":1,"count":1,"port":80}"#);
        assert!(first[0].contains("\"ok\":true"), "{first:?}");
        let state = d.state_fingerprint();
        for line in [
            r#"{"op":"send","tenant":"a","id":2,"count":1,"port":80}"#,
            "not json",
        ] {
            let out = d.ingest(line);
            assert_eq!(out.len(), 1, "{line}: {out:?}");
            assert!(out[0].contains(codes::CLOCK_EXHAUSTED), "{}", out[0]);
            assert_eq!(d.state_fingerprint(), state, "{line}");
        }
        assert!(d.ingest(r#"{"op":"health","id":3}"#)[0].contains("\"id\":3"));
        assert_eq!(d.nic.now(), Picos(u64::MAX - 1));
    }

    /// `scan_faults` walks the tenants only when the device's fault log
    /// has grown; the rule it replaced walked them after every served
    /// request. Over the soak schedule — an injected NF crash, the
    /// freeze, a reclaim, launches and teardowns around them — the two
    /// agree after every line: wherever the log stands where the last
    /// walk left it, a walk finds nothing. (Debug builds assert the same
    /// at every skipped walk, so every other test is this differential
    /// too; `tests/golden/soak.txt` holds the always-walk transcript.)
    #[test]
    fn the_fault_scan_skips_only_walks_that_would_find_nothing() {
        let seed = 0xBEEF;
        let mut d = Daemon::new(crate::soak::soak_config(seed));
        let (mut skipped, mut walked) = (0, 0);
        for line in crate::soak::schedule(seed) {
            let before = d.faults_scanned;
            d.ingest(&line);
            if d.nic.fault_log().len() == d.faults_scanned {
                assert!(d.newly_faulted().is_empty(), "after {line}");
            }
            if d.faults_scanned == before {
                skipped += 1;
            } else {
                walked += 1;
            }
        }
        let froze = |r: &ServeRecord| matches!(r.kind, ServeEventKind::Frozen { .. });
        assert!(
            d.transcript().iter().any(froze),
            "the schedule freezes a tenant"
        );
        assert!(
            walked > 0 && skipped > 10 * walked,
            "{walked} walked, {skipped} skipped"
        );
    }

    /// `step` stops at the first pump that finds nothing ready, so a
    /// hostile `n` cannot spin the daemon.
    #[test]
    fn step_past_the_queued_work_returns_at_once() {
        let mut d = Daemon::new(DaemonConfig {
            auto_steps: 0,
            ..DaemonConfig::default()
        });
        d.ingest(r#"{"op":"send","tenant":"a","id":1,"count":1,"port":80}"#);
        let out = d.ingest(r#"{"op":"step","id":2,"n":18446744073709551615}"#);
        assert_eq!(out.len(), 2, "{out:?}");
        assert_eq!(out[1], r#"{"id":2,"op":"step","ok":true,"served":1}"#);
    }
}
