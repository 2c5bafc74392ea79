//! Deterministic fault injection for the S-NIC device model.
//!
//! The paper's central claim is *containment*: a crashing or malicious
//! function — or the untrusted NIC OS itself — must not perturb
//! co-located vNICs (§3.3 attacks, §4.3 cluster-fatal accelerator
//! faults, §4.6 teardown scrubbing). Demonstrating containment needs a
//! way to make things fail *mid-flight*, reproducibly. This crate
//! provides that:
//!
//! - [`FaultKind`] — the fault taxonomy (NF core crash, accelerator
//!   cluster fault, DMA bus error, transient resource exhaustion,
//!   NIC-OS crash, power loss mid-teardown);
//! - [`FaultPlan`] — a declarative, seedable schedule of faults, each
//!   armed on the Nth event at a call-site tag;
//! - [`FaultInjector`] — the runtime object the device consults at
//!   instrumented call sites; it also records a totally ordered
//!   [`FaultRecord`] transcript of injections, lifecycle transitions,
//!   and scrub progress that `snic-verify`'s Pass 3 lints.
//!
//! **Determinism is the contract.** Nothing here reads a wall clock or
//! an OS entropy source: triggers fire on per-site event counters, and
//! the transcript is stamped with simulated [`Picos`] time. The same
//! plan driven by the same operation sequence yields a byte-identical
//! transcript, on any thread of the `snic-sim` pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use snic_types::{NfId, NfState, Picos};

pub mod serve;

pub use serve::{render_serve_transcript, ServeEventKind, ServeRecord};

/// The fault taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// An NF core crashes mid-run (wild stores, then halt).
    NfCrash,
    /// An accelerator cluster faults — fatal for the cluster (§4.3);
    /// on a commodity NIC the cluster is *shared*, so the fault is
    /// fatal for every tenant using that engine.
    AccelClusterFault,
    /// A DMA transfer is aborted by a bus error.
    DmaBusError,
    /// On-NIC DRAM transiently exhausted at `nf_launch` (retryable).
    DramExhaustion,
    /// Accelerator pool transiently exhausted at `nf_launch`
    /// (retryable).
    AccelPoolExhaustion,
    /// The (untrusted, restartable) NIC OS crashes. By design this
    /// must leave running NFs untouched (§4.6).
    NicOsCrash,
    /// Power loss — when it strikes mid-`nf_teardown`, the scrub
    /// watermark must survive so the region is never reused before
    /// zeroization completes (§4.6).
    PowerLoss,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::NfCrash => "nf-crash",
            FaultKind::AccelClusterFault => "accel-cluster-fault",
            FaultKind::DmaBusError => "dma-bus-error",
            FaultKind::DramExhaustion => "dram-exhaustion",
            FaultKind::AccelPoolExhaustion => "accel-pool-exhaustion",
            FaultKind::NicOsCrash => "nic-os-crash",
            FaultKind::PowerLoss => "power-loss",
        };
        f.write_str(s)
    }
}

/// An instrumented call site in the device model. Triggers reference
/// sites by tag, so a plan can say "the 3rd scrub chunk" or "every DMA"
/// without knowing absolute simulated times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `nf_launch` entry (resource admission).
    Launch,
    /// `nf_teardown` entry.
    Teardown,
    /// One scrub chunk inside `nf_teardown` (or a resumed scrub).
    Scrub,
    /// A host DMA transfer (either direction).
    Dma,
    /// Packet delivery into an NF (`rx_packet`).
    Rx,
    /// An NF data-path memory operation (`nf_read` / `nf_write` / TX).
    DataPath,
    /// An accelerator submission on behalf of an NF.
    Accel,
    /// A NIC-OS management-plane call.
    NicOs,
}

/// Number of distinct [`FaultSite`] tags (sizes the per-site counters).
const SITE_COUNT: usize = 8;

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::Launch => 0,
            FaultSite::Teardown => 1,
            FaultSite::Scrub => 2,
            FaultSite::Dma => 3,
            FaultSite::Rx => 4,
            FaultSite::DataPath => 5,
            FaultSite::Accel => 6,
            FaultSite::NicOs => 7,
        }
    }

    /// All sites, for plan builders that sweep the space.
    pub const ALL: [FaultSite; SITE_COUNT] = [
        FaultSite::Launch,
        FaultSite::Teardown,
        FaultSite::Scrub,
        FaultSite::Dma,
        FaultSite::Rx,
        FaultSite::DataPath,
        FaultSite::Accel,
        FaultSite::NicOs,
    ];
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultSite::Launch => "launch",
            FaultSite::Teardown => "teardown",
            FaultSite::Scrub => "scrub",
            FaultSite::Dma => "dma",
            FaultSite::Rx => "rx",
            FaultSite::DataPath => "datapath",
            FaultSite::Accel => "accel",
            FaultSite::NicOs => "nicos",
        };
        f.write_str(s)
    }
}

/// One scheduled fault: `fault` fires on the `n`th event at `site`
/// (1-based: `n = 1` is the first occurrence). Every rule is one-shot:
/// after firing it disarms (a double fault is two rules with different
/// ordinals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FaultRule {
    site: FaultSite,
    n: u64,
    fault: FaultKind,
}

/// A declarative schedule of faults. Plans are plain data: build one,
/// hand it to the device, replay it as often as needed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no faults ever fire).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add a rule firing `fault` on the `n`th event at `site`; builder
    /// style.
    pub fn on_nth(mut self, site: FaultSite, n: u64, fault: FaultKind) -> FaultPlan {
        self.rules.push(FaultRule { site, n, fault });
        self
    }

    /// True if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// One entry in the fault/lifecycle transcript.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEventKind {
    /// A planned fault fired at an instrumented site.
    Injected {
        /// The fault delivered.
        fault: FaultKind,
        /// The site it was delivered through.
        site: FaultSite,
    },
    /// A lifecycle transition of one NF.
    Transition {
        /// Prior state.
        from: NfState,
        /// New state.
        to: NfState,
    },
    /// `nf_teardown` began reclaiming a region.
    TeardownStarted {
        /// Region base.
        base: u64,
        /// Region length.
        len: u64,
    },
    /// Scrub progressed to `watermark` bytes of `len` (crash-consistent
    /// metadata: this is what survives a power loss).
    ScrubProgress {
        /// Region base.
        base: u64,
        /// Bytes zeroized so far.
        watermark: u64,
        /// Region length.
        len: u64,
    },
    /// Zeroization of the region completed; it is now reusable.
    ScrubCompleted {
        /// Region base.
        base: u64,
        /// Region length.
        len: u64,
    },
    /// A region was handed to a (new) function.
    RegionReused {
        /// Region base.
        base: u64,
        /// Region length.
        len: u64,
    },
    /// The device lost power.
    PowerLost,
    /// The device powered back up (and resumed pending scrubs).
    PowerRestored,
    /// The NIC OS crashed and was restarted; running NFs must be
    /// untouched.
    NicOsRestarted,
    /// The orchestrator retried a transient failure after backing off.
    RetryBackoff {
        /// 1-based attempt number that failed.
        attempt: u32,
        /// Backoff applied before the next attempt.
        backoff: Picos,
    },
    /// Harness-observed perturbation of a victim that should have been
    /// isolated from the fault (blast radius escaping containment).
    VictimPerturbed {
        /// Which observable differed from the fault-free control run.
        metric: &'static str,
    },
    /// The whole device hard-crashed (commodity blast radius).
    DeviceCrashed,
}

/// One transcript record: a totally ordered, reproducible event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Position in the transcript (0-based, dense).
    pub seq: u64,
    /// Simulated time of the event.
    pub at: Picos,
    /// The function the event concerns, when attributable to one.
    pub nf: Option<NfId>,
    /// What happened.
    pub kind: FaultEventKind,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:06} t={}ps", self.seq, self.at.0)?;
        if let Some(nf) = self.nf {
            write!(f, " {nf}")?;
        }
        write!(f, "] ")?;
        match &self.kind {
            FaultEventKind::Injected { fault, site } => write!(f, "inject {fault} @{site}"),
            FaultEventKind::Transition { from, to } => write!(f, "state {from} -> {to}"),
            FaultEventKind::TeardownStarted { base, len } => {
                write!(f, "teardown start {base:#x}+{len:#x}")
            }
            FaultEventKind::ScrubProgress {
                base,
                watermark,
                len,
            } => write!(f, "scrub {base:#x} watermark {watermark:#x}/{len:#x}"),
            FaultEventKind::ScrubCompleted { base, len } => {
                write!(f, "scrub complete {base:#x}+{len:#x}")
            }
            FaultEventKind::RegionReused { base, len } => {
                write!(f, "region reused {base:#x}+{len:#x}")
            }
            FaultEventKind::PowerLost => write!(f, "power lost"),
            FaultEventKind::PowerRestored => write!(f, "power restored"),
            FaultEventKind::NicOsRestarted => write!(f, "nic-os restarted"),
            FaultEventKind::RetryBackoff { attempt, backoff } => {
                write!(f, "retry attempt {attempt} backoff {}ps", backoff.0)
            }
            FaultEventKind::VictimPerturbed { metric } => {
                write!(f, "VICTIM PERTURBED ({metric})")
            }
            FaultEventKind::DeviceCrashed => write!(f, "device hard-crashed"),
        }
    }
}

/// Render a transcript as one canonical string (byte-comparable across
/// runs — the determinism tests diff these).
pub fn render_transcript(records: &[FaultRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_string());
        out.push('\n');
    }
    out
}

/// The runtime injector the device consults at instrumented sites.
///
/// Also the transcript recorder: the device (and the harness) append
/// lifecycle events through [`FaultInjector::note`], so injections and
/// their consequences share one total order.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    rules: Vec<(FaultRule, bool)>,
    counts: [u64; SITE_COUNT],
    log: Vec<FaultRecord>,
}

impl FaultInjector {
    /// An injector armed with `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            rules: plan.rules.into_iter().map(|r| (r, false)).collect(),
            counts: [0; SITE_COUNT],
            log: Vec::new(),
        }
    }

    /// An injector that never fires (the default device wiring).
    pub fn disarmed() -> FaultInjector {
        FaultInjector::default()
    }

    /// Append `plan`'s rules to the armed set *without* disturbing the
    /// per-site counters or the transcript. This is how a resident
    /// daemon injects faults mid-stream: `FaultInjector::new` would
    /// erase the lifecycle history recorded so far, which Pass 3 and
    /// the serving layer both lint.
    ///
    /// Nth-event triggers count from the injector's birth, not from the
    /// arming point: arming `on_nth(site, 3, ..)` after two events have
    /// already passed at that site fires on the very next one, and a
    /// rule whose ordinal has already gone by never fires. Callers that
    /// mean "the k-th event from now" should offset by
    /// [`FaultInjector::count`].
    pub fn arm(&mut self, plan: FaultPlan) {
        self.rules
            .extend(plan.rules.into_iter().map(|r| (r, false)));
    }

    /// Consult the injector at `site` at simulated time `now`,
    /// attributing the event to `nf` when known. Increments the site
    /// counter, evaluates armed rules in plan order, and returns the
    /// first fault that fires (logging it). At most one fault fires per
    /// check.
    pub fn check(&mut self, site: FaultSite, now: Picos, nf: Option<NfId>) -> Option<FaultKind> {
        self.counts[site.index()] += 1;
        let count = self.counts[site.index()];
        let (rule, done) = self
            .rules
            .iter_mut()
            .find(|(rule, done)| !*done && rule.site == site && rule.n == count)?;
        *done = true;
        let fault = rule.fault;
        self.note(now, nf, FaultEventKind::Injected { fault, site });
        Some(fault)
    }

    /// Append a lifecycle/consequence event to the transcript.
    pub fn note(&mut self, at: Picos, nf: Option<NfId>, kind: FaultEventKind) {
        let seq = self.log.len() as u64;
        self.log.push(FaultRecord { seq, at, nf, kind });
    }

    /// How many events have been observed at `site`.
    pub fn count(&self, site: FaultSite) -> u64 {
        self.counts[site.index()]
    }

    /// The transcript so far.
    pub fn log(&self) -> &[FaultRecord] {
        &self.log
    }

    /// Drain the transcript (counters and armed rules stay).
    pub fn take_log(&mut self) -> Vec<FaultRecord> {
        std::mem::take(&mut self.log)
    }

    /// True if every scheduled rule has fired.
    pub fn exhausted(&self) -> bool {
        self.rules.iter().all(|(_, done)| *done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_event_trigger_fires_once() {
        let plan = FaultPlan::none().on_nth(FaultSite::Dma, 3, FaultKind::DmaBusError);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.check(FaultSite::Dma, Picos(1), None), None);
        assert_eq!(inj.check(FaultSite::Dma, Picos(2), None), None);
        assert_eq!(
            inj.check(FaultSite::Dma, Picos(3), None),
            Some(FaultKind::DmaBusError)
        );
        // One-shot: the 3rd event fired it; later events don't.
        assert_eq!(inj.check(FaultSite::Dma, Picos(4), None), None);
        assert!(inj.exhausted());
        assert_eq!(inj.count(FaultSite::Dma), 4);
    }

    #[test]
    fn sites_are_independent() {
        let plan = FaultPlan::none().on_nth(FaultSite::Launch, 1, FaultKind::DramExhaustion);
        let mut inj = FaultInjector::new(plan);
        // Events at other sites never advance the Launch counter.
        assert_eq!(inj.check(FaultSite::Rx, Picos(0), None), None);
        assert_eq!(inj.check(FaultSite::Dma, Picos(0), None), None);
        assert_eq!(
            inj.check(FaultSite::Launch, Picos(0), None),
            Some(FaultKind::DramExhaustion)
        );
    }

    #[test]
    fn transcript_is_deterministic() {
        let run = || {
            let plan = FaultPlan::none()
                .on_nth(FaultSite::Dma, 2, FaultKind::DmaBusError)
                .on_nth(FaultSite::DataPath, 3, FaultKind::NfCrash)
                .on_nth(FaultSite::Scrub, 1, FaultKind::PowerLoss);
            let mut inj = FaultInjector::new(plan);
            for i in 0..40u64 {
                for site in FaultSite::ALL {
                    let _ = inj.check(site, Picos(i * 10), Some(NfId(i % 3)));
                }
            }
            render_transcript(inj.log())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same plan + same schedule => identical transcript");
        assert!(!a.is_empty());
    }

    #[test]
    fn note_orders_with_injections() {
        let plan = FaultPlan::none().on_nth(FaultSite::Rx, 1, FaultKind::NfCrash);
        let mut inj = FaultInjector::new(plan);
        inj.note(
            Picos(0),
            Some(NfId(1)),
            FaultEventKind::Transition {
                from: NfState::Launched,
                to: NfState::Running,
            },
        );
        let _ = inj.check(FaultSite::Rx, Picos(5), Some(NfId(1)));
        inj.note(
            Picos(5),
            Some(NfId(1)),
            FaultEventKind::Transition {
                from: NfState::Running,
                to: NfState::Faulted,
            },
        );
        let seqs: Vec<u64> = inj.log().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        let text = render_transcript(inj.log());
        assert!(text.contains("inject nf-crash @rx"), "{text}");
        assert!(text.contains("state running -> faulted"), "{text}");
    }

    #[test]
    fn arm_appends_without_clearing_history() {
        let mut inj =
            FaultInjector::new(FaultPlan::none().on_nth(FaultSite::Rx, 1, FaultKind::NfCrash));
        assert_eq!(
            inj.check(FaultSite::Rx, Picos(1), None),
            Some(FaultKind::NfCrash)
        );
        let before = inj.log().len();
        assert!(before > 0);
        // Arm a second plan mid-stream: transcript and counters survive,
        // and the new rule's ordinal is absolute (count() + k from now).
        let next = inj.count(FaultSite::Rx) + 1;
        inj.arm(FaultPlan::none().on_nth(FaultSite::Rx, next, FaultKind::NfCrash));
        assert_eq!(inj.log().len(), before, "arming must not touch the log");
        assert!(!inj.exhausted());
        assert_eq!(
            inj.check(FaultSite::Rx, Picos(2), None),
            Some(FaultKind::NfCrash)
        );
        assert!(inj.exhausted());
    }

    #[test]
    fn render_is_line_per_record() {
        let mut inj = FaultInjector::disarmed();
        inj.note(Picos(1), None, FaultEventKind::PowerLost);
        inj.note(Picos(2), None, FaultEventKind::PowerRestored);
        let text = render_transcript(inj.log());
        assert_eq!(text.lines().count(), 2);
    }
}
