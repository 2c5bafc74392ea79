//! The NIC OS management API (Table 1, first column).
//!
//! The NIC OS is *untrusted*: it orchestrates launches and teardowns by
//! invoking the trusted instructions, but after `nf_launch` completes it
//! "is no longer involved in the management of the hardware resources
//! that are bound to a function" (§4.6). `NF_create` maps onto
//! `nf_launch`, `NF_destroy` onto `nf_teardown`.

use snic_faults::{FaultEventKind, FaultKind, FaultSite};
use snic_types::mix::{mix64, GOLDEN_GAMMA};
use snic_types::{NfId, Picos, SnicError};

use crate::device::SmartNic;
use crate::instr::{LaunchReceipt, LaunchRequest, TeardownReceipt};

/// Retry schedule for transient admission failures (the orchestrator's
/// answer to [`SnicError::is_retryable`] errors): capped exponential
/// backoff in *simulated* time, optionally with deterministic seeded
/// jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (the first try included).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub initial_backoff: Picos,
    /// Backoff ceiling.
    pub max_backoff: Picos,
    /// Jitter seed. `Some(seed)` adds a pseudo-random component in
    /// `[0, backoff/4)` to each applied backoff, derived *only* from
    /// `(seed, attempt)` via a fixed mixer — no wall clock, no OS
    /// entropy — so retried schedules stay bit-reproducible while
    /// decorrelating concurrent tenants' retry storms. `None` keeps the
    /// exact legacy doubling schedule.
    pub jitter: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            initial_backoff: Picos::micros(50),
            max_backoff: Picos::micros(400),
            jitter: None,
        }
    }
}

impl RetryPolicy {
    /// The default schedule with deterministic jitter derived from
    /// `seed`.
    pub fn jittered(seed: u64) -> RetryPolicy {
        RetryPolicy {
            jitter: Some(seed),
            ..RetryPolicy::default()
        }
    }

    /// The backoff actually applied before retry `attempt` (1-based),
    /// given the un-jittered `base` for that attempt. Pure function of
    /// the policy: the daemon's snapshot/replay machinery depends on
    /// this never consulting ambient state.
    pub fn applied_backoff(&self, attempt: u32, base: Picos) -> Picos {
        match self.jitter {
            None => base,
            Some(seed) => {
                // splitmix64 over (seed, attempt): cheap, fixed, and
                // platform-independent.
                let z = mix64(seed ^ u64::from(attempt).wrapping_mul(GOLDEN_GAMMA));
                let span = (base.0 / 4).max(1);
                Picos(base.0 + z % span)
            }
        }
    }
}

/// Why a retry loop stopped without a receipt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryError {
    /// The first non-retryable error; retrying would never help.
    Fatal(SnicError),
    /// Every attempt in the budget failed with a retryable error.
    Exhausted {
        /// Attempts consumed (== `RetryPolicy::max_attempts`).
        attempts: u32,
        /// The last transient error observed.
        last: SnicError,
    },
    /// The next backoff would cross the request's deadline; the loop
    /// cancelled instead of sleeping past it. Failed attempts have
    /// already rolled back, so cancellation leaves no partial effects
    /// (the `ResourceSnapshot` equality guarantee).
    DeadlineExceeded {
        /// Attempts consumed before cancelling.
        attempts: u32,
        /// The deadline that would have been crossed.
        deadline: Picos,
    },
}

impl core::fmt::Display for RetryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RetryError::Fatal(e) => write!(f, "fatal: {e}"),
            RetryError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            RetryError::DeadlineExceeded { attempts, deadline } => {
                write!(
                    f,
                    "cancelled after {attempts} attempts: next backoff crosses deadline {}ps",
                    deadline.0
                )
            }
        }
    }
}

impl std::error::Error for RetryError {}

/// The management-plane wrapper around a device.
pub struct NicOs<'a> {
    nic: &'a mut SmartNic,
    created: Vec<NfId>,
}

impl<'a> NicOs<'a> {
    /// Run the NIC OS on `nic`'s management core.
    pub fn new(nic: &'a mut SmartNic) -> NicOs<'a> {
        NicOs {
            nic,
            created: Vec::new(),
        }
    }

    /// Boot a NIC OS instance on a device whose previous OS instance
    /// crashed. The OS is untrusted and restartable by design (§4.6):
    /// it rebuilds its view from the device's live-function set; the
    /// functions themselves — their cores, regions, TLBs, traffic —
    /// are untouched by the restart.
    pub fn recover(nic: &'a mut SmartNic) -> NicOs<'a> {
        let created = nic.live_nf_ids();
        nic.fault_note(None, FaultEventKind::NicOsRestarted);
        NicOs { nic, created }
    }

    /// An injected NIC-OS crash surfaces at the next management call.
    /// The OS process restarts in place (rebuilding its managed list
    /// from the device — the only durable truth) and the interrupted
    /// call fails with a retryable error for the host to re-issue.
    fn crash_gate(&mut self) -> Result<(), SnicError> {
        if let Some(FaultKind::NicOsCrash) = self.nic.fault_check(FaultSite::NicOs, None) {
            self.created = self.nic.live_nf_ids();
            self.nic.fault_note(None, FaultEventKind::NicOsRestarted);
            return Err(SnicError::Transient(snic_types::TransientResource::NicOs));
        }
        Ok(())
    }

    /// `NF_create(net_config, core_config, dpi_config, ...) → nf_id or
    /// failure`: DMA the image to NIC RAM and invoke `nf_launch`.
    pub fn nf_create(&mut self, request: LaunchRequest) -> Result<LaunchReceipt, SnicError> {
        self.crash_gate()?;
        let receipt = self.nic.nf_launch(request)?;
        self.created.push(receipt.nf_id);
        Ok(receipt)
    }

    /// `NF_create` with retry: transient failures (injected or organic
    /// resource exhaustion, a NIC-OS restart) back off in simulated
    /// time — doubling up to `policy.max_backoff`, plus seeded jitter
    /// when the policy asks for it — and re-issue; fatal errors surface
    /// immediately as [`RetryError::Fatal`].
    ///
    /// Attempt counts and give-up reasons are surfaced as
    /// `snic-telemetry` counters (`nicos.retry_attempts`,
    /// `nicos.giveup_*`) and every applied backoff lands in the
    /// `nicos.backoff_ps` histogram, so an operator watching the live
    /// summary sees retry storms instead of silence. With a `deadline`,
    /// the loop never advances simulated time past it: if the next
    /// backoff would cross it, the loop cancels with
    /// [`RetryError::DeadlineExceeded`]. Each failed attempt has
    /// already rolled back (launch failure atomicity), so cancellation
    /// leaves the device's [`crate::device::ResourceSnapshot`] exactly
    /// as it was before the call.
    pub fn nf_create_with_retry(
        &mut self,
        request: LaunchRequest,
        policy: RetryPolicy,
        deadline: Option<Picos>,
    ) -> Result<LaunchReceipt, RetryError> {
        use snic_telemetry::metrics;
        let mut backoff = policy.initial_backoff;
        let mut attempt = 1u32;
        let note_outcome = |nic: &mut SmartNic, attempts: u32, reason: &'static str| {
            let telemetry = nic.telemetry();
            if telemetry.enabled() {
                telemetry.counter_add(0, metrics::NICOS_RETRY_ATTEMPTS, u64::from(attempts));
                if !reason.is_empty() {
                    telemetry.counter_add(0, reason, 1);
                    telemetry.instant(0, reason, nic.now().0);
                }
            }
        };
        loop {
            match self.nf_create(request.clone()) {
                Ok(receipt) => {
                    note_outcome(self.nic, attempt, "");
                    return Ok(receipt);
                }
                Err(e) if e.is_retryable() && attempt < policy.max_attempts => {
                    let applied = policy.applied_backoff(attempt, backoff);
                    if let Some(d) = deadline {
                        if self.nic.now() + applied > d {
                            note_outcome(self.nic, attempt, metrics::NICOS_GIVEUP_DEADLINE);
                            return Err(RetryError::DeadlineExceeded {
                                attempts: attempt,
                                deadline: d,
                            });
                        }
                    }
                    self.nic.fault_note(
                        None,
                        FaultEventKind::RetryBackoff {
                            attempt,
                            backoff: applied,
                        },
                    );
                    let telemetry = self.nic.telemetry();
                    if telemetry.enabled() {
                        telemetry.counter_add(0, metrics::NICOS_RETRIES, 1);
                        telemetry.record(0, metrics::NICOS_BACKOFF_PS, applied.0);
                        telemetry.instant(0, "nicos.retry_backoff", self.nic.now().0);
                    }
                    if self.nic.advance(applied).is_none() {
                        // The clock cannot hold another backoff: the
                        // retry budget is spent as surely as by count.
                        note_outcome(self.nic, attempt, metrics::NICOS_GIVEUP_BUDGET);
                        return Err(RetryError::Exhausted {
                            attempts: attempt,
                            last: e,
                        });
                    }
                    backoff = Picos((backoff.0 * 2).min(policy.max_backoff.0));
                    attempt += 1;
                }
                Err(e) if e.is_retryable() => {
                    note_outcome(self.nic, attempt, metrics::NICOS_GIVEUP_BUDGET);
                    return Err(RetryError::Exhausted {
                        attempts: attempt,
                        last: e,
                    });
                }
                Err(e) => {
                    note_outcome(self.nic, attempt, metrics::NICOS_GIVEUP_FATAL);
                    return Err(RetryError::Fatal(e));
                }
            }
        }
    }

    /// `NF_destroy(nf_id) → success or failure`.
    pub fn nf_destroy(&mut self, nf: NfId) -> Result<TeardownReceipt, SnicError> {
        self.crash_gate()?;
        let receipt = self.nic.nf_teardown(nf)?;
        self.created.retain(|&id| id != nf);
        Ok(receipt)
    }

    /// NFs this OS instance created and has not destroyed.
    pub fn managed(&self) -> &[NfId] {
        &self.created
    }

    /// The device (the OS also forwards host requests to it).
    pub fn device(&mut self) -> &mut SmartNic {
        self.nic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NicConfig, NicMode};
    use crate::instr::NfImage;
    use rand::SeedableRng;
    use snic_crypto::keys::VendorCa;
    use snic_mem::guard::Principal;
    use snic_types::{ByteSize, CoreId};

    fn nic() -> SmartNic {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        SmartNic::new(NicConfig::small(NicMode::Snic), &VendorCa::new(&mut rng))
    }

    #[test]
    fn create_destroy_lifecycle() {
        let mut device = nic();
        let mut os = NicOs::new(&mut device);
        let r = os
            .nf_create(LaunchRequest::minimal(
                CoreId(0),
                ByteSize::mib(4),
                NfImage::default(),
            ))
            .unwrap();
        assert_eq!(os.managed(), &[r.nf_id]);
        os.nf_destroy(r.nf_id).unwrap();
        assert!(os.managed().is_empty());
        assert!(os.nf_destroy(r.nf_id).is_err(), "double destroy fails");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::jittered(42);
        let base = Picos::micros(100);
        for attempt in 1..8 {
            let a = p.applied_backoff(attempt, base);
            let b = p.applied_backoff(attempt, base);
            assert_eq!(a, b, "same (seed, attempt) => same jitter");
            assert!(a >= base);
            assert!(a.0 < base.0 + base.0 / 4 + 1, "jitter bounded to base/4");
        }
        // Different seeds decorrelate; no jitter means the exact base.
        let q = RetryPolicy::jittered(43);
        assert_ne!(p.applied_backoff(1, base), q.applied_backoff(1, base));
        assert_eq!(RetryPolicy::default().applied_backoff(1, base), base);
    }

    #[test]
    fn deadline_cancels_before_crossing_and_rolls_back() {
        use snic_faults::{FaultKind, FaultPlan, FaultSite};
        let mut device = nic();
        // Every launch attempt hits transient DRAM exhaustion.
        device.inject_faults(
            FaultPlan::none()
                .on_nth(FaultSite::Launch, 1, FaultKind::DramExhaustion)
                .on_nth(FaultSite::Launch, 2, FaultKind::DramExhaustion)
                .on_nth(FaultSite::Launch, 3, FaultKind::DramExhaustion)
                .on_nth(FaultSite::Launch, 4, FaultKind::DramExhaustion),
        );
        let before = device.resource_snapshot();
        let t0 = device.now();
        let mut os = NicOs::new(&mut device);
        // Deadline tighter than the first backoff: the loop must cancel
        // rather than sleep past it.
        let deadline = t0 + Picos::micros(10);
        let err = os
            .nf_create_with_retry(
                LaunchRequest::minimal(CoreId(0), ByteSize::mib(4), NfImage::default()),
                RetryPolicy::jittered(7),
                Some(deadline),
            )
            .unwrap_err();
        assert!(
            matches!(err, RetryError::DeadlineExceeded { attempts: 1, .. }),
            "{err:?}"
        );
        assert!(device.now() <= deadline, "never advanced past the deadline");
        assert_eq!(
            device.resource_snapshot(),
            before,
            "cancellation left partial effects"
        );
    }

    #[test]
    fn exhausted_and_fatal_are_distinguished() {
        use snic_faults::{FaultKind, FaultPlan, FaultSite};
        let mut device = nic();
        let plan = (1..=4).fold(FaultPlan::none(), |p, n| {
            p.on_nth(FaultSite::Launch, n, FaultKind::DramExhaustion)
        });
        device.inject_faults(plan);
        let before = device.resource_snapshot();
        let mut os = NicOs::new(&mut device);
        let err = os
            .nf_create_with_retry(
                LaunchRequest::minimal(CoreId(0), ByteSize::mib(4), NfImage::default()),
                RetryPolicy::default(),
                None,
            )
            .unwrap_err();
        assert!(
            matches!(err, RetryError::Exhausted { attempts: 4, .. }),
            "{err:?}"
        );
        assert_eq!(
            device.resource_snapshot(),
            before,
            "an exhausted retry left partial effects"
        );
        // A fatal error (invalid config) surfaces immediately.
        let mut device = nic();
        let mut os = NicOs::new(&mut device);
        let err = os
            .nf_create_with_retry(
                LaunchRequest::minimal(CoreId(0), ByteSize::mib(0), NfImage::default()),
                RetryPolicy::default(),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, RetryError::Fatal(_)), "{err:?}");
    }

    #[test]
    fn retry_outcomes_surface_as_telemetry_counters() {
        use snic_faults::{FaultKind, FaultPlan, FaultSite};
        use snic_telemetry::{metrics, Recorder};
        use std::sync::Arc;
        let mut device = nic();
        let recorder = Arc::new(Recorder::new());
        device.set_telemetry(recorder.clone());
        device.inject_faults(FaultPlan::none().on_nth(
            FaultSite::Launch,
            1,
            FaultKind::DramExhaustion,
        ));
        let mut os = NicOs::new(&mut device);
        os.nf_create_with_retry(
            LaunchRequest::minimal(CoreId(0), ByteSize::mib(4), NfImage::default()),
            RetryPolicy::jittered(3),
            None,
        )
        .unwrap();
        let summary = recorder.summary();
        let text = summary.to_text();
        assert!(text.contains(metrics::NICOS_RETRIES), "{text}");
        assert!(text.contains(metrics::NICOS_RETRY_ATTEMPTS), "{text}");
        assert!(text.contains(metrics::NICOS_BACKOFF_PS), "{text}");
    }

    #[test]
    fn os_cannot_touch_function_memory_after_create() {
        // The key §4.2 property: even the OS that created the function is
        // locked out of its pages.
        let mut device = nic();
        let mut os = NicOs::new(&mut device);
        let r = os
            .nf_create(LaunchRequest::minimal(
                CoreId(0),
                ByteSize::mib(4),
                NfImage {
                    code: b"private".to_vec(),
                    config: vec![],
                },
            ))
            .unwrap();
        let (base, _) = os.device().record_of(r.nf_id).unwrap().region;
        let mut buf = [0u8; 7];
        let err = os
            .device()
            .mem_read(Principal::Management, base, &mut buf)
            .unwrap_err();
        assert!(matches!(err, SnicError::Isolation(_)));
        // After destroy, the pages are scrubbed and accessible again.
        os.nf_destroy(r.nf_id).unwrap();
        os.device()
            .mem_read(Principal::Management, base, &mut buf)
            .unwrap();
        assert_eq!(buf, [0u8; 7]);
    }
}
