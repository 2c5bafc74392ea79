//! The lifecycle plane (§4.6): the live functions' records, id
//! assignment, the simulated clock, the fault injector with its
//! transcript, and whether the device is down.

use std::collections::BTreeMap;

use snic_faults::{FaultEventKind, FaultInjector, FaultKind, FaultSite};
use snic_types::{NfId, NfState, Picos, SnicError};

use super::{ensure, Invariant, NfRecord};

/// What a device op needs before it may run ([`Lifecycle::require`]).
pub(crate) enum Need {
    /// The device is up.
    Up,
    /// The device is up and `nf` is live, faulted or not.
    Live(NfId),
    /// The device is up and `nf` is live and not faulted.
    Operational(NfId),
}

#[derive(Default)]
pub(crate) struct Lifecycle {
    launched: BTreeMap<NfId, NfRecord>,
    /// Ids handed out so far; ids start at 1 and are never reused.
    issued: u64,
    /// Deterministic fault injector + lifecycle transcript recorder.
    injector: FaultInjector,
    now: Picos,
    /// Down after a hard crash or power loss, until power is restored.
    crashed: bool,
}

impl Lifecycle {
    pub(crate) fn records(&self) -> &BTreeMap<NfId, NfRecord> {
        &self.launched
    }

    pub(crate) fn record(&self, nf: NfId) -> Result<&NfRecord, SnicError> {
        self.launched.get(&nf).ok_or(SnicError::NoSuchNf(nf))
    }

    pub(crate) fn record_mut(&mut self, nf: NfId) -> Result<&mut NfRecord, SnicError> {
        self.launched.get_mut(&nf).ok_or(SnicError::NoSuchNf(nf))
    }

    /// The id the next successful launch receives.
    pub(crate) fn next_id(&self) -> NfId {
        NfId(self.issued + 1)
    }

    /// Enter a launched function's record under the next id.
    pub(crate) fn enter(&mut self, record: NfRecord) -> NfId {
        self.issued += 1;
        let nf = NfId(self.issued);
        self.launched.insert(nf, record);
        nf
    }

    /// Begin `nf`'s teardown: its record leaves the live set, and the
    /// transcript logs the teardown and the move to `Scrubbing`.
    pub(crate) fn retire(&mut self, nf: NfId) -> Result<NfRecord, SnicError> {
        let record = self.launched.remove(&nf).ok_or(SnicError::NoSuchNf(nf))?;
        let (base, len) = record.region;
        self.note(Some(nf), FaultEventKind::TeardownStarted { base, len });
        self.note_transition(nf, record.state, NfState::Scrubbing);
        Ok(record)
    }

    /// Record a lifecycle transition for a *live* NF and log it.
    pub(crate) fn transition(&mut self, nf: NfId, to: NfState) {
        if let Some(record) = self.launched.get_mut(&nf) {
            let from = record.state;
            debug_assert!(from.can_transition(to), "illegal {from} -> {to}");
            record.state = to;
            self.note_transition(nf, from, to);
        }
    }

    /// Log `nf` moving from `from` to `to`; a torn-down function's
    /// scrub and reclaim steps are logged without a record to update.
    pub(crate) fn note_transition(&mut self, nf: NfId, from: NfState, to: NfState) {
        self.note(Some(nf), FaultEventKind::Transition { from, to });
    }

    pub(crate) fn now(&self) -> Picos {
        self.now
    }

    /// Advance the clock; `None`, with the clock left where it was, if
    /// the u64-picosecond clock cannot hold it.
    pub(crate) fn advance(&mut self, dt: Picos) -> Option<Picos> {
        self.now = Picos(self.now.0.checked_add(dt.0)?);
        Some(self.now)
    }

    /// Charge `dt` of device time to the current operation. Work done at
    /// the end of the u64-picosecond clock pins it there, never wraps it.
    pub(crate) fn spend(&mut self, dt: Picos) {
        self.now = Picos(self.now.0.saturating_add(dt.0));
    }

    pub(crate) fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    pub(crate) fn injector_mut(&mut self) -> &mut FaultInjector {
        &mut self.injector
    }

    /// Consult the injector at `site` now.
    pub(crate) fn fault_at(&mut self, site: FaultSite, nf: Option<NfId>) -> Option<FaultKind> {
        self.injector.check(site, self.now, nf)
    }

    /// Append `kind` to the transcript now.
    pub(crate) fn note(&mut self, nf: Option<NfId>, kind: FaultEventKind) {
        self.injector.note(self.now, nf, kind);
    }

    /// The device goes down for `reason` (`DeviceCrashed` or
    /// `PowerLost`), which the transcript records.
    pub(crate) fn crash(&mut self, reason: FaultEventKind) {
        self.injector.note(self.now, None, reason);
        self.crashed = true;
    }

    /// Power is back: the device is up and the transcript says so.
    pub(crate) fn restore(&mut self) {
        self.crashed = false;
        self.injector
            .note(self.now, None, FaultEventKind::PowerRestored);
    }

    /// The one precondition gate (§4.6), named by every public op that
    /// a downed device must refuse: until power is restored every such
    /// op fails with [`SnicError::NicCrashed`]; then `nf` must be live
    /// ([`SnicError::NoSuchNf`]) and, for `Operational`, not faulted
    /// ([`SnicError::NfFaulted`]).
    pub(crate) fn require(&self, need: Need) -> Result<(), SnicError> {
        if self.crashed {
            return Err(SnicError::NicCrashed);
        }
        match need {
            Need::Up => Ok(()),
            Need::Live(nf) => self.record(nf).map(drop),
            Need::Operational(nf) if self.record(nf)?.state.is_operational() => Ok(()),
            Need::Operational(nf) => Err(SnicError::NfFaulted(nf)),
        }
    }

    /// §4.6: live functions carry ids already handed out and a live
    /// state; once the transcript holds a power record, the device is
    /// down exactly when the latest one is `DeviceCrashed` or
    /// `PowerLost` (a fresh, drained or re-armed transcript holds none,
    /// and the next one is written with the flag).
    pub(crate) fn check(&self) -> Result<(), Invariant> {
        for (nf, r) in &self.launched {
            let live = matches!(
                r.state,
                NfState::Launched | NfState::Running | NfState::Faulted
            );
            ensure(live && (1..=self.issued).contains(&nf.0), "§4.6", || {
                format!(
                    "{nf} is live in state {} of {} issued",
                    r.state, self.issued
                )
            })?;
        }
        let power = self.injector.log().iter().rev().find(|r| {
            matches!(
                r.kind,
                FaultEventKind::DeviceCrashed
                    | FaultEventKind::PowerLost
                    | FaultEventKind::PowerRestored
            )
        });
        let down = power.map(|r| r.kind != FaultEventKind::PowerRestored);
        ensure(
            down.is_none_or(|down| down == self.crashed),
            "§4.6",
            || {
                format!(
                    "down: {}, but the last power record is {power:?}",
                    self.crashed
                )
            },
        )
    }
}
