//! Pass 4 — admission-transcript linting for the resident daemon.
//!
//! `snicd` freezes a faulted tenant's queue, bounds every queue to a
//! configured depth, and cancels deadline-expired work before it
//! reaches the device. Those are *claims*; this pass checks them
//! against the daemon's own [`ServeRecord`] transcript the same way
//! Pass 3 checks the device's recovery claims against its fault
//! transcript:
//!
//! - **No frozen service** ([`FindingKind::FrozenTenantServed`]): a
//!   `Served` record for a tenant inside a `Frozen`..`Thawed` window
//!   means blast-radius containment failed at the serving layer.
//! - **No quota bypass** ([`FindingKind::AdmissionQuotaBypass`]):
//!   `Admitted` records carry the queue depth after enqueueing and the
//!   configured bound; the lint also reconstructs each queue's depth
//!   from admissions minus services/expiries/reclaims and flags any
//!   point where either exceeds the bound.
//! - **No zombie service** ([`FindingKind::ExpiredRequestServed`]): a
//!   request the transcript already expired must never show up served.
//!
//! Tenants are attributed as [`FindingActor::ServeTenant`] with the
//! index of their first appearance in the transcript (stable for a
//! deterministic transcript); the finding detail carries the name.

use std::collections::HashMap;

use snic_faults::{ServeEventKind, ServeRecord};

use crate::report::{Finding, FindingActor, FindingKind};

#[derive(Default)]
struct TenantLint {
    index: u32,
    frozen: bool,
    /// Reconstructed queue depth (admissions not yet served/expired).
    depth: i64,
    /// Request ids the transcript expired (value: seq of the expiry).
    expired: HashMap<u64, u64>,
}

/// Lint one daemon admission transcript; an empty vector means every
/// serving-layer claim held.
pub fn lint_serve_transcript(records: &[ServeRecord]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut tenants: HashMap<&str, TenantLint> = HashMap::new();
    let mut next_index = 0u32;
    for r in records {
        if r.tenant.is_empty() {
            continue; // daemon-wide events carry no per-tenant claims
        }
        let t = tenants.entry(&*r.tenant).or_insert_with(|| {
            let index = next_index;
            next_index += 1;
            TenantLint {
                index,
                ..TenantLint::default()
            }
        });
        let actor = FindingActor::ServeTenant(t.index);
        match &r.kind {
            ServeEventKind::Admitted { depth, bound, .. } => {
                t.depth += 1;
                let reconstructed = t.depth;
                if *depth > *bound {
                    findings.push(Finding {
                        kind: FindingKind::AdmissionQuotaBypass,
                        actor,
                        count: 1,
                        range: Some((u64::from(*depth), u64::from(*bound))),
                        detail: format!(
                            "tenant '{}' admitted to depth {depth} past bound {bound} (seq {})",
                            r.tenant, r.seq
                        ),
                    });
                }
                if reconstructed > i64::from(*bound) {
                    findings.push(Finding {
                        kind: FindingKind::AdmissionQuotaBypass,
                        actor,
                        count: 1,
                        range: Some((reconstructed as u64, u64::from(*bound))),
                        detail: format!(
                            "tenant '{}' reconstructed depth {reconstructed} exceeds bound \
                             {bound} (seq {})",
                            r.tenant, r.seq
                        ),
                    });
                }
            }
            ServeEventKind::Served { .. } => {
                t.depth -= 1;
                if t.frozen {
                    findings.push(Finding {
                        kind: FindingKind::FrozenTenantServed,
                        actor,
                        count: 1,
                        range: None,
                        detail: format!(
                            "tenant '{}' served request id {} while frozen (seq {})",
                            r.tenant, r.id, r.seq
                        ),
                    });
                }
                if let Some(expired_at) = t.expired.get(&r.id) {
                    findings.push(Finding {
                        kind: FindingKind::ExpiredRequestServed,
                        actor,
                        count: 1,
                        range: Some((*expired_at, r.seq)),
                        detail: format!(
                            "tenant '{}' request id {} expired at seq {expired_at} but was \
                             served at seq {}",
                            r.tenant, r.id, r.seq
                        ),
                    });
                }
            }
            ServeEventKind::Expired => {
                t.depth -= 1;
                t.expired.insert(r.id, r.seq);
            }
            ServeEventKind::Frozen { .. } => t.frozen = true,
            ServeEventKind::Thawed => t.frozen = false,
            ServeEventKind::Reclaimed { shed } => {
                t.depth -= i64::from(*shed);
            }
            ServeEventKind::Shed { .. }
            | ServeEventKind::DrainStarted
            | ServeEventKind::DrainCompleted { .. }
            | ServeEventKind::SnapshotTaken { .. } => {}
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use snic_types::Picos;

    fn rec(seq: u64, tenant: &str, id: u64, kind: ServeEventKind) -> ServeRecord {
        ServeRecord {
            seq,
            at: Picos(seq),
            tenant: tenant.into(),
            id,
            kind,
        }
    }

    fn admit(seq: u64, tenant: &str, id: u64, depth: u32, bound: u32) -> ServeRecord {
        rec(
            seq,
            tenant,
            id,
            ServeEventKind::Admitted {
                op: "launch",
                depth,
                bound,
            },
        )
    }

    fn served(seq: u64, tenant: &str, id: u64) -> ServeRecord {
        rec(
            seq,
            tenant,
            id,
            ServeEventKind::Served {
                ok: true,
                code: None,
            },
        )
    }

    #[test]
    fn clean_transcript_has_no_findings() {
        let records = vec![
            admit(0, "a", 1, 1, 2),
            admit(1, "a", 2, 2, 2),
            served(2, "a", 1),
            admit(3, "b", 3, 1, 2),
            served(4, "a", 2),
            served(5, "b", 3),
            rec(6, "", 0, ServeEventKind::DrainCompleted { served: 3 }),
        ];
        assert!(lint_serve_transcript(&records).is_empty());
    }

    #[test]
    fn frozen_service_is_flagged() {
        let records = vec![
            admit(0, "a", 1, 1, 4),
            rec(
                1,
                "a",
                0,
                ServeEventKind::Frozen {
                    reason: "nf-crash".into(),
                },
            ),
            served(2, "a", 1),
        ];
        let findings = lint_serve_transcript(&records);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].kind, FindingKind::FrozenTenantServed);
        assert_eq!(findings[0].actor, FindingActor::ServeTenant(0));
        assert!(findings[0].detail.contains("'a'"));
    }

    #[test]
    fn thaw_clears_the_freeze() {
        let records = vec![
            admit(0, "a", 1, 1, 4),
            rec(
                1,
                "a",
                0,
                ServeEventKind::Frozen {
                    reason: "nf-crash".into(),
                },
            ),
            rec(2, "a", 0, ServeEventKind::Reclaimed { shed: 1 }),
            rec(3, "a", 0, ServeEventKind::Thawed),
            admit(4, "a", 2, 1, 4),
            served(5, "a", 2),
        ];
        assert!(lint_serve_transcript(&records).is_empty());
    }

    #[test]
    fn recorded_and_reconstructed_quota_bypass_are_flagged() {
        // Recorded depth over bound.
        let records = vec![admit(0, "a", 1, 3, 2)];
        let findings = lint_serve_transcript(&records);
        assert!(
            findings
                .iter()
                .any(|f| f.kind == FindingKind::AdmissionQuotaBypass),
            "{findings:?}"
        );
        // Reconstructed depth over bound even when the recorded depth lies.
        let records = vec![
            admit(0, "a", 1, 1, 2),
            admit(1, "a", 2, 2, 2),
            admit(2, "a", 3, 1, 2), // forged depth field
        ];
        let findings = lint_serve_transcript(&records);
        assert!(
            findings.iter().any(|f| f.detail.contains("reconstructed")),
            "{findings:?}"
        );
    }

    #[test]
    fn expired_then_served_is_flagged() {
        let records = vec![
            admit(0, "a", 1, 1, 4),
            rec(1, "a", 1, ServeEventKind::Expired),
            served(2, "a", 1),
        ];
        let findings = lint_serve_transcript(&records);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].kind, FindingKind::ExpiredRequestServed);
    }

    #[test]
    fn tenant_indices_follow_first_appearance() {
        let records = vec![
            admit(0, "zeta", 1, 1, 1),
            admit(1, "alpha", 2, 2, 1), // bypass on second tenant
        ];
        let findings = lint_serve_transcript(&records);
        assert_eq!(findings[0].actor, FindingActor::ServeTenant(1));
        assert!(findings[0].detail.contains("'alpha'"));
    }
}
