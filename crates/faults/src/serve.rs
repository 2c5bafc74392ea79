//! Admission-lifecycle transcript records for the resident daemon.
//!
//! `snicd` (the `snic-serve` crate) is the serving layer above the
//! device: it admits, queues, sheds, serves, freezes, and reclaims
//! per-tenant request streams. Just as [`crate::FaultRecord`] gives
//! Pass 3 a totally ordered, byte-stable account of *device* lifecycle
//! events, [`ServeRecord`] gives Pass 4 the same for the *admission*
//! layer: every queue transition a request or tenant goes through, in
//! one deterministic order.
//!
//! The type lives here — next to the fault taxonomy, below both the
//! daemon and the verifier in the dependency graph — so `snic-verify`
//! can lint daemon transcripts without depending on the daemon.

use std::fmt;
use std::sync::Arc;

use snic_types::Picos;

/// What happened to a request (or a tenant's whole queue) at the
/// admission layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeEventKind {
    /// A request passed admission and entered its tenant's queue.
    Admitted {
        /// The protocol operation name (`launch`, `send`, ...).
        op: &'static str,
        /// Queue depth *after* enqueueing this request.
        depth: u32,
        /// The configured per-tenant depth bound.
        bound: u32,
    },
    /// A request was refused at admission and never queued.
    Shed {
        /// The stable rejection code (`SERVE-OVERLOADED`, ...).
        code: &'static str,
    },
    /// A queued request was dequeued and executed.
    Served {
        /// Whether the device (or control-plane handler) succeeded.
        ok: bool,
        /// The rejection/error code when `ok` is false.
        code: Option<&'static str>,
    },
    /// A queued request's deadline passed before service; it was
    /// cancelled without touching the device.
    Expired,
    /// The tenant's queue was frozen: a fault was attributed to one of
    /// its functions, and blast-radius containment at the serving layer
    /// stops all further service for it until reclamation.
    Frozen {
        /// Why (a fault kind or error rendering).
        reason: String,
    },
    /// The tenant's queue thawed after reclamation.
    Thawed,
    /// The tenant's faulted functions were torn down and its queue
    /// drained; `shed` requests were refused with `SERVE-FROZEN`.
    Reclaimed {
        /// Queued requests shed during reclamation.
        shed: u32,
    },
    /// The daemon entered draining: no further admissions.
    DrainStarted,
    /// Every queue is empty; the daemon is quiescent.
    DrainCompleted {
        /// Requests served over the daemon's lifetime.
        served: u64,
    },
    /// A crash-safe snapshot image was taken.
    SnapshotTaken {
        /// First 8 hex digits of the image digest.
        digest: String,
    },
}

/// One totally ordered admission-layer event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeRecord {
    /// Position in the transcript (0-based, dense).
    pub seq: u64,
    /// Simulated time of the event.
    pub at: Picos,
    /// The tenant the event concerns (empty for daemon-wide events).
    /// Shared: a daemon writes two records per request and keeps them
    /// all, so each holds a reference to the one name, not a copy.
    pub tenant: Arc<str>,
    /// The protocol request id (0 for tenant- or daemon-wide events).
    pub id: u64,
    /// What happened.
    pub kind: ServeEventKind,
}

impl fmt::Display for ServeRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:06} t={}ps", self.seq, self.at.0)?;
        if !self.tenant.is_empty() {
            write!(f, " tenant={}", self.tenant)?;
        }
        if self.id != 0 {
            write!(f, " id={}", self.id)?;
        }
        write!(f, "] ")?;
        match &self.kind {
            ServeEventKind::Admitted { op, depth, bound } => {
                write!(f, "admit {op} depth={depth}/{bound}")
            }
            ServeEventKind::Shed { code } => write!(f, "shed {code}"),
            ServeEventKind::Served { ok: true, .. } => write!(f, "serve ok"),
            ServeEventKind::Served { ok: false, code } => {
                write!(f, "serve err {}", code.unwrap_or("?"))
            }
            ServeEventKind::Expired => write!(f, "expire"),
            ServeEventKind::Frozen { reason } => write!(f, "freeze ({reason})"),
            ServeEventKind::Thawed => write!(f, "thaw"),
            ServeEventKind::Reclaimed { shed } => write!(f, "reclaim shed={shed}"),
            ServeEventKind::DrainStarted => write!(f, "drain start"),
            ServeEventKind::DrainCompleted { served } => {
                write!(f, "drain complete served={served}")
            }
            ServeEventKind::SnapshotTaken { digest } => write!(f, "snapshot {digest}"),
        }
    }
}

/// Render an admission transcript as one canonical string (byte-
/// comparable across runs; the restart differential diffs these).
pub fn render_serve_transcript(records: &[ServeRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, tenant: &str, id: u64, kind: ServeEventKind) -> ServeRecord {
        ServeRecord {
            seq,
            at: Picos(seq * 10),
            tenant: tenant.into(),
            id,
            kind,
        }
    }

    #[test]
    fn render_is_canonical_and_line_per_record() {
        let records = vec![
            rec(
                0,
                "alpha",
                7,
                ServeEventKind::Admitted {
                    op: "launch",
                    depth: 1,
                    bound: 8,
                },
            ),
            rec(
                1,
                "alpha",
                8,
                ServeEventKind::Shed {
                    code: "SERVE-OVERLOADED",
                },
            ),
            rec(
                2,
                "alpha",
                7,
                ServeEventKind::Served {
                    ok: true,
                    code: None,
                },
            ),
            rec(
                3,
                "alpha",
                0,
                ServeEventKind::Frozen {
                    reason: "nf-crash".into(),
                },
            ),
            rec(4, "", 0, ServeEventKind::DrainCompleted { served: 1 }),
        ];
        let text = render_serve_transcript(&records);
        assert_eq!(text.lines().count(), 5);
        assert!(text.contains("admit launch depth=1/8"), "{text}");
        assert!(text.contains("shed SERVE-OVERLOADED"), "{text}");
        assert!(text.contains("freeze (nf-crash)"), "{text}");
        assert!(text.contains("drain complete served=1"), "{text}");
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(text, render_serve_transcript(&records));
    }

    #[test]
    fn daemon_wide_records_omit_tenant_and_id() {
        let r = rec(0, "", 0, ServeEventKind::DrainStarted);
        let s = r.to_string();
        assert!(!s.contains("tenant="), "{s}");
        assert!(!s.contains("id="), "{s}");
    }
}
