//! `snic-serve` — `snicd`, a resident serving daemon over the device
//! model.
//!
//! The rest of the workspace drives a [`snic_core::SmartNic`] as a
//! library: construct, poke, assert, drop. This crate gives it a
//! *service* shape — a long-running daemon that owns one device and
//! serves multi-tenant requests over a line-delimited JSON protocol —
//! and makes the robustness story of the paper's control plane
//! testable end to end:
//!
//! - **Admission control and backpressure** ([`admission`]): per-tenant
//!   bounded queues (shed `SERVE-OVERLOADED`), deterministic token
//!   buckets over simulated time (`SERVE-RATE-LIMITED`), live-NF quotas
//!   (`SERVE-QUOTA`).
//! - **Deadlines and retries** ([`daemon`]): absolute simulated-time
//!   deadlines that expire requests in queue or cancel a launch between
//!   retry attempts with the device rolled back to its pre-call
//!   resource snapshot. Every launch goes through
//!   `NicOs::nf_create_with_retry`: capped, seeded-jitter backoff that
//!   the request's deadline cancels.
//! - **Graceful degradation**: a NIC-OS-attributed fault freezes only
//!   the faulted tenant's queue; everyone else keeps being served. An
//!   explicit `reclaim` tears the faulted NFs down, sheds the held
//!   queue, and thaws.
//! - **Crash-safe restart** ([`snapshot`]): because every observable is
//!   a pure function of `(config, input lines)`, a snapshot is the
//!   canonical config plus the line history, sealed with transcript and
//!   state digests; restore replays and verifies. The write-ahead
//!   journal is the same cause, unsealed: it recovers to its last
//!   complete record.
//! - **One verb table** ([`daemon::VERBS`]): every op's name, class,
//!   arguments and handler, written once; [`script`] lowers `.snic`
//!   script lines onto it.
//! - **One host** ([`host`]): flags, boot-or-restore, the bounded line
//!   loop, journaling and the snapshot sink, shared by every transport.
//! - **Verification** ([`snic_verify::serve`]): Pass 4 lints the serve
//!   transcript for frozen-tenant service, quota bypass, and
//!   expired-then-served violations.
//! - **Soak** ([`soak`]): a seeded ~30-simulated-second overload
//!   schedule with a mid-run fault plan, an acceptance gate and a
//!   restart differential.
//!
//! The binary lives in the facade crate (`src/bin/snicd.rs`); it and
//! `snicctl script` are transports over
//! [`host::Host`], and `snicctl exp soak` drives the same
//! [`daemon::Daemon`] in process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod daemon;
pub mod host;
pub mod protocol;
pub mod script;
pub mod snapshot;
pub mod soak;

pub use admission::{TenantQuota, TenantStats};
pub use daemon::{Daemon, DaemonConfig};
pub use protocol::codes;
pub use snapshot::{render_image, restore};
