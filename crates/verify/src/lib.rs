//! Static isolation verifier for S-NIC (the analysis counterpart of §4).
//!
//! The device model in `snic-core` *enforces* isolation dynamically: the
//! memory guard faults cross-domain loads, the temporal arbiter refuses
//! out-of-window bus grants, and so on. This crate *proves* isolation
//! statically, before anything runs, in five passes:
//!
//! - **Pass 0 — program analysis** ([`pass0`]): abstract interpretation
//!   of the NF's submitted dataflow IR. A worklist fixpoint over an
//!   interval domain proves every load/store inside the granted regions,
//!   a per-tenant taint lattice proves no packet- or state-derived value
//!   escapes to ungranted regions, accelerators, or the host bus outside
//!   the DMA window, and a loop-bound pass proves a per-packet
//!   instruction ceiling. Its verdicts are `P0-*` [`report::Violation`]s
//!   like every other pass's; a clean analysis issues a certificate
//!   whose digest `nf_attest` binds into its quotes.
//!
//! - **Pass 1 — manifest verification** ([`manifest`]): given a
//!   [`spec::DeviceSpec`] (the hardware inventory) and a set of proposed
//!   [`spec::VnicManifest`]s (one per virtual NIC), decide whether the
//!   allocation is an isolation-respecting partition of the device:
//!   single-owner memory with no overlap between functions or with the
//!   NIC OS (§4.1–§4.2), denylist completeness against the ownership map
//!   (§4.2), TLB capacity and lock coverage (§4.2), exclusive accelerator
//!   clusters (§4.3), packet-buffer reservations within port capacity
//!   (§4.4), and a bus schedule that does not overcommit the epoch
//!   (§4.5). The result is a typed [`report::VerificationReport`] whose
//!   [`report::Violation`]s carry the offending function, resource range,
//!   and the paper section whose guarantee would be broken — not a bare
//!   boolean.
//!
//! - **Pass 2 — trace linting** ([`trace`]): an offline analyzer over
//!   recorded execution traces (memory references, bus grants, cache
//!   accesses) that recognizes the access patterns behind the §3.3
//!   attacks: cross-domain physical references, walks over the shared
//!   buffer allocator's metadata, bus-timing interference, and
//!   cache-set co-residency probing. On a commodity-mode trace every
//!   attack in `snic-attacks` lights up at least one
//!   [`report::Finding`]; on an S-NIC-mode trace of the same scenarios
//!   the linter stays silent, because the granted accesses it sees never
//!   cross a domain boundary.
//!
//! - **Pass 3 — fault-transcript linting** ([`faults`]): replays a
//!   `snic-faults` transcript (injections, lifecycle transitions, scrub
//!   watermarks, observed perturbations) and checks the *recovery*
//!   invariants: no region reuse before zeroization completes (§4.6,
//!   across power losses), no fault propagation across tenants
//!   (§4.3/§4.6), and a legal lifecycle transition relation.
//!
//! - **Pass 4 — admission-transcript linting** ([`serve`]): replays a
//!   `snicd` daemon admission transcript (`snic_faults::ServeRecord`)
//!   and checks the serving-layer claims: no request served for a
//!   frozen tenant, no bounded queue admitted past its configured
//!   depth, and no deadline-expired request served afterwards.
//!
//! Every pass takes the device personality as `snic_types::NicMode`, the
//! type the device itself is configured with: [`spec::DeviceSpec::mode`]
//! for Pass 1, [`TraceLinter::new`]'s first argument for Pass 2. The bus
//! discipline is not a second input that could disagree with it —
//! [`spec::bus_arbiter`] derives it (FCFS on a commodity NIC, temporal
//! partitioning at `snic_uarch::bus::EPOCH_CYCLES` under S-NIC), and
//! Pass 1's epoch check and Pass 2's solo bus replay both use it.
//!
//! `snic-core` runs Passes 0 and 1 inside `nf_launch` (a program or
//! manifest that cannot be verified is refused before any state
//! changes) and embeds the Pass 1 verdict and the Pass 0 certificate
//! digest in `nf_attest` quotes; `snic-bench` exposes Passes 1 and 2 as
//! the `verify` CLI and runs Pass 3 over every blast-radius episode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod manifest;
pub mod report;
pub mod serve;
pub mod spec;
pub mod trace;

// Pass 0: `pass0` is its entry point; the analyzer it runs is built
// from the IR, the abstract domains, the engine and the certificate.
pub mod certificate;
pub mod domain;
pub mod engine;
pub mod ir;
pub mod pass0;

pub use faults::lint_fault_transcript;
pub use manifest::{verify_denylist_coverage, verify_manifests, verify_tlb_state};
pub use pass0::analyze_launch;
pub use report::{
    Finding, FindingActor, FindingKind, VerificationReport, Violation, ViolationKind,
};
pub use serve::lint_serve_transcript;
pub use spec::{bus_arbiter, DeviceSpec, VnicManifest};
pub use trace::{TraceBundle, TraceLinter};
