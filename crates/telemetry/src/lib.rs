//! Workspace-wide observability for the S-NIC reproduction.
//!
//! Every simulation layer (device entry points, the microarchitectural
//! engine, packet IO, accelerators, the benches) reports what it does
//! through a [`TelemetrySink`]. The trait has three jobs:
//!
//! - **Per-domain accounting.** Counters and simulated-time histograms
//!   are keyed by a *domain* — `NfId.0` for tenant work, `0` for
//!   management-plane work — so isolation claims ("the victim's
//!   counters did not move") can be read straight off a run.
//! - **Event traces.** Span begin/end and instant events keyed by NF
//!   lifecycle phases and uarch pipeline stages, exportable as
//!   Chrome-trace JSON (`chrome://tracing` / Perfetto).
//! - **Zero cost when off.** The no-op [`NullSink`] reports
//!   `enabled() == false` and every default method is an empty
//!   `#[inline]` body, so instrumentation guarded by
//!   `if sink.enabled()` compiles to nothing in the hot loops.
//!   Telemetry-off runs are byte-identical to uninstrumented runs —
//!   asserted by tests in `snic-sim` and `snic-bench`.
//!
//! The crate is std-only and dependency-free; timestamps are plain
//! `u64` in whatever unit the caller uses (picoseconds on the device,
//! cycles in the uarch engine — the `unit` field of the exported trace
//! records which).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod hist;
pub mod json;
mod recorder;
mod sink;
mod summary;
mod trace;

pub use buffer::BufferSink;
pub use hist::Histogram;
pub use json::{parse_json, read_members, Json, JsonError, Scalar};
pub use recorder::Recorder;
pub use sink::{metrics, NullSink, TelemetrySink};
pub use summary::{Summary, SummaryDelta};
pub use trace::{parse_chrome_trace, to_chrome_trace, Phase, TraceEvent};
