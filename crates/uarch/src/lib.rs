//! Trace-driven microarchitectural simulator (the gem5 substitute).
//!
//! §5.3 of the paper measures the IPC degradation caused by S-NIC's two
//! microarchitectural isolation mechanisms — static cache partitioning
//! (§4.2) and temporal bus partitioning (§4.5) — by running colocated
//! network functions in gem5. This crate reproduces that experiment with
//! a trace-driven model:
//!
//! - [`cache`]: set-associative caches with LRU replacement and three
//!   sharing disciplines (shared, static way-partitioned, SecDCP-style
//!   demand partitioning),
//! - [`bus`]: the internal IO bus with an FCFS arbiter (commodity
//!   baseline) and a temporal-partitioning arbiter (S-NIC),
//! - [`stream`]: the memory-reference stream abstraction that network
//!   functions emit (their real per-packet data-structure walks),
//! - [`engine`]: the multi-stream interleaving simulator that produces
//!   per-NF cycles and IPC (each lane's branch-free private-L1 front
//!   hands batches of L2 events to the shared-hierarchy scheduler, from
//!   a helper thread when one is spare; shardable across tenants),
//! - [`budget`]: the process-wide hardware-thread budget the engine's
//!   helper and `snic-sim`'s worker pool draw from,
//! - [`reference`]: the per-event engine kept as the executable
//!   specification the production engine is differentially tested
//!   against,
//! - [`simd`]: the std-only u64x4-style lane helpers behind the cache
//!   hit scan,
//! - [`config`]: machine parameters matching the Marvell NIC used in the
//!   iPipe paper (1.2 GHz cores, two-level cache, DDR3-1600).
//!
//! The key reproduction claim: under the S-NIC discipline a victim NF's
//! cycle count is *bit-for-bit independent* of what co-located NFs do
//! (no side channel), at the cost of a small IPC degradation; under the
//! shared/FCFS discipline the victim observes co-runner activity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod bus;
pub mod cache;
pub mod config;
pub mod engine;
pub mod reference;
pub mod simd;
pub mod stream;

pub use bus::{BusKind, FcfsArbiter, TemporalArbiter};
pub use cache::{Cache, CacheConfig, Partition};
pub use config::MachineConfig;
pub use engine::{
    run_colocated, run_colocated_ids_sink, run_colocated_warm, NfRunStats, RunOutcome,
};
pub use reference::{run_reference, BusGrantRec, L2AccessRec, RecordedTrace, TraceObserver};
pub use stream::{
    Access, AccessKind, EventSource, SharedReplayStream, StreamedSource, SyntheticStream,
    TraceSource, STREAM_CHUNK,
};
