//! Covert-channel bandwidth battery: what is isolation worth in bits/sec?
//!
//! The §3.3 attacks are qualitative; `snic-verify`'s Pass 2 lints turn
//! them into pass/fail findings. This crate makes the claim
//! *quantitative*: for each of three channel families —
//!
//! - **cache** — prime+probe L2 occupancy ([`covert::prime_probe_sender`]),
//! - **bus** — FCFS grant-latency contention ([`covert::bus_sender`]),
//! - **scrub** — teardown zeroization duration ([`covert::scrub_stream`]),
//!
//! a sender tenant transmits a seeded pseudorandom bitstring to a
//! colocated receiver tenant through the uarch engine, and a decoder
//! recovers the bits from the receiver's *telemetry-observable* signals
//! alone (L2 miss counts, delayed-bus-grant counts). The measured
//! bit-error rate converts to channel capacity in bits per second of
//! simulated time via the plug-in mutual-information estimator
//! ([`capacity::Confusion::mutual_information`]).
//!
//! Sweeping geometry × epoch × personality (the device's one
//! [`snic_types::NicMode`], which also spells the cell's mode in the
//! table) yields the [`matrix::LeakageMatrix`]: the repo's leakage-bandwidth table
//! (ROADMAP item 3), served and golden-snapshotted as the `leakage`
//! entry of `snicctl exp`. Every S-NIC cell must sit below
//! [`matrix::SNIC_CAPACITY_CEILING_BPS`]; every commodity cell of an
//! exploitable geometry must clear
//! [`matrix::COMMODITY_CAPACITY_FLOOR_BPS`]. Under the S-NIC discipline
//! the receiver's observables are bit-identical with and without the
//! sender (the engine's purity property), so the decoder's output is
//! *constant* and the estimated mutual information is exactly zero —
//! not merely small.
//!
//! Everything is deterministic: seeded payloads, simulated time, and
//! [`snic_sim::par_map`] fan-out with serial ≡ parallel byte identity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod channel;
pub mod covert;
pub mod matrix;

pub use capacity::{payload_bits, Confusion};
pub use channel::{Channel, ChannelFamily, Geometry};
pub use matrix::{
    CellSpec, LeakageCell, LeakageMatrix, CELL_BITS, COMMODITY_CAPACITY_FLOOR_BPS,
    SNIC_CAPACITY_CEILING_BPS,
};
