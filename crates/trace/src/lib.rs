//! Synthetic packet-trace generation.
//!
//! The paper evaluates with two traces (§5.1): a one-hour anonymized CAIDA
//! 2016 trace (26.7 M TCP flows, 1.34 B packets) and the 2010 ICTF
//! capture-the-flag trace, from which 100,000 flows were uniformly sampled;
//! the sampled workload followed "a Zipf distribution with a skewness of
//! 1.1" (§5.3). Neither trace ships with this repository, so this crate
//! generates synthetic equivalents:
//!
//! - [`ZipfSampler`]: a deterministic Zipf(θ) sampler over flow ranks,
//! - [`FlowTable`]: a seeded population of five-tuple flows,
//! - [`IctfLikeTrace`]: packets drawn from a fixed flow pool with Zipf
//!   popularity — the workload that drives the Figure 5 experiments,
//! - [`CaidaLikeTrace`]: a time-stamped trace with flow arrival/departure
//!   churn and heavy-tailed flow sizes — drives the Monitor experiments
//!   (Figure 7 and the Table 6 memory profile),
//! - [`PayloadGen`]: payload synthesis with optional embedded DPI patterns,
//! - [`PhasedTrace`]: the ICTF-like stream with time-varying workload
//!   phases (diurnal cycles, flash crowds, heavy-hitter migration, flow
//!   churn) the paper's stationary snapshot cannot express — drives the
//!   32–64-tenant streaming sweeps.
//!
//! All generators are deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod caida;
pub mod flows;
pub mod ictf;
pub mod payload;
pub mod phases;
pub mod zipf;

pub use caida::{CaidaConfig, CaidaLikeTrace};
pub use flows::{FlowTable, FlowTableConfig};
pub use ictf::{IctfConfig, IctfLikeTrace};
pub use payload::PayloadGen;
pub use phases::{PhaseSchedule, PhasedConfig, PhasedTrace};
pub use zipf::ZipfSampler;
