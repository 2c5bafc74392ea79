//! # S-NIC: strongly isolated virtual smart NICs
//!
//! Facade crate for the reproduction of *"SmartNIC Security Isolation in
//! the Cloud with S-NIC"* (EuroSys '24). It re-exports every workspace
//! crate under one roof so examples and downstream users can write
//! `use snic::core::SmartNic;` etc.
//!
//! See the repository `README.md` for a quickstart and `DESIGN.md` for the
//! full system inventory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use snic_attacks as attacks;
pub use snic_bench as bench;
pub use snic_core as core;
pub use snic_cost as cost;
pub use snic_crypto as crypto;
pub use snic_faults as faults;
pub use snic_leakage as leakage;
pub use snic_mem as mem;
pub use snic_nf as nf;
pub use snic_pktio as pktio;
pub use snic_serve as serve;
pub use snic_sim as sim;
pub use snic_telemetry as telemetry;
pub use snic_trace as trace;
pub use snic_types as types;
pub use snic_uarch as uarch;
pub use snic_verify as verify;
