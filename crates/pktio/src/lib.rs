//! Packet IO: ports, switching, virtual packet pipelines, VXLAN, DMA.
//!
//! §4.4 of the paper: a *virtual packet pipeline* (VPP) bundles the
//! hardware that moves one NF's packets between the wire and its private
//! RAM — reserved RX/TX buffer space, a packet scheduler locked to the
//! NF's memory, and the switching rules that select its packets.
//!
//! - [`rules`]: switching rules over five-tuples, MACs, and VXLAN VNIs,
//! - [`vxlan`]: RFC 7348 encap/decap so NFs can act as VXLAN endpoints,
//! - [`vpp`]: a VPP's buffer inventory (PB/PDB/ODB — Table 4's TLB
//!   sizing); the pipeline itself is `SmartNic::{rx_packet, poll_packet,
//!   tx_packet}` in `snic-core`, where packets sit in simulated DRAM,
//! - [`dma`]: the multi-bank DMA controller with per-direction windows
//!   (§4.2's SR-IOV-style isolation for NIC/host transfers).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dma;
pub mod rules;
pub mod vpp;
pub mod vxlan;

pub use dma::{DmaBank, DmaDirection};
pub use rules::{RuleMatch, RuleTable, SwitchRule};
pub use vpp::VppBufferSpec;
pub use vxlan::{vxlan_decap, vxlan_encap};
