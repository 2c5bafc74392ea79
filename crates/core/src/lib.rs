//! S-NIC: the paper's primary contribution.
//!
//! A [`device::SmartNic`] is a SoC smart-NIC device model with two
//! personalities:
//!
//! - **commodity** ([`config::NicMode::Commodity`]): the LiquidIO/Agilio
//!   behaviour of §3 — flat physical addressing for every NF
//!   (`xkphys`), a shared buffer allocator whose metadata any NF can
//!   walk, shared accelerators, and an unarbitrated bus that a tenant
//!   can saturate until the NIC hard-crashes;
//! - **S-NIC** ([`config::NicMode::Snic`]): the §4 design — virtual
//!   smart NICs assembled by the trusted `nf_launch` instruction from
//!   cores, single-owner RAM behind locked TLBs and management-core
//!   denylists, virtualized accelerator clusters, virtual packet
//!   pipelines with reserved buffers, temporal bus partitioning, and
//!   hardware-rooted remote attestation.
//!
//! Modules:
//!
//! - [`config`]: device configuration,
//! - [`alloc`]: the commodity shared buffer allocator (attack surface),
//! - [`cluster`]: accelerator hardware-thread cluster allocation and
//!   fault poisoning (§4.3),
//! - [`instr`]: the trusted instructions of Table 1
//!   (`nf_launch` / `nf_attest` / `nf_teardown`) with the Figure 6
//!   latency model,
//! - [`device`]: the SoC device model and packet path,
//! - [`attest`]: the Appendix A attestation protocol,
//! - [`channel`]: authenticated-encrypted channels over attested keys,
//! - [`enclave`]: host-level enclave endpoints (SGX-like),
//! - [`constellation`]: constellations of trusted computations (§4.7),
//! - [`nicos`]: the NIC OS management API (Table 1's first column).
//!
//! The device is instrumented for deterministic fault injection
//! (`snic-faults`): arm it with [`SmartNic::inject_faults`], and every
//! function carries a recoverable lifecycle
//! (`Launched → Running → Faulted → Scrubbing → Reclaimed`) whose
//! transitions — along with scrub watermarks, power events and retries
//! — land in a byte-reproducible transcript ([`SmartNic::fault_log`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod attest;
pub mod channel;
pub mod cluster;
pub mod config;
pub mod constellation;
pub mod device;
pub mod enclave;
pub mod instr;
pub mod nicos;

pub use attest::{verify_quote, AttestationQuote};
pub use channel::SecureChannel;
pub use config::{NicConfig, NicMode};
pub use constellation::Constellation;
pub use device::{ResourceSnapshot, ScrubTicket, SmartNic};
pub use enclave::HostEnclave;
pub use instr::{LaunchReceipt, LaunchRequest, NfImage, TeardownReceipt};
pub use nicos::{NicOs, RetryError, RetryPolicy};
