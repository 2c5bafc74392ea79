//! Common foundation types for the S-NIC reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: packets and their protocol headers, five-tuple flow keys,
//! principal identifiers (network functions, cores, accelerator
//! clusters), physical units (bytes, picoseconds), and the common error
//! type used by the device model.
//!
//! Everything here is plain data: no simulation logic lives in this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod flow;
pub mod ids;
pub mod lifecycle;
pub mod mix;
pub mod packet;
pub mod units;

pub use error::{IsolationError, SnicError, TransientResource};
pub use flow::{FiveTuple, Protocol};
pub use ids::{AccelClusterId, AccelKind, CoreId, NfId};
pub use lifecycle::NfState;
pub use packet::{EthernetHeader, Ipv4Header, MacAddr, Packet, TcpHeader, UdpHeader, VxlanHeader};
pub use units::{ByteSize, Picos};
