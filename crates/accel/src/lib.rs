//! Hardware accelerators and their side-channel-free virtualization.
//!
//! §4.3 of the paper: commodity accelerators are shared by all cores with
//! unrestricted RAM access; "contention also creates side channels that
//! let a core determine whether other cores are doing cryptography"
//! (§3.2, Agilio). S-NIC statically groups an accelerator's hardware
//! threads into *clusters*, places a TLB bank in front of each cluster,
//! and binds clusters to network functions at `nf_launch` time.
//!
//! - [`dpi`]: the DPI engine's cost model (Aho-Corasick graph walker with
//!   a graph-cache model, Figures 3 and 8),
//! - [`cluster`]: hardware-thread cluster allocation, release and fault
//!   poisoning — what `nf_launch`, `nf_teardown` and the fault paths of
//!   the device bind and unbind,
//! - [`profile`]: the Table 7 accelerator memory profiles and their TLB
//!   bank sizing.
//!
//! Beyond the Figure 8 cost model the crate covers *allocation and
//! fault containment*, not service time: no engine executes requests and
//! no thread pool queues them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod dpi;
pub mod profile;

pub use cluster::ClusterPool;
pub use dpi::{DpiAccel, DpiAccelConfig};
pub use profile::{accel_profile, AccelMemoryProfile};
