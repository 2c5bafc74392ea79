//! The S-NIC memory subsystem.
//!
//! Implements the mechanisms of §4.2 of the paper — single-owner RAM
//! semantics — and the TLB-sizing machinery behind Tables 5 and 6:
//!
//! - [`phys`]: sparse physical memory with byte-level content, so the §3.3
//!   attacks can really read and corrupt data,
//! - [`pagetable`]: one virtual→physical mapping of a mixed page size,
//! - [`tlb`]: fully-associative, lockable TLBs (read-only after
//!   `nf_launch`; misses are fatal under S-NIC),
//! - [`denylist`]: the management-core memory denylist implemented as a
//!   dual page-table walk,
//! - [`ownership`]: the trusted hardware's page-ownership bitmap,
//! - [`guard`]: mediated access combining TLB + denylist + ownership,
//! - [`planner`]: the page-allocation planner that minimizes wasted
//!   memory for a set of allowed page sizes (Equal / Flex-low /
//!   Flex-high configurations),
//! - [`tracker`]: allocation time-series accounting (DPDK hugepage-init
//!   and `HashMap`-resize spikes) used for Figure 7 and the memory
//!   utilization ratios of Table 8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod denylist;
pub mod guard;
pub mod ownership;
pub mod pagetable;
pub mod phys;
pub mod planner;
pub mod tlb;
pub mod tracker;

pub use denylist::Denylist;
pub use guard::{AccessKind, AccessRecord, MemoryGuard, Principal};
pub use ownership::PageOwnership;
pub use pagetable::PageMapping;
pub use phys::{PhysMem, PAGE_GRANULE};
pub use planner::{plan_regions, PagePolicy, PlanOutcome, RegionPlan};
pub use tlb::{Tlb, TlbEntry};
pub use tracker::{AllocEvent, AllocationTracker};
