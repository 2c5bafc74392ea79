//! Error types shared across the workspace.

use crate::ids::{AccelClusterId, CoreId, NfId};

/// An isolation violation detected by the trusted hardware.
///
/// On a commodity NIC these conditions are *not* errors — the access simply
/// proceeds, which is precisely the weakness §3 of the paper demonstrates.
/// Under S-NIC the device model returns one of these variants and the
/// offending access has no effect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsolationError {
    /// A core attempted to touch a physical address outside its TLB mappings.
    TlbMiss {
        /// The core that faulted.
        core: CoreId,
        /// The offending physical (commodity) or virtual (S-NIC) address.
        addr: u64,
    },
    /// The management core tried to access a denylisted physical page.
    Denylisted {
        /// The physical address that was refused.
        addr: u64,
        /// The function that owns the page.
        owner: NfId,
    },
    /// A DMA request targeted memory outside the sanctioned windows (§4.2).
    DmaViolation {
        /// The offending bus address.
        addr: u64,
    },
    /// Attempt to mutate a TLB that `nf_launch` has locked read-only.
    TlbLocked,
    /// Attempt to install more TLB entries than the hardware has slots —
    /// the launch planner must size mappings before installation.
    TlbCapacity {
        /// The core whose TLB overflowed.
        core: CoreId,
        /// Hardware entry slots.
        capacity: usize,
    },
}

impl core::fmt::Display for IsolationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IsolationError::TlbMiss { core, addr } => {
                write!(f, "TLB miss on {core} at {addr:#x} (fatal under S-NIC)")
            }
            IsolationError::Denylisted { addr, owner } => {
                write!(
                    f,
                    "management access to {addr:#x} denied; page owned by {owner}"
                )
            }
            IsolationError::DmaViolation { addr } => {
                write!(f, "DMA to unsanctioned address {addr:#x}")
            }
            IsolationError::TlbLocked => write!(f, "TLB is locked read-only after nf_launch"),
            IsolationError::TlbCapacity { core, capacity } => {
                write!(f, "{core} TLB capacity {capacity} exceeded during install")
            }
        }
    }
}

impl std::error::Error for IsolationError {}

/// Which pooled resource was transiently exhausted.
///
/// Transient exhaustion is *retryable*: the NIC OS orchestrator backs
/// off and reissues the launch, because co-tenant teardowns free the
/// pool over time. This is distinct from the fatal `InvalidConfig`
/// shape ("this request can never fit on this device").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientResource {
    /// On-NIC DRAM: no free region large enough right now.
    Dram,
    /// Accelerator cluster pool: requested clusters busy right now.
    AccelPool,
    /// The (untrusted, restartable) NIC OS crashed mid-call; it has
    /// already restarted, so re-issuing the request succeeds.
    NicOs,
}

impl core::fmt::Display for TransientResource {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TransientResource::Dram => write!(f, "on-NIC DRAM"),
            TransientResource::AccelPool => write!(f, "accelerator cluster pool"),
            TransientResource::NicOs => write!(f, "NIC OS (restarted mid-call)"),
        }
    }
}

/// Top-level error type for S-NIC device-model operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnicError {
    /// An isolation violation (see [`IsolationError`]).
    Isolation(IsolationError),
    /// `nf_launch` failed: a requested core is already bound to a live NF.
    CoreBusy(CoreId),
    /// `nf_launch` failed: a physical page is already owned by another NF.
    PageOwned {
        /// First conflicting physical page address.
        addr: u64,
        /// The current owner.
        owner: NfId,
    },
    /// `nf_launch` failed: requested accelerator clusters are unavailable.
    AccelUnavailable(AccelClusterId),
    /// `nf_launch` failed: not enough RX/TX buffer space in physical ports.
    PortBufferExhausted,
    /// `nf_launch` failed: not enough cache capacity for the reservation.
    CacheExhausted,
    /// Operation referenced an NF id that does not exist (or was torn down).
    NoSuchNf(NfId),
    /// The request was malformed (bad config blob, zero cores, ...).
    InvalidConfig(String),
    /// Packet parsing failed.
    Malformed(&'static str),
    /// The NIC crashed (e.g. the bus-DoS attack on commodity hardware).
    NicCrashed,
    /// The static verifier refused the manifest set; the payload is the
    /// rendered verification report (every violation with its paper
    /// citation).
    Verification(String),
    /// A pooled resource is exhausted *right now* but co-tenant churn
    /// will free it; the caller should retry with backoff.
    Transient(TransientResource),
    /// Power was lost mid-operation; the device needs a power cycle.
    /// Crash-consistent metadata (e.g. scrub watermarks) survives.
    PowerLoss,
    /// A bus transfer was aborted by a hardware bus error.
    BusError {
        /// The bus address of the aborted transfer.
        addr: u64,
    },
    /// The referenced function is in the `Faulted` lifecycle state:
    /// its resources are frozen until `nf_teardown` scrubs them.
    NfFaulted(NfId),
    /// The requested region overlaps memory whose teardown scrub has
    /// not completed; it cannot be reused until zeroization finishes
    /// (§4.6's contract, upheld across power loss).
    ScrubPending {
        /// Base of the pending-scrub region.
        base: u64,
    },
}

impl SnicError {
    /// Whether the failed operation is worth retrying unchanged.
    ///
    /// Only transient resource exhaustion qualifies: every other
    /// variant is either a permanent property of the request
    /// (`InvalidConfig`, `Verification`), a security refusal
    /// (`Isolation`), or a fault that demands recovery before a retry
    /// can succeed (`NicCrashed`, `PowerLoss`, `NfFaulted`,
    /// `ScrubPending`).
    pub fn is_retryable(&self) -> bool {
        matches!(self, SnicError::Transient(_))
    }
}

impl From<IsolationError> for SnicError {
    fn from(e: IsolationError) -> Self {
        SnicError::Isolation(e)
    }
}

impl core::fmt::Display for SnicError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnicError::Isolation(e) => write!(f, "isolation violation: {e}"),
            SnicError::CoreBusy(c) => write!(f, "nf_launch: {c} already bound to a live NF"),
            SnicError::PageOwned { addr, owner } => {
                write!(f, "nf_launch: page {addr:#x} already owned by {owner}")
            }
            SnicError::AccelUnavailable(c) => {
                write!(
                    f,
                    "nf_launch: accelerator cluster {:?}#{} unavailable",
                    c.kind, c.index
                )
            }
            SnicError::PortBufferExhausted => {
                write!(f, "nf_launch: insufficient RX/TX port buffer space")
            }
            SnicError::CacheExhausted => {
                write!(f, "nf_launch: insufficient cache capacity for reservation")
            }
            SnicError::NoSuchNf(id) => write!(f, "no such network function: {id}"),
            SnicError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SnicError::Malformed(what) => write!(f, "malformed packet: {what}"),
            SnicError::NicCrashed => write!(f, "NIC hard-crashed; power cycle required"),
            SnicError::Verification(report) => {
                write!(f, "static verification refused the manifest: {report}")
            }
            SnicError::Transient(res) => {
                write!(f, "transient exhaustion of {res}; retry with backoff")
            }
            SnicError::PowerLoss => write!(f, "power lost mid-operation; device restart required"),
            SnicError::BusError { addr } => write!(f, "bus error aborted transfer at {addr:#x}"),
            SnicError::NfFaulted(nf) => {
                write!(f, "{nf} is faulted; resources frozen until teardown")
            }
            SnicError::ScrubPending { base } => {
                write!(
                    f,
                    "region at {base:#x} awaits scrub completion before reuse"
                )
            }
        }
    }
}

impl std::error::Error for SnicError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnicError::Isolation(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trip() {
        let e = SnicError::from(IsolationError::Denylisted {
            addr: 0x1000,
            owner: NfId(3),
        });
        let s = e.to_string();
        assert!(s.contains("0x1000"), "{s}");
        assert!(s.contains("nf3"), "{s}");
    }

    #[test]
    fn source_chains_to_isolation() {
        use std::error::Error;
        let e = SnicError::from(IsolationError::TlbLocked);
        assert!(e.source().is_some());
        assert!(SnicError::NicCrashed.source().is_none());
    }

    #[test]
    fn retryable_split() {
        assert!(SnicError::Transient(TransientResource::Dram).is_retryable());
        assert!(SnicError::Transient(TransientResource::AccelPool).is_retryable());
        assert!(SnicError::Transient(TransientResource::NicOs).is_retryable());
        for fatal in [
            SnicError::NicCrashed,
            SnicError::PowerLoss,
            SnicError::NfFaulted(NfId(1)),
            SnicError::ScrubPending { base: 0x1000 },
            SnicError::BusError { addr: 0x2000 },
            SnicError::InvalidConfig("x".into()),
            SnicError::CoreBusy(CoreId(0)),
            SnicError::from(IsolationError::TlbLocked),
        ] {
            assert!(!fatal.is_retryable(), "{fatal} must not be retryable");
        }
    }

    #[test]
    fn new_variants_display() {
        let s = SnicError::Transient(TransientResource::AccelPool).to_string();
        assert!(s.contains("retry"), "{s}");
        let s = SnicError::ScrubPending { base: 0xabc }.to_string();
        assert!(s.contains("0xabc"), "{s}");
        let s = SnicError::NfFaulted(NfId(4)).to_string();
        assert!(s.contains("nf4"), "{s}");
    }

    #[test]
    fn tlb_miss_display_mentions_core() {
        let e = IsolationError::TlbMiss {
            core: CoreId(4),
            addr: 0xdead_beef,
        };
        assert!(e.to_string().contains("core4"));
    }
}
