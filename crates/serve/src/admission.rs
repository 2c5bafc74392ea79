//! Per-tenant admission control: bounded queues, token-bucket rate
//! limits, live-NF quotas.
//!
//! Everything here is integer arithmetic over simulated time
//! ([`Picos`]) — no wall clock, no floats in state — so admission
//! decisions replay bit-identically from a request history.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use snic_types::{NfId, Picos};

/// Per-tenant admission limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum queued (admitted, not yet served) requests. Admissions
    /// past this depth are shed with `SERVE-OVERLOADED`.
    pub queue_depth: u32,
    /// Maximum concurrently live NFs; launches past this fail with
    /// `SERVE-QUOTA` at execution time.
    pub max_live_nfs: u32,
    /// Token-bucket capacity (burst allowance).
    pub burst: u64,
    /// Simulated picoseconds to mint one token. `0` disables rate
    /// limiting.
    pub refill_ps: u64,
}

impl Default for TenantQuota {
    fn default() -> TenantQuota {
        TenantQuota {
            queue_depth: 4,
            max_live_nfs: 2,
            burst: 6,
            refill_ps: 500_000, // 2 tokens per 1 µs tick
        }
    }
}

/// A deterministic token bucket over simulated time, with integer
/// remainder carry (no fractional tokens are ever lost or invented).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenBucket {
    tokens: u64,
    carry_ps: u64,
    last: Picos,
}

impl TokenBucket {
    /// A bucket born full at `now`.
    pub fn full(quota: &TenantQuota, now: Picos) -> TokenBucket {
        TokenBucket {
            tokens: quota.burst,
            carry_ps: 0,
            last: now,
        }
    }

    fn refill(&mut self, quota: &TenantQuota, now: Picos) {
        if quota.refill_ps == 0 {
            self.last = now;
            return;
        }
        let elapsed = now.0.saturating_sub(self.last.0) + self.carry_ps;
        let minted = elapsed / quota.refill_ps;
        self.tokens = (self.tokens + minted).min(quota.burst);
        // Remainder only carries while the bucket is filling; a full
        // bucket does not bank time.
        self.carry_ps = if self.tokens < quota.burst {
            elapsed % quota.refill_ps
        } else {
            0
        };
        self.last = now;
    }

    /// Take one token if available.
    pub fn try_take(&mut self, quota: &TenantQuota, now: Picos) -> bool {
        self.refill(quota, now);
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (after refilling to `now`).
    pub fn available(&mut self, quota: &TenantQuota, now: Picos) -> u64 {
        self.refill(quota, now);
        self.tokens
    }
}

/// A queued, admitted request awaiting service.
#[derive(Debug, Clone)]
pub struct Pending {
    /// Client correlation id.
    pub id: u64,
    /// The operation to execute.
    pub op: QueuedOp,
    /// Absolute simulated-time deadline; a request popped after this
    /// instant is expired, never executed.
    pub deadline: Option<Picos>,
}

/// The tenant-scoped operations that go through the queue. Management
/// ops (`health`, `snapshot`, `drain`, ...) execute immediately and
/// never appear here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueuedOp {
    /// Launch an NF (named per tenant).
    Launch {
        /// Tenant-scoped NF name.
        name: String,
        /// Explicit core, or auto-assign.
        core: Option<u16>,
        /// Region size in MiB.
        mem_mib: u64,
        /// Optional switch-rule destination port.
        port: Option<u16>,
    },
    /// Tear an NF down (scrub + reclaim).
    Teardown {
        /// Tenant-scoped NF name.
        name: String,
    },
    /// Run the attestation protocol against an NF.
    Attest {
        /// Tenant-scoped NF name.
        name: String,
    },
    /// Read an NF's packet counters.
    Stats {
        /// Tenant-scoped NF name.
        name: String,
    },
    /// Push packets at a destination port through the switch.
    Send {
        /// Packet count.
        count: u32,
        /// Destination port.
        port: u16,
    },
    /// Poll an NF's delivered packets.
    Poll {
        /// Tenant-scoped NF name.
        name: String,
    },
}

/// Per-tenant request accounting, reported by the `health` op. The
/// invariant `submitted == admitted + shed` and
/// `admitted == served + expired + reclaimed + queue.len()` is what
/// the admission property tests pin down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests that reached admission.
    pub submitted: u64,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests rejected at admission (overload, rate, frozen, ...).
    pub shed: u64,
    /// Requests executed (ok or typed failure).
    pub served: u64,
    /// Requests whose deadline passed while queued.
    pub expired: u64,
    /// Queued requests dropped by a `reclaim`.
    pub reclaimed: u64,
    /// Served requests that failed with a typed code.
    pub failed: u64,
}

/// Everything the daemon tracks per tenant.
#[derive(Debug)]
pub struct TenantState {
    /// The tenant's name, shared with every transcript record about it.
    pub name: Arc<str>,
    /// Admission limits.
    pub quota: TenantQuota,
    /// The bounded queue.
    pub queue: VecDeque<Pending>,
    /// Rate limiter.
    pub bucket: TokenBucket,
    /// Freeze reason, when a fault has been attributed to this tenant.
    pub frozen: Option<String>,
    /// Live NFs by tenant-scoped name.
    pub nfs: BTreeMap<String, NfId>,
    /// Request accounting.
    pub stats: TenantStats,
}

impl TenantState {
    /// A fresh tenant called `name` under `quota`, bucket full at `now`.
    pub fn new(name: Arc<str>, quota: TenantQuota, now: Picos) -> TenantState {
        TenantState {
            name,
            quota,
            queue: VecDeque::new(),
            bucket: TokenBucket::full(&quota, now),
            frozen: None,
            nfs: BTreeMap::new(),
            stats: TenantStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_burst_then_rate() {
        let quota = TenantQuota {
            burst: 2,
            refill_ps: 1_000,
            ..TenantQuota::default()
        };
        let mut b = TokenBucket::full(&quota, Picos(0));
        assert!(b.try_take(&quota, Picos(0)));
        assert!(b.try_take(&quota, Picos(0)));
        assert!(!b.try_take(&quota, Picos(0)), "burst spent");
        assert!(!b.try_take(&quota, Picos(999)), "not yet minted");
        assert!(b.try_take(&quota, Picos(1_000)), "one token minted");
        assert!(!b.try_take(&quota, Picos(1_500)));
        assert!(b.try_take(&quota, Picos(2_000)), "carry accumulates");
    }

    #[test]
    fn bucket_remainder_carries_exactly() {
        let quota = TenantQuota {
            burst: 10,
            refill_ps: 1_000,
            ..TenantQuota::default()
        };
        let mut b = TokenBucket::full(&quota, Picos(0));
        for _ in 0..10 {
            assert!(b.try_take(&quota, Picos(0)));
        }
        // 3 × 700 ps = 2100 ps = 2 tokens + 100 ps carry.
        assert_eq!(b.available(&quota, Picos(700)), 0);
        assert_eq!(b.available(&quota, Picos(1_400)), 1);
        assert_eq!(b.available(&quota, Picos(2_100)), 2);
    }

    #[test]
    fn full_bucket_does_not_bank_time() {
        let quota = TenantQuota {
            burst: 1,
            refill_ps: 1_000,
            ..TenantQuota::default()
        };
        let mut b = TokenBucket::full(&quota, Picos(0));
        // Idle for a long time at capacity...
        assert_eq!(b.available(&quota, Picos(1_000_000)), 1);
        assert!(b.try_take(&quota, Picos(1_000_000)));
        // ...must not have banked a second token.
        assert!(!b.try_take(&quota, Picos(1_000_000)));
        assert!(b.try_take(&quota, Picos(1_001_000)));
    }

    #[test]
    fn zero_refill_disables_rate_limiting_refill() {
        let quota = TenantQuota {
            burst: 1,
            refill_ps: 0,
            ..TenantQuota::default()
        };
        let mut b = TokenBucket::full(&quota, Picos(0));
        assert!(b.try_take(&quota, Picos(0)));
        // Never refills: the burst is the lifetime allowance.
        assert!(!b.try_take(&quota, Picos(u64::MAX / 2)));
    }
}
