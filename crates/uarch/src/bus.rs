//! The internal IO bus and its arbiters (§4.5 of the paper).
//!
//! Cache misses travel to DRAM over the NIC's internal bus. On commodity
//! NICs there is "no trusted hardware-level arbiter to guarantee fair
//! access" — requests are served first-come-first-served, so one tenant's
//! traffic delays another's (the Agilio bus-DoS attack exploits exactly
//! this). S-NIC inserts a temporal-partitioning arbiter: time is divided
//! into epochs, each owned by one security domain; a domain may only
//! *issue* during the early part of its own epoch so that in-flight
//! operations finish before the epoch ends.

/// Epoch length, in bus cycles, of the S-NIC temporal arbiter (§4.5): the
/// one value the device model, the uarch machine and the attack harnesses
/// all run with.
pub const EPOCH_CYCLES: u64 = 96;

/// Which arbiter a simulation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusKind {
    /// First-come-first-served (commodity baseline).
    Fcfs,
    /// Temporal partitioning across `domains` (S-NIC).
    Temporal {
        /// Number of security domains sharing the bus.
        domains: u32,
    },
}

/// First-come-first-served arbiter: a single busy-until register.
///
/// Contention couples tenants: the grant time depends on every prior
/// request from every domain, which is both unfair and a timing side
/// channel.
#[derive(Debug, Default)]
pub struct FcfsArbiter {
    busy_until: u64,
}

impl FcfsArbiter {
    /// A fresh, idle bus.
    pub fn new() -> FcfsArbiter {
        FcfsArbiter::default()
    }

    /// See [`BusArbiter::grant`]; `domain` does not matter to FCFS.
    pub fn grant(&mut self, _domain: u32, ready: u64, duration: u64) -> u64 {
        let start = ready.max(self.busy_until);
        self.busy_until = start + duration;
        start
    }
}

/// A bus arbiter: a closed enum over the two bus disciplines, so the
/// engine's per-L2-miss grant is a direct (inlinable) call. The engine,
/// the attack harnesses and Pass 2's solo replays all drive this type.
#[derive(Debug)]
pub enum BusArbiter {
    /// First-come-first-served (commodity baseline).
    Fcfs(FcfsArbiter),
    /// Temporal partitioning (S-NIC).
    Temporal(TemporalArbiter),
}

impl BusArbiter {
    /// Build the arbiter a [`BusKind`] describes.
    pub fn for_kind(kind: BusKind, epoch_cycles: u64) -> BusArbiter {
        match kind {
            BusKind::Fcfs => BusArbiter::Fcfs(FcfsArbiter::new()),
            BusKind::Temporal { domains } => {
                BusArbiter::Temporal(TemporalArbiter::new(domains, epoch_cycles))
            }
        }
    }

    /// Given a request from `domain` that becomes ready at cycle `ready`
    /// and occupies the bus for `duration` cycles, return the cycle at
    /// which the transfer *starts*.
    #[inline]
    pub fn grant(&mut self, domain: u32, ready: u64, duration: u64) -> u64 {
        match self {
            BusArbiter::Fcfs(a) => a.grant(domain, ready, duration),
            BusArbiter::Temporal(a) => a.grant(domain, ready, duration),
        }
    }
}

/// Temporal-partitioning arbiter.
///
/// Time is sliced into epochs of `epoch` cycles; epoch `k` belongs to
/// domain `k % domains`. A request from domain `d` may start only inside
/// one of `d`'s epochs, and only early enough that it finishes before the
/// epoch ends (the "dead time" rule). Crucially, the grant time is a pure
/// function of `(domain, ready, duration)` and the static schedule — it
/// does not depend on other domains' traffic, which is what eliminates
/// the timing channel.
#[derive(Debug)]
pub struct TemporalArbiter {
    epoch: u64,
    domains: u64,
    /// Per-domain busy-until registers (a domain can still queue behind
    /// *its own* earlier requests).
    own_busy_until: Vec<u64>,
    /// Start of the most recent epoch each domain was granted in
    /// (initially the domain's first owned epoch). Purely a memo for
    /// [`TemporalArbiter::grant`]'s fast path: grants that land inside the
    /// remembered window skip [`TemporalArbiter::next_window`]'s
    /// divisions entirely. Invariant: `win_start[d]` is always a
    /// multiple of `epoch` whose epoch index is owned by `d`.
    win_start: Vec<u64>,
}

impl TemporalArbiter {
    /// Create an arbiter with `domains` domains and `epoch`-cycle epochs.
    ///
    /// # Panics
    ///
    /// Panics if `domains == 0` or `epoch == 0`.
    pub fn new(domains: u32, epoch: u64) -> TemporalArbiter {
        assert!(domains > 0 && epoch > 0, "degenerate temporal arbiter");
        TemporalArbiter {
            epoch,
            domains: u64::from(domains),
            own_busy_until: vec![0; domains as usize],
            // Epoch `d` is owned by domain `d % domains = d`.
            win_start: (0..u64::from(domains)).map(|d| d * epoch).collect(),
        }
    }

    /// Earliest start ≥ `t` inside one of `domain`'s issue windows that
    /// leaves room for `duration` cycles before the epoch boundary.
    fn next_window(&self, domain: u64, t: u64, duration: u64) -> u64 {
        // Requests longer than an epoch can never be granted; callers
        // split long transfers into line-sized beats.
        assert!(duration <= self.epoch, "transfer longer than an epoch");
        let mut candidate = t;
        loop {
            let epoch_idx = candidate / self.epoch;
            let owner = epoch_idx % self.domains;
            let epoch_end = (epoch_idx + 1) * self.epoch;
            if owner == domain && candidate + duration <= epoch_end {
                return candidate;
            }
            // Jump to the start of the next epoch owned by `domain`.
            let next_owned = if owner < domain {
                epoch_idx + (domain - owner)
            } else if owner == domain {
                // Same epoch but too late to finish: next round.
                epoch_idx + self.domains
            } else {
                epoch_idx + (self.domains - owner + domain)
            };
            candidate = next_owned * self.epoch;
        }
    }

    /// See [`BusArbiter::grant`].
    ///
    /// # Panics
    ///
    /// Panics if `domain` is outside the configured schedule. Wrapping
    /// it (the old `domain % domains` behaviour) would silently hand
    /// two NFs the *same* epoch slot, coupling their grant times and
    /// masking exactly the interference this arbiter exists to prevent.
    pub fn grant(&mut self, domain: u32, ready: u64, duration: u64) -> u64 {
        let d = u64::from(domain);
        assert!(
            d < self.domains,
            "domain {domain} out of range for a {}-domain temporal schedule: \
             wrapping would share one epoch slot between two NFs",
            self.domains
        );
        let earliest = ready.max(self.own_busy_until[d as usize]);
        // Fast path: the request falls inside the same owned epoch as
        // the previous grant (or the domain's first epoch) and finishes
        // before its boundary, so `next_window` would return `earliest`
        // unchanged — no division needed. Oversized transfers can never
        // satisfy the fit check, so they still reach the slow path's
        // duration assert.
        let ws = self.win_start[d as usize];
        let start = if earliest >= ws
            && earliest < ws + self.epoch
            && earliest + duration <= ws + self.epoch
        {
            earliest
        } else {
            let start = self.next_window(d, earliest, duration);
            self.win_start[d as usize] = start - start % self.epoch;
            start
        };
        self.own_busy_until[d as usize] = start + duration;
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_serializes_requests() {
        let mut a = FcfsArbiter::new();
        assert_eq!(a.grant(0, 0, 10), 0);
        assert_eq!(
            a.grant(1, 0, 10),
            10,
            "second request waits behind the first"
        );
        assert_eq!(a.grant(0, 100, 10), 100, "idle bus grants immediately");
    }

    #[test]
    fn fcfs_leaks_cross_domain_timing() {
        // The victim's grant time depends on the attacker's traffic.
        let mut quiet = FcfsArbiter::new();
        let victim_alone = quiet.grant(0, 5, 10);

        let mut noisy = FcfsArbiter::new();
        let _ = noisy.grant(1, 0, 50); // Attacker floods first.
        let victim_contended = noisy.grant(0, 5, 10);
        assert_ne!(victim_alone, victim_contended);
    }

    #[test]
    fn temporal_grants_only_in_own_epoch() {
        let mut a = TemporalArbiter::new(4, 100);
        // Domain 0 owns [0,100); granted immediately.
        assert_eq!(a.grant(0, 0, 10), 0);
        // Domain 1 owns [100,200); a request ready at 0 waits.
        assert_eq!(a.grant(1, 0, 10), 100);
        // Domain 3 owns [300,400).
        assert_eq!(a.grant(3, 0, 10), 300);
    }

    #[test]
    fn temporal_dead_time_pushes_late_requests() {
        let mut a = TemporalArbiter::new(2, 100);
        // Domain 0 owns [0,100) and [200,300). A 20-cycle transfer ready
        // at cycle 90 cannot finish by 100, so it starts at 200.
        assert_eq!(a.grant(0, 90, 20), 200);
        // But a 10-cycle transfer ready at 90 fits exactly.
        let mut b = TemporalArbiter::new(2, 100);
        assert_eq!(b.grant(0, 90, 10), 90);
    }

    #[test]
    fn temporal_is_independent_of_other_domains() {
        // The S-NIC non-interference property: victim grants are identical
        // whether or not the attacker issues traffic.
        let victim_requests = [(0u64, 8u64), (30, 8), (95, 16), (480, 8)];

        let mut quiet = TemporalArbiter::new(4, 100);
        let quiet_grants: Vec<u64> = victim_requests
            .iter()
            .map(|&(r, d)| quiet.grant(0, r, d))
            .collect();

        let mut noisy = TemporalArbiter::new(4, 100);
        for i in 0..50 {
            let _ = noisy.grant(1, i, 90);
            let _ = noisy.grant(2, i * 3, 50);
        }
        let noisy_grants: Vec<u64> = victim_requests
            .iter()
            .map(|&(r, d)| noisy.grant(0, r, d))
            .collect();

        assert_eq!(quiet_grants, noisy_grants);
    }

    #[test]
    fn temporal_own_queueing_still_applies() {
        let mut a = TemporalArbiter::new(2, 100);
        assert_eq!(a.grant(0, 0, 40), 0);
        // Same domain's next request queues behind its first.
        assert_eq!(a.grant(0, 0, 40), 40);
        // Third one no longer fits epoch [0,100): 80+40 > 100 → wait 200.
        assert_eq!(a.grant(0, 0, 40), 200);
    }

    #[test]
    #[should_panic(expected = "longer than an epoch")]
    fn oversized_transfer_panics() {
        let mut a = TemporalArbiter::new(2, 100);
        let _ = a.grant(0, 0, 101);
    }

    #[test]
    #[should_panic(expected = "out of range for a 2-domain temporal schedule")]
    fn out_of_range_domain_rejected() {
        // Before the fix this wrapped to domain 0 and silently shared
        // its epoch slot (and its busy-until register) with domain 2.
        let mut a = TemporalArbiter::new(2, 100);
        let _ = a.grant(2, 0, 10);
    }

    #[test]
    fn last_domain_still_granted() {
        let mut a = TemporalArbiter::new(4, 100);
        // Domain 3 owns [300,400): the bound check is strict, not
        // off-by-one.
        assert_eq!(a.grant(3, 0, 10), 300);
    }

    #[test]
    fn temporal_schedule_wraps_correctly() {
        let mut a = TemporalArbiter::new(3, 10);
        // Domain 2 owns [20,30), [50,60), ...
        assert_eq!(a.grant(2, 31, 5), 50);
        assert_eq!(a.grant(2, 31, 5), 55);
        assert_eq!(a.grant(2, 31, 5), 80);
    }

    // Epoch-seam audit (ISSUE 9 satellite): the boundary cycle between
    // two epochs must not leak one domain's activity into the next
    // owner's grant times. The four tests below pin the seam accounting.

    #[test]
    fn seam_transfer_may_end_exactly_on_the_boundary() {
        // A transfer that finishes exactly at the epoch boundary is legal
        // ("finish before the epoch ends" is inclusive of the end cycle:
        // the bus is busy over [84, 100) and free at 100).
        let mut a = TemporalArbiter::new(2, 100);
        assert_eq!(a.grant(0, 84, 16), 84);
        // The next owner starts its own epoch on time, boundary cycle
        // included, regardless of that last-cycle transfer.
        assert_eq!(a.grant(1, 0, 16), 100);
    }

    #[test]
    fn seam_request_ready_on_the_boundary_waits_a_full_round() {
        // Ready exactly at its epoch's end cycle: the epoch is over, and
        // the next one belongs to the other domain — off-by-one here
        // would grant inside the co-tenant's slot.
        let mut a = TemporalArbiter::new(2, 100);
        assert_eq!(a.grant(0, 100, 16), 200);
    }

    #[test]
    fn seam_own_backlog_at_epoch_end_spills_to_next_owned_epoch() {
        // A domain whose own busy-until lands exactly on its epoch's end
        // must queue its next transfer in its *next owned* epoch, not at
        // the boundary cycle (which opens the co-tenant's epoch).
        let mut a = TemporalArbiter::new(2, 100);
        assert_eq!(a.grant(0, 84, 16), 84); // busy-until == 100
        assert_eq!(a.grant(0, 84, 16), 200);
    }

    #[test]
    fn seam_is_pure_across_the_boundary() {
        // Non-interference at the seam specifically: domain 1's grants
        // around an epoch boundary are identical whether or not domain 0
        // saturated the final cycles of the preceding epoch.
        let requests = [(99u64, 16u64), (100, 16), (101, 16), (199, 16)];

        let mut quiet = TemporalArbiter::new(2, 100);
        let quiet_grants: Vec<u64> = requests
            .iter()
            .map(|&(r, d)| quiet.grant(1, r, d))
            .collect();

        let mut noisy = TemporalArbiter::new(2, 100);
        for ready in [0u64, 52, 68, 84] {
            let _ = noisy.grant(0, ready, 16); // Fills [0,100) to the brim.
        }
        let noisy_grants: Vec<u64> = requests
            .iter()
            .map(|&(r, d)| noisy.grant(1, r, d))
            .collect();

        assert_eq!(quiet_grants, noisy_grants);
    }
}
