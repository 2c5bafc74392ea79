//! The memory plane (§4.2): DRAM behind its guard, page ownership, the
//! commodity shared-pool allocator, host RAM, and the region pool that
//! function regions are carved from.

use snic_mem::guard::{MemoryGuard, Principal};
use snic_mem::ownership::PageOwnership;
use snic_mem::phys::PhysMem;
use snic_types::{ByteSize, NfId, SnicError, TransientResource};

use super::{ensure, Invariant, ScrubTicket, REGION_BASE};
use crate::alloc::BufferAllocator;
use crate::config::{NicConfig, NicMode};

/// Every byte of DRAM a function can hold, and who holds it.
///
/// The region pool `[REGION_BASE, dram)` is partitioned at all times
/// into four kinds of range: free-listed, above the bump pointer, owned
/// by a live function, and awaiting a teardown scrub.
pub(crate) struct MemoryPlane {
    guard: MemoryGuard,
    ownership: PageOwnership,
    allocator: BufferAllocator,
    /// Host RAM model, target of the multi-bank DMA controller.
    host_mem: PhysMem,
    /// Bump pointer: all of `[next_region, dram)` is free.
    next_region: u64,
    /// Freed space below the bump pointer: sorted, coalesced
    /// `(base, len)` pairs.
    free_regions: Vec<(u64, u64)>,
    /// Interrupted teardown scrubs awaiting resumption (sorted by base).
    pending_scrubs: Vec<ScrubTicket>,
}

impl MemoryPlane {
    pub(crate) fn new(config: &NicConfig) -> MemoryPlane {
        MemoryPlane {
            guard: MemoryGuard::new(config.dram, config.mode == NicMode::Snic),
            ownership: PageOwnership::new(),
            allocator: BufferAllocator::new(ByteSize::mib(64).min(config.dram)),
            host_mem: PhysMem::new(ByteSize::gib(1)),
            next_region: REGION_BASE,
            free_regions: Vec::new(),
            pending_scrubs: Vec::new(),
        }
    }

    pub(crate) fn guard(&self) -> &MemoryGuard {
        &self.guard
    }

    pub(crate) fn guard_mut(&mut self) -> &mut MemoryGuard {
        &mut self.guard
    }

    pub(crate) fn host_mem(&mut self) -> &mut PhysMem {
        &mut self.host_mem
    }

    pub(crate) fn ownership(&self) -> &PageOwnership {
        &self.ownership
    }

    pub(crate) fn next_region(&self) -> u64 {
        self.next_region
    }

    pub(crate) fn free_regions(&self) -> &[(u64, u64)] {
        &self.free_regions
    }

    pub(crate) fn pending_scrubs(&self) -> &[ScrubTicket] {
        &self.pending_scrubs
    }

    /// Where a `len`-byte region would go: the caller's placement hint
    /// if given, else first fit from the free list, else the bump
    /// pointer. Refused while any of it awaits a scrub (§4.6: no hint
    /// reuses dirty memory) or runs past DRAM. Nothing moves until
    /// [`MemoryPlane::assign`].
    pub(crate) fn pick_region(&self, hint: Option<u64>, len: u64) -> Result<u64, SnicError> {
        let dram = self.guard.size().bytes();
        let fit = self.free_regions.iter().find(|&&(_, l)| l >= len);
        let bump = self.next_region.div_ceil(4096) * 4096;
        let base = hint.or(fit.map(|&(b, _)| b)).unwrap_or(bump);
        if hint.is_none() && fit.is_none() && bump + len > dram {
            // DRAM held hostage by interrupted scrubs is coming back;
            // report that as retryable.
            if self.pending_scrubs.is_empty() {
                return Err(SnicError::InvalidConfig("DRAM exhausted".into()));
            }
            return Err(SnicError::Transient(TransientResource::Dram));
        }
        if let Some(t) = self
            .pending_scrubs
            .iter()
            .find(|t| base < t.base + t.len && t.base < base.saturating_add(len))
        {
            return Err(SnicError::ScrubPending { base: t.base });
        }
        if base.saturating_add(len) > dram {
            return Err(SnicError::InvalidConfig("DRAM exhausted".into()));
        }
        Ok(base)
    }

    /// Hand `[base, base + len)` to `nf`: take it out of free space,
    /// claim its pages, and denylist it against the management core
    /// under S-NIC. The caller has checked the range with
    /// [`MemoryPlane::pick_region`] and Pass 1.
    pub(crate) fn assign(&mut self, nf: NfId, base: u64, len: u64) -> Result<(), SnicError> {
        self.take(base, len);
        self.ownership.claim(base, len, nf)?;
        if self.guard.enforcing() {
            self.guard.denylist_mut().deny(base, len, nf)?;
        }
        Ok(())
    }

    /// Take `[base, base + len)` out of free space, wherever a placement
    /// hint put it: free-list entries it covers are split, and if it
    /// reaches past the bump pointer the pointer moves to its end, the
    /// gap it skips going on the free list.
    fn take(&mut self, base: u64, len: u64) {
        let end = base + len;
        let mut rest = Vec::with_capacity(self.free_regions.len() + 1);
        for &(b, l) in &self.free_regions {
            if b < base {
                rest.push((b, l.min(base - b)));
            }
            if b + l > end {
                rest.push((b.max(end), b + l - b.max(end)));
            }
        }
        self.free_regions = rest;
        if end > self.next_region {
            let skipped = (self.next_region, base.saturating_sub(self.next_region));
            self.next_region = end;
            if skipped.1 > 0 {
                self.free_region(skipped.0, skipped.1);
            }
        }
    }

    /// A scrubbed region comes back: its owner's denylist entries are
    /// lifted and the range joins the free list.
    pub(crate) fn reclaim(&mut self, nf: NfId, base: u64, len: u64) {
        self.guard.denylist_mut().allow_owner(nf);
        self.free_region(base, len);
    }

    /// Return a range to the free list, coalescing with neighbours.
    fn free_region(&mut self, base: u64, len: u64) {
        self.free_regions.push((base, len));
        self.free_regions.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.free_regions.len());
        for &(b, l) in &self.free_regions {
            match merged.last_mut() {
                Some(&mut (pb, ref mut pl)) if pb + *pl == b => *pl += l,
                _ => merged.push((b, l)),
            }
        }
        self.free_regions = merged;
    }

    /// Park a region that is not zeroized yet: it stays denylisted and
    /// off the free list until [`MemoryPlane::pop_scrub`] hands it back.
    pub(crate) fn queue_scrub(&mut self, ticket: ScrubTicket) {
        let at = self
            .pending_scrubs
            .partition_point(|t| t.base < ticket.base);
        self.pending_scrubs.insert(at, ticket);
    }

    /// The lowest pending scrub, taken off the queue.
    pub(crate) fn pop_scrub(&mut self) -> Option<ScrubTicket> {
        (!self.pending_scrubs.is_empty()).then(|| self.pending_scrubs.remove(0))
    }

    /// Release `nf`'s pages and return its shared-pool buffers to the
    /// commodity allocator (a base the allocator does not hold, such as
    /// an S-NIC ring slot, is skipped).
    pub(crate) fn release(&mut self, nf: NfId, bufs: Vec<u64>) -> Result<(), SnicError> {
        self.ownership.release_owner(nf);
        bufs.into_iter()
            .try_for_each(|base| self.allocator.free(&mut self.guard, base))
    }

    /// A shared-pool buffer for `nf`, with its discoverable metadata
    /// slot (the commodity allocator, §3.3's attack surface).
    pub(crate) fn alloc(&mut self, nf: NfId, len: u64, packet: bool) -> Result<u64, SnicError> {
        let (_, base) = self.allocator.alloc(&mut self.guard, nf, len, packet)?;
        Ok(base)
    }

    /// Free the shared-pool buffer at `base`, if there is one.
    pub(crate) fn free(&mut self, base: u64) -> Result<(), SnicError> {
        self.allocator.free(&mut self.guard, base)
    }

    /// Every owned region plus every live shared-pool buffer, as
    /// `(base, len, owner)`.
    pub(crate) fn security_domains(&self) -> Vec<(u64, u64, NfId)> {
        let mut out = self.ownership.owned_ranges();
        let slots = (0..self.allocator.slots()).map_while(|slot| {
            BufferAllocator::read_slot(&self.guard, Principal::TrustedHardware, slot).ok()
        });
        out.extend(
            slots
                .filter(|m| m.in_use() && m.len > 0)
                .map(|m| (m.base, m.len, m.owner)),
        );
        out
    }

    /// §4.2/§4.6: the region pool is partitioned (free list, bump space,
    /// owned, pending scrub); the free list is sorted and coalesced;
    /// tickets are sorted and inside their region; under S-NIC every
    /// owned or pending region is denylisted to its holder, and nothing
    /// else is.
    pub(crate) fn check(&self) -> Result<(), Invariant> {
        let owned = self.ownership.owned_ranges();
        let free = &self.free_regions;
        ensure(
            free.windows(2).all(|w| w[0].0 + w[0].1 < w[1].0),
            "§4.6",
            || format!("free list not sorted and coalesced: {free:x?}"),
        )?;
        let tickets = &self.pending_scrubs;
        ensure(
            tickets.windows(2).all(|w| w[0].base < w[1].base)
                && tickets.iter().all(|t| t.watermark <= t.len),
            "§4.6",
            || format!("scrub tickets out of order or past their region: {tickets:x?}"),
        )?;
        let mut ranges: Vec<(u64, u64, &str)> = free.iter().map(|&(b, l)| (b, l, "free")).collect();
        ranges.extend(owned.iter().map(|&(b, l, _)| (b, l, "owned")));
        ranges.extend(tickets.iter().map(|t| (t.base, t.len, "pending")));
        ranges.sort_unstable();
        let mut cursor = REGION_BASE;
        for &(b, l, kind) in &ranges {
            ensure(b == cursor && l > 0, "§4.2", || {
                format!("{kind} range {b:#x}+{l:#x} where the pool expects {cursor:#x}")
            })?;
            cursor += l;
        }
        let (next, dram) = (self.next_region, self.guard.size().bytes());
        ensure(cursor == next && next <= dram, "§4.2", || {
            format!("pool ranges end at {cursor:#x}, bump pointer {next:#x}, DRAM {dram:#x}")
        })?;
        let mut denied: Vec<(u64, u64, NfId)> = Vec::new();
        if self.guard.enforcing() {
            denied.extend(&owned);
            denied.extend(tickets.iter().map(|t| (t.base, t.len, t.nf)));
            denied.sort_unstable();
        }
        let intervals = self.guard.denylist().intervals();
        ensure(intervals == denied, "§4.2", || {
            format!("denylist {intervals:x?} is not the held regions {denied:x?}")
        })
    }
}
