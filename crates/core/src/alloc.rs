//! The commodity NIC's shared buffer allocator.
//!
//! §3.3: "The malicious function leveraged xkphys to scan the metadata
//! structures belonging to the buffer allocator used by all functions.
//! The metadata allowed the malicious function to discover the buffers
//! allocated to MazuNAT's packets."
//!
//! On a commodity NIC the allocator's metadata lives in ordinary DRAM at
//! a well-known base, and every function can read it. Each metadata slot
//! is written *into simulated memory*, so an attacker finds victim
//! buffers the same way the paper's attack did: by walking bytes.
//!
//! Metadata slot layout (32 bytes, little-endian):
//! `owner_nf: u64 | base: u64 | len: u64 | flags: u64` — flags bit 0 =
//! in-use, bit 1 = packet buffer (vs. function image).

use std::collections::{BTreeMap, BTreeSet};

use snic_mem::guard::{MemoryGuard, Principal};
use snic_types::{ByteSize, NfId, SnicError};

/// Base physical address of the allocator metadata table.
pub const META_BASE: u64 = 0x0010_0000;
/// Bytes per metadata slot.
pub const META_SLOT: u64 = 32;
/// Maximum slots.
pub const META_SLOTS: u64 = 4096;
/// Base physical address of the buffer pool.
pub const POOL_BASE: u64 = 0x0200_0000;

/// Flag bit: slot in use.
pub const FLAG_IN_USE: u64 = 1;
/// Flag bit: slot holds a packet buffer.
pub const FLAG_PACKET: u64 = 2;

/// One decoded metadata slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferMeta {
    /// Owning NF.
    pub owner: NfId,
    /// Buffer base physical address.
    pub base: u64,
    /// Buffer length.
    pub len: u64,
    /// Flag bits.
    pub flags: u64,
}

impl BufferMeta {
    /// True if the slot is live.
    pub fn in_use(&self) -> bool {
        self.flags & FLAG_IN_USE != 0
    }

    /// True if the slot holds packet data.
    pub fn is_packet(&self) -> bool {
        self.flags & FLAG_PACKET != 0
    }
}

/// The shared buffer allocator: first-fit over freed space, then a bump
/// pointer; freed metadata slots are reused lowest first.
///
/// The allocator's own bookkeeping lives here, not in the DRAM slots it
/// publishes: a function that rewrites the table (it can, on a
/// commodity NIC) misleads other readers but not the allocator.
#[derive(Debug)]
pub struct BufferAllocator {
    next_free: u64,
    pool_end: u64,
    /// Freed pool space, sorted and coalesced `(base, len)`; none of it
    /// reaches `next_free`.
    holes: Vec<(u64, u64)>,
    /// Slots written so far.
    slots: u64,
    /// Slots below `slots` that are free again.
    free_slots: BTreeSet<u64>,
    /// Live buffers by base: `(slot, aligned len)`.
    live: BTreeMap<u64, (u64, u64)>,
}

impl BufferAllocator {
    /// Create an allocator over `pool` bytes starting at [`POOL_BASE`].
    pub fn new(pool: ByteSize) -> BufferAllocator {
        BufferAllocator {
            next_free: POOL_BASE,
            pool_end: POOL_BASE + pool.bytes(),
            holes: Vec::new(),
            slots: 0,
            free_slots: BTreeSet::new(),
            live: BTreeMap::new(),
        }
    }

    /// Allocate `len` bytes for `owner`, writing the metadata slot into
    /// `guard`'s memory (as trusted hardware — the allocator itself runs
    /// in the NIC firmware). Returns `(slot_index, base_addr)`.
    pub fn alloc(
        &mut self,
        guard: &mut MemoryGuard,
        owner: NfId,
        len: u64,
        packet: bool,
    ) -> Result<(u64, u64), SnicError> {
        // Every buffer takes at least one 64-byte granule, so no two live
        // buffers share a base.
        let aligned = len.max(1).div_ceil(64) * 64;
        let hole = self.holes.iter().position(|&(_, l)| l >= aligned);
        if (hole.is_none() && self.next_free + aligned > self.pool_end)
            || (self.free_slots.is_empty() && self.slots >= META_SLOTS)
        {
            return Err(SnicError::InvalidConfig("buffer pool exhausted".into()));
        }
        let slot_addr =
            META_BASE + META_SLOT * self.free_slots.first().copied().unwrap_or(self.slots);
        let flags = FLAG_IN_USE | if packet { FLAG_PACKET } else { 0 };
        let base = hole.map_or(self.next_free, |i| self.holes[i].0);
        // Written before any bookkeeping moves, so a failed write leaves
        // the allocator as it was.
        let hw = Principal::TrustedHardware;
        guard.write_phys_u64(hw, slot_addr, owner.0)?;
        guard.write_phys_u64(hw, slot_addr + 8, base)?;
        guard.write_phys_u64(hw, slot_addr + 16, len)?;
        guard.write_phys_u64(hw, slot_addr + 24, flags)?;
        let slot = self.free_slots.pop_first().unwrap_or_else(|| {
            self.slots += 1;
            self.slots - 1
        });
        match hole {
            Some(i) if self.holes[i].1 == aligned => {
                self.holes.remove(i);
            }
            Some(i) => self.holes[i] = (base + aligned, self.holes[i].1 - aligned),
            None => self.next_free += aligned,
        }
        self.live.insert(base, (slot, aligned));
        Ok((slot, base))
    }

    /// Free the live buffer at `base` (a no-op for any other address):
    /// its slot and space become reusable. Only the slot's in-use flag
    /// is cleared — the rest of the metadata and the buffer's bytes stay
    /// readable, because commodity NICs do not scrub.
    pub fn free(&mut self, guard: &mut MemoryGuard, base: u64) -> Result<(), SnicError> {
        let Some(&(slot, aligned)) = self.live.get(&base) else {
            return Ok(());
        };
        let flags_addr = META_BASE + slot * META_SLOT + 24;
        let hw = Principal::TrustedHardware;
        let flags = guard.read_phys_u64(hw, flags_addr)?;
        guard.write_phys_u64(hw, flags_addr, flags & !FLAG_IN_USE)?;
        self.live.remove(&base);
        self.free_slots.insert(slot);
        let at = self.holes.partition_point(|&(b, _)| b < base);
        self.holes.insert(at, (base, aligned));
        // Coalesce with the following hole, then the preceding one.
        if at + 1 < self.holes.len() && base + aligned == self.holes[at + 1].0 {
            self.holes[at].1 += self.holes.remove(at + 1).1;
        }
        if at > 0 && self.holes[at - 1].0 + self.holes[at - 1].1 == base {
            self.holes[at - 1].1 += self.holes.remove(at).1;
        }
        // Space that reaches the bump pointer goes back to it.
        if let Some(&(b, l)) = self.holes.last() {
            if b + l == self.next_free {
                self.next_free = b;
                self.holes.pop();
            }
        }
        Ok(())
    }

    /// Decode slot `index` *as an arbitrary principal* — this is the
    /// attack path: on a commodity NIC any NF may call this with its own
    /// principal and succeed.
    pub fn read_slot(
        guard: &MemoryGuard,
        who: Principal,
        index: u64,
    ) -> Result<BufferMeta, SnicError> {
        let slot_addr = META_BASE + index * META_SLOT;
        Ok(BufferMeta {
            owner: NfId(guard.read_phys_u64(who, slot_addr)?),
            base: guard.read_phys_u64(who, slot_addr + 8)?,
            len: guard.read_phys_u64(who, slot_addr + 16)?,
            flags: guard.read_phys_u64(who, slot_addr + 24)?,
        })
    }

    /// Slots written so far.
    pub fn slots(&self) -> u64 {
        self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snic_types::CoreId;

    fn guard() -> MemoryGuard {
        MemoryGuard::new(ByteSize::mib(128), false)
    }

    #[test]
    fn alloc_writes_discoverable_metadata() {
        let mut g = guard();
        let mut a = BufferAllocator::new(ByteSize::mib(64));
        let (slot, base) = a.alloc(&mut g, NfId(7), 1500, true).unwrap();
        // Another NF reads the slot through flat physical addressing.
        let attacker = Principal::Nf(NfId(9), CoreId(1));
        let meta = BufferAllocator::read_slot(&g, attacker, slot).unwrap();
        assert_eq!(meta.owner, NfId(7));
        assert_eq!(meta.base, base);
        assert_eq!(meta.len, 1500);
        assert!(meta.in_use());
        assert!(meta.is_packet());
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut g = guard();
        let mut a = BufferAllocator::new(ByteSize::mib(64));
        let (_, b1) = a.alloc(&mut g, NfId(1), 100, false).unwrap();
        let (_, b2) = a.alloc(&mut g, NfId(2), 100, false).unwrap();
        assert!(b2 >= b1 + 100);
        assert_eq!(a.slots(), 2);
    }

    #[test]
    fn pool_exhaustion_fails() {
        let mut g = guard();
        let mut a = BufferAllocator::new(ByteSize::kib(1));
        assert!(a.alloc(&mut g, NfId(1), 2048, false).is_err());
    }

    #[test]
    fn freed_slots_and_space_are_reused() {
        let mut g = guard();
        let mut a = BufferAllocator::new(ByteSize::kib(1));
        let (s0, b0) = a.alloc(&mut g, NfId(1), 100, true).unwrap();
        let (s1, b1) = a.alloc(&mut g, NfId(1), 0, true).unwrap();
        let (_, b2) = a.alloc(&mut g, NfId(1), 64, true).unwrap();
        assert_eq!(
            (b1, b2),
            (b0 + 128, b0 + 192),
            "empty buffers take a granule"
        );
        a.free(&mut g, b0).unwrap();
        a.free(&mut g, b1).unwrap();
        // A second free of the same base is a no-op.
        a.free(&mut g, b1).unwrap();
        // First fit into the coalesced hole, lowest slot first.
        assert_eq!(a.alloc(&mut g, NfId(2), 150, false).unwrap(), (s0, b0));
        assert_eq!(
            a.alloc(&mut g, NfId(2), 10, false).unwrap(),
            (s1, b0 + 192 + 64)
        );
        assert_eq!(a.slots(), 3);
        // A pool cycled through many times over never runs dry.
        for _ in 0..2 * META_SLOTS {
            let (_, b) = a.alloc(&mut g, NfId(3), 512, true).unwrap();
            a.free(&mut g, b).unwrap();
        }
        assert!(a.alloc(&mut g, NfId(3), 1024, true).is_err());
    }

    #[test]
    fn free_clears_in_use_but_not_contents() {
        let mut g = guard();
        let mut a = BufferAllocator::new(ByteSize::mib(1));
        let (slot, base) = a.alloc(&mut g, NfId(1), 64, true).unwrap();
        g.write_phys(Principal::TrustedHardware, base, b"stale secret")
            .unwrap();
        a.free(&mut g, base).unwrap();
        let meta = BufferAllocator::read_slot(&g, Principal::Nf(NfId(2), CoreId(0)), slot).unwrap();
        assert!(!meta.in_use());
        // The data is still there — commodity NICs do not scrub (§4.6
        // motivates nf_teardown's zeroization).
        let mut buf = [0u8; 12];
        g.read_phys(Principal::Nf(NfId(2), CoreId(0)), base, &mut buf)
            .unwrap();
        assert_eq!(&buf, b"stale secret");
    }
}
