//! The network-function abstraction and access recording.

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

use snic_types::mix::FxHasher;
use snic_types::Packet;
pub use snic_uarch::stream::{Access, AccessKind};

use crate::profile::MemoryProfile;

/// The NFs' host-side flow tables: a fixed-key [`FxHasher`], so a run
/// never depends on a per-process random key. No NF iterates one
/// outside its tests, so the hasher decides how fast a probe is, never
/// which access, count or digest comes out.
pub(crate) type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A membership set under the same fixed-key hasher as [`DetHashMap`].
pub(crate) type DetHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// The six NF kinds of §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NfKind {
    /// Stateful firewall.
    Firewall,
    /// Deep packet inspection.
    Dpi,
    /// Network address translation.
    Nat,
    /// Maglev load balancer.
    LoadBalancer,
    /// Longest-prefix-match router.
    Lpm,
    /// Flow monitor.
    Monitor,
}

impl NfKind {
    /// All kinds in the paper's table order.
    pub const ALL: [NfKind; 6] = [
        NfKind::Firewall,
        NfKind::Dpi,
        NfKind::Nat,
        NfKind::LoadBalancer,
        NfKind::Lpm,
        NfKind::Monitor,
    ];

    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            NfKind::Firewall => "FW",
            NfKind::Dpi => "DPI",
            NfKind::Nat => "NAT",
            NfKind::LoadBalancer => "LB",
            NfKind::Lpm => "LPM",
            NfKind::Monitor => "Mon",
        }
    }

    /// Whether this kind's `process` reads bytes past the L4 header.
    /// The other kinds parse headers and stop, so a headers-only frame
    /// ([`snic_types::packet::PacketBuilder::build_headers`]) is a
    /// complete input for them. No wildcard arm: a new kind has to say.
    pub fn reads_payload(self) -> bool {
        match self {
            NfKind::Dpi => true,
            NfKind::Firewall
            | NfKind::Nat
            | NfKind::LoadBalancer
            | NfKind::Lpm
            | NfKind::Monitor => false,
        }
    }
}

/// What the NF decided about a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Forward unchanged.
    Forward,
    /// Forward a rewritten packet (NAT).
    Rewritten(Packet),
    /// Drop the packet.
    Drop,
    /// Forward to a specific backend (LB) or next hop (LPM).
    Steer(u32),
    /// Forward; payload matched `n` DPI signatures.
    Matched(u32),
}

/// Receiver of memory-reference events.
///
/// Implementations must be cheap: NFs call `touch` on every data-structure
/// probe, even in throughput benchmarks (where [`NullSink`] makes the call
/// free).
pub trait AccessSink {
    /// Record one reference: `insns` instructions retired since the last
    /// event, then an access of `kind` at virtual address `addr`.
    fn touch(&mut self, addr: u64, kind: AccessKind, insns: u32);
}

/// Discards all events (throughput mode).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl AccessSink for NullSink {
    #[inline]
    fn touch(&mut self, _addr: u64, _kind: AccessKind, _insns: u32) {}
}

/// Collects events into a vector (trace mode).
#[derive(Debug, Default)]
pub struct RecordingSink {
    accesses: Vec<Access>,
}

impl RecordingSink {
    /// A fresh, empty sink.
    pub fn new() -> RecordingSink {
        RecordingSink::default()
    }

    /// The recorded events.
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Reset to empty, keeping the allocation — streaming recorders
    /// reuse one sink across every packet of a billion-event run.
    pub fn clear(&mut self) {
        self.accesses.clear();
    }
}

impl AccessSink for RecordingSink {
    #[inline]
    fn touch(&mut self, addr: u64, kind: AccessKind, insns: u32) {
        self.accesses.push(Access {
            insns: insns.max(1),
            addr,
            kind,
        });
    }
}

/// A network function: real packet semantics plus reference-stream
/// emission.
///
/// `Send` is a supertrait so boxed NFs can ride inside streaming trace
/// sources that `snic-sim` moves across its worker threads; every NF is
/// plain owned data, so this costs nothing.
pub trait NetworkFunction: Send {
    /// Which of the six evaluation NFs this is.
    fn kind(&self) -> NfKind;

    /// Process one packet, reporting data-structure touches to `sink`.
    fn process(&mut self, pkt: &Packet, sink: &mut dyn AccessSink) -> Verdict;

    /// Current memory profile: static sections plus measured heap.
    fn memory_profile(&self) -> MemoryProfile;

    /// The NF's dataflow IR for Pass 0 static analysis (see
    /// [`crate::lowering`]).
    fn dataflow_ir(&self) -> snic_verify::pass0::NfProgram;
}

/// Virtual-address-space layout shared by all NFs.
///
/// Matches the qualitative layout of Table 6 (text / static data / code /
/// heap+stack). Streams only reference data addresses; instruction
/// fetches are not modeled (gem5's data-side experiment).
pub mod layout {
    /// Base of the packet-buffer window (the VPP writes packets here).
    pub const PKTBUF_BASE: u64 = 0x0100_0000;
    /// Base of static data (rule arrays, lookup tables built at init).
    pub const DATA_BASE: u64 = 0x0800_0000;
    /// Base of the heap (hash tables, caches, AC graph).
    pub const HEAP_BASE: u64 = 0x1000_0000;
    /// Base of the stack region.
    pub const STACK_BASE: u64 = 0x7f00_0000;

    // The regions must stay disjoint and ordered; checked at compile time.
    const _: () = assert!(PKTBUF_BASE < DATA_BASE);
    const _: () = assert!(DATA_BASE < HEAP_BASE);
    const _: () = assert!(HEAP_BASE < STACK_BASE);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_match_paper() {
        let names: Vec<&str> = NfKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["FW", "DPI", "NAT", "LB", "LPM", "Mon"]);
    }

    #[test]
    fn recording_sink_collects_in_order() {
        let mut s = RecordingSink::new();
        s.touch(0x10, AccessKind::Load, 3);
        s.touch(0x20, AccessKind::Store, 0); // insns clamped to 1.
        let v = s.accesses();
        assert_eq!(v.len(), 2);
        assert_eq!({ v[0].addr }, 0x10);
        assert_eq!({ v[1].insns }, 1);
        assert_eq!(v[1].kind, AccessKind::Store);
    }

    #[test]
    fn null_sink_is_noop() {
        let mut s = NullSink;
        s.touch(0, AccessKind::Load, 1); // Must not panic or allocate.
    }
}
