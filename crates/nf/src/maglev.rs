//! Maglev consistent-hashing load balancer (LB).
//!
//! §5.1: "Google's software load balancer called Maglev. This function
//! uses consistent hashing to distribute flows." This is the real Maglev
//! table-population algorithm (Eisenbud et al., NSDI '16 §3.4): each
//! backend has a pseudo-random permutation of table slots derived from
//! `offset`/`skip`; backends take turns claiming their next unclaimed
//! slot until the table is full. Connection tracking pins in-flight flows
//! to their original backend across backend set changes.

use snic_types::mix::{fnv1a, FNV_OFFSET};
use snic_types::{ByteSize, FiveTuple, Packet};

use crate::common::{layout, AccessKind, AccessSink, DetHashMap, NetworkFunction, NfKind, Verdict};
use crate::profile::{hashmap_bytes, paper_profile, vec_bytes, MemoryProfile};

/// The paper-scale lookup-table size (Maglev uses a prime; 65,537 is the
/// classic "small" configuration from the Maglev paper).
pub const DEFAULT_TABLE_SIZE: usize = 65_537;

/// Build the Maglev lookup table for `backends` names over `size` slots.
///
/// # Panics
///
/// Panics if `backends` is empty or `size == 0`.
pub fn build_table(backends: &[String], size: usize) -> Vec<u32> {
    // Unreachable: the non-test caller, `with_defaults`, passes 100 backends, 65 537 slots.
    assert!(!backends.is_empty(), "Maglev needs at least one backend");
    assert!(size > 0, "Maglev table must be non-empty");
    let n = backends.len();
    let m = size as u64;
    // Permutation parameters per backend.
    let params: Vec<(u64, u64)> = backends
        .iter()
        .map(|b| {
            let offset = fnv1a(FNV_OFFSET ^ 0x9e37, b.as_bytes()) % m;
            let skip = fnv1a(FNV_OFFSET ^ 0x85eb, b.as_bytes()) % (m - 1).max(1) + 1;
            (offset, skip)
        })
        .collect();
    let mut next = vec![0u64; n];
    let mut entry = vec![u32::MAX; size];
    let mut filled = 0usize;
    while filled < size {
        for (i, &(offset, skip)) in params.iter().enumerate() {
            // Find backend i's next unclaimed slot in its permutation.
            let mut c = (offset + next[i] * skip) % m;
            while entry[c as usize] != u32::MAX {
                next[i] += 1;
                c = (offset + next[i] * skip) % m;
            }
            entry[c as usize] = i as u32;
            next[i] += 1;
            filled += 1;
            if filled == size {
                break;
            }
        }
    }
    entry
}

/// The Maglev load-balancer NF.
#[derive(Debug)]
pub struct MaglevNf {
    table: Vec<u32>,
    /// Connection tracking: flows pinned to their original backend.
    conn_track: DetHashMap<FiveTuple, u32>,
    steered: u64,
}

impl MaglevNf {
    /// Build with explicit backends and table size.
    pub fn new(backends: Vec<String>, table_size: usize) -> MaglevNf {
        let table = build_table(&backends, table_size);
        MaglevNf {
            table,
            conn_track: DetHashMap::default(),
            steered: 0,
        }
    }

    /// Paper-scale defaults: 100 backends, 65,537-slot table.
    pub fn with_defaults(seed: u64) -> MaglevNf {
        let backends: Vec<String> = (0..100).map(|i| format!("backend-{seed}-{i}")).collect();
        MaglevNf::new(backends, DEFAULT_TABLE_SIZE)
    }

    /// The lookup table (for distribution tests).
    pub fn table(&self) -> &[u32] {
        &self.table
    }

    /// Packets steered so far.
    pub fn steered(&self) -> u64 {
        self.steered
    }
}

impl NetworkFunction for MaglevNf {
    fn kind(&self) -> NfKind {
        NfKind::LoadBalancer
    }

    fn process(&mut self, pkt: &Packet, sink: &mut dyn AccessSink) -> Verdict {
        sink.touch(layout::PKTBUF_BASE, AccessKind::Load, 180);
        sink.touch(layout::PKTBUF_BASE + 64, AccessKind::Load, 80);
        let Ok(ft) = FiveTuple::from_packet(pkt) else {
            return Verdict::Drop;
        };

        // Connection-tracking probe.
        let ct_buckets = 65_536u64;
        let ct_addr = layout::HEAP_BASE + (ft.stable_hash() % ct_buckets) * 40;
        sink.touch(ct_addr, AccessKind::Load, 200);

        let backend = if let Some(&b) = self.conn_track.get(&ft) {
            b
        } else {
            // Table lookup: one load into the (static) lookup table.
            let slot = ft.stable_hash() % self.table.len() as u64;
            sink.touch(layout::DATA_BASE + slot * 4, AccessKind::Load, 60);
            let b = self.table[slot as usize];
            self.conn_track.insert(ft, b);
            sink.touch(ct_addr, AccessKind::Store, 40);
            b
        };
        self.steered += 1;
        Verdict::Steer(backend)
    }

    fn dataflow_ir(&self) -> snic_verify::pass0::NfProgram {
        crate::lowering::maglev_ir(self)
    }

    fn memory_profile(&self) -> MemoryProfile {
        let heap =
            vec_bytes(self.table.len(), 4) + hashmap_bytes(self.conn_track.len().max(1024), 40);
        MemoryProfile {
            heap_stack: ByteSize(heap),
            ..paper_profile(NfKind::LoadBalancer)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::NullSink;
    use snic_types::packet::PacketBuilder;
    use snic_types::Protocol;

    impl MaglevNf {
        /// Replace the backend set (simulating a backend failure/addition) and
        /// rebuild the table. Tracked connections keep their old backend.
        fn set_backends(&mut self, backends: Vec<String>) {
            let size = self.table.len();
            self.table = build_table(&backends, size);
        }
    }

    fn backends(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("b{i}")).collect()
    }

    fn pkt(i: u32) -> Packet {
        PacketBuilder::new(i, 99, Protocol::Tcp, (i % 60_000 + 1024) as u16, 443).build()
    }

    #[test]
    fn table_fully_populated() {
        let t = build_table(&backends(7), 1009);
        assert_eq!(t.len(), 1009);
        assert!(t.iter().all(|&e| e < 7));
    }

    #[test]
    fn table_is_balanced() {
        // Maglev's guarantee: max/min slot counts differ by at most ~1%
        // for M >> N; with small M allow a loose bound.
        let n = 10;
        let t = build_table(&backends(n), 10_007);
        let mut counts = vec![0u64; n];
        for &e in &t {
            counts[e as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 1.1, "imbalance {max}/{min}");
    }

    #[test]
    fn table_is_deterministic() {
        assert_eq!(
            build_table(&backends(5), 101),
            build_table(&backends(5), 101)
        );
    }

    #[test]
    fn single_backend_gets_everything() {
        let t = build_table(&backends(1), 101);
        assert!(t.iter().all(|&e| e == 0));
    }

    #[test]
    fn consistent_hashing_minimal_disruption() {
        // Removing one backend should remap only ~1/N of slots among the
        // survivors (plus all of the removed backend's slots).
        let before = build_table(&backends(10), 10_007);
        let mut nine = backends(10);
        nine.remove(9);
        let after = build_table(&nine, 10_007);
        let moved_survivors = before
            .iter()
            .zip(after.iter())
            .filter(|&(&b, &a)| b != 9 && b != a)
            .count();
        let survivor_slots = before.iter().filter(|&&b| b != 9).count();
        let moved_frac = moved_survivors as f64 / survivor_slots as f64;
        assert!(
            moved_frac < 0.25,
            "consistent hashing moved {moved_frac:.2} of slots"
        );
    }

    #[test]
    fn flows_steered_consistently() {
        let mut lb = MaglevNf::new(backends(8), 1009);
        let a = lb.process(&pkt(1), &mut NullSink);
        let b = lb.process(&pkt(1), &mut NullSink);
        assert_eq!(a, b);
        assert_eq!(lb.steered(), 2);
    }

    #[test]
    fn connection_tracking_pins_flows_across_rebuild() {
        let mut lb = MaglevNf::new(backends(8), 1009);
        // Establish 200 flows.
        let picks: Vec<Verdict> = (0..200)
            .map(|i| lb.process(&pkt(i), &mut NullSink))
            .collect();
        // Remove a backend; tracked flows must keep their assignment.
        lb.set_backends(backends(7));
        for (i, old) in picks.iter().enumerate() {
            let new = lb.process(&pkt(i as u32), &mut NullSink);
            assert_eq!(*old, new, "flow {i} moved despite connection tracking");
        }
    }

    #[test]
    fn distribution_over_flows_roughly_uniform() {
        let mut lb = MaglevNf::new(backends(4), 10_007);
        let mut counts = [0u64; 4];
        for i in 0..8000 {
            match lb.process(&pkt(i), &mut NullSink) {
                Verdict::Steer(b) => counts[b as usize] += 1,
                other => panic!("unexpected verdict {other:?}"),
            }
        }
        for &c in &counts {
            assert!((1400..2600).contains(&c), "skewed distribution: {counts:?}");
        }
    }

    #[test]
    fn malformed_packet_dropped() {
        let mut lb = MaglevNf::new(backends(2), 101);
        let junk = Packet::from_bytes(bytes::Bytes::from_static(&[1u8; 8]));
        assert_eq!(lb.process(&junk, &mut NullSink), Verdict::Drop);
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn empty_backends_panics() {
        let _ = build_table(&[], 101);
    }
}
