//! Network address translation (NAT), derived from MazuNAT's behaviour.
//!
//! §5.1: "A network address translator derived from MazuNAT. The NAT uses
//! a HashMap to cache frequently-used translations. The cache only records
//! the translation results of the first 65,535 flows that can be
//! successfully assigned a distinct port number."
//!
//! Outbound packets get their source rewritten to the NAT's external
//! address and an allocated external port; the IPv4 checksum is
//! recomputed. Only the outbound direction is translated. A new flow
//! also writes its reverse-map slot (external port → flow), as MazuNAT
//! does for the return path: the store is in the modeled reference
//! stream and the map in the memory profile, but no host-side map is
//! kept, since nothing here reads return traffic. Per-flow state
//! mirrors MazuNAT's translation-rule records (full rule, timestamps,
//! counters), which is what makes NAT's heap footprint large in Table 6.

use bytes::Bytes;
use snic_types::packet::{EthernetHeader, Ipv4Header};
use snic_types::{ByteSize, FiveTuple, Packet};

use crate::common::{layout, AccessKind, AccessSink, DetHashMap, NetworkFunction, NfKind, Verdict};
use crate::profile::{hashmap_bytes, paper_profile, MemoryProfile};

/// Maximum flows that can receive a distinct external port.
pub const NAT_MAX_FLOWS: usize = 65_535;

/// Modeled bytes of per-flow translation state (MazuNAT keeps the full
/// rule plus timestamps and counters on both directions).
pub(crate) const FLOW_STATE_BYTES: usize = 240;

/// Per-flow translation record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NatEntry {
    external_port: u16,
    /// Packets translated on this flow.
    packets: u64,
}

/// The NAT network function.
#[derive(Debug)]
pub struct NatNf {
    external_ip: u32,
    forward: DetHashMap<FiveTuple, NatEntry>,
    next_port: u16,
    translated: u64,
    untranslated: u64,
    /// Where `rewrite` patches a frame before copying it, once, into the
    /// packet it returns; kept so only that copy allocates.
    scratch: Vec<u8>,
}

impl NatNf {
    /// Create a NAT with the given external address.
    pub fn new(external_ip: u32) -> NatNf {
        NatNf {
            external_ip,
            forward: DetHashMap::default(),
            next_port: 1024,
            translated: 0,
            untranslated: 0,
            scratch: Vec::new(),
        }
    }

    /// Paper defaults (`seed` kept for interface symmetry; NAT state is
    /// built at runtime from the traffic itself).
    pub fn with_defaults(_seed: u64) -> NatNf {
        NatNf::new(0xc0a8_0001)
    }

    /// Packets successfully translated.
    pub fn translated(&self) -> u64 {
        self.translated
    }

    /// Packets forwarded without translation (port space exhausted).
    pub fn untranslated(&self) -> u64 {
        self.untranslated
    }

    /// The translation for `flow`, if one exists.
    pub fn lookup(&self, flow: &FiveTuple) -> Option<u16> {
        self.forward.get(flow).map(|e| e.external_port)
    }

    fn bucket_addr(&self, ft: &FiveTuple) -> u64 {
        let buckets = (NAT_MAX_FLOWS as u64 + 1).next_power_of_two();
        layout::HEAP_BASE + (ft.stable_hash() % buckets) * FLOW_STATE_BYTES as u64
    }

    /// The modeled reverse-map slot of external port `port`.
    fn reverse_slot_addr(port: u16) -> u64 {
        layout::HEAP_BASE + 0x2_000_000 + u64::from(port) * 32
    }

    fn allocate_port(&mut self) -> Option<u16> {
        if self.forward.len() >= NAT_MAX_FLOWS || self.next_port == u16::MAX {
            return None;
        }
        let p = self.next_port;
        self.next_port += 1;
        Some(p)
    }

    /// Rewrite the packet's source to `(external_ip, port)`.
    fn rewrite(&mut self, pkt: &Packet, port: u16) -> Option<Packet> {
        let ip = pkt.ipv4().ok()?;
        let raw = &mut self.scratch;
        raw.clear();
        raw.extend_from_slice(&pkt.data);
        // Source IP at IPv4 header offset 12.
        let ip_off = EthernetHeader::LEN;
        raw[ip_off + 12..ip_off + 16].copy_from_slice(&self.external_ip.to_be_bytes());
        // Source port is the first L4 field for both TCP and UDP.
        let l4 = ip_off + Ipv4Header::LEN;
        if raw.len() >= l4 + 2 {
            raw[l4..l4 + 2].copy_from_slice(&port.to_be_bytes());
        }
        // Recompute the IPv4 header checksum.
        let fixed = Ipv4Header {
            src: self.external_ip,
            checksum: 0,
            ..ip
        };
        let csum = fixed.compute_checksum();
        raw[ip_off + 10..ip_off + 12].copy_from_slice(&csum.to_be_bytes());
        Some(Packet::from_bytes(Bytes::copy_from_slice(raw)))
    }
}

impl NetworkFunction for NatNf {
    fn kind(&self) -> NfKind {
        NfKind::Nat
    }

    fn process(&mut self, pkt: &Packet, sink: &mut dyn AccessSink) -> Verdict {
        sink.touch(layout::PKTBUF_BASE, AccessKind::Load, 180);
        sink.touch(layout::PKTBUF_BASE + 64, AccessKind::Load, 80);
        let Ok(ft) = FiveTuple::from_packet(pkt) else {
            return Verdict::Drop;
        };

        // Translation lookup: hash + bucket probe, then the flow record.
        let bucket = self.bucket_addr(&ft);
        sink.touch(bucket, AccessKind::Load, 220);
        let port = if let Some(entry) = self.forward.get_mut(&ft) {
            entry.packets += 1;
            sink.touch(bucket + 64, AccessKind::Store, 40);
            Some(entry.external_port)
        } else {
            match self.allocate_port() {
                Some(p) => {
                    self.forward.insert(
                        ft,
                        NatEntry {
                            external_port: p,
                            packets: 1,
                        },
                    );
                    // New-entry write plus reverse-map write.
                    sink.touch(bucket, AccessKind::Store, 80);
                    sink.touch(NatNf::reverse_slot_addr(p), AccessKind::Store, 30);
                    Some(p)
                }
                None => None,
            }
        };

        match port {
            Some(p) => {
                // Header rewrite: two stores into the packet buffer.
                sink.touch(layout::PKTBUF_BASE + 12, AccessKind::Store, 90);
                sink.touch(layout::PKTBUF_BASE + 34, AccessKind::Store, 60);
                match self.rewrite(pkt, p) {
                    Some(out) => {
                        self.translated += 1;
                        Verdict::Rewritten(out)
                    }
                    None => Verdict::Drop,
                }
            }
            None => {
                // Port space exhausted: MazuNAT forwards unmodified.
                self.untranslated += 1;
                Verdict::Forward
            }
        }
    }

    fn dataflow_ir(&self) -> snic_verify::pass0::NfProgram {
        crate::lowering::nat_ir(self)
    }

    fn memory_profile(&self) -> MemoryProfile {
        // The forward records plus the modeled reverse map.
        let heap =
            hashmap_bytes(NAT_MAX_FLOWS, FLOW_STATE_BYTES) + hashmap_bytes(NAT_MAX_FLOWS, 24);
        MemoryProfile {
            heap_stack: ByteSize(heap),
            ..paper_profile(NfKind::Nat)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{NullSink, RecordingSink};
    use snic_types::packet::PacketBuilder;
    use snic_types::Protocol;

    fn pkt(src: u32, sport: u16) -> Packet {
        PacketBuilder::new(src, 0xc633_0001, Protocol::Tcp, sport, 80)
            .payload(b"data".to_vec())
            .build()
    }

    fn rewritten(v: Verdict) -> Packet {
        match v {
            Verdict::Rewritten(p) => p,
            other => panic!("expected Rewritten, got {other:?}"),
        }
    }

    #[test]
    fn rewrites_source_ip_and_port() {
        let mut nat = NatNf::new(0x0909_0909);
        let out = rewritten(nat.process(&pkt(0x0a00_0001, 5555), &mut NullSink));
        let ip = out.ipv4().unwrap();
        assert_eq!(ip.src, 0x0909_0909);
        assert_eq!(ip.dst, 0xc633_0001, "destination untouched");
        let tcp = out.tcp().unwrap();
        assert_eq!(tcp.src_port, 1024, "first allocated port");
        assert_eq!(tcp.dst_port, 80);
    }

    #[test]
    fn rewritten_checksum_is_valid() {
        let mut nat = NatNf::with_defaults(0);
        let out = rewritten(nat.process(&pkt(1, 1000), &mut NullSink));
        assert!(out.ipv4().unwrap().checksum_ok());
    }

    #[test]
    fn same_flow_keeps_same_port() {
        let mut nat = NatNf::with_defaults(0);
        let a = rewritten(nat.process(&pkt(1, 1000), &mut NullSink));
        let b = rewritten(nat.process(&pkt(1, 1000), &mut NullSink));
        assert_eq!(a.tcp().unwrap().src_port, b.tcp().unwrap().src_port);
        assert_eq!(nat.forward.len(), 1);
        assert_eq!(nat.translated(), 2);
    }

    #[test]
    fn distinct_flows_get_distinct_ports() {
        let mut nat = NatNf::with_defaults(0);
        let a = rewritten(nat.process(&pkt(1, 1000), &mut NullSink));
        let b = rewritten(nat.process(&pkt(2, 1000), &mut NullSink));
        assert_ne!(a.tcp().unwrap().src_port, b.tcp().unwrap().src_port);
        assert_eq!(nat.forward.len(), 2);
    }

    #[test]
    fn port_exhaustion_forwards_untranslated() {
        let mut nat = NatNf::with_defaults(0);
        // Exhaust the port space quickly by shrinking it artificially.
        nat.next_port = u16::MAX - 2;
        assert!(matches!(
            nat.process(&pkt(1, 1), &mut NullSink),
            Verdict::Rewritten(_)
        ));
        assert!(matches!(
            nat.process(&pkt(2, 1), &mut NullSink),
            Verdict::Rewritten(_)
        ));
        // next_port is now MAX: no more allocations.
        assert_eq!(nat.process(&pkt(3, 1), &mut NullSink), Verdict::Forward);
        assert_eq!(nat.untranslated(), 1);
    }

    #[test]
    fn payload_survives_rewrite() {
        let mut nat = NatNf::with_defaults(0);
        let out = rewritten(nat.process(&pkt(1, 1000), &mut NullSink));
        assert_eq!(out.payload(), b"data");
    }

    #[test]
    fn malformed_packet_dropped() {
        let mut nat = NatNf::with_defaults(0);
        let junk = Packet::from_bytes(Bytes::from_static(&[0u8; 20]));
        assert_eq!(nat.process(&junk, &mut NullSink), Verdict::Drop);
    }

    #[test]
    fn new_flow_touches_more_than_cached_flow() {
        let mut nat = NatNf::with_defaults(0);
        let mut first = RecordingSink::new();
        let _ = nat.process(&pkt(1, 1000), &mut first);
        let mut second = RecordingSink::new();
        let _ = nat.process(&pkt(1, 1000), &mut second);
        assert!(first.accesses().len() > second.accesses().len());
    }

    #[test]
    fn reverse_map_tracks_allocations() {
        // A new flow stores to its port's reverse-map slot, once; a
        // cached one does not touch the reverse map.
        let mut nat = NatNf::with_defaults(0);
        let mut first = RecordingSink::new();
        let out = rewritten(nat.process(&pkt(7, 4242), &mut first));
        let ext_port = out.tcp().unwrap().src_port;
        let flow = FiveTuple::from_packet(&pkt(7, 4242)).unwrap();
        assert_eq!(nat.lookup(&flow), Some(ext_port));
        let slot = NatNf::reverse_slot_addr(ext_port);
        let slot_stores = |sink: &RecordingSink| {
            sink.accesses()
                .iter()
                .filter(|a| a.addr == slot && a.kind == AccessKind::Store)
                .count()
        };
        assert_eq!(slot_stores(&first), 1);
        let mut again = RecordingSink::new();
        let _ = nat.process(&pkt(7, 4242), &mut again);
        assert_eq!(slot_stores(&again), 0);
    }

    #[test]
    fn memory_profile_in_paper_range() {
        let nat = NatNf::with_defaults(0);
        let heap = nat.memory_profile().heap_stack.as_mib_f64();
        // Paper: 40.48 MB peak. Same structures, same order of magnitude.
        assert!((10.0..80.0).contains(&heap), "heap = {heap} MiB");
    }
}
