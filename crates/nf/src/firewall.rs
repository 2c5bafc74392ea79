//! Stateful firewall (FW).
//!
//! §5.1: "A stateful firewall that drops packets by scanning a list of
//! rules. Recently-accessed rules are cached in a HashMap ... We limit the
//! cache size to 200,000 entries, which is the cached flow limit in Open
//! vSwitch. The function uses rules from the Emerging Threats site. We
//! configure the function with 643 rules, as in the SafeBricks paper."
//!
//! The Emerging Threats ruleset is not distributable, so rules are
//! synthesized with the same shape: prefix matches on source/destination,
//! optional protocol, destination port ranges, and a first-match
//! allow/deny action.

use rand::Rng;
use rand::SeedableRng;
use snic_types::{FiveTuple, Packet, Protocol};

use crate::common::{layout, AccessKind, AccessSink, DetHashMap, NetworkFunction, NfKind, Verdict};
use crate::profile::{hashmap_bytes, paper_profile, vec_bytes, MemoryProfile};

/// One firewall rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FirewallRule {
    /// Source prefix `(addr, len)`; len 0 = wildcard.
    pub src: (u32, u8),
    /// Destination prefix `(addr, len)`.
    pub dst: (u32, u8),
    /// Protocol constraint (`None` = any).
    pub protocol: Option<Protocol>,
    /// Destination port range, inclusive.
    pub dst_ports: (u16, u16),
    /// `true` = allow, `false` = deny.
    pub allow: bool,
}

impl FirewallRule {
    /// True if the rule matches the five-tuple.
    pub fn matches(&self, ft: &FiveTuple) -> bool {
        prefix_match(ft.src_ip, self.src)
            && prefix_match(ft.dst_ip, self.dst)
            && self.protocol.is_none_or(|p| p == ft.protocol)
            && (self.dst_ports.0..=self.dst_ports.1).contains(&ft.dst_port)
    }
}

fn prefix_match(addr: u32, (net, len): (u32, u8)) -> bool {
    if len == 0 {
        return true;
    }
    let mask = u32::MAX << (32 - u32::from(len.min(32)));
    addr & mask == net & mask
}

/// Generate an Emerging-Threats-shaped ruleset.
pub fn synth_rules(count: usize, seed: u64) -> Vec<FirewallRule> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut rules = Vec::with_capacity(count);
    for i in 0..count {
        let deny_heavy = i < count * 9 / 10; // Most ET rules are drops.
        let dst_base = if rng.random::<f64>() < 0.5 {
            0xc633_0000 // The trace's destination /16, so rules actually fire.
        } else {
            rng.random()
        };
        const PORTS: [u16; 7] = [0, 80, 443, 22, 25, 53, 1024];
        let port_lo = PORTS[rng.random_range(0..PORTS.len())];
        let port_hi = if port_lo == 0 {
            u16::MAX
        } else {
            port_lo.saturating_add(rng.random_range(0..32))
        };
        rules.push(FirewallRule {
            src: (rng.random(), [0u8, 8, 16, 24][rng.random_range(0..4usize)]),
            dst: (
                dst_base | rng.random_range(0u32..1 << 16),
                [16u8, 24, 32][rng.random_range(0..3usize)],
            ),
            protocol: match rng.random_range(0..3) {
                0 => Some(Protocol::Tcp),
                1 => Some(Protocol::Udp),
                _ => None,
            },
            dst_ports: (port_lo, port_hi),
            allow: !deny_heavy && rng.random::<f64>() < 0.5,
        });
    }
    rules
}

/// Bytes per rule in the packed static-data representation (4+1+4+1+1+2+2+1
/// rounded up for alignment).
pub(crate) const RULE_BYTES: u64 = 16;
/// Bytes per flow-cache bucket in the modeled layout.
pub(crate) const CACHE_BUCKET_BYTES: u64 = 24;

/// The stateful firewall NF.
#[derive(Debug)]
pub struct FirewallNf {
    rules: Vec<FirewallRule>,
    cache: DetHashMap<FiveTuple, bool>,
    cache_limit: usize,
    /// Flow keys in insertion order, for FIFO eviction when full.
    eviction_queue: std::collections::VecDeque<FiveTuple>,
    dropped: u64,
}

impl FirewallNf {
    /// Build with an explicit ruleset and cache limit.
    pub fn new(rules: Vec<FirewallRule>, cache_limit: usize) -> FirewallNf {
        // Unreachable: every non-test caller passes the constant 200 000.
        assert!(cache_limit > 0, "cache limit must be positive");
        FirewallNf {
            rules,
            cache: DetHashMap::default(),
            cache_limit,
            eviction_queue: std::collections::VecDeque::new(),
            dropped: 0,
        }
    }

    /// The paper's configuration: 643 rules, 200,000-entry cache.
    pub fn with_defaults(seed: u64) -> FirewallNf {
        FirewallNf::new(synth_rules(643, seed), 200_000)
    }

    /// Packets dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of configured rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Configured flow-cache capacity.
    pub fn cache_limit(&self) -> usize {
        self.cache_limit
    }

    fn bucket_addr(&self, ft: &FiveTuple) -> u64 {
        let buckets = (self.cache_limit as u64).next_power_of_two();
        layout::HEAP_BASE + (ft.stable_hash() % buckets) * CACHE_BUCKET_BYTES
    }

    fn scan_rules(&self, ft: &FiveTuple, sink: &mut dyn AccessSink) -> bool {
        for (i, rule) in self.rules.iter().enumerate() {
            // The rule array is scanned linearly; report one load per
            // cache line of rules (4 rules per 64 B line).
            if i.is_multiple_of(4) {
                sink.touch(
                    layout::DATA_BASE + (i as u64) * RULE_BYTES,
                    AccessKind::Load,
                    10,
                );
            }
            if rule.matches(ft) {
                return rule.allow;
            }
        }
        true // Default allow.
    }
}

impl NetworkFunction for FirewallNf {
    fn kind(&self) -> NfKind {
        NfKind::Firewall
    }

    fn process(&mut self, pkt: &Packet, sink: &mut dyn AccessSink) -> Verdict {
        // Header parse: two loads from the packet buffer.
        sink.touch(layout::PKTBUF_BASE, AccessKind::Load, 180);
        sink.touch(layout::PKTBUF_BASE + 64, AccessKind::Load, 90);
        let Ok(ft) = FiveTuple::from_packet(pkt) else {
            self.dropped += 1;
            return Verdict::Drop;
        };

        // Flow-cache probe (hash + bucket load).
        sink.touch(self.bucket_addr(&ft), AccessKind::Load, 220);
        let allow = if let Some(&allow) = self.cache.get(&ft) {
            allow
        } else {
            let allow = self.scan_rules(&ft, sink);
            if self.cache.len() >= self.cache_limit {
                if let Some(old) = self.eviction_queue.pop_front() {
                    self.cache.remove(&old);
                    sink.touch(self.bucket_addr(&old), AccessKind::Store, 25);
                }
            }
            self.cache.insert(ft, allow);
            self.eviction_queue.push_back(ft);
            sink.touch(self.bucket_addr(&ft), AccessKind::Store, 40);
            allow
        };

        if allow {
            Verdict::Forward
        } else {
            self.dropped += 1;
            Verdict::Drop
        }
    }

    fn dataflow_ir(&self) -> snic_verify::pass0::NfProgram {
        crate::lowering::firewall_ir(self)
    }

    fn memory_profile(&self) -> MemoryProfile {
        let paper = paper_profile(NfKind::Firewall);
        let heap = hashmap_bytes(self.cache_limit, 24)
            + vec_bytes(self.rules.len(), RULE_BYTES as usize)
            + vec_bytes(self.cache_limit, 16); // Eviction queue.
        MemoryProfile {
            heap_stack: snic_types::ByteSize(heap),
            ..paper
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{NullSink, RecordingSink};
    use snic_types::packet::PacketBuilder;

    fn pkt(src: u32, dst: u32, dport: u16) -> Packet {
        PacketBuilder::new(src, dst, Protocol::Tcp, 4000, dport).build()
    }

    #[test]
    fn deny_rule_drops_matching_packet() {
        let rules = vec![FirewallRule {
            src: (0, 0),
            dst: (0x0a00_0000, 8),
            protocol: Some(Protocol::Tcp),
            dst_ports: (80, 80),
            allow: false,
        }];
        let mut fw = FirewallNf::new(rules, 10);
        assert_eq!(
            fw.process(&pkt(1, 0x0a01_0203, 80), &mut NullSink),
            Verdict::Drop
        );
        assert_eq!(
            fw.process(&pkt(1, 0x0a01_0203, 81), &mut NullSink),
            Verdict::Forward
        );
        assert_eq!(fw.dropped(), 1);
    }

    #[test]
    fn first_match_wins() {
        let rules = vec![
            FirewallRule {
                src: (0, 0),
                dst: (0, 0),
                protocol: None,
                dst_ports: (0, u16::MAX),
                allow: true,
            },
            FirewallRule {
                src: (0, 0),
                dst: (0, 0),
                protocol: None,
                dst_ports: (0, u16::MAX),
                allow: false,
            },
        ];
        let mut fw = FirewallNf::new(rules, 10);
        assert_eq!(fw.process(&pkt(1, 2, 80), &mut NullSink), Verdict::Forward);
    }

    /// Whether `p` hits the flow cache: a hit touches exactly the two
    /// packet-buffer loads and the bucket probe, a miss also scans rules
    /// and inserts.
    fn hits(fw: &mut FirewallNf, p: &Packet) -> bool {
        let mut sink = RecordingSink::new();
        let _ = fw.process(p, &mut sink);
        sink.accesses().len() == 3
    }

    #[test]
    fn cache_hit_after_first_packet() {
        let mut fw = FirewallNf::with_defaults(1);
        let p = pkt(5, 6, 443);
        assert!(!hits(&mut fw, &p));
        assert!(hits(&mut fw, &p));
    }

    #[test]
    fn cached_verdict_matches_scan_verdict() {
        let mut fw = FirewallNf::with_defaults(2);
        for i in 0..50u32 {
            let p = pkt(i, 0xc633_0000 | i, 80);
            let first = fw.process(&p, &mut NullSink);
            let second = fw.process(&p, &mut NullSink);
            assert_eq!(first, second, "flow {i}");
        }
    }

    #[test]
    fn eviction_keeps_cache_bounded() {
        let mut fw = FirewallNf::new(synth_rules(10, 3), 16);
        for i in 0..100u32 {
            assert!(!hits(&mut fw, &pkt(i, i + 1, 80)));
        }
        assert!(fw.cache.len() <= 16);
    }

    #[test]
    fn evicted_flow_rescans() {
        let mut fw = FirewallNf::new(synth_rules(10, 3), 4);
        let first = pkt(1, 2, 80);
        let _ = fw.process(&first, &mut NullSink);
        for i in 10..20u32 {
            let _ = fw.process(&pkt(i, i, 80), &mut NullSink);
        }
        assert!(!hits(&mut fw, &first), "evicted flow must miss");
    }

    #[test]
    fn cache_hit_touches_fewer_addresses_than_miss() {
        let mut fw = FirewallNf::with_defaults(4);
        let p = pkt(9, 0xdead_beef, 9999); // Unlikely to match early rules.
        let mut miss_sink = RecordingSink::new();
        let _ = fw.process(&p, &mut miss_sink);
        let mut hit_sink = RecordingSink::new();
        let _ = fw.process(&p, &mut hit_sink);
        assert!(miss_sink.accesses().len() > hit_sink.accesses().len());
        assert_eq!(hit_sink.accesses().len(), 3); // Two pktbuf + one bucket.
    }

    #[test]
    fn rule_scan_touches_data_segment() {
        let mut fw = FirewallNf::with_defaults(5);
        let mut sink = RecordingSink::new();
        let _ = fw.process(&pkt(1, 0xdead_beef, 9999), &mut sink);
        assert!(sink
            .accesses()
            .iter()
            .any(|a| (layout::DATA_BASE..layout::HEAP_BASE).contains(&{ a.addr })));
    }

    #[test]
    fn synth_rules_deterministic_and_sized() {
        let a = synth_rules(643, 7);
        let b = synth_rules(643, 7);
        assert_eq!(a.len(), 643);
        assert_eq!(a, b);
        assert_ne!(a, synth_rules(643, 8));
    }

    #[test]
    fn prefix_match_edge_cases() {
        assert!(prefix_match(0x0a000001, (0x0a000000, 8)));
        assert!(!prefix_match(0x0b000001, (0x0a000000, 8)));
        assert!(prefix_match(0x12345678, (0, 0)), "len 0 is wildcard");
        assert!(prefix_match(0x12345678, (0x12345678, 32)));
        assert!(!prefix_match(0x12345679, (0x12345678, 32)));
    }

    #[test]
    fn memory_profile_heap_in_plausible_range() {
        let fw = FirewallNf::with_defaults(6);
        let heap = fw.memory_profile().heap_stack.as_mib_f64();
        // Paper: 13.75 MB. Ours models the same structures; require the
        // same order of magnitude.
        assert!((4.0..40.0).contains(&heap), "heap = {heap} MiB");
    }

    #[test]
    fn malformed_packet_dropped() {
        let mut fw = FirewallNf::with_defaults(8);
        let junk = Packet::from_bytes(bytes::Bytes::from_static(&[0u8; 10]));
        assert_eq!(fw.process(&junk, &mut NullSink), Verdict::Drop);
    }
}
