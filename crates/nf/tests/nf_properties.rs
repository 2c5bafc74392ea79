//! Property-based tests of the network functions' core invariants.

use proptest::prelude::*;
use snic_nf::dpi::AhoCorasick;
use snic_nf::lpm::{synth_prefixes, Dir24_8, Prefix};
use snic_nf::maglev::build_table;
use snic_nf::{MonitorNf, NatNf, NetworkFunction, NullSink, Verdict};
use snic_types::packet::PacketBuilder;
use snic_types::{ByteSize, FiveTuple, Picos, Protocol};

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn aho_corasick_matches_naive_count(
        patterns in proptest::collection::vec(
            proptest::collection::vec(97u8..110, 1..6), 1..12),
        haystack in proptest::collection::vec(97u8..110, 0..300),
    ) {
        let ac = AhoCorasick::build(&patterns);
        let naive: u64 = patterns
            .iter()
            .map(|p| haystack.windows(p.len()).filter(|w| w == &p.as_slice()).count() as u64)
            .sum();
        prop_assert_eq!(ac.scan(&haystack, &mut NullSink), naive);
    }

    #[test]
    fn nat_port_assignment_is_injective(flow_seeds in proptest::collection::vec(any::<u32>(), 1..200)) {
        let mut nat = NatNf::with_defaults(0);
        let mut seen_ports = std::collections::HashMap::new();
        for &s in &flow_seeds {
            let pkt = PacketBuilder::new(s, 0xc633_0001, Protocol::Tcp, (s % 60000 + 1024) as u16, 80).build();
            let flow = FiveTuple::from_packet(&pkt).unwrap();
            if let Verdict::Rewritten(out) = nat.process(&pkt, &mut NullSink) {
                let port = out.tcp().unwrap().src_port;
                // Same flow → same port; different flows → different ports.
                if let Some(prev) = seen_ports.insert(port, flow) {
                    prop_assert_eq!(prev, flow, "port {} reused across flows", port);
                }
            }
        }
    }

    #[test]
    fn maglev_lookup_stable_under_table_rebuild(
        n_backends in 2usize..12,
        probes in proptest::collection::vec(any::<u64>(), 1..50),
    ) {
        // Rebuilding with identical backends yields the identical table.
        let backends: Vec<String> = (0..n_backends).map(|i| format!("b{i}")).collect();
        let t1 = build_table(&backends, 1009);
        let t2 = build_table(&backends, 1009);
        for p in probes {
            let idx = (p % 1009) as usize;
            prop_assert_eq!(t1[idx], t2[idx]);
        }
    }

    #[test]
    fn lpm_matches_naive_longest_prefix(
        count in 1usize..60,
        seed in any::<u64>(),
        probes in proptest::collection::vec(any::<u32>(), 1..60),
    ) {
        let prefixes = synth_prefixes(count, seed);
        let table = Dir24_8::build(&prefixes);
        let mask = |addr: u32, len: u8| if len == 0 { 0 } else { addr & (u32::MAX << (32 - u32::from(len))) };
        for addr in probes {
            let candidates: Vec<&Prefix> = prefixes
                .iter()
                .filter(|x| mask(addr, x.len) == mask(x.addr, x.len))
                .collect();
            let best_len = candidates.iter().map(|x| x.len).max();
            let unambiguous = candidates.iter().filter(|x| Some(x.len) == best_len).count() <= 1;
            if unambiguous {
                let want = candidates.iter().max_by_key(|x| x.len).map(|x| x.next_hop);
                prop_assert_eq!(table.lookup(addr, &mut NullSink), want, "addr {:#010x}", addr);
            }
        }
    }

    #[test]
    fn monitor_counts_sum_to_packets(flow_ids in proptest::collection::vec(0u32..50, 1..300)) {
        let mut mon = MonitorNf::new(ByteSize::mib(1));
        for (i, &f) in flow_ids.iter().enumerate() {
            let flow = FiveTuple {
                src_ip: f, dst_ip: 1, protocol: Protocol::Udp, src_port: 1, dst_port: 2,
            };
            mon.observe(flow, Picos(i as u64), &mut NullSink);
        }
        let total: u64 = (0..50u32)
            .map(|f| {
                mon.count_of(&FiveTuple {
                    src_ip: f, dst_ip: 1, protocol: Protocol::Udp, src_port: 1, dst_port: 2,
                })
            })
            .sum();
        prop_assert_eq!(total, flow_ids.len() as u64);
        prop_assert_eq!(mon.packets(), flow_ids.len() as u64);
    }

    #[test]
    fn firewall_verdict_is_deterministic_per_flow(
        srcs in proptest::collection::vec(any::<u32>(), 1..40),
        seed in any::<u64>(),
    ) {
        let mut fw = snic_nf::FirewallNf::new(snic_nf::firewall::synth_rules(100, seed), 1 << 14);
        for s in srcs {
            let pkt = PacketBuilder::new(s, 0xc633_0000 | (s & 0xffff), Protocol::Tcp, 1024, 80).build();
            let first = fw.process(&pkt, &mut NullSink);
            for _ in 0..3 {
                prop_assert_eq!(&fw.process(&pkt, &mut NullSink), &first);
            }
        }
    }
}

#[test]
fn nat_reverse_traffic_concept() {
    // Forward translation then check the reverse map knows the flow.
    let mut nat = NatNf::with_defaults(0);
    let pkt = PacketBuilder::new(0x0a000001, 0xc6330001, Protocol::Tcp, 7777, 80).build();
    let Verdict::Rewritten(out) = nat.process(&pkt, &mut NullSink) else {
        panic!()
    };
    let flow = FiveTuple::from_packet(&pkt).unwrap();
    assert_eq!(nat.lookup(&flow), Some(out.tcp().unwrap().src_port));
}
