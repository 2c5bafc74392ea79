//! Property tests across the packet-IO crate: VXLAN transparency, rule
//! classification totality.

use proptest::prelude::*;
use snic_pktio::rules::{RuleMatch, RuleTable, SwitchRule};
use snic_pktio::vxlan::{vxlan_decap, vxlan_encap};
use snic_types::packet::PacketBuilder;
use snic_types::{NfId, Protocol};

proptest! {
    #[test]
    fn vxlan_round_trip_arbitrary_payloads(
        payload in proptest::collection::vec(any::<u8>(), 0..1400),
        vni in 0u32..(1 << 24),
        src in any::<u32>(),
        dst in any::<u32>(),
    ) {
        let inner = PacketBuilder::new(1, 2, Protocol::Tcp, 10, 20).payload(payload).build();
        let enc = vxlan_encap(&inner, vni, src, dst).unwrap();
        let (got_vni, dec) = vxlan_decap(&enc).unwrap();
        prop_assert_eq!(got_vni, vni);
        prop_assert_eq!(dec.data, inner.data);
        // The outer packet itself parses and checksums.
        prop_assert!(enc.ipv4().unwrap().checksum_ok());
    }

    #[test]
    fn rule_table_first_match_semantics(
        ports in proptest::collection::vec(1u16..1000, 1..10),
        probe in 1u16..1000,
    ) {
        // Install one exact rule per port at priority = port; the
        // classifier must return the matching rule's target.
        let mut table = RuleTable::new();
        for (i, &p) in ports.iter().enumerate() {
            table.install(SwitchRule {
                dst_port: RuleMatch::Exact(p),
                priority: u32::from(p),
                ..SwitchRule::any(NfId(i as u64))
            });
        }
        let pkt = PacketBuilder::new(1, 2, Protocol::Udp, 4000, probe).build();
        let got = table.classify(&pkt);
        let expect = ports
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p == probe)
            .map(|(i, _)| NfId(i as u64))
            .next();
        prop_assert_eq!(got, expect);
    }
}
