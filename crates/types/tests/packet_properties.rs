//! Property tests for packet construction and parsing.

use proptest::prelude::*;
use snic_types::packet::{checksum16, PacketBuilder};
use snic_types::{FiveTuple, Packet, Protocol};

proptest! {
    #[test]
    fn builder_parse_round_trip(
        src in any::<u32>(),
        dst in any::<u32>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        tcp in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1200),
    ) {
        let proto = if tcp { Protocol::Tcp } else { Protocol::Udp };
        let pkt = PacketBuilder::new(src, dst, proto, sport, dport)
            .payload(payload.clone())
            .build();
        let ft = FiveTuple::from_packet(&pkt).unwrap();
        prop_assert_eq!(ft.src_ip, src);
        prop_assert_eq!(ft.dst_ip, dst);
        prop_assert_eq!(ft.src_port, sport);
        prop_assert_eq!(ft.dst_port, dport);
        prop_assert_eq!(ft.protocol, proto);
        prop_assert_eq!(pkt.payload(), payload.as_slice());
        prop_assert!(pkt.ipv4().unwrap().checksum_ok());
        prop_assert!(pkt.ipv4_checksum_ok());
    }

    /// A slot rewritten in place, frame after frame, over a mix of TCP,
    /// UDP and other protocols and of lengths that wrap `total_len` and
    /// the UDP length past `u16`. Each rewrite must equal the owned
    /// `build_headers` frame (so no byte of a longer earlier frame
    /// survives) and be a prefix of `build` with that payload; the
    /// buffer is reused exactly when the slot holds it alone and it is
    /// large enough; and a clone taken of a frame keeps its bytes across
    /// the next rewrite.
    #[test]
    fn a_slot_rewritten_in_place_is_the_owned_frame(
        frames in proptest::collection::vec(
            (
                prop_oneof![
                    Just(Protocol::Tcp),
                    Just(Protocol::Udp),
                    (0u8..=255).prop_map(Protocol::from_wire),
                ],
                (any::<u32>(), any::<u32>(), any::<u8>()),
                (any::<u16>(), any::<u16>()),
                prop_oneof![0usize..1_600, 65_400usize..65_600, 130_990usize..131_100],
                any::<bool>(),
            ),
            1..24,
        ),
    ) {
        let mut slot = Packet::default();
        // Bytes the slot's buffer holds; what a clone should still read.
        let mut held = 0;
        let mut kept: Option<(Packet, Vec<u8>)> = None;
        for (protocol, (src, dst, ttl), (sport, dport), len, keep) in frames {
            let builder = PacketBuilder::new(src, dst, protocol, sport, dport).ttl(ttl);
            let before = slot.data.as_ptr();
            builder.headers_into(len, &mut slot);
            let owned = builder.clone().build_headers(len);
            prop_assert_eq!(&slot, &owned, "{:?} payload {}", protocol, len);
            prop_assert!(slot.ipv4_checksum_ok());
            // The lengths state the uncaptured payload, wrapped to 16 bits.
            let l4 = slot.len() - slot.l4_offset();
            prop_assert_eq!(slot.ipv4().unwrap().total_len, (20 + l4 + len) as u16);
            if protocol == Protocol::Udp {
                prop_assert_eq!(slot.udp().unwrap().len, (8 + len) as u16);
            }
            let full = builder.build_around(&vec![0xa5; len]);
            prop_assert_eq!(&slot.data[..], &full.data[..slot.len()]);
            let in_place = kept.is_none() && slot.len() <= held;
            prop_assert_eq!(slot.data.as_ptr() == before, in_place, "held {}", held);
            if !in_place {
                held = slot.len();
            }
            if let Some((clone, bytes)) = kept.take() {
                prop_assert_eq!(&clone.data[..], &bytes[..], "a kept clone changed");
            }
            if keep {
                kept = Some((slot.clone(), slot.data.to_vec()));
            }
        }
    }

    #[test]
    fn corrupting_any_header_byte_breaks_checksum_or_parse(
        flip in 14usize..34,
        bit in 0u8..8,
    ) {
        // Flipping any single bit of the IPv4 header must be detectable:
        // either the checksum fails or the parse rejects the packet.
        let pkt = PacketBuilder::new(0x0a000001, 0xc6330001, Protocol::Tcp, 1000, 80).build();
        let mut raw = pkt.data.to_vec();
        raw[flip] ^= 1 << bit;
        let bad = Packet::from_bytes(bytes::Bytes::from(raw));
        let detectable = !bad.ipv4_checksum_ok() || bad.ipv4().is_err();
        prop_assert!(detectable, "flip at byte {flip} bit {bit} went unnoticed");
    }

    #[test]
    fn checksum16_detects_single_bit_flips(
        data in proptest::collection::vec(any::<u8>(), 2..64),
        idx in 0usize..64,
        bit in 0u8..8,
    ) {
        // Make length even so the flip never lands in implicit padding.
        let mut data = data;
        if data.len() % 2 == 1 {
            data.pop();
        }
        let idx = idx % data.len();
        let original = checksum16(&data);
        data[idx] ^= 1 << bit;
        prop_assert_ne!(checksum16(&data), original);
    }

    #[test]
    fn stable_hash_symmetric_inputs_differ(a in any::<u32>(), b in any::<u32>()) {
        prop_assume!(a != b);
        // Directionality matters: (a→b) hashes differently from (b→a)
        // (with overwhelming probability; equality would be a collision).
        let fwd = FiveTuple { src_ip: a, dst_ip: b, protocol: Protocol::Tcp, src_port: 1, dst_port: 2 };
        let rev = fwd.reversed();
        prop_assert_ne!(fwd.stable_hash(), rev.stable_hash());
    }
}
