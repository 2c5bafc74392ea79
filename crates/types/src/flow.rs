//! Flow identification: layer-4 protocols and the classic five-tuple.
//!
//! Switching rules on the NIC (§3.1, §4.4) are predicates over a packet's
//! five-tuple — source IP, destination IP, protocol, source port, and
//! destination port — so the five-tuple is the unit of flow identity used
//! by every network function in the evaluation.

use crate::error::SnicError;
use crate::packet::{Packet, TcpHeader, UdpHeader};

/// Layer-4 protocol carried in an IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// TCP (IP protocol 6).
    Tcp,
    /// UDP (IP protocol 17).
    Udp,
    /// Any other IP protocol number.
    Other(u8),
}

impl Protocol {
    /// Decode from the IP protocol field.
    pub fn from_wire(v: u8) -> Protocol {
        match v {
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Other(other),
        }
    }

    /// Encode to the IP protocol field.
    pub fn to_wire(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Other(v) => v,
        }
    }
}

/// A five-tuple flow key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Layer-4 protocol.
    pub protocol: Protocol,
    /// Source port (zero for protocols without ports).
    pub src_port: u16,
    /// Destination port (zero for protocols without ports).
    pub dst_port: u16,
}

impl FiveTuple {
    /// Extract the five-tuple from a packet.
    ///
    /// Returns an error for non-IPv4 frames or truncated L4 headers; for IP
    /// protocols without ports the port fields are zero.
    pub fn from_packet(pkt: &Packet) -> Result<FiveTuple, SnicError> {
        let ip = pkt.ipv4()?;
        let l4 = &pkt.data[pkt.l4_offset()..];
        let (src_port, dst_port) = match ip.protocol {
            Protocol::Tcp => {
                let t = TcpHeader::parse(l4)?;
                (t.src_port, t.dst_port)
            }
            Protocol::Udp => {
                let u = UdpHeader::parse(l4)?;
                (u.src_port, u.dst_port)
            }
            Protocol::Other(_) => (0, 0),
        };
        Ok(FiveTuple {
            src_ip: ip.src,
            dst_ip: ip.dst,
            protocol: ip.protocol,
            src_port,
            dst_port,
        })
    }

    /// The five-tuple of packets flowing in the opposite direction.
    pub fn reversed(self) -> FiveTuple {
        FiveTuple {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            protocol: self.protocol,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }

    /// A 64-bit mixing hash of the tuple.
    ///
    /// Used by NFs (Maglev, Monitor) that need a stable, cheap, well-mixed
    /// hash independent of `std::collections` hasher randomization — the
    /// simulator must be deterministic across runs.
    pub fn stable_hash(&self) -> u64 {
        // One splitmix64 step over the packed tuple fields.
        let mut x = (u64::from(self.src_ip) << 32) | u64::from(self.dst_ip);
        x ^= (u64::from(self.src_port) << 24)
            | (u64::from(self.dst_port) << 8)
            | u64::from(self.protocol.to_wire());
        crate::mix::splitmix64(&mut x)
    }
}

impl core::fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = self.src_ip.to_be_bytes();
        let d = self.dst_ip.to_be_bytes();
        write!(
            f,
            "{}.{}.{}.{}:{} -> {}.{}.{}.{}:{} ({:?})",
            s[0],
            s[1],
            s[2],
            s[3],
            self.src_port,
            d[0],
            d[1],
            d[2],
            d[3],
            self.dst_port,
            self.protocol
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;

    #[test]
    fn protocol_wire_round_trip() {
        for v in 0..=255u8 {
            assert_eq!(Protocol::from_wire(v).to_wire(), v);
        }
    }

    #[test]
    fn five_tuple_from_tcp_packet() {
        let p = PacketBuilder::new(10, 20, Protocol::Tcp, 1111, 2222).build();
        let ft = FiveTuple::from_packet(&p).unwrap();
        assert_eq!(ft.src_ip, 10);
        assert_eq!(ft.dst_ip, 20);
        assert_eq!(ft.src_port, 1111);
        assert_eq!(ft.dst_port, 2222);
    }

    #[test]
    fn five_tuple_other_protocol_has_zero_ports() {
        let p = PacketBuilder::new(1, 2, Protocol::Other(47), 0, 0).build();
        let ft = FiveTuple::from_packet(&p).unwrap();
        assert_eq!((ft.src_port, ft.dst_port), (0, 0));
        assert_eq!(ft.protocol, Protocol::Other(47));
    }

    #[test]
    fn reversed_is_involution() {
        let ft = FiveTuple {
            src_ip: 1,
            dst_ip: 2,
            protocol: Protocol::Udp,
            src_port: 3,
            dst_port: 4,
        };
        assert_eq!(ft.reversed().reversed(), ft);
        assert_ne!(ft.reversed(), ft);
    }

    #[test]
    fn stable_hash_spreads() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..10_000u32 {
            let ft = FiveTuple {
                src_ip: i,
                dst_ip: !i,
                protocol: Protocol::Tcp,
                src_port: (i % 65_535) as u16,
                dst_port: 80,
            };
            seen.insert(ft.stable_hash());
        }
        assert_eq!(seen.len(), 10_000, "stable_hash collided on trivial inputs");
    }

    #[test]
    fn display_is_dotted_quad() {
        let ft = FiveTuple {
            src_ip: 0x0a000001,
            dst_ip: 0xc0a80102,
            protocol: Protocol::Tcp,
            src_port: 80,
            dst_port: 443,
        };
        let s = ft.to_string();
        assert!(s.contains("10.0.0.1:80"), "{s}");
        assert!(s.contains("192.168.1.2:443"), "{s}");
    }
}
