//! Packet representation and protocol header parsing/serialization.
//!
//! The device model moves packets as byte buffers ([`bytes::Bytes`] under a
//! small metadata wrapper). Headers are parsed on demand with bounds-checked
//! readers; serialization writes network byte order. Supported protocols are
//! the ones the paper's workloads need: Ethernet II, IPv4, TCP, UDP, and
//! VXLAN (RFC 7348, §4.4 of the paper).

use bytes::{BufMut, Bytes, BytesMut};

use crate::error::SnicError;
use crate::flow::Protocol;

/// A 48-bit Ethernet MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// Deterministically derive a locally-administered unicast MAC from a seed.
    pub fn from_seed(seed: u64) -> MacAddr {
        let b = seed.to_be_bytes();
        // Locally administered (bit 1 of first octet set), unicast (bit 0 clear).
        MacAddr([0x02, b[3], b[4], b[5], b[6], b[7]])
    }
}

impl core::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let m = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            m[0], m[1], m[2], m[3], m[4], m[5]
        )
    }
}

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// UDP destination port assigned to VXLAN by RFC 7348.
pub const VXLAN_UDP_PORT: u16 = 4789;

/// An Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// EtherType (e.g. [`ETHERTYPE_IPV4`]).
    pub ethertype: u16,
}

impl EthernetHeader {
    /// Wire length of an Ethernet II header.
    pub const LEN: usize = 14;

    /// Parse from the start of `buf`.
    pub fn parse(buf: &[u8]) -> Result<EthernetHeader, SnicError> {
        if buf.len() < Self::LEN {
            return Err(SnicError::Malformed("ethernet header truncated"));
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&buf[0..6]);
        src.copy_from_slice(&buf[6..12]);
        Ok(EthernetHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: u16::from_be_bytes([buf[12], buf[13]]),
        })
    }

    /// Write the wire form over every byte of `out`.
    fn put(&self, out: &mut [u8; Self::LEN]) {
        out[0..6].copy_from_slice(&self.dst.0);
        out[6..12].copy_from_slice(&self.src.0);
        out[12..14].copy_from_slice(&self.ethertype.to_be_bytes());
    }

    /// Append the wire form to `out`.
    pub fn write(&self, out: &mut BytesMut) {
        let mut b = [0; Self::LEN];
        self.put(&mut b);
        out.put_slice(&b);
    }
}

/// An IPv4 header (options unsupported; IHL is always 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Layer-4 protocol.
    pub protocol: Protocol,
    /// Total length (header + payload) in bytes.
    pub total_len: u16,
    /// Time to live.
    pub ttl: u8,
    /// Header checksum as found on the wire (recomputed by [`Self::write`]).
    pub checksum: u16,
}

impl Ipv4Header {
    /// Wire length (no options).
    pub const LEN: usize = 20;

    /// Parse from the start of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Ipv4Header, SnicError> {
        if buf.len() < Self::LEN {
            return Err(SnicError::Malformed("ipv4 header truncated"));
        }
        let vihl = buf[0];
        if vihl >> 4 != 4 {
            return Err(SnicError::Malformed("not an ipv4 packet"));
        }
        if vihl & 0x0f != 5 {
            return Err(SnicError::Malformed("ipv4 options unsupported"));
        }
        Ok(Ipv4Header {
            total_len: u16::from_be_bytes([buf[2], buf[3]]),
            ttl: buf[8],
            protocol: Protocol::from_wire(buf[9]),
            checksum: u16::from_be_bytes([buf[10], buf[11]]),
            src: u32::from_be_bytes([buf[12], buf[13], buf[14], buf[15]]),
            dst: u32::from_be_bytes([buf[16], buf[17], buf[18], buf[19]]),
        })
    }

    /// Compute the RFC 791 header checksum over the 20-byte header with the
    /// checksum field zeroed: [`checksum16`] of the wire form, folded
    /// straight from the fields. DSCP/ECN, identification and
    /// flags/fragment offset are not modeled, so their words are zero.
    pub fn compute_checksum(&self) -> u16 {
        let words = [
            0x4500,
            u32::from(self.total_len),
            u32::from(self.ttl) << 8 | u32::from(self.protocol.to_wire()),
            self.src >> 16,
            self.src & 0xffff,
            self.dst >> 16,
            self.dst & 0xffff,
        ];
        // Seven words carry at most three bits: two folds clear them.
        let sum: u32 = words.iter().sum();
        let sum = (sum & 0xffff) + (sum >> 16);
        !(((sum & 0xffff) + (sum >> 16)) as u16)
    }

    /// Write the wire form, checksum recomputed, over every byte of
    /// `out`.
    fn put(&self, out: &mut [u8; Self::LEN]) {
        out[0..2].copy_from_slice(&[0x45, 0]);
        out[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        out[4..8].fill(0);
        out[8] = self.ttl;
        out[9] = self.protocol.to_wire();
        out[10..12].copy_from_slice(&self.compute_checksum().to_be_bytes());
        out[12..16].copy_from_slice(&self.src.to_be_bytes());
        out[16..20].copy_from_slice(&self.dst.to_be_bytes());
    }

    /// Append the wire form to `out`, recomputing the checksum.
    pub fn write(&self, out: &mut BytesMut) {
        let mut b = [0; Self::LEN];
        self.put(&mut b);
        out.put_slice(&b);
    }

    /// True if the on-wire checksum matches the *modeled* header fields.
    ///
    /// Unmodeled fields (identification, DSCP, flags) are assumed zero,
    /// which holds for headers built by [`PacketBuilder`]. To validate a
    /// header of unknown provenance, use [`Packet::ipv4_checksum_ok`],
    /// which checks the raw bytes.
    pub fn checksum_ok(&self) -> bool {
        self.checksum == self.compute_checksum()
    }
}

/// One's-complement 16-bit checksum over `data` (RFC 1071).
pub fn checksum16(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// A TCP header (no options parsed; data offset honored when skipping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Header length in bytes (data offset × 4).
    pub header_len: u8,
    /// Flag bits (FIN=0x01, SYN=0x02, RST=0x04, PSH=0x08, ACK=0x10).
    pub flags: u8,
}

impl TcpHeader {
    /// Minimum wire length.
    pub const MIN_LEN: usize = 20;

    /// Parse from the start of `buf`.
    pub fn parse(buf: &[u8]) -> Result<TcpHeader, SnicError> {
        if buf.len() < Self::MIN_LEN {
            return Err(SnicError::Malformed("tcp header truncated"));
        }
        let header_len = (buf[12] >> 4) * 4;
        if usize::from(header_len) < Self::MIN_LEN {
            return Err(SnicError::Malformed("tcp data offset below minimum"));
        }
        Ok(TcpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            header_len,
            flags: buf[13],
        })
    }

    /// Write the 20-byte wire form over every byte of `out` (checksum
    /// left zero; the NIC checksum accelerator fills it in the real
    /// device).
    fn put(&self, out: &mut [u8; Self::MIN_LEN]) {
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..8].copy_from_slice(&self.seq.to_be_bytes());
        out[8..12].copy_from_slice(&self.ack.to_be_bytes());
        out[12] = 5 << 4;
        out[13] = self.flags;
        out[14..16].copy_from_slice(&0xffffu16.to_be_bytes()); // Window.
        out[16..20].fill(0); // Checksum, urgent pointer.
    }
}

/// A UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length of UDP header plus payload.
    pub len: u16,
}

impl UdpHeader {
    /// Wire length.
    pub const LEN: usize = 8;

    /// Parse from the start of `buf`.
    pub fn parse(buf: &[u8]) -> Result<UdpHeader, SnicError> {
        if buf.len() < Self::LEN {
            return Err(SnicError::Malformed("udp header truncated"));
        }
        Ok(UdpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            len: u16::from_be_bytes([buf[4], buf[5]]),
        })
    }

    /// Write the wire form over every byte of `out` (checksum zero =
    /// disabled, legal for IPv4).
    fn put(&self, out: &mut [u8; Self::LEN]) {
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..6].copy_from_slice(&self.len.to_be_bytes());
        out[6..8].fill(0);
    }

    /// Append the wire form to `out`.
    pub fn write(&self, out: &mut BytesMut) {
        let mut b = [0; Self::LEN];
        self.put(&mut b);
        out.put_slice(&b);
    }
}

/// A VXLAN header (RFC 7348).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VxlanHeader {
    /// 24-bit Virtual Network Identifier.
    pub vni: u32,
}

impl VxlanHeader {
    /// Wire length.
    pub const LEN: usize = 8;

    /// Parse from the start of `buf`.
    pub fn parse(buf: &[u8]) -> Result<VxlanHeader, SnicError> {
        if buf.len() < Self::LEN {
            return Err(SnicError::Malformed("vxlan header truncated"));
        }
        if buf[0] & 0x08 == 0 {
            return Err(SnicError::Malformed("vxlan I flag not set"));
        }
        Ok(VxlanHeader {
            vni: u32::from_be_bytes([0, buf[4], buf[5], buf[6]]),
        })
    }

    /// Append the wire form to `out`.
    pub fn write(&self, out: &mut BytesMut) {
        out.put_u8(0x08); // Flags: I bit set.
        out.put_slice(&[0, 0, 0]);
        let v = self.vni.to_be_bytes();
        out.put_slice(&[v[1], v[2], v[3]]);
        out.put_u8(0); // Reserved.
    }
}

/// A packet as handled by the device model.
///
/// The buffer always begins with an Ethernet header; `arrival` is the
/// simulated time at which the packet entered the RX port (zero for
/// synthetic packets that have not traversed the port model). The
/// default packet is empty: a slot for [`PacketBuilder::headers_into`]
/// to write frames into.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Packet {
    /// Raw frame bytes starting at the Ethernet header.
    pub data: Bytes,
    /// Simulated arrival time in picoseconds.
    pub arrival: crate::units::Picos,
}

impl Packet {
    /// Wrap raw frame bytes.
    pub fn from_bytes(data: Bytes) -> Packet {
        Packet {
            data,
            arrival: crate::units::Picos::ZERO,
        }
    }

    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the frame is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Parse the Ethernet header.
    pub fn ethernet(&self) -> Result<EthernetHeader, SnicError> {
        EthernetHeader::parse(&self.data)
    }

    /// True if the IPv4 header checksum validates over the raw header
    /// bytes (RFC 1071: the one's-complement sum of the full header,
    /// including the checksum field, folds to zero). Unlike
    /// [`Ipv4Header::checksum_ok`], this covers every byte of the
    /// header, including fields the parsed struct does not model.
    pub fn ipv4_checksum_ok(&self) -> bool {
        let start = EthernetHeader::LEN;
        self.data.len() >= start + Ipv4Header::LEN
            && checksum16(&self.data[start..start + Ipv4Header::LEN]) == 0
    }

    /// Parse the IPv4 header, if this is an IPv4 frame.
    pub fn ipv4(&self) -> Result<Ipv4Header, SnicError> {
        let eth = self.ethernet()?;
        if eth.ethertype != ETHERTYPE_IPV4 {
            return Err(SnicError::Malformed("not an ipv4 ethertype"));
        }
        Ipv4Header::parse(&self.data[EthernetHeader::LEN..])
    }

    /// Offset of the layer-4 header within the frame.
    pub fn l4_offset(&self) -> usize {
        EthernetHeader::LEN + Ipv4Header::LEN
    }

    /// Parse the TCP header of a TCP/IPv4 frame.
    pub fn tcp(&self) -> Result<TcpHeader, SnicError> {
        let ip = self.ipv4()?;
        if ip.protocol != Protocol::Tcp {
            return Err(SnicError::Malformed("not a tcp packet"));
        }
        TcpHeader::parse(&self.data[self.l4_offset()..])
    }

    /// Parse the UDP header of a UDP/IPv4 frame.
    pub fn udp(&self) -> Result<UdpHeader, SnicError> {
        let ip = self.ipv4()?;
        if ip.protocol != Protocol::Udp {
            return Err(SnicError::Malformed("not a udp packet"));
        }
        UdpHeader::parse(&self.data[self.l4_offset()..])
    }

    /// The application payload (bytes after the L4 header).
    pub fn payload(&self) -> &[u8] {
        let ip = match self.ipv4() {
            Ok(ip) => ip,
            Err(_) => return &[],
        };
        let l4 = self.l4_offset();
        let l4_len = match ip.protocol {
            Protocol::Tcp => match TcpHeader::parse(&self.data[l4..]) {
                Ok(t) => usize::from(t.header_len),
                Err(_) => return &[],
            },
            Protocol::Udp => UdpHeader::LEN,
            Protocol::Other(_) => 0,
        };
        self.data.get(l4 + l4_len..).unwrap_or(&[])
    }
}

/// Builder for synthetic test/workload packets.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    eth: EthernetHeader,
    src_ip: u32,
    dst_ip: u32,
    protocol: Protocol,
    src_port: u16,
    dst_port: u16,
    ttl: u8,
    payload: Vec<u8>,
}

impl PacketBuilder {
    /// The longest header stack the builder writes (Ethernet + IPv4 + TCP).
    pub const MAX_HEADERS: usize = EthernetHeader::LEN + Ipv4Header::LEN + TcpHeader::MIN_LEN;

    /// Start building a packet with the given five-tuple fields.
    pub fn new(src_ip: u32, dst_ip: u32, protocol: Protocol, src_port: u16, dst_port: u16) -> Self {
        PacketBuilder {
            eth: EthernetHeader {
                dst: MacAddr::from_seed(u64::from(dst_ip)),
                src: MacAddr::from_seed(u64::from(src_ip)),
                ethertype: ETHERTYPE_IPV4,
            },
            src_ip,
            dst_ip,
            protocol,
            src_port,
            dst_port,
            ttl: 64,
            payload: Vec::new(),
        }
    }

    /// Set the application payload bytes.
    pub fn payload(mut self, payload: Vec<u8>) -> Self {
        self.payload = payload;
        self
    }

    /// Set the IPv4 TTL.
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Bytes of the Ethernet, IPv4 and L4 headers.
    fn headers_len(&self) -> usize {
        EthernetHeader::LEN
            + Ipv4Header::LEN
            + match self.protocol {
                Protocol::Tcp => TcpHeader::MIN_LEN,
                Protocol::Udp => UdpHeader::LEN,
                Protocol::Other(_) => 0,
            }
    }

    /// The one frame writer behind every build: make `slot` the frame
    /// whose headers state a `payload_len`-byte payload, followed by
    /// `body` (that payload, or nothing for a headers-only frame). Each
    /// header is written field by field straight into the frame, the
    /// IPv4 checksum folded from its fields, and every byte of the frame
    /// is written, so a reused buffer keeps nothing of its last frame.
    /// The buffer is reused when `slot` holds it alone and it is large
    /// enough; otherwise `slot` gets a fresh one (see
    /// [`Bytes::rewrite`]), and a clone of the old frame keeps its bytes.
    fn write_into(&self, payload_len: usize, body: &[u8], slot: &mut Packet) {
        let headers = self.headers_len();
        slot.arrival = crate::units::Picos::ZERO;
        slot.data.rewrite(headers + body.len(), |frame| {
            let (frame, rest) = frame.split_at_mut(headers);
            rest.copy_from_slice(body);
            let (eth, frame) = frame.split_first_chunk_mut().expect("headers_len");
            self.eth.put(eth);
            let (ip, l4) = frame.split_first_chunk_mut().expect("headers_len");
            Ipv4Header {
                src: self.src_ip,
                dst: self.dst_ip,
                protocol: self.protocol,
                total_len: (Ipv4Header::LEN + l4.len() + payload_len) as u16,
                ttl: self.ttl,
                checksum: 0,
            }
            .put(ip);
            match self.protocol {
                Protocol::Tcp => TcpHeader {
                    src_port: self.src_port,
                    dst_port: self.dst_port,
                    seq: 0,
                    ack: 0,
                    header_len: 20,
                    flags: 0x10,
                }
                .put(l4.try_into().expect("headers_len")),
                Protocol::Udp => UdpHeader {
                    src_port: self.src_port,
                    dst_port: self.dst_port,
                    len: (UdpHeader::LEN + payload_len) as u16,
                }
                .put(l4.try_into().expect("headers_len")),
                Protocol::Other(_) => {}
            }
        });
    }

    /// [`PacketBuilder::write_into`] a fresh slot of the frame's size:
    /// the frame's one allocation.
    fn fresh(&self, payload_len: usize, body: &[u8]) -> Packet {
        let len = self.headers_len() + body.len();
        let mut frame = Packet::from_bytes(std::iter::repeat_n(0, len).collect());
        self.write_into(payload_len, body, &mut frame);
        frame
    }

    /// Serialize into a [`Packet`].
    pub fn build(self) -> Packet {
        self.fresh(self.payload.len(), &self.payload)
    }

    /// Serialize into a [`Packet`] around a borrowed `payload`: the
    /// frame [`PacketBuilder::build`] produces for the same bytes — for
    /// callers that build a packet per request and keep none. Bytes
    /// given to [`PacketBuilder::payload`] are not consulted.
    pub fn build_around(self, payload: &[u8]) -> Packet {
        self.fresh(payload.len(), payload)
    }

    /// Serialize only the headers of a frame whose payload is
    /// `payload_len` bytes long — what a snaplen-truncated capture (a
    /// CAIDA trace) holds. The frame ends after the L4 header while
    /// IPv4 `total_len` and UDP `len` still state the uncaptured
    /// payload, so it is a byte-for-byte prefix of the frame
    /// [`PacketBuilder::build`] would produce with that payload. Bytes
    /// given to [`PacketBuilder::payload`] are not consulted.
    pub fn build_headers(self, payload_len: usize) -> Packet {
        self.fresh(payload_len, &[])
    }

    /// [`PacketBuilder::build_headers`] written over `slot` instead of
    /// into a new packet: in place, with no allocation, when `slot` is
    /// the only handle on a buffer large enough for the headers (one
    /// that held a frame of this length or longer); `slot`'s arrival
    /// time is reset to zero.
    pub fn headers_into(&self, payload_len: usize, slot: &mut Packet) {
        self.write_into(payload_len, &[], slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FiveTuple;

    fn sample() -> Packet {
        PacketBuilder::new(0x0a000001, 0x0a000002, Protocol::Tcp, 1234, 80)
            .payload(b"hello world".to_vec())
            .build()
    }

    #[test]
    fn builder_round_trips_ethernet() {
        let p = sample();
        let eth = p.ethernet().unwrap();
        assert_eq!(eth.ethertype, ETHERTYPE_IPV4);
        assert_eq!(eth.src, MacAddr::from_seed(0x0a000001));
    }

    #[test]
    fn builder_round_trips_ipv4() {
        let p = sample();
        let ip = p.ipv4().unwrap();
        assert_eq!(ip.src, 0x0a000001);
        assert_eq!(ip.dst, 0x0a000002);
        assert_eq!(ip.protocol, Protocol::Tcp);
        assert!(ip.checksum_ok());
        assert_eq!(usize::from(ip.total_len), 20 + 20 + 11);
    }

    #[test]
    fn builder_round_trips_tcp() {
        let p = sample();
        let tcp = p.tcp().unwrap();
        assert_eq!(tcp.src_port, 1234);
        assert_eq!(tcp.dst_port, 80);
        assert_eq!(p.payload(), b"hello world");
    }

    #[test]
    fn builder_round_trips_udp() {
        let p = PacketBuilder::new(1, 2, Protocol::Udp, 53, 5353)
            .payload(vec![9u8; 32])
            .build();
        let udp = p.udp().unwrap();
        assert_eq!(udp.src_port, 53);
        assert_eq!(udp.len, 8 + 32);
        assert_eq!(p.payload().len(), 32);
    }

    #[test]
    fn headers_only_frame_is_a_prefix_of_the_full_frame() {
        for (protocol, len) in [
            (Protocol::Tcp, 54),
            (Protocol::Udp, 42),
            (Protocol::Other(47), 34),
        ] {
            let builder = PacketBuilder::new(0x0a000001, 0x0a000002, protocol, 1234, 80).ttl(9);
            let full = builder.clone().payload(vec![0x5a; 300]).build();
            assert_eq!(builder.clone().build_around(&[0x5a; 300]), full);
            let headers = builder.build_headers(300);
            assert_eq!(headers.len(), len, "{protocol:?}");
            assert_eq!(headers.data[..], full.data[..len], "{protocol:?}");
            assert!(headers.ipv4_checksum_ok());
            assert_eq!(headers.ipv4().unwrap(), full.ipv4().unwrap());
            assert_eq!(
                FiveTuple::from_packet(&headers).unwrap(),
                FiveTuple::from_packet(&full).unwrap()
            );
            assert!(headers.payload().is_empty());
        }
    }

    #[test]
    fn vxlan_round_trip() {
        let hdr = VxlanHeader { vni: 0x00ab_cdef };
        let mut out = BytesMut::new();
        hdr.write(&mut out);
        assert_eq!(out.len(), VxlanHeader::LEN);
        assert_eq!(VxlanHeader::parse(&out).unwrap(), hdr);
    }

    #[test]
    fn vxlan_rejects_missing_flag() {
        let buf = [0u8; 8];
        assert!(VxlanHeader::parse(&buf).is_err());
    }

    #[test]
    fn truncated_headers_rejected() {
        assert!(EthernetHeader::parse(&[0u8; 5]).is_err());
        assert!(Ipv4Header::parse(&[0x45; 10]).is_err());
        assert!(TcpHeader::parse(&[0u8; 19]).is_err());
        assert!(UdpHeader::parse(&[0u8; 7]).is_err());
    }

    #[test]
    fn non_ipv4_version_rejected() {
        let mut buf = [0u8; 20];
        buf[0] = 0x65; // Version 6.
        assert!(Ipv4Header::parse(&buf).is_err());
    }

    #[test]
    fn checksum16_known_vector() {
        // Example from RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum16(&data), !0xddf2);
    }

    #[test]
    fn checksum16_odd_length() {
        // A trailing odd byte is padded with zero.
        assert_eq!(checksum16(&[0xff]), checksum16(&[0xff, 0x00]));
    }

    #[test]
    fn corrupting_header_breaks_checksum() {
        let p = sample();
        let mut raw = p.data.to_vec();
        raw[EthernetHeader::LEN + 16] ^= 0xff; // Flip a dst-ip byte.
        let bad = Packet::from_bytes(Bytes::from(raw));
        assert!(!bad.ipv4().unwrap().checksum_ok());
    }

    #[test]
    fn mac_display() {
        assert_eq!(
            MacAddr([1, 2, 3, 4, 5, 0xab]).to_string(),
            "01:02:03:04:05:ab"
        );
    }
}
