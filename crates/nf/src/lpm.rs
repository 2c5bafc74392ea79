//! Longest-prefix matching (LPM) with the DIR-24-8 algorithm.
//!
//! §5.1: "Longest prefix matching using the DIR-24-8 algorithm for IP
//! packet routing. Like NetBricks, we generate 16,000 random rules to
//! construct the lookup table."
//!
//! DIR-24-8 (Gupta/Lin/McKeown, INFOCOM '98) keeps a 2^24-entry first
//! table indexed by the top 24 address bits; prefixes longer than /24
//! spill into 256-entry second-level tables. Lookups take one memory
//! access for the common case and two for long prefixes — which is
//! exactly the access pattern the reference stream reports. That flat
//! 64 MB tbl24 is the *modeled* layout; the host keeps it as runs of
//! equal entries, which a lookup's reported address cannot see.

use rand::Rng;
use rand::SeedableRng;
use snic_types::{ByteSize, Packet};

use crate::common::{layout, AccessKind, AccessSink, NetworkFunction, NfKind, Verdict};
use crate::profile::{paper_profile, vec_bytes, MemoryProfile};

/// Entry flag: the low 15 bits index a tbl8 segment instead of a hop.
const EXTEND_FLAG: u32 = 1 << 31;
/// "No route" marker.
const INVALID: u32 = !EXTEND_FLAG;

/// A routing prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prefix {
    /// Network address.
    pub addr: u32,
    /// Prefix length, 0–32.
    pub len: u8,
    /// Next-hop identifier (must be < 2^24 so it fits an entry).
    pub next_hop: u32,
}

/// Entries of the modeled tbl24, one per /24.
const TBL24_ENTRIES: u32 = 1 << 24;

/// The DIR-24-8 table.
///
/// tbl24 is held run-length encoded as `(first /24, entry)` per run: a
/// run lasts up to the next one's start (the last up to 2^24), the first
/// starts at 0, starts strictly increase, and no two neighbouring runs
/// hold one entry.
#[derive(Debug)]
pub struct Dir24_8 {
    tbl24: Vec<(u32, u32)>,
    tbl8: Vec<u32>,
}

impl Dir24_8 {
    /// Build the finished table for `prefixes`. Longer prefixes
    /// override shorter ones; of two prefixes of one length covering an
    /// address, the later in `prefixes` wins. tbl24 costs what the
    /// prefixes cut it into — at most `2 × prefixes + 1` runs — not the
    /// 2^24 entries DPDK allocates; [`Dir24_8::table_bytes`] still
    /// reports those, which is LPM's Table 6 footprint.
    ///
    /// Every prefix's edges in tbl24 (a ≤ /24 prefix's span, a longer
    /// one's single /24) cut the index space into elementary runs no
    /// prefix splits. The runs are painted in stable ascending-length
    /// order, so "longer and later wins" is plain overwrite and no record
    /// of the length that painted a run is kept. tbl8 segments, though,
    /// are numbered in the order `prefixes` first sends a longer-than-/24
    /// prefix into each /24: a segment number is part of the addresses
    /// [`Dir24_8::lookup`] reports, so it must not depend on the sort.
    /// Equal neighbouring runs are merged last.
    ///
    /// # Panics
    ///
    /// Panics if a prefix has `len > 32` or a `next_hop` that does not
    /// fit 24 bits.
    pub fn build(prefixes: &[Prefix]) -> Dir24_8 {
        for p in prefixes {
            // Unreachable: non-test prefixes are `synth_prefixes` output (/8–/32, hop < 2^24).
            assert!(p.len <= 32, "prefix length out of range");
            assert!(p.next_hop < (1 << 24), "next hop too large");
        }
        // The /24 span a prefix paints in tbl24.
        let span = |p: &Prefix| {
            let base = mask(p.addr, p.len.min(24)) >> 8;
            [base, base + (1 << (24 - p.len.min(24)))]
        };
        let mut edges: Vec<u32> = prefixes
            .iter()
            .flat_map(span)
            .chain([0, TBL24_ENTRIES])
            .collect();
        edges.sort_unstable();
        edges.dedup();
        // The elementary run starting at edge `i`.
        let run = |i: u32| edges.partition_point(|&e| e < i);

        let mut by_len: Vec<&Prefix> = prefixes.iter().collect();
        by_len.sort_by_key(|p| p.len);
        let (short, long) = by_len.split_at(by_len.partition_point(|p| p.len <= 24));
        let mut runs = vec![INVALID; edges.len() - 1];
        for p in short {
            let [base, end] = span(p);
            runs[run(base)..run(end)].fill(p.next_hop);
        }
        let mut tbl8 = Vec::new();
        for p in prefixes.iter().filter(|p| p.len > 24) {
            let slot = &mut runs[run(p.addr >> 8)];
            if *slot & EXTEND_FLAG == 0 {
                // A new segment starts as the /<=24 route it refines.
                let seg = (tbl8.len() / 256) as u32;
                tbl8.extend(std::iter::repeat_n(*slot, 256));
                *slot = EXTEND_FLAG | seg;
            }
        }
        for p in long {
            let seg = (runs[run(p.addr >> 8)] & !EXTEND_FLAG) as usize;
            let base = seg * 256 + (mask(p.addr, p.len) & 0xff) as usize;
            tbl8[base..base + (1 << (32 - p.len))].fill(p.next_hop);
        }

        let mut tbl24: Vec<(u32, u32)> = edges.into_iter().zip(runs).collect();
        tbl24.dedup_by_key(|&mut (_, e)| e);
        Dir24_8 { tbl24, tbl8 }
    }

    /// Look up `addr`, reporting table touches to `sink`. The tbl24 touch
    /// is the modeled flat table's entry, whatever run holds it.
    pub fn lookup(&self, addr: u32, sink: &mut dyn AccessSink) -> Option<u32> {
        let i = addr >> 8;
        sink.touch(layout::HEAP_BASE + u64::from(i) * 4, AccessKind::Load, 80);
        let (_, e) = self.tbl24[self.tbl24.partition_point(|&(start, _)| start <= i) - 1];
        let hop = if e & EXTEND_FLAG != 0 {
            let seg = (e & !EXTEND_FLAG) as usize;
            let idx = seg * 256 + (addr & 0xff) as usize;
            sink.touch(
                layout::HEAP_BASE + 0x400_0000 + (idx as u64) * 4,
                AccessKind::Load,
                40,
            );
            self.tbl8[idx]
        } else {
            e
        };
        if hop == INVALID {
            None
        } else {
            Some(hop)
        }
    }

    /// Number of allocated tbl8 segments.
    pub fn tbl8_segments(&self) -> usize {
        self.tbl8.len() / 256
    }

    /// Bytes of the modeled tables: the flat 2^24-entry tbl24 plus the
    /// tbl8 segments.
    pub fn table_bytes(&self) -> ByteSize {
        ByteSize(vec_bytes(TBL24_ENTRIES as usize, 4) + vec_bytes(self.tbl8.len(), 4))
    }
}

fn mask(addr: u32, len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        addr & (u32::MAX << (32 - u32::from(len)))
    }
}

/// Generate `count` random prefixes as NetBricks does (random address,
/// random length 8–32, random hop).
pub fn synth_prefixes(count: usize, seed: u64) -> Vec<Prefix> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| Prefix {
            addr: rng.random(),
            len: rng.random_range(8..=32),
            next_hop: rng.random_range(0..1 << 24),
        })
        .collect()
}

/// The LPM network function.
#[derive(Debug)]
pub struct LpmNf {
    table: Dir24_8,
    routed: u64,
    unrouted: u64,
}

impl LpmNf {
    /// Build from explicit prefixes.
    pub fn new(prefixes: &[Prefix]) -> LpmNf {
        LpmNf {
            table: Dir24_8::build(prefixes),
            routed: 0,
            unrouted: 0,
        }
    }

    /// The paper's configuration: 16,000 random rules.
    pub fn with_defaults(seed: u64) -> LpmNf {
        LpmNf::new(&synth_prefixes(16_000, seed))
    }

    /// Packets with a route.
    pub fn routed(&self) -> u64 {
        self.routed
    }

    /// Packets with no matching prefix.
    pub fn unrouted(&self) -> u64 {
        self.unrouted
    }

    /// The underlying table.
    pub fn table(&self) -> &Dir24_8 {
        &self.table
    }
}

impl NetworkFunction for LpmNf {
    fn kind(&self) -> NfKind {
        NfKind::Lpm
    }

    fn process(&mut self, pkt: &Packet, sink: &mut dyn AccessSink) -> Verdict {
        sink.touch(layout::PKTBUF_BASE, AccessKind::Load, 150);
        let Ok(ip) = pkt.ipv4() else {
            return Verdict::Drop;
        };
        match self.table.lookup(ip.dst, sink) {
            Some(hop) => {
                self.routed += 1;
                Verdict::Steer(hop)
            }
            None => {
                self.unrouted += 1;
                Verdict::Drop
            }
        }
    }

    fn dataflow_ir(&self) -> snic_verify::pass0::NfProgram {
        crate::lowering::lpm_ir(self)
    }

    fn memory_profile(&self) -> MemoryProfile {
        MemoryProfile {
            heap_stack: self.table.table_bytes(),
            ..paper_profile(NfKind::Lpm)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{NullSink, RecordingSink};
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn p(addr: u32, len: u8, hop: u32) -> Prefix {
        Prefix {
            addr,
            len,
            next_hop: hop,
        }
    }

    impl Dir24_8 {
        /// tbl24 as the flat 2^24-entry table its runs stand for.
        fn expanded_tbl24(&self) -> Vec<u32> {
            let mut flat = Vec::with_capacity(TBL24_ENTRIES as usize);
            for (k, &(_, e)) in self.tbl24.iter().enumerate() {
                let end = self.tbl24.get(k + 1).map_or(TBL24_ENTRIES, |&(s, _)| s);
                flat.resize(end as usize, e);
            }
            flat
        }
    }

    /// The flat-table algorithm `Dir24_8::build` replaced, kept as its
    /// oracle: prefixes inserted one at a time in the caller's order
    /// into a 2^24-entry tbl24, with a per-entry record of the prefix
    /// length that painted it deciding every overlap.
    struct OrderedInserts {
        tbl24: Vec<u32>,
        tbl8: Vec<u32>,
        depth24: Vec<u8>,
        depth8: Vec<u8>,
    }

    impl OrderedInserts {
        fn of(prefixes: &[Prefix]) -> OrderedInserts {
            let mut t = OrderedInserts {
                tbl24: vec![INVALID; 1 << 24],
                tbl8: Vec::new(),
                depth24: vec![0; 1 << 24],
                depth8: Vec::new(),
            };
            for &p in prefixes {
                t.insert(p);
            }
            t
        }

        fn insert(&mut self, p: Prefix) {
            if p.len <= 24 {
                let shift = 24 - u32::from(p.len);
                let base = (mask(p.addr, p.len) >> 8) as usize;
                let count = 1usize << shift;
                for i in base..base + count {
                    match self.tbl24[i] {
                        e if e & EXTEND_FLAG != 0 => {
                            // Push into the existing tbl8 segment where shorter.
                            let seg = (e & !EXTEND_FLAG) as usize;
                            for j in 0..256 {
                                let idx = seg * 256 + j;
                                if self.depth8[idx] <= p.len {
                                    self.tbl8[idx] = p.next_hop;
                                    self.depth8[idx] = p.len;
                                }
                            }
                        }
                        _ => {
                            if self.depth24[i] <= p.len {
                                self.tbl24[i] = p.next_hop;
                                self.depth24[i] = p.len;
                            }
                        }
                    }
                }
            } else {
                let i = (mask(p.addr, 24) >> 8) as usize;
                let seg = match self.tbl24[i] {
                    e if e & EXTEND_FLAG != 0 => (e & !EXTEND_FLAG) as usize,
                    old => {
                        // Allocate a segment seeded with the old /<=24 entry.
                        let seg = self.tbl8.len() / 256;
                        self.tbl8.extend(std::iter::repeat_n(old, 256));
                        self.depth8
                            .extend(std::iter::repeat_n(self.depth24[i], 256));
                        self.tbl24[i] = EXTEND_FLAG | seg as u32;
                        seg
                    }
                };
                let low_bits = 32 - u32::from(p.len);
                let base = (mask(p.addr, p.len) & 0xff) as usize;
                for j in base..base + (1usize << low_bits) {
                    let idx = seg * 256 + j;
                    if self.depth8[idx] <= p.len {
                        self.tbl8[idx] = p.next_hop;
                        self.depth8[idx] = p.len;
                    }
                }
            }
        }

        /// The flat table's lookup, touches included.
        fn lookup(&self, addr: u32, sink: &mut dyn AccessSink) -> Option<u32> {
            let i = (addr >> 8) as usize;
            sink.touch(layout::HEAP_BASE + (i as u64) * 4, AccessKind::Load, 80);
            let mut e = self.tbl24[i];
            if e & EXTEND_FLAG != 0 {
                let idx = (e & !EXTEND_FLAG) as usize * 256 + (addr & 0xff) as usize;
                sink.touch(
                    layout::HEAP_BASE + 0x400_0000 + (idx as u64) * 4,
                    AccessKind::Load,
                    40,
                );
                e = self.tbl8[idx];
            }
            (e != INVALID).then_some(e)
        }

        /// The flat table's resident bytes.
        fn table_bytes(&self) -> ByteSize {
            ByteSize(vec_bytes(self.tbl24.len(), 4) + vec_bytes(self.tbl8.len(), 4))
        }
    }

    /// Both tbl8s equal, and every one of the 2^24 tbl24 entries.
    fn assert_same_tables(prefixes: &[Prefix], what: &str) {
        let (built, oracle) = (Dir24_8::build(prefixes), OrderedInserts::of(prefixes));
        assert!(built.tbl8 == oracle.tbl8, "tbl8 differs, {what}");
        assert!(
            built.expanded_tbl24() == oracle.tbl24,
            "tbl24 differs, {what}"
        );
    }

    #[test]
    fn bulk_build_equals_ordered_inserts() {
        let adversarial = [
            // Duplicate prefixes with different hops, at both levels.
            p(0x0a0b0000, 16, 1),
            p(0x0a0b0000, 16, 2),
            p(0xc0a80180, 25, 3),
            p(0xc0a80180, 25, 4),
            // A <=24 prefix arriving after a >24 one in the same /24.
            p(0x0b000105, 32, 5),
            p(0x0b000100, 24, 6),
            p(0x0b000000, 8, 7),
            // Nested >24 prefixes, longest first and longest last.
            p(0x0c000141, 32, 8),
            p(0x0c000140, 28, 9),
            p(0x0c000100, 25, 10),
            p(0x0d000100, 25, 11),
            p(0x0d000140, 28, 12),
            p(0x0d000141, 32, 13),
            // A second segment allocated before the first one's /24 is
            // revisited, so segment numbering is exercised.
            p(0x0c0001f0, 30, 14),
            // /0 after everything, /32 at the very top of the space.
            p(0, 0, 15),
            p(0xffff_ffff, 32, 16),
        ];
        for seed in [5, 0xf15a] {
            let mut prefixes = synth_prefixes(600, seed);
            // Interleave so the extras meet the seeded prefixes on both
            // sides.
            for (i, extra) in adversarial.iter().enumerate() {
                prefixes.insert(i * 37, *extra);
            }
            assert!(Dir24_8::build(&prefixes).tbl8_segments() > 3);
            assert_same_tables(&prefixes, &format!("seed {seed}"));
        }
        let reversed: Vec<Prefix> = adversarial.iter().rev().copied().collect();
        assert_same_tables(&reversed, "adversarial, reversed");
        assert_same_tables(&synth_prefixes(16_000, 0xf15a), "16 000 prefixes");
    }

    #[test]
    fn runs_are_maximal_and_bounded() {
        for prefixes in [Vec::new(), synth_prefixes(16_000, 0xf15a)] {
            let t = Dir24_8::build(&prefixes);
            assert_eq!(t.tbl24[0].0, 0);
            assert!(t
                .tbl24
                .windows(2)
                .all(|w| w[0].0 < w[1].0 && w[0].1 != w[1].1));
            assert!(t.tbl24.len() <= 2 * prefixes.len() + 1);
        }
        // Sibling /17s with one hop, and a /24 with its /16's hop, merge.
        let t = Dir24_8::build(&[
            p(0x0a00_0000, 17, 7),
            p(0x0a00_8000, 17, 7),
            p(0x0b00_0000, 16, 8),
            p(0x0b00_0100, 24, 8),
        ]);
        let want = [
            (0, INVALID),
            (0x0a_0000, 7),
            (0x0a_0100, INVALID),
            (0x0b_0000, 8),
            (0x0b_0100, INVALID),
        ];
        assert_eq!(t.tbl24, want);
    }

    /// /24s that many generated prefixes land in, so > /24 routes nest
    /// and meet the ≤ /24 routes around them.
    const HOT: [u32; 3] = [0x0a00_0100, 0x0a00_0200, 0xc0a8_0100];

    /// Prefix lists with /0s, /32s, nested > /24s and duplicates (a
    /// listed prefix again, with another hop).
    fn prefix_lists() -> impl Strategy<Value = Vec<Prefix>> {
        let one =
            (0usize..6, any::<u32>(), 0u8..=32, 0u32..1 << 24).prop_map(|(pick, r, len, hop)| {
                p(HOT.get(pick).map_or(r, |&h| h | (r & 0xff)), len, hop)
            });
        let dups = vec((any::<u32>(), 0u32..1 << 24), 0..4);
        (vec(one, 1..40), dups).prop_map(|(mut list, dups)| {
            for (i, hop) in dups {
                let again = Prefix {
                    next_hop: hop,
                    ..list[i as usize % list.len()]
                };
                list.push(again);
            }
            list
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// In either order, a list's lookups return the flat oracle's
        /// hops with its touches, probed at random and at every run edge
        /// ±1, and report the flat table's bytes.
        #[test]
        fn runs_answer_and_touch_as_the_flat_table(
            list in prefix_lists(),
            probes in vec(any::<u32>(), 1..64),
        ) {
            for prefixes in [list.clone(), list.iter().rev().copied().collect()] {
                let (built, oracle) = (Dir24_8::build(&prefixes), OrderedInserts::of(&prefixes));
                prop_assert_eq!(built.table_bytes(), oracle.table_bytes());
                let low = probes[0] & 0xff;
                let edges = built
                    .tbl24
                    .iter()
                    .flat_map(|&(s, _)| [s.wrapping_sub(1), s, s + 1])
                    .filter(|&i| i < TBL24_ENTRIES)
                    .flat_map(|i| [i << 8, i << 8 | low, i << 8 | 0xff]);
                for addr in probes.iter().copied().chain(edges) {
                    let (mut got, mut want) = (RecordingSink::new(), RecordingSink::new());
                    prop_assert_eq!(
                        built.lookup(addr, &mut got),
                        oracle.lookup(addr, &mut want),
                        "addr {:#010x}",
                        addr
                    );
                    prop_assert_eq!(got.accesses(), want.accesses());
                }
            }
        }
    }

    #[test]
    fn exact_slash24_route() {
        let t = Dir24_8::build(&[p(0x0a000100, 24, 7)]);
        assert_eq!(t.lookup(0x0a000100, &mut NullSink), Some(7));
        assert_eq!(t.lookup(0x0a0001ff, &mut NullSink), Some(7));
        assert_eq!(t.lookup(0x0a000200, &mut NullSink), None);
    }

    #[test]
    fn longest_prefix_wins_within_tbl24() {
        let t = Dir24_8::build(&[p(0x0a000000, 8, 1), p(0x0a0b0000, 16, 2)]);
        assert_eq!(t.lookup(0x0a0b0105, &mut NullSink), Some(2));
        assert_eq!(t.lookup(0x0a0c0105, &mut NullSink), Some(1));
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let a = Dir24_8::build(&[p(0x0a000000, 8, 1), p(0x0a0b0000, 16, 2)]);
        let b = Dir24_8::build(&[p(0x0a0b0000, 16, 2), p(0x0a000000, 8, 1)]);
        for probe in [0x0a0b0105u32, 0x0a0c0105, 0x0b000000] {
            assert_eq!(
                a.lookup(probe, &mut NullSink),
                b.lookup(probe, &mut NullSink)
            );
        }
    }

    #[test]
    fn slash32_route_via_tbl8() {
        let t = Dir24_8::build(&[p(0x0a000000, 8, 1), p(0x0a000105, 32, 9)]);
        assert_eq!(t.lookup(0x0a000105, &mut NullSink), Some(9));
        // Neighbors in the same /24 fall back to the covering /8.
        assert_eq!(t.lookup(0x0a000106, &mut NullSink), Some(1));
        assert_eq!(t.tbl8_segments(), 1);
    }

    #[test]
    fn long_prefix_then_short_overlay() {
        // A /32 listed first, then a /16 that covers it: /32 must survive.
        let t = Dir24_8::build(&[p(0x0a000105, 32, 9), p(0x0a000000, 16, 1)]);
        assert_eq!(t.lookup(0x0a000105, &mut NullSink), Some(9));
        assert_eq!(t.lookup(0x0a000106, &mut NullSink), Some(1));
    }

    #[test]
    fn lookup_agrees_with_naive_scan() {
        let prefixes = synth_prefixes(300, 5);
        let t = Dir24_8::build(&prefixes);
        let naive = |addr: u32| {
            prefixes
                .iter()
                .filter(|x| mask(addr, x.len) == mask(x.addr, x.len))
                .max_by_key(|x| x.len)
                .map(|x| x.next_hop)
        };
        let mut rng_state = 0x1234_5678u32;
        for _ in 0..2000 {
            rng_state = rng_state
                .wrapping_mul(1_664_525)
                .wrapping_add(1_013_904_223);
            let addr = rng_state;
            let got = t.lookup(addr, &mut NullSink);
            let want = naive(addr);
            // Ties between equal-length prefixes may resolve either way;
            // compare only when the naive answer is unambiguous.
            let candidates: Vec<_> = prefixes
                .iter()
                .filter(|x| mask(addr, x.len) == mask(x.addr, x.len))
                .collect();
            let max_len = candidates.iter().map(|x| x.len).max();
            let ambiguous = candidates.iter().filter(|x| Some(x.len) == max_len).count() > 1;
            if !ambiguous {
                assert_eq!(got, want, "addr {addr:#010x}");
            }
        }
    }

    #[test]
    fn default_route_matches_everything() {
        let t = Dir24_8::build(&[p(0, 0, 42)]);
        assert_eq!(t.lookup(0xffff_ffff, &mut NullSink), Some(42));
        assert_eq!(t.lookup(0, &mut NullSink), Some(42));
    }

    #[test]
    fn tbl24_lookup_touches_one_address_tbl8_two() {
        let t = Dir24_8::build(&[p(0x0a000000, 16, 1), p(0x0b000105, 32, 2)]);
        let mut s1 = RecordingSink::new();
        let _ = t.lookup(0x0a000001, &mut s1);
        assert_eq!(s1.accesses().len(), 1);
        let mut s2 = RecordingSink::new();
        let _ = t.lookup(0x0b000105, &mut s2);
        assert_eq!(s2.accesses().len(), 2);
    }

    #[test]
    fn table_bytes_dominated_by_tbl24() {
        let t = Dir24_8::build(&[]);
        assert_eq!(t.table_bytes(), ByteSize((1u64 << 24) * 4));
        // What the flat table reported for these: tbl24 and 5 231 segments.
        let paper = Dir24_8::build(&synth_prefixes(16_000, 0xf15a));
        assert_eq!(paper.table_bytes(), ByteSize(72_465_408));
    }

    #[test]
    fn nf_routes_and_counts() {
        use snic_types::packet::PacketBuilder;
        use snic_types::Protocol;
        let mut nf = LpmNf::new(&[p(0xc6330000, 16, 3)]);
        let hit = PacketBuilder::new(1, 0xc633_0007, Protocol::Udp, 1, 2).build();
        let miss = PacketBuilder::new(1, 0x0101_0101, Protocol::Udp, 1, 2).build();
        assert_eq!(nf.process(&hit, &mut NullSink), Verdict::Steer(3));
        assert_eq!(nf.process(&miss, &mut NullSink), Verdict::Drop);
        assert_eq!((nf.routed(), nf.unrouted()), (1, 1));
    }

    #[test]
    fn default_profile_close_to_paper_64mb() {
        let nf = LpmNf::with_defaults(1);
        let heap = nf.memory_profile().heap_stack.as_mib_f64();
        // Paper: 64.90 MB. tbl24 alone is 64 MB; tbl8 segments add a bit.
        assert!((64.0..70.0).contains(&heap), "heap = {heap} MiB");
    }
}
