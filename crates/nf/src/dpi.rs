//! Deep packet inspection (DPI) via Aho-Corasick multi-pattern matching.
//!
//! §5.1: "A pattern-matching application that uses the Aho-Corasick
//! algorithm ... We use 33,471 patterns extracted from six open source
//! rulesets." The rulesets are not redistributable, so patterns are
//! synthesized with a realistic length distribution; the automaton itself
//! is a complete from-scratch Aho-Corasick implementation (trie + BFS
//! failure links + dictionary suffix links).
//!
//! The matcher walk doubles as the DPI reference stream: each visited
//! node reports a load of its node record, giving the uarch engine the
//! true locality of the automaton (hot shallow nodes, cold deep nodes).

use rand::Rng;
use rand::SeedableRng;
use snic_types::{ByteSize, Packet};

use crate::common::{layout, AccessKind, AccessSink, DetHashSet, NetworkFunction, NfKind, Verdict};
use crate::profile::{paper_profile, MemoryProfile};

/// Modeled bytes per automaton node record (for stream addresses and the
/// memory profile): transitions, failure link, dictionary link, output
/// count.
pub(crate) const NODE_BYTES: u64 = 96;

/// One state of the automaton while it is built.
#[derive(Debug, Clone)]
struct Node {
    /// Sorted `(byte, next)` transitions.
    children: Vec<(u8, u32)>,
    /// Failure link.
    fail: u32,
    /// Dictionary suffix link (nearest ancestor-by-fail that is a match).
    dict: u32,
    /// Number of patterns ending exactly here.
    matches_here: u32,
}

impl Node {
    fn new() -> Node {
        Node {
            children: Vec::new(),
            fail: 0,
            dict: 0,
            matches_here: 0,
        }
    }

    fn child(&self, b: u8) -> Option<u32> {
        self.children
            .binary_search_by_key(&b, |&(c, _)| c)
            .ok()
            .map(|i| self.children[i].1)
    }
}

/// The automaton as built: a trie of [`Node`]s with its failure and
/// dictionary links, states numbered in first-seen order.
#[derive(Debug)]
struct Trie {
    nodes: Vec<Node>,
    pattern_count: usize,
    max_depth: usize,
}

impl Trie {
    fn build(patterns: &[Vec<u8>]) -> Trie {
        let mut nodes = vec![Node::new()];
        let mut pattern_count = 0;
        let mut max_depth = 0usize;
        // Phase 1: trie.
        for pat in patterns {
            if pat.is_empty() {
                continue;
            }
            pattern_count += 1;
            max_depth = max_depth.max(pat.len());
            let mut cur = 0u32;
            for &b in pat {
                cur = match nodes[cur as usize].child(b) {
                    Some(next) => next,
                    None => {
                        let next = nodes.len() as u32;
                        nodes.push(Node::new());
                        let pos = nodes[cur as usize]
                            .children
                            .binary_search_by_key(&b, |&(c, _)| c)
                            .unwrap_err();
                        nodes[cur as usize].children.insert(pos, (b, next));
                        next
                    }
                };
            }
            nodes[cur as usize].matches_here += 1;
        }
        // Phase 2: BFS failure + dictionary links.
        let mut queue = std::collections::VecDeque::new();
        queue.extend(nodes[0].children.iter().map(|&(_, c)| c));
        while let Some(u) = queue.pop_front() {
            let u_fail = nodes[u as usize].fail;
            nodes[u as usize].dict = if nodes[u_fail as usize].matches_here > 0 {
                u_fail
            } else {
                nodes[u_fail as usize].dict
            };
            for i in 0..nodes[u as usize].children.len() {
                let (b, v) = nodes[u as usize].children[i];
                // Find fail(v): deepest proper suffix with a b-transition.
                let mut f = u_fail;
                let fv = loop {
                    if let Some(next) = nodes[f as usize].child(b) {
                        break next;
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = nodes[f as usize].fail;
                };
                nodes[v as usize].fail = fv;
                queue.push_back(v);
            }
        }
        Trie {
            nodes,
            pattern_count,
            max_depth,
        }
    }
}

/// A built Aho-Corasick automaton, frozen into flat arrays indexed by
/// state: no state owns an allocation, and a transition is one bitmap
/// probe.
#[derive(Debug)]
pub struct AhoCorasick {
    /// Byte → class. Pattern bytes get classes in byte order from 1;
    /// every other byte is class 0, which no state has an edge for.
    /// (When every byte occurs in some pattern, classes start at 0.)
    class: [u8; 256],
    /// 64-bit bitmap words per state, as many as the classes need.
    words: usize,
    /// `words` words per state: bit `c` is set when the state has an
    /// edge on class `c`.
    mask: Box<[u64]>,
    /// Per state: the index in `next` of its lowest-class edge.
    first: Box<[u32]>,
    /// Edge targets, each state's in class order: the child on class `c`
    /// is `next[first + (edges below c)]`.
    next: Box<[u32]>,
    /// Failure link per state.
    fail: Box<[u32]>,
    /// Dictionary suffix link per state (nearest ancestor-by-fail that
    /// is a match).
    dict: Box<[u32]>,
    /// Number of patterns ending exactly at each state.
    matches: Box<[u32]>,
    /// Per state: `matches > 0 || dict != 0`, i.e. the dictionary walk
    /// from here reports something.
    out: Box<[bool]>,
    pattern_count: usize,
    /// Trie depth = longest compiled pattern; bounds every failure-link
    /// and dictionary-link walk (links strictly decrease depth).
    max_depth: usize,
}

impl AhoCorasick {
    /// Build the automaton from `patterns`. Empty patterns are ignored.
    pub fn build(patterns: &[Vec<u8>]) -> AhoCorasick {
        AhoCorasick::freeze(&Trie::build(patterns))
    }

    fn freeze(trie: &Trie) -> AhoCorasick {
        let nodes = &trie.nodes;
        // Mark the pattern bytes, then number them in byte order.
        let mut class = [0u8; 256];
        for &(b, _) in nodes.iter().flat_map(|n| &n.children) {
            class[usize::from(b)] = 1;
        }
        let used = class.iter().filter(|&&c| c != 0).count();
        let mut next_class = usize::from(used < 256);
        for c in class.iter_mut().filter(|c| **c != 0) {
            *c = next_class as u8;
            next_class += 1;
        }
        let words = next_class.div_ceil(64);
        let mut mask = vec![0u64; nodes.len() * words];
        let mut first = Vec::with_capacity(nodes.len());
        let mut next = Vec::with_capacity(nodes.len().saturating_sub(1));
        for (state, node) in nodes.iter().enumerate() {
            first.push(next.len() as u32);
            let row = &mut mask[state * words..][..words];
            // Children are sorted by byte, and classes follow byte order.
            for &(b, child) in &node.children {
                let c = class[usize::from(b)];
                row[usize::from(c) / 64] |= 1 << (c % 64);
                next.push(child);
            }
        }
        let fail: Box<[u32]> = nodes.iter().map(|n| n.fail).collect();
        let dict: Box<[u32]> = nodes.iter().map(|n| n.dict).collect();
        let matches: Box<[u32]> = nodes.iter().map(|n| n.matches_here).collect();
        let out = nodes
            .iter()
            .map(|n| n.matches_here > 0 || n.dict != 0)
            .collect();
        AhoCorasick {
            class,
            words,
            mask: mask.into_boxed_slice(),
            first: first.into_boxed_slice(),
            next: next.into_boxed_slice(),
            fail,
            dict,
            matches,
            out,
            pattern_count: trie.pattern_count,
            max_depth: trie.max_depth,
        }
    }

    /// The child of `state` on `class`, if it has that edge.
    #[inline]
    fn child(&self, state: u32, class: u8) -> Option<u32> {
        let row = &self.mask[state as usize * self.words..][..self.words];
        let (word, bit) = (usize::from(class) / 64, 1u64 << (class % 64));
        if row[word] & bit == 0 {
            return None;
        }
        let below: u32 = row[..word].iter().map(|w| w.count_ones()).sum();
        let rank = below + (row[word] & (bit - 1)).count_ones();
        Some(self.next[(self.first[state as usize] + rank) as usize])
    }

    /// Number of automaton states.
    pub fn node_count(&self) -> usize {
        self.fail.len()
    }

    /// Trie depth (longest compiled pattern), bounding link walks.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Number of patterns compiled in.
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// Modeled graph size in bytes (what the accelerator profile reports).
    pub fn graph_bytes(&self) -> ByteSize {
        ByteSize(self.node_count() as u64 * NODE_BYTES)
    }

    /// Scan `haystack`, returning the total number of pattern occurrences.
    /// Every node visit reports a load to `sink`.
    pub fn scan(&self, haystack: &[u8], sink: &mut dyn AccessSink) -> u64 {
        let mut total = 0u64;
        let mut cur = 0u32;
        for &b in haystack {
            let class = self.class[usize::from(b)];
            // Follow failure links until a transition exists.
            loop {
                sink.touch(node_addr(cur), AccessKind::Load, 6);
                match self.child(cur, class) {
                    Some(next) => {
                        cur = next;
                        break;
                    }
                    None if cur == 0 => break,
                    None => cur = self.fail[cur as usize],
                }
            }
            // Count matches ending at this position via dictionary links.
            if self.out[cur as usize] {
                let mut m = cur;
                while m != 0 {
                    let here = self.matches[m as usize];
                    if here > 0 {
                        total += u64::from(here);
                        sink.touch(node_addr(m), AccessKind::Load, 4);
                    }
                    m = self.dict[m as usize];
                }
            }
        }
        total
    }
}

/// The modeled address of state `id`'s node record.
#[inline]
fn node_addr(id: u32) -> u64 {
    layout::HEAP_BASE + u64::from(id) * NODE_BYTES
}

/// Synthesize a ruleset-shaped pattern list: mostly short ASCII tokens
/// with a heavy tail of longer signatures (Snort content strings are
/// typically 4–30 bytes).
pub fn synth_patterns(count: usize, seed: u64) -> Vec<Vec<u8>> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789/._-%";
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    let mut seen = DetHashSet::with_capacity_and_hasher(count, Default::default());
    while out.len() < count {
        let len = 4 + (rng.random::<f64>().powi(2) * 26.0) as usize;
        let pat: Vec<u8> = (0..len)
            .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
            .collect();
        if seen.insert(pat.clone()) {
            out.push(pat);
        }
    }
    out
}

/// The DPI network function.
#[derive(Debug)]
pub struct DpiNf {
    automaton: AhoCorasick,
    total_matches: u64,
    packets: u64,
}

impl DpiNf {
    /// Build from an explicit pattern list.
    pub fn new(patterns: &[Vec<u8>]) -> DpiNf {
        DpiNf {
            automaton: AhoCorasick::build(patterns),
            total_matches: 0,
            packets: 0,
        }
    }

    /// The paper's configuration: 33,471 patterns.
    pub fn with_defaults(seed: u64) -> DpiNf {
        DpiNf::new(&synth_patterns(33_471, seed))
    }

    /// Smaller build for quick tests and examples.
    pub fn with_small(seed: u64) -> DpiNf {
        DpiNf::new(&synth_patterns(2_000, seed))
    }

    /// Total signature occurrences seen.
    pub fn total_matches(&self) -> u64 {
        self.total_matches
    }

    /// The underlying automaton.
    pub fn automaton(&self) -> &AhoCorasick {
        &self.automaton
    }
}

impl NetworkFunction for DpiNf {
    fn kind(&self) -> NfKind {
        NfKind::Dpi
    }

    fn process(&mut self, pkt: &Packet, sink: &mut dyn AccessSink) -> Verdict {
        self.packets += 1;
        sink.touch(layout::PKTBUF_BASE, AccessKind::Load, 120);
        let payload = pkt.payload();
        // Payload is streamed from the packet buffer: one load per line.
        for line in 0..(payload.len() as u64).div_ceil(64) {
            sink.touch(layout::PKTBUF_BASE + 64 + line * 64, AccessKind::Load, 3);
        }
        let matches = self.automaton.scan(payload, sink);
        self.total_matches += matches;
        Verdict::Matched(matches as u32)
    }

    fn dataflow_ir(&self) -> snic_verify::pass0::NfProgram {
        crate::lowering::dpi_ir(self)
    }

    fn memory_profile(&self) -> MemoryProfile {
        MemoryProfile {
            heap_stack: self.automaton.graph_bytes(),
            ..paper_profile(NfKind::Dpi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{NullSink, RecordingSink};
    use proptest::prelude::*;
    use snic_types::packet::PacketBuilder;
    use snic_types::Protocol;

    /// The oracle: the walk as it runs over the built [`Trie`], a sorted
    /// child list searched at every visit. The frozen [`AhoCorasick::scan`]
    /// must make the same visits in the same order.
    fn oracle_scan(trie: &Trie, haystack: &[u8], sink: &mut dyn AccessSink) -> u64 {
        let nodes = &trie.nodes;
        let mut total = 0u64;
        let mut cur = 0u32;
        for &b in haystack {
            loop {
                sink.touch(node_addr(cur), AccessKind::Load, 6);
                if let Some(next) = nodes[cur as usize].child(b) {
                    cur = next;
                    break;
                }
                if cur == 0 {
                    break;
                }
                cur = nodes[cur as usize].fail;
            }
            let mut m = cur;
            while m != 0 {
                let node = &nodes[m as usize];
                if node.matches_here > 0 {
                    total += u64::from(node.matches_here);
                    sink.touch(node_addr(m), AccessKind::Load, 4);
                }
                m = node.dict;
            }
        }
        total
    }

    /// [`DpiNf::process`] with the oracle walk: header, payload lines,
    /// then the scan.
    fn oracle_process(trie: &Trie, pkt: &Packet, sink: &mut dyn AccessSink) -> u64 {
        sink.touch(layout::PKTBUF_BASE, AccessKind::Load, 120);
        let payload = pkt.payload();
        for line in 0..(payload.len() as u64).div_ceil(64) {
            sink.touch(layout::PKTBUF_BASE + 64 + line * 64, AccessKind::Load, 3);
        }
        oracle_scan(trie, payload, sink)
    }

    /// The frozen automaton and the oracle agree on `patterns` over
    /// `haystack`: state count, every event, the match count, and the
    /// same again through the NF.
    fn assert_matches_oracle(patterns: &[Vec<u8>], haystack: &[u8]) -> Result<(), TestCaseError> {
        let trie = Trie::build(patterns);
        let frozen = AhoCorasick::freeze(&trie);
        prop_assert_eq!(frozen.node_count(), trie.nodes.len());
        let (mut want, mut got) = (RecordingSink::new(), RecordingSink::new());
        let n = oracle_scan(&trie, haystack, &mut want);
        prop_assert_eq!(frozen.scan(haystack, &mut got), n);
        prop_assert_eq!(got.accesses(), want.accesses());

        let pkt = PacketBuilder::new(1, 2, Protocol::Tcp, 1, 2)
            .payload(haystack.to_vec())
            .build();
        let (mut want, mut got) = (RecordingSink::new(), RecordingSink::new());
        let n = oracle_process(&trie, &pkt, &mut want);
        let mut nf = DpiNf::new(patterns);
        prop_assert_eq!(nf.process(&pkt, &mut got), Verdict::Matched(n as u32));
        prop_assert_eq!(got.accesses(), want.accesses());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random pattern sets over alphabets of 3 to 256 bytes (so one
        /// to five bitmap words), with duplicates and nested prefixes and
        /// suffixes of drawn patterns, empty and single-byte patterns
        /// among them, scanned over text that strays outside the
        /// alphabet, and over nothing.
        #[test]
        fn frozen_walk_equals_the_oracle(
            width in prop_oneof![Just(3u16), Just(41), Just(90), Just(256)],
            raw in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..8), 0..48),
            nest in prop::collection::vec(any::<u16>(), 0..12),
            text in prop::collection::vec(any::<u8>(), 0..400),
        ) {
            let squeeze = |b: u8, m: u16| (u16::from(b) % m).min(255) as u8;
            let mut patterns: Vec<Vec<u8>> = raw
                .iter()
                .map(|p| p.iter().map(|&b| squeeze(b, width)).collect())
                .collect();
            for &v in &nest {
                if patterns.is_empty() {
                    break;
                }
                let p = patterns[usize::from(v) % patterns.len()].clone();
                let cut = usize::from(v >> 8) % (p.len() + 1);
                patterns.push(match v % 3 {
                    0 => p,
                    1 => p[..cut].to_vec(),
                    _ => p[cut..].to_vec(),
                });
            }
            let text: Vec<u8> = text.iter().map(|&b| squeeze(b, width + 4)).collect();
            assert_matches_oracle(&patterns, &text)?;
            assert_matches_oracle(&patterns, &[])?;
        }
    }

    #[test]
    fn every_byte_value_in_a_pattern_still_walks_like_the_oracle() {
        // 256 classes: no byte is left for the edgeless class 0.
        let mut patterns: Vec<Vec<u8>> = (0..=255u8).map(|b| vec![b]).collect();
        patterns.extend((0..=255u8).map(|b| vec![b, b.wrapping_mul(7), 255 - b]));
        let mut gen = super::profile_test_support::lcg(5);
        let text: Vec<u8> = (0..2000).map(|_| gen()).collect();
        assert_matches_oracle(&patterns, &text).unwrap();
        assert_eq!(AhoCorasick::build(&patterns).words, 4);
    }

    fn pats(list: &[&str]) -> Vec<Vec<u8>> {
        list.iter().map(|s| s.as_bytes().to_vec()).collect()
    }

    fn count(ac: &AhoCorasick, hay: &str) -> u64 {
        ac.scan(hay.as_bytes(), &mut NullSink)
    }

    #[test]
    fn classic_aho_corasick_example() {
        // The canonical {he, she, his, hers} over "ushers": she, he, hers.
        let ac = AhoCorasick::build(&pats(&["he", "she", "his", "hers"]));
        assert_eq!(count(&ac, "ushers"), 3);
    }

    #[test]
    fn overlapping_matches_counted() {
        let ac = AhoCorasick::build(&pats(&["aa"]));
        assert_eq!(count(&ac, "aaaa"), 3);
    }

    #[test]
    fn duplicate_patterns_count_twice() {
        let ac = AhoCorasick::build(&pats(&["ab", "ab"]));
        assert_eq!(count(&ac, "ab"), 2);
    }

    #[test]
    fn substring_patterns_via_dict_links() {
        let ac = AhoCorasick::build(&pats(&["abcde", "cd", "e"]));
        assert_eq!(count(&ac, "abcde"), 3);
    }

    #[test]
    fn no_match_in_clean_text() {
        let ac = AhoCorasick::build(&pats(&["virus", "exploit"]));
        assert_eq!(count(&ac, "perfectly clean traffic"), 0);
    }

    #[test]
    fn empty_haystack_and_patterns() {
        let ac = AhoCorasick::build(&pats(&["x", ""]));
        assert_eq!(ac.pattern_count(), 1, "empty pattern ignored");
        assert_eq!(count(&ac, ""), 0);
    }

    #[test]
    fn matches_agree_with_naive_search() {
        let patterns = synth_patterns(50, 3);
        let ac = AhoCorasick::build(&patterns);
        let mut gen = super::profile_test_support::lcg(77);
        let hay: Vec<u8> = (0..4000)
            .map(|_| b"abcdef0123/._-%"[gen() as usize % 15])
            .collect();
        let naive: u64 = patterns
            .iter()
            .map(|p| hay.windows(p.len()).filter(|w| w == &p.as_slice()).count() as u64)
            .sum();
        assert_eq!(ac.scan(&hay, &mut NullSink), naive);
    }

    #[test]
    fn scan_touches_graph_addresses() {
        let ac = AhoCorasick::build(&pats(&["attack"]));
        let mut sink = RecordingSink::new();
        ac.scan(b"an attack string", &mut sink);
        assert!(!sink.accesses().is_empty());
        assert!(sink.accesses().iter().all(|a| a.addr >= layout::HEAP_BASE));
    }

    #[test]
    fn nf_counts_payload_matches() {
        let mut nf = DpiNf::new(&pats(&["malware"]));
        let p = PacketBuilder::new(1, 2, Protocol::Tcp, 1, 2)
            .payload(b"download malware here; malware!".to_vec())
            .build();
        match nf.process(&p, &mut NullSink) {
            Verdict::Matched(2) => {}
            other => panic!("expected Matched(2), got {other:?}"),
        }
        assert_eq!(nf.total_matches(), 2);
    }

    #[test]
    fn synth_patterns_distinct_and_sized() {
        let p = synth_patterns(500, 9);
        assert_eq!(p.len(), 500);
        let set: std::collections::HashSet<_> = p.iter().collect();
        assert_eq!(set.len(), 500);
        assert!(p.iter().all(|x| (4..=30).contains(&x.len())));
    }

    #[test]
    fn graph_size_scales_with_patterns() {
        let small = DpiNf::new(&synth_patterns(100, 1));
        let big = DpiNf::new(&synth_patterns(1000, 1));
        assert!(big.automaton().graph_bytes() > small.automaton().graph_bytes());
        assert!(big.automaton().node_count() > small.automaton().node_count());
    }
}

#[cfg(test)]
pub(crate) mod profile_test_support {
    /// Tiny deterministic byte generator for tests.
    pub fn lcg(seed: u64) -> impl FnMut() -> u8 {
        let mut s = seed;
        move || {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (s >> 33) as u8
        }
    }
}
