//! The DPI accelerator: a hardware Aho-Corasick graph walker.
//!
//! Figure 3 of the paper: the engine's finite-automaton graph lives in
//! DRAM; hardware threads walk it, caching hot nodes in per-engine SRAM.
//! The Figure 8 experiment measures throughput as a function of the
//! number of hardware threads and the frame size.
//!
//! The cost model: each scanned byte costs `BYTE_CYCLES` plus a DRAM
//! penalty when its node misses the graph cache (shallow nodes are hot,
//! deep nodes cold — approximated by node index against the cache's node
//! capacity). Each request pays a fixed scheduling overhead, and the
//! frontend dispatcher sustains a bounded packet rate — which is why tiny
//! frames cannot benefit from more threads (Figure 8's flat 64 B curve).

use snic_nf::dpi::AhoCorasick;
use snic_types::ByteSize;

/// Per-byte walk cost in thread cycles.
const BYTE_CYCLES: u64 = 8;
/// Fixed per-request overhead (descriptor fetch, result writeback).
const REQUEST_CYCLES: u64 = 600;
/// Extra cycles when a node fetch misses the SRAM graph cache.
const GRAPH_MISS_CYCLES: u64 = 40;

/// DPI accelerator configuration.
#[derive(Debug, Clone, Copy)]
pub struct DpiAccelConfig {
    /// Thread clock in Hz.
    pub clock_hz: u64,
    /// SRAM graph cache capacity in bytes.
    pub graph_cache: ByteSize,
    /// Dispatch capacity of the frontend in packets per second.
    pub frontend_pps: u64,
}

impl Default for DpiAccelConfig {
    fn default() -> Self {
        DpiAccelConfig {
            clock_hz: 1_200_000_000,
            graph_cache: ByteSize::mib(2),
            frontend_pps: 1_150_000,
        }
    }
}

/// One DPI engine instance (graph shared by all its threads). The model
/// needs only the size of the graph its threads walk, so that is what it
/// keeps.
#[derive(Debug)]
pub struct DpiAccel {
    graph: ByteSize,
    config: DpiAccelConfig,
}

impl DpiAccel {
    /// Build from a pattern list.
    pub fn new(patterns: &[Vec<u8>], config: DpiAccelConfig) -> DpiAccel {
        DpiAccel {
            graph: AhoCorasick::build(patterns).graph_bytes(),
            config,
        }
    }

    /// The automaton graph size (Table 7's "Graph" row).
    pub fn graph_bytes(&self) -> ByteSize {
        self.graph
    }

    /// Fraction of node fetches expected to hit the SRAM graph cache.
    ///
    /// Hot (shallow) nodes are cached; the model treats the cache as
    /// holding the first `capacity` bytes of the node array, and scan
    /// traffic as concentrated near the root: with Zipf-ish node
    /// popularity, hit rate ≈ cached_fraction^(1/3).
    pub fn graph_cache_hit_rate(&self) -> f64 {
        let cached = self.config.graph_cache.bytes() as f64;
        let total = self.graph_bytes().bytes() as f64;
        if total <= cached {
            1.0
        } else {
            (cached / total).powf(1.0 / 3.0)
        }
    }

    /// Cycles to scan one request of `len` bytes.
    pub fn service_cycles(&self, len: usize) -> u64 {
        let walk = len as u64 * BYTE_CYCLES;
        let miss_rate = 1.0 - self.graph_cache_hit_rate();
        let misses = (len as f64 * miss_rate) as u64;
        REQUEST_CYCLES + walk + misses * GRAPH_MISS_CYCLES
    }

    /// Simulated-time throughput (packets per second) when `threads`
    /// hardware threads scan back-to-back frames of `frame_len` bytes.
    ///
    /// This is the Figure 8 model: thread-level parallelism divided by the
    /// per-packet service time, capped by the frontend dispatch rate.
    pub fn throughput_pps(&self, threads: u32, frame_len: usize) -> f64 {
        let service_s = self.service_cycles(frame_len) as f64 / self.config.clock_hz as f64;
        let parallel = f64::from(threads) / service_s;
        parallel.min(self.config.frontend_pps as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snic_nf::dpi::synth_patterns;

    fn small() -> DpiAccel {
        DpiAccel::new(&synth_patterns(500, 3), DpiAccelConfig::default())
    }

    #[test]
    fn service_cycles_scale_with_length() {
        let acc = small();
        assert!(acc.service_cycles(9000) > acc.service_cycles(1500));
        assert!(acc.service_cycles(1500) > acc.service_cycles(64));
    }

    #[test]
    fn small_frames_are_frontend_bound() {
        // Figure 8's 64 B curve: more threads do not help.
        let acc = small();
        let t16 = acc.throughput_pps(16, 64);
        let t48 = acc.throughput_pps(48, 64);
        assert!(
            (t16 - t48).abs() / t16 < 0.01,
            "64B curve should be flat: {t16} vs {t48}"
        );
        assert!((t16 - 1_150_000.0).abs() < 1.0);
    }

    #[test]
    fn jumbo_frames_scale_with_threads() {
        // Figure 8's 9 KB curve: throughput grows with thread count.
        let acc = small();
        let t16 = acc.throughput_pps(16, 9000);
        let t32 = acc.throughput_pps(32, 9000);
        let t48 = acc.throughput_pps(48, 9000);
        assert!(
            t32 > 1.8 * t16 && t32 < 2.2 * t16,
            "expected ~2x: {t16} {t32}"
        );
        assert!(t48 > t32);
        assert!(
            t48 < 1_150_000.0,
            "jumbo frames must not hit the frontend cap"
        );
    }

    #[test]
    fn larger_frames_lower_throughput() {
        let acc = small();
        for threads in [16u32, 32, 48] {
            let tp: Vec<f64> = [64usize, 512, 1500, 9000]
                .iter()
                .map(|&l| acc.throughput_pps(threads, l))
                .collect();
            assert!(
                tp.windows(2).all(|w| w[0] >= w[1]),
                "{threads} threads: {tp:?}"
            );
        }
    }

    #[test]
    fn cache_hit_rate_bounds() {
        let acc = small();
        let r = acc.graph_cache_hit_rate();
        assert!((0.0..=1.0).contains(&r));
        // A tiny graph fits entirely.
        let tiny = DpiAccel::new(&[b"x".to_vec()], DpiAccelConfig::default());
        assert!((tiny.graph_cache_hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_scale_graph_near_97mb() {
        // Table 7: 33K-rule graph = 97.28 MB. Our node layout differs from
        // Marvell's; require the same order of magnitude.
        let acc = DpiAccel::new(&synth_patterns(33_471, 1), DpiAccelConfig::default());
        let mb = acc.graph_bytes().as_mib_f64();
        assert!((20.0..200.0).contains(&mb), "graph = {mb} MiB");
    }
}
