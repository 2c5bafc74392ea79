//! ICTF-like packet stream.
//!
//! Models the paper's Figure 5 workload: "packet streams came from a pool
//! of 100,000 flows that were uniformly sampled from the ICTF trace; those
//! traces had a Zipf distribution with a skewness of 1.1" (§5.3). Each
//! call to [`IctfLikeTrace::next_packet`] draws a flow rank from the Zipf
//! sampler and builds a packet for that flow.

use snic_types::{FiveTuple, Packet};

use crate::flows::FlowTable;
use crate::phases::{PhaseSchedule, PhasedConfig, PhasedTrace};

/// Configuration for an [`IctfLikeTrace`].
#[derive(Debug, Clone)]
pub struct IctfConfig {
    /// Number of distinct flows in the pool.
    pub flows: usize,
    /// Zipf skewness of flow popularity.
    pub theta: f64,
    /// Mean payload length in bytes.
    pub mean_payload: usize,
    /// Probability a payload carries a DPI signature.
    pub signature_rate: f64,
    /// Signature patterns to embed.
    pub patterns: Vec<Vec<u8>>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IctfConfig {
    fn default() -> Self {
        IctfConfig {
            flows: 100_000,
            theta: 1.1,
            mean_payload: 256,
            signature_rate: 0.01,
            patterns: Vec::new(),
            seed: 0x1c7f,
        }
    }
}

/// A deterministic ICTF-like packet stream: the [`PhasedTrace`] whose
/// schedule is [`PhaseSchedule::stationary`].
#[derive(Debug)]
pub struct IctfLikeTrace(PhasedTrace);

impl IctfLikeTrace {
    /// Build the flow pool and samplers.
    pub fn new(config: IctfConfig) -> IctfLikeTrace {
        IctfLikeTrace(PhasedTrace::new(PhasedConfig {
            base: config,
            schedule: PhaseSchedule::stationary(),
        }))
    }

    /// Draw the next flow (without building packet bytes). Useful for
    /// experiments that only need the reference stream, not wire bytes.
    pub fn next_flow(&mut self) -> FiveTuple {
        self.0.next_flow()
    }

    /// Build the next packet in the stream.
    pub fn next_packet(&mut self) -> Packet {
        self.0.next_packet()
    }

    /// Flows drawn so far (equals packets when the stream is consumed
    /// through [`IctfLikeTrace::next_packet`]).
    pub fn generated(&self) -> u64 {
        self.0.generated()
    }

    /// The underlying flow pool.
    pub fn flow_table(&self) -> &FlowTable {
        self.0.flow_table()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> IctfConfig {
        IctfConfig {
            flows: 1000,
            mean_payload: 64,
            ..IctfConfig::default()
        }
    }

    #[test]
    fn packets_parse_and_match_flows() {
        let mut t = IctfLikeTrace::new(small());
        for _ in 0..200 {
            let p = t.next_packet();
            let ft = FiveTuple::from_packet(&p).unwrap();
            assert!(t.flow_table().iter().any(|f| *f == ft));
        }
        assert_eq!(t.generated(), 200);
    }

    #[test]
    fn popularity_is_skewed() {
        let mut t = IctfLikeTrace::new(small());
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(t.next_flow()).or_insert(0u64) += 1;
        }
        let mut sorted: Vec<u64> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // Top flow should dominate the median flow under Zipf(1.1).
        assert!(sorted[0] > 20 * sorted[sorted.len() / 2].max(1));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = IctfLikeTrace::new(small());
        let mut b = IctfLikeTrace::new(small());
        for _ in 0..50 {
            assert_eq!(a.next_packet(), b.next_packet());
        }
    }

    #[test]
    fn payload_lengths_jitter_around_mean() {
        let mut t = IctfLikeTrace::new(IctfConfig {
            flows: 100,
            mean_payload: 200,
            ..small()
        });
        let mut total = 0usize;
        for _ in 0..1000 {
            let p = t.next_packet();
            let l = p.payload().len();
            assert!((100..=300).contains(&l), "{l}");
            total += l;
        }
        let mean = total / 1000;
        assert!((150..=250).contains(&mean), "{mean}");
    }
}
