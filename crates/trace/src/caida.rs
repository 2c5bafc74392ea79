//! CAIDA-like time-stamped trace with flow churn.
//!
//! The Monitor experiments (Figure 7, Table 6) run over five-minute
//! windows of a backbone trace: flows arrive and depart over time, flow
//! sizes are heavy-tailed, and the number of *concurrently tracked* flows
//! grows as the measurement window fills. This generator produces a
//! time-stamped packet/flow stream with those properties.

use rand::Rng;
use rand::SeedableRng;
use snic_types::{FiveTuple, Picos, Protocol};

/// Configuration for a [`CaidaLikeTrace`].
#[derive(Debug, Clone)]
pub struct CaidaConfig {
    /// New flows arriving per simulated second.
    pub flow_arrival_rate: f64,
    /// Pareto shape for packets-per-flow (heavier tail when smaller).
    pub size_shape: f64,
    /// Minimum packets per flow (Pareto scale).
    pub size_min: u64,
    /// Mean packet inter-arrival within a flow, in microseconds.
    pub intra_flow_gap_us: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CaidaConfig {
    fn default() -> Self {
        CaidaConfig {
            flow_arrival_rate: 12_000.0,
            size_shape: 1.3,
            size_min: 2,
            intra_flow_gap_us: 800,
            seed: 0xca1d_a216,
        }
    }
}

/// One record of the trace: a flow key with a timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// When the packet appears.
    pub time: Picos,
    /// Flow it belongs to.
    pub flow: FiveTuple,
    /// Frame length in bytes.
    pub frame_len: u32,
}

/// A CAIDA-like trace, materialized for a bounded duration.
#[derive(Debug)]
pub struct CaidaLikeTrace {
    records: Vec<TraceRecord>,
    distinct_flows: usize,
}

impl CaidaLikeTrace {
    /// Generate all packets within `[0, duration)`.
    ///
    /// Flows arrive as a Poisson-ish process (exponential gaps), each flow
    /// draws a Pareto packet count, and its packets spread forward in time
    /// with exponential intra-flow gaps. The output is sorted by time.
    pub fn generate(config: &CaidaConfig, duration: Picos) -> CaidaLikeTrace {
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let mut records = Vec::new();
        let mut distinct = 0usize;
        let mut t = 0f64; // Seconds.
        let horizon = duration.as_secs_f64();
        while t < horizon {
            // Next flow arrival.
            let gap = -(1.0 - rng.random::<f64>()).ln() / config.flow_arrival_rate;
            t += gap;
            if t >= horizon {
                break;
            }
            distinct += 1;
            let flow = FiveTuple {
                src_ip: rng.random(),
                dst_ip: rng.random(),
                protocol: if rng.random::<f64>() < 0.85 {
                    Protocol::Tcp
                } else {
                    Protocol::Udp
                },
                src_port: rng.random_range(1024..u16::MAX),
                dst_port: [80u16, 443, 53, 123, 8443][rng.random_range(0..5usize)],
            };
            // Pareto-distributed packet count.
            let u: f64 = 1.0 - rng.random::<f64>();
            let pkts = ((config.size_min as f64) / u.powf(1.0 / config.size_shape)).min(1e6) as u64;
            let mut pt = t;
            for _ in 0..pkts.max(1) {
                if pt >= horizon {
                    break;
                }
                let frame_len = 64 + rng.random_range(0u32..1436);
                records.push(TraceRecord {
                    time: Picos((pt * 1e12) as u64),
                    flow,
                    frame_len,
                });
                let gap_s =
                    (config.intra_flow_gap_us as f64 / 1e6) * -(1.0 - rng.random::<f64>()).ln();
                pt += gap_s;
            }
        }
        records.sort_by_key(|r| r.time);
        CaidaLikeTrace {
            records,
            distinct_flows: distinct,
        }
    }

    /// All records in time order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of distinct flows that arrived.
    pub fn distinct_flows(&self) -> usize {
        self.distinct_flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_second() -> CaidaLikeTrace {
        CaidaLikeTrace::generate(
            &CaidaConfig {
                flow_arrival_rate: 2000.0,
                ..CaidaConfig::default()
            },
            Picos::millis(1000),
        )
    }

    #[test]
    fn records_are_time_sorted() {
        let t = one_second();
        assert!(t.records().windows(2).all(|w| w[0].time <= w[1].time));
        assert!(!t.records().is_empty());
    }

    #[test]
    fn flow_arrivals_near_rate() {
        let t = one_second();
        let n = t.distinct_flows() as f64;
        assert!(
            (1700.0..2300.0).contains(&n),
            "{n} arrivals for rate 2000/s"
        );
    }

    #[test]
    fn flow_sizes_heavy_tailed() {
        let t = one_second();
        let mut counts = std::collections::HashMap::new();
        for r in t.records() {
            *counts.entry(r.flow).or_insert(0u64) += 1;
        }
        let mut sizes: Vec<u64> = counts.values().copied().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        // Largest flow much bigger than median flow.
        assert!(sizes[0] >= 10 * sizes[sizes.len() / 2].max(1));
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = CaidaConfig {
            flow_arrival_rate: 500.0,
            ..CaidaConfig::default()
        };
        let a = CaidaLikeTrace::generate(&cfg, Picos::millis(200));
        let b = CaidaLikeTrace::generate(&cfg, Picos::millis(200));
        assert_eq!(a.records().len(), b.records().len());
        assert_eq!(a.records().first(), b.records().first());
    }

    #[test]
    fn frame_lengths_in_ethernet_range() {
        let t = one_second();
        assert!(t
            .records()
            .iter()
            .all(|r| (64..=1500).contains(&r.frame_len)));
    }
}
