//! Seeded populations of five-tuple flows.

use std::collections::HashSet;
use std::hash::BuildHasherDefault;

use rand::Rng;
use rand::SeedableRng;
use snic_types::mix::FxHasher;
use snic_types::{FiveTuple, Protocol};

/// Configuration for a [`FlowTable`].
#[derive(Debug, Clone)]
pub struct FlowTableConfig {
    /// Number of distinct flows.
    pub flows: usize,
    /// Fraction of flows that are TCP (the rest are UDP).
    pub tcp_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FlowTableConfig {
    fn default() -> Self {
        // The paper's sampled ICTF workload: 100,000 flows, mostly TCP.
        FlowTableConfig {
            flows: 100_000,
            tcp_fraction: 0.9,
            seed: 0x5_17c,
        }
    }
}

/// A fixed population of distinct five-tuple flows.
#[derive(Debug, Clone)]
pub struct FlowTable {
    flows: Vec<FiveTuple>,
}

impl FlowTable {
    /// Generate `config.flows` distinct flows.
    pub fn generate(config: &FlowTableConfig) -> FlowTable {
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let mut flows = Vec::with_capacity(config.flows);
        // Only asked for membership, so its hasher decides speed alone.
        let mut seen: HashSet<FiveTuple, BuildHasherDefault<FxHasher>> =
            HashSet::with_capacity_and_hasher(config.flows, BuildHasherDefault::default());
        while flows.len() < config.flows {
            let protocol = if rng.random::<f64>() < config.tcp_fraction {
                Protocol::Tcp
            } else {
                Protocol::Udp
            };
            let ft = FiveTuple {
                // Private 10/8 sources toward a public-looking /16.
                src_ip: 0x0a00_0000 | rng.random_range(0u32..1 << 24),
                dst_ip: 0xc633_0000 | rng.random_range(0u32..1 << 16),
                protocol,
                src_port: rng.random_range(1024..u16::MAX),
                dst_port: [80u16, 443, 53, 8080, 22, 25][rng.random_range(0..6usize)],
            };
            if seen.insert(ft) {
                flows.push(ft);
            }
        }
        FlowTable { flows }
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The flow at `rank` (0 = most popular under a Zipf overlay).
    pub fn get(&self, rank: usize) -> FiveTuple {
        self.flows[rank]
    }

    /// Iterate over all flows.
    pub fn iter(&self) -> impl Iterator<Item = &FiveTuple> {
        self.flows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count_distinct() {
        let t = FlowTable::generate(&FlowTableConfig {
            flows: 5000,
            tcp_fraction: 0.9,
            seed: 1,
        });
        assert_eq!(t.len(), 5000);
        let set: HashSet<_> = t.iter().collect();
        assert_eq!(set.len(), 5000);
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = FlowTableConfig {
            flows: 100,
            tcp_fraction: 0.5,
            seed: 9,
        };
        let a = FlowTable::generate(&cfg);
        let b = FlowTable::generate(&cfg);
        assert_eq!(a.get(0), b.get(0));
        assert_eq!(a.get(99), b.get(99));
    }

    #[test]
    fn tcp_fraction_respected() {
        let t = FlowTable::generate(&FlowTableConfig {
            flows: 10_000,
            tcp_fraction: 0.7,
            seed: 2,
        });
        let tcp = t.iter().filter(|f| f.protocol == Protocol::Tcp).count();
        let frac = tcp as f64 / 10_000.0;
        assert!((frac - 0.7).abs() < 0.03, "{frac}");
    }

    #[test]
    fn addresses_in_expected_ranges() {
        let t = FlowTable::generate(&FlowTableConfig {
            flows: 100,
            tcp_fraction: 1.0,
            seed: 3,
        });
        for f in t.iter() {
            assert_eq!(f.src_ip >> 24, 0x0a);
            assert_eq!(f.dst_ip >> 16, 0xc633);
            assert!(f.src_port >= 1024);
        }
    }
}
