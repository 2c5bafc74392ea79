//! The three channel families and the per-bit transmit/decode loop.
//!
//! One bit is one engine run: the receiver and sender streams for that
//! bit value run colocated through `run_colocated_ids_sink`, and the
//! decoder compares the receiver's telemetry against a *solo baseline*
//! (the receiver running alone under the same machine configuration,
//! measured once per channel instance). The baseline is the decoder's
//! calibration step — exactly what a real attacker does by training on
//! an idle machine — and it also absorbs every payload-independent
//! artifact of the configuration, such as the temporal arbiter delaying
//! the receiver's own grants to its epoch.
//!
//! The decoder reads *only* the telemetry [`Summary`]: L2 miss counts
//! for the cache channel, delayed-grant counts for the bus and scrub
//! channels. Nothing outside the receiver's own observable counters
//! enters the bit decision.

use std::sync::Arc;

use snic_telemetry::{metrics, Recorder, Summary};
use snic_types::NicMode;
use snic_uarch::config::MachineConfig;
use snic_uarch::engine::run_colocated_ids_sink;
use snic_uarch::stream::{Access, EventSource, SharedReplayStream};

use crate::covert;

/// Tenants in every leakage scenario: receiver (0) and sender (1).
pub const TENANTS: u32 = 2;

/// One covert-channel family (§3.3 taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChannelFamily {
    /// Prime+probe L2 cache occupancy.
    Cache,
    /// FCFS bus grant-latency contention.
    Bus,
    /// Teardown-scrub duration, observed through bus contention.
    Scrub,
}

impl ChannelFamily {
    /// Every family, in matrix order.
    pub const ALL: [ChannelFamily; 3] = [
        ChannelFamily::Cache,
        ChannelFamily::Bus,
        ChannelFamily::Scrub,
    ];

    /// Stable one-word label used in the matrix text form.
    pub fn label(self) -> &'static str {
        match self {
            ChannelFamily::Cache => "cache",
            ChannelFamily::Bus => "bus",
            ChannelFamily::Scrub => "scrub",
        }
    }

    /// Parse a [`ChannelFamily::label`].
    pub fn from_label(s: &str) -> Option<ChannelFamily> {
        ChannelFamily::ALL.into_iter().find(|f| f.label() == s)
    }
}

/// An L2 geometry under sweep: associativity × set count (64 B lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Geometry {
    /// L2 associativity.
    pub ways: u32,
    /// L2 set count.
    pub sets: u64,
}

impl Geometry {
    /// Total L2 bytes this geometry describes.
    pub fn l2_bytes(self) -> u64 {
        self.sets * u64::from(self.ways) * covert::LINE
    }

    /// Stable label used in the matrix text form, e.g. `16w512s`.
    pub fn label(self) -> String {
        format!("{}w{}s", self.ways, self.sets)
    }

    /// Parse a [`Geometry::label`].
    pub fn from_label(s: &str) -> Option<Geometry> {
        let (ways, rest) = s.split_once('w')?;
        let sets = rest.strip_suffix('s')?;
        Some(Geometry {
            ways: ways.parse().ok()?,
            sets: sets.parse().ok()?,
        })
    }
}

/// The machine a (geometry, epoch, mode) cell runs on: the paper
/// machine with the L2 geometry and temporal epoch overridden. A
/// commodity machine shares its LRU L2 and arbitrates the bus FCFS;
/// S-NIC way-partitions the L2 and partitions the bus in time (§4.2 +
/// §4.5).
pub fn machine_config(geom: Geometry, epoch_cycles: u64, mode: NicMode) -> MachineConfig {
    let mut cfg = match mode {
        NicMode::Commodity => MachineConfig::commodity(TENANTS, geom.l2_bytes()),
        NicMode::Snic => MachineConfig::snic(TENANTS, geom.l2_bytes()),
    };
    cfg.l2.ways = geom.ways;
    cfg.epoch_cycles = epoch_cycles;
    cfg
}

/// The receiver's reference stream for one bit slot.
pub fn receiver_stream(family: ChannelFamily, geom: Geometry) -> Vec<Access> {
    match family {
        ChannelFamily::Cache => covert::prime_probe_receiver(geom.sets, geom.ways),
        ChannelFamily::Bus => covert::bus_receiver(),
        ChannelFamily::Scrub => covert::scrub_receiver(),
    }
}

/// The sender's reference stream encoding `bit`.
pub fn sender_stream(family: ChannelFamily, bit: bool, geom: Geometry) -> Vec<Access> {
    match family {
        ChannelFamily::Cache => covert::prime_probe_sender(bit, geom.sets, geom.ways),
        ChannelFamily::Bus => covert::bus_sender(bit),
        ChannelFamily::Scrub => covert::scrub_stream(bit),
    }
}

/// Decode threshold on the receiver's observable delta (colocated −
/// solo): above ⇒ 1. Each sits well clear of both the 0-bit residue
/// (a handful of stray evictions or collisions) and the 1-bit full
/// scale, verified empirically by the round-trip suites.
pub fn decode_threshold(family: ChannelFamily, geom: Geometry) -> u64 {
    match family {
        ChannelFamily::Cache => covert::pp_probe_count(geom.sets, geom.ways) / 2,
        ChannelFamily::Bus => covert::BUS_PROBES as u64 / 32,
        ChannelFamily::Scrub => covert::SCRUB_PROBES as u64 / 32,
    }
}

/// The receiver-side telemetry counter the decoder thresholds.
fn observable(family: ChannelFamily, summary: &Summary) -> u64 {
    match family {
        ChannelFamily::Cache => summary.counter(0, metrics::L2_MISSES),
        ChannelFamily::Bus | ChannelFamily::Scrub => summary.counter(0, metrics::BUS_DELAYED),
    }
}

/// Outcome of transmitting one bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitTrial {
    /// The payload bit the sender encoded.
    pub sent: bool,
    /// The bit the decoder recovered.
    pub decoded: bool,
    /// The receiver's raw observable for this run (pre-delta).
    pub observable: u64,
    /// Simulated cycles the slot occupied (the slowest lane's clock).
    pub cycles: u64,
}

/// One instantiated channel: a family on a concrete machine, with its
/// solo baseline measured and its decode threshold fixed.
#[derive(Debug, Clone)]
pub struct Channel {
    cfg: MachineConfig,
    family: ChannelFamily,
    /// The receiver's recording, shared by every bit slot.
    receiver: Arc<[Access]>,
    /// The sender's recordings for a 0 bit and a 1 bit.
    senders: [Arc<[Access]>; 2],
    solo: u64,
    threshold: u64,
}

impl Channel {
    /// Instantiate a channel and calibrate its solo baseline.
    pub fn new(family: ChannelFamily, geom: Geometry, epoch_cycles: u64, mode: NicMode) -> Channel {
        let cfg = machine_config(geom, epoch_cycles, mode);
        let receiver: Arc<[Access]> = receiver_stream(family, geom).into();
        let recorder = Recorder::new();
        run_colocated_ids_sink(&cfg, vec![replay(&receiver)], &[], &[0], &recorder);
        let solo = observable(family, &recorder.summary());
        Channel {
            cfg,
            family,
            receiver,
            senders: [false, true].map(|bit| sender_stream(family, bit, geom).into()),
            solo,
            threshold: decode_threshold(family, geom),
        }
    }

    /// The receiver's calibrated solo observable.
    pub fn solo_baseline(&self) -> u64 {
        self.solo
    }

    /// Transmit one bit: run sender and receiver colocated, decode from
    /// the receiver's telemetry delta against the solo baseline.
    pub fn transmit(&self, bit: bool) -> BitTrial {
        let recorder = Recorder::new();
        run_colocated_ids_sink(
            &self.cfg,
            vec![
                replay(&self.receiver),
                replay(&self.senders[usize::from(bit)]),
            ],
            &[],
            &[0, 1],
            &recorder,
        );
        let summary = recorder.summary();
        let obs = observable(self.family, &summary);
        let cycles = (0..u64::from(TENANTS))
            .map(|d| summary.counter(d, metrics::CYCLES))
            .max()
            .unwrap_or(0);
        BitTrial {
            sent: bit,
            decoded: obs.saturating_sub(self.solo) > self.threshold,
            observable: obs,
            cycles,
        }
    }
}

fn replay(recording: &Arc<[Access]>) -> EventSource {
    SharedReplayStream::new(Arc::clone(recording)).into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for f in ChannelFamily::ALL {
            assert_eq!(ChannelFamily::from_label(f.label()), Some(f));
        }
        let g = Geometry {
            ways: 16,
            sets: 512,
        };
        assert_eq!(Geometry::from_label(&g.label()), Some(g));
        assert_eq!(Geometry::from_label("16w512"), None);
        assert_eq!(ChannelFamily::from_label("dram"), None);
    }

    #[test]
    fn commodity_cache_channel_transmits_a_bit() {
        let geom = Geometry {
            ways: 16,
            sets: 512,
        };
        let ch = Channel::new(ChannelFamily::Cache, geom, 96, NicMode::Commodity);
        let one = ch.transmit(true);
        let zero = ch.transmit(false);
        assert!(one.decoded, "1-bit thrash must show as probe misses");
        assert!(!zero.decoded, "0-bit idle sender must decode as 0");
        assert!(one.cycles > 0 && zero.cycles > 0);
    }

    #[test]
    fn snic_observables_are_payload_independent() {
        let geom = Geometry {
            ways: 16,
            sets: 512,
        };
        for family in ChannelFamily::ALL {
            let ch = Channel::new(family, geom, 96, NicMode::Snic);
            let one = ch.transmit(true);
            let zero = ch.transmit(false);
            assert_eq!(
                one.observable, zero.observable,
                "{family:?}: S-NIC receiver observable must not depend on the payload"
            );
            assert_eq!(
                one.observable,
                ch.solo_baseline(),
                "{family:?}: colocated S-NIC observable must equal the solo baseline"
            );
        }
    }
}
