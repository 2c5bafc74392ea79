//! The leakage-bandwidth matrix: sweep, rendering, bounds.
//!
//! A cell is one `(family, geometry, epoch, mode)` point; measuring it
//! transmits [`CELL_BITS`] seeded payload bits through the channel and
//! reports bit-error rate, raw bit-rate, plug-in mutual information,
//! and capacity in bits per second of *simulated* time. The whole
//! matrix fans through [`snic_sim::par_map`], each cell fully
//! self-contained (its payload seed derives from the cell key, not the
//! sweep order), so the matrix is byte-identical however many threads
//! the pool gets.
//!
//! [`LeakageMatrix::render`] is the `snicctl exp leakage` text, pinned
//! by that registry entry's golden; [`LeakageMatrix::check_bounds`] is
//! the entry's check.

use crate::capacity::{payload_bits, splitmix64, Confusion};
use crate::channel::{Channel, ChannelFamily, Geometry};
use crate::covert;
use snic_sim::par_map;
use snic_types::NicMode;
use snic_uarch::config::CORE_HZ;

/// Payload bits transmitted per cell.
pub const CELL_BITS: usize = 16;

/// L2 geometries under sweep. The 4-way point is deliberately
/// *unexploitable* for the cache family — prime+probe needs more
/// associativity than the receiver's own L1 flush consumes (see
/// [`covert::pp_primed_ways`]) — and pins down that the harness reports
/// capacity 0 rather than fabricating signal.
pub const GEOMETRIES: [Geometry; 4] = [
    Geometry {
        ways: 16,
        sets: 512,
    },
    Geometry {
        ways: 8,
        sets: 1024,
    },
    Geometry { ways: 8, sets: 128 },
    Geometry {
        ways: 4,
        sets: 2048,
    },
];

/// Temporal-arbiter epoch lengths under sweep (cycles). Commodity
/// ignores the epoch (FCFS), so its rows repeat across this axis — kept
/// anyway so every S-NIC cell has its like-for-like baseline row.
pub const EPOCHS: [u64; 3] = [64, 96, 192];

/// Hard ceiling every S-NIC cell must stay under, in bits/sec. The
/// engine's purity property makes S-NIC capacity *exactly* 0; the
/// ceiling is slack only so the gate message stays meaningful if a
/// regression produces epsilon leakage.
pub const SNIC_CAPACITY_CEILING_BPS: f64 = 0.01;

/// Floor every commodity cell of an exploitable geometry must clear,
/// and at least one commodity cell of every family, in bits/sec.
pub const COMMODITY_CAPACITY_FLOOR_BPS: f64 = 1.0;

/// One point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellSpec {
    /// Channel family.
    pub family: ChannelFamily,
    /// L2 geometry.
    pub geom: Geometry,
    /// Temporal epoch length in cycles.
    pub epoch: u64,
    /// Isolation mode.
    pub mode: NicMode,
}

impl CellSpec {
    /// Stable cell key, e.g. `cache 16w512s 96 commodity`.
    pub fn key(&self) -> String {
        format!(
            "{} {} {} {}",
            self.family.label(),
            self.geom.label(),
            self.epoch,
            self.mode.name()
        )
    }

    /// Whether this geometry can host this family's channel at all.
    /// Bus and scrub channels work on any geometry (they are
    /// cache-independent streaming probes); the cache channel needs
    /// enough L2 associativity to survive the receiver's own L1 flush.
    pub fn exploitable(&self) -> bool {
        match self.family {
            ChannelFamily::Cache => covert::pp_primed_ways(self.geom.ways) > 0,
            ChannelFamily::Bus | ChannelFamily::Scrub => true,
        }
    }

    /// Deterministic per-cell payload seed, a pure function of the key
    /// so sweep order never changes a cell's payload.
    pub fn seed(&self) -> u64 {
        let mut state = 0x5eed_1ea6_u64;
        for b in self.key().bytes() {
            state ^= u64::from(b);
            splitmix64(&mut state);
        }
        splitmix64(&mut state)
    }
}

/// The full sweep: 3 families × 4 geometries × 3 epochs × 2 modes.
fn full_specs() -> Vec<CellSpec> {
    let mut out = Vec::new();
    for family in ChannelFamily::ALL {
        for geom in GEOMETRIES {
            for epoch in EPOCHS {
                for mode in NicMode::ALL {
                    out.push(CellSpec {
                        family,
                        geom,
                        epoch,
                        mode,
                    });
                }
            }
        }
    }
    out
}

/// One measured cell.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageCell {
    /// The swept point.
    pub spec: CellSpec,
    /// Payload bits transmitted.
    pub bits: u64,
    /// Bits decoded wrongly.
    pub errors: u64,
    /// Bit-error rate.
    pub ber: f64,
    /// Simulated transmission time, in milliseconds.
    pub sim_ms: f64,
    /// Raw signalling rate, bits per simulated second.
    pub raw_bps: f64,
    /// Plug-in mutual information, bits per channel use.
    pub mi: f64,
    /// Estimated channel capacity, bits per simulated second.
    pub capacity_bps: f64,
}

/// Measure one cell: calibrate, transmit [`CELL_BITS`] seeded bits,
/// convert the confusion matrix to capacity.
fn measure_cell(spec: &CellSpec) -> LeakageCell {
    let channel = Channel::new(spec.family, spec.geom, spec.epoch, spec.mode);
    let payload = payload_bits(spec.seed(), CELL_BITS);
    let mut confusion = Confusion::default();
    let mut cycles = 0u64;
    for &bit in &payload {
        let trial = channel.transmit(bit);
        confusion.record(bit, trial.decoded);
        cycles += trial.cycles;
    }
    let seconds = cycles as f64 / CORE_HZ as f64;
    let raw_bps = CELL_BITS as f64 / seconds;
    let mi = confusion.mutual_information();
    LeakageCell {
        spec: *spec,
        bits: CELL_BITS as u64,
        errors: confusion.errors(),
        ber: confusion.ber(),
        sim_ms: seconds * 1e3,
        raw_bps,
        mi,
        capacity_bps: raw_bps * mi,
    }
}

/// A measured leakage-bandwidth matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageMatrix {
    /// The cells, in sweep order.
    pub cells: Vec<LeakageCell>,
}

impl LeakageMatrix {
    /// Measure every cell of the full sweep, fanned through [`par_map`].
    /// Order-preserving, so the matrix renders byte-identically on one
    /// thread or many.
    pub fn measure() -> LeakageMatrix {
        LeakageMatrix {
            cells: par_map(full_specs(), |spec| measure_cell(&spec)),
        }
    }

    /// Enforce the differential security bounds: every S-NIC cell under
    /// [`SNIC_CAPACITY_CEILING_BPS`], every exploitable commodity cell
    /// over [`COMMODITY_CAPACITY_FLOOR_BPS`], and every family with a
    /// commodity cell over that floor. `Err` lists every violation, one
    /// per line.
    pub fn check_bounds(&self) -> Result<(), String> {
        let mut out = Vec::new();
        for c in &self.cells {
            let key = c.spec.key();
            match c.spec.mode {
                NicMode::Snic => {
                    if c.capacity_bps > SNIC_CAPACITY_CEILING_BPS {
                        out.push(format!(
                            "[{key}] S-NIC capacity {:.4} bps exceeds ceiling {SNIC_CAPACITY_CEILING_BPS} bps",
                            c.capacity_bps
                        ));
                    }
                }
                NicMode::Commodity => {
                    if c.spec.exploitable() && c.capacity_bps <= COMMODITY_CAPACITY_FLOOR_BPS {
                        out.push(format!(
                            "[{key}] commodity capacity {:.4} bps under floor \
                             {COMMODITY_CAPACITY_FLOOR_BPS} bps on an exploitable geometry",
                            c.capacity_bps
                        ));
                    }
                }
            }
        }
        for family in ChannelFamily::ALL {
            if !self.cells.iter().any(|c| {
                c.spec.family == family
                    && c.spec.mode == NicMode::Commodity
                    && c.capacity_bps > COMMODITY_CAPACITY_FLOOR_BPS
            }) {
                out.push(format!(
                    "[{}] no commodity cell over the {COMMODITY_CAPACITY_FLOOR_BPS} bps floor",
                    family.label()
                ));
            }
        }
        if out.is_empty() {
            Ok(())
        } else {
            Err(out.join("\n"))
        }
    }

    /// The table: one row per cell, then the best commodity and the
    /// worst S-NIC capacity.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<7} {:<10} {:>6} {:<10} {:>5} {:>7} {:>7} {:>10} {:>12} {:>7} {:>12}\n",
            "family",
            "geometry",
            "epoch",
            "mode",
            "bits",
            "errors",
            "ber",
            "sim_ms",
            "raw_bps",
            "mi",
            "capacity_bps"
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{:<7} {:<10} {:>6} {:<10} {:>5} {:>7} {:>7.4} {:>10.4} {:>12.4} {:>7.4} {:>12.4}\n",
                c.spec.family.label(),
                c.spec.geom.label(),
                c.spec.epoch,
                c.spec.mode.name(),
                c.bits,
                c.errors,
                c.ber,
                c.sim_ms,
                c.raw_bps,
                c.mi,
                c.capacity_bps
            ));
        }
        let max_capacity = |mode| {
            self.cells
                .iter()
                .filter(|c| c.spec.mode == mode)
                .map(|c| c.capacity_bps)
                .fold(0.0f64, f64::max)
        };
        out.push_str(&format!(
            "best commodity {:.1} bps | worst S-NIC {:.4} bps\n",
            max_capacity(NicMode::Commodity),
            max_capacity(NicMode::Snic)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_dimensions_cover_the_acceptance_matrix() {
        let specs = full_specs();
        assert_eq!(specs.len(), 3 * 4 * 3 * 2);
        // Keys are unique and seeds are key-determined.
        let keys: std::collections::BTreeSet<String> = specs.iter().map(|s| s.key()).collect();
        assert_eq!(keys.len(), specs.len());
        assert_eq!(specs[0].seed(), specs[0].seed());
        assert_ne!(specs[0].seed(), specs[1].seed());
    }

    /// The measured matrix holds its bounds (an unexploitable commodity
    /// cell at capacity 0, the 4-way cache geometry, is no violation);
    /// each kind of breach makes `check_bounds` an `Err` naming it.
    #[test]
    fn bounds_catch_both_directions() {
        let measured = LeakageMatrix::measure();
        assert_eq!(measured.check_bounds(), Ok(()));
        let violation = |edit: &dyn Fn(&mut Vec<LeakageCell>)| {
            let mut m = measured.clone();
            edit(&mut m.cells);
            m.check_bounds().unwrap_err()
        };

        let leaky = violation(&|cells| {
            let c = cells.iter_mut().find(|c| c.spec.mode == NicMode::Snic);
            c.unwrap().capacity_bps = 1.0;
        });
        assert_eq!(leaky.lines().count(), 1, "{leaky}");
        assert!(leaky.contains("exceeds ceiling"), "{leaky}");

        let dead = violation(&|cells| {
            let c = cells.iter_mut().find(|c| c.spec.mode == NicMode::Commodity);
            c.unwrap().capacity_bps = 0.0;
        });
        assert_eq!(dead.lines().count(), 1, "{dead}");
        assert!(dead.contains("under floor"), "{dead}");

        // Only the unexploitable cache cells left: no cell breaks a
        // per-cell bound, but the cache family carries no signal.
        let silent = violation(&|cells| {
            cells.retain(|c| c.spec.family != ChannelFamily::Cache || !c.spec.exploitable());
        });
        assert_eq!(
            silent,
            format!("[cache] no commodity cell over the {COMMODITY_CAPACITY_FLOOR_BPS} bps floor")
        );
    }
}
