//! The leakage-bandwidth matrix: sweep, stable text form, diff, gates.
//!
//! A cell is one `(family, geometry, epoch, mode)` point; measuring it
//! transmits [`CELL_BITS`] seeded payload bits through the channel and
//! reports bit-error rate, raw bit-rate, plug-in mutual information,
//! and capacity in bits per second of *simulated* time. The whole
//! matrix fans through [`snic_sim::par_map`], each cell fully
//! self-contained (its payload seed derives from the cell key, not the
//! sweep order), so the matrix is byte-identical however many threads
//! the pool gets — and the smoke subset measures to exactly the same values as the
//! corresponding rows of the full matrix.
//!
//! The text form is versioned and diffable like the telemetry
//! `Summary`, and `tests/golden/leakage.txt` snapshots the full sweep
//! (`SNIC_BLESS=1` to regenerate).

use crate::capacity::{payload_bits, splitmix64, Confusion};
use crate::channel::{Channel, ChannelFamily, Geometry, Mode};
use crate::covert;
use snic_sim::par_map;
use snic_uarch::config::CORE_HZ;

/// Payload bits transmitted per cell (both full and smoke sweeps, so
/// smoke rows diff cleanly against the full golden).
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

/// The epoch the smoke sweep keeps (the paper-default 96).
pub const SMOKE_EPOCH: u64 = 96;

/// Hard ceiling every S-NIC cell must stay under, in bits/sec. The
/// engine's purity property makes S-NIC capacity *exactly* 0; the
/// ceiling is slack only so the gate message stays meaningful if a
/// regression produces epsilon leakage.
pub const SNIC_CAPACITY_CEILING_BPS: f64 = 0.01;

/// Floor every commodity cell of an exploitable geometry must clear,
/// in bits/sec.
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
    pub mode: Mode,
}

impl CellSpec {
    /// Stable cell key, also the text-form prefix:
    /// `cache 16w512s 96 commodity`.
    pub fn key(&self) -> String {
        format!(
            "{} {} {} {}",
            self.family.label(),
            self.geom.label(),
            self.epoch,
            self.mode.label()
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
    /// so sweep order and subsetting never change a cell's payload.
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
pub fn full_specs() -> Vec<CellSpec> {
    let mut out = Vec::new();
    for family in ChannelFamily::ALL {
        for geom in GEOMETRIES {
            for epoch in EPOCHS {
                for mode in Mode::ALL {
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

/// The smoke subset: every family × geometry × mode at [`SMOKE_EPOCH`]
/// only. Cells measure to the same values as their full-sweep twins.
pub fn smoke_specs() -> Vec<CellSpec> {
    full_specs()
        .into_iter()
        .filter(|s| s.epoch == SMOKE_EPOCH)
        .collect()
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

impl LeakageCell {
    /// The numeric column rendering (everything after the key).
    fn values(&self) -> String {
        format!(
            "{} {} {:.4} {:.4} {:.4} {:.4} {:.4}",
            self.bits, self.errors, self.ber, self.sim_ms, self.raw_bps, self.mi, self.capacity_bps
        )
    }
}

/// Measure one cell: calibrate, transmit [`CELL_BITS`] seeded bits,
/// convert the confusion matrix to capacity.
pub fn measure_cell(spec: &CellSpec, bits: usize) -> LeakageCell {
    let channel = Channel::new(spec.family, spec.geom, spec.epoch, spec.mode);
    let payload = payload_bits(spec.seed(), bits);
    let mut confusion = Confusion::default();
    let mut cycles = 0u64;
    for &bit in &payload {
        let trial = channel.transmit(bit);
        confusion.record(bit, trial.decoded);
        cycles += trial.cycles;
    }
    let seconds = cycles as f64 / CORE_HZ as f64;
    let raw_bps = bits as f64 / seconds;
    let mi = confusion.mutual_information();
    LeakageCell {
        spec: *spec,
        bits: bits as u64,
        errors: confusion.errors(),
        ber: confusion.ber(),
        sim_ms: seconds * 1e3,
        raw_bps,
        mi,
        capacity_bps: raw_bps * mi,
    }
}

/// A measured (or parsed) leakage-bandwidth matrix.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LeakageMatrix {
    /// The cells, in sweep order.
    pub cells: Vec<LeakageCell>,
}

impl LeakageMatrix {
    /// Measure every spec, fanned through [`par_map`]. Order-preserving,
    /// so the matrix renders byte-identically on one thread or many.
    pub fn measure(specs: Vec<CellSpec>, bits: usize) -> LeakageMatrix {
        LeakageMatrix {
            cells: par_map(specs, |spec| measure_cell(&spec, bits)),
        }
    }

    /// Stable machine-readable text form, one cell per line:
    ///
    /// ```text
    /// # snic-leakage matrix v1
    /// cell <family> <geometry> <epoch> <mode> <bits> <errors> <ber> <sim_ms> <raw_bps> <mi> <capacity_bps>
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::from("# snic-leakage matrix v1\n");
        for c in &self.cells {
            out.push_str(&format!("cell {} {}\n", c.spec.key(), c.values()));
        }
        out
    }

    /// Parse the format written by [`LeakageMatrix::to_text`].
    pub fn from_text(text: &str) -> Result<LeakageMatrix, String> {
        let mut m = LeakageMatrix::default();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("leakage matrix line {}: unparseable: {line:?}", ln + 1);
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [tag, family, geom, epoch, mode, bits, errors, ber, sim_ms, raw_bps, mi, capacity] =
                fields.as_slice()
            else {
                return Err(bad());
            };
            if *tag != "cell" {
                return Err(bad());
            }
            let spec = CellSpec {
                family: ChannelFamily::from_label(family).ok_or_else(bad)?,
                geom: Geometry::from_label(geom).ok_or_else(bad)?,
                epoch: epoch.parse().map_err(|_| bad())?,
                mode: Mode::from_label(mode).ok_or_else(bad)?,
            };
            m.cells.push(LeakageCell {
                spec,
                bits: bits.parse().map_err(|_| bad())?,
                errors: errors.parse().map_err(|_| bad())?,
                ber: ber.parse().map_err(|_| bad())?,
                sim_ms: sim_ms.parse().map_err(|_| bad())?,
                raw_bps: raw_bps.parse().map_err(|_| bad())?,
                mi: mi.parse().map_err(|_| bad())?,
                capacity_bps: capacity.parse().map_err(|_| bad())?,
            });
        }
        Ok(m)
    }

    /// Compare every cell of `self` against the same-keyed cell of
    /// `golden` (subset semantics: golden rows missing from `self` —
    /// e.g. the non-smoke epochs — are fine). Returns one line per
    /// discrepancy; empty means `self` ⊆ `golden`.
    pub fn diff(&self, golden: &LeakageMatrix) -> Vec<String> {
        let gold: std::collections::BTreeMap<String, String> = golden
            .cells
            .iter()
            .map(|c| (c.spec.key(), c.values()))
            .collect();
        let mut out = Vec::new();
        for c in &self.cells {
            let key = c.spec.key();
            match gold.get(&key) {
                None => out.push(format!("[{key}] missing from golden")),
                Some(g) if *g != c.values() => {
                    out.push(format!("[{key}] golden: {g} | measured: {}", c.values()));
                }
                Some(_) => {}
            }
        }
        out
    }

    /// Enforce the differential security bounds: every S-NIC cell under
    /// [`SNIC_CAPACITY_CEILING_BPS`], every exploitable commodity cell
    /// over [`COMMODITY_CAPACITY_FLOOR_BPS`]. Returns violations.
    pub fn check_bounds(&self) -> Vec<String> {
        let mut out = Vec::new();
        for c in &self.cells {
            let key = c.spec.key();
            match c.spec.mode {
                Mode::Snic => {
                    if c.capacity_bps > SNIC_CAPACITY_CEILING_BPS {
                        out.push(format!(
                            "[{key}] S-NIC capacity {:.4} bps exceeds ceiling {SNIC_CAPACITY_CEILING_BPS} bps",
                            c.capacity_bps
                        ));
                    }
                }
                Mode::Commodity => {
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
        out
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<7} {:<10} {:>6} {:<10} {:>5} {:>7} {:>7} {:>10} {:>7} {:>12}\n",
            "family",
            "geometry",
            "epoch",
            "mode",
            "bits",
            "errors",
            "ber",
            "sim_ms",
            "mi",
            "capacity_bps"
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{:<7} {:<10} {:>6} {:<10} {:>5} {:>7} {:>7.4} {:>10.4} {:>7.4} {:>12.4}\n",
                c.spec.family.label(),
                c.spec.geom.label(),
                c.spec.epoch,
                c.spec.mode.label(),
                c.bits,
                c.errors,
                c.ber,
                c.sim_ms,
                c.mi,
                c.capacity_bps
            ));
        }
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
        let smoke = smoke_specs();
        assert_eq!(smoke.len(), 3 * 4 * 2);
        assert!(smoke.iter().all(|s| s.epoch == SMOKE_EPOCH));
        // Keys are unique and seeds are key-determined.
        let keys: std::collections::BTreeSet<String> = specs.iter().map(|s| s.key()).collect();
        assert_eq!(keys.len(), specs.len());
        assert_eq!(specs[0].seed(), specs[0].seed());
        assert_ne!(specs[0].seed(), specs[1].seed());
    }

    #[test]
    fn text_form_round_trips_and_diffs() {
        let spec = CellSpec {
            family: ChannelFamily::Bus,
            geom: Geometry { ways: 8, sets: 128 },
            epoch: 96,
            mode: Mode::Commodity,
        };
        let cell = LeakageCell {
            spec,
            bits: 16,
            errors: 1,
            ber: 0.0625,
            sim_ms: 1.2345,
            raw_bps: 12961.9279,
            mi: 0.6626,
            capacity_bps: 8588.9,
        };
        let m = LeakageMatrix { cells: vec![cell] };
        let text = m.to_text();
        let parsed = LeakageMatrix::from_text(&text).unwrap();
        assert_eq!(parsed.to_text(), text, "to_text ∘ from_text is identity");
        assert!(m.diff(&parsed).is_empty());

        let mut other = parsed.clone();
        other.cells[0].errors = 2;
        let d = m.diff(&other);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("bus 8w128s 96 commodity"), "{d:?}");
        assert_eq!(m.diff(&LeakageMatrix::default()).len(), 1, "missing key");
        assert!(LeakageMatrix::from_text("cell bogus\n").is_err());
    }

    #[test]
    fn bounds_catch_both_directions() {
        let snic_leaky = LeakageCell {
            spec: CellSpec {
                family: ChannelFamily::Bus,
                geom: GEOMETRIES[0],
                epoch: 96,
                mode: Mode::Snic,
            },
            bits: 16,
            errors: 0,
            ber: 0.0,
            sim_ms: 1.0,
            raw_bps: 16000.0,
            mi: 1.0,
            capacity_bps: 16000.0,
        };
        let commodity_dead = LeakageCell {
            spec: CellSpec {
                family: ChannelFamily::Bus,
                geom: GEOMETRIES[0],
                epoch: 96,
                mode: Mode::Commodity,
            },
            capacity_bps: 0.0,
            mi: 0.0,
            ..snic_leaky.clone()
        };
        // An unexploitable commodity cell at capacity 0 is *not* a
        // violation: the 4-way geometry cannot host prime+probe.
        let degenerate_ok = LeakageCell {
            spec: CellSpec {
                family: ChannelFamily::Cache,
                geom: Geometry {
                    ways: 4,
                    sets: 2048,
                },
                epoch: 96,
                mode: Mode::Commodity,
            },
            ..commodity_dead.clone()
        };
        let m = LeakageMatrix {
            cells: vec![snic_leaky, commodity_dead, degenerate_ok],
        };
        let v = m.check_bounds();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("exceeds ceiling"));
        assert!(v[1].contains("under floor"));
    }
}
