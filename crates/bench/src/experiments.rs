//! The experiment registry: every table and figure of the paper's
//! evaluation (§5) as one named entry that renders its text.
//!
//! `snicctl exp <name> | all | list [--full]` is the only front end;
//! there is no per-experiment binary. Renderers live beside the data
//! they print (`tables`, `fig5`..`fig8`, `blast`); the ones with no
//! figure or table module of their own (`attacks`, `leakage`,
//! `ablation_cache`, `soak`, `verify`) live here. An entry whose result
//! breaks its own check returns that as its `Err`, which `snicctl exp`
//! exits 12 on.

use std::fmt::Write as _;

use rand::SeedableRng;
use snic_attacks::traced::lint_all;
use snic_attacks::{bus_dos, run_all as run_attacks, watermark};
use snic_core::config::{NicConfig, NicMode};
use snic_core::device::SmartNic;
use snic_core::instr::{LaunchRequest, NfImage};
use snic_crypto::keys::VendorCa;
use snic_leakage::LeakageMatrix;
use snic_nf::NfKind;
use snic_sim::{par_map, SimJob};
use snic_types::{ByteSize, CoreId, SnicError};
use snic_uarch::bus::BusKind;
use snic_uarch::cache::Partition;
use snic_uarch::config::MachineConfig;

use crate::streams::all_traces;
use crate::{blast, fig5, fig6, fig7, fig8, median, render_table, tables, Scale};

/// One reproducible experiment.
pub struct Experiment {
    /// The name `snicctl exp` takes.
    pub name: &'static str,
    /// What it reproduces from the paper.
    pub reproduces: &'static str,
    /// Render the experiment's text at `scale`; `full` additionally
    /// widens the sweeps that have a paper-sized axis (fig5a/fig5b).
    /// `Err` when the result fails the entry's check.
    pub run: fn(&Scale, bool) -> Result<String, String>,
}

/// Every experiment, in the order `exp all` runs them: closed-form
/// tables first, the simulation sweeps last.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        name: "table1",
        reproduces: "Table 1: management APIs <-> trusted instructions, executed live",
        run: tables::table1_report,
    },
    Experiment {
        name: "table2",
        reproduces: "Table 2: TLB costs for programmable cores",
        run: tables::table2_report,
    },
    Experiment {
        name: "table3",
        reproduces: "Table 3: accelerator TLB banks",
        run: tables::table3_report,
    },
    Experiment {
        name: "table4",
        reproduces: "Table 4: VPP/DMA TLB banks",
        run: tables::table4_report,
    },
    Experiment {
        name: "table5",
        reproduces: "Table 5: page-size policy vs TLB cost",
        run: tables::table5_report,
    },
    Experiment {
        name: "table6",
        reproduces: "Table 6: NF memory profiles and TLB sizing",
        run: tables::table6_report,
    },
    Experiment {
        name: "table7",
        reproduces: "Table 7: accelerator memory profiles",
        run: tables::table7_report,
    },
    Experiment {
        name: "table8",
        reproduces: "Table 8: memory utilization ratios",
        run: fig7::table8_report,
    },
    Experiment {
        name: "tco",
        reproduces: "§5.2 three-year TCO analysis",
        run: tables::tco_analysis_report,
    },
    Experiment {
        name: "headline",
        reproduces: "§1/§5 headline silicon-overhead and TCO numbers",
        run: tables::headline_report,
    },
    Experiment {
        name: "fig6",
        reproduces: "Figure 6: trusted-instruction latency per NF",
        run: fig6::report,
    },
    Experiment {
        name: "fig7",
        reproduces: "Figure 7: Monitor memory usage over time",
        run: fig7::report,
    },
    Experiment {
        name: "fig8",
        reproduces: "Figure 8: DPI accelerator throughput vs threads x frame size",
        run: fig8::report,
    },
    Experiment {
        name: "attacks",
        reproduces: "§3.3 concrete attacks against both device modes",
        run: attacks,
    },
    Experiment {
        name: "leakage",
        reproduces:
            "§4.5 covert-channel capacity: 3 families x 4 L2 geometries x 3 epochs x 2 modes",
        run: leakage,
    },
    Experiment {
        name: "ablation_cache",
        reproduces: "§4.2 ablation: each isolation mechanism alone, static vs SecDCP",
        run: ablation_cache,
    },
    Experiment {
        name: "fig5a",
        reproduces: "Figure 5a: IPC degradation vs L2 size, 2 colocated NFs",
        run: fig5::fig5a_report,
    },
    Experiment {
        name: "fig5b",
        reproduces: "Figure 5b: IPC degradation vs cotenancy at 4 MB L2",
        run: fig5::fig5b_report,
    },
    Experiment {
        name: "blast_radius",
        reproduces: "§4.3/§4.6 fault containment: blast-radius matrix",
        run: blast::report,
    },
    Experiment {
        name: "soak",
        reproduces:
            "§4.3/§4.6 containment at snicd: seeded overload + fault plan, restart differential",
        run: soak,
    },
    Experiment {
        name: "verify",
        reproduces: "§4.1 static verifier: manifest refusal + trace lints of the attacks",
        run: verify,
    },
];

/// Look an experiment up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// The `exp list` text: one `name  reproduces` line per entry, in
/// registry order.
pub fn list() -> String {
    let mut out = String::new();
    for e in REGISTRY {
        let _ = writeln!(out, "{:<15} {}", e.name, e.reproduces);
    }
    out
}

/// Run the whole registry in order, in this process, and return the
/// transcript: a `########## name ##########` banner before each
/// experiment's text. The first entry that fails is the `Err`, named.
pub fn run_all(scale: &Scale, full: bool) -> Result<String, String> {
    let mut out = String::new();
    for e in REGISTRY {
        let text = (e.run)(scale, full).map_err(|err| format!("{} failed:\n{err}", e.name))?;
        let _ = write!(out, "\n########## {} ##########\n{text}", e.name);
    }
    out.push_str("\nall experiments completed\n");
    Ok(out)
}

/// The §3.3 concrete attacks against both device modes.
fn attacks(_: &Scale, _: bool) -> Result<String, String> {
    let mut rows = Vec::new();
    let names = [
        "packet corruption (MazuNAT)",
        "DPI ruleset stealing",
        "IO bus DoS",
        "NIC OS tampering",
    ];
    for mode in [NicMode::Commodity, NicMode::Snic] {
        for (name, outcome) in names.iter().zip(run_attacks(mode)) {
            rows.push(vec![
                format!("{mode:?}"),
                name.to_string(),
                if outcome.succeeded {
                    "ATTACK SUCCEEDED".into()
                } else {
                    "blocked".to_string()
                },
                outcome.evidence,
            ]);
        }
    }
    let mut out = render_table(
        "§3.3 concrete attacks (paper: all succeed on commodity NICs; S-NIC's goal is to prevent all of them)",
        &["mode", "attack", "result", "evidence"],
        &rows,
    );
    let (fcfs, temporal) = bus_dos::flood_latency_impact();
    let _ = writeln!(
        out,
        "bus flood latency impact on victim: FCFS +{fcfs} cycles, temporal partitioning +{temporal} cycles"
    );
    let (wm_fcfs, _) = watermark::run_watermark(NicMode::Commodity);
    let (wm_temporal, _) = watermark::run_watermark(NicMode::Snic);
    let _ = writeln!(
        out,
        "watermark fidelity (§4.5): FCFS {:.0}% decoded, temporal partitioning {:.0}% (chance)",
        wm_fcfs * 100.0,
        wm_temporal * 100.0
    );
    Ok(out)
}

/// The §4.5 covert-channel matrix, held to its security bounds.
fn leakage(_: &Scale, _: bool) -> Result<String, String> {
    let matrix = LeakageMatrix::measure();
    matrix.check_bounds()?;
    Ok(matrix.render())
}

/// The `snicd` soak, held to its acceptance gate and its restart
/// differential.
fn soak(_: &Scale, _: bool) -> Result<String, String> {
    snic_serve::soak::run_checked(snic_serve::soak::SEED).map(|report| report.render())
}

const ABLATION_KINDS: [NfKind; 4] = [
    NfKind::Firewall,
    NfKind::Dpi,
    NfKind::Nat,
    NfKind::LoadBalancer,
];

/// Ablation: static cache partitioning vs. SecDCP demand partitioning
/// (the §4.2 design alternative), and each mechanism in isolation —
/// cache-partitioning-only, bus-partitioning-only, both (S-NIC), and
/// SecDCP instead of static slices. All variant runs (plus the shared
/// commodity baseline) are independent colocation simulations, so they
/// fan across the `snic-sim` worker pool as one job list.
fn ablation_cache(scale: &Scale, _: bool) -> Result<String, String> {
    let l2 = 4 << 20;
    let tenants = 4u32;
    let traces = all_traces(scale, 0xab1a);

    let variants: Vec<(&str, MachineConfig)> = vec![
        (
            "cache partitioning only",
            MachineConfig {
                l2_partition: Partition::StaticWays { tenants },
                ..MachineConfig::commodity(tenants, l2)
            },
        ),
        (
            "bus partitioning only",
            MachineConfig {
                bus: BusKind::Temporal { domains: tenants },
                ..MachineConfig::commodity(tenants, l2)
            },
        ),
        ("both (S-NIC, static)", MachineConfig::snic(tenants, l2)),
        (
            "both (S-NIC, SecDCP 4/4/4/4)",
            MachineConfig::snic_secdcp(vec![4, 4, 4, 4], l2),
        ),
        (
            "both (SecDCP skewed 7/3/3/3)",
            MachineConfig::snic_secdcp(vec![7, 3, 3, 3], l2),
        ),
    ];

    // Job 0 is the shared commodity baseline; jobs 1.. are the variants.
    let job = |cfg: MachineConfig| fig5::colocation_job(&traces, &ABLATION_KINDS, cfg);
    let mut jobs = vec![job(MachineConfig::commodity(tenants, l2))];
    jobs.extend(variants.iter().map(|(_, cfg)| job(cfg.clone())));
    let outcomes = par_map(jobs, SimJob::run);
    let base = &outcomes[0];

    let rows: Vec<Vec<String>> = variants
        .iter()
        .zip(&outcomes[1..])
        .map(|((name, _), run)| {
            let mut degs: Vec<f64> = (0..ABLATION_KINDS.len())
                .map(|i| run.ipc_degradation_vs(base, i))
                .collect();
            vec![name.to_string(), format!("{:.3}%", median(&mut degs))]
        })
        .collect();

    Ok(render_table(
        "Ablation: median IPC degradation @4 NFs / 4MB L2 (paper S-NIC total: 0.93% median)",
        &["configuration", "median IPC degradation"],
        &rows,
    ))
}

fn provision(mode: NicMode) -> (SmartNic, snic_types::NfId) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
    let vendor = VendorCa::new(&mut rng);
    let mut nic = SmartNic::new(NicConfig::small(mode), &vendor);
    let mut first = None;
    for (core, mem) in [(0u16, 8u64), (1, 4)] {
        let receipt = nic
            .nf_launch(LaunchRequest::minimal(
                CoreId(core),
                ByteSize::mib(mem),
                NfImage {
                    code: format!("tenant-{core}").into_bytes(),
                    config: vec![],
                },
            ))
            .expect("provisioning launch");
        first.get_or_insert(receipt.nf_id);
    }
    (nic, first.expect("two launches"))
}

/// Both `snic-verify` passes against live device models. Pass 1
/// verifies the manifest sets of freshly provisioned devices in both
/// modes, then demonstrates a refusal: a launch whose region overlaps a
/// live function is rejected by the verifier (with a paper citation)
/// before any device state changes. Pass 2 runs every attack scenario
/// with the recorder on and prints what the offline linter flagged.
fn verify(_: &Scale, _: bool) -> Result<String, String> {
    let mut out = String::from("== Pass 1: manifest verification ==\n\n");
    for mode in [NicMode::Commodity, NicMode::Snic] {
        let (mut nic, tenant0) = provision(mode);
        let _ = writeln!(out, "{mode:?}: {}", nic.verify_state());

        // A third tenant asks for a region on top of tenant 0.
        let (base, _) = nic.record_of(tenant0).expect("tenant 0 live").region;
        let mut overlapping = LaunchRequest::minimal(
            CoreId(2),
            ByteSize::mib(4),
            NfImage {
                code: b"squatter".to_vec(),
                config: vec![],
            },
        );
        overlapping.region_base = Some(base + 0x1000);
        let _ = match nic.nf_launch(overlapping) {
            Err(SnicError::Verification(report)) => {
                writeln!(out, "{mode:?}: overlapping launch refused:\n{report}")
            }
            other => writeln!(out, "{mode:?}: UNEXPECTED launch outcome: {other:?}"),
        };
    }

    out.push_str("== Pass 2: trace linting of the attack scenarios ==\n\n");
    let mut rows = Vec::new();
    for mode in [NicMode::Commodity, NicMode::Snic] {
        for scenario in lint_all(mode) {
            if scenario.findings.is_empty() {
                rows.push(vec![
                    format!("{mode:?}"),
                    scenario.name.to_string(),
                    "clean".to_string(),
                    String::new(),
                ]);
            } else {
                for f in &scenario.findings {
                    rows.push(vec![
                        format!("{mode:?}"),
                        scenario.name.to_string(),
                        format!("{:?}", f.kind),
                        format!("{} x{} [{}]", f.actor, f.count, f.citation()),
                    ]);
                }
            }
        }
    }
    out.push_str(&render_table(
        "Pass 2 findings (commodity traces must light up; S-NIC traces must be clean)",
        &["mode", "scenario", "finding", "attribution"],
        &rows,
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_list_follows_registry_order() {
        let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate name in {names:?}");
        let list = list();
        let listed: Vec<&str> = list
            .lines()
            .map(|l| l.split_whitespace().next().expect("name column"))
            .collect();
        assert_eq!(listed, names);
        for name in names {
            assert_eq!(find(name).map(|e| e.name), Some(name));
        }
        assert!(find("nosuch").is_none());
    }

    #[test]
    fn simulation_free_entries_render_deterministically() {
        let scale = Scale::quick();
        for name in [
            "table2", "table3", "table4", "table5", "table6", "table7", "table8", "tco",
            "headline", "fig6",
        ] {
            let run = find(name).expect(name).run;
            let text = run(&scale, false).expect(name);
            assert!(!text.is_empty(), "{name} rendered nothing");
            assert!(text.ends_with('\n'), "{name} must end its last line");
            assert_eq!(Ok(text), run(&scale, false), "{name} is not deterministic");
        }
    }
}
