//! Ablation: static cache partitioning vs. SecDCP demand partitioning
//! (the §4.2 design alternative), and each mechanism in isolation.
//!
//! DESIGN.md calls out the static-vs-SecDCP choice; this bench
//! quantifies what each isolation mechanism costs by toggling them
//! independently: cache-partitioning-only, bus-partitioning-only, both
//! (S-NIC), and SecDCP instead of static slices. All variant runs (plus
//! the shared commodity baseline) are independent colocation
//! simulations, so they fan across the `snic-sim` worker pool as one
//! job list.

use snic_bench::streams::{all_traces, TraceSet};
use snic_bench::{median, render_table, Scale};
use snic_nf::NfKind;
use snic_sim::{par_map, SimJob};
use snic_uarch::bus::BusKind;
use snic_uarch::cache::Partition;
use snic_uarch::config::MachineConfig;
use snic_uarch::stream::{EventSource, SharedReplayStream};

const KINDS: [NfKind; 4] = [
    NfKind::Firewall,
    NfKind::Dpi,
    NfKind::Nat,
    NfKind::LoadBalancer,
];

fn job(traces: &TraceSet, cfg: MachineConfig) -> SimJob {
    let find = |k: NfKind| {
        &traces
            .iter()
            .find(|(kk, _)| *kk == k)
            .expect("trace exists")
            .1
    };
    // Replay twice: warm pass + measured pass, over the shared
    // recording (no per-run copies).
    let streams: Vec<EventSource> = KINDS
        .iter()
        .map(|&k| SharedReplayStream::repeated(find(k).clone(), 2).into())
        .collect();
    let warmups: Vec<u64> = KINDS.iter().map(|&k| find(k).len() as u64).collect();
    SimJob::new(cfg, streams).with_warmups(warmups)
}

fn main() {
    let scale = Scale::from_args();
    let l2 = 4 << 20;
    let tenants = 4u32;
    let traces = all_traces(&scale, 0xab1a);

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
    let mut jobs = vec![job(&traces, MachineConfig::commodity(tenants, l2))];
    jobs.extend(variants.iter().map(|(_, cfg)| job(&traces, cfg.clone())));
    let outcomes = par_map(jobs, SimJob::run);
    let base = &outcomes[0];

    let rows: Vec<Vec<String>> = variants
        .iter()
        .zip(&outcomes[1..])
        .map(|((name, _), run)| {
            let mut degs: Vec<f64> = (0..KINDS.len())
                .map(|i| run.ipc_degradation_vs(base, i))
                .collect();
            vec![name.to_string(), format!("{:.3}%", median(&mut degs))]
        })
        .collect();

    print!(
        "{}",
        render_table(
            "Ablation: median IPC degradation @4 NFs / 4MB L2 (paper S-NIC total: 0.93% median)",
            &["configuration", "median IPC degradation"],
            &rows,
        )
    );
}
