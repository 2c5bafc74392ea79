//! The sharded engine's contract: splitting one S-NIC colocation run
//! across worker threads changes *where* each tenant simulates, never
//! *what* it computes. These tests replay the real recorded NF traces
//! (the same shape the figure sweeps use) and hold a sharded
//! `SimJob::run` to
//! byte-identical `RunOutcome`s versus the serial interleaving engine,
//! for every shard count, with and without a live telemetry sink —
//! the companion of `parallel_determinism.rs`, one level down: that
//! suite shards a *sweep* across runs, this one shards a *run* across
//! tenants.

use snic_bench::streams::all_traces;
use snic_bench::Scale;
use std::sync::Arc;

use snic_sim::{shardable, SimJob};
use snic_telemetry::{Recorder, TelemetrySink};
use snic_uarch::config::MachineConfig;
use snic_uarch::engine::{run_colocated_ids_sink, run_colocated_warm};
use snic_uarch::stream::{EventSource, SharedReplayStream};

fn tiny() -> Scale {
    Scale {
        flows: 2_000,
        packets: 2_500,
        patterns: 200,
        fw_rules: 100,
        lpm_prefixes: 400,
        monitor_ms: 20,
    }
}

/// `tenants` recorded traces round-robin, each replayed twice with the
/// first pass as warmup — the fig5 sweep shape.
fn cell(tenants: usize) -> (Vec<EventSource>, Vec<u64>) {
    let traces = all_traces(&tiny(), 0xdead);
    let streams: Vec<EventSource> = (0..tenants)
        .map(|i| {
            let (_, trace) = &traces[i % traces.len()];
            SharedReplayStream::repeated(trace.clone(), 2).into()
        })
        .collect();
    let warmups: Vec<u64> = (0..tenants)
        .map(|i| traces[i % traces.len()].1.len() as u64)
        .collect();
    (streams, warmups)
}

#[test]
fn sharded_byte_identical_to_serial_for_every_shard_count() {
    for tenants in [2usize, 4, 6] {
        for cfg in [
            MachineConfig::snic(tenants as u32, 1 << 20),
            MachineConfig::snic_secdcp(
                (0..tenants as u32)
                    .map(|t| if t == 0 { 16 - tenants as u32 + 1 } else { 1 })
                    .collect(),
                1 << 20,
            ),
        ] {
            assert!(shardable(&cfg), "fixture must exercise the sharded path");
            let (streams, warmups) = cell(tenants);
            let serial = run_colocated_warm(&cfg, streams, &warmups);
            for shards in [1usize, 2, 3, tenants, tenants + 5] {
                let (streams, warmups) = cell(tenants);
                let sharded = SimJob::new(cfg.clone(), streams)
                    .with_warmups(warmups)
                    .with_shards(shards)
                    .run();
                // NfRunStats is all-integer, so == is byte equality.
                assert_eq!(
                    serial.nfs, sharded.nfs,
                    "{tenants} tenants diverged at {shards} shards under {cfg:?}"
                );
            }
        }
    }
}

#[test]
fn sharded_telemetry_byte_identical_to_serial() {
    let cfg = MachineConfig::snic(4, 1 << 20);
    let (streams, warmups) = cell(4);
    let serial_rec = Recorder::new();
    let serial = run_colocated_ids_sink(&cfg, streams, &warmups, &[0, 1, 2, 3], &serial_rec);
    for shards in [1usize, 2, 4] {
        let (streams, warmups) = cell(4);
        let rec = Arc::new(Recorder::new());
        let sharded = SimJob::new(cfg.clone(), streams)
            .with_warmups(warmups)
            .with_shards(shards)
            .with_sink(Arc::clone(&rec) as Arc<dyn TelemetrySink>)
            .run();
        assert_eq!(serial.nfs, sharded.nfs, "stats diverged at {shards} shards");
        assert_eq!(
            serial_rec.summary().render(),
            rec.summary().render(),
            "telemetry summary diverged at {shards} shards"
        );
    }
}

#[test]
fn sink_on_sharded_matches_sink_off_sharded() {
    // The zero-cost-off contract survives sharding: attaching a live
    // recorder to a sharded run leaves every statistic untouched.
    let cfg = MachineConfig::snic(4, 1 << 20);
    let (streams, warmups) = cell(4);
    let bare = SimJob::new(cfg.clone(), streams)
        .with_warmups(warmups)
        .with_shards(2)
        .run();
    let (streams, warmups) = cell(4);
    let rec = Arc::new(Recorder::new());
    let recorded = SimJob::new(cfg, streams)
        .with_warmups(warmups)
        .with_shards(2)
        .with_sink(Arc::clone(&rec) as Arc<dyn TelemetrySink>)
        .run();
    assert_eq!(bare.nfs, recorded.nfs);
    assert!(!rec.summary().is_empty(), "the sink saw the sharded run");
}

#[test]
fn commodity_runs_fall_back_to_serial_unchanged() {
    // A shared-L2/FCFS personality is not shardable; asking for shards
    // must silently take the serial path, not change results.
    let cfg = MachineConfig::commodity(3, 1 << 20);
    assert!(!shardable(&cfg));
    let (streams, warmups) = cell(3);
    let serial = run_colocated_warm(&cfg, streams, &warmups);
    let (streams, warmups) = cell(3);
    let sharded = SimJob::new(cfg, streams)
        .with_warmups(warmups)
        .with_shards(3)
        .run();
    assert_eq!(serial.nfs, sharded.nfs);
}
