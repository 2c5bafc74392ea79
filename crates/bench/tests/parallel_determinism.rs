//! The parallel pool's contract: fanning a sweep across workers changes
//! *when* each simulation runs, never *what* it computes. These tests
//! hold the pool to byte-identical outputs versus the serial path — a
//! plain in-order map, or the same call with every spare thread of the
//! budget held — at
//! the raw `RunOutcome` level and at the figure level (`fig5`'s
//! `DegradationPoint`s, compared on f64 *bit patterns*, not epsilons).

use std::sync::Arc;

use snic_bench::fig5::{self, DegradationPoint};
use snic_bench::streams::all_traces;
use snic_bench::telemetry::{run_smoke, smoke_scale};
use snic_bench::Scale;
use snic_sim::{par_map_on, SimJob};
use snic_telemetry::{Recorder, TelemetrySink};
use snic_uarch::budget::Threads;
use snic_uarch::config::MachineConfig;
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

/// Jobs replaying the real NF reference traces under both disciplines
/// at several cotenancies — the same shape the figure sweeps fan out.
fn trace_jobs() -> Vec<SimJob> {
    let traces = all_traces(&tiny(), 0xdead);
    let mut jobs = Vec::new();
    for tenants in [2usize, 3, 4] {
        for (cfg_i, cfg) in [
            MachineConfig::commodity(tenants as u32, 1 << 20),
            MachineConfig::snic(tenants as u32, 1 << 20),
        ]
        .into_iter()
        .enumerate()
        {
            let streams: Vec<EventSource> = (0..tenants)
                .map(|i| {
                    let (_, trace) = &traces[(i + cfg_i) % traces.len()];
                    SharedReplayStream::repeated(trace.clone(), 2).into()
                })
                .collect();
            let warmups: Vec<u64> = (0..tenants)
                .map(|i| traces[(i + cfg_i) % traces.len()].1.len() as u64)
                .collect();
            jobs.push(SimJob::new(cfg, streams).with_warmups(warmups));
        }
    }
    jobs
}

#[test]
fn pool_outcomes_byte_identical_to_serial() {
    let serial: Vec<_> = trace_jobs().into_iter().map(SimJob::run).collect();
    for threads in [2, 4, 16] {
        let pooled = par_map_on(trace_jobs(), threads, SimJob::run);
        assert_eq!(serial.len(), pooled.len());
        for (i, (a, b)) in serial.iter().zip(&pooled).enumerate() {
            // NfRunStats is all-integer, so == is byte equality.
            assert_eq!(a.nfs, b.nfs, "job {i} diverged at {threads} threads");
        }
    }
}

fn assert_points_bitwise_eq(a: &[DegradationPoint], b: &[DegradationPoint]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.kind, y.kind);
        for (fa, fb, what) in [
            (x.median_pct, y.median_pct, "median"),
            (x.p1_pct, y.p1_pct, "p1"),
            (x.p99_pct, y.p99_pct, "p99"),
        ] {
            assert_eq!(
                fa.to_bits(),
                fb.to_bits(),
                "{:?} {what}: serial {fa} vs parallel {fb}",
                x.kind
            );
        }
    }
}

#[test]
fn sink_on_parallel_bit_identical_to_sink_off_serial() {
    // The strongest cross-product of the two determinism contracts:
    // attaching a live recorder AND fanning across the pool must both
    // leave every simulated statistic untouched.
    let scale = smoke_scale();
    let held = Threads::take(usize::MAX);
    let baseline = run_smoke(&scale, None);
    drop(held);
    let recorder: Arc<dyn TelemetrySink> = Arc::new(Recorder::new());
    let recorded = run_smoke(&scale, Some(recorder));
    assert_eq!(baseline.len(), recorded.len());
    for (i, (a, b)) in baseline.iter().zip(&recorded).enumerate() {
        assert_eq!(a.nfs, b.nfs, "job {i}: sink+pool diverged from bare serial");
    }
}

#[test]
fn fig5a_parallel_bit_identical_to_serial() {
    let sizes = [256 << 10, 4 << 20];
    let held = Threads::take(usize::MAX);
    let serial = fig5::fig5a(&tiny(), &sizes);
    drop(held);
    let parallel = fig5::fig5a(&tiny(), &sizes);
    assert_eq!(serial.len(), parallel.len());
    for ((l2_s, pts_s), (l2_p, pts_p)) in serial.iter().zip(&parallel) {
        assert_eq!(l2_s, l2_p);
        assert_points_bitwise_eq(pts_s, pts_p);
    }
}

#[test]
fn fig5b_parallel_bit_identical_to_serial() {
    let counts = [2usize, 4];
    let held = Threads::take(usize::MAX);
    let serial = fig5::fig5b(&tiny(), &counts, 4 << 20);
    drop(held);
    let parallel = fig5::fig5b(&tiny(), &counts, 4 << 20);
    assert_eq!(serial.len(), parallel.len());
    for ((n_s, pts_s), (n_p, pts_p)) in serial.iter().zip(&parallel) {
        assert_eq!(n_s, n_p);
        assert_points_bitwise_eq(pts_s, pts_p);
    }
}
