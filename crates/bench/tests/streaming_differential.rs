//! Differential suite: the streaming trace pipeline must be
//! bit-identical to the materialized one, at every layer.
//!
//! The tentpole claim of the streaming engine is that swapping a
//! materialized `SharedTrace` replay for a regenerate-on-pull
//! [`TraceSource`] pipeline changes *memory behavior only* — every
//! access, every engine statistic, every digest stays byte-for-byte.
//! Each test here pins one link of that chain:
//!
//! - raw access streams: streamed recording ≡ `nf_access_trace`, for
//!   every NF kind, across chunk sizes;
//! - rewind: a rewound source replays its exact stream (idempotent over
//!   many passes);
//! - engine outcomes: a colocation fed by [`StreamedSource`]s ≡ the
//!   same colocation fed by `SharedReplayStream`s, including multi-pass
//!   (`passes = 2`) replays and warmup windows;
//! - dispatch: serial ≡ parallel ≡ sharded for streamed jobs;
//! - the oracle: the 32-tenant mix as one 32-lane interleaved engine
//!   call ≡ the same mix with every tenant simulated alone, statistics
//!   and telemetry.

use std::sync::Arc;

use snic_bench::colo::{colo_spec, many_tenant_snic, outcome_events, tenant_mix};
use snic_bench::streams::{all_traces, nf_access_trace, nf_trace_source, streamed_nf_source};
use snic_bench::Scale;
use snic_nf::NfKind;
use snic_sim::{par_map, JobSpec, SimJob};
use snic_telemetry::{Recorder, TelemetrySink};
use snic_uarch::config::MachineConfig;
use snic_uarch::stream::SharedReplayStream;
use snic_uarch::{Access, AccessKind, EventSource, StreamedSource};

fn tiny() -> Scale {
    Scale {
        flows: 300,
        packets: 350,
        patterns: 80,
        fw_rules: 50,
        lpm_prefixes: 150,
        monitor_ms: 20,
    }
}

/// Drain an event source through `next_batch` with the given buffer
/// size.
fn drain(src: &mut EventSource, buf_len: usize) -> Vec<Access> {
    let mut buf = vec![
        Access {
            insns: 1,
            addr: 0,
            kind: AccessKind::Load,
        };
        buf_len
    ];
    let mut out = Vec::new();
    loop {
        let n = src.next_batch(&mut buf);
        if n == 0 {
            return out;
        }
        out.extend_from_slice(&buf[..n]);
    }
}

#[test]
fn streaming_matches_materialized_for_every_kind() {
    for kind in NfKind::ALL {
        let materialized = nf_access_trace(kind, &tiny(), 0xd1f);
        let streamed = drain(&mut streamed_nf_source(kind, &tiny(), 0xd1f, 1), 128);
        assert_eq!(streamed, materialized, "{kind:?}");
    }
}

#[test]
fn chunk_size_never_changes_the_stream() {
    let reference = drain(&mut streamed_nf_source(NfKind::Dpi, &tiny(), 3, 1), 4096);
    for chunk in [1, 7, 63, 100, 1024] {
        let mut src: EventSource =
            StreamedSource::with_chunk(nf_trace_source(NfKind::Dpi, &tiny(), 3), 1, chunk).into();
        assert_eq!(drain(&mut src, 97), reference, "chunk={chunk}");
    }
}

#[test]
fn rewind_is_idempotent_over_many_passes() {
    let one_pass = drain(
        &mut streamed_nf_source(NfKind::Firewall, &tiny(), 7, 1),
        256,
    );
    let three = drain(
        &mut streamed_nf_source(NfKind::Firewall, &tiny(), 7, 3),
        256,
    );
    assert_eq!(three.len(), 3 * one_pass.len());
    for (i, pass) in three.chunks(one_pass.len()).enumerate() {
        assert_eq!(pass, &one_pass[..], "pass {i}");
    }
    // An explicit rewind after exhaustion restores the full replay, and
    // so does one taken mid-pass.
    let mut src = nf_trace_source(NfKind::Firewall, &tiny(), 7);
    let mut buf = vec![one_pass[0]; one_pass.len() + 1];
    assert_eq!(src.fill(&mut buf), one_pass.len());
    assert_eq!(src.fill(&mut buf), 0);
    for consumed in [0, 100] {
        src.rewind();
        assert_eq!(src.fill(&mut buf[..consumed]), consumed);
        src.rewind();
        assert_eq!(src.fill(&mut buf), one_pass.len());
        assert_eq!(
            &buf[..one_pass.len()],
            &one_pass[..],
            "rewind after {consumed}"
        );
    }
}

/// Streamed and materialized engine runs at one colocation scale, both
/// with double-pass replays and first-pass warmups — the fig5 shape.
fn paired_specs(tenants: usize) -> (JobSpec, JobSpec) {
    let scale = tiny();
    let traces = all_traces(&scale, 0xf5f5);
    let warmups: Vec<u64> = (0..tenants)
        .map(|slot| traces[slot % traces.len()].1.len() as u64)
        .collect();
    let cfg = MachineConfig::snic(tenants as u32, 1 << 20);
    let materialized = {
        let (cfg, traces, warmups) = (cfg.clone(), traces.clone(), warmups.clone());
        JobSpec::new(move || {
            let streams = (0..tenants)
                .map(|slot| {
                    SharedReplayStream::repeated(traces[slot % traces.len()].1.clone(), 2).into()
                })
                .collect();
            SimJob::new(cfg.clone(), streams).with_warmups(warmups.clone())
        })
    };
    let streamed = JobSpec::new(move || {
        let streams = (0..tenants)
            .map(|slot| {
                streamed_nf_source(NfKind::ALL[slot % NfKind::ALL.len()], &scale, 0xf5f5, 2)
            })
            .collect();
        SimJob::new(cfg.clone(), streams).with_warmups(warmups.clone())
    });
    (materialized, streamed)
}

#[test]
fn engine_outcome_identical_streamed_vs_materialized() {
    for tenants in [1, 4, 6] {
        let (materialized, streamed) = paired_specs(tenants);
        let a = materialized.run();
        let b = streamed.run();
        assert_eq!(a.nfs, b.nfs, "tenants={tenants}");
    }
}

#[test]
fn streamed_jobs_serial_parallel_sharded_identical() {
    let (_, streamed) = paired_specs(6);
    let serial = streamed.run();
    for shards in [2, 3, 6] {
        assert_eq!(
            serial.nfs,
            streamed.build().with_shards(shards).run().nfs,
            "shards={shards}"
        );
    }
    let parallel = par_map(vec![&streamed; 2], JobSpec::run);
    assert_eq!(parallel[0].nfs, serial.nfs);
    assert_eq!(parallel[1].nfs, serial.nfs);
}

#[test]
fn interleaved_32_tenant_mix_is_the_oracle_of_every_split() {
    // `stream_mix32`'s shape at a small budget. Shards = 1 is one
    // 32-lane engine call over eagerly built tenants; every k > 1 runs
    // the tenants alone from deferred pipelines, on at most k workers
    // (k = 3 does not divide 32, k = 40 exceeds it).
    let specs = tenant_mix(32, 0xf15a, 64_000, false);
    let recorded = |shards: usize| {
        let rec = Arc::new(Recorder::new());
        let sink = Arc::clone(&rec) as Arc<dyn TelemetrySink>;
        let outcome = colo_spec(&tiny(), &specs, many_tenant_snic(32, 4 << 20), shards)
            .build()
            .with_sink(sink)
            .run();
        (outcome, rec.summary().render())
    };
    let (oracle, oracle_summary) = recorded(1);
    assert_eq!(outcome_events(&oracle), 64_000);
    assert_eq!(oracle.nfs.len(), 32);
    for shards in [2, 3, 32, 40] {
        let (split, summary) = recorded(shards);
        assert_eq!(oracle.nfs, split.nfs, "shards={shards}");
        assert_eq!(oracle_summary, summary, "telemetry, shards={shards}");
    }
}
