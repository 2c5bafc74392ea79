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
//!   and telemetry;
//! - the values: the phased streams behind `snicctl trace billion
//!   --gate`'s identity leg and the benchmark's `stream_mix32` mix are
//!   pinned by digest, so a generator change that moves any event fails
//!   here and not only in the goldens' stationary workloads; the DPI
//!   recordings (the bulk of every fig5 trial) are pinned the same way
//!   at quick scale and on the paper-scale automaton.

use std::sync::Arc;

use snic_bench::colo::{colo_spec, many_tenant_snic, outcome_digest, outcome_events, tenant_mix};
use snic_bench::streams::{all_traces, nf_access_trace, nf_trace_source};
use snic_bench::Scale;
use snic_nf::dpi::synth_patterns;
use snic_nf::{DpiNf, NfKind};
use snic_sim::{par_map, JobSpec, SimJob};
use snic_telemetry::{Recorder, TelemetrySink};
use snic_types::mix::{fnv1a, FNV_OFFSET};
use snic_uarch::config::MachineConfig;
use snic_uarch::stream::SharedReplayStream;
use snic_uarch::{Access, EventSource, StreamedSource};

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

/// Drain an event source through `next_slice` in runs of at most
/// `max`.
fn drain(src: impl Into<EventSource>, max: usize) -> Vec<Access> {
    let mut src = src.into();
    let mut out = Vec::new();
    loop {
        let run = src.next_slice(max).expect("next_slice always answers Some");
        if run.is_empty() {
            return out;
        }
        out.extend_from_slice(run);
    }
}

#[test]
fn streaming_matches_materialized_for_every_kind() {
    for kind in NfKind::ALL {
        let materialized = nf_access_trace(kind, &tiny(), 0xd1f);
        let streamed = drain(
            StreamedSource::new(nf_trace_source(kind, &tiny(), 0xd1f)),
            128,
        );
        assert_eq!(streamed, *materialized, "{kind:?}");
    }
}

#[test]
fn chunk_size_never_changes_the_stream() {
    let reference = drain(
        StreamedSource::new(nf_trace_source(NfKind::Dpi, &tiny(), 3)),
        4096,
    );
    for chunk in [1, 7, 63, 100, 1024] {
        let src = StreamedSource::with_chunk(nf_trace_source(NfKind::Dpi, &tiny(), 3), 1, chunk);
        assert_eq!(drain(src, 97), reference, "chunk={chunk}");
    }
}

#[test]
fn rewind_is_idempotent_over_many_passes() {
    let firewall = || nf_trace_source(NfKind::Firewall, &tiny(), 7);
    let one_pass = drain(StreamedSource::new(firewall()), 256);
    let three = drain(StreamedSource::repeated(firewall(), 3), 256);
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
                let kind = NfKind::ALL[slot % NfKind::ALL.len()];
                StreamedSource::repeated(nf_trace_source(kind, &scale, 0xf5f5), 2).into()
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

/// The phased streams' values, pinned. Every other test here compares
/// the pipeline with itself; these two digests hold the generators
/// (phase schedules, flow draws, NF tables) to the events they have
/// always produced.
#[test]
fn phased_stream_digests_are_pinned() {
    // `snicctl trace billion --gate`'s identity leg.
    let gate = colo_spec(
        &Scale::quick(),
        &tenant_mix(6, 0xc010, 60_000, false),
        many_tenant_snic(6, 1 << 20),
        1,
    )
    .run();
    assert_eq!(outcome_events(&gate), 60_000);
    assert_eq!(outcome_digest(&gate), 0x7adae3af040d0fc8, "trace gate mix");

    // `stream_mix32` at its default seed: 32 tenants, 16 M events on
    // 2 shards.
    let mix = colo_spec(
        &Scale::quick(),
        &tenant_mix(32, 0xf15a, 16_000_000, false),
        many_tenant_snic(32, 4 << 20),
        2,
    )
    .run();
    assert_eq!(outcome_events(&mix), 16_000_000);
    assert_eq!(outcome_digest(&mix), 0xb7d8d499f46e36c3, "stream_mix32");
}

/// FNV-1a over each event's `insns`, `addr` (little-endian) and kind.
fn access_digest(events: &[Access]) -> u64 {
    events.iter().fold(FNV_OFFSET, |h, a| {
        let h = fnv1a(h, &a.insns.to_le_bytes());
        let h = fnv1a(h, &a.addr.to_le_bytes());
        fnv1a(h, &[a.kind as u8])
    })
}

/// The DPI recordings' values, pinned: the automaton's state numbering
/// (every address is `HEAP_BASE + state × 96`) and its walk order, at
/// quick scale and on the paper's 33 471-pattern automaton.
#[test]
fn dpi_stream_digests_are_pinned() {
    let quick = Scale::quick();
    let paper = Scale {
        packets: 400,
        ..Scale::paper()
    };
    for (scale, states, events, digest) in [
        (quick, 16_110, 5_030_319, 0xe3e7_097c_94cc_fd68),
        (paper, 334_906, 196_883, 0x1fd0_bc65_ec4e_7111),
    ] {
        let nf = DpiNf::new(&synth_patterns(scale.patterns, 0xf15a));
        assert_eq!(
            nf.automaton().node_count(),
            states,
            "{} patterns",
            scale.patterns
        );
        let trace = nf_access_trace(NfKind::Dpi, &scale, 0xf15a);
        assert_eq!(trace.len(), events, "{} patterns", scale.patterns);
        assert_eq!(access_digest(&trace), digest, "{} patterns", scale.patterns);
    }
}
