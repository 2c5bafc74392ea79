//! The two simulation-stack workloads, driven through the public
//! functions of `snic-bench`, `snic-sim` and `snic-uarch`.
//!
//! - `replay_fig5`: the `snic_bench::perf::run` grid rebuilt here so the
//!   seed is an argument: materialized recordings, serial engine.
//! - `stream_mix32`: a 32-tenant mixed-personality streamed colocation
//!   through `snic-sim` sharding; regeneration-bound.

use std::sync::Arc;
use std::time::Instant;

use snic_bench::colo::{
    many_tenant_snic, outcome_digest, outcome_events, tenant_mix, tenant_source, TenantSpec,
};
use snic_bench::perf::{PERF_L2_BYTES, PERF_TENANTS};
use snic_bench::streams::{all_traces, nf_access_trace, SharedTrace, TraceSet};
use snic_bench::Scale;
use snic_nf::NfKind;
use snic_sim::{JobSpec, SimJob};
use snic_uarch::config::MachineConfig;
use snic_uarch::engine::{run_colocated_warm, RunOutcome};
use snic_uarch::stream::{Access, EventSource, SharedReplayStream};
use snic_uarch::{StreamedSource, TraceSource};

use crate::span::{SpanId, Tracer};

/// Tenants of `stream_mix32`.
pub const STREAM_TENANTS: usize = 32;
/// L2 size of the `stream_mix32` machine.
pub const STREAM_L2_BYTES: u64 = 4 << 20;
/// Span name of one generator pull; its `count` is the events filled.
pub const FILL_SPAN: &str = "TraceSource::fill";

/// FNV-1a fold of per-cell digests into one trial digest.
fn fold_digest(h: u64, v: u64) -> u64 {
    v.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// What one simulation trial produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SimTrial {
    /// Wall-clock seconds of the trial.
    pub secs: f64,
    /// Engine events the trial processed.
    pub events: u64,
    /// Fingerprint of every simulated statistic of the trial.
    pub digest: u64,
}

// ------------------------------------------------------------------
// replay_fig5
// ------------------------------------------------------------------

/// One cell of the replay grid, run once.
pub struct CellRun {
    /// Events the engine consumed (warm-up pass and measured pass).
    pub events: u64,
    /// The simulated statistics (measured pass only).
    pub outcome: RunOutcome,
}

/// The recorded traces of the six NF kinds and the grid replayed over
/// them.
pub struct ReplayGrid {
    traces: TraceSet,
}

impl ReplayGrid {
    /// Record (or fetch from `snic-bench`'s cache) the six traces.
    pub fn record(scale: &Scale, seed: u64) -> ReplayGrid {
        ReplayGrid {
            traces: all_traces(scale, seed),
        }
    }

    /// Redo the recording work of an [`all_traces`] cache miss without
    /// touching the cache, so set-up can be timed more than once.
    pub fn record_uncached(scale: &Scale, seed: u64) -> usize {
        snic_sim::par_map(NfKind::ALL.to_vec(), |k| {
            SharedTrace::from(nf_access_trace(k, scale, seed)).len()
        })
        .into_iter()
        .sum()
    }

    /// The first recorded trace (for stream-plumbing measurements).
    pub fn first_trace(&self) -> SharedTrace {
        SharedTrace::clone(&self.traces[0].1)
    }

    /// Run one cell: `tenants` recordings (kinds round-robin), each
    /// replayed twice with the first pass as warm-up, serial engine.
    pub fn run_cell(&self, tenants: usize, snic: bool) -> CellRun {
        let cfg = if snic {
            MachineConfig::snic(tenants as u32, PERF_L2_BYTES)
        } else {
            MachineConfig::commodity(tenants as u32, PERF_L2_BYTES)
        };
        let mut streams = Vec::with_capacity(tenants);
        let mut warmups = Vec::with_capacity(tenants);
        for slot in 0..tenants {
            let (_, trace) = &self.traces[slot % self.traces.len()];
            streams.push(EventSource::from(SharedReplayStream::repeated(
                SharedTrace::clone(trace),
                2,
            )));
            warmups.push(trace.len() as u64);
        }
        let events = 2 * warmups.iter().sum::<u64>();
        CellRun {
            events,
            outcome: run_colocated_warm(&cfg, streams, &warmups),
        }
    }

    /// One trial: the eight cells (1/2/4/6 tenants x commodity/S-NIC).
    /// With a tracer, each cell is a span under `parent`.
    pub fn run_trial(&self, trace: Option<(&Tracer, SpanId, u64)>) -> SimTrial {
        let start = Instant::now();
        let mut events = 0;
        let mut digest = 0xcbf2_9ce4_8422_2325;
        for &tenants in &PERF_TENANTS {
            for snic in [false, true] {
                let span = trace
                    .map(|(t, parent, unit)| (t, t.open("run_colocated_warm", Some(parent), unit)));
                let cell = self.run_cell(tenants, snic);
                if let Some((t, id)) = span {
                    t.close(id, cell.events);
                }
                // The measured pass is the second of two equal passes.
                assert_eq!(
                    2 * outcome_events(&cell.outcome),
                    cell.events,
                    "warm-up window"
                );
                events += cell.events;
                digest = fold_digest(digest, outcome_digest(&cell.outcome));
            }
        }
        SimTrial {
            secs: start.elapsed().as_secs_f64(),
            events,
            digest,
        }
    }
}

// ------------------------------------------------------------------
// stream_mix32
// ------------------------------------------------------------------

/// Times every `fill` of the source it wraps and records it as a span;
/// the event sequence passes through untouched.
pub struct TimedSource {
    inner: Box<dyn TraceSource>,
    tracer: Arc<Tracer>,
    parent: SpanId,
    unit: u64,
    tenant: u32,
}

impl TimedSource {
    /// Wrap `inner`; its fills become children of `parent`, on the lane
    /// of `tenant`.
    pub fn new(
        inner: Box<dyn TraceSource>,
        tracer: Arc<Tracer>,
        parent: SpanId,
        unit: u64,
        tenant: u32,
    ) -> TimedSource {
        TimedSource {
            inner,
            tracer,
            parent,
            unit,
            tenant,
        }
    }
}

impl TraceSource for TimedSource {
    fn fill(&mut self, out: &mut [Access]) -> usize {
        let start = Instant::now();
        let n = self.inner.fill(out);
        self.tracer.record(
            FILL_SPAN,
            start,
            Some(self.parent),
            self.unit,
            self.tenant,
            n as u64,
        );
        n
    }

    fn rewind(&mut self) {
        self.inner.rewind();
    }
}

/// The `stream_mix32` colocation: tenant list and machine.
pub struct StreamMix {
    scale: Scale,
    /// The 32 tenants (kinds cycling, even event budgets).
    pub tenants: Vec<TenantSpec>,
    cfg: MachineConfig,
    /// Events of one trial (the sum of the tenant budgets).
    pub events: u64,
}

impl StreamMix {
    /// Build the tenant mix for `seed` with `events` events per trial.
    pub fn new(scale: &Scale, seed: u64, events: u64) -> StreamMix {
        StreamMix {
            scale: *scale,
            tenants: tenant_mix(STREAM_TENANTS, seed, events, false),
            cfg: many_tenant_snic(STREAM_TENANTS, STREAM_L2_BYTES),
            events,
        }
    }

    /// The untraced job, exactly as `snic_bench::colo::colo_spec` builds
    /// it.
    pub fn spec(&self, shards: usize) -> JobSpec {
        snic_bench::colo::colo_spec(&self.scale, &self.tenants, self.cfg.clone(), shards)
    }

    /// The same job with a [`TimedSource`] around every tenant source.
    pub fn traced_spec(
        &self,
        shards: usize,
        tracer: &Arc<Tracer>,
        parent: SpanId,
        unit: u64,
    ) -> JobSpec {
        let (scale, tenants, cfg) = (self.scale, self.tenants.clone(), self.cfg.clone());
        let tracer = Arc::clone(tracer);
        JobSpec::new(move || {
            let streams = tenants
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let timed = TimedSource::new(
                        tenant_source(s, &scale),
                        Arc::clone(&tracer),
                        parent,
                        unit,
                        i as u32,
                    );
                    StreamedSource::new(Box::new(timed)).into()
                })
                .collect();
            SimJob::new(cfg.clone(), streams).with_shards(shards)
        })
    }

    /// One untraced trial: build the job and run it, as users pay it.
    pub fn run_trial(&self, shards: usize) -> SimTrial {
        let spec = self.spec(shards);
        let start = Instant::now();
        let outcome = spec.run();
        finish_trial(start, &outcome)
    }

    /// One traced trial: `trial` -> `JobSpec::build`, `SimJob::run` ->
    /// one span per generator pull. Returns the trial and the id of its
    /// `SimJob::run` span.
    pub fn run_traced_trial(
        &self,
        shards: usize,
        tracer: &Arc<Tracer>,
        unit: u64,
    ) -> (SimTrial, SpanId) {
        let trial_span = tracer.open("trial", None, unit);
        let start = Instant::now();
        let build_span = tracer.open("JobSpec::build", Some(trial_span), unit);
        let run_span = tracer.open("SimJob::run", Some(trial_span), unit);
        // The run span is opened before the build so the sources can name
        // it as their parent; its clock is reset when the build ends.
        let job = self.traced_spec(shards, tracer, run_span, unit).build();
        tracer.close(build_span, self.tenants.len() as u64);
        tracer.restart(run_span);
        let outcome = job.run();
        tracer.close(run_span, outcome_events(&outcome));
        let trial = finish_trial(start, &outcome);
        tracer.close(trial_span, trial.events);
        (trial, run_span)
    }

    /// The shard a tenant's stream lands on (contiguous chunks, as
    /// `snic_sim::run_sharded` splits them).
    pub fn shard_of(&self, tenant: usize, shards: usize) -> usize {
        let n = self.tenants.len();
        (0..shards)
            .find(|s| tenant < (s + 1) * n / shards)
            .expect("tenant index below tenant count")
    }
}

fn finish_trial(start: Instant, outcome: &RunOutcome) -> SimTrial {
    SimTrial {
        secs: start.elapsed().as_secs_f64(),
        events: outcome_events(outcome),
        digest: outcome_digest(outcome),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::self_ns;

    fn tiny() -> Scale {
        Scale {
            flows: 300,
            packets: 200,
            patterns: 40,
            fw_rules: 30,
            lpm_prefixes: 100,
            monitor_ms: 10,
        }
    }

    fn drain(mut src: Box<dyn TraceSource>) -> Vec<Access> {
        let blank = Access {
            insns: 1,
            addr: 0,
            kind: snic_uarch::AccessKind::Load,
        };
        let mut buf = vec![blank; 97];
        let mut all = Vec::new();
        loop {
            let n = src.fill(&mut buf);
            if n == 0 {
                return all;
            }
            all.extend_from_slice(&buf[..n]);
        }
    }

    #[test]
    fn timed_source_is_bit_transparent() {
        let mix = StreamMix::new(&tiny(), 11, 60_000);
        let tracer = Arc::new(Tracer::new());
        for (i, spec) in mix.tenants.iter().take(6).enumerate() {
            let bare = drain(tenant_source(spec, &tiny()));
            let timed = drain(Box::new(TimedSource::new(
                tenant_source(spec, &tiny()),
                Arc::clone(&tracer),
                0,
                0,
                i as u32,
            )));
            assert_eq!(bare.len() as u64, spec.events);
            assert_eq!(bare, timed, "tenant {i}");
        }
        let filled: u64 = tracer.spans().iter().map(|s| s.count).sum();
        assert_eq!(
            filled,
            mix.tenants.iter().take(6).map(|t| t.events).sum::<u64>()
        );
    }

    #[test]
    fn traced_serial_and_sharded_trials_match_the_untraced_digest() {
        let mix = StreamMix::new(&tiny(), 5, 40_000);
        let plain = mix.run_trial(1);
        assert_eq!(plain.events, 40_000);
        let tracer = Arc::new(Tracer::new());
        let (serial, run_span) = mix.run_traced_trial(1, &tracer, 0);
        let (sharded, _) = mix.run_traced_trial(2, &tracer, 1);
        assert_eq!((serial.events, serial.digest), (plain.events, plain.digest));
        assert_eq!(
            (sharded.events, sharded.digest),
            (plain.events, plain.digest)
        );
        let spans = tracer.spans();
        let fills: Vec<_> = spans
            .iter()
            .filter(|s| s.parent == Some(run_span))
            .collect();
        assert!(fills.iter().all(|s| s.name == FILL_SPAN));
        assert_eq!(fills.iter().map(|s| s.count).sum::<u64>(), 40_000);
        assert!(self_ns(&spans, run_span) < spans[run_span as usize].dur_ns());
    }

    #[test]
    fn tenants_map_to_contiguous_shards() {
        let mix = StreamMix::new(&tiny(), 1, 32_000);
        assert_eq!(mix.shard_of(0, 2), 0);
        assert_eq!(mix.shard_of(15, 2), 0);
        assert_eq!(mix.shard_of(16, 2), 1);
        assert_eq!(mix.shard_of(31, 2), 1);
        assert_eq!(mix.shard_of(31, 1), 0);
        assert_eq!(mix.shard_of(9, 3), 0);
        assert_eq!(mix.shard_of(10, 3), 1);
    }

    #[test]
    fn replay_trials_repeat_bit_for_bit() {
        let grid = ReplayGrid::record(&tiny(), 3);
        let a = grid.run_trial(None);
        let b = grid.run_trial(None);
        assert_eq!((a.events, a.digest), (b.events, b.digest));
        // 13 tenant slots per personality over six equal-weight kinds:
        // the uncached recording is the same six traces.
        let recorded: usize = (0..6).map(|k| grid.traces[k].1.len()).sum();
        assert_eq!(ReplayGrid::record_uncached(&tiny(), 3), recorded);
        assert!(a.events > 0);
    }
}
