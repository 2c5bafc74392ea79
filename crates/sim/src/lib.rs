//! Deterministic parallel execution for colocation simulations.
//!
//! The §5.3 sweeps ("every possible colocation") are embarrassingly
//! parallel: each colocation run is an independent, side-effect-free
//! engine call. This crate gives them a fan-out layer of two job types
//! and five functions:
//!
//! - [`SimJob`] — one pending colocation run (machine config, streams,
//!   warmup window, optional sink and shard count), runnable on any
//!   thread;
//! - [`JobSpec`] — a re-buildable job *factory*: rebuilds the same
//!   deterministic job on demand so one logical run can execute many
//!   times (serial vs parallel vs sharded differentials, streamed
//!   sources that are consumed by running);
//! - [`run_sharded`] — the one way a colocation reaches the engine, and
//!   its *intra-run* parallelism: under the S-NIC disciplines (see
//!   [`shardable`]) an isolated tenant is simulated alone — one
//!   one-lane engine call per tenant with its global id, pulled off the
//!   pool's work queue by up to `shards` workers, then reassembled in
//!   tenant order — and, with a sink, telemetry replayed in tenant
//!   order from per-tenant [`BufferSink`]s — bit-identical to the
//!   interleaved run, which is one engine call over every tenant;
//! - [`par_map`] / [`par_map_on`] — an order-preserving worker pool on
//!   [`std::thread::scope`] for arbitrary independent work (whole jobs
//!   via `par_map(jobs, SimJob::run)`, per-NF launches, per-domain solo
//!   replays, per-scenario attack recordings); results come back **in
//!   input order**, so parallel results are bit-identical to a serial
//!   map;
//! - [`map_exec`] / [`execute`] — the same map, and its `SimJob::run`
//!   instance, dispatched on [`Exec`] so sweeps can prove
//!   serial ≡ parallel.
//!
//! Determinism is the contract: every function here is a pure reorder
//! of *when* work happens, never of *what* is computed or in which slot
//! the result lands. `crates/bench/tests/parallel_determinism.rs` holds
//! the engine to it bit-for-bit.
//!
//! The pool uses only the standard library (the workspace is offline;
//! no rayon). Worker count defaults to [`default_threads`]
//! ([`std::thread::available_parallelism`], pinnable with the
//! `SNIC_SIM_THREADS` environment variable), and every worker beyond the
//! caller's own holds a thread of the budget the engine's helper thread
//! also draws from, so the two never oversubscribe the host.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

use snic_telemetry::{BufferSink, NullSink, TelemetrySink};
pub use snic_uarch::budget::default_threads;
use snic_uarch::budget::Threads;
use snic_uarch::bus::BusKind;
use snic_uarch::cache::Partition;
use snic_uarch::config::MachineConfig;
use snic_uarch::engine::{run_colocated_ids_sink, RunOutcome};
use snic_uarch::stream::EventSource;

/// One pending colocation run: everything [`run_sharded`] needs,
/// packaged so the run can execute on any worker thread
/// ([`EventSource`] is `Send`, asserted in `snic-uarch`'s stream tests).
pub struct SimJob {
    cfg: MachineConfig,
    streams: Vec<EventSource>,
    warmups: Vec<u64>,
    sink: Option<Arc<dyn TelemetrySink>>,
    shards: usize,
}

impl SimJob {
    /// A job with no warmup window (statistics cover the whole run).
    pub fn new(cfg: MachineConfig, streams: Vec<EventSource>) -> SimJob {
        SimJob {
            cfg,
            streams,
            warmups: Vec::new(),
            sink: None,
            shards: 1,
        }
    }

    /// Exclude the first `warmups[i]` events of stream `i` from the
    /// statistics (§5.3's warmup methodology).
    pub fn with_warmups(mut self, warmups: Vec<u64>) -> SimJob {
        self.warmups = warmups;
        self
    }

    /// Report this run's telemetry to `sink`. Without a sink the job
    /// takes the uninstrumented engine path (identical statistics, no
    /// sink branches at all).
    pub fn with_sink(mut self, sink: Arc<dyn TelemetrySink>) -> SimJob {
        self.sink = Some(sink);
        self
    }

    /// Simulate each tenant alone on up to `shards` worker threads
    /// (see [`run_sharded`]). Only takes effect when the machine
    /// configuration is [`shardable`]; otherwise the run stays one
    /// interleaved engine call — either way the outcome is
    /// bit-identical.
    pub fn with_shards(mut self, shards: usize) -> SimJob {
        self.shards = shards.max(1);
        self
    }

    /// Execute the job, fanning a shardable colocation across worker
    /// threads when [`SimJob::with_shards`] asked for it.
    pub fn run(self) -> RunOutcome {
        run_sharded(
            &self.cfg,
            self.streams,
            &self.warmups,
            self.shards,
            self.sink.as_deref(),
        )
    }
}

impl std::fmt::Debug for SimJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimJob")
            .field("cfg", &self.cfg)
            .field("streams", &self.streams.len())
            .field("warmups", &self.warmups)
            .field("sink", &self.sink.is_some())
            .field("shards", &self.shards)
            .finish()
    }
}

/// A re-buildable job specification: a deterministic factory that
/// builds a fresh [`SimJob`] on every call.
///
/// [`SimJob::run`] consumes its streams, so a job can execute exactly
/// once — fine for materialized `Arc<[Access]>` replays (cloning the
/// job is a refcount bump) but wrong for streamed sources, whose
/// generators are consumed by running. A `JobSpec` captures *how to
/// build* the job instead: every [`JobSpec::build`] rebuilds NFs,
/// workload generators, and engine config from their seeds, so the same
/// logical run can execute serially, in parallel, and sharded — the
/// serial≡parallel≡sharded differentials (the sharded leg is
/// `spec.build().with_shards(n).run()`) — with each execution
/// bit-identical by construction.
pub struct JobSpec {
    make: Box<dyn Fn() -> SimJob + Send + Sync>,
}

impl JobSpec {
    /// Wrap a deterministic job factory (same call, same job — seeded
    /// generation, no ambient randomness).
    pub fn new(make: impl Fn() -> SimJob + Send + Sync + 'static) -> JobSpec {
        JobSpec {
            make: Box::new(make),
        }
    }

    /// Build a fresh, runnable job.
    pub fn build(&self) -> SimJob {
        (self.make)()
    }

    /// Build and run one instance of the job.
    pub fn run(&self) -> RunOutcome {
        self.build().run()
    }
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JobSpec(..)")
    }
}

/// Whether `cfg` guarantees per-tenant independence: a partitioned L2
/// (static ways or SecDCP) together with the epoch-partitioned temporal
/// bus. Under those disciplines a tenant's cache slice, bus windows,
/// and address-space tag are functions of its id alone, so its
/// simulated outcome cannot depend on co-tenant activity — which is
/// exactly what makes [`run_sharded`] legal. A shared L2 or FCFS bus
/// couples tenants through LRU state and queueing order, so those runs
/// must stay on the serial interleaving engine.
pub fn shardable(cfg: &MachineConfig) -> bool {
    !matches!(cfg.l2_partition, Partition::Shared) && matches!(cfg.bus, BusKind::Temporal { .. })
}

/// Run one colocation, split when the model allows it: with
/// `shards > 1` on a [`shardable`] configuration every tenant is its own
/// part — a one-lane engine call with the tenant's *global* id (way
/// slice, bus epoch slot, telemetry domain, address-space tag all follow
/// the id, not the part) and its own warm-up window — and the parts run
/// on `min(shards, default_threads(), n)` workers pulling from one
/// queue, so a stream is first touched when a worker picks its tenant
/// up and is dropped when that tenant's call returns. `shards` bounds
/// the workers, and through them how many tenants are live at once; it
/// does not choose the split.
///
/// `shards <= 1`, or a configuration that is not shardable, is the
/// single interleaved engine call over ids `0..n` on the calling
/// thread, writing straight to the caller's sink — the oracle every
/// split run is held to. Either way the outcome — and, with a live
/// sink, the telemetry operation stream — is bit-identical: each part
/// of a split run buffers its telemetry in a [`BufferSink`] and the
/// buffers are replayed into the real sink in tenant order
/// (`crates/bench/tests/shard_determinism.rs` holds all of this
/// bit-for-bit).
pub fn run_sharded(
    cfg: &MachineConfig,
    streams: Vec<EventSource>,
    warmups: &[u64],
    shards: usize,
    sink: Option<&dyn TelemetrySink>,
) -> RunOutcome {
    if shards > 1 && shardable(cfg) {
        return run_split(cfg, streams, warmups, shards.min(default_threads()), sink);
    }
    let ids: Vec<u32> = (0..streams.len() as u32).collect();
    match sink {
        Some(sink) => run_colocated_ids_sink(cfg, streams, warmups, &ids, sink),
        None => run_colocated_ids_sink(cfg, streams, warmups, &ids, &NullSink),
    }
}

/// The split leg of [`run_sharded`]: one engine call per tenant on
/// `workers` threads, per-tenant results (and buffered telemetry) put
/// back in tenant order.
fn run_split(
    cfg: &MachineConfig,
    streams: Vec<EventSource>,
    warmups: &[u64],
    workers: usize,
    sink: Option<&dyn TelemetrySink>,
) -> RunOutcome {
    let live = sink.is_some_and(TelemetrySink::enabled);
    let parts: Vec<(usize, EventSource)> = streams.into_iter().enumerate().collect();
    let results = par_map_on(parts, workers, |(tenant, stream)| {
        let id = [tenant as u32];
        let warm = [warmups.get(tenant).copied().unwrap_or(0)];
        if live {
            let buf = BufferSink::new();
            let out = run_colocated_ids_sink(cfg, vec![stream], &warm, &id, &buf);
            (out, Some(buf))
        } else {
            let out = run_colocated_ids_sink(cfg, vec![stream], &warm, &id, &NullSink);
            (out, None)
        }
    });
    let mut nfs = Vec::with_capacity(results.len());
    for (out, buf) in results {
        nfs.extend(out.nfs);
        if let (Some(buf), Some(sink)) = (buf, sink) {
            // Part order = tenant order: the real sink sees the exact
            // operation sequence of the interleaved run.
            buf.replay(&sink);
        }
    }
    RunOutcome { nfs }
}

/// Which execution strategy a sweep uses. The two must produce
/// bit-identical results; `Serial` exists so tests can prove it and so
/// debugging sessions can take the simple path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// Run jobs one after another on the calling thread.
    Serial,
    /// Fan jobs across the worker pool ([`default_threads`] workers).
    Parallel,
}

/// Run every job, dispatching on [`Exec`]; outcomes come back in input
/// order.
pub fn execute(exec: Exec, jobs: Vec<SimJob>) -> Vec<RunOutcome> {
    map_exec(exec, jobs, SimJob::run)
}

/// Dispatch an arbitrary order-preserving map on [`Exec`]: the serial
/// path runs on the calling thread, the parallel path on the default
/// pool. Both produce identical result vectors.
pub fn map_exec<T, R, F>(exec: Exec, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    match exec {
        Exec::Serial => items.into_iter().map(f).collect(),
        Exec::Parallel => par_map(items, f),
    }
}

/// Apply `f` to every item using [`default_threads`] workers, returning
/// results in input order.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_on(items, default_threads(), f)
}

/// Apply `f` to every item using up to `threads` workers, returning
/// results in input order.
///
/// Work is pulled from a shared queue, so long and short items mix
/// freely without a static partition; the result of item `i` always
/// lands in slot `i`. The calling thread's hardware thread serves one
/// worker and every other worker holds a spare thread from the
/// process-wide budget ([`snic_uarch::budget`]) for the whole map, taken
/// without waiting: a nested map, or one issued while the budget is
/// spent, gets fewer workers, and engine calls inside the workers stay
/// inline. With `threads <= 1`, a single item, or no spare thread this
/// is a plain in-order map on the calling thread.
pub fn par_map_on<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let spare = Threads::take(threads.min(items.len()).saturating_sub(1));
    let threads = 1 + spare.count();
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    let n = items.len();
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // A panicking sibling poisons the queue lock; recover the
                // guard so remaining workers drain what is left (the
                // panic still propagates out of the scope).
                let next = queue
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .pop_front();
                let Some((i, item)) = next else { break };
                let r = f(item);
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every queue index was drained by a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snic_uarch::engine::run_colocated_warm;
    use snic_uarch::stream::SyntheticStream;

    fn job(seed: u64, tenants: usize) -> SimJob {
        let streams: Vec<EventSource> = (0..tenants)
            .map(|i| SyntheticStream::new(2 << 20, 8, 4, 4_000, seed + i as u64).into())
            .collect();
        SimJob::new(MachineConfig::commodity(tenants as u32, 1 << 20), streams)
            .with_warmups(vec![500; tenants])
    }

    #[test]
    fn pool_matches_serial_bitwise() {
        let serial = execute(Exec::Serial, (0..12).map(|s| job(s, 2)).collect());
        for threads in [1, 2, 5, 32] {
            let pooled = par_map_on((0..12).map(|s| job(s, 2)).collect(), threads, SimJob::run);
            assert_eq!(serial.len(), pooled.len());
            for (a, b) in serial.iter().zip(&pooled) {
                assert_eq!(a.nfs, b.nfs, "threads={threads}");
            }
        }
    }

    #[test]
    fn results_come_back_in_input_order() {
        // Jobs with wildly different lengths: if ordering followed
        // completion, the short job would finish first.
        let long = job(1, 4);
        let short = job(2, 1);
        let serial_long = job(1, 4).run();
        let serial_short = job(2, 1).run();
        let out = par_map_on(vec![long, short], 2, SimJob::run);
        assert_eq!(out[0].nfs, serial_long.nfs);
        assert_eq!(out[1].nfs, serial_short.nfs);
    }

    #[test]
    fn par_map_preserves_order_and_values() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 3, 8, 200] {
            assert_eq!(par_map_on(items.clone(), threads, |x| x * x), expect);
        }
        assert_eq!(par_map(items, |x| x * x), expect);
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert!(execute(Exec::Parallel, Vec::new()).is_empty());
        assert!(par_map_on(Vec::<u32>::new(), 8, |x| x).is_empty());
    }

    #[test]
    fn execute_dispatches_both_paths() {
        let a = execute(Exec::Serial, vec![job(3, 2)]);
        let b = execute(Exec::Parallel, vec![job(3, 2)]);
        assert_eq!(a[0].nfs, b[0].nfs);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn sink_on_jobs_match_sink_off_bitwise() {
        use snic_telemetry::Recorder;
        let recorder = Arc::new(Recorder::new());
        let with_sink: Vec<SimJob> = (0..6)
            .map(|s| job(s, 2).with_sink(Arc::clone(&recorder) as Arc<dyn TelemetrySink>))
            .collect();
        let without: Vec<SimJob> = (0..6).map(|s| job(s, 2)).collect();
        let on = par_map_on(with_sink, 3, SimJob::run);
        let off = execute(Exec::Serial, without);
        for (a, b) in on.iter().zip(&off) {
            assert_eq!(a.nfs, b.nfs, "sink-on parallel must equal sink-off serial");
        }
        assert!(
            !recorder.summary().is_empty(),
            "the shared sink saw the instrumented runs"
        );
    }

    #[test]
    fn shardable_requires_partitioned_l2_and_temporal_bus() {
        assert!(shardable(&MachineConfig::snic(4, 1 << 20)));
        assert!(shardable(&MachineConfig::snic_secdcp(vec![8, 8], 1 << 20)));
        assert!(!shardable(&MachineConfig::commodity(4, 1 << 20)));
        let mut half = MachineConfig::snic(4, 1 << 20);
        half.bus = snic_uarch::bus::BusKind::Fcfs;
        assert!(!shardable(&half), "partitioned L2 alone is not enough");
    }

    #[test]
    fn sharded_run_matches_serial_bitwise() {
        let mk = |n: usize| -> Vec<EventSource> {
            (0..n)
                .map(|i| SyntheticStream::new(1 << 18, 6, 3, 3_000, 99 + i as u64).into())
                .collect()
        };
        let cfg = MachineConfig::snic(5, 1 << 20);
        let warm = vec![400u64; 5];
        let serial = run_colocated_warm(&cfg, mk(5), &warm);
        for shards in [1, 2, 3, 5, 16] {
            let sharded = run_sharded(&cfg, mk(5), &warm, shards, None);
            assert_eq!(serial.nfs, sharded.nfs, "shards={shards}");
        }
    }

    #[test]
    fn split_run_on_one_worker_keeps_tenant_order() {
        // What `SNIC_SIM_THREADS=1` gives a sharded job: every tenant
        // alone, one after another on the calling thread. Distinct
        // seeds and warm-ups make any permutation visible.
        let mk = || -> Vec<EventSource> {
            (0..5)
                .map(|i| SyntheticStream::new(1 << 18, 6, 3, 2_000 + 300 * i, 5 + i).into())
                .collect()
        };
        let cfg = MachineConfig::snic(5, 1 << 20);
        let warm = [100u64, 200, 300, 400];
        let interleaved = run_colocated_warm(&cfg, mk(), &warm);
        let split = run_split(&cfg, mk(), &warm, 1, None);
        assert_eq!(interleaved.nfs, split.nfs);
        for (tenant, stream) in mk().into_iter().enumerate() {
            let w = warm.get(tenant).copied().unwrap_or(0);
            let alone =
                run_colocated_ids_sink(&cfg, vec![stream], &[w], &[tenant as u32], &NullSink);
            assert_eq!(alone.nfs[0], split.nfs[tenant], "tenant {tenant}");
        }
    }

    #[test]
    fn unshardable_configs_fall_back_to_serial() {
        let mk = |n: usize| -> Vec<EventSource> {
            (0..n)
                .map(|i| SyntheticStream::new(1 << 18, 6, 0, 2_000, 7 + i as u64).into())
                .collect()
        };
        let cfg = MachineConfig::commodity(3, 1 << 20);
        let serial = run_colocated_warm(&cfg, mk(3), &[]);
        let sharded = run_sharded(&cfg, mk(3), &[], 3, None);
        assert_eq!(serial.nfs, sharded.nfs);
    }

    #[test]
    fn sharded_telemetry_replays_in_shard_order() {
        use snic_telemetry::Recorder;
        let mk = |n: usize| -> Vec<EventSource> {
            (0..n)
                .map(|i| SyntheticStream::new(1 << 18, 6, 3, 3_000, 42 + i as u64).into())
                .collect()
        };
        let cfg = MachineConfig::snic(4, 1 << 20);
        let serial_rec = Recorder::new();
        let serial = run_colocated_ids_sink(&cfg, mk(4), &[], &[0, 1, 2, 3], &serial_rec);
        let shard_rec = Recorder::new();
        let sharded = run_sharded(&cfg, mk(4), &[], 2, Some(&shard_rec));
        assert_eq!(serial.nfs, sharded.nfs);
        assert_eq!(
            serial_rec.summary().render(),
            shard_rec.summary().render(),
            "telemetry must replay to an identical summary"
        );
    }

    #[test]
    fn job_with_shards_matches_plain_job() {
        let plain = job(11, 4);
        let mut cfg = MachineConfig::snic(4, 1 << 20);
        cfg.l2 = plain.cfg.l2;
        let mk = || -> Vec<EventSource> {
            (0..4)
                .map(|i| SyntheticStream::new(2 << 20, 8, 4, 4_000, 11 + i as u64).into())
                .collect()
        };
        let serial = SimJob::new(cfg.clone(), mk())
            .with_warmups(vec![500; 4])
            .run();
        let sharded = SimJob::new(cfg, mk())
            .with_warmups(vec![500; 4])
            .with_shards(4)
            .run();
        assert_eq!(serial.nfs, sharded.nfs);
    }

    #[test]
    fn job_spec_rebuilds_identical_runs() {
        let spec = JobSpec::new(|| job(17, 3));
        let first = spec.run();
        let second = spec.run();
        assert_eq!(first.nfs, second.nfs, "a spec must replay bit-identically");
    }

    #[test]
    fn job_spec_streamed_sources_survive_reruns_and_sharding() {
        // Streamed sources are consumed by running; the spec rebuilds
        // them, and the sharded leg must match the serial leg bitwise.
        let spec = JobSpec::new(|| {
            let streams: Vec<EventSource> = (0..4)
                .map(|i| {
                    snic_uarch::StreamedSource::with_chunk(
                        Box::new(SyntheticStream::new(1 << 18, 6, 3, 3_000, 21 + i as u64)),
                        2,
                        257,
                    )
                    .into()
                })
                .collect();
            SimJob::new(MachineConfig::snic(4, 1 << 20), streams).with_warmups(vec![300; 4])
        });
        let serial = spec.run();
        for shards in [2, 4] {
            assert_eq!(
                serial.nfs,
                spec.build().with_shards(shards).run().nfs,
                "shards={shards}"
            );
        }
        let both = map_exec(Exec::Parallel, vec![&spec, &spec], JobSpec::run);
        assert_eq!(both[0].nfs, serial.nfs);
        assert_eq!(both[1].nfs, serial.nfs);
    }

    #[test]
    fn map_exec_matches_across_paths() {
        let items: Vec<u64> = (0..50).collect();
        let a = map_exec(Exec::Serial, items.clone(), |x| x * 3 + 1);
        let b = map_exec(Exec::Parallel, items, |x| x * 3 + 1);
        assert_eq!(a, b);
    }
}
