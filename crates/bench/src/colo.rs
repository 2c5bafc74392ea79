//! Many-tenant streamed colocation sweeps: fig5-style commodity-vs-S-NIC
//! comparisons extended to 32–64 tenants and billion-event runs in
//! bounded memory.
//!
//! The fig5 sweeps materialize each NF recording once and replay it from
//! an `Arc<[Access]>` — fine at 6 tenants × tens of thousands of
//! packets, impossible at a billion events (16 GB of `Access` alone).
//! This module builds every tenant's reference stream as a
//! [`TraceSource`] pipeline instead: a seeded [`PhasedTrace`] packet
//! generator (diurnal cycles, flash crowds, heavy-hitter migration,
//! churn) feeds a per-tenant NF personality whose recorded accesses
//! stream straight into the engine through an O(chunk) buffer, capped at
//! an exact per-tenant event budget. Every stage is seeded, so serial,
//! parallel, and sharded executions are bit-identical
//! (`crates/bench/tests/streaming_differential.rs` holds this).
//!
//! Memory does not depend on run length. What it does depend on is how
//! the run reaches the engine ([`snic_sim::run_sharded`]): an
//! interleaved run needs every tenant's NF resident at once — O(tenants
//! × NF) — while a split S-NIC run simulates each tenant alone, and
//! [`colo_spec`] then hands it *deferred* pipelines: a tenant's NF is
//! built when a worker picks the tenant up and dropped when its budget
//! ends, so memory is O(workers × largest NF) however many tenants
//! share the NIC.

use snic_nf::{NfKind, StreamingRecorder};
use snic_sim::{JobSpec, SimJob};
use snic_trace::PhaseSchedule;
use snic_types::mix;
use snic_uarch::config::MachineConfig;
use snic_uarch::engine::RunOutcome;
use snic_uarch::{Access, EventSource, StreamedSource, TraceSource};

use crate::streams::{build_scaled, Frames};
use crate::Scale;

/// One tenant of a streamed colocation: an NF personality, a workload
/// phase schedule, a private seed, and an exact event budget.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// The NF personality processing this tenant's packets.
    pub kind: NfKind,
    /// Time-varying workload shape.
    pub schedule: PhaseSchedule,
    /// Seed for the tenant's flow pool, payloads, and NF structures.
    pub seed: u64,
    /// Exactly how many reference-stream events this tenant feeds the
    /// engine (the capped streaming pass length).
    pub events: u64,
}

/// Relative weight of each personality in a weighted [`tenant_mix`].
///
/// These were single-core regeneration rates (events/second) when
/// every tenant was fed full frames, and they rank the kinds by events
/// per packet — DPI emits ~500, LPM 2 — because synthesizing the packet,
/// not the NF's table probes, was the cost. They no longer describe the
/// rates (header-only kinds are not fed payloads now), but they are
/// frozen: they define the weighted budgets, so the billion-run digest
/// moves if one of them does.
fn regen_weight(kind: NfKind) -> u64 {
    match kind {
        NfKind::Dpi => 33,
        NfKind::Firewall => 15,
        NfKind::Nat => 6,
        NfKind::LoadBalancer => 4,
        NfKind::Lpm => 2,
        NfKind::Monitor => 4,
    }
}

/// Build a mixed-personality tenant list whose event budgets sum to
/// exactly `total_events`.
///
/// Personalities cycle through [`NfKind::ALL`]; each tenant gets its own
/// seed and a phase schedule staggered per tenant (different diurnal
/// phase lengths and crowd onsets) so no two tenants breathe in step.
/// With `weighted` set, budgets are proportional to the square of each
/// personality's [`regen_weight`] — the allocation that gives the kinds
/// with many events per packet most of a billion-event run while every
/// tenant still contributes at least a 1/(64·tenants) floor.
/// Unweighted budgets split evenly (the sweep default).
///
/// # Panics
///
/// Panics if `tenants` is 0 or `total_events < tenants` (every tenant
/// feeds the engine at least one event).
pub fn tenant_mix(tenants: usize, seed: u64, total_events: u64, weighted: bool) -> Vec<TenantSpec> {
    assert!(tenants > 0, "no tenants");
    assert!(total_events >= tenants as u64, "fewer events than tenants");
    let kinds: Vec<NfKind> = (0..tenants)
        .map(|i| NfKind::ALL[i % NfKind::ALL.len()])
        .collect();
    let weights: Vec<u128> = kinds
        .iter()
        .map(|&k| {
            if weighted {
                let w = regen_weight(k) as u128;
                w * w
            } else {
                1
            }
        })
        .collect();
    let sum_w: u128 = weights.iter().sum();
    let floor = (total_events / (64 * tenants as u64)).max(1);
    let mut events: Vec<u64> = weights
        .iter()
        .map(|&w| ((total_events as u128 * w / sum_w) as u64).max(floor))
        .collect();
    // Rounding and floors drift the sum. A shortfall goes to the largest
    // budget; a surplus comes off the largest budgets in turn, none
    // below 1 (floors can exceed a small total many times over).
    let assigned: u64 = events.iter().sum();
    let largest = |events: &[u64]| {
        (0..tenants)
            .max_by_key(|&i| events[i])
            .expect("at least one tenant")
    };
    if assigned < total_events {
        let top = largest(&events);
        events[top] += total_events - assigned;
    }
    let mut surplus = assigned.saturating_sub(total_events);
    while surplus > 0 {
        let top = largest(&events);
        let take = surplus.min(events[top] - 1);
        events[top] -= take;
        surplus -= take;
    }
    (0..tenants)
        .map(|i| {
            let tseed = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i as u64 * 0x0100_0000_01b3);
            // Stagger the phase geometry per tenant: cycle lengths vary
            // ±50% with the tenant index so peaks, crowds, and
            // migrations interleave instead of synchronizing.
            let horizon = events[i].max(64);
            let stretch = 50 + (tseed % 101); // 50..=150 percent
            TenantSpec {
                kind: kinds[i],
                schedule: PhaseSchedule::realistic(horizon * stretch / 100),
                seed: tseed,
                events: events[i],
            }
        })
        .collect()
}

/// Caps an inner trace source at an exact event budget. The cap defines
/// the pass length, so `rewind` restarts both the budget and the inner
/// generator.
struct CappedSource {
    inner: Box<dyn TraceSource>,
    cap: u64,
    emitted: u64,
}

impl TraceSource for CappedSource {
    fn fill(&mut self, out: &mut [Access]) -> usize {
        let left = (self.cap - self.emitted).min(out.len() as u64) as usize;
        if left == 0 {
            return 0;
        }
        let n = self.inner.fill(&mut out[..left]);
        self.emitted += n as u64;
        n
    }

    fn rewind(&mut self) {
        self.inner.rewind();
        self.emitted = 0;
    }
}

/// A tenant pipeline that exists only while it is being drained: `make`
/// runs on the first `fill`, and the pipeline it built is dropped the
/// moment a `fill` returns 0 (further fills keep answering 0). `rewind`
/// forgets it, so the next pass rebuilds from the same seeds.
struct DeferredSource<F> {
    make: F,
    inner: Option<Box<dyn TraceSource>>,
    drained: bool,
}

impl<F: Fn() -> Box<dyn TraceSource> + Send> TraceSource for DeferredSource<F> {
    fn fill(&mut self, out: &mut [Access]) -> usize {
        if self.drained {
            return 0;
        }
        let n = self.inner.get_or_insert_with(&self.make).fill(out);
        if n == 0 {
            self.inner = None;
            self.drained = true;
        }
        n
    }

    fn rewind(&mut self) {
        self.inner = None;
        self.drained = false;
    }
}

/// One pass of a [`DeferredSource`] over `make`, as an engine stream.
fn deferred(make: impl Fn() -> Box<dyn TraceSource> + Send + 'static) -> EventSource {
    StreamedSource::new(Box::new(DeferredSource {
        make,
        inner: None,
        drained: false,
    }))
    .into()
}

/// Build one tenant's streaming reference-stream pipeline:
/// phased packets → NF personality → exact event cap. The packet stream
/// is endless; the event cap, not a packet count, bounds the pipeline.
pub fn tenant_source(spec: &TenantSpec, scale: &Scale) -> Box<dyn TraceSource> {
    let scale = *scale;
    let (kind, seed, schedule) = (spec.kind, spec.seed, spec.schedule.clone());
    let recorder = StreamingRecorder::new(
        move || build_scaled(kind, &scale, seed),
        move || Frames::new(kind, &scale, seed, schedule.clone()),
    );
    Box::new(CappedSource {
        inner: Box::new(recorder),
        cap: spec.events,
        emitted: 0,
    })
}

/// Round `l2_bytes` down to the cache model's geometry quantum (`ways ×
/// 64-byte lines`; the model refuses sizes it would silently truncate).
fn quantize_l2(l2_bytes: u64, ways: u32) -> u64 {
    let quantum = ways as u64 * 64;
    (l2_bytes / quantum).max(1) * quantum
}

/// The S-NIC machine for a many-tenant run: one private L2 way per
/// tenant (the 16-way Marvell default only partitions to 16 domains),
/// capped at the engine's 64-way scan limit, with the L2 size snapped
/// to the resulting geometry.
pub fn many_tenant_snic(tenants: usize, l2_bytes: u64) -> MachineConfig {
    let ways = (tenants as u32).clamp(16, 64);
    MachineConfig::snic(tenants as u32, quantize_l2(l2_bytes, ways)).with_l2_ways(ways)
}

/// The commodity counterpart at the identical cache geometry, so the
/// comparison isolates the sharing discipline, not associativity.
pub fn many_tenant_commodity(tenants: usize, l2_bytes: u64) -> MachineConfig {
    let ways = (tenants as u32).clamp(16, 64);
    MachineConfig::commodity(tenants as u32, quantize_l2(l2_bytes, ways)).with_l2_ways(ways)
}

/// A re-windable job spec for one streamed colocation run.
///
/// A run that [`snic_sim::run_sharded`] will split (`shards > 1` on a
/// shardable machine) gets deferred pipelines: building the job builds
/// no NF, and each tenant's structures (flow tables, rule sets, automata,
/// routes) live only while a worker simulates that tenant. An interleaved
/// run needs every tenant resident from its first event, so its tenants
/// are built up front across the worker pool, in `specs` order.
pub fn colo_spec(
    scale: &Scale,
    specs: &[TenantSpec],
    cfg: MachineConfig,
    shards: usize,
) -> JobSpec {
    let scale = *scale;
    let specs = specs.to_vec();
    let split = shards > 1 && snic_sim::shardable(&cfg);
    JobSpec::new(move || {
        let streams = if split {
            specs
                .iter()
                .cloned()
                .map(|s| deferred(move || tenant_source(&s, &scale)))
                .collect()
        } else {
            snic_sim::par_map(specs.iter().collect(), |s| {
                StreamedSource::new(tenant_source(s, &scale)).into()
            })
        };
        SimJob::new(cfg.clone(), streams).with_shards(shards)
    })
}

/// FNV-1a over every stat field of an outcome — the stable fingerprint
/// the identity gates and EXPERIMENTS.md tables print.
pub fn outcome_digest(outcome: &RunOutcome) -> u64 {
    let mut h = mix::FNV_OFFSET;
    let mut eat = |v: u64| h = mix::fnv1a(h, &v.to_le_bytes());
    for nf in &outcome.nfs {
        eat(nf.insns);
        eat(nf.cycles);
        eat(nf.l1_hits);
        eat(nf.l1_misses);
        eat(nf.l2_hits);
        eat(nf.l2_misses);
    }
    h
}

/// Engine events an outcome actually processed (every event probes L1
/// exactly once).
pub fn outcome_events(outcome: &RunOutcome) -> u64 {
    outcome.nfs.iter().map(|n| n.l1_hits + n.l1_misses).sum()
}

/// Peak resident set of this process in MiB (`VmHWM` from
/// `/proc/self/status`); `None` off Linux.
pub fn peak_rss_mb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024)
}

/// One row of the many-tenant sweep: a commodity/S-NIC pair at one
/// cotenancy, streamed end to end.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Colocated tenant count.
    pub tenants: usize,
    /// Engine events processed per machine config.
    pub events: u64,
    /// Mean IPC across tenants, commodity baseline.
    pub commodity_ipc: f64,
    /// Mean IPC across tenants, S-NIC.
    pub snic_ipc: f64,
    /// Mean S-NIC IPC degradation vs commodity, percent.
    pub degradation_pct: f64,
    /// Wall clock of the pair, seconds.
    pub wall_s: f64,
    /// Engine events per second across the pair.
    pub events_per_sec: f64,
    /// FNV-1a fingerprint of the S-NIC outcome (identity checks).
    pub snic_digest: u64,
}

fn mean_ipc(outcome: &RunOutcome) -> f64 {
    outcome.nfs.iter().map(|n| n.ipc()).sum::<f64>() / outcome.nfs.len().max(1) as f64
}

/// Run the streamed colocation sweep at each cotenancy in
/// `tenant_counts` (32–64 is the headline range). Each count runs a
/// commodity pair serially (shared L2 + FCFS bus cannot shard) and the
/// S-NIC leg with `shards` workers.
pub fn streamed_sweep(
    scale: &Scale,
    tenant_counts: &[usize],
    events_per_tenant: u64,
    seed: u64,
    shards: usize,
) -> Vec<SweepRow> {
    let l2_bytes = 4 << 20;
    tenant_counts
        .iter()
        .map(|&tenants| {
            let specs = tenant_mix(
                tenants,
                seed ^ tenants as u64,
                events_per_tenant * tenants as u64,
                false,
            );
            let start = std::time::Instant::now();
            let commodity =
                colo_spec(scale, &specs, many_tenant_commodity(tenants, l2_bytes), 1).run();
            let snic = colo_spec(scale, &specs, many_tenant_snic(tenants, l2_bytes), shards).run();
            let wall_s = start.elapsed().as_secs_f64();
            let events = outcome_events(&snic);
            let commodity_ipc = mean_ipc(&commodity);
            let snic_ipc = mean_ipc(&snic);
            SweepRow {
                tenants,
                events,
                commodity_ipc,
                snic_ipc,
                degradation_pct: (1.0 - snic_ipc / commodity_ipc) * 100.0,
                wall_s,
                events_per_sec: (events + outcome_events(&commodity)) as f64 / wall_s,
                snic_digest: outcome_digest(&snic),
            }
        })
        .collect()
}

/// Render sweep rows as the EXPERIMENTS.md table.
pub fn render_sweep(rows: &[SweepRow]) -> String {
    crate::render_table(
        "Streamed colocation sweep (commodity vs S-NIC)",
        &[
            "tenants",
            "events",
            "IPC base",
            "IPC snic",
            "degr %",
            "Mevents/s",
            "digest",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.tenants.to_string(),
                    r.events.to_string(),
                    format!("{:.4}", r.commodity_ipc),
                    format!("{:.4}", r.snic_ipc),
                    format!("{:.2}", r.degradation_pct),
                    format!("{:.1}", r.events_per_sec / 1e6),
                    format!("{:016x}", r.snic_digest),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Report of one bounded-memory billion-event run.
#[derive(Debug, Clone)]
pub struct BillionReport {
    /// Colocated tenant count.
    pub tenants: usize,
    /// Engine events actually processed.
    pub events: u64,
    /// Wall clock, seconds.
    pub wall_s: f64,
    /// Engine events per second (generation + simulation).
    pub events_per_sec: f64,
    /// Peak resident set after the run, MiB (`None` off Linux).
    pub peak_rss_mb: Option<u64>,
    /// FNV-1a fingerprint of the outcome.
    pub digest: u64,
}

/// Run one streamed S-NIC colocation with `total_events` events spread
/// over `tenants` personality-weighted tenants — the billion-event
/// configuration when `total_events >= 1e9`. With `shards > 1` memory
/// stays O(workers × largest NF); the materialized equivalent would
/// need `16 × total_events` bytes of `Access` alone.
pub fn billion_run(
    scale: &Scale,
    tenants: usize,
    total_events: u64,
    seed: u64,
    shards: usize,
) -> BillionReport {
    let specs = tenant_mix(tenants, seed, total_events, true);
    let spec = colo_spec(scale, &specs, many_tenant_snic(tenants, 4 << 20), shards);
    let start = std::time::Instant::now();
    let outcome = spec.run();
    let wall_s = start.elapsed().as_secs_f64();
    let events = outcome_events(&outcome);
    BillionReport {
        tenants,
        events,
        wall_s,
        events_per_sec: events as f64 / wall_s,
        peak_rss_mb: peak_rss_mb(),
        digest: outcome_digest(&outcome),
    }
}

/// Render a billion-run report as the EXPERIMENTS.md / gate summary.
pub fn render_billion(r: &BillionReport) -> String {
    format!(
        "billion-event streamed run: tenants={} events={} wall={:.1}s \
         throughput={:.1}M events/s peak_rss={} digest={:016x}",
        r.tenants,
        r.events,
        r.wall_s,
        r.events_per_sec / 1e6,
        r.peak_rss_mb
            .map_or_else(|| "n/a".to_string(), |mb| format!("{mb}MiB")),
        r.digest
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use snic_sim::Exec;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn tiny() -> Scale {
        Scale {
            flows: 500,
            packets: 400,
            patterns: 100,
            fw_rules: 50,
            lpm_prefixes: 200,
            monitor_ms: 20,
        }
    }

    #[test]
    fn tenant_mix_conserves_total_events() {
        // The small totals are floors exceeding the budget: 48 floors of
        // 1 against fewer events than that was "engine processed 48".
        let million = [1, 5, 32, 64].map(|t| (t, 1_000_000));
        let small = [(48, 48), (48, 49), (48, 100), (64, 64), (7, 10)];
        for (tenants, total) in million.into_iter().chain(small) {
            for weighted in [false, true] {
                let specs = tenant_mix(tenants, 0xface, total, weighted);
                assert_eq!(specs.len(), tenants);
                let sum: u64 = specs.iter().map(|s| s.events).sum();
                assert_eq!(sum, total, "tenants={tenants} weighted={weighted}");
                assert!(specs.iter().all(|s| s.events >= 1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "fewer events than tenants")]
    fn tenant_mix_refuses_fewer_events_than_tenants() {
        tenant_mix(48, 0xc010, 10, true);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// "Exactly `total_events`" at every size: small totals, where
        /// the floors are most of the budget, as well as the billion.
        #[test]
        fn budgets_sum_exactly(
            tenants in 1usize..=64,
            extra in prop_oneof![0u64..256, 0u64..100_000, 0u64..1_000_000_000],
            weighted in any::<bool>(),
        ) {
            let total = (tenants as u64 + extra).min(1_000_000_000);
            let specs = tenant_mix(tenants, 0xface, total, weighted);
            prop_assert_eq!(specs.len(), tenants);
            prop_assert_eq!(specs.iter().map(|s| s.events).sum::<u64>(), total);
            prop_assert!(specs.iter().all(|s| s.events >= 1));
        }
    }

    #[test]
    fn tenant_mix_cycles_personalities_and_staggers_schedules() {
        let specs = tenant_mix(12, 3, 600_000, false);
        assert_eq!(specs[0].kind, NfKind::ALL[0]);
        assert_eq!(specs[6].kind, NfKind::ALL[0]);
        assert_eq!(specs[1].kind, NfKind::ALL[1]);
        assert_ne!(specs[0].seed, specs[6].seed);
        assert_ne!(
            specs[0].schedule.diurnal_period, specs[6].schedule.diurnal_period,
            "same personality, staggered phases"
        );
    }

    /// One pass of `src`, pulled through an odd-sized buffer until the
    /// 0 fill.
    fn drain_pass(src: &mut dyn TraceSource) -> Vec<Access> {
        let mut buf = [Access {
            insns: 1,
            addr: 0,
            kind: snic_uarch::AccessKind::Load,
        }; 333];
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
    fn tenant_source_respects_exact_cap_and_rewinds() {
        let spec = TenantSpec {
            kind: NfKind::Monitor,
            schedule: PhaseSchedule::realistic(2_000),
            seed: 0x7777,
            events: 2_000,
        };
        let mut src = tenant_source(&spec, &tiny());
        let first = drain_pass(&mut *src);
        assert_eq!(first.len(), 2_000, "cap must be exact");
        src.rewind();
        assert_eq!(drain_pass(&mut *src), first, "rewind must replay");
    }

    #[test]
    fn parallel_tenant_build_keeps_tenant_order() {
        // Twelve tenants with distinct seeds, schedules and (weighted)
        // budgets: any permutation of the built streams changes `nfs`.
        let specs = tenant_mix(12, 0x0bde, 48_000, true);
        let cfg = many_tenant_snic(12, 1 << 20);
        let serially_built = SimJob::new(
            cfg.clone(),
            specs
                .iter()
                .map(|s| StreamedSource::new(tenant_source(s, &tiny())).into())
                .collect(),
        );
        let built = colo_spec(&tiny(), &specs, cfg, 1).run();
        assert_eq!(built.nfs, serially_built.run().nfs);
    }

    /// How many [`Counted`] sources were built, are live, and were ever
    /// live at once.
    #[derive(Default)]
    struct Residency {
        built: AtomicUsize,
        live: AtomicUsize,
        peak: AtomicUsize,
    }

    impl Residency {
        fn get(counter: &AtomicUsize) -> usize {
            counter.load(Ordering::SeqCst)
        }

        /// A factory of tenant `tenant`'s counted source.
        fn factory(self: &Arc<Self>, tenant: u64) -> impl Fn() -> Box<dyn TraceSource> + Send {
            let res = Arc::clone(self);
            move || {
                res.built.fetch_add(1, Ordering::SeqCst);
                let live = res.live.fetch_add(1, Ordering::SeqCst) + 1;
                res.peak.fetch_max(live, Ordering::SeqCst);
                Box::new(Counted {
                    left: 6_000 + 500 * tenant,
                    seed: 0xd0 + tenant,
                    res: Arc::clone(&res),
                })
            }
        }
    }

    /// A source of `left` events that counts itself live from
    /// construction to drop.
    struct Counted {
        left: u64,
        seed: u64,
        res: Arc<Residency>,
    }

    impl TraceSource for Counted {
        fn fill(&mut self, out: &mut [Access]) -> usize {
            let n = self.left.min(out.len() as u64) as usize;
            for slot in &mut out[..n] {
                self.left -= 1;
                *slot = Access {
                    insns: 3,
                    addr: (mix::fnv1a(self.seed, &self.left.to_le_bytes()) % (1 << 18)) & !7,
                    kind: snic_uarch::AccessKind::Load,
                };
            }
            n
        }

        fn rewind(&mut self) {
            unreachable!("a deferred source rebuilds instead of rewinding");
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.res.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn deferred_residency_is_bounded_by_workers() {
        let n = 8;
        let cfg = many_tenant_snic(n, 1 << 20);
        let mut outcomes = Vec::new();
        for k in [2, 3, 8] {
            let res = Arc::new(Residency::default());
            let streams = (0..n as u64).map(|t| deferred(res.factory(t))).collect();
            outcomes.push(SimJob::new(cfg.clone(), streams).with_shards(k).run());
            assert_eq!(Residency::get(&res.built), n, "one build per tenant");
            let peak = Residency::get(&res.peak);
            let bound = k.min(snic_sim::default_threads());
            assert!((1..=bound).contains(&peak), "k={k}: peak {peak} > {bound}");
            assert_eq!(Residency::get(&res.live), 0, "k={k}: none outlives the run");
        }
        // The interleaved call over the same (eagerly built) tenants is
        // the oracle, and it does hold all of them at once.
        let res = Arc::new(Residency::default());
        let eager = (0..n as u64)
            .map(|t| StreamedSource::new(res.factory(t)()).into())
            .collect();
        assert_eq!(Residency::get(&res.live), n);
        let interleaved = SimJob::new(cfg, eager).run();
        assert!(outcomes.iter().all(|o| o.nfs == interleaved.nfs));
    }

    #[test]
    fn deferred_source_drops_when_drained_and_rebuilds_on_rewind() {
        let res = Arc::new(Residency::default());
        let mut src = DeferredSource {
            make: res.factory(1),
            inner: None,
            drained: false,
        };
        assert_eq!(Residency::get(&res.built), 0, "nothing is built unasked");
        let first = drain_pass(&mut src);
        assert_eq!(first.len(), 6_500);
        assert_eq!(Residency::get(&res.live), 0, "dropped at the 0 fill");
        assert!(drain_pass(&mut src).is_empty(), "a drained source stays so");
        assert_eq!(Residency::get(&res.built), 1, "and builds nothing");
        src.rewind();
        assert_eq!(drain_pass(&mut src), first, "second pass, byte for byte");
        assert_eq!(Residency::get(&res.built), 2);
        assert_eq!(Residency::get(&res.live), 0);
    }

    #[test]
    fn streamed_colo_serial_parallel_sharded_identical() {
        let specs = tenant_mix(6, 0xc010, 30_000, false);
        let spec_serial = colo_spec(&tiny(), &specs, many_tenant_snic(6, 1 << 20), 1);
        let serial = spec_serial.run();
        assert_eq!(outcome_events(&serial), 30_000);
        for shards in [2, 3, 6] {
            let sharded = colo_spec(&tiny(), &specs, many_tenant_snic(6, 1 << 20), shards).run();
            assert_eq!(serial.nfs, sharded.nfs, "shards={shards}");
        }
        let parallel = snic_sim::map_exec(Exec::Parallel, vec![&spec_serial; 2], JobSpec::run);
        assert_eq!(parallel[0].nfs, serial.nfs);
        assert_eq!(parallel[1].nfs, serial.nfs);
    }

    #[test]
    fn sweep_rows_report_sane_numbers() {
        let rows = streamed_sweep(&tiny(), &[4], 4_000, 0x5111, 2);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.events, 16_000);
        assert!(r.commodity_ipc > 0.0 && r.snic_ipc > 0.0);
        assert!(r.events_per_sec > 0.0);
        let rendered = render_sweep(&rows);
        assert!(rendered.contains("digest"));
    }

    #[test]
    fn many_tenant_configs_widen_ways_together() {
        for t in [16, 32, 48, 64] {
            let s = many_tenant_snic(t, 4 << 20);
            let c = many_tenant_commodity(t, 4 << 20);
            assert_eq!(s.l2.ways, t as u32);
            assert_eq!(s.l2.ways, c.l2.ways, "identical geometry");
            assert_eq!(s.l2.size, c.l2.size);
            assert_eq!(s.l2.size % (s.l2.ways as u64 * 64), 0, "geometry quantum");
            assert!(s.l2.size <= 4 << 20, "snap rounds down");
            assert!(snic_sim::shardable(&s));
            assert!(!snic_sim::shardable(&c));
        }
    }

    #[test]
    fn billion_run_shape_at_miniature_scale() {
        // The real billion runs under the lint gate; here the same
        // machinery at 60k events proves the report plumbing.
        let r = billion_run(&tiny(), 6, 60_000, 0xb111, 3);
        assert_eq!(r.events, 60_000);
        assert!(r.events_per_sec > 0.0);
        assert!(render_billion(&r).contains("digest"));
    }
}
