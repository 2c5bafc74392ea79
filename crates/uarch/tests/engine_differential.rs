//! Differential test: two-phase production engine vs the per-event
//! reference engine.
//!
//! The production engine ([`snic_uarch::engine`]) probes private L1s in
//! bulk branch-free chunks and only schedules *L2 events* through the
//! global interleaved loop; the reference ([`snic_uarch::reference`])
//! processes every event one at a time in the documented
//! `(local clock, stream index)` order. The restructuring is only legal
//! if nothing observable distinguishes the two, so this suite replays
//! random machine configurations (all three cache disciplines × both
//! bus disciplines), random stream mixes, and random warmup boundaries
//! through both engines and requires bit-identical statistics — plus
//! identical telemetry streams when a recording sink is attached.

use proptest::prelude::*;
use proptest::TestRng;
use snic_telemetry::Recorder;
use snic_uarch::engine::{run_colocated_ids_sink, run_colocated_warm};
use snic_uarch::reference::{run_reference, NullObserver};
use snic_uarch::stream::{Access, AccessKind, EventSource, SharedReplayStream, SyntheticStream};
use snic_uarch::{BusKind, CacheConfig, MachineConfig, Partition};

/// Random but legal machine configuration: every cache discipline and
/// both bus kinds, with geometries small enough that sets fill, evict,
/// and contend within a few thousand events.
fn machine(rng: &mut TestRng, tenants: u32) -> MachineConfig {
    let l2_bytes = [128u64 << 10, 256 << 10, 512 << 10][rng.below(3) as usize];
    let mut cfg = match rng.below(3) {
        0 => MachineConfig::commodity(tenants, l2_bytes),
        1 => MachineConfig::snic(tenants, l2_bytes),
        _ => {
            // Random SecDCP split of 16 ways with ≥1 way per tenant.
            let mut allocation = vec![1u32; tenants as usize];
            for _ in 0..16 - tenants {
                let slot = rng.below(u64::from(tenants)) as usize;
                allocation[slot] += 1;
            }
            MachineConfig::snic_secdcp(allocation, l2_bytes)
        }
    };
    // Cross the bus discipline independently of the cache discipline so
    // commodity-cache + temporal-bus (and vice versa) get covered too.
    if rng.below(4) == 0 {
        cfg.bus = match cfg.bus {
            BusKind::Fcfs => BusKind::Temporal { domains: tenants },
            BusKind::Temporal { .. } => BusKind::Fcfs,
        };
    }
    // Occasionally shrink the L1 so its miss stream (the only traffic
    // the schedulers actually interleave) gets dense.
    if rng.below(3) == 0 {
        cfg.l1 = CacheConfig {
            size: 4 << 10,
            ways: 4,
            line: 64,
        };
    }
    cfg
}

/// Random stream: synthetic walker or a literal random replay trace
/// (replay covers partial batches, single-event streams, and insns > 1
/// mixes the synthetic walker never produces).
fn stream(rng: &mut TestRng) -> EventSource {
    if rng.below(4) == 0 {
        let len = rng.below(3_000) as usize; // May be zero: empty stream.
        let accesses: Vec<Access> = (0..len)
            .map(|_| Access {
                insns: 1 + rng.below(12) as u32,
                addr: rng.below(1 << 22),
                kind: AccessKind::Load,
            })
            .collect();
        EventSource::from(SharedReplayStream::new(accesses.into()))
    } else {
        let ws = 1u64 << (10 + rng.below(12));
        EventSource::from(SyntheticStream::new(
            ws,
            1 + rng.below(8) as u32,
            rng.below(8) as u32,
            1 + rng.below(6_000),
            rng.below(u64::MAX),
        ))
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn engine_matches_reference(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let tenants = 1 + rng.below(6) as u32;
        let cfg = machine(&mut rng, tenants);
        // Build both stream sets from the same RNG draws.
        let seeds: Vec<u64> = (0..tenants).map(|_| rng.below(u64::MAX)).collect();
        let mk = |s: &[u64]| -> Vec<EventSource> {
            s.iter().map(|&x| stream(&mut TestRng::new(x))).collect()
        };
        let warmups: Vec<u64> = (0..tenants).map(|_| rng.below(2_000)).collect();

        let fast_rec = Recorder::new();
        let slow_rec = Recorder::new();
        let all: Vec<u32> = (0..tenants).collect();
        let fast = run_colocated_ids_sink(&cfg, mk(&seeds), &warmups, &all, &fast_rec);
        let slow = run_reference(&cfg, mk(&seeds), &warmups, &slow_rec, &mut NullObserver);

        prop_assert_eq!(
            &fast.nfs, &slow.nfs,
            "engines diverged under {:?} warmups {:?}", cfg, warmups
        );
        // The telemetry stream must match too: same counters, same
        // histograms, same spans, in the same deterministic order.
        prop_assert_eq!(
            fast_rec.summary().render(),
            slow_rec.summary().render(),
            "telemetry diverged under {:?}", cfg
        );
    }

    /// Sharding fidelity: every contiguous tenant subset of an S-NIC
    /// colocation, simulated alone with its global ids, reproduces the
    /// full run's per-tenant statistics bit-for-bit.
    #[test]
    fn snic_tenant_subsets_reproduce_full_run(seed in any::<u64>()) {
        use snic_telemetry::NullSink;
        let mut rng = TestRng::new(seed);
        let tenants = 2 + rng.below(5) as u32;
        let mut cfg = MachineConfig::snic(tenants, 256 << 10);
        if rng.below(2) == 0 {
            let mut allocation = vec![1u32; tenants as usize];
            for _ in 0..16 - tenants {
                allocation[rng.below(u64::from(tenants)) as usize] += 1;
            }
            cfg.l2_partition = Partition::SecDcp { allocation };
        }
        let seeds: Vec<u64> = (0..tenants).map(|_| rng.below(u64::MAX)).collect();
        let warmups: Vec<u64> = (0..tenants).map(|_| rng.below(1_000)).collect();
        let mk = |s: &[u64]| -> Vec<EventSource> {
            s.iter().map(|&x| stream(&mut TestRng::new(x))).collect()
        };
        let full = run_colocated_warm(&cfg, mk(&seeds), &warmups);

        let lo = rng.below(u64::from(tenants)) as usize;
        let hi = lo + 1 + rng.below(u64::from(tenants) - lo as u64) as usize;
        let ids: Vec<u32> = (lo as u32..hi as u32).collect();
        let shard = run_colocated_ids_sink(
            &cfg,
            mk(&seeds[lo..hi]),
            &warmups[lo..hi],
            &ids,
            &NullSink,
        );
        for (off, t) in (lo..hi).enumerate() {
            prop_assert_eq!(
                &shard.nfs[off], &full.nfs[t],
                "tenant {} diverged when simulated as shard [{}, {}) of {:?}",
                t, lo, hi, cfg
            );
        }
    }
}
