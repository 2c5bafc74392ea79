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
//!
//! The production engine itself runs two ways — every lane's front
//! inline on the scheduler's thread, or on a helper thread feeding it
//! batches — and `engine::with_helper` forces either, so the suite also
//! holds pipelined ≡ inline ≡ reference, and pins what the helper does
//! when a source panics or the thread budget is spent.
//!
//! A recording replayed more than once is served from a pass memo once
//! a later pass's L1 meets pass 1's; the memo suite below holds such
//! replays to the reference for L1s that repeat early, late, never, and
//! past the memo's cap, and `engine::memo_events` shows which of them
//! the memo served.

use std::sync::mpsc;
use std::time::Duration;

use proptest::prelude::*;
use proptest::TestRng;
use snic_telemetry::{BufferSink, NullSink, Recorder};
use snic_uarch::budget::Threads;
use snic_uarch::config::{BUS_BEAT_CYCLES, DRAM_CYCLES, L2_HIT_CYCLES};
use snic_uarch::engine::{
    helpers_started, memo_events, run_colocated_ids_sink, run_colocated_warm, with_helper,
    RunOutcome, NF_ADDR_BITS,
};
use snic_uarch::reference::{run_reference, NullObserver};
use snic_uarch::stream::{Access, AccessKind, EventSource, SharedReplayStream, SyntheticStream};
use snic_uarch::{BusKind, CacheConfig, MachineConfig, Partition, StreamedSource, TraceSource};

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

/// A literal trace of `len` events. Most draw 1–12 instructions and an
/// address in a 4 MiB footprint at the bottom of the private address
/// space. Per trace, the footprint may instead sit at its top, ending at
/// 2^[`NF_ADDR_BITS`] − 1, or spread over all of it; and one event in 16,
/// or one in 2, may retire close to `u32::MAX` instructions. The edges
/// hold the engine's `u64` instruction sums, the hit runs it carries
/// across chunks and batches, and its packing of chunk position and
/// address, to the reference.
fn literal(rng: &mut TestRng, len: u64) -> Vec<Access> {
    let space = 1u64 << NF_ADDR_BITS;
    let (base, span) = match rng.below(3) {
        0 => (0, 1 << 22),
        1 => (space - (1 << 22), 1 << 22),
        _ => (0, space),
    };
    let huge_one_in = [0, 16, 2][rng.below(3) as usize];
    (0..len)
        .map(|_| Access {
            insns: if huge_one_in > 0 && rng.below(huge_one_in) == 0 {
                u32::MAX - rng.below(4) as u32
            } else {
                1 + rng.below(12) as u32
            },
            addr: base + rng.below(span),
            kind: AccessKind::Load,
        })
        .collect()
}

/// Random stream: synthetic walker or a literal random replay trace
/// (replay covers partial batches, single-event streams, and insns > 1
/// mixes the synthetic walker never produces).
fn stream(rng: &mut TestRng) -> EventSource {
    if rng.below(4) == 0 {
        let len = rng.below(3_000); // May be zero: empty stream.
        EventSource::from(SharedReplayStream::new(literal(rng, len).into()))
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

    /// Pipelined ≡ inline ≡ reference: every cache personality under
    /// both bus disciplines, 1–32 lanes, and per-lane warm-ups of zero,
    /// inside a batch, exactly at a batch edge, and past the stream's
    /// end — statistics with the sink off, statistics and the exact
    /// sink operation stream with it on.
    #[test]
    fn pipelined_inline_and_reference_agree(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let tenants = 1 + rng.below(32) as u32;
        let cfg = personality(&mut rng, tenants);
        let seeds: Vec<u64> = (0..tenants).map(|_| rng.below(u64::MAX)).collect();
        let mk = || -> Vec<EventSource> {
            seeds.iter().map(|&x| batched_stream(&mut TestRng::new(x))).collect()
        };
        let warmups: Vec<u64> = (0..tenants)
            .map(|_| match rng.below(4) {
                0 => 0,
                1 => 1 + rng.below(BATCH - 1),
                2 => BATCH * (1 + rng.below(3)),
                _ => 1 << 20,
            })
            .collect();
        let ids: Vec<u32> = (0..tenants).collect();
        let run = |helper: bool, sink: Option<&BufferSink>| -> RunOutcome {
            with_helper(helper, || match sink {
                Some(s) => run_colocated_ids_sink(&cfg, mk(), &warmups, &ids, s),
                None => run_colocated_ids_sink(&cfg, mk(), &warmups, &ids, &NullSink),
            })
        };
        let ops = |buf: &BufferSink| format!("{buf:?}");

        let reference_ops = BufferSink::new();
        let reference = run_reference(&cfg, mk(), &warmups, &reference_ops, &mut NullObserver);
        for helper in [false, true] {
            let started = helpers_started();
            prop_assert_eq!(
                &run(helper, None).nfs, &reference.nfs,
                "helper={} diverged under {:?} warmups {:?}", helper, cfg, warmups
            );
            let buf = BufferSink::new();
            prop_assert_eq!(&run(helper, Some(&buf)).nfs, &reference.nfs, "helper={}, sink on", helper);
            prop_assert_eq!(ops(&buf), ops(&reference_ops), "helper={}: sink operations", helper);
            prop_assert_eq!(helpers_started() - started, 2 * u64::from(helper));
        }
    }
}

/// Events per batch a front hands its back (`BATCH_CHUNKS × CHUNK` in
/// the engine): the warm-up edge cases straddle it.
const BATCH: u64 = 16 * 256;

/// A machine for `tenants` lanes in one of the three cache
/// personalities, on either bus discipline, with the L2 widened past 16
/// ways where more tenants need a slice each.
fn personality(rng: &mut TestRng, tenants: u32) -> MachineConfig {
    let ways = tenants.clamp(16, 32);
    let l2_bytes = u64::from(ways) * 64 * [64u64, 128, 256][rng.below(3) as usize];
    let mut cfg = match rng.below(3) {
        0 => MachineConfig::commodity(tenants, l2_bytes),
        1 => MachineConfig::snic(tenants, l2_bytes),
        _ => {
            let mut allocation = vec![1u32; tenants as usize];
            for _ in 0..ways - tenants.min(ways) {
                allocation[rng.below(u64::from(tenants)) as usize] += 1;
            }
            MachineConfig::snic_secdcp(allocation, l2_bytes)
        }
    }
    .with_l2_ways(ways);
    if rng.below(2) == 0 {
        cfg.bus = match cfg.bus {
            BusKind::Fcfs => BusKind::Temporal { domains: tenants },
            BusKind::Temporal { .. } => BusKind::Fcfs,
        };
    }
    if rng.below(3) == 0 {
        cfg.l1 = CacheConfig {
            size: 4 << 10,
            ways: 4,
            line: 64,
        };
    }
    cfg
}

/// A stream long enough to span several batches, or short enough to
/// end inside the first: the generators of [`stream`] with lengths up
/// to three batches and a bit.
fn batched_stream(rng: &mut TestRng) -> EventSource {
    let len = rng.below(3 * BATCH + 700);
    if rng.below(3) == 0 {
        SharedReplayStream::repeated(literal(rng, len).into(), 1 + rng.below(2) as u32).into()
    } else {
        let synth = SyntheticStream::new(
            1u64 << (10 + rng.below(12)),
            1 + rng.below(8) as u32,
            rng.below(8) as u32,
            len,
            rng.below(u64::MAX),
        );
        match rng.below(2) {
            0 => synth.into(),
            _ => {
                StreamedSource::with_chunk(Box::new(synth), 1, 1 + rng.below(5_000) as usize).into()
            }
        }
    }
}

/// A generator that panics on its third fill.
struct PanicsOnThirdFill {
    inner: SyntheticStream,
    fills: u32,
}

impl TraceSource for PanicsOnThirdFill {
    fn fill(&mut self, out: &mut [Access]) -> usize {
        self.fills += 1;
        assert!(self.fills < 3, "source failed on its third fill");
        self.inner.fill(out)
    }

    fn rewind(&mut self) {
        self.inner.rewind();
    }
}

#[test]
fn a_panicking_source_panics_the_caller_in_both_modes() {
    for helper in [false, true] {
        // The panicking lane is lane 1, whose first batch the helper
        // (started after lane 0's first inline batch) fills when forced.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let streams = vec![
                SyntheticStream::new(1 << 20, 4, 3, 50_000, 7).into(),
                StreamedSource::with_chunk(
                    Box::new(PanicsOnThirdFill {
                        inner: SyntheticStream::new(1 << 20, 4, 3, 50_000, 8),
                        fills: 0,
                    }),
                    1,
                    1_000,
                )
                .into(),
            ];
            let cfg = MachineConfig::commodity(2, 256 << 10);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_helper(helper, || run_colocated_warm(&cfg, streams, &[]))
            }));
            let message = caught.err().and_then(|p| {
                p.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            });
            let _ = tx.send(message);
        });
        let message = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("helper={helper}: the call hung instead of panicking"));
        assert_eq!(
            message.as_deref(),
            Some("source failed on its third fill"),
            "helper={helper}: the source's own panic must reach the caller"
        );
    }
}

#[test]
fn an_exhausted_budget_starts_no_helper() {
    // Long enough to pass the inline threshold; no other test of this
    // binary takes threads from the budget.
    let mk = || -> Vec<EventSource> {
        (0..2)
            .map(|i| SyntheticStream::new(1 << 20, 4, 3, 400_000, 11 + i).into())
            .collect()
    };
    let cfg = MachineConfig::snic(2, 256 << 10);
    let pipelined = with_helper(true, || run_colocated_warm(&cfg, mk(), &[1_000, 0]));
    let held = Threads::take(usize::MAX);
    let before = helpers_started();
    let starved = run_colocated_warm(&cfg, mk(), &[1_000, 0]);
    assert_eq!(helpers_started(), before, "no spare thread, no helper");
    drop(held);
    assert_eq!(starved.nfs, pipelined.nfs);
}

/// How soon a later pass of a [`memo_recording`] finds pass 1's L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Repeat {
    /// Random lines over a few L1s: within the first checkpoints.
    Early,
    /// Set 0 holds one line from the end of the pass until four others
    /// evict it [`LATE_AT`] events in.
    Late,
    /// Everything fits in the L1, and set 0 holds a line the pass
    /// touches only last: a later pass never meets pass 1's L1.
    Never,
    /// Misses on almost every event, more of them than the memo keeps.
    PastCap,
}

/// Where a [`Repeat::Late`] pass first evicts the line its predecessor
/// left in set 0.
const LATE_AT: usize = 20_000;

/// Bytes of line `i` of set 0 in both L1 personalities (32 KiB and 4 KiB,
/// 64-byte lines, 4 ways): its line number is a multiple of 128.
fn set0_line(i: u64) -> u64 {
    i << 13
}

/// A random address in the bottom `span` bytes, in any set but set 0 of
/// either L1 personality.
fn off_set0(rng: &mut TestRng, span: u64) -> u64 {
    loop {
        let a = rng.below(span);
        if (a >> 6) & 15 != 0 {
            return a;
        }
    }
}

/// A recording for the memo suite, its length off the chunk grid.
fn memo_recording(repeat: Repeat) -> Vec<Access> {
    let mut rng = TestRng::new(0x3e30 + repeat as u64);
    let (len, span) = match repeat {
        Repeat::Early => (50_003, 4 * (32 << 10)),
        Repeat::Late => (40_001, 4 * (32 << 10)),
        Repeat::Never => (30_011, 2 << 10),
        Repeat::PastCap => (1_300_007, 4 << 20),
    };
    let mut v: Vec<Access> = (0..len)
        .map(|_| Access {
            insns: 1 + rng.below(9) as u32,
            addr: off_set0(&mut rng, span),
            kind: AccessKind::Load,
        })
        .collect();
    if matches!(repeat, Repeat::Late | Repeat::Never) {
        if repeat == Repeat::Late {
            for i in 0..4 {
                v[LATE_AT + i as usize].addr = set0_line(1 + i);
            }
        }
        v[len - 1].addr = set0_line(9);
    }
    v
}

/// Every recording replayed 2–4 times (2–3 past the cap), warm-ups
/// before, at and after the first pass boundary, on both L1
/// personalities beside a streamed co-tenant, with the fronts inline
/// and on a helper: the engine equals the reference, the memo serves
/// the recordings whose L1 repeats and never the one whose L1 does not.
#[test]
fn replayed_recordings_match_the_reference_memo_or_not() {
    for repeat in [Repeat::Early, Repeat::Late, Repeat::Never, Repeat::PastCap] {
        let trace: std::sync::Arc<[Access]> = memo_recording(repeat).into();
        let len = trace.len() as u64;
        let passes: &[u32] = if repeat == Repeat::PastCap {
            &[2, 3]
        } else {
            &[2, 3, 4]
        };
        for &passes in passes {
            for warm in [len / 2 + 37, len, len + len / 3 + 11] {
                for small_l1 in [false, true] {
                    let mut cfg = MachineConfig::commodity(2, 256 << 10);
                    if small_l1 {
                        cfg.l1 = CacheConfig {
                            size: 4 << 10,
                            ways: 4,
                            line: 64,
                        };
                    }
                    let mk = || -> Vec<EventSource> {
                        vec![
                            SharedReplayStream::repeated(trace.clone(), passes).into(),
                            SyntheticStream::new(1 << 20, 3, 0, 20_000, 5).into(),
                        ]
                    };
                    let warmups = [warm, 0];
                    let reference =
                        run_reference(&cfg, mk(), &warmups, &NullSink, &mut NullObserver);
                    for helper in [false, true] {
                        let before = memo_events();
                        let fast = with_helper(helper, || run_colocated_warm(&cfg, mk(), &warmups));
                        let served = memo_events() - before;
                        let at = format!(
                            "{repeat:?} x{passes}, warm-up {warm}, 4 KiB L1 {small_l1}, helper {helper}"
                        );
                        assert_eq!(fast.nfs, reference.nfs, "{at}: engines diverged");
                        let later = u64::from(passes - 1) * len;
                        match repeat {
                            Repeat::Early => assert!(served > later / 2, "{at}: served {served}"),
                            Repeat::Late => assert!(
                                served > 0
                                    && served <= later - u64::from(passes - 1) * LATE_AT as u64,
                                "{at}: served {served}"
                            ),
                            Repeat::Never => assert_eq!(served, 0, "{at}"),
                            // The cap ends the memo about four fifths in.
                            Repeat::PastCap => assert!(
                                served > later / 2 && served < later * 9 / 10,
                                "{at}: served {served}"
                            ),
                        }
                    }
                }
            }
        }
    }
}

/// A single-pass recording and a generator streamed in several passes
/// never reach the memo, however often their events repeat.
#[test]
fn single_passes_and_generators_never_use_the_memo() {
    let trace: std::sync::Arc<[Access]> = memo_recording(Repeat::Early).into();
    let twice: std::sync::Arc<[Access]> = trace
        .iter()
        .chain(trace.iter())
        .copied()
        .collect::<Vec<_>>()
        .into();
    let cfg = MachineConfig::snic(1, 256 << 10);
    for helper in [false, true] {
        let before = memo_events();
        let once = with_helper(helper, || {
            run_colocated_warm(
                &cfg,
                vec![SharedReplayStream::new(twice.clone()).into()],
                &[trace.len() as u64],
            )
        });
        let streamed = with_helper(helper, || {
            let synth = SyntheticStream::new(4 * (32 << 10), 3, 0, 50_003, 9);
            run_colocated_warm(
                &cfg,
                vec![StreamedSource::repeated(Box::new(synth), 3).into()],
                &[50_003],
            )
        });
        assert_eq!(memo_events(), before, "helper {helper}");
        let memo = with_helper(helper, || {
            run_colocated_warm(
                &cfg,
                vec![SharedReplayStream::repeated(trace.clone(), 2).into()],
                &[trace.len() as u64],
            )
        });
        assert_eq!(
            memo.nfs, once.nfs,
            "helper {helper}: a doubled recording is a recording replayed twice"
        );
        assert!(
            memo_events() > before,
            "helper {helper}: the replayed recording uses the memo"
        );
        assert!(streamed.nfs[0].l1_misses > 0);
    }
}

/// Cycles a one-instruction L1 and L2 miss takes on an idle FCFS bus:
/// its instruction, the L2 lookup, one bus beat and DRAM.
const IDLE_MISS: u64 = 1 + L2_HIT_CYCLES + BUS_BEAT_CYCLES + DRAM_CYCLES;

/// A scripted lane: per event, its instructions and whether it touches
/// a line never touched before (an L1 and L2 miss, hence a bus grant)
/// or the line of the event before it (an L1 hit). The first event must
/// be fresh.
fn scripted(events: &[(u32, bool)]) -> EventSource {
    let mut line = 0u64;
    let trace: Vec<Access> = events
        .iter()
        .map(|&(insns, fresh)| {
            line += u64::from(fresh);
            Access {
                insns,
                addr: line << 6,
                kind: AccessKind::Load,
            }
        })
        .collect();
    assert!(
        events.first().is_none_or(|e| e.1),
        "a lane opens with a fresh line"
    );
    SharedReplayStream::new(trace.into()).into()
}

/// Run `lanes` on the commodity machine (shared L2, FCFS bus, where the
/// order two misses reach the bus decides who waits) through the
/// engine and the reference; they must agree. Returns the engine's
/// cycles per lane.
fn scripted_run(lanes: &[&[(u32, bool)]]) -> Vec<u64> {
    let cfg = MachineConfig::commodity(lanes.len() as u32, 256 << 10);
    let mk = || -> Vec<EventSource> { lanes.iter().map(|l| scripted(l)).collect() };
    let fast = run_colocated_warm(&cfg, mk(), &[]);
    let slow = run_reference(&cfg, mk(), &[], &NullSink, &mut NullObserver);
    assert_eq!(fast.nfs, slow.nfs, "engines diverged on {lanes:?}");
    fast.nfs.iter().map(|s| s.cycles).collect()
}

/// The run-ahead limit at a tie with the runner-up's key, the running
/// lane's index above the runner-up's: lane 1 runs its first miss and
/// lands exactly on lane 0's next key, so it must yield, and lane 0's
/// miss takes the bus first.
#[test]
fn a_tie_above_the_runner_up_yields_the_turn() {
    // Lane 0's first miss ends at IDLE_MISS; lane 1's waits one beat
    // behind it. Each then runs a hit to the common key `tie`.
    let tie = 1_000 + IDLE_MISS;
    let lane0 = [(1, true), ((tie - IDLE_MISS) as u32, false), (1, true)];
    let lane1 = [
        (1, true),
        ((tie - IDLE_MISS - BUS_BEAT_CYCLES) as u32, false),
        (1, true),
    ];
    let cycles = scripted_run(&[&lane0, &lane1]);
    assert_eq!(
        cycles[0] + BUS_BEAT_CYCLES,
        cycles[1],
        "at the tie lane 0 reaches the bus first and lane 1 waits a beat"
    );
}

/// The run-ahead limit with the running lane's index below the
/// runner-up's: lane 0 runs on from its second miss to a key exactly
/// equal to lane 1's (a tie it wins, so it keeps the turn) or one cycle
/// past it (where it must yield to lane 1).
#[test]
fn a_tie_below_the_runner_up_keeps_the_turn_and_one_past_it_yields() {
    // Lane 0: first miss ends at IDLE_MISS, 10 hit instructions, second
    // miss at `k0` ends at k0 + IDLE_MISS on a bus idle by then. Lane 1:
    // first miss ends a beat later, 1 000 hit instructions to `k1`.
    let k0 = IDLE_MISS + 10;
    let k1 = IDLE_MISS + BUS_BEAT_CYCLES + 1_000;
    for past in [0, 1] {
        let run = k1 + past - (k0 + IDLE_MISS);
        let lane0 = [
            (1, true),
            (10, false),
            (1, true),
            (run as u32, false),
            (1, true),
        ];
        let lane1 = [(1, true), (1_000, false), (1, true)];
        let cycles = scripted_run(&[&lane0, &lane1]);
        // The miss granted second waits for the first one's beat.
        let (first, second) = if past == 0 { (0, 1) } else { (1, 0) };
        assert!(
            cycles[first] < cycles[second],
            "{past} cycle(s) past the tie: lane {first} must take the bus first, cycles {cycles:?}"
        );
    }
}

/// A run-ahead that crosses batch edges: lane 1 parks its second miss
/// beyond the end of lane 0's stream, so lane 0 drains several batches
/// of misses and hit runs in one turn, the clock carried across each
/// edge.
#[test]
fn a_run_ahead_crosses_batch_edges() {
    let lane0: Vec<(u32, bool)> = (0..3 * BATCH + 500)
        .map(|i| (1 + (i % 7) as u32, i == 0 || i % 3 != 1))
        .collect();
    let lane1 = [(1, true), (u32::MAX, false), (1, true)];
    let cycles = scripted_run(&[&lane0, &lane1]);
    assert!(
        cycles[0] < u64::from(u32::MAX),
        "lane 0 ran alone to its end first"
    );
}

/// A lane whose runner-up is `DEAD` — alone in its call, or beside a
/// lane with no events — runs its whole stream in one turn; the limit
/// saturates instead of overflowing.
#[test]
fn a_lane_alone_drains_against_a_dead_runner_up() {
    let lane: Vec<(u32, bool)> = (0..2 * BATCH + 77)
        .map(|i| (1 + (i % 5) as u32, i % 4 != 3))
        .collect();
    let alone = scripted_run(&[&lane]);
    let beside_empty = scripted_run(&[&lane, &[]]);
    assert_eq!(beside_empty, [alone[0], 0]);
    let after_empty = scripted_run(&[&[], &lane]);
    assert_eq!(after_empty, [0, alone[0]]);
}
