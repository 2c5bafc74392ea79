//! The per-event reference engine — the executable specification of the
//! interleaving contract.
//!
//! This is the PR 5 hot path, kept verbatim: one global loop that
//! processes *every* event (hits included) in lexicographic
//! `(local clock, stream index)` order through per-stream [`Cursor`]s.
//! The production engine in [`crate::engine`] restructures that loop
//! into a bulk L1 phase plus an L2-event scheduler for throughput; this
//! module is what it must stay bit-identical to. The differential suite
//! (`tests/engine_differential.rs`) replays random machine
//! configurations and stream mixes through both and asserts equality,
//! so any divergence in the fast path fails loudly instead of drifting
//! the goldens.
//!
//! Keep this implementation boring: clarity over speed is the point.

use snic_telemetry::{metrics, Histogram, TelemetrySink};

use crate::bus::BusArbiter;
use crate::cache::{Cache, Partition};
use crate::config::{MachineConfig, BUS_BEAT_CYCLES, DRAM_CYCLES, L2_HIT_CYCLES};
use crate::engine::{tagged, validate_domains, NfRunStats, RunOutcome};
use crate::stream::{Access, AccessKind, EventSource};

/// Most events a [`Cursor`] refill copies out of one run.
const BATCH: usize = 64;

/// A stream plus a refillable look-ahead buffer.
struct Cursor {
    src: EventSource,
    buf: [Access; BATCH],
    len: u32,
    pos: u32,
}

impl Cursor {
    fn new(src: EventSource) -> Cursor {
        let mut c = Cursor {
            src,
            buf: [Access {
                insns: 1,
                addr: 0,
                kind: AccessKind::Load,
            }; BATCH],
            len: 0,
            pos: 0,
        };
        c.refill();
        c
    }

    /// Copy the source's next run into the buffer. Only an empty run
    /// ends a stream, so an empty buffer after a refill means exhausted.
    #[inline]
    fn refill(&mut self) {
        let run = self.src.next_slice(BATCH).unwrap_or_default();
        self.buf[..run.len()].copy_from_slice(run);
        self.len = run.len() as u32;
        self.pos = 0;
    }

    /// Whether another event is buffered (refills happen on `take`, so
    /// this is exact: `false` means the stream is exhausted).
    #[inline]
    fn has_next(&self) -> bool {
        self.pos < self.len
    }

    /// Pop the next buffered event; callers must check [`Cursor::has_next`].
    #[inline]
    fn take(&mut self) -> Access {
        let a = self.buf[self.pos as usize];
        self.pos += 1;
        if self.pos == self.len {
            self.refill();
        }
        a
    }
}

/// Stack-local accumulator for the per-L2-miss bus telemetry, flushed
/// once after the run.
#[derive(Debug, Clone, Default)]
struct BusTelemetry {
    grants: u64,
    delayed: u64,
    wait: Histogram,
    dram: Histogram,
}

/// Observer of the shared-resource events a reference run produces, in
/// interleaved processing order. The leakage/verify cross-checks use
/// this to hand *the very trace that produced a measurement* to the
/// Pass 2 linter; the no-op [`NullObserver`] monomorphizes every hook
/// away, so the unobserved reference path is untouched.
pub trait TraceObserver {
    /// An access reached the shared L2 (i.e. missed the private L1).
    /// `addr` is the tenant-tagged address the L2 saw.
    fn l2_access(&mut self, tenant: u32, addr: u64, hit: bool);
    /// The bus arbiter granted a transfer.
    fn bus_grant(&mut self, domain: u32, ready: u64, duration: u64, granted: u64);
}

/// Observer that records nothing (the default path).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl TraceObserver for NullObserver {
    #[inline]
    fn l2_access(&mut self, _: u32, _: u64, _: bool) {}
    #[inline]
    fn bus_grant(&mut self, _: u32, _: u64, _: u64, _: u64) {}
}

/// One recorded shared-L2 access (see [`RecordedTrace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2AccessRec {
    /// Cache tenant slot.
    pub tenant: u32,
    /// Tenant-tagged address.
    pub addr: u64,
    /// Whether the access hit the L2.
    pub hit: bool,
}

/// One recorded bus grant (see [`RecordedTrace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusGrantRec {
    /// Security domain issuing the request.
    pub domain: u32,
    /// Cycle the request became ready.
    pub ready: u64,
    /// Cycles the transfer occupies the bus.
    pub duration: u64,
    /// Cycle the arbiter started the transfer.
    pub granted: u64,
}

/// Everything the shared structures saw during one reference run, in
/// processing order — the raw material for `snic-verify`'s Pass 2
/// trace lints.
#[derive(Debug, Clone, Default)]
pub struct RecordedTrace {
    /// Shared-L2 accesses.
    pub l2: Vec<L2AccessRec>,
    /// Bus grants.
    pub bus: Vec<BusGrantRec>,
}

impl TraceObserver for RecordedTrace {
    fn l2_access(&mut self, tenant: u32, addr: u64, hit: bool) {
        self.l2.push(L2AccessRec { tenant, addr, hit });
    }
    fn bus_grant(&mut self, domain: u32, ready: u64, duration: u64, granted: u64) {
        self.bus.push(BusGrantRec {
            domain,
            ready,
            duration,
            granted,
        });
    }
}

/// Reference form of [`crate::engine::run_colocated_ids_sink`] over
/// tenant ids `0..n`: the event-at-a-time loop the production engine is
/// differentially tested against, with a [`TraceObserver`] witnessing
/// every shared-L2 access and bus grant in processing order. Pass
/// [`NullSink`](snic_telemetry::NullSink) / [`NullObserver`] for the
/// bare statistics, or a [`RecordedTrace`] to capture what Pass 2 lints;
/// the statistics are bit-identical either way.
pub fn run_reference<S: TelemetrySink + ?Sized, O: TraceObserver>(
    cfg: &MachineConfig,
    streams: Vec<EventSource>,
    warmup_events: &[u64],
    sink: &S,
    observer: &mut O,
) -> RunOutcome {
    assert!(!streams.is_empty(), "need at least one stream");
    let ids: Vec<u32> = (0..streams.len() as u32).collect();
    validate_domains(cfg, &ids, streams.len());
    let n = streams.len();
    let mut l1: Vec<Cache> = (0..n)
        .map(|_| Cache::new(cfg.l1, Partition::Shared))
        .collect();
    let mut l2 = Cache::new(cfg.l2, cfg.l2_partition.clone());
    let mut arbiter = BusArbiter::for_kind(cfg.bus, cfg.epoch_cycles);

    let mut stats: Vec<NfRunStats> = (0..n)
        .map(|_| NfRunStats {
            insns: 0,
            cycles: 0,
            l1_hits: 0,
            l1_misses: 0,
            l2_hits: 0,
            l2_misses: 0,
        })
        .collect();
    // Per-NF event counts and the stats snapshot taken when warmup ends.
    let mut events: Vec<u64> = vec![0; n];
    let mut snapshot: Vec<Option<NfRunStats>> = vec![None; n];
    let telemetry_on = sink.enabled();
    let mut bus_tel: Vec<BusTelemetry> = if telemetry_on {
        vec![BusTelemetry::default(); n]
    } else {
        Vec::new()
    };

    // Batched cursor per NF; `keys[i]` is stream `i`'s next-event key
    // `(local clock, i)` — the index makes every key distinct — or
    // `DEAD` once the stream is exhausted.
    let mut cursors: Vec<Cursor> = streams.into_iter().map(Cursor::new).collect();
    const DEAD: (u64, usize) = (u64::MAX, usize::MAX);
    let mut keys: Vec<(u64, usize)> = cursors
        .iter()
        .enumerate()
        .map(|(i, c)| if c.has_next() { (0, i) } else { DEAD })
        .collect();

    loop {
        // Pick the stream with the smallest key and cache the runner-up
        // in one pass (keys are distinct, so the second-smallest key IS
        // the minimum over the other streams).
        let mut best = DEAD;
        let mut runner_up = DEAD;
        for &k in &keys {
            if k < best {
                runner_up = best;
                best = k;
            } else if k < runner_up {
                runner_up = k;
            }
        }
        if best == DEAD {
            break;
        }
        let (mut t, i) = best;

        let warm = warmup_events.get(i).copied().unwrap_or(0);
        let cur = &mut cursors[i];
        let st = &mut stats[i];
        let l1c = &mut l1[i];
        let mut ev = events[i];

        // Run ahead: keep draining stream `i` while its key stays below
        // the (unchanged) runner-up.
        loop {
            let access = cur.take();
            let mut now = t + u64::from(access.insns);
            st.insns += u64::from(access.insns);

            let a = tagged(i, access.addr);
            if l1c.access(i as u32, a) {
                st.l1_hits += 1;
            } else {
                st.l1_misses += 1;
                let l2_hit = l2.access(i as u32, a);
                observer.l2_access(i as u32, a, l2_hit);
                if l2_hit {
                    st.l2_hits += 1;
                    now += L2_HIT_CYCLES;
                } else {
                    st.l2_misses += 1;
                    let ready = now + L2_HIT_CYCLES;
                    let start = arbiter.grant(i as u32, ready, BUS_BEAT_CYCLES);
                    observer.bus_grant(i as u32, ready, BUS_BEAT_CYCLES, start);
                    if telemetry_on {
                        let t = &mut bus_tel[i];
                        t.grants += 1;
                        t.wait.record(start.saturating_sub(ready));
                        t.dram.record(DRAM_CYCLES);
                        if start > ready {
                            t.delayed += 1;
                        }
                    }
                    now = start + BUS_BEAT_CYCLES + DRAM_CYCLES;
                }
            }

            ev += 1;
            if ev == warm {
                st.cycles = now;
                snapshot[i] = Some(st.clone());
            }
            if !cur.has_next() {
                st.cycles = now;
                keys[i] = DEAD;
                break;
            }
            if runner_up < (now, i) {
                keys[i] = (now, i);
                break;
            }
            t = now;
        }
        events[i] = ev;
    }

    // Subtract the warmup portion (streams shorter than the warmup keep
    // their full statistics).
    let nfs = stats
        .into_iter()
        .zip(snapshot)
        .map(|(total, snap)| match snap {
            Some(w) => NfRunStats {
                insns: total.insns - w.insns,
                cycles: total.cycles.saturating_sub(w.cycles),
                l1_hits: total.l1_hits - w.l1_hits,
                l1_misses: total.l1_misses - w.l1_misses,
                l2_hits: total.l2_hits - w.l2_hits,
                l2_misses: total.l2_misses - w.l2_misses,
            },
            None => total,
        })
        .collect::<Vec<NfRunStats>>();
    if telemetry_on {
        for (i, s) in nfs.iter().enumerate() {
            sink.span_begin(i as u64, "uarch.nf_run", 0);
            sink.span_end(i as u64, "uarch.nf_run", s.cycles);
            sink.counter_add(i as u64, metrics::INSNS, s.insns);
            sink.counter_add(i as u64, metrics::CYCLES, s.cycles);
            sink.counter_add(i as u64, metrics::L1_HITS, s.l1_hits);
            sink.counter_add(i as u64, metrics::L1_MISSES, s.l1_misses);
            sink.counter_add(i as u64, metrics::L2_HITS, s.l2_hits);
            sink.counter_add(i as u64, metrics::L2_MISSES, s.l2_misses);
            let t = &bus_tel[i];
            if t.grants > 0 {
                sink.counter_add(i as u64, metrics::BUS_GRANTS, t.grants);
                sink.merge_hist(i as u64, metrics::BUS_WAIT_CYCLES, &t.wait);
                sink.merge_hist(i as u64, metrics::DRAM_CYCLES, &t.dram);
            }
            if t.delayed > 0 {
                sink.counter_add(i as u64, metrics::BUS_DELAYED, t.delayed);
            }
        }
    }
    RunOutcome { nfs }
}
