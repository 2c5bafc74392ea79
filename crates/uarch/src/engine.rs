//! The multi-stream interleaving engine.
//!
//! Each colocated NF runs on its own core with a private L1; L1 misses go
//! to the shared L2; L2 misses cross the IO bus to DRAM. The engine
//! advances whichever NF has the smallest local clock, so shared-resource
//! interleaving is deterministic and physically plausible. Per-NF IPC is
//! `instructions / final cycle count` — "for a function that always has
//! work to do, IPC is directly correlated with function throughput"
//! (§5.3).
//!
//! # Determinism contract
//!
//! The processing order is defined as the lexicographic order of
//! `(local clock, stream index)` over all pending events — that order,
//! nothing else, is the contract every golden snapshot pins. The
//! event-at-a-time loop that implements it literally lives on as the
//! executable specification in [`crate::reference`]; this module is the
//! production engine, restructured for throughput and differentially
//! tested against the reference (`tests/engine_differential.rs`).
//!
//! # Two-phase hot path
//!
//! The restructuring exploits one architectural fact: **L1s are
//! private**. A stream's L1 hit/miss sequence depends only on its own
//! address sequence, never on co-tenant activity, so L1 work needs no
//! global interleaving at all. Each stream therefore runs in two
//! phases:
//!
//! - **Bulk L1 phase** ([`Lane::refill`]): pull a chunk of events,
//!   decode all addresses in one batched pass (tag OR + prefix-sum of
//!   instruction counts), and probe the private L1 branch-free — the
//!   tag compare is the [`crate::simd`] four-lane scan, the victim pick
//!   a select chain, and the fill an unconditional store (on a hit the
//!   stored tag is unchanged, so "always store" needs no branch). L1
//!   misses are compacted into a dense queue of *L2 events*.
//! - **L2-event scheduler**: only those L2 events re-enter the global
//!   interleaved loop, keyed by `(clock before the missing event,
//!   stream index)` — exactly the key the per-event loop would give
//!   them, with hit timing collapsed into prefix-sum arithmetic. Shared
//!   state (L2 contents, bus arbiter) is touched in the identical
//!   order, so commodity coupling (shared LRU + FCFS queueing) is
//!   reproduced bit-for-bit; the run-ahead and runner-up-caching tricks
//!   from the per-event loop carry over unchanged.
//!
//! Between two L1 misses a stream's clock advances by the pure sum of
//! instruction counts, so nothing observable distinguishes this from
//! processing every event individually — the differential suite and the
//! goldens hold the two engines bit-identical.
//!
//! # Sharding
//!
//! [`run_colocated_ids_sink`] additionally decouples the *tenant id*
//! (cache slice, bus epoch slot, telemetry domain, address-space tag)
//! from the stream's position in the input vector. Under the S-NIC
//! disciplines — per-tenant way slices and epoch-partitioned bus
//! windows — every tenant's outcome is independent of co-tenant
//! activity, so a colocation run may be partitioned into per-core
//! shards, each simulating a contiguous subset of tenants with their
//! *global* ids, and the per-tenant results are bit-identical to the
//! serial run (asserted by `snic-bench`'s shard-determinism suite).
//! `snic-sim` drives the sharding; this module only guarantees that a
//! tenant's simulation depends on nothing but its id and its stream.

use snic_telemetry::{metrics, Histogram, NullSink, TelemetrySink};

use crate::bus::{BusArbiter, BusKind};
use crate::cache::{Cache, CacheConfig, Partition, SetMap, TAG_INVALID};
use crate::config::MachineConfig;
use crate::stream::{Access, AccessKind, EventSource};

/// Events processed per bulk-L1 chunk. 256 events × 16 bytes of raw
/// access plus the decode arrays keep a lane's working set around 9 KiB
/// — large enough that the scheduler's per-chunk bookkeeping vanishes,
/// small enough to stay L1-resident on the host while streaming.
const CHUNK: usize = 256;

/// Per-NF statistics from one run.
#[derive(Debug, Clone, PartialEq)]
pub struct NfRunStats {
    /// Instructions retired.
    pub insns: u64,
    /// Final cycle count (the NF's local clock when its stream ended).
    pub cycles: u64,
    /// L1 hits/misses.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses (DRAM accesses).
    pub l2_misses: u64,
}

impl NfRunStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insns as f64 / self.cycles as f64
        }
    }

    fn zero() -> NfRunStats {
        NfRunStats {
            insns: 0,
            cycles: 0,
            l1_hits: 0,
            l1_misses: 0,
            l2_hits: 0,
            l2_misses: 0,
        }
    }
}

/// Outcome of one colocation run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-NF statistics, indexed like the input stream vector.
    pub nfs: Vec<NfRunStats>,
}

impl RunOutcome {
    /// IPC degradation of NF `i` relative to `baseline` (same index).
    ///
    /// Positive = this run is slower than the baseline.
    pub fn ipc_degradation_vs(&self, baseline: &RunOutcome, i: usize) -> f64 {
        let b = baseline.nfs[i].ipc();
        let s = self.nfs[i].ipc();
        if b == 0.0 {
            0.0
        } else {
            (b - s) / b * 100.0
        }
    }
}

/// Stack-local accumulator for the per-L2-miss bus telemetry. The hot
/// loop batches into this and flushes once after the run, so a live
/// sink's synchronization cost is paid per run, not per DRAM access.
#[derive(Debug, Clone, Default)]
struct BusTelemetry {
    grants: u64,
    delayed: u64,
    wait: Histogram,
    dram: Histogram,
}

/// Width of an NF's private address space: addresses must fit in
/// [`NF_ADDR_BITS`] bits so the tag in the bits above never collides
/// with another NF's range.
pub const NF_ADDR_BITS: u32 = 40;

/// Address-space tag: keep different NFs' lines from aliasing in shared
/// caches. NF private address spaces are < 2^40 bytes; an address at or
/// above that bound would silently alias into a *different* NF's tagged
/// range in the shared L2 — exactly the cross-tenant sharing the tag
/// exists to rule out — so debug builds reject it outright.
pub(crate) fn tagged(nf: usize, addr: u64) -> u64 {
    debug_assert!(
        addr < (1u64 << NF_ADDR_BITS),
        "address {addr:#x} of NF {nf} exceeds the 2^{NF_ADDR_BITS}-byte private \
         address space and would alias another NF's cache lines"
    );
    ((nf as u64) << NF_ADDR_BITS) | (addr & ((1u64 << NF_ADDR_BITS) - 1))
}

/// Reject tenant ids that have no slot in the configured isolation
/// structures — the construction-time form of the checks the cache and
/// bus layers enforce per access.
///
/// Before this existed, `WaySlices` *wrapped* (static) or *clamped*
/// (SecDCP) an out-of-range tenant into another tenant's way slice, and
/// an out-of-range bus domain only faulted at its first DRAM access.
/// Now a mis-numbered tenant cannot even start the run.
pub(crate) fn validate_domains(cfg: &MachineConfig, tenant_ids: &[u32], n_streams: usize) {
    match &cfg.l2_partition {
        Partition::StaticWays { tenants } => {
            assert!(
                *tenants as usize >= n_streams,
                "more streams than cache partitions"
            );
            for &t in tenant_ids {
                assert!(
                    t < *tenants,
                    "tenant {t} out of range for a {tenants}-tenant static way \
                     partition: wrapping would silently share a slice across tenants"
                );
            }
        }
        Partition::SecDcp { allocation } => {
            let dom = allocation.len();
            for &t in tenant_ids {
                assert!(
                    (t as usize) < dom,
                    "tenant {t} out of range for a {dom}-tenant SecDCP allocation: \
                     clamping would silently merge it into the last tenant's slice"
                );
            }
        }
        Partition::Shared => {}
    }
    if let BusKind::Temporal { domains } = cfg.bus {
        for &t in tenant_ids {
            assert!(
                t < domains,
                "tenant {t} out of range for a {domains}-domain temporal schedule: \
                 rejected at engine construction instead of at the first bus grant"
            );
        }
    }
}

/// One 4-way set of the private L1: the tag quad and its LRU stamps
/// packed into a single 64-byte record so a probe touches exactly one
/// host cache line (the split tag/stamp arrays of the general [`Cache`]
/// pay a second line on every miss for the victim scan).
#[repr(align(64))]
#[derive(Debug, Clone, Copy)]
struct L1Set {
    tags: [u64; 4],
    stamps: [u64; 4],
}

/// Line storage of a [`PrivateL1`], specialized by associativity.
#[derive(Debug)]
enum L1Store {
    /// Every shipped L1 is 4-way: one [`L1Set`] record per set.
    W4(Box<[L1Set]>),
    /// Any other associativity — the correctness fallback, laid out
    /// like the general [`Cache`].
    General {
        tags: Box<[u64]>,
        stamps: Box<[u64]>,
        ways: usize,
    },
}

/// A single-tenant private L1: the [`Cache`] model specialized to what
/// an L1 actually needs. No partition table (one tenant), no owner
/// array (every line is the tenant's), no per-tenant counter growth —
/// which makes the update *branch-free*: the hit mask is the
/// [`crate::simd`] lane scan shape, the LRU victim a select chain, and
/// the fill an unconditional store (on a hit the stored tag equals the
/// old tag, so hit and miss share one store path). Behaviour is
/// bit-identical to `Cache::new(l1, Partition::Shared)` driven by a
/// single tenant — the reference engine does exactly that, and the
/// differential suite holds the two equal.
#[derive(Debug)]
struct PrivateL1 {
    store: L1Store,
    set_map: SetMap,
    clock: u64,
}

impl PrivateL1 {
    fn new(cfg: &CacheConfig) -> PrivateL1 {
        assert!(
            cfg.ways <= 64,
            "associativity above 64 is unsupported (the hit scan packs \
             way matches into a u64 bitmask)"
        );
        let sets = cfg.sets() as usize;
        let store = if cfg.ways == 4 {
            L1Store::W4(
                vec![
                    L1Set {
                        tags: [TAG_INVALID; 4],
                        stamps: [0; 4],
                    };
                    sets
                ]
                .into_boxed_slice(),
            )
        } else {
            let n = sets * cfg.ways as usize;
            L1Store::General {
                tags: vec![TAG_INVALID; n].into_boxed_slice(),
                stamps: vec![0; n].into_boxed_slice(),
                ways: cfg.ways as usize,
            }
        };
        PrivateL1 {
            store,
            set_map: SetMap::build(cfg),
            clock: 0,
        }
    }

    /// Probe-and-update one 4-way set record; returns `true` on hit.
    #[inline(always)]
    fn probe_set4(s: &mut L1Set, tag: u64, clock: u64) -> bool {
        let m = u64::from(s.tags[0] == tag)
            | u64::from(s.tags[1] == tag) << 1
            | u64::from(s.tags[2] == tag) << 2
            | u64::from(s.tags[3] == tag) << 3;
        let (s1, s2, s3) = (s.stamps[1], s.stamps[2], s.stamps[3]);
        let mut vw = 0usize;
        let mut best = s.stamps[0];
        if s1 < best {
            vw = 1;
            best = s1;
        }
        if s2 < best {
            vw = 2;
            best = s2;
        }
        if s3 < best {
            vw = 3;
        }
        let hit = m != 0;
        let way = if hit { m.trailing_zeros() as usize } else { vw };
        s.tags[way] = tag;
        s.stamps[way] = clock;
        hit
    }

    /// Probe every address of a chunk, compacting the misses (chunk
    /// position + address) into `miss_pos`/`miss_addr`; returns the miss
    /// count. The layout/geometry dispatch is hoisted out of the loop so
    /// the shipped shape — 4-way, power-of-two geometry — runs a tight
    /// branch-free body with a single bounds check per event.
    fn probe_chunk(&mut self, addrs: &[u64], miss_pos: &mut [u32], miss_addr: &mut [u64]) -> usize {
        let mut m = 0usize;
        let mut clock = self.clock;
        match (&mut self.store, self.set_map) {
            (
                L1Store::W4(sets),
                SetMap::Pow2 {
                    line_shift,
                    set_mask,
                    set_shift,
                },
            ) => {
                for (k, &addr) in addrs.iter().enumerate() {
                    clock += 1;
                    let line_addr = addr >> line_shift;
                    let set = (line_addr & set_mask) as usize;
                    let tag = line_addr >> set_shift;
                    debug_assert!(tag != TAG_INVALID, "address maps to the tag sentinel");
                    let hit = PrivateL1::probe_set4(&mut sets[set], tag, clock);
                    miss_pos[m] = k as u32;
                    miss_addr[m] = addr;
                    m += usize::from(!hit);
                }
            }
            (store, set_map) => {
                for (k, &addr) in addrs.iter().enumerate() {
                    clock += 1;
                    let (set, tag) = set_map.locate(addr);
                    debug_assert!(tag != TAG_INVALID, "address maps to the tag sentinel");
                    let hit = match store {
                        L1Store::W4(sets) => PrivateL1::probe_set4(&mut sets[set], tag, clock),
                        L1Store::General { tags, stamps, ways } => {
                            let lo = set * *ways;
                            let hi = lo + *ways;
                            let mask = crate::simd::match_mask(&tags[lo..hi], tag);
                            let hit = mask != 0;
                            let way = if hit {
                                mask.trailing_zeros() as usize
                            } else {
                                crate::simd::min_stamp_way(&stamps[lo..hi])
                            };
                            tags[lo + way] = tag;
                            stamps[lo + way] = clock;
                            hit
                        }
                    };
                    miss_pos[m] = k as u32;
                    miss_addr[m] = addr;
                    m += usize::from(!hit);
                }
            }
        }
        self.clock = clock;
        m
    }
}

/// One stream's simulation state: its source, private L1, current bulk
/// chunk, and cumulative statistics.
struct Lane {
    src: EventSource,
    l1: PrivateL1,
    /// Raw events of the current chunk.
    raw: Box<[Access]>,
    /// Tagged addresses of the current chunk (decode pass output).
    addrs: Box<[u64]>,
    /// `prefix[k]` = instructions of chunk events `[0, k)`; the clock
    /// distance between any two in-chunk positions is a subtraction.
    prefix: Box<[u64]>,
    /// Chunk positions of the L1 misses, densely packed.
    miss_pos: Box<[u32]>,
    /// Tagged addresses of those misses (decoded once in the bulk pass).
    miss_addr: Box<[u64]>,
    chunk_len: usize,
    nmiss: usize,
    /// Next unconsumed entry of `miss_pos`/`miss_addr`.
    next_miss: usize,
    /// Chunk events already folded into `time`.
    consumed: usize,
    /// Local clock after the last consumed event.
    time: u64,
    /// Events until the warmup snapshot boundary (0 = no warmup or
    /// already snapshotted); refills never cross the boundary, so the
    /// snapshot always lands exactly on a chunk close.
    warm_left: u64,
    /// Global tenant id: way slice, epoch slot, telemetry domain, and
    /// address-space tag.
    tenant: u32,
    st: NfRunStats,
    snapshot: Option<NfRunStats>,
    tel: BusTelemetry,
}

impl Lane {
    fn new(src: EventSource, tenant: u32, warm: u64, l1: &CacheConfig) -> Lane {
        Lane {
            src,
            l1: PrivateL1::new(l1),
            raw: vec![
                Access {
                    insns: 1,
                    addr: 0,
                    kind: AccessKind::Load,
                };
                CHUNK
            ]
            .into_boxed_slice(),
            addrs: vec![0; CHUNK].into_boxed_slice(),
            prefix: vec![0; CHUNK + 1].into_boxed_slice(),
            miss_pos: vec![0; CHUNK].into_boxed_slice(),
            miss_addr: vec![0; CHUNK].into_boxed_slice(),
            chunk_len: 0,
            nmiss: 0,
            next_miss: 0,
            consumed: 0,
            time: 0,
            warm_left: warm,
            tenant,
            st: NfRunStats::zero(),
            snapshot: None,
            tel: BusTelemetry::default(),
        }
    }

    /// Bulk L1 phase: pull the next chunk, batch-decode every address,
    /// prefix-sum the instruction counts, probe the private L1
    /// branch-free, and compact the misses into the L2-event queue.
    fn refill(&mut self) {
        // Never pull past the warmup boundary: the snapshot must be the
        // state after exactly `warm` events, and snapshots are taken at
        // chunk closes.
        let cap = if self.warm_left > 0 && self.warm_left < CHUNK as u64 {
            self.warm_left as usize
        } else {
            CHUNK
        };
        let Lane {
            src,
            raw,
            addrs,
            prefix,
            l1,
            miss_pos,
            miss_addr,
            tenant,
            chunk_len,
            next_miss,
            consumed,
            nmiss,
            ..
        } = self;
        // Pass 1 — decode: prefix-sum the instruction counts and tag
        // every address with the lane's address-space id. Replay-backed
        // sources lend their backing store directly (zero-copy); the
        // rest synthesize into the chunk buffer first. Note a borrowed
        // run may be *short* without meaning end-of-stream (shared
        // recordings stop at each pass boundary) — only an empty chunk
        // terminates the lane.
        let events: &[Access] = match src.next_slice(cap) {
            Some(run) => run,
            None => {
                let n = src.next_batch(&mut raw[..cap]);
                &raw[..n]
            }
        };
        let n = events.len();
        let t = *tenant as usize;
        prefix[0] = 0;
        let mut acc = 0u64;
        for (k, a) in events.iter().enumerate() {
            acc += u64::from(a.insns);
            prefix[k + 1] = acc;
            addrs[k] = tagged(t, a.addr);
        }
        // Start pulling the *next* chunk's trace lines into the host
        // cache now — the probe pass and the L2 events of this chunk
        // give the loads a microsecond of latency to hide under.
        src.prefetch_ahead(CHUNK);
        *chunk_len = n;
        *next_miss = 0;
        *consumed = 0;
        // Pass 2 — probe the private L1 branch-free and compact the
        // misses (unconditional stores + conditional increment).
        *nmiss = l1.probe_chunk(&addrs[..n], &mut miss_pos[..], &mut miss_addr[..]);
    }

    /// Fold the tail of the current chunk (all L1 hits past the last
    /// miss) into the clock and credit the chunk's L1 statistics; take
    /// the warmup snapshot when the boundary lands here.
    fn close_chunk(&mut self) {
        debug_assert_eq!(
            self.next_miss, self.nmiss,
            "chunk closed with misses pending"
        );
        let len = self.chunk_len;
        self.time += self.prefix[len] - self.prefix[self.consumed];
        self.st.insns += self.prefix[len];
        self.st.l1_hits += (len - self.nmiss) as u64;
        self.st.l1_misses += self.nmiss as u64;
        self.consumed = len;
        if self.warm_left > 0 {
            self.warm_left -= len as u64;
            if self.warm_left == 0 {
                // Same accounting as the per-event loop at `ev == warm`:
                // `cycles` is the clock after the warm-th event and the
                // counters are cumulative at that instant.
                self.st.cycles = self.time;
                self.snapshot = Some(self.st.clone());
            }
        }
    }

    /// Ensure an unconsumed L2 event exists, closing and refilling
    /// chunks as needed. Returns `false` when the stream is exhausted
    /// (final `cycles` recorded).
    fn advance(&mut self) -> bool {
        while self.next_miss == self.nmiss {
            self.close_chunk();
            self.refill();
            if self.chunk_len == 0 {
                self.st.cycles = self.time;
                return false;
            }
        }
        true
    }

    /// The scheduler key time of the next L2 event: the lane clock just
    /// *before* the missing event — exactly the `(local clock, index)`
    /// key the per-event loop assigns it.
    #[inline]
    fn next_miss_key_time(&self) -> u64 {
        let k = self.miss_pos[self.next_miss] as usize;
        self.time + (self.prefix[k] - self.prefix[self.consumed])
    }

    /// Process the next L2 event against the shared L2 and bus, folding
    /// the preceding hit run into the clock arithmetically.
    #[inline]
    fn consume_miss(
        &mut self,
        l2: &mut Cache,
        arbiter: &mut BusArbiter,
        cfg: &MachineConfig,
        telemetry_on: bool,
    ) {
        let j = self.next_miss;
        let k = self.miss_pos[j] as usize;
        // Clock after the missing event's instruction charge: every
        // event since the last consumed one was an L1 hit (cost = its
        // insns), so the whole run collapses to a prefix-sum delta.
        let mut now = self.time + (self.prefix[k + 1] - self.prefix[self.consumed]);
        if l2.access(self.tenant, self.miss_addr[j]) {
            self.st.l2_hits += 1;
            now += cfg.l2_hit_cycles;
        } else {
            self.st.l2_misses += 1;
            let ready = now + cfg.l2_hit_cycles;
            let start = arbiter.grant(self.tenant, ready, cfg.bus_beat_cycles);
            if telemetry_on {
                self.tel.grants += 1;
                self.tel.wait.record(start.saturating_sub(ready));
                self.tel.dram.record(cfg.dram_cycles);
                if start > ready {
                    self.tel.delayed += 1;
                }
            }
            now = start + cfg.bus_beat_cycles + cfg.dram_cycles;
        }
        self.time = now;
        self.consumed = k + 1;
        self.next_miss = j + 1;
        // Host-cache hint: the lane's next L2 event is already sitting
        // in the compacted miss queue, so warm its set lines while the
        // scheduler decides whose turn is next.
        if j + 1 < self.nmiss {
            l2.prefetch(self.miss_addr[j + 1]);
        }
    }
}

/// Run `streams` to exhaustion under `cfg`.
///
/// # Panics
///
/// Panics if `streams` is empty, or if a partitioned configuration has
/// fewer tenant slots than streams.
pub fn run_colocated(cfg: &MachineConfig, streams: Vec<EventSource>) -> RunOutcome {
    run_colocated_warm(cfg, streams, &[])
}

/// Like [`run_colocated`], but statistics only cover events after the
/// first `warmup_events` of each stream — mirroring §5.3's methodology
/// ("we ran 1 billion instructions to warm microarchitectural structures
/// like caches and branch predictors. We then collected experimental
/// data..."). Tenant ids are the stream indices `0..n`, telemetry off.
pub fn run_colocated_warm(
    cfg: &MachineConfig,
    streams: Vec<EventSource>,
    warmup_events: &[u64],
) -> RunOutcome {
    let ids: Vec<u32> = (0..streams.len() as u32).collect();
    run_colocated_ids_sink(cfg, streams, warmup_events, &ids, &NullSink)
}

/// Run a colocation (or one shard of one) with explicit global tenant
/// ids and telemetry — the general entry point the other two wrap.
///
/// `tenant_ids[i]` is stream `i`'s identity everywhere an identity
/// matters: its L2 way slice / SecDCP slot, its temporal-bus epoch
/// domain, its address-space tag, and its telemetry domain. A whole
/// colocation passes `0..n`; shard drivers pass the subset of global
/// ids the shard owns, and — because every structure keyed by tenant id
/// behaves identically whether or not *other* tenants are simulated
/// alongside (private way slices, pure-function epoch grants) — each
/// tenant's results are bit-identical to the full serial run.
///
/// The sink is a monomorphized generic: with [`NullSink`] every
/// `if sink.enabled()` guard folds to a constant `false` and the
/// instrumentation vanishes, so statistics are byte-identical with the
/// sink on or off (asserted by this module's tests and by
/// `snic-sim`/`snic-bench` determinism suites). Timestamps reported to
/// the sink are engine cycles; domains are tenant ids.
///
/// # Panics
///
/// Panics if `streams` is empty, if `tenant_ids` and `streams` disagree
/// in length, if the ids are not strictly increasing (the engine's
/// event-order tiebreak is the stream index, which must agree with
/// tenant order for shard merges to be deterministic), or if any id has
/// no slot in the configured partition/bus schedule (see
/// [`Cache::domains`]).
pub fn run_colocated_ids_sink<S: TelemetrySink + ?Sized>(
    cfg: &MachineConfig,
    streams: Vec<EventSource>,
    warmup_events: &[u64],
    tenant_ids: &[u32],
    sink: &S,
) -> RunOutcome {
    assert!(!streams.is_empty(), "need at least one stream");
    assert_eq!(tenant_ids.len(), streams.len(), "one tenant id per stream");
    assert!(
        tenant_ids.windows(2).all(|w| w[0] < w[1]),
        "tenant ids must be strictly increasing"
    );
    validate_domains(cfg, tenant_ids, streams.len());

    let mut l2 = Cache::new(cfg.l2, cfg.l2_partition.clone());
    let mut arbiter = BusArbiter::for_kind(cfg.bus, cfg.epoch_cycles);
    // With NullSink this bool is a monomorphized constant `false`, so
    // every guarded block below folds away.
    let telemetry_on = sink.enabled();

    let mut lanes: Vec<Lane> = streams
        .into_iter()
        .enumerate()
        .map(|(i, src)| {
            Lane::new(
                src,
                tenant_ids[i],
                warmup_events.get(i).copied().unwrap_or(0),
                &cfg.l1,
            )
        })
        .collect();

    // `keys[i]` is lane `i`'s next L2 event key `(clock before the
    // event, i)` — the index makes every key distinct — or `DEAD` once
    // the stream is exhausted. Priming a lane runs its bulk L1 phase up
    // to the first L2 event; miss-free streams complete entirely here.
    const DEAD: (u64, usize) = (u64::MAX, usize::MAX);
    let mut keys: Vec<(u64, usize)> = lanes
        .iter_mut()
        .enumerate()
        .map(|(i, l)| {
            if l.advance() {
                (l.next_miss_key_time(), i)
            } else {
                DEAD
            }
        })
        .collect();

    loop {
        // Pick the lane with the smallest key and cache the runner-up in
        // one pass (keys are distinct, so the second-smallest key IS the
        // minimum over the other lanes): lane counts are core counts, so
        // a linear scan beats heap maintenance per event.
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
        let i = best.1;
        let lane = &mut lanes[i];

        // Run ahead: keep consuming lane `i`'s L2 events while its key
        // stays below the (unchanged) runner-up — a single drain when it
        // is the only live lane.
        loop {
            lane.consume_miss(&mut l2, &mut arbiter, cfg, telemetry_on);
            if !lane.advance() {
                keys[i] = DEAD;
                break;
            }
            let k = (lane.next_miss_key_time(), i);
            if runner_up < k {
                keys[i] = k;
                break;
            }
        }
    }

    // Subtract the warmup portion (streams shorter than the warmup keep
    // their full statistics).
    let nfs: Vec<NfRunStats> = lanes
        .iter()
        .map(|lane| match &lane.snapshot {
            Some(w) => NfRunStats {
                insns: lane.st.insns - w.insns,
                cycles: lane.st.cycles.saturating_sub(w.cycles),
                l1_hits: lane.st.l1_hits - w.l1_hits,
                l1_misses: lane.st.l1_misses - w.l1_misses,
                l2_hits: lane.st.l2_hits - w.l2_hits,
                l2_misses: lane.st.l2_misses - w.l2_misses,
            },
            None => lane.st.clone(),
        })
        .collect();
    if telemetry_on {
        for (lane, s) in lanes.iter().zip(&nfs) {
            let d = u64::from(lane.tenant);
            sink.span_begin(d, "uarch.nf_run", 0);
            sink.span_end(d, "uarch.nf_run", s.cycles);
            sink.counter_add(d, metrics::INSNS, s.insns);
            sink.counter_add(d, metrics::CYCLES, s.cycles);
            sink.counter_add(d, metrics::L1_HITS, s.l1_hits);
            sink.counter_add(d, metrics::L1_MISSES, s.l1_misses);
            sink.counter_add(d, metrics::L2_HITS, s.l2_hits);
            sink.counter_add(d, metrics::L2_MISSES, s.l2_misses);
            // Flush the batched bus telemetry. Guards keep a miss-free
            // run from materializing zero-valued entries, matching the
            // per-sample behaviour this replaces.
            let t = &lane.tel;
            if t.grants > 0 {
                sink.counter_add(d, metrics::BUS_GRANTS, t.grants);
                sink.merge_hist(d, metrics::BUS_WAIT_CYCLES, &t.wait);
                sink.merge_hist(d, metrics::DRAM_CYCLES, &t.dram);
            }
            if t.delayed > 0 {
                sink.counter_add(d, metrics::BUS_DELAYED, t.delayed);
            }
        }
    }
    RunOutcome { nfs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::SyntheticStream;

    fn streams(n: usize, working_set: u64, events: u64) -> Vec<EventSource> {
        (0..n)
            .map(|i| {
                EventSource::from(SyntheticStream::new(
                    working_set,
                    8,
                    4,
                    events,
                    1000 + i as u64,
                ))
            })
            .collect()
    }

    #[test]
    fn tiny_working_set_achieves_high_ipc() {
        // Everything fits in L1: IPC should approach 1.
        let cfg = MachineConfig::commodity(1, 4 << 20);
        let out = run_colocated(&cfg, streams(1, 4 << 10, 50_000));
        assert!(out.nfs[0].ipc() > 0.95, "ipc = {}", out.nfs[0].ipc());
    }

    #[test]
    fn dram_bound_working_set_crushes_ipc() {
        let cfg = MachineConfig::commodity(1, 256 << 10);
        // Working set far beyond L2.
        let out = run_colocated(&cfg, streams(1, 64 << 20, 20_000));
        assert!(out.nfs[0].ipc() < 0.3, "ipc = {}", out.nfs[0].ipc());
        assert!(out.nfs[0].l2_misses > out.nfs[0].l2_hits);
    }

    #[test]
    fn partitioning_degrades_ipc_when_hot_set_marginal() {
        // Hot set ~2 MB: fits a 4 MB shared L2 shared by 2 NFs poorly
        // but fits even worse in a hard 1/2 slice.
        let base = run_colocated(
            &MachineConfig::commodity(2, 4 << 20),
            streams(2, 3 << 20, 60_000),
        );
        let snic = run_colocated(
            &MachineConfig::snic(2, 4 << 20),
            streams(2, 3 << 20, 60_000),
        );
        let deg = snic.ipc_degradation_vs(&base, 0);
        assert!(deg > 0.0, "expected positive degradation, got {deg}");
        assert!(deg < 60.0, "degradation implausibly large: {deg}");
    }

    #[test]
    fn snic_victim_cycles_independent_of_attacker() {
        // Run the victim alone (padded with an idle co-tenant slot) vs
        // with a thrashing attacker, both under the S-NIC discipline.
        let cfg = MachineConfig::snic(2, 1 << 20);
        let victim = || EventSource::from(SyntheticStream::new(2 << 20, 6, 3, 30_000, 7));
        let idle = EventSource::from(SyntheticStream::new(64, 1, 0, 1, 1));
        let attacker = EventSource::from(SyntheticStream::new(32 << 20, 1, 1, 120_000, 9));

        let quiet = run_colocated(&cfg, vec![victim(), idle]);
        let noisy = run_colocated(&cfg, vec![victim(), attacker]);
        assert_eq!(
            quiet.nfs[0].cycles, noisy.nfs[0].cycles,
            "S-NIC victim timing must not depend on co-tenant activity"
        );
        assert_eq!(quiet.nfs[0].l2_misses, noisy.nfs[0].l2_misses);
    }

    #[test]
    fn commodity_victim_cycles_depend_on_attacker() {
        let cfg = MachineConfig::commodity(2, 1 << 20);
        let victim = || EventSource::from(SyntheticStream::new(2 << 20, 6, 3, 30_000, 7));
        let idle = EventSource::from(SyntheticStream::new(64, 1, 0, 1, 1));
        let attacker = EventSource::from(SyntheticStream::new(32 << 20, 1, 1, 120_000, 9));

        let quiet = run_colocated(&cfg, vec![victim(), idle]);
        let noisy = run_colocated(&cfg, vec![victim(), attacker]);
        assert_ne!(
            quiet.nfs[0].cycles, noisy.nfs[0].cycles,
            "commodity victim timing should leak co-tenant activity"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = MachineConfig::snic(4, 4 << 20);
        let a = run_colocated(&cfg, streams(4, 1 << 20, 10_000));
        let b = run_colocated(&cfg, streams(4, 1 << 20, 10_000));
        for i in 0..4 {
            assert_eq!(a.nfs[i], b.nfs[i]);
        }
    }

    #[test]
    fn stats_accounting_consistent() {
        let cfg = MachineConfig::commodity(2, 1 << 20);
        let out = run_colocated(&cfg, streams(2, 8 << 20, 5_000));
        for s in &out.nfs {
            assert_eq!(s.l1_hits + s.l1_misses, 5_000);
            assert_eq!(s.l2_hits + s.l2_misses, s.l1_misses);
            assert_eq!(s.insns, 5_000 * 8);
            assert!(s.cycles >= s.insns);
        }
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn empty_streams_panics() {
        let _ = run_colocated(&MachineConfig::commodity(1, 1 << 20), Vec::new());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "would alias another NF's cache lines")]
    fn out_of_range_address_rejected() {
        use crate::stream::SharedReplayStream;
        let cfg = MachineConfig::commodity(1, 1 << 20);
        let recording = vec![Access {
            insns: 1,
            addr: 1u64 << NF_ADDR_BITS,
            kind: AccessKind::Load,
        }];
        let s = vec![EventSource::from(SharedReplayStream::new(recording.into()))];
        let _ = run_colocated(&cfg, s);
    }

    #[test]
    fn boundary_address_accepted_and_isolated() {
        // The largest legal address still tags into the owner's own
        // range: two NFs touching it must not share a cache line.
        use crate::stream::SharedReplayStream;
        let top = (1u64 << NF_ADDR_BITS) - 64;
        let mk = || {
            (0..2)
                .map(|_| {
                    let recording = vec![
                        Access {
                            insns: 1,
                            addr: top,
                            kind: AccessKind::Load,
                        };
                        2
                    ];
                    EventSource::from(SharedReplayStream::new(recording.into()))
                })
                .collect::<Vec<_>>()
        };
        let out = run_colocated(&MachineConfig::commodity(2, 1 << 20), mk());
        // Proper tagging: both NFs cold-miss the shared L2 on their
        // first touch. Truncation aliasing would let the second NF hit
        // the first NF's line instead.
        for s in &out.nfs {
            assert_eq!(s.l1_misses, 1);
            assert_eq!(s.l1_hits, 1);
            assert_eq!(s.l2_misses, 1, "tagged addresses must not alias across NFs");
            assert_eq!(s.l2_hits, 0);
        }
    }

    #[test]
    fn warmup_excludes_cold_misses() {
        // A stream that fits L1: after warmup the measured window has
        // zero L1 misses, while the unwarmed run reports the cold ones.
        let cfg = MachineConfig::commodity(1, 1 << 20);
        let mk = || {
            vec![EventSource::from(SyntheticStream::new(
                8 << 10,
                8,
                4,
                40_000,
                5,
            ))]
        };
        let cold = run_colocated(&cfg, mk());
        let warm = run_colocated_warm(&cfg, mk(), &[20_000]);
        assert!(cold.nfs[0].l1_misses > 0);
        assert_eq!(
            warm.nfs[0].l1_misses, 0,
            "all cold misses fall in the warmup window"
        );
        assert_eq!(warm.nfs[0].l1_hits + warm.nfs[0].l1_misses, 20_000);
        assert!(warm.nfs[0].ipc() > cold.nfs[0].ipc());
    }

    #[test]
    fn warmup_longer_than_stream_keeps_full_stats() {
        let cfg = MachineConfig::commodity(1, 1 << 20);
        let s = vec![EventSource::from(SyntheticStream::new(
            4 << 10,
            8,
            4,
            1_000,
            5,
        ))];
        let out = run_colocated_warm(&cfg, s, &[50_000]);
        assert_eq!(out.nfs[0].l1_hits + out.nfs[0].l1_misses, 1_000);
    }

    #[test]
    fn sink_on_stats_equal_sink_off() {
        use snic_telemetry::Recorder;
        let cfg = MachineConfig::commodity(2, 1 << 20);
        let off = run_colocated(&cfg, streams(2, 8 << 20, 5_000));
        let recorder = Recorder::new();
        let on = run_colocated_ids_sink(&cfg, streams(2, 8 << 20, 5_000), &[], &[0, 1], &recorder);
        assert_eq!(on.nfs, off.nfs, "telemetry must not perturb the simulation");

        // The recorded aggregates match the returned statistics.
        let summary = recorder.summary();
        for (i, s) in on.nfs.iter().enumerate() {
            let c = |m: &str| summary.counters[&(i as u64, m.to_string())];
            assert_eq!(c(metrics::INSNS), s.insns);
            assert_eq!(c(metrics::CYCLES), s.cycles);
            assert_eq!(c(metrics::L2_MISSES), s.l2_misses);
            assert_eq!(c(metrics::BUS_GRANTS), s.l2_misses);
        }
        let events = recorder.events();
        assert_eq!(events.len(), 2 * on.nfs.len(), "one span per NF");
    }

    #[test]
    fn degradation_grows_with_cotenancy() {
        // Median over the tenants at each cotenancy level; more tenants →
        // thinner slices → more degradation (Figure 5b's trend).
        let ws = 2 << 20;
        let deg_at = |n: usize| {
            let base = run_colocated(
                &MachineConfig::commodity(n as u32, 4 << 20),
                streams(n, ws, 20_000),
            );
            let snic = run_colocated(
                &MachineConfig::snic(n as u32, 4 << 20),
                streams(n, ws, 20_000),
            );
            let mut degs: Vec<f64> = (0..n).map(|i| snic.ipc_degradation_vs(&base, i)).collect();
            degs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            degs[n / 2]
        };
        let d2 = deg_at(2);
        let d8 = deg_at(8);
        assert!(
            d8 > d2,
            "expected monotone degradation: 2NF={d2:.2}% 8NF={d8:.2}%"
        );
    }

    #[test]
    fn matches_reference_engine_on_all_personalities() {
        // Quick in-module guard; the proptest version lives in
        // tests/engine_differential.rs.
        use crate::reference::{run_reference, NullObserver};
        for cfg in [
            MachineConfig::commodity(3, 512 << 10),
            MachineConfig::snic(3, 512 << 10),
            MachineConfig::snic_secdcp(vec![6, 4, 6], 512 << 10),
        ] {
            let warm = [500u64, 0, 1_000];
            let fast = run_colocated_warm(&cfg, streams(3, 1 << 20, 8_000), &warm);
            let slow = run_reference(
                &cfg,
                streams(3, 1 << 20, 8_000),
                &warm,
                &NullSink,
                &mut NullObserver,
            );
            assert_eq!(fast.nfs, slow.nfs, "engines diverged under {cfg:?}");
        }
    }

    #[test]
    fn shard_ids_reproduce_serial_per_tenant_results() {
        // The sharding fidelity claim at engine level: simulating only
        // tenants {2,3} of a 4-tenant S-NIC colocation — with their
        // global ids — must reproduce the full run's stats for those
        // tenants bit-for-bit.
        let cfg = MachineConfig::snic(4, 1 << 20);
        let full = run_colocated_warm(&cfg, streams(4, 1 << 20, 10_000), &[100, 200, 300, 400]);
        let all = streams(4, 1 << 20, 10_000);
        let subset: Vec<EventSource> = all.into_iter().skip(2).collect();
        let shard = run_colocated_ids_sink(&cfg, subset, &[300, 400], &[2, 3], &NullSink);
        assert_eq!(shard.nfs[0], full.nfs[2]);
        assert_eq!(shard.nfs[1], full.nfs[3]);
    }

    #[test]
    #[should_panic(expected = "out of range for a 2-tenant static way partition")]
    fn out_of_range_static_tenant_rejected_at_construction() {
        let cfg = MachineConfig::snic(2, 1 << 20);
        let _ = run_colocated_ids_sink(&cfg, streams(1, 4 << 10, 10), &[], &[5], &NullSink);
    }

    #[test]
    #[should_panic(expected = "out of range for a 2-tenant SecDCP allocation")]
    fn out_of_range_secdcp_tenant_rejected_at_construction() {
        // Regression for the clamp bug: before strict domains, tenant 9
        // would silently run inside tenant 1's slice.
        let mut cfg = MachineConfig::snic_secdcp(vec![8, 8], 1 << 20);
        cfg.bus = BusKind::Temporal { domains: 16 };
        let _ = run_colocated_ids_sink(&cfg, streams(1, 4 << 10, 10), &[], &[9], &NullSink);
    }

    #[test]
    #[should_panic(expected = "out of range for a 4-domain temporal schedule")]
    fn out_of_range_bus_domain_rejected_at_construction() {
        // Previously this only faulted at the tenant's first DRAM
        // access; a DRAM-free stream never tripped it.
        let mut cfg = MachineConfig::commodity(1, 1 << 20);
        cfg.bus = BusKind::Temporal { domains: 4 };
        let _ = run_colocated_ids_sink(&cfg, streams(1, 4 << 10, 10), &[], &[7], &NullSink);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_tenant_ids_rejected() {
        let cfg = MachineConfig::snic(4, 1 << 20);
        let _ = run_colocated_ids_sink(&cfg, streams(2, 4 << 10, 10), &[], &[3, 1], &NullSink);
    }

    #[test]
    #[should_panic(expected = "more streams than cache partitions")]
    fn more_streams_than_partitions_rejected() {
        let cfg = MachineConfig::snic(2, 1 << 20);
        let _ = run_colocated(&cfg, streams(3, 4 << 10, 10));
    }
}
