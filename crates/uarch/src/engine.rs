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
//! # Front → batch → back
//!
//! The restructuring exploits one architectural fact: **L1s are
//! private**. A stream's L1 hit/miss sequence depends only on its own
//! address sequence, never on co-tenant activity, so L1 work needs no
//! global interleaving at all. Each lane is therefore two parts that
//! exchange batches:
//!
//! - **Front** ([`Front::fill`]): the lane's source, its private L1 and
//!   its warm-up cap. It reads each chunk of events once, straight from
//!   the run its source lends: every event is tagged, probed against the
//!   private L1 branch-free and, on a miss, compacted with its running
//!   instruction count. A set keeps its tags in recency order, so LRU
//!   needs no stamps and a probe is four compares, three selects and one
//!   store ([`PrivateL1`]). A second pass over the misses alone turns
//!   them into L2 events.
//! - **Batch**: up to [`BATCH_CHUNKS`] chunks compacted to their *L2
//!   events* — per L1 miss, the instructions before it, the
//!   instructions through it, and its tagged address — plus the batch's
//!   event, instruction and tail totals. A batch never crosses the
//!   warm-up boundary, so the snapshot lands on a batch close.
//! - **Back** ([`Back`]): the lane's clock, statistics, warm-up snapshot
//!   and bus telemetry, and its L2 way slice, resolved and range-checked
//!   once from its tenant id ([`Cache::slice`]). Only L2 events enter
//!   the global interleaved loop, keyed by `(clock before the missing
//!   event, stream index)` — exactly the key the per-event loop would
//!   give them, with hit timing collapsed into the batch's instruction
//!   sums. Shared state (L2 contents, bus arbiter) is touched in the
//!   identical order, so commodity coupling (shared LRU + FCFS queueing)
//!   is reproduced bit-for-bit. The lane with the smallest key *runs
//!   ahead* while its keys stay below the runner-up's, as in the
//!   per-event loop: the runner-up's `(time, lane)` key folds into one
//!   `u64` limit, and [`Back::run`] is one loop over the batch's L2
//!   events with the clock and L2 counters in locals, written back once
//!   per run. What the back pays per event is then the model's own work:
//!   the slice's tag scan, on a miss the victim scan and the bus grant.
//!
//! Between two L1 misses a stream's clock advances by the pure sum of
//! instruction counts, so nothing observable distinguishes this from
//! processing every event individually — the differential suite and the
//! goldens hold the two engines bit-identical.
//!
//! ## Pass memo
//!
//! The same fact carries across the passes of one recording. A lane that
//! replays a recording more than once (§5.3's warm-up pass, then the
//! measured one) sees the same address sequence in every pass, so **equal
//! L1 state at an equal position in the same recording gives equal L1
//! outcomes for the rest of the pass**. Its front therefore keeps a
//! [`PassMemo`] while it probes pass 1: per L1 miss, its position in its
//! chunk and the chunk's instructions before it (4 bytes), per chunk its
//! instructions and where its misses end, and snapshots of the L1's tags
//! at the checkpoints `CHUNK·2^j`. Chunks of such a lane are cut on the
//! pass's `CHUNK` grid, so every checkpoint is a chunk edge. A later pass
//! probes until a checkpoint finds the live L1 equal to pass 1's
//! snapshot; from there each chunk's `miss_cum`/`miss_key` come from the
//! memo, reading only the missing events, and the compaction loop and
//! [`Batch`] are those of a probed chunk. Where the memo ends the L1 is
//! set to pass 1's state there and probing resumes. The memo holds at most
//! [`MEMO_BYTES`] per lane, enough for the whole quick-scale DPI
//! recording; a pass with more misses (paper-scale DPI misses on 55 % of
//! its events) keeps a prefix and ends the memo on a chunk edge with a
//! snapshot of the L1 there. A chunk with 2^24 instructions or more drops
//! the memo. It lives in the front, so it moves to a helper thread with
//! it, and is freed when the call returns: it is one call's record of
//! one lane's own pass, not an outcome kept across calls, so no result
//! can depend on which calls ran before. Generators and single-pass
//! recordings never keep one.
//!
//! Because a front touches nothing shared, it can run on another
//! hardware thread. A call starts with every back pulling from its own
//! front inline; once it has consumed [`HELPER_START`] events that way
//! and can take a spare thread from the process-wide
//! [`crate::budget`] without waiting, one scoped helper thread takes
//! over every lane's front, filling bounded per-lane queues of
//! [`QUEUE_DEPTH`] batches round-robin while the scheduler drains
//! them. Either side that finds nothing to do spins briefly, yields,
//! then parks until the other wakes it; a panic on the helper is
//! re-raised on the caller, and a panic on the caller stops the helper.
//! Which thread ran a front changes nothing a batch contains.
//!
//! # Sharding
//!
//! [`run_colocated_ids_sink`] additionally decouples the *tenant id*
//! (cache slice, bus epoch slot, telemetry domain, address-space tag)
//! from the stream's position in the input vector. Under the S-NIC
//! disciplines — per-tenant way slices and epoch-partitioned bus
//! windows — every tenant's outcome is independent of co-tenant
//! activity, so a colocation run may be split into one one-lane call per
//! tenant with its *global* id, and the per-tenant results are
//! bit-identical to the interleaved run (asserted by `snic-bench`'s
//! shard-determinism suite). `snic-sim` drives the split; this module
//! only guarantees that a tenant's simulation depends on nothing but its
//! id and its stream.

use std::cell::Cell;
use std::sync::mpsc::{self, Receiver, RecvError, Sender, SyncSender, TryRecvError};
use std::thread::{Scope, ScopedJoinHandle};

use snic_telemetry::{metrics, Histogram, NullSink, TelemetrySink};

use crate::budget::Threads;
use crate::bus::{BusArbiter, BusKind};
use crate::cache::{Cache, CacheConfig, Partition, WaySlice, TAG_INVALID};
use crate::config::{MachineConfig, BUS_BEAT_CYCLES, DRAM_CYCLES, L2_HIT_CYCLES};
use crate::stream::{Access, EventSource};

/// Events processed per bulk-L1 chunk. A 256-event run of 13-byte
/// accesses plus the two miss buffers keep a front's working set around
/// 7 KiB — small enough to stay L1-resident on the host while
/// streaming.
const CHUNK: usize = 256;

/// Chunks a front compacts into one batch: 4 096 events, so a hand-off
/// between front and back (a slot swap and two atomics when pipelined)
/// is paid per ~4 k events, and only L2 events cross it. Handing the
/// scheduler one chunk at a time, with a per-event prefix array,
/// gained nothing over running the front inline.
const BATCH_CHUNKS: usize = 16;

/// Batches a lane's queue holds ahead of its back when a helper runs
/// the fronts. Queue memory is at most (`QUEUE_DEPTH` + 1) batches per
/// lane, each at most `BATCH_CHUNKS × CHUNK` 24-byte L2 events: 864 KiB
/// per lane for a stream that misses on every event, ~16 % of that at
/// the fig5 traces' L1 miss rate.
const QUEUE_DEPTH: usize = 8;

/// Events a call consumes inline before it may start a helper thread.
/// A scoped spawn and join measured ≈ 20 µs on the 2-thread reference
/// host, where 2^18 events take ≈ 1.6 ms inline: a call that gets this
/// far has paid ≈ 80× the spawn before it asks, and the short calls —
/// every leakage-battery bit slot (≤ 16 k events), the engine's unit
/// tests (≤ 160 k) — never spawn at all.
const HELPER_START: u64 = 1 << 18;

/// Bytes one lane's [`PassMemo`] may hold: 4 per L1 miss, 8 per chunk
/// and one L1 tag array per snapshot. Sized so that pass 1 of the
/// quick-scale DPI recording fits whole (800 300 misses over 5 030 319
/// events, ≈ 3.3 MiB); a longer or missier pass keeps a prefix.
const MEMO_BYTES: usize = 4 << 20;

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

/// The address bits below the tag.
const NF_ADDR_MASK: u64 = (1 << NF_ADDR_BITS) - 1;

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
    ((nf as u64) << NF_ADDR_BITS) | (addr & NF_ADDR_MASK)
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

/// One 4-way set of the private L1: its tags in recency order, most
/// recent first, in one 32-byte record so a probe touches exactly one
/// host cache line.
#[repr(align(32))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct L1Set {
    tags: [u64; 4],
}

/// A single-tenant private L1: the [`Cache`] model specialized to what
/// an L1 actually needs. No partition table (one tenant), no owner
/// array (every line is the tenant's), no per-tenant counter growth,
/// and — since nothing outside the lane sees which way a line sits in —
/// no LRU stamps: every 4-way set keeps its tags in recency order, so a
/// hit moves its tag to the front, a miss shifts every tag back one way
/// and drops the last (the least recently used line, or an invalid way
/// while the set is still filling), and the update is *branch-free*.
/// Its hit/miss sequence is identical to
/// `Cache::new(l1, Partition::Shared)` driven by a single tenant — the
/// reference engine does exactly that, and the differential suite holds
/// the two equal.
#[derive(Debug)]
struct PrivateL1 {
    sets: Box<[L1Set]>,
    line_shift: u32,
    set_mask: u64,
    set_shift: u32,
}

impl PrivateL1 {
    /// # Panics
    ///
    /// Unless the geometry is the one every machine has: 4-way, with a
    /// power-of-two line size and set count.
    fn new(cfg: &CacheConfig) -> PrivateL1 {
        let sets = cfg.sets();
        assert!(
            cfg.ways == 4 && cfg.line.is_power_of_two() && sets.is_power_of_two(),
            "private L1 must be 4-way with power-of-two lines and sets, got {cfg:?}"
        );
        PrivateL1 {
            sets: vec![
                L1Set {
                    tags: [TAG_INVALID; 4]
                };
                sets as usize
            ]
            .into_boxed_slice(),
            line_shift: cfg.line.trailing_zeros(),
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
        }
    }

    /// Probe-and-update one 4-way set record; returns `true` on hit.
    /// Way `k` keeps its tag if the hit lies before it and takes way
    /// `k - 1`'s otherwise (on a miss every way shifts), and the probed
    /// tag lands in front — three selects and one 32-byte store.
    #[inline(always)]
    fn probe_set4(s: &mut L1Set, tag: u64) -> bool {
        let [t0, t1, t2, t3] = s.tags;
        let h0 = t0 == tag;
        let h1 = h0 | (t1 == tag);
        let h2 = h1 | (t2 == tag);
        s.tags = [
            tag,
            if h0 { t1 } else { t0 },
            if h1 { t2 } else { t1 },
            if h2 { t3 } else { t2 },
        ];
        h2 | (t3 == tag)
    }

    /// Tag and probe one chunk of the lane's events in a single pass,
    /// compacting the misses: `miss_cum[m]` takes the chunk's
    /// instructions before the miss, `miss_key[m]` its chunk position
    /// above [`NF_ADDR_BITS`] and its address below. Every event stores
    /// to both and only a miss advances `m`, so the body is branch-free.
    /// Returns the miss count and the chunk's instructions.
    fn probe_chunk(
        &mut self,
        events: &[Access],
        tenant: usize,
        miss_cum: &mut [u64],
        miss_key: &mut [u64],
    ) -> (usize, u64) {
        let (line_shift, set_mask, set_shift) = (self.line_shift, self.set_mask, self.set_shift);
        let mut m = 0usize;
        let mut cum = 0u64;
        for (k, a) in events.iter().enumerate() {
            let addr = tagged(tenant, a.addr);
            let line_addr = addr >> line_shift;
            let set = (line_addr & set_mask) as usize;
            let tag = line_addr >> set_shift;
            debug_assert!(tag != TAG_INVALID, "address maps to the tag sentinel");
            let hit = PrivateL1::probe_set4(&mut self.sets[set], tag);
            miss_cum[m] = cum;
            miss_key[m] = ((k as u64) << NF_ADDR_BITS) | (addr & NF_ADDR_MASK);
            m += usize::from(!hit);
            cum += u64::from(a.insns);
        }
        (m, cum)
    }
}

/// What a [`PassMemo`] does with the current pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemoPhase {
    /// Pass 1, up to the memo's end: probe and write the memo.
    Recording,
    /// Probe; in a later pass, watch the checkpoints for pass 1's L1.
    Probing,
    /// The live L1 is pass 1's at this position: read the memo, up to
    /// its end.
    Replaying,
}

/// One chunk of pass 1 as the memo holds it: the chunk at positions
/// `[CHUNK·c, CHUNK·(c + 1))` of the pass, whatever runs it was probed in.
#[derive(Debug, Clone, Copy)]
struct MemoChunk {
    /// Index in `PassMemo::misses` one past the chunk's last miss.
    end: u32,
    /// The chunk's instructions.
    insns: u32,
}

/// Pass 1 of a recording that a lane replays more than once, kept so a
/// later pass need not probe its L1 where it repeats pass 1 (module docs,
/// "Pass memo"). Chunks are cut on the pass's `CHUNK` grid, so every
/// checkpoint and the memo's end fall on a chunk edge.
#[derive(Debug)]
struct PassMemo {
    /// Events per pass.
    len: usize,
    /// Position in the current pass.
    pos: usize,
    phase: MemoPhase,
    /// Per L1 miss of pass 1, in order: its position in its chunk in the
    /// low 8 bits, the chunk's instructions before it above them.
    misses: Vec<u32>,
    /// Per chunk of pass 1 below `end`.
    chunks: Vec<MemoChunk>,
    /// Pass 1's L1 at position `CHUNK << j`, for `j` = 0, 1, ...
    checkpoints: Vec<Box<[L1Set]>>,
    /// Where the memo stops: the pass length, or the chunk edge where
    /// [`MEMO_BYTES`] ran out. `usize::MAX` while recording.
    end: usize,
    /// Pass 1's L1 at `end`, which a replay leaves behind it.
    end_l1: Box<[L1Set]>,
    /// Events served from the memo instead of the L1.
    replayed: u64,
}

impl PassMemo {
    /// A memo for passes of `len` events, its buffers reserved at the
    /// most they may hold so they never grow by copying.
    fn new(len: usize) -> PassMemo {
        PassMemo {
            len,
            pos: 0,
            phase: MemoPhase::Recording,
            misses: Vec::with_capacity(len.min(MEMO_BYTES / 4)),
            chunks: Vec::with_capacity(len.div_ceil(CHUNK).min(MEMO_BYTES / 8)),
            checkpoints: Vec::new(),
            end: usize::MAX,
            end_l1: Box::new([]),
            replayed: 0,
        }
    }

    /// The most events the next chunk may take: up to the next grid edge.
    fn cut(&self) -> usize {
        CHUNK - self.pos % CHUNK
    }

    /// Stop recording at the current position, keeping the L1 there.
    fn close(&mut self, l1: &PrivateL1) {
        self.end = self.pos;
        self.end_l1 = l1.sets.clone();
        self.phase = MemoPhase::Probing;
    }

    /// Serve one chunk, the run `events` at the current position: probe
    /// the L1 (recording the result in pass 1) or read the memo, filling
    /// `miss_cum`/`miss_key` exactly as [`PrivateL1::probe_chunk`] does.
    fn chunk(
        &mut self,
        l1: &mut PrivateL1,
        events: &[Access],
        tenant: usize,
        miss_cum: &mut [u64],
        miss_key: &mut [u64],
    ) -> (usize, u64) {
        let (pos, n) = (self.pos, events.len());
        let at = pos % CHUNK;
        let l1_bytes = std::mem::size_of_val(&*l1.sets);
        let bytes =
            4 * self.misses.len() + 8 * self.chunks.len() + l1_bytes * self.checkpoints.len();
        // Checkpoints sit at `CHUNK << j`.
        let checkpoint = (pos >= CHUNK && pos.is_power_of_two())
            .then(|| (pos / CHUNK).trailing_zeros() as usize);
        match self.phase {
            MemoPhase::Recording if at == 0 => {
                // Room for this edge's snapshot, a whole chunk of misses,
                // its record and the closing snapshot, or the memo ends
                // here.
                let due = checkpoint == Some(self.checkpoints.len());
                if bytes + usize::from(due) * l1_bytes + 4 * CHUNK + 8 + l1_bytes > MEMO_BYTES {
                    self.close(l1);
                } else {
                    if due {
                        self.checkpoints.push(l1.sets.clone());
                    }
                    self.chunks.push(MemoChunk {
                        end: self.misses.len() as u32,
                        insns: 0,
                    });
                }
            }
            MemoPhase::Probing
                if pos < self.end
                    && checkpoint.is_some_and(|j| self.checkpoints.get(j) == Some(&l1.sets)) =>
            {
                self.phase = MemoPhase::Replaying;
            }
            _ => {}
        }
        let out = match self.phase {
            MemoPhase::Replaying => {
                self.replayed += n as u64;
                self.replay(events, miss_cum, miss_key)
            }
            MemoPhase::Probing => l1.probe_chunk(events, tenant, miss_cum, miss_key),
            MemoPhase::Recording => {
                let (nmiss, total) = l1.probe_chunk(events, tenant, miss_cum, miss_key);
                let rec = self
                    .chunks
                    .last_mut()
                    .expect("a recorded chunk opens at its edge");
                let base = u64::from(rec.insns);
                if base + total >= 1 << 24 {
                    // More instructions in one chunk than the encoding
                    // carries: no pass will read this memo.
                    self.drop_all();
                } else {
                    self.misses
                        .extend(miss_cum[..nmiss].iter().zip(&miss_key[..nmiss]).map(
                            |(&cum, &key)| {
                                (((base + cum) as u32) << 8)
                                    | (at as u32 + (key >> NF_ADDR_BITS) as u32)
                            },
                        ));
                    rec.end = self.misses.len() as u32;
                    rec.insns = (base + total) as u32;
                }
                (nmiss, total)
            }
        };
        self.pos += n;
        if self.phase == MemoPhase::Replaying && self.pos == self.end {
            l1.sets.copy_from_slice(&self.end_l1);
            self.phase = MemoPhase::Probing;
        }
        if self.pos == self.len {
            if self.phase == MemoPhase::Recording {
                self.close(l1);
            }
            self.pos = 0;
        }
        out
    }

    /// End the memo at position 0 and free what it holds.
    fn drop_all(&mut self) {
        *self = PassMemo {
            len: self.len,
            pos: self.pos,
            phase: MemoPhase::Probing,
            end: 0,
            ..PassMemo::new(0)
        };
    }

    /// Read the chunk `events` at the current position from the memo.
    /// A whole chunk reads only its misses' events; a part of one (a
    /// warm-up boundary cut it) walks its events for their instructions.
    fn replay(
        &self,
        events: &[Access],
        miss_cum: &mut [u64],
        miss_key: &mut [u64],
    ) -> (usize, u64) {
        let c = self.pos / CHUNK;
        let at = self.pos % CHUNK;
        let lo = c.checked_sub(1).map_or(0, |p| self.chunks[p].end as usize);
        let rec = self.chunks[c];
        let misses = &self.misses[lo..rec.end as usize];
        let key = |k: usize| ((k as u64) << NF_ADDR_BITS) | (events[k].addr & NF_ADDR_MASK);
        if at == 0 && (events.len() == CHUNK || self.pos + events.len() == self.len) {
            for (m, &e) in misses.iter().enumerate() {
                miss_cum[m] = u64::from(e >> 8);
                miss_key[m] = key((e & 0xff) as usize);
            }
            return (misses.len(), u64::from(rec.insns));
        }
        let mut at_miss = misses
            .iter()
            .map(|&e| (e & 0xff) as usize)
            .filter(|&p| p >= at);
        let mut next = at_miss.next();
        let (mut m, mut cum) = (0, 0);
        for (k, a) in events.iter().enumerate() {
            if next == Some(at + k) {
                miss_cum[m] = cum;
                miss_key[m] = key(k);
                m += 1;
                next = at_miss.next();
            }
            cum += u64::from(a.insns);
        }
        (m, cum)
    }
}

/// One L1 miss as a back consumes it.
#[derive(Debug, Clone, Copy)]
struct L2Event {
    /// Instructions of the L1 hits between the previous L2 event (or
    /// the batch start) and this miss: the key time is the lane clock
    /// plus this.
    before: u64,
    /// `before` plus the missing event's own instructions: the clock at
    /// which the miss reaches the L2.
    through: u64,
    /// Tagged address of the miss.
    addr: u64,
}

/// A run of one lane's events compacted to its L2 events — what a front
/// hands its back.
#[derive(Debug, Default)]
struct Batch {
    /// The L1 misses, in stream order.
    misses: Vec<L2Event>,
    /// Events the batch covers, hits included; 0 = the stream ended.
    events: u64,
    /// Instructions the batch covers.
    insns: u64,
    /// Instructions after the last miss.
    tail: u64,
    /// Whether the warm-up window closes exactly at the batch's end.
    warm_end: bool,
}

/// A lane's private half: its source, private L1, miss buffers and
/// warm-up cap. It touches nothing shared, so it may run on any thread.
struct Front {
    src: EventSource,
    l1: PrivateL1,
    /// Per L1 miss of the current chunk, densely packed: the chunk's
    /// instructions before it.
    miss_cum: Box<[u64]>,
    /// Per L1 miss: its chunk position above [`NF_ADDR_BITS`], its
    /// address below.
    miss_key: Box<[u64]>,
    /// Address-space tag (the lane's tenant id).
    tenant: u32,
    /// Events until the warm-up boundary (0 = no warm-up or already
    /// crossed); a batch never pulls past it.
    warm_left: u64,
    /// Pass 1 of a recording replayed more than once; `None` for any
    /// other source.
    memo: Option<PassMemo>,
    /// Set by the fill that found the stream exhausted.
    done: bool,
}

impl Front {
    fn new(src: EventSource, tenant: u32, warm: u64, l1: &CacheConfig) -> Front {
        Front {
            memo: src.repeats().map(PassMemo::new),
            src,
            l1: PrivateL1::new(l1),
            miss_cum: vec![0; CHUNK].into_boxed_slice(),
            miss_key: vec![0; CHUNK].into_boxed_slice(),
            tenant,
            warm_left: warm,
            done: false,
        }
    }

    /// Events this front served from its pass memo.
    fn replayed(&self) -> u64 {
        self.memo.as_ref().map_or(0, |m| m.replayed)
    }

    /// Refill `out` with the lane's next batch: up to [`BATCH_CHUNKS`]
    /// chunks, each probed against the private L1 and compacted to its
    /// L2 events, stopping early at the warm-up boundary or the end of
    /// the stream. An empty batch means the stream has ended.
    fn fill(&mut self, out: &mut Batch) {
        out.misses.clear();
        out.events = 0;
        out.insns = 0;
        out.warm_end = false;
        // Instructions since the last miss, carried across chunks.
        let mut pending = 0u64;
        for _ in 0..BATCH_CHUNKS {
            let cap = match self.warm_left {
                0 => CHUNK,
                w => w.min(CHUNK as u64) as usize,
            };
            let cap = self.memo.as_ref().map_or(cap, |m| cap.min(m.cut()));
            let Front {
                src,
                l1,
                miss_cum,
                miss_key,
                tenant,
                memo,
                ..
            } = self;
            // The run the source lends: a recording's backing store or a
            // generator's chunk buffer. A run may be *short* without
            // meaning end-of-stream — only an empty one ends the lane.
            let events = src.next_slice(cap).unwrap_or_default();
            let n = events.len();
            if n == 0 {
                break;
            }
            // One pass over the run: tag, probe the private L1, compact
            // the misses — or read them from the pass memo.
            let tenant = *tenant as usize;
            let (nmiss, total) = match memo {
                Some(m) => m.chunk(l1, events, tenant, miss_cum, miss_key),
                None => l1.probe_chunk(events, tenant, miss_cum, miss_key),
            };
            // One L2 event per miss, its hit run folded into instruction
            // counts. `last` is the chunk's instructions through the
            // previous miss.
            let hi = (tenant as u64) << NF_ADDR_BITS;
            let mut last = 0;
            for (&cum, &key) in miss_cum[..nmiss].iter().zip(&miss_key[..nmiss]) {
                let through = cum + u64::from(events[(key >> NF_ADDR_BITS) as usize].insns);
                out.misses.push(L2Event {
                    before: pending + (cum - last),
                    through: pending + (through - last),
                    addr: hi | (key & NF_ADDR_MASK),
                });
                pending = 0;
                last = through;
            }
            pending += total - last;
            out.events += n as u64;
            out.insns += total;
            if self.warm_left > 0 {
                self.warm_left -= n as u64;
                if self.warm_left == 0 {
                    out.warm_end = true;
                    break;
                }
            }
        }
        out.tail = pending;
        self.done = out.events == 0;
    }
}

/// A lane's scheduled half: its clock, statistics, warm-up snapshot and
/// bus telemetry, its L2 way slice, and the batch it is consuming.
struct Back {
    batch: Batch,
    /// Next unconsumed entry of `batch.misses`.
    next: usize,
    /// Local clock after the last consumed event.
    time: u64,
    /// Global tenant id: way slice, epoch slot, telemetry domain.
    tenant: u32,
    /// The tenant's L2 way slice, resolved (and range-checked) once.
    slice: WaySlice,
    st: NfRunStats,
    snapshot: Option<NfRunStats>,
    tel: BusTelemetry,
}

impl Back {
    fn new(tenant: u32, l2: &Cache) -> Back {
        Back {
            batch: Batch::default(),
            next: 0,
            time: 0,
            tenant,
            slice: l2.slice(tenant),
            st: NfRunStats::zero(),
            snapshot: None,
            tel: BusTelemetry::default(),
        }
    }

    /// Fold the consumed batch's tail (all L1 hits past its last miss)
    /// into the clock and credit its L1 statistics; take the warm-up
    /// snapshot when the boundary lands here.
    fn close_batch(&mut self) {
        let b = &self.batch;
        debug_assert_eq!(
            self.next,
            b.misses.len(),
            "batch closed with misses pending"
        );
        let misses = b.misses.len() as u64;
        self.time += b.tail;
        self.st.insns += b.insns;
        self.st.l1_hits += b.events - misses;
        self.st.l1_misses += misses;
        if b.warm_end {
            // Same accounting as the per-event loop at `ev == warm`:
            // `cycles` is the clock after the warm-th event and the
            // counters are cumulative at that instant.
            self.st.cycles = self.time;
            self.snapshot = Some(self.st.clone());
        }
    }

    /// Ensure an unconsumed L2 event exists, closing and pulling batches
    /// as needed. Returns `false` when the stream is exhausted (final
    /// `cycles` recorded).
    fn advance(&mut self, lane: usize, feed: &mut Feed<'_, '_>) -> bool {
        while self.next == self.batch.misses.len() {
            self.close_batch();
            feed.pull(lane, &mut self.batch);
            self.next = 0;
            if self.batch.events == 0 {
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
        self.time + self.batch.misses[self.next].before
    }

    /// Run ahead through the batch: consume its L2 events against the
    /// shared L2 and bus, folding each preceding hit run into the clock
    /// arithmetically, while their key time stays below `limit`. The
    /// first one is consumed unconditionally — the caller has given
    /// this lane the turn — and the run stops at the batch's end at the
    /// latest. The clock and the L2 counters live in locals for the
    /// whole run and are written back once.
    #[inline]
    fn run(&mut self, limit: u64, l2: &mut Cache, arbiter: &mut BusArbiter, telemetry_on: bool) {
        let events = &self.batch.misses;
        let (slice, tenant) = (self.slice, self.tenant);
        let first = self.next;
        let mut k = first;
        let mut time = self.time;
        let mut hits = 0u64;
        loop {
            let e = events[k];
            // Clock after the missing event's instruction charge.
            let now = time + e.through;
            time = if l2.access_slice(slice, e.addr) {
                hits += 1;
                now + L2_HIT_CYCLES
            } else {
                let ready = now + L2_HIT_CYCLES;
                let start = arbiter.grant(tenant, ready, BUS_BEAT_CYCLES);
                if telemetry_on {
                    self.tel.grants += 1;
                    self.tel.wait.record(start.saturating_sub(ready));
                    self.tel.dram.record(DRAM_CYCLES);
                    if start > ready {
                        self.tel.delayed += 1;
                    }
                }
                start + BUS_BEAT_CYCLES + DRAM_CYCLES
            };
            k += 1;
            match events.get(k) {
                Some(n) if time + n.before < limit => {}
                _ => break,
            }
        }
        let consumed = (k - first) as u64;
        self.time = time;
        self.next = k;
        self.st.l2_hits += hits;
        self.st.l2_misses += consumed - hits;
    }
}

thread_local! {
    /// Test override of the helper policy for calls made on this
    /// thread: `Some(true)` starts it at the first batch outside the
    /// budget, `Some(false)` never starts it.
    static FORCE_HELPER: Cell<Option<bool>> = const { Cell::new(None) };
    /// Helpers started by calls made on this thread.
    static HELPERS_STARTED: Cell<u64> = const { Cell::new(0) };
    /// Events served from a pass memo by calls made on this thread.
    static MEMO_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Run `f` with the helper thread forced on (from the first batch,
/// regardless of the budget) or off for every engine call `f` makes on
/// this thread. A test hook: production calls decide by the budget and
/// [`HELPER_START`] alone, and outcomes do not depend on either.
#[doc(hidden)]
pub fn with_helper<R>(on: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<bool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE_HELPER.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCE_HELPER.with(|c| c.replace(Some(on))));
    f()
}

/// Helper threads started by engine calls made on this thread so far —
/// a test hook.
#[doc(hidden)]
pub fn helpers_started() -> u64 {
    HELPERS_STARTED.with(Cell::get)
}

/// Events that engine calls made on this thread so far served from a
/// pass memo instead of probing the L1 — a test hook.
#[doc(hidden)]
pub fn memo_events() -> u64 {
    MEMO_EVENTS.with(Cell::get)
}

/// `try_recv` rounds a waiting side spins before it blocks in `recv`
/// (which yields, then parks): a hand-off wait is usually shorter than a
/// park and the wake-up that ends it, and the side that would pay for
/// the wake-up is the busy one.
const SPINS: u32 = 1 << 10;

/// `rx.recv()`, spinning on `try_recv` first.
fn recv_spinning<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    for _ in 0..SPINS {
        match rx.try_recv() {
            Ok(v) => return Ok(v),
            Err(TryRecvError::Empty) => std::hint::spin_loop(),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
        }
    }
    rx.recv()
}

/// The helper's loop: fill every live lane's queue round-robin with
/// batches the scheduler has handed back, until every front has
/// published its end. Each lane owns [`QUEUE_DEPTH`] batches here plus
/// the one its back holds, so a send never blocks and the helper waits
/// only when no lane has a batch to fill. A scheduler that is gone
/// (unwinding) disconnects both channels, which ends the loop. Returns
/// the events the fronts served from their pass memos.
fn run_fronts(
    mut fronts: Vec<Front>,
    filled: Vec<SyncSender<Batch>>,
    spent: Receiver<(usize, Batch)>,
) -> u64 {
    let mut free: Vec<Vec<Batch>> = fronts
        .iter()
        .map(|_| (0..QUEUE_DEPTH).map(|_| Batch::default()).collect())
        .collect();
    let mut live = fronts.iter().filter(|f| !f.done).count();
    while live > 0 {
        let mut any = false;
        for ((front, tx), free) in fronts.iter_mut().zip(&filled).zip(&mut free) {
            if front.done {
                continue;
            }
            let Some(mut batch) = free.pop() else {
                continue;
            };
            front.fill(&mut batch);
            live -= usize::from(front.done);
            if tx.send(batch).is_err() {
                return 0;
            }
            any = true;
        }
        let mut back = if any {
            spent.try_recv().ok()
        } else {
            match recv_spinning(&spent) {
                Ok(b) => Some(b),
                Err(RecvError) => return 0,
            }
        };
        while let Some((lane, batch)) = back {
            free[lane].push(batch);
            back = spent.try_recv().ok();
        }
    }
    fronts.iter().map(Front::replayed).sum()
}

/// The scheduler's end of a running helper.
struct Pipe<'scope> {
    /// Lane `i`'s filled batches, in stream order.
    filled: Vec<Receiver<Batch>>,
    /// Consumed batches, back to the helper to refill.
    spent: Sender<(usize, Batch)>,
    helper: ScopedJoinHandle<'scope, u64>,
}

/// Where the backs' batches come from: each lane's front, called inline
/// on the scheduler's thread, until the call may start a helper — then
/// the helper's queues.
struct Feed<'scope, 'env> {
    /// The fronts while they run inline; empty once the helper owns them.
    fronts: Vec<Front>,
    /// Events consumed inline so far.
    inline_events: u64,
    /// `inline_events` at which to try starting the helper (`u64::MAX`:
    /// never).
    start_at: u64,
    /// Whether starting takes a thread from the budget.
    budgeted: bool,
    scope: &'scope Scope<'scope, 'env>,
    pipe: Option<Pipe<'scope>>,
}

impl<'scope, 'env> Feed<'scope, 'env> {
    fn new(fronts: Vec<Front>, scope: &'scope Scope<'scope, 'env>) -> Feed<'scope, 'env> {
        let (start_at, budgeted) = match FORCE_HELPER.with(Cell::get) {
            None => (HELPER_START, true),
            Some(true) => (0, false),
            Some(false) => (u64::MAX, true),
        };
        Feed {
            fronts,
            inline_events: 0,
            start_at,
            budgeted,
            scope,
            pipe: None,
        }
    }

    /// Swap lane `lane`'s next batch into `batch`.
    fn pull(&mut self, lane: usize, batch: &mut Batch) {
        let Some(pipe) = &self.pipe else {
            self.fronts[lane].fill(batch);
            self.inline_events += batch.events;
            if self.inline_events >= self.start_at {
                self.try_start();
            }
            return;
        };
        match recv_spinning(&pipe.filled[lane]) {
            Ok(mut next) => {
                std::mem::swap(batch, &mut next);
                // A helper that has already finished needs no batch back.
                let _ = pipe.spent.send((lane, next));
            }
            // The helper is gone without this lane's end: it panicked.
            Err(RecvError) => {
                let _ = self.finish();
                unreachable!("a lane's queue closes before its end only if the helper panics");
            }
        }
    }

    /// Hand every front to a helper thread, if a spare hardware thread
    /// can be had without waiting.
    fn try_start(&mut self) {
        let threads = Threads::take(usize::from(self.budgeted));
        if self.budgeted && threads.count() == 0 {
            return;
        }
        self.start_at = u64::MAX;
        let (txs, filled): (Vec<_>, Vec<_>) = self
            .fronts
            .iter()
            .map(|_| mpsc::sync_channel(QUEUE_DEPTH))
            .unzip();
        let (spent, spent_rx) = mpsc::channel();
        let fronts = std::mem::take(&mut self.fronts);
        let helper = self.scope.spawn(move || {
            let _threads = threads;
            run_fronts(fronts, txs, spent_rx)
        });
        self.pipe = Some(Pipe {
            filled,
            spent,
            helper,
        });
        HELPERS_STARTED.with(|c| c.set(c.get() + 1));
    }

    /// Close the queues and join the helper, re-raising its panic as
    /// this call's. Returns the events every front, inline or on the
    /// helper, served from its pass memo.
    fn finish(&mut self) -> u64 {
        let inline: u64 = self.fronts.iter().map(Front::replayed).sum();
        let Some(Pipe {
            filled,
            spent,
            helper,
        }) = self.pipe.take()
        else {
            return inline;
        };
        drop((filled, spent));
        match helper.join() {
            Ok(replayed) => inline + replayed,
            Err(payload) => std::panic::resume_unwind(payload),
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

    let fronts: Vec<Front> = streams
        .into_iter()
        .enumerate()
        .map(|(i, src)| {
            Front::new(
                src,
                tenant_ids[i],
                warmup_events.get(i).copied().unwrap_or(0),
                &cfg.l1,
            )
        })
        .collect();
    let mut backs: Vec<Back> = tenant_ids.iter().map(|&t| Back::new(t, &l2)).collect();

    std::thread::scope(|scope| {
        let mut feed = Feed::new(fronts, scope);
        // `keys[i]` is lane `i`'s next L2 event key `(clock before the
        // event, i)` — the index makes every key distinct — or `DEAD`
        // once the stream is exhausted. Priming a lane pulls batches up
        // to its first L2 event; miss-free streams complete entirely
        // here.
        const DEAD: (u64, usize) = (u64::MAX, usize::MAX);
        let mut keys: Vec<(u64, usize)> = backs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| {
                if b.advance(i, &mut feed) {
                    (b.next_miss_key_time(), i)
                } else {
                    DEAD
                }
            })
            .collect();

        loop {
            // Pick the lane with the smallest key and cache the runner-up
            // in one pass (keys are distinct, so the second-smallest key
            // IS the minimum over the other lanes): lane counts are core
            // counts, so a linear scan beats heap maintenance per event.
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
            // Lane `i` keeps the turn while its next key `(t, i)` stays
            // below the runner-up's `(rt, rl)`: `t < rt`, or `t == rt`
            // and `i < rl` — that is `t < rt + [i < rl]`, one compare per
            // event. Saturating at `u64::MAX` can only end a run early,
            // which costs a rescan, never an out-of-order event.
            let limit = runner_up.0.saturating_add(u64::from(i < runner_up.1));
            let back = &mut backs[i];

            // Run ahead: keep consuming lane `i`'s L2 events, batch after
            // batch, while they stay below the (unchanged) runner-up — a
            // single drain when it is the only live lane.
            loop {
                back.run(limit, &mut l2, &mut arbiter, telemetry_on);
                if !back.advance(i, &mut feed) {
                    keys[i] = DEAD;
                    break;
                }
                let t = back.next_miss_key_time();
                if t >= limit {
                    keys[i] = (t, i);
                    break;
                }
            }
        }
        let replayed = feed.finish();
        MEMO_EVENTS.with(|c| c.set(c.get() + replayed));
    });

    // Subtract the warmup portion (streams shorter than the warmup keep
    // their full statistics).
    let nfs: Vec<NfRunStats> = backs
        .iter()
        .map(|back| match &back.snapshot {
            Some(w) => NfRunStats {
                insns: back.st.insns - w.insns,
                cycles: back.st.cycles.saturating_sub(w.cycles),
                l1_hits: back.st.l1_hits - w.l1_hits,
                l1_misses: back.st.l1_misses - w.l1_misses,
                l2_hits: back.st.l2_hits - w.l2_hits,
                l2_misses: back.st.l2_misses - w.l2_misses,
            },
            None => back.st.clone(),
        })
        .collect();
    if telemetry_on {
        for (back, s) in backs.iter().zip(&nfs) {
            let d = u64::from(back.tenant);
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
            let t = &back.tel;
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
    use crate::stream::{Access, AccessKind, SyntheticStream};

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
    #[should_panic(expected = "private L1 must be 4-way")]
    fn non_four_way_l1_rejected_at_construction() {
        let mut cfg = MachineConfig::snic(1, 1 << 20);
        cfg.l1.ways = 8;
        let _ = run_colocated(&cfg, streams(1, 4 << 10, 10));
    }

    #[test]
    #[should_panic(expected = "private L1 must be 4-way with power-of-two lines and sets")]
    fn non_power_of_two_l1_sets_rejected_at_construction() {
        let mut cfg = MachineConfig::snic(1, 1 << 20);
        cfg.l1.size = 24 << 10;
        let _ = run_colocated(&cfg, streams(1, 4 << 10, 10));
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
