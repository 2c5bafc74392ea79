//! Memory-reference streams.
//!
//! The engine is trace-driven: each network function supplies a stream of
//! [`Access`] events derived from its real per-packet data-structure
//! walks (hash-bucket probes, Aho-Corasick node chases, DIR-24-8 table
//! lookups). An event carries the instructions executed since the
//! previous event, so the engine can charge compute cycles between
//! memory stalls.
//!
//! **Modeling choice:** the engine ignores [`AccessKind`] — loads and
//! stores cost the same number of cycles, and stores allocate into the
//! cache exactly like loads (write-allocate, no write-back traffic).
//! The kind still rides along on every event because the `snic-verify`
//! trace linters and the blast-radius perturbations distinguish reads
//! from writes; only the *timing* model treats them uniformly.
//!
//! Streams reach the engine as [`EventSource`] values — a closed enum
//! over a shared recording ([`SharedReplayStream`]) and a chunk-buffered
//! generator ([`StreamedSource`] over any [`TraceSource`]) — so the hot
//! loop dispatches on an enum tag instead of a vtable. Both lend runs of
//! events through the one pull, [`EventSource::next_slice`], straight
//! out of the recording or the generator's chunk buffer.

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A read.
    Load,
    /// A write.
    Store,
}

/// One event of a reference stream.
///
/// Packed: 13 bytes with alignment 1 instead of 16 with alignment 8, so
/// every recording, recording buffer and streamed chunk holds 3/16 less
/// and no padding. The price is that a field cannot be borrowed (copy it
/// out, `{ a.addr }`); the unaligned loads of the engine's front
/// measured neutral on x86.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, packed)]
pub struct Access {
    /// Instructions retired since the previous event (including this
    /// access instruction itself; must be ≥ 1).
    pub insns: u32,
    /// Byte address within the NF's private address space.
    pub addr: u64,
    /// Load or store. The engine's timing model does **not** consult
    /// this (loads and stores cost the same; see the module docs) —
    /// it exists for trace linting and stream perturbation.
    pub kind: AccessKind,
}

/// A re-windable generator of reference-stream events.
///
/// This is the streaming counterpart of a materialized recording: a
/// `TraceSource` produces its event sequence chunk by chunk into a
/// caller buffer, holding only O(chunk) state resident, and can
/// [`TraceSource::rewind`] to the start to replay the identical
/// sequence (seeded generators rebuild their state; the multi-pass
/// warm-then-measure pattern of the figure sweeps becomes a rewind at
/// the pass boundary instead of a second materialized copy).
///
/// A fill may write fewer events than `out` holds anywhere in the
/// sequence; only a zero fill means the current pass is exhausted.
/// After `rewind`, the source must reproduce its event sequence
/// bit-identically — that is what lets a streamed run replace a
/// materialized `Arc<[Access]>` under every golden snapshot.
pub trait TraceSource: Send {
    /// Fill `out` with the next events of the sequence, returning how
    /// many were written; 0 exactly when the sequence is exhausted.
    fn fill(&mut self, out: &mut [Access]) -> usize;

    /// Restart the sequence from its beginning. The events produced
    /// after a rewind must be bit-identical to the first pass.
    fn rewind(&mut self);
}

/// Adapts a [`TraceSource`] generator to the engine's [`EventSource`]
/// interface: an internal chunk buffer is refilled from the generator
/// on demand, and the engine borrows runs straight out of that buffer
/// through [`EventSource::next_slice`].
///
/// `passes > 1` replays the generated sequence back to back by
/// rewinding the generator at each pass boundary — the streaming
/// equivalent of [`SharedReplayStream::repeated`], at O(chunk) resident
/// memory instead of O(trace).
pub struct StreamedSource {
    src: Box<dyn TraceSource>,
    buf: Box<[Access]>,
    /// Next unconsumed event in `buf`.
    lo: usize,
    /// Events valid in `buf`.
    hi: usize,
    passes_left: u32,
}

/// Default chunk size of a [`StreamedSource`]: large enough that the
/// generator's per-call overhead amortizes away, small enough that a
/// 64-tenant sweep's chunk buffers stay within a few megabytes.
pub const STREAM_CHUNK: usize = 4096;

impl StreamedSource {
    /// Stream one pass of `src` through a [`STREAM_CHUNK`]-event buffer.
    pub fn new(src: Box<dyn TraceSource>) -> StreamedSource {
        StreamedSource::repeated(src, 1)
    }

    /// Stream `passes` back-to-back passes of `src`, rewinding the
    /// generator at each pass boundary.
    pub fn repeated(src: Box<dyn TraceSource>, passes: u32) -> StreamedSource {
        StreamedSource::with_chunk(src, passes, STREAM_CHUNK)
    }

    /// Like [`StreamedSource::repeated`] with an explicit chunk size
    /// (the differential suite sweeps this to prove chunk-boundary
    /// invariance).
    pub fn with_chunk(src: Box<dyn TraceSource>, passes: u32, chunk: usize) -> StreamedSource {
        assert!(chunk > 0, "degenerate chunk size");
        StreamedSource {
            src,
            buf: vec![
                Access {
                    insns: 1,
                    addr: 0,
                    kind: AccessKind::Load,
                };
                chunk
            ]
            .into_boxed_slice(),
            lo: 0,
            hi: 0,
            passes_left: passes,
        }
    }

    /// Ensure the chunk buffer holds at least one unconsumed event,
    /// pulling from the generator (and crossing pass boundaries) as
    /// needed. Returns `false` when every pass is exhausted.
    fn ensure(&mut self) -> bool {
        while self.lo == self.hi {
            if self.passes_left == 0 {
                return false;
            }
            let n = self.src.fill(&mut self.buf);
            if n == 0 {
                // Pass exhausted: consume it and rewind for the next
                // one. An empty generator burns through its passes here
                // and terminates (no infinite loop).
                self.passes_left -= 1;
                if self.passes_left > 0 {
                    self.src.rewind();
                }
                continue;
            }
            self.lo = 0;
            self.hi = n;
        }
        true
    }
}

impl std::fmt::Debug for StreamedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamedSource")
            .field("chunk", &self.buf.len())
            .field("buffered", &(self.hi - self.lo))
            .field("passes_left", &self.passes_left)
            .finish_non_exhaustive()
    }
}

/// Replays a shared, immutable recording without copying it.
///
/// Reference traces are recorded once and replayed many times — every
/// colocation of a §5.3 sweep replays the same six NF recordings, and
/// the parallel pool replays them from many threads at once. Wrapping
/// the recording in an [`Arc`](std::sync::Arc) slice means each replay costs one
/// refcount bump instead of a full `Vec<Access>` clone. `passes > 1`
/// loops the recording, which is how the figure sweeps express "replay
/// once to warm the caches, then measure the second pass" without
/// materialising a doubled trace.
#[derive(Debug, Clone)]
pub struct SharedReplayStream {
    accesses: std::sync::Arc<[Access]>,
    pos: usize,
    passes_left: u32,
}

impl SharedReplayStream {
    /// Replay the shared recording once.
    pub fn new(accesses: std::sync::Arc<[Access]>) -> SharedReplayStream {
        SharedReplayStream::repeated(accesses, 1)
    }

    /// Replay the shared recording `passes` times back to back.
    pub fn repeated(accesses: std::sync::Arc<[Access]>, passes: u32) -> SharedReplayStream {
        SharedReplayStream {
            accesses,
            pos: 0,
            passes_left: passes,
        }
    }
}

impl EventSource {
    /// The events per pass of a non-empty recording that is at the start
    /// of a pass and has at least one more pass after it to run — a
    /// stream whose later passes repeat its next one event for event.
    /// `None` for anything else, generators included.
    pub(crate) fn repeats(&self) -> Option<usize> {
        match self {
            EventSource::Shared(s)
                if s.pos == 0 && s.passes_left >= 2 && !s.accesses.is_empty() =>
            {
                Some(s.accesses.len())
            }
            _ => None,
        }
    }
}

/// A seeded synthetic [`TraceSource`] with a configurable working set
/// and access mix, for engine tests and probes. Addresses cycle
/// pseudo-randomly (LCG) through `working_set` bytes.
#[derive(Debug, Clone)]
pub struct SyntheticStream {
    working_set: u64,
    state: u64,
    seed: u64,
    insns_per_access: u32,
    store_every: u32,
    produced: u64,
    limit: u64,
}

impl SyntheticStream {
    /// Create a stream of `limit` events over a `working_set`-byte window.
    ///
    /// `insns_per_access` compute instructions are charged per event;
    /// every `store_every`-th event is a store (0 = never).
    pub fn new(
        working_set: u64,
        insns_per_access: u32,
        store_every: u32,
        limit: u64,
        seed: u64,
    ) -> SyntheticStream {
        assert!(
            working_set > 0 && insns_per_access > 0,
            "degenerate synthetic stream"
        );
        SyntheticStream {
            working_set,
            state: seed | 1,
            seed,
            insns_per_access,
            store_every,
            produced: 0,
            limit,
        }
    }
}

/// A seeded synthetic workload is trivially re-windable: reset the LCG
/// to its seed and the identical sequence replays.
impl TraceSource for SyntheticStream {
    fn fill(&mut self, out: &mut [Access]) -> usize {
        let n = (self.limit - self.produced).min(out.len() as u64) as usize;
        for slot in &mut out[..n] {
            self.produced += 1;
            // LCG step (Numerical Recipes constants).
            self.state = self
                .state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let store =
                self.store_every > 0 && self.produced.is_multiple_of(u64::from(self.store_every));
            *slot = Access {
                insns: self.insns_per_access,
                addr: self.state % self.working_set,
                kind: if store {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
            };
        }
        n
    }

    fn rewind(&mut self) {
        self.state = self.seed | 1;
        self.produced = 0;
    }
}

/// A devirtualized stream: the engine's input is either a recording or
/// a generator, matched directly so the hot loop never goes through a
/// vtable to pull a run.
pub enum EventSource {
    /// A shared, possibly looped recording ([`SharedReplayStream`]).
    Shared(SharedReplayStream),
    /// A chunk-buffered generator ([`StreamedSource`]) — O(chunk)
    /// resident memory, bit-identical replays via [`TraceSource::rewind`].
    Streamed(StreamedSource),
}

impl EventSource {
    /// Borrow the next run of up to `max` events, advancing the cursor:
    /// a shared recording lends its backing store, a generator its
    /// chunk buffer. This is the only way to pull events.
    ///
    /// Always returns `Some`; the `Option` remains only because the
    /// standalone `benchmark/` crate's layer probes `expect` it. Only an
    /// empty run means the stream is exhausted, and every later call
    /// returns an empty run again. A short run does not mean the end: a
    /// recording's runs stop at each pass boundary, and a generator's at
    /// each chunk it fills.
    #[inline]
    pub fn next_slice(&mut self, max: usize) -> Option<&[Access]> {
        match self {
            EventSource::Shared(s) => {
                if s.passes_left == 0 || s.accesses.is_empty() {
                    return Some(&[]);
                }
                let n = max.min(s.accesses.len() - s.pos);
                let lo = s.pos;
                s.pos += n;
                if s.pos == s.accesses.len() {
                    s.pos = 0;
                    s.passes_left -= 1;
                }
                Some(&s.accesses[lo..lo + n])
            }
            EventSource::Streamed(s) => {
                if !s.ensure() {
                    return Some(&[]);
                }
                let n = max.min(s.hi - s.lo);
                let lo = s.lo;
                s.lo += n;
                Some(&s.buf[lo..lo + n])
            }
        }
    }
}

impl std::fmt::Debug for EventSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventSource::Shared(s) => f.debug_tuple("Shared").field(s).finish(),
            EventSource::Streamed(s) => f.debug_tuple("Streamed").field(s).finish(),
        }
    }
}

impl From<SharedReplayStream> for EventSource {
    fn from(s: SharedReplayStream) -> EventSource {
        EventSource::Shared(s)
    }
}

/// One pass of a synthetic generator behind a [`STREAM_CHUNK`] buffer.
impl From<SyntheticStream> for EventSource {
    fn from(s: SyntheticStream) -> EventSource {
        StreamedSource::new(Box::new(s)).into()
    }
}

impl From<StreamedSource> for EventSource {
    fn from(s: StreamedSource) -> EventSource {
        EventSource::Streamed(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const BLANK: Access = Access {
        insns: 1,
        addr: 0,
        kind: AccessKind::Load,
    };

    /// Drain a source through `next_slice` in runs of at most `max`,
    /// holding it to the contract on the way: every call answers
    /// `Some`, and a source that has returned its empty run keeps
    /// returning one.
    fn drain(mut es: EventSource, max: usize) -> Vec<Access> {
        let mut v = Vec::new();
        loop {
            let run = es.next_slice(max).expect("next_slice always answers Some");
            assert!(run.len() <= max, "run longer than asked for");
            if run.is_empty() {
                for _ in 0..3 {
                    assert_eq!(es.next_slice(max), Some(&[][..]), "pull after the end");
                }
                return v;
            }
            v.extend_from_slice(run);
        }
    }

    /// A 97-event recording with mixed kinds and varied insns.
    fn recording() -> Vec<Access> {
        (0..97u64)
            .map(|i| Access {
                insns: 1 + (i % 7) as u32,
                addr: i * 64,
                kind: if i % 3 == 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
            })
            .collect()
    }

    /// A generator that writes one event per fill, so the runs it lends
    /// are short in the middle of a pass, not only at its end.
    struct OnePerFill(SyntheticStream);

    impl TraceSource for OnePerFill {
        fn fill(&mut self, out: &mut [Access]) -> usize {
            let n = out.len().min(1);
            self.0.fill(&mut out[..n])
        }

        fn rewind(&mut self) {
            self.0.rewind();
        }
    }

    #[test]
    fn replay_replays_in_order() {
        let v = vec![
            BLANK,
            Access {
                insns: 2,
                addr: 64,
                kind: AccessKind::Store,
            },
        ];
        let mut es = EventSource::from(SharedReplayStream::new(v.clone().into()));
        assert_eq!(es.next_slice(1), Some(&v[..1]));
        assert_eq!(es.next_slice(1), Some(&v[1..]));
        assert_eq!(es.next_slice(1), Some(&[][..]));
    }

    #[test]
    fn an_access_is_thirteen_unpadded_bytes() {
        assert_eq!(size_of::<Access>(), 13);
        assert_eq!(align_of::<Access>(), 1);
    }

    #[test]
    fn synthetic_respects_limit_and_bounds() {
        let events = drain(SyntheticStream::new(4096, 5, 4, 100, 42).into(), 7);
        assert_eq!(events.len(), 100);
        assert!(events.iter().all(|a| a.addr < 4096 && a.insns == 5));
        let stores = events.iter().filter(|a| a.kind == AccessKind::Store);
        assert_eq!(stores.count(), 25);
    }

    #[test]
    fn repeated_replay_loops_without_copying() {
        let v = vec![
            BLANK,
            Access {
                insns: 3,
                addr: 128,
                kind: AccessKind::Load,
            },
        ];
        let s = SharedReplayStream::repeated(v.clone().into(), 3);
        // A run never spans a pass boundary.
        assert_eq!(EventSource::from(s.clone()).next_slice(5), Some(&v[..]));
        let seen = drain(s.into(), 1);
        assert_eq!(seen.len(), 6);
        assert_eq!(&seen[..2], &v[..]);
        assert_eq!(&seen[2..4], &v[..]);
        assert_eq!(&seen[4..], &v[..]);
    }

    #[test]
    fn empty_replay_terminates() {
        let empty = || -> Arc<[Access]> { Vec::new().into() };
        for passes in [1, 1_000_000] {
            let mut es = EventSource::from(SharedReplayStream::repeated(empty(), passes));
            assert_eq!(es.next_slice(16), Some(&[][..]));
        }
    }

    #[test]
    fn batched_and_sliced_pulls_match_single_pull_for_every_stream_type() {
        let shared: Arc<[Access]> = recording().into();
        let sources: [(&str, &dyn Fn() -> EventSource); 5] = [
            ("replay", &|| SharedReplayStream::new(shared.clone()).into()),
            ("shared x3", &|| {
                SharedReplayStream::repeated(shared.clone(), 3).into()
            }),
            ("synthetic", &|| {
                SyntheticStream::new(4096, 5, 4, 100, 42).into()
            }),
            ("streamed x2", &|| {
                StreamedSource::with_chunk(Box::new(synth()), 2, 61).into()
            }),
            ("one per fill x2", &|| {
                StreamedSource::with_chunk(Box::new(OnePerFill(synth())), 2, 61).into()
            }),
        ];
        for (name, mk) in sources {
            let single = drain(mk(), 1);
            assert!(!single.is_empty());
            for max in [3usize, 64, 200] {
                assert_eq!(drain(mk(), max), single, "{name}, max={max}");
            }
        }
        assert_eq!(drain(sources[0].1(), 1), recording());
        assert_eq!(drain(sources[4].1(), 64), drain(sources[3].1(), 64));
    }

    #[test]
    fn event_source_dispatches_and_is_send() {
        fn assert_send<T: Send>(_: &T) {}
        let es = EventSource::from(SyntheticStream::new(4096, 5, 0, 10, 1));
        assert_send(&es);
        assert!(format!("{es:?}").contains("Streamed"));
        let mut direct = [BLANK; 16];
        let n = SyntheticStream::new(4096, 5, 0, 10, 1).fill(&mut direct);
        assert_eq!(drain(es, 3), &direct[..n]);
    }

    /// The synthetic workload the streaming tests generate and compare
    /// against: non-trivial length, mixed kinds, varied insns.
    fn synth() -> SyntheticStream {
        SyntheticStream::new(1 << 16, 3, 5, 1000, 0xabc)
    }

    #[test]
    fn streamed_source_matches_its_generator_for_every_chunk_size() {
        let mut direct = vec![BLANK; 1000];
        assert_eq!(synth().fill(&mut direct), 1000);
        for chunk in [1usize, 7, 256, 333, 4096, 10_000] {
            let mk = || EventSource::from(StreamedSource::with_chunk(Box::new(synth()), 1, chunk));
            assert_eq!(drain(mk(), 1), direct, "single, chunk={chunk}");
            assert_eq!(drain(mk(), 100), direct, "sliced, chunk={chunk}");
        }
    }

    #[test]
    fn streamed_repeated_matches_shared_repeated() {
        let trace: Arc<[Access]> = drain(synth().into(), 64).into();
        let shared = SharedReplayStream::repeated(trace, 3);
        let streamed = StreamedSource::with_chunk(Box::new(synth()), 3, 333);
        assert_eq!(drain(streamed.into(), 97), drain(shared.into(), 97));
    }

    #[test]
    fn empty_streamed_generator_terminates() {
        let empty = SyntheticStream::new(64, 1, 0, 0, 1);
        let mut es = EventSource::from(StreamedSource::repeated(Box::new(empty), 1_000_000));
        assert_eq!(es.next_slice(16), Some(&[][..]));
    }

    #[test]
    fn synthetic_rewind_replays_from_any_position() {
        let first = drain(synth().into(), 64);
        let mut s = synth();
        let mut buf = vec![BLANK; first.len()];
        // Mid-stream, after exhaustion, and twice in a row: every
        // rewind restarts from the exact beginning.
        for consumed in [17, first.len(), 0] {
            let _ = s.fill(&mut buf[..consumed]);
            s.rewind();
            s.rewind();
            assert_eq!(s.fill(&mut buf), first.len());
            assert_eq!(buf, first, "after consuming {consumed}");
            s.rewind();
        }
    }

    #[test]
    fn synthetic_deterministic_per_seed() {
        let collect = |seed| -> Vec<u64> {
            drain(SyntheticStream::new(1 << 20, 3, 0, 50, seed).into(), 16)
                .iter()
                .map(|a| a.addr)
                .collect()
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }
}
