//! The six network functions of the paper's evaluation (§5.1).
//!
//! | NF | Paper description | Module |
//! |----|-------------------|--------|
//! | Firewall (FW) | Stateful firewall, 643 Emerging-Threats-style rules, 200 K-entry flow cache | [`firewall`] |
//! | DPI | Aho-Corasick pattern matching over 33,471 patterns | [`dpi`] |
//! | NAT | MazuNAT-derived translator, first 65,535 flows get ports | [`nat`] |
//! | LB | Google's Maglev consistent-hashing load balancer | [`maglev`] |
//! | LPM | DIR-24-8 longest-prefix match over 16,000 random rules | [`lpm`] |
//! | Monitor (Mon) | Per-five-tuple packet counters over measurement windows | [`monitor`] |
//!
//! Each NF is a *real implementation* — it classifies/translates/matches
//! actual packets — and doubles as the source of the memory-reference
//! streams that drive the Figure 5 microarchitectural experiments: every
//! data-structure probe reports its (virtual address, kind, instruction
//! cost) to an [`AccessSink`], so the uarch engine replays exactly the
//! locality the algorithm produced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod dpi;
pub mod firewall;
pub mod lowering;
pub mod lpm;
pub mod maglev;
pub mod monitor;
pub mod nat;
pub mod profile;

pub use common::{AccessSink, NetworkFunction, NfKind, NullSink, RecordingSink, Verdict};
pub use dpi::DpiNf;
pub use firewall::FirewallNf;
pub use lowering::{analysis_manifest, launch_analysis};
pub use lpm::LpmNf;
pub use maglev::MaglevNf;
pub use monitor::MonitorNf;
pub use nat::NatNf;
pub use profile::{paper_profile, MemoryProfile};

use std::sync::Arc;

use snic_types::Packet;
use snic_uarch::stream::Access;

/// Construct one NF by kind with default (paper-matching) parameters.
///
/// `seed` controls rule/pattern generation so experiments are reproducible.
pub fn build(kind: NfKind, seed: u64) -> Box<dyn NetworkFunction> {
    match kind {
        NfKind::Firewall => Box::new(FirewallNf::with_defaults(seed)),
        NfKind::Dpi => Box::new(DpiNf::with_defaults(seed)),
        NfKind::Nat => Box::new(NatNf::with_defaults(seed)),
        NfKind::LoadBalancer => Box::new(MaglevNf::with_defaults(seed)),
        NfKind::Lpm => Box::new(LpmNf::with_defaults(seed)),
        NfKind::Monitor => Box::new(MonitorNf::with_defaults(seed)),
    }
}

/// Counts events and keeps none: pass one of [`record_stream`].
struct CountingSink(usize);

impl AccessSink for CountingSink {
    #[inline]
    fn touch(&mut self, _addr: u64, _kind: snic_uarch::AccessKind, _insns: u32) {
        self.0 += 1;
    }
}

/// Run a fresh NF from `make_nf` over `packets`, recording its whole
/// reference stream into one shared buffer — the eager counterpart of
/// [`StreamingRecorder`] (identical output for the same NF and packets).
///
/// The recording is written once, in place: pass one runs an NF over the
/// packets counting its events, pass two runs a second, fresh NF over
/// the same packets and writes each event straight into the `Arc`. The
/// length is known before the buffer is made, so the buffer is allocated
/// once at its exact size — no `Vec` growth and no copy — and the only
/// other memory is the NF, the packets and one packet's events. Both NFs
/// must behave alike (a deterministic factory); pass two panics, naming
/// the NF kind, if it does not end exactly where pass one did.
pub fn record_stream(
    mut make_nf: impl FnMut() -> Box<dyn NetworkFunction>,
    packets: &[Packet],
) -> Arc<[Access]> {
    let n = {
        let mut nf = make_nf();
        let mut count = CountingSink(0);
        for p in packets {
            let _ = nf.process(p, &mut count);
        }
        count.0
    };
    let mut nf = make_nf();
    let kind = nf.kind();
    let mut rest = packets.iter();
    let mut packet_events = RecordingSink::new();
    let mut next = 0;
    let trace: Arc<[Access]> = (0..n)
        .map(|_| {
            while next == packet_events.accesses().len() {
                let p = rest.next().unwrap_or_else(|| {
                    panic!("{kind:?}: pass two recorded fewer than pass one's {n} events")
                });
                packet_events.clear();
                next = 0;
                let _ = nf.process(p, &mut packet_events);
            }
            next += 1;
            packet_events.accesses()[next - 1]
        })
        .collect();
    // Pass two ends where pass one did: the last packet's events are
    // drained and the packets left over add none.
    for p in rest {
        let _ = nf.process(p, &mut packet_events);
    }
    let left = packet_events.accesses().len() - next;
    assert!(
        left == 0,
        "{kind:?}: pass two recorded {left} events past pass one's {n}"
    );
    trace
}

/// A stream of frames, each written over a slot its consumer owns:
/// the packet side of a [`StreamingRecorder`].
pub trait FrameSource {
    /// Make `slot` the next frame and return true, or return false, with
    /// `slot` untouched, once the stream has ended. A source may rewrite
    /// `slot`'s buffer in place, which it can only do while `slot` is
    /// that buffer's one handle: a consumer that keeps no clone of the
    /// last frame lets a headers-only source allocate nothing per frame,
    /// and a clone it does keep never changes.
    fn next_into(&mut self, slot: &mut Packet) -> bool;

    /// Every frame left, each a packet of its own: pulled through one
    /// slot that is cloned after each pull, so each frame is written
    /// into a fresh buffer of its exact size.
    fn into_packets(mut self) -> Vec<Packet>
    where
        Self: Sized,
    {
        let (mut packets, mut slot) = (Vec::new(), Packet::default());
        while self.next_into(&mut slot) {
            packets.push(slot.clone());
        }
        packets
    }
}

/// A materialized stream: each frame replaces the slot.
impl FrameSource for std::vec::IntoIter<Packet> {
    fn next_into(&mut self, slot: &mut Packet) -> bool {
        self.next().map(|frame| *slot = frame).is_some()
    }
}

/// Streams an NF's reference trace packet by packet in O(per-packet)
/// resident memory — the [`TraceSource`](snic_uarch::TraceSource)
/// backend behind streamed figure sweeps.
///
/// The recorder owns the NF, a [`FrameSource`] and the one packet slot
/// the source writes each frame into, plus factories for NF and source;
/// the NF reads the frame and its verdict is dropped before the next
/// pull, so the slot's buffer is reused frame after frame.
/// [`TraceSource::rewind`](snic_uarch::TraceSource::rewind) rebuilds NF
/// and source from the factories, so a rewound pass replays the
/// bit-identical access sequence (both factories must be deterministic
/// — seeded generation, not ambient randomness).
pub struct StreamingRecorder<F, G, S> {
    make_nf: F,
    make_frames: G,
    nf: Box<dyn NetworkFunction>,
    frames: S,
    /// The frame the NF reads, rewritten by `frames` for each packet.
    slot: Packet,
    sink: RecordingSink,
    /// Events of `sink` already copied out by `fill`.
    emitted: usize,
}

impl<F, G, S> StreamingRecorder<F, G, S>
where
    F: FnMut() -> Box<dyn NetworkFunction>,
    G: FnMut() -> S,
    S: FrameSource,
{
    /// Build a recorder from deterministic NF and frame-source
    /// factories.
    pub fn new(mut make_nf: F, mut make_frames: G) -> StreamingRecorder<F, G, S> {
        let nf = make_nf();
        let frames = make_frames();
        StreamingRecorder {
            make_nf,
            make_frames,
            nf,
            frames,
            slot: Packet::default(),
            sink: RecordingSink::new(),
            emitted: 0,
        }
    }
}

impl<F, G, S> snic_uarch::TraceSource for StreamingRecorder<F, G, S>
where
    F: FnMut() -> Box<dyn NetworkFunction> + Send,
    G: FnMut() -> S + Send,
    S: FrameSource + Send,
{
    fn fill(&mut self, out: &mut [Access]) -> usize {
        let mut n = 0;
        while n < out.len() {
            let recorded = self.sink.accesses();
            let avail = recorded.len() - self.emitted;
            if avail > 0 {
                let take = (out.len() - n).min(avail);
                out[n..n + take].copy_from_slice(&recorded[self.emitted..self.emitted + take]);
                self.emitted += take;
                n += take;
                continue;
            }
            self.sink.clear();
            self.emitted = 0;
            if !self.frames.next_into(&mut self.slot) {
                break;
            }
            let _ = self.nf.process(&self.slot, &mut self.sink);
        }
        n
    }

    fn rewind(&mut self) {
        self.nf = (self.make_nf)();
        self.frames = (self.make_frames)();
        self.sink.clear();
        self.emitted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snic_trace::{IctfConfig, IctfLikeTrace, PhaseSchedule, PhasedConfig, PhasedTrace};
    use snic_uarch::TraceSource;

    fn packets(n: usize) -> Vec<Packet> {
        let mut trace = IctfLikeTrace::new(IctfConfig {
            flows: 64,
            seed: 0x5eed,
            ..IctfConfig::default()
        });
        (0..n).map(|_| trace.next_packet()).collect()
    }

    #[test]
    fn streaming_recorder_matches_record_stream() {
        let pkts = packets(200);
        for kind in NfKind::ALL {
            let materialized = record_stream(|| build(kind, 7), &pkts);
            let p = pkts.clone();
            let mut rec =
                StreamingRecorder::new(move || build(kind, 7), move || p.clone().into_iter());
            // Awkward buffer size so packet boundaries straddle fills.
            let mut buf = vec![
                Access {
                    insns: 1,
                    addr: 0,
                    kind: snic_uarch::AccessKind::Load,
                };
                97
            ];
            let mut streamed = Vec::new();
            loop {
                let n = rec.fill(&mut buf);
                if n == 0 {
                    break;
                }
                streamed.extend_from_slice(&buf[..n]);
            }
            assert_eq!(streamed, *materialized, "{kind:?}");

            // A rewound recorder replays the identical sequence.
            rec.rewind();
            let mut replay = Vec::new();
            loop {
                let n = rec.fill(&mut buf);
                if n == 0 {
                    break;
                }
                replay.extend_from_slice(&buf[..n]);
            }
            assert_eq!(replay, *materialized, "{kind:?} after rewind");
        }
    }

    /// Pass two must end exactly where pass one's count did; a factory
    /// whose second NF records more or fewer events is caught, by kind.
    #[test]
    fn record_stream_refuses_a_second_nf_that_disagrees() {
        let pkts = packets(20);
        let message = |first: NfKind, second: NfKind| {
            let mut kinds = [first, second].into_iter();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                record_stream(
                    || match kinds.next().expect("two passes") {
                        NfKind::Dpi => Box::new(DpiNf::with_small(7)),
                        other => build(other, 7),
                    },
                    &pkts,
                )
            }))
            .expect_err("the passes disagree");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        let more = message(NfKind::Monitor, NfKind::Dpi);
        assert!(more.starts_with("Dpi: pass two recorded "), "{more}");
        assert!(more.contains(" events past pass one's "), "{more}");
        let fewer = message(NfKind::Dpi, NfKind::Monitor);
        assert!(
            fewer.starts_with("Monitor: pass two recorded fewer than"),
            "{fewer}"
        );
    }

    /// `NfKind::reads_payload` is a claim about `process`; this holds
    /// every NF to it. A twin fed the headers-only frames of a stream
    /// must be indistinguishable from one fed the full frames — and for
    /// a kind that says it reads payloads the twins must differ, so the
    /// comparison cannot pass by comparing nothing.
    #[test]
    fn header_only_kinds_never_read_the_payload() {
        for kind in NfKind::ALL {
            for schedule in [PhaseSchedule::stationary(), PhaseSchedule::realistic(400)] {
                let generator = || {
                    PhasedTrace::new(PhasedConfig {
                        base: IctfConfig {
                            flows: 64,
                            seed: 0x5eed,
                            ..IctfConfig::default()
                        },
                        schedule: schedule.clone(),
                    })
                };
                let (mut full, mut headers) = (generator(), generator());
                let (mut fed_full, mut fed_headers) = (build(kind, 7), build(kind, 7));
                let (mut sink_full, mut sink_headers) =
                    (RecordingSink::new(), RecordingSink::new());
                let mut verdicts_agree = true;
                for _ in 0..400 {
                    let a = fed_full.process(&full.next_packet(), &mut sink_full);
                    let b = fed_headers.process(&headers.next_headers(), &mut sink_headers);
                    verdicts_agree &= match (&a, &b) {
                        // NAT forwards what it was given: the rewritten
                        // headers must agree, the payload is not there.
                        (Verdict::Rewritten(a), Verdict::Rewritten(b)) => {
                            a.data.starts_with(&b.data)
                        }
                        _ => a == b,
                    };
                }
                let same_accesses = sink_full.accesses() == sink_headers.accesses();
                if kind.reads_payload() {
                    assert!(!same_accesses, "{kind:?} never looked at a payload");
                } else {
                    assert!(same_accesses, "{kind:?} accesses depend on the payload");
                    assert!(verdicts_agree, "{kind:?} verdicts depend on the payload");
                }
            }
        }
    }
}
