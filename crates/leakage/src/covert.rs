//! Covert-channel encoder/decoder reference streams (§3.3, quantified).
//!
//! The §3.3 attacks describe *qualitative* leakage vectors: cache
//! contention, bus contention, and teardown timing. This module builds
//! the concrete NF pairs that turn each vector into a working covert
//! channel — a **sender** stream whose memory behaviour depends on a
//! payload bit, and a **receiver** stream whose microarchitectural
//! observables (L2 hit/miss counts, bus-grant latencies) recover it.
//! This crate drives these pairs through the uarch engine and
//! measures each channel's capacity in bits per second of simulated
//! time, commodity vs S-NIC.
//!
//! All streams are plain [`Access`] vectors: deterministic, replayable,
//! and tenant-tagged by the engine, so the same pair runs unchanged
//! under every cache geometry, bus discipline, and epoch length.
//!
//! # Synchronisation
//!
//! Sender and receiver share no clock except the engine's deterministic
//! interleaving, so each stream embeds its schedule as instruction-count
//! gaps: the receiver primes, idles through a long compute gap while the
//! sender acts, then probes. The gap constants below leave generous
//! margin over the worst-case phase durations (including temporal-bus
//! epoch waits), which the leakage round-trip suites verify empirically
//! across geometries and epoch lengths.

use snic_uarch::stream::{Access, AccessKind};

/// Cache-line size every channel is built against (matches
/// `MachineConfig`).
pub const LINE: u64 = 64;

/// L1 geometry the schedules are tuned for: 32 KiB, 4-way, 64 B lines.
const L1_SETS: u64 = 128;
const L1_WAYS: u32 = 4;

/// Receiver compute gap (cycles) between the prime/flush phases and the
/// probe phase of the cache channel. The sender's transmission window.
pub const PP_RECV_GAP: u32 = 4_000_000;

/// Sender start delay (cycles): waits out the receiver's prime+flush
/// phases before touching the cache.
pub const PP_SEND_DELAY: u32 = 1_000_000;

/// Thrash rounds the cache-channel sender makes over the probed sets.
const PP_SEND_ROUNDS: u32 = 2;

/// Push one load per element of `it`.
fn loads(v: &mut Vec<Access>, it: impl Iterator<Item = u64>, insns: u32) {
    for addr in it {
        v.push(Access {
            insns,
            addr,
            kind: AccessKind::Load,
        });
    }
}

/// The line address covering way-column `w` of L2 set `s`.
fn set_line(w: u32, s: u64, l2_sets: u64) -> u64 {
    (u64::from(w) * l2_sets + s) * LINE
}

/// How many L2 sets the cache channel primes and probes: one per L1 set
/// (so each probed set owns a private L1 set and the flush argument
/// below holds), clipped to the cache.
pub fn pp_sets(l2_sets: u64) -> u64 {
    l2_sets.min(L1_SETS)
}

/// Ways the cache-channel receiver primes per probed set. Four ways are
/// reserved to flush the receiver's own L1 (see
/// [`prime_probe_receiver`]), so geometries with at most [`L1_WAYS`]
/// more ways than that — notably the 4-way L2 — cannot host a probe set
/// that survives the receiver's own L1 eviction traffic, and the
/// channel degenerates (returns 0).
pub fn pp_primed_ways(l2_ways: u32) -> u32 {
    L1_WAYS.min(l2_ways.saturating_sub(L1_WAYS))
}

/// Cache-occupancy receiver: prime, flush own L1, idle, probe.
///
/// Prime fills `pp_primed_ways` way-columns of the first [`pp_sets`]
/// L2 sets; the flush phase touches [`L1_WAYS`] *more* way-columns of
/// the same sets. Every line of probed set `s` maps to L1 set
/// `s mod 128`, so the flush lines evict the primed lines from the
/// receiver's 4-way L1 while — because primed + flush ways still fit
/// the L2 set — leaving them resident in an uncontended L2. The probe
/// phase therefore re-touches every primed line as an L1 miss whose L2
/// outcome is the channel signal: hits when the set was left alone,
/// misses when a co-tenant evicted it during the gap.
pub fn prime_probe_receiver(l2_sets: u64, l2_ways: u32) -> Vec<Access> {
    let pw = pp_primed_ways(l2_ways);
    let sets = pp_sets(l2_sets);
    if pw == 0 {
        // Degenerate geometry: nothing survives the L1 flush. Emit a
        // minimal stream so the decoder still observes *something*
        // (a constant, payload-independent signal).
        return vec![Access {
            insns: 1,
            addr: 0,
            kind: AccessKind::Load,
        }];
    }
    let mut v = Vec::with_capacity((2 * pw + L1_WAYS) as usize * sets as usize + 1);
    // Prime + L1 flush: way-major order spaces same-L1-set touches
    // `sets` events apart.
    for w in 0..pw + L1_WAYS {
        loads(&mut v, (0..sets).map(|s| set_line(w, s, l2_sets)), 1);
    }
    // The transmission gap. The touched address is a flush line that is
    // L1-resident, so the gap event itself perturbs nothing in L2.
    v.push(Access {
        insns: PP_RECV_GAP,
        addr: set_line(pw, 0, l2_sets),
        kind: AccessKind::Load,
    });
    // Probe, in prime order.
    for w in 0..pw {
        loads(&mut v, (0..sets).map(|s| set_line(w, s, l2_sets)), 1);
    }
    v
}

/// Number of probe events [`prime_probe_receiver`] emits (the decoder's
/// full-scale signal).
pub fn pp_probe_count(l2_sets: u64, l2_ways: u32) -> u64 {
    u64::from(pp_primed_ways(l2_ways)) * pp_sets(l2_sets)
}

/// Granularity of the sender's start-delay spin (instructions per spin
/// event). The engine sequences bus admission by event *start* time, so
/// a delay expressed as one huge-`insns` event would start at cycle 0,
/// issue its (first-touch) bus request a million cycles later, and
/// stall every later-starting request behind it — a modeling artifact,
/// not contention. Spinning in small steps on one line keeps every
/// event's start honest: the first step cold-misses early, the rest are
/// L1 hits that never arbitrate. The step stays below a co-tenant's
/// tightest miss round trip (≈ 139 cycles) so even that first-touch
/// request is admitted in true time order.
const SPIN_STEP: u32 = 100;

/// Push `total / SPIN_STEP` compute-only spin events on `addr`.
fn spin(v: &mut Vec<Access>, addr: u64, total: u32) {
    for _ in 0..total / SPIN_STEP {
        v.push(Access {
            insns: SPIN_STEP,
            addr,
            kind: AccessKind::Load,
        });
    }
}

/// Cache-occupancy sender: wait out the receiver's prime, then — for a
/// 1 bit — thrash every probed set with enough of its own lines to
/// evict the receiver's primed ways from a *shared* L2; for a 0 bit,
/// stay off the probed sets entirely. Sender addresses carry the
/// sender's tenant tag, so they conflict with the receiver's lines only
/// when the cache discipline lets tenants share sets.
pub fn prime_probe_sender(bit: bool, l2_sets: u64, l2_ways: u32) -> Vec<Access> {
    let sets = pp_sets(l2_sets);
    let mut v = Vec::new();
    // Scratch line past the thrash range; lands outside the probed
    // sets whenever the geometry has room for it.
    spin(
        &mut v,
        set_line(PP_SEND_ROUNDS * l2_ways, sets % l2_sets, l2_sets),
        PP_SEND_DELAY,
    );
    if bit {
        for r in 0..PP_SEND_ROUNDS {
            for w in 0..l2_ways {
                loads(
                    &mut v,
                    (0..sets).map(|s| set_line(r * l2_ways + w, s, l2_sets)),
                    1,
                );
            }
        }
    }
    v
}

/// Bus-timing receiver probes: never-reusing loads that miss both
/// cache levels, so every probe issues a bus request whose grant
/// latency is the channel signal.
pub const BUS_PROBES: usize = 256;

/// Sender-side pacing (instructions between flood accesses) for the
/// bus and scrub senders.
///
/// The engine models one outstanding blocking miss per lane, so a
/// lane's bus requests are spaced by its full miss round trip
/// (≈ 139 cycles at 1-instruction pacing) while each transfer occupies
/// the bus for only 16. Under FCFS the only lane that ever waits is
/// the one *catching up*: the faster lane's request lands inside the
/// slower lane's in-flight transfer and queues behind it. The receiver
/// therefore streams at maximum rate (1-instruction pacing) and the
/// sender runs *slower* by this co-prime de-tune, so the receiver's
/// phase drifts through the sender's 16-cycle occupancy window and a
/// measurable fraction of receiver grants are delayed — exactly
/// per-period lock-step (equal pacing) or a long compute gap on the
/// receiver side would each drive that fraction to zero.
const SEND_PACING: u32 = 20;

/// Flood accesses the bus sender issues for a 1 bit.
pub const BUS_FLOOD: usize = 1024;

/// Streaming (always-miss) load sequence: `count` consecutive lines
/// from `base`, `insns` apart. Addresses never repeat, so each access
/// cold-misses L1 and L2 regardless of co-tenant behaviour — the
/// *cache* observables of such a stream are payload-independent by
/// construction, isolating the bus-timing signal.
fn streaming(base: u64, count: usize, insns: u32) -> Vec<Access> {
    let mut v = Vec::with_capacity(count);
    loads(&mut v, (0..count as u64).map(|k| base + k * LINE), insns);
    v
}

/// Private-address-space base for streaming regions (far above any
/// cache-channel address, well inside the 2^40-byte NF space).
const STREAM_BASE: u64 = 1 << 32;

/// Bus-contention receiver: [`BUS_PROBES`] back-to-back streaming
/// misses at maximum issue rate. The decoder counts how many of the
/// receiver's own grants arrived later than they would on an idle bus
/// (see [`SEND_PACING`] for why the receiver must be the *fast* lane).
pub fn bus_receiver() -> Vec<Access> {
    streaming(STREAM_BASE, BUS_PROBES, 1)
}

/// Bus-contention sender: for a 1 bit, flood the bus with paced
/// streaming misses overlapping the receiver's whole probe window; for
/// a 0 bit, a single access (so the stream is never empty) that the
/// FCFS arbiter retires long before the receiver's probes sweep past.
pub fn bus_sender(bit: bool) -> Vec<Access> {
    if bit {
        streaming(STREAM_BASE, BUS_FLOOD, SEND_PACING)
    } else {
        streaming(STREAM_BASE, 1, SEND_PACING)
    }
}

/// Scrub-latency channel: receiver probe count. Sized so the probe
/// window sits inside the longest scrub's duration.
pub const SCRUB_PROBES: usize = 2048;

/// Scrubbed footprint, in cache lines, for a 0 bit (a small departing
/// function) and a 1 bit (a large one). The teardown scrubber's
/// zeroization traffic is proportional to the footprint, and on a
/// shared bus its duration is visible to the receiver.
pub const SCRUB_LINES_0: usize = 16;
/// Scrubbed footprint for a 1 bit; see [`SCRUB_LINES_0`].
pub const SCRUB_LINES_1: usize = 2048;

/// Scrub-latency receiver: like [`bus_receiver`] but long enough to
/// span the entire scrub duration.
pub fn scrub_receiver() -> Vec<Access> {
    streaming(STREAM_BASE, SCRUB_PROBES, 1)
}

/// The scrubber's zeroization stream: paced stores over the departing
/// function's footprint. The *sender's* secret is the footprint size —
/// the scrubber is the NIC-OS acting on the sender's behalf, which is
/// exactly why §4.6 runs teardown scrubbing inside the departing
/// function's isolation domain.
pub fn scrub_stream(bit: bool) -> Vec<Access> {
    let lines = if bit { SCRUB_LINES_1 } else { SCRUB_LINES_0 };
    let mut v = Vec::with_capacity(lines);
    for k in 0..lines as u64 {
        v.push(Access {
            insns: SEND_PACING,
            addr: STREAM_BASE + k * LINE,
            kind: AccessKind::Store,
        });
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receiver_probe_lines_are_primed_lines() {
        let (sets, ways) = (128, 8);
        let v = prime_probe_receiver(sets, ways);
        let pw = pp_primed_ways(ways) as usize;
        let primed: Vec<u64> = v[..pw * sets as usize].iter().map(|a| a.addr).collect();
        let probes: Vec<u64> = v[v.len() - pw * sets as usize..]
            .iter()
            .map(|a| a.addr)
            .collect();
        assert_eq!(primed, probes, "probe phase must revisit the primed lines");
    }

    #[test]
    fn four_way_geometry_degenerates() {
        assert_eq!(pp_primed_ways(4), 0);
        assert_eq!(prime_probe_receiver(256, 4).len(), 1);
        assert_eq!(pp_probe_count(256, 4), 0);
    }

    #[test]
    fn sender_zero_bit_stays_off_probed_sets() {
        let (sets, ways) = (512, 8);
        let probed = pp_sets(sets);
        for a in prime_probe_sender(false, sets, ways) {
            assert!(
                (a.addr / LINE) % sets >= probed,
                "0-bit sender touched probed set {}",
                (a.addr / LINE) % sets
            );
        }
    }

    #[test]
    fn sender_one_bit_covers_every_probed_set_with_full_associativity() {
        let (sets, ways) = (128, 8);
        let v = prime_probe_sender(true, sets, ways);
        for s in 0..pp_sets(sets) {
            let distinct: std::collections::BTreeSet<u64> = v
                .iter()
                .skip(1)
                .filter(|a| (a.addr / LINE) % sets == s)
                .map(|a| a.addr / LINE)
                .collect();
            assert!(
                distinct.len() >= ways as usize,
                "set {s}: only {} distinct thrash lines",
                distinct.len()
            );
        }
    }

    #[test]
    fn streaming_receivers_never_reuse_a_line() {
        for v in [bus_receiver(), scrub_receiver()] {
            let lines: std::collections::BTreeSet<u64> = v.iter().map(|a| a.addr / LINE).collect();
            assert_eq!(lines.len(), v.len(), "streaming probes must be cold misses");
        }
    }

    #[test]
    fn scrub_footprints_differ_and_are_stores() {
        let s0 = scrub_stream(false);
        let s1 = scrub_stream(true);
        assert_eq!(s0.len(), SCRUB_LINES_0);
        assert_eq!(s1.len(), SCRUB_LINES_1);
        assert!(s0.iter().chain(&s1).all(|a| a.kind == AccessKind::Store));
    }
}
