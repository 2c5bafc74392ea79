//! The packet plane (§4.4): the switching rules, the TX wire, and each
//! live function's RX descriptor queue, ring position and ODB fill.
//! Buffer sizes are the function's `VppBufferSpec`, read from its
//! record; nothing here keeps a second copy of them.

use std::collections::{BTreeMap, VecDeque};

use snic_pktio::rules::{RuleTable, SwitchRule};
use snic_pktio::vpp::VppBufferSpec;
use snic_types::{NfId, Packet, SnicError};

use super::{ensure, Invariant, NfRecord};

/// Bytes per PDB/ODB descriptor.
const DESCRIPTOR: u64 = 32;

/// One function's queues.
#[derive(Default)]
struct Queues {
    /// RX descriptors, oldest first: `(base, len)` of frames in DRAM.
    rx: VecDeque<(u64, u32)>,
    /// Bytes the RX descriptors hold: the PB's fill.
    rx_bytes: u64,
    /// Next slot offset within the S-NIC packet ring.
    ring_next: u64,
    /// ODB descriptors in use: this function's packets still on the wire.
    tx_undrained: u64,
}

#[derive(Default)]
pub(crate) struct PacketPlane {
    rules: RuleTable,
    /// Transmitted packets not yet drained, each tagged with its sender:
    /// a function's entries are the descriptors its ODB holds.
    tx_wire: VecDeque<(NfId, Packet)>,
    queues: BTreeMap<NfId, Queues>,
}

/// The S-NIC packet ring of a function: `(base, span)` at the top of
/// its region, as large as its PB allows but at most half the region.
fn ring(record: &NfRecord) -> (u64, u64) {
    let (base, len) = record.region;
    let span = record.vpp.pb.bytes().min(len / 2);
    (base + len - span, span)
}

impl PacketPlane {
    /// Open `nf`'s pipeline: empty queues, and `rules` installed with
    /// `nf` as their target.
    pub(crate) fn open(&mut self, nf: NfId, rules: &mut [SwitchRule]) {
        for rule in rules {
            rule.target = nf;
            self.rules.install(rule.clone());
        }
        self.queues.insert(nf, Queues::default());
    }

    /// Close `nf`'s pipeline: its rules go and its queues are dropped;
    /// returns the bases of the frames it never polled. Its packets
    /// already on the wire stay there and free nobody's ODB slot.
    pub(crate) fn close(&mut self, nf: NfId) -> Vec<u64> {
        self.rules.remove_target(nf);
        let queues = self.queues.remove(&nf).unwrap_or_default();
        queues.rx.into_iter().map(|(base, _)| base).collect()
    }

    pub(crate) fn rules(&self) -> &RuleTable {
        &self.rules
    }

    /// Whether a `len`-byte arrival fits `nf`'s PB bytes and PDB
    /// descriptors.
    pub(crate) fn has_room(&self, nf: NfId, vpp: &VppBufferSpec, len: u64) -> bool {
        self.queues.get(&nf).is_some_and(|q| {
            q.rx_bytes + len <= vpp.pb.bytes()
                && (q.rx.len() as u64 + 1) * DESCRIPTOR <= vpp.pdb.bytes()
        })
    }

    /// The ring slot an S-NIC frame of `len` bytes for `nf` lands in, or
    /// `None` to drop it. Frames take 64-byte-aligned slots in arrival
    /// order, wrapping to the ring's start when the end cannot hold the
    /// next one. A slot that would reach the oldest unpolled frame is
    /// refused like a full PB: the ring never laps its own backlog.
    pub(crate) fn ring_slot(&mut self, nf: NfId, record: &NfRecord, len: u64) -> Option<u64> {
        let q = self.queues.get_mut(&nf)?;
        let (ring_base, span) = ring(record);
        let aligned = len.div_ceil(64) * 64;
        let at = if q.ring_next + aligned > span {
            0
        } else {
            q.ring_next
        };
        let fits = match q.rx.front() {
            None => at + aligned <= span,
            Some(&(oldest, _)) => {
                let oldest = oldest - ring_base;
                // Queued frames run from `oldest` to `ring_next`, across
                // the end of the ring when it has wrapped.
                if oldest < q.ring_next {
                    at == q.ring_next || aligned <= oldest
                } else {
                    at == q.ring_next && at + aligned <= oldest
                }
            }
        };
        if !fits {
            return None;
        }
        q.ring_next = at + aligned;
        Some(ring_base + at)
    }

    /// Queue a frame written at `base` for `nf` to poll.
    pub(crate) fn enqueue(&mut self, nf: NfId, base: u64, len: u32) {
        if let Some(q) = self.queues.get_mut(&nf) {
            q.rx_bytes += u64::from(len);
            q.rx.push_back((base, len));
        }
    }

    /// `nf`'s oldest queued frame, dequeued.
    pub(crate) fn dequeue(&mut self, nf: NfId) -> Option<(u64, u32)> {
        let q = self.queues.get_mut(&nf)?;
        let (base, len) = q.rx.pop_front()?;
        q.rx_bytes -= u64::from(len);
        Some((base, len))
    }

    /// Where `nf`'s oldest queued frame sits, if any.
    pub(crate) fn oldest(&self, nf: NfId) -> Option<u64> {
        Some(self.queues.get(&nf)?.rx.front()?.0)
    }

    /// Put `pkt` on the wire for `nf`, taking an ODB descriptor; a full
    /// ODB refuses it with [`SnicError::PortBufferExhausted`].
    pub(crate) fn send(&mut self, nf: NfId, odb: u64, pkt: Packet) -> Result<(), SnicError> {
        let q = self.queues.get_mut(&nf).ok_or(SnicError::NoSuchNf(nf))?;
        if (q.tx_undrained + 1) * DESCRIPTOR > odb {
            return Err(SnicError::PortBufferExhausted);
        }
        q.tx_undrained += 1;
        self.tx_wire.push_back((nf, pkt));
        Ok(())
    }

    /// Drain one packet from the wire, freeing its sender's ODB slot (a
    /// sender torn down meanwhile has none, and ids are never reused).
    pub(crate) fn wire_pop(&mut self) -> Option<Packet> {
        let (sender, pkt) = self.tx_wire.pop_front()?;
        if let Some(q) = self.queues.get_mut(&sender) {
            q.tx_undrained -= 1;
        }
        Some(pkt)
    }

    /// The functions with an open pipeline.
    pub(crate) fn open_nfs(&self) -> impl Iterator<Item = NfId> + '_ {
        self.queues.keys().copied()
    }

    /// §4.4: each function's PB fill is the sum of its queued frames and
    /// its ODB fill is its packets on the wire.
    pub(crate) fn check(&self) -> Result<(), Invariant> {
        for (&nf, q) in &self.queues {
            let bytes: u64 = q.rx.iter().map(|&(_, len)| u64::from(len)).sum();
            let wire = self.tx_wire.iter().filter(|(s, _)| *s == nf).count() as u64;
            ensure(
                q.rx_bytes == bytes && q.tx_undrained == wire,
                "§4.4",
                || {
                    format!(
                    "{nf}: PB fill {} for {bytes} queued bytes, ODB fill {} for {wire} on the wire",
                    q.rx_bytes, q.tx_undrained
                )
                },
            )?;
        }
        Ok(())
    }

    /// §4.4, against `nf`'s record: its queued frames are pairwise
    /// disjoint and, under S-NIC, inside its ring; its PB, PDB and ODB
    /// hold no more than their sizes.
    pub(crate) fn check_frames(
        &self,
        nf: NfId,
        record: &NfRecord,
        snic: bool,
    ) -> Result<(), Invariant> {
        let q = self.queues.get(&nf).ok_or_else(|| Invariant {
            clause: "§4.4",
            detail: format!("live {nf} has no packet queues"),
        })?;
        let vpp = &record.vpp;
        let fill = (
            q.rx_bytes,
            q.rx.len() as u64 * DESCRIPTOR,
            q.tx_undrained * DESCRIPTOR,
        );
        ensure(
            fill.0 <= vpp.pb.bytes() && fill.1 <= vpp.pdb.bytes() && fill.2 <= vpp.odb.bytes(),
            "§4.4",
            || format!("{nf}: PB/PDB/ODB fill {fill:?} exceeds {vpp:?}"),
        )?;
        let (ring_base, span) = ring(record);
        let mut frames: Vec<(u64, u64)> = q.rx.iter().map(|&(b, l)| (b, u64::from(l))).collect();
        frames.sort_unstable();
        for (i, &(base, len)) in frames.iter().enumerate() {
            let inside = !snic || base >= ring_base && base + len <= ring_base + span;
            let clear = frames
                .get(i + 1)
                .is_none_or(|&(next, _)| base + len <= next);
            ensure(inside && clear, "§4.4", || {
                format!("{nf}: frame {base:#x}+{len} overlaps a neighbour or leaves its ring")
            })?;
        }
        Ok(())
    }
}
