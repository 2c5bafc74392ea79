//! Lowerings from the six paper NFs into the Pass 0 dataflow IR.
//!
//! Each lowering mirrors its NF's `AccessSink` instrumentation op for op:
//! every `sink.touch(addr, kind, insns)` the real implementation can emit
//! has a corresponding IR load/store whose abstract address range covers
//! `addr` and whose weight is the same `insns`. That makes the IR
//! *ground-truthed*: the differential tests in this module record real
//! access streams and check they stay inside the IR's declared regions
//! and under the certificate's instruction ceiling.
//!
//! Loop structure follows the algorithms: the firewall's rule scan, the
//! DPI payload walk with its failure-link and dictionary-link inner
//! loops, and the single-probe NFs (NAT, LB, LPM, Monitor) are all
//! expressed with explicit trip bounds derived from the NF's own
//! configuration (rule count, automaton depth, table sizes).

use snic_verify::pass0::{
    AnalysisManifest, LaunchAnalysis, NfProgram, Operand, ProgramBuilder, RegionClass, RegionId,
    Taint, Terminator,
};

use crate::common::{layout, NetworkFunction, NfKind};
use crate::dpi::DpiNf;
use crate::firewall::FirewallNf;
use crate::lpm::LpmNf;
use crate::maglev::MaglevNf;
use crate::monitor::MonitorNf;
use crate::nat::NatNf;

/// Largest payload the DPI lowering prices (jumbo-frame MTU); payloads
/// are bounded by the packet buffer, and the trace generators stay far
/// below this.
pub const MAX_PAYLOAD_BYTES: u64 = 9216;

fn pkt_window() -> (u64, u64) {
    (layout::PKTBUF_BASE, layout::DATA_BASE - layout::PKTBUF_BASE)
}

fn data_window() -> (u64, u64) {
    (layout::DATA_BASE, layout::HEAP_BASE - layout::DATA_BASE)
}

fn heap_window() -> (u64, u64) {
    (layout::HEAP_BASE, layout::STACK_BASE - layout::HEAP_BASE)
}

/// The analyzer's view of an NF launch manifest: the three layout
/// windows every NF maps (packet buffer, static data, heap/stack), no
/// accelerators, no host DMA, and a per-kind admission ceiling sized
/// from the lowering's worst-case path.
pub fn analysis_manifest(kind: NfKind) -> AnalysisManifest {
    let max_insns_per_packet = match kind {
        NfKind::Firewall => 4_000,
        // Worst case walks every payload byte through a full failure
        // chain: MAX_PAYLOAD * (depth+1) * 6 + dictionary walks.
        NfKind::Dpi => 4_000_000,
        NfKind::Nat => 1_500,
        NfKind::LoadBalancer => 1_200,
        NfKind::Lpm => 600,
        NfKind::Monitor => 1_000,
    };
    AnalysisManifest {
        regions: vec![pkt_window(), data_window(), heap_window()],
        accel: Vec::new(),
        dma_window: None,
        max_insns_per_packet,
    }
}

/// The Pass 0 submission for an NF: its IR plus the manifest for its
/// kind.
pub fn launch_analysis(nf: &dyn NetworkFunction) -> LaunchAnalysis {
    LaunchAnalysis {
        program: nf.dataflow_ir(),
        manifest: analysis_manifest(nf.kind()),
    }
}

fn declare_windows(p: &mut ProgramBuilder) -> (RegionId, RegionId, RegionId) {
    let (pb, pl) = pkt_window();
    let (db, dl) = data_window();
    let (hb, hl) = heap_window();
    (
        p.region("pktbuf", pb, pl, RegionClass::PacketBuf),
        p.region("data", db, dl, RegionClass::Private),
        p.region("heap", hb, hl, RegionClass::Private),
    )
}

/// FW: header parse, flow-cache probe, and on a miss the linear rule
/// scan (one load per 4-rule cache line) plus eviction/insert stores.
pub fn firewall_ir(nf: &FirewallNf) -> NfProgram {
    let mut p = ProgramBuilder::new("FW");
    let (pkt, data, heap) = declare_windows(&mut p);
    let buckets = (nf.cache_limit() as u64).next_power_of_two();
    let rules = nf.rule_count() as u64;

    let _ = p.load(pkt, Operand::Imm(0), 64, 180);
    let _ = p.load(pkt, Operand::Imm(64), 64, 90);
    let hash = p.havoc(0, u64::MAX, Taint::PACKET, 0);
    let slot = p.modulo(Operand::Reg(hash), buckets, 0);
    let bucket_off = p.arith(
        Operand::Imm(0),
        Operand::Reg(slot),
        crate::firewall::CACHE_BUCKET_BYTES,
        0,
    );
    let _ = p.load(heap, Operand::Reg(bucket_off), 24, 220);

    let scan = p.add_block();
    let insert = p.add_block();
    let done = p.add_block();
    // Hit path goes straight to `done`; miss path runs the scan loop.
    p.terminate(Terminator::Branch(vec![done, scan]));

    p.select(scan);
    let i = p.havoc(0, rules.max(1) - 1, Taint::NONE, 0);
    let rule_off = p.arith(
        Operand::Imm(0),
        Operand::Reg(i),
        crate::firewall::RULE_BYTES,
        0,
    );
    let _ = p.load(data, Operand::Reg(rule_off), 16, 10);
    p.terminate(Terminator::Branch(vec![scan, insert]));
    p.loop_bound(scan, rules.div_ceil(4).max(1));

    p.select(insert);
    let evict_hash = p.havoc(0, u64::MAX, Taint::STATE, 0);
    let evict_slot = p.modulo(Operand::Reg(evict_hash), buckets, 0);
    let evict_off = p.arith(
        Operand::Imm(0),
        Operand::Reg(evict_slot),
        crate::firewall::CACHE_BUCKET_BYTES,
        0,
    );
    p.store(heap, Operand::Reg(evict_off), Operand::Reg(hash), 24, 25);
    p.store(heap, Operand::Reg(bucket_off), Operand::Reg(hash), 24, 40);
    p.terminate(Terminator::Jump(done));

    p.select(done);
    p.emit(Operand::Reg(hash), 0);
    p.finish()
}

/// DPI: header load, streamed payload lines, then the Aho-Corasick walk
/// — a per-byte outer loop containing the failure-link and
/// dictionary-link inner loops, both bounded by the trie depth.
pub fn dpi_ir(nf: &DpiNf) -> NfProgram {
    let mut p = ProgramBuilder::new("DPI");
    let (pkt, _, heap) = declare_windows(&mut p);
    let nodes = nf.automaton().node_count() as u64;
    // Failure walk touches at most depth+1 nodes per byte; the dict walk
    // at most depth.
    let walk = nf.automaton().max_depth() as u64 + 1;

    let _ = p.load(pkt, Operand::Imm(0), 64, 120);

    let lines = p.add_block();
    let bytes = p.add_block();
    let fail_walk = p.add_block();
    let dict_walk = p.add_block();
    let next_byte = p.add_block();
    let done = p.add_block();
    p.terminate(Terminator::Jump(lines));

    // One load per 64-byte payload line.
    p.select(lines);
    let line = p.havoc(0, MAX_PAYLOAD_BYTES / 64 - 1, Taint::NONE, 0);
    let line_off = p.arith(Operand::Imm(64), Operand::Reg(line), 64, 0);
    let _ = p.load(pkt, Operand::Reg(line_off), 64, 3);
    p.terminate(Terminator::Branch(vec![lines, bytes]));
    p.loop_bound(lines, MAX_PAYLOAD_BYTES / 64);

    // Outer loop: one iteration per payload byte.
    p.select(bytes);
    p.terminate(Terminator::Jump(fail_walk));
    p.loop_bound(bytes, MAX_PAYLOAD_BYTES);

    // Inner loop 1: follow failure links until a transition exists. The
    // current node mixes packet data (which byte) and automaton state.
    p.select(fail_walk);
    let cur = p.havoc(0, nodes - 1, Taint::PACKET.union(Taint::STATE), 0);
    let node_off = p.arith(
        Operand::Imm(0),
        Operand::Reg(cur),
        crate::dpi::NODE_BYTES,
        0,
    );
    let _ = p.load(heap, Operand::Reg(node_off), 96, 6);
    p.terminate(Terminator::Branch(vec![fail_walk, dict_walk]));
    p.loop_bound(fail_walk, walk);

    // Inner loop 2: count matches via dictionary suffix links.
    p.select(dict_walk);
    let m = p.havoc(0, nodes - 1, Taint::PACKET.union(Taint::STATE), 0);
    let m_off = p.arith(Operand::Imm(0), Operand::Reg(m), crate::dpi::NODE_BYTES, 0);
    let _ = p.load(heap, Operand::Reg(m_off), 96, 4);
    p.terminate(Terminator::Branch(vec![dict_walk, next_byte]));
    p.loop_bound(dict_walk, walk);

    p.select(next_byte);
    p.terminate(Terminator::Branch(vec![bytes, done]));

    p.select(done);
    p.emit(Operand::Imm(0), 0);
    p.finish()
}

/// NAT: header parse, translation-bucket probe, then either a hit
/// update or a new-entry insert (forward record + reverse map), and the
/// two header-rewrite stores.
pub fn nat_ir(nf: &NatNf) -> NfProgram {
    let _ = nf;
    let mut p = ProgramBuilder::new("NAT");
    let (pkt, _, heap) = declare_windows(&mut p);
    let buckets = (crate::nat::NAT_MAX_FLOWS as u64 + 1).next_power_of_two();
    let state = crate::nat::FLOW_STATE_BYTES as u64;

    let _ = p.load(pkt, Operand::Imm(0), 64, 180);
    let _ = p.load(pkt, Operand::Imm(64), 64, 80);
    let hash = p.havoc(0, u64::MAX, Taint::PACKET, 0);
    let slot = p.modulo(Operand::Reg(hash), buckets, 0);
    let bucket_off = p.arith(Operand::Imm(0), Operand::Reg(slot), state, 0);
    let _ = p.load(heap, Operand::Reg(bucket_off), 240, 220);

    let hit = p.add_block();
    let miss = p.add_block();
    let rewrite = p.add_block();
    p.terminate(Terminator::Branch(vec![hit, miss]));

    p.select(hit);
    let count_off = p.arith(Operand::Reg(bucket_off), Operand::Imm(64), 1, 0);
    p.store(heap, Operand::Reg(count_off), Operand::Reg(hash), 8, 40);
    p.terminate(Terminator::Jump(rewrite));

    p.select(miss);
    p.store(heap, Operand::Reg(bucket_off), Operand::Reg(hash), 240, 80);
    // Reverse map: allocated port (internal state) indexes a side table.
    let port = p.havoc(0, u64::from(u16::MAX) - 1, Taint::STATE, 0);
    let rev_off = p.arith(Operand::Imm(0x2_000_000), Operand::Reg(port), 32, 0);
    p.store(heap, Operand::Reg(rev_off), Operand::Reg(hash), 32, 30);
    p.terminate(Terminator::Jump(rewrite));

    p.select(rewrite);
    p.store(pkt, Operand::Imm(12), Operand::Reg(hash), 4, 90);
    p.store(pkt, Operand::Imm(34), Operand::Reg(hash), 2, 60);
    p.emit(Operand::Reg(hash), 0);
    p.finish()
}

/// LB (Maglev): header parse, connection-tracking probe, and on a miss
/// one lookup-table load plus the tracking insert.
pub fn maglev_ir(nf: &MaglevNf) -> NfProgram {
    let mut p = ProgramBuilder::new("LB");
    let (pkt, data, heap) = declare_windows(&mut p);
    let ct_buckets = 65_536u64;
    let table_slots = nf.table().len() as u64;

    let _ = p.load(pkt, Operand::Imm(0), 64, 180);
    let _ = p.load(pkt, Operand::Imm(64), 64, 80);
    let hash = p.havoc(0, u64::MAX, Taint::PACKET, 0);
    let ct_slot = p.modulo(Operand::Reg(hash), ct_buckets, 0);
    let ct_off = p.arith(Operand::Imm(0), Operand::Reg(ct_slot), 40, 0);
    let _ = p.load(heap, Operand::Reg(ct_off), 40, 200);

    let miss = p.add_block();
    let done = p.add_block();
    p.terminate(Terminator::Branch(vec![done, miss]));

    p.select(miss);
    let slot = p.modulo(Operand::Reg(hash), table_slots, 0);
    let slot_off = p.arith(Operand::Imm(0), Operand::Reg(slot), 4, 0);
    let backend = p.load(data, Operand::Reg(slot_off), 4, 60);
    p.store(heap, Operand::Reg(ct_off), Operand::Reg(backend), 40, 40);
    p.terminate(Terminator::Jump(done));

    p.select(done);
    p.emit(Operand::Reg(hash), 0);
    p.finish()
}

/// LPM (DIR-24-8): header load, the tbl24 probe indexed by the top 24
/// destination bits, and for extended entries one tbl8 probe.
pub fn lpm_ir(nf: &LpmNf) -> NfProgram {
    let mut p = ProgramBuilder::new("LPM");
    let (pkt, _, heap) = declare_windows(&mut p);
    let tbl8_entries = (nf.table().tbl8_segments() as u64 * 256).max(1);

    let _ = p.load(pkt, Operand::Imm(0), 64, 150);
    let idx24 = p.havoc(0, (1 << 24) - 1, Taint::PACKET, 0);
    let off24 = p.arith(Operand::Imm(0), Operand::Reg(idx24), 4, 0);
    let _ = p.load(heap, Operand::Reg(off24), 4, 80);

    let tbl8 = p.add_block();
    let done = p.add_block();
    p.terminate(Terminator::Branch(vec![done, tbl8]));

    p.select(tbl8);
    // Segment index comes from the tbl24 entry (state) and the low
    // address byte (packet).
    let idx8 = p.havoc(0, tbl8_entries - 1, Taint::PACKET.union(Taint::STATE), 0);
    let off8 = p.arith(Operand::Imm(0x400_0000), Operand::Reg(idx8), 4, 0);
    let _ = p.load(heap, Operand::Reg(off8), 4, 40);
    p.terminate(Terminator::Jump(done));

    p.select(done);
    p.emit(Operand::Imm(0), 0);
    p.finish()
}

/// Monitor: header parse plus one counter-slot probe and update. The map
/// grows by doubling, so the slot range is bounded by the region's
/// capacity rather than the current bucket count.
pub fn monitor_ir(nf: &MonitorNf) -> NfProgram {
    let _ = nf;
    let mut p = ProgramBuilder::new("Mon");
    let (pkt, _, heap) = declare_windows(&mut p);
    let (_, heap_len) = heap_window();
    let cap_slots = heap_len / crate::monitor::SLOT_BYTES;

    let _ = p.load(pkt, Operand::Imm(0), 64, 150);
    let _ = p.load(pkt, Operand::Imm(64), 64, 70);
    let hash = p.havoc(0, u64::MAX, Taint::PACKET, 0);
    let slot = p.modulo(Operand::Reg(hash), cap_slots, 0);
    let off = p.arith(
        Operand::Imm(0),
        Operand::Reg(slot),
        crate::monitor::SLOT_BYTES,
        0,
    );
    let _ = p.load(heap, Operand::Reg(off), 32, 200);
    p.store(heap, Operand::Reg(off), Operand::Reg(hash), 32, 30);
    p.emit(Operand::Reg(hash), 0);
    p.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{NfKind, RecordingSink};
    use snic_types::packet::PacketBuilder;
    use snic_types::{Packet, Protocol};
    use snic_verify::pass0::analyze;

    fn small_nf(kind: NfKind) -> Box<dyn NetworkFunction> {
        match kind {
            // DPI's default 33k-pattern build is slow; the small build
            // exercises the same lowering.
            NfKind::Dpi => Box::new(DpiNf::with_small(7)),
            other => crate::build(other, 7),
        }
    }

    fn traffic() -> Vec<Packet> {
        (0..40u32)
            .map(|i| {
                PacketBuilder::new(
                    0x0a00_0000 | i,
                    0xc633_0000 | (i * 7),
                    if i % 3 == 0 {
                        Protocol::Udp
                    } else {
                        Protocol::Tcp
                    },
                    (1024 + i * 13) as u16,
                    if i % 2 == 0 { 80 } else { 443 },
                )
                .payload(format!("payload {i} abc/def.{i}").into_bytes())
                .build()
            })
            .collect()
    }

    #[test]
    fn all_six_nfs_analyze_clean() {
        for kind in NfKind::ALL {
            let nf = small_nf(kind);
            let la = launch_analysis(nf.as_ref());
            let report = analyze(&la.program, &la.manifest);
            assert!(report.is_clean(), "{kind:?}:\n{report}");
            assert!(report.certificate.is_some());
        }
    }

    #[test]
    fn recorded_accesses_stay_inside_declared_regions() {
        for kind in NfKind::ALL {
            let program = small_nf(kind).dataflow_ir();
            let stream = crate::record_stream(|| small_nf(kind), &traffic());
            assert!(!stream.is_empty(), "{kind:?} produced no accesses");
            for a in stream.iter() {
                let covered = program
                    .regions
                    .iter()
                    .any(|r| a.addr >= r.base && a.addr < r.base + r.len);
                assert!(
                    covered,
                    "{kind:?}: access {:#x} outside declared regions",
                    { a.addr }
                );
            }
        }
    }

    #[test]
    fn per_packet_insns_stay_under_proven_ceiling() {
        for kind in NfKind::ALL {
            let mut nf = small_nf(kind);
            let la = launch_analysis(nf.as_ref());
            let ceiling = analyze(&la.program, &la.manifest)
                .insn_ceiling
                .expect("ceiling");
            for pkt in traffic() {
                let mut sink = RecordingSink::new();
                let _ = nf.process(&pkt, &mut sink);
                let spent: u64 = sink.accesses().iter().map(|a| u64::from(a.insns)).sum();
                assert!(
                    spent <= ceiling,
                    "{kind:?}: spent {spent} insns > proven ceiling {ceiling}"
                );
            }
        }
    }

    #[test]
    fn ceilings_fit_admission_limits_with_paper_configs() {
        // The per-kind admission limits must hold at paper scale, not
        // just the small test builds (DPI checked via its small build's
        // identical depth bound: synth patterns are 4-30 bytes at every
        // scale).
        for kind in NfKind::ALL {
            let nf = small_nf(kind);
            let la = launch_analysis(nf.as_ref());
            let report = analyze(&la.program, &la.manifest);
            let ceiling = report.insn_ceiling.expect("ceiling");
            assert!(
                ceiling <= la.manifest.max_insns_per_packet,
                "{kind:?}: ceiling {ceiling} exceeds limit {}",
                la.manifest.max_insns_per_packet
            );
        }
    }

    #[test]
    fn ir_digest_tracks_nf_configuration() {
        let small = DpiNf::with_small(1);
        let smaller = DpiNf::new(&crate::dpi::synth_patterns(100, 1));
        assert_ne!(
            small.dataflow_ir().digest(),
            smaller.dataflow_ir().digest(),
            "different automata must change the IR digest"
        );
        let fw_a = FirewallNf::with_defaults(1);
        let fw_b = FirewallNf::with_defaults(2);
        assert_eq!(
            fw_a.dataflow_ir().digest(),
            fw_b.dataflow_ir().digest(),
            "same shape, same digest regardless of rule contents"
        );
    }
}
