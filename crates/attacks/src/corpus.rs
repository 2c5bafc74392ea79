//! Adversarial NF programs for Pass 0 (§3.3 as dataflow IR).
//!
//! The §3.3 attacks in this crate run *dynamically* against the device
//! model and are stopped (or not) by hardware mechanisms. This module
//! restates each attack's essential memory behaviour as a dataflow IR
//! submission, so the static analyzer must reject it **before launch** —
//! the same taxonomy, one layer earlier. Every entry pins the exact
//! stable violation code the analyzer must produce; `scripts/lint.sh
//! analyze` fails CI on any drift.

use snic_nf::common::layout;
use snic_nf::NfKind;
use snic_types::AccelKind;
use snic_verify::pass0::{
    AnalysisManifest, LaunchAnalysis, Operand, ProgramBuilder, RegionClass, Taint, Terminator,
};

/// One adversarial submission and the verdict Pass 0 must reach.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Short stable name (used by the lint gate and reports).
    pub name: &'static str,
    /// The §3.3 behaviour this program distills.
    pub description: &'static str,
    /// The exact stable code the analyzer must emit. Part of the
    /// external interface: tests compare verbatim.
    pub expected_code: &'static str,
    /// The program + claimed envelope, as `nf_launch` would receive it.
    pub submission: LaunchAnalysis,
}

/// The granted envelope every corpus program claims: the firewall's
/// paper manifest (three VA windows, no accelerators, no DMA window).
fn envelope() -> AnalysisManifest {
    snic_nf::analysis_manifest(NfKind::Firewall)
}

/// Packet-buffer window length as granted by [`envelope`].
fn pktbuf_len() -> u64 {
    let m = envelope();
    // Cannot fail: the firewall's paper manifest is constant and grants
    // its packet-buffer window at `PKTBUF_BASE`.
    m.regions
        .iter()
        .find(|&&(b, _)| b == layout::PKTBUF_BASE)
        .map(|&(_, l)| l)
        .expect("envelope grants the packet-buffer window")
}

/// §3.3 ruleset theft, step 1: probe reads indexed past the packet
/// buffer to scan adjacent DRAM for a victim's data structures.
fn oob_probe() -> LaunchAnalysis {
    let len = pktbuf_len();
    let mut b = ProgramBuilder::new("atk-oob-probe");
    let pkt = b.region("pktbuf", layout::PKTBUF_BASE, len, RegionClass::PacketBuf);
    // Attacker-controlled scan index: can reach one byte past the
    // window, so the 8-byte load provably escapes.
    let idx = b.havoc(0, len, Taint::PACKET, 2);
    let v = b.load(pkt, Operand::Reg(idx), 8, 10);
    b.emit(Operand::Reg(v), 5);
    LaunchAnalysis {
        program: b.finish(),
        manifest: envelope(),
    }
}

/// §3.3 packet corruption: write packet-derived bytes into another
/// tenant's buffer (a region the manifest does not grant).
fn taint_leak() -> LaunchAnalysis {
    let mut b = ProgramBuilder::new("atk-taint-leak");
    let pkt = b.region(
        "pktbuf",
        layout::PKTBUF_BASE,
        pktbuf_len(),
        RegionClass::PacketBuf,
    );
    // The victim's packet buffers, located via the allocator walk.
    let victim = b.region("victim-pktbuf", 0x8000_0000, 0x1_0000, RegionClass::Foreign);
    let payload = b.load(pkt, Operand::Imm(0), 8, 10);
    b.store(victim, Operand::Imm(0x40), Operand::Reg(payload), 8, 10);
    b.emit(Operand::Imm(0), 5);
    LaunchAnalysis {
        program: b.finish(),
        manifest: envelope(),
    }
}

/// Agilio `test_subsat` distilled: a packet-processing loop with no
/// provable trip bound (the bus-flood loop never exits).
fn unbounded_loop() -> LaunchAnalysis {
    let mut b = ProgramBuilder::new("atk-unbounded-loop");
    let pkt = b.region(
        "pktbuf",
        layout::PKTBUF_BASE,
        pktbuf_len(),
        RegionClass::PacketBuf,
    );
    let body = b.add_block();
    let done = b.add_block();
    b.terminate(Terminator::Jump(body));
    b.select(body);
    let v = b.load(pkt, Operand::Imm(0), 8, 10);
    b.emit(Operand::Reg(v), 5);
    // Back edge with no loop_bound: the flood spins forever.
    b.terminate(Terminator::Branch(vec![body, done]));
    b.select(done);
    b.terminate(Terminator::Return);
    LaunchAnalysis {
        program: b.finish(),
        manifest: envelope(),
    }
}

/// A DMA descriptor whose transfer length is packet-controlled, so the
/// host write can provably exceed the sanctioned window (§4.2).
fn dma_overflow() -> LaunchAnalysis {
    let mut b = ProgramBuilder::new("atk-dma-overflow");
    let pkt = b.region(
        "pktbuf",
        layout::PKTBUF_BASE,
        pktbuf_len(),
        RegionClass::PacketBuf,
    );
    // Attacker-controlled DMA length straight from the wire.
    let len = b.havoc(0, 0x1_0000, Taint::PACKET, 2);
    b.dma(pkt, Operand::Imm(0), Operand::Reg(len), 20);
    b.emit(Operand::Imm(0), 5);
    let mut manifest = envelope();
    // The host sanctions a 4 KiB window over the packet buffer; the
    // 64 KiB-capable transfer provably escapes it.
    manifest.dma_window = Some((layout::PKTBUF_BASE, 0x1000));
    LaunchAnalysis {
        program: b.finish(),
        manifest,
    }
}

/// A submission to an accelerator family the manifest never granted
/// (§4.3 exclusive assignment, checked statically).
fn ungranted_accel() -> LaunchAnalysis {
    let mut b = ProgramBuilder::new("atk-ungranted-accel");
    b.accel(AccelKind::Crypto, Operand::Imm(0), 15);
    b.emit(Operand::Imm(0), 5);
    LaunchAnalysis {
        program: b.finish(),
        manifest: envelope(),
    }
}

/// A bounded but enormous per-packet loop: the proven instruction
/// ceiling exceeds the admission limit (compute-DoS, §3.3 bus DoS in
/// instruction-budget form).
fn insn_ceiling() -> LaunchAnalysis {
    let mut b = ProgramBuilder::new("atk-insn-ceiling");
    let pkt = b.region(
        "pktbuf",
        layout::PKTBUF_BASE,
        pktbuf_len(),
        RegionClass::PacketBuf,
    );
    let body = b.add_block();
    let done = b.add_block();
    b.terminate(Terminator::Jump(body));
    b.select(body);
    let v = b.load(pkt, Operand::Imm(0), 8, 100);
    b.emit(Operand::Reg(v), 5);
    b.terminate(Terminator::Branch(vec![body, done]));
    // Bounded, but 10^6 iterations of 105 insns dwarfs any admission
    // limit the paper NFs run under.
    b.loop_bound(body, 1_000_000);
    b.select(done);
    b.terminate(Terminator::Return);
    LaunchAnalysis {
        program: b.finish(),
        manifest: envelope(),
    }
}

/// The seeded adversarial corpus: every §3.3 behaviour as an IR
/// submission, with the exact code Pass 0 must reject it under.
pub fn adversarial_corpus() -> Vec<CorpusEntry> {
    vec![
        CorpusEntry {
            name: "oob-probe",
            description: "ruleset theft step 1: indexed reads past the packet buffer",
            expected_code: "P0-OOB-LOAD",
            submission: oob_probe(),
        },
        CorpusEntry {
            name: "cross-tenant-taint-leak",
            description: "packet corruption: packet-derived store into a victim's buffer",
            expected_code: "P0-TAINT-LEAK",
            submission: taint_leak(),
        },
        CorpusEntry {
            name: "unbounded-loop",
            description: "bus flood: packet loop with no provable trip bound",
            expected_code: "P0-UNBOUNDED-LOOP",
            submission: unbounded_loop(),
        },
        CorpusEntry {
            name: "dma-overflow",
            description: "host smash: packet-controlled DMA length past the sanctioned window",
            expected_code: "P0-DMA-OVERFLOW",
            submission: dma_overflow(),
        },
        CorpusEntry {
            name: "ungranted-accel",
            description: "accelerator squat: submission to a family never granted",
            expected_code: "P0-ACCEL-UNGRANTED",
            submission: ungranted_accel(),
        },
        CorpusEntry {
            name: "insn-ceiling",
            description: "compute DoS: bounded loop whose proven ceiling exceeds admission",
            expected_code: "P0-INSN-CEILING",
            submission: insn_ceiling(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use snic_verify::pass0::analyze;

    #[test]
    fn every_corpus_entry_rejected_with_its_exact_code() {
        for entry in adversarial_corpus() {
            let report = analyze(&entry.submission.program, &entry.submission.manifest);
            assert!(
                !report.is_clean(),
                "{} must be rejected, got: {report}",
                entry.name
            );
            let codes: Vec<&str> = report.violations.iter().map(|v| v.kind.code()).collect();
            assert!(
                codes.contains(&entry.expected_code),
                "{}: expected {} among {codes:?}",
                entry.name,
                entry.expected_code
            );
            assert!(
                report.certificate.is_none(),
                "{}: no certificate",
                entry.name
            );
        }
    }

    #[test]
    fn corpus_names_and_codes_are_distinct() {
        let corpus = adversarial_corpus();
        let names: std::collections::HashSet<&str> = corpus.iter().map(|e| e.name).collect();
        let codes: std::collections::HashSet<&str> =
            corpus.iter().map(|e| e.expected_code).collect();
        assert_eq!(names.len(), corpus.len());
        assert_eq!(codes.len(), corpus.len());
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = adversarial_corpus();
        let b = adversarial_corpus();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.submission.program.digest(), y.submission.program.digest());
            assert_eq!(
                x.submission.manifest.digest(),
                y.submission.manifest.digest()
            );
        }
    }

    #[test]
    fn paper_nfs_stay_clean_under_the_same_analyzer() {
        // The corpus proves the analyzer rejects; this proves it still
        // admits — both directions of the §3.3 boundary.
        for kind in [
            NfKind::Firewall,
            NfKind::Nat,
            NfKind::LoadBalancer,
            NfKind::Monitor,
        ] {
            let nf = snic_nf::build(kind, 7);
            let sub = snic_nf::launch_analysis(nf.as_ref());
            let report = analyze(&sub.program, &sub.manifest);
            assert!(report.is_clean(), "{kind:?}: {report}");
        }
    }
}
