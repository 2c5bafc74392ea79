//! Pass 0: static program analysis of the NF's dataflow IR.
//!
//! Passes 1–4 trust the NF *program* blindly: they prove the allocation
//! sound and lint what the program was observed to do. Pass 0 closes the
//! gap before launch. A network function is submitted as a small
//! dataflow IR ([`NfProgram`], built in [`crate::ir`]) with the envelope
//! it claims ([`LaunchAnalysis`]), and the abstract-interpretation
//! engine ([`analyze`], in [`crate::engine`] over [`crate::domain`])
//! proves, before `nf_launch` touches any hardware state, that every
//! load and store lands inside the granted regions (a worklist fixpoint
//! over an interval domain), that no packet- or state-derived value
//! reaches another tenant's region, an ungranted accelerator or the host
//! bus outside the DMA window (a per-tenant taint lattice), and that
//! per-packet instruction count is bounded (a loop-bound pass over the
//! CFG's back edges). Its verdicts are the verifier's own
//! [`crate::Violation`]s with stable `P0-*` codes. A clean analysis
//! issues a [`crate::certificate::AnalysisCertificate`] whose digest
//! `nf_attest` binds into its quotes.

pub use crate::domain::Taint;
pub use crate::engine::{analyze, AnalysisManifest};
pub use crate::ir::{NfProgram, Operand, ProgramBuilder, RegionClass, RegionId, Terminator};

use snic_types::NfId;

/// A complete Pass 0 submission: the program and the manifest the tenant
/// claims it is confined to. This is what travels in a `LaunchRequest`.
#[derive(Debug, Clone)]
pub struct LaunchAnalysis {
    /// The NF's dataflow IR.
    pub program: NfProgram,
    /// The claimed resource envelope the analysis proves against.
    pub manifest: AnalysisManifest,
}

/// Run Pass 0 over one launch submission, attributing violations to
/// `nf`. This is what `nf_launch` calls before reserving any resource.
pub fn analyze_launch(nf: NfId, submission: &LaunchAnalysis) -> crate::engine::AnalysisReport {
    let mut report = analyze(&submission.program, &submission.manifest);
    for v in &mut report.violations {
        v.nf = Some(nf);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_submission() -> LaunchAnalysis {
        let mut b = ProgramBuilder::new("unit-nf");
        let pkt = b.region("pkt", 0x1000, 0x100, RegionClass::PacketBuf);
        let v = b.load(pkt, Operand::Imm(0), 8, 10);
        b.emit(Operand::Reg(v), 5);
        LaunchAnalysis {
            program: b.finish(),
            manifest: AnalysisManifest {
                regions: vec![(0x1000, 0x100)],
                accel: vec![],
                dma_window: None,
                max_insns_per_packet: 100,
            },
        }
    }

    fn oob_submission() -> LaunchAnalysis {
        let mut sub = clean_submission();
        let mut b = ProgramBuilder::new("oob-nf");
        let pkt = b.region("pkt", 0x1000, 0x100, RegionClass::PacketBuf);
        // 8-byte load at offset 0x100 ends at 0x108 > 0x100.
        let v = b.load(pkt, Operand::Imm(0x100), 8, 10);
        b.emit(Operand::Reg(v), 5);
        sub.program = b.finish();
        sub
    }

    #[test]
    fn clean_program_yields_certificate_digest() {
        let out = analyze_launch(NfId(1), &clean_submission());
        assert!(out.is_clean());
        assert_ne!(out.certificate_digest(), [0u8; 32]);
    }

    #[test]
    fn rejected_program_attributes_nf_and_zeroes_digest() {
        let out = analyze_launch(NfId(7), &oob_submission());
        assert!(!out.is_clean());
        assert_eq!(out.certificate_digest(), [0u8; 32]);
        assert_eq!(out.violations[0].nf, Some(NfId(7)));
        assert_eq!(out.violations[0].code(), "P0-OOB-LOAD");
    }
}
