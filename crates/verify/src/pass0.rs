//! Pass 0: static program analysis of the NF's dataflow IR.
//!
//! Passes 1–3 trust the NF *program* blindly — they prove the allocation
//! sound and lint what the program was observed to do. Pass 0 closes the
//! gap before launch: `snic-analyze` abstractly interprets the submitted
//! IR and proves every reachable load/store confined, information flow
//! contained, and per-packet instruction count bounded. This module is
//! the thin adapter that runs the analyzer and folds its output into the
//! verifier's typed [`Violation`] stream, so `snicctl verify --json` and
//! `nf_launch` see one uniform report across all passes.

use snic_analyze::{analyze, AnalysisReport, AnalysisViolationKind, LaunchAnalysis};
use snic_types::NfId;

use crate::report::{Violation, ViolationKind};

/// Map an analyzer violation kind onto the verifier's unified enum. The
/// stable `P0-*` codes are identical on both sides (asserted in tests);
/// this keeps one `code()` namespace for all four passes.
pub fn map_kind(kind: AnalysisViolationKind) -> ViolationKind {
    match kind {
        AnalysisViolationKind::OobLoad => ViolationKind::OobLoad,
        AnalysisViolationKind::OobStore => ViolationKind::OobStore,
        AnalysisViolationKind::DmaOverflow => ViolationKind::DmaOverflow,
        AnalysisViolationKind::TaintLeak => ViolationKind::TaintLeak,
        AnalysisViolationKind::UngrantedRegion => ViolationKind::UngrantedRegion,
        AnalysisViolationKind::UngrantedAccel => ViolationKind::UngrantedAccel,
        AnalysisViolationKind::UnboundedLoop => ViolationKind::UnboundedLoop,
        AnalysisViolationKind::InsnCeiling => ViolationKind::InsnCeiling,
        AnalysisViolationKind::MalformedIr => ViolationKind::MalformedIr,
        AnalysisViolationKind::FixpointBudget => ViolationKind::FixpointBudget,
    }
}

/// The outcome of Pass 0 for one NF: the raw analyzer report plus the
/// violations re-attributed into the verifier's namespace.
#[derive(Debug, Clone)]
pub struct Pass0Outcome {
    /// The analyzer's full report (certificate, ceiling, step count).
    pub report: AnalysisReport,
    /// The same violations as unified verifier [`Violation`]s.
    pub violations: Vec<Violation>,
}

impl Pass0Outcome {
    /// True if the program verified clean (a certificate was issued).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Digest of the analysis certificate, all-zero when rejected.
    /// `nf_attest` binds this into its quotes so a remote verifier can
    /// distinguish "proved confined" from "launched anyway".
    pub fn certificate_digest(&self) -> [u8; 32] {
        self.report
            .certificate
            .as_ref()
            .map(|c| c.digest())
            .unwrap_or([0u8; 32])
    }
}

/// Run Pass 0 over one launch submission, attributing violations to
/// `nf`. This is what `nf_launch` calls before reserving any resource.
pub fn analyze_launch(nf: NfId, submission: &LaunchAnalysis) -> Pass0Outcome {
    let report = analyze(&submission.program, &submission.manifest);
    let violations = report
        .violations
        .iter()
        .map(|v| Violation {
            kind: map_kind(v.kind),
            nf: Some(nf),
            range: None,
            detail: v.detail.clone(),
        })
        .collect();
    Pass0Outcome { report, violations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snic_analyze::{AnalysisManifest, ProgramBuilder, RegionClass};

    fn clean_submission() -> LaunchAnalysis {
        let mut b = ProgramBuilder::new("unit-nf");
        let pkt = b.region("pkt", 0x1000, 0x100, RegionClass::PacketBuf);
        let v = b.load(pkt, snic_analyze::Operand::Imm(0), 8, 10);
        b.emit(snic_analyze::Operand::Reg(v), 5);
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
        let v = b.load(pkt, snic_analyze::Operand::Imm(0x100), 8, 10);
        b.emit(snic_analyze::Operand::Reg(v), 5);
        sub.program = b.finish();
        sub
    }

    #[test]
    fn codes_agree_across_the_pass_boundary() {
        use AnalysisViolationKind as A;
        for kind in [
            A::OobLoad,
            A::OobStore,
            A::DmaOverflow,
            A::TaintLeak,
            A::UngrantedRegion,
            A::UngrantedAccel,
            A::UnboundedLoop,
            A::InsnCeiling,
            A::MalformedIr,
            A::FixpointBudget,
        ] {
            assert_eq!(kind.code(), map_kind(kind).code(), "{kind:?}");
        }
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
