//! The analysis certificate: the durable record that Pass 0 proved a
//! program confined to a manifest. Its digest is folded into `nf_attest`
//! quotes (Appendix A), so a remote verifier learns not just *what*
//! launched but that the device statically proved it isolated first.

use std::fmt;

use snic_crypto::sha256::{sha256, to_hex};

/// A clean Pass 0 verdict, binding the program, the manifest it was
/// proven against, and the per-packet instruction ceiling the loop pass
/// established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisCertificate {
    /// SHA-256 of the program's canonical IR encoding.
    pub program_digest: [u8; 32],
    /// SHA-256 of the analysis manifest.
    pub manifest_digest: [u8; 32],
    /// Proven per-packet instruction ceiling.
    pub insn_ceiling: u64,
}

impl AnalysisCertificate {
    /// SHA-256 over the certificate contents; this is the value that
    /// travels in attestation quotes.
    pub fn digest(&self) -> [u8; 32] {
        let mut buf = Vec::with_capacity(32 + 32 + 8 + 24);
        buf.extend_from_slice(b"snic-analysis-cert-v1");
        buf.extend_from_slice(&self.program_digest);
        buf.extend_from_slice(&self.manifest_digest);
        buf.extend_from_slice(&self.insn_ceiling.to_le_bytes());
        sha256(&buf)
    }
}

impl fmt::Display for AnalysisCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cert(program={}, manifest={}, ceiling={} insns)",
            to_hex(&self.program_digest[..4]),
            to_hex(&self.manifest_digest[..4]),
            self.insn_ceiling
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_covers_every_field() {
        let base = AnalysisCertificate {
            program_digest: [1; 32],
            manifest_digest: [2; 32],
            insn_ceiling: 1000,
        };
        let mut other = base;
        other.program_digest[0] = 9;
        assert_ne!(base.digest(), other.digest());
        let mut other = base;
        other.manifest_digest[0] = 9;
        assert_ne!(base.digest(), other.digest());
        let mut other = base;
        other.insn_ceiling = 1001;
        assert_ne!(base.digest(), other.digest());
        assert_eq!(base.digest(), base.digest());
    }

    #[test]
    fn display_is_compact() {
        let c = AnalysisCertificate {
            program_digest: [0xab; 32],
            manifest_digest: [0xcd; 32],
            insn_ceiling: 42,
        };
        let s = c.to_string();
        assert!(s.contains("abababab"), "{s}");
        assert!(s.contains("42 insns"), "{s}");
    }
}
