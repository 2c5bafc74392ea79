//! Attack 2: DPI ruleset stealing (§3.3).
//!
//! "We wrote a malicious function which uses xkphys to steal the ruleset
//! belonging to another function; to locate the ruleset, the malicious
//! function iterated through the metadata of the buffer allocator. This
//! kind of information leak is damaging because it allows a malicious
//! function to learn which threat signatures a target application is
//! using."

use snic_core::config::NicMode;
use snic_mem::guard::Principal;
use snic_nf::dpi::synth_patterns;
use snic_types::CoreId;

use crate::traced::lint_memory_of;
use crate::{fresh_nic, launch, victim_buffers, AttackOutcome};

/// Serialize a pattern list the way the victim's config blob stores it:
/// `count: u32 | (len: u16 | bytes)*`.
pub fn serialize_ruleset(patterns: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(patterns.len() as u32).to_le_bytes());
    for p in patterns {
        out.extend_from_slice(&(p.len() as u16).to_le_bytes());
        out.extend_from_slice(p);
    }
    out
}

/// Parse a serialized ruleset (what the thief does with stolen bytes).
pub fn parse_ruleset(data: &[u8]) -> Option<Vec<Vec<u8>>> {
    let count = u32::from_le_bytes(data.get(0..4)?.try_into().ok()?) as usize;
    let mut out = Vec::with_capacity(count);
    let mut i = 4usize;
    for _ in 0..count {
        let len = u16::from_le_bytes(data.get(i..i + 2)?.try_into().ok()?) as usize;
        i += 2;
        out.push(data.get(i..i + len)?.to_vec());
        i += len;
    }
    Some(out)
}

/// Execute the attack against a freshly built device in `mode`.
pub fn run_ruleset_theft(mode: NicMode) -> AttackOutcome {
    let mut nic = fresh_nic(mode, 0xd91);

    // The victim DPI function's threat signatures live in its config blob.
    let secret_patterns = synth_patterns(200, 0x5ec2e7);
    let ruleset = serialize_ruleset(&secret_patterns);
    let victim = launch(&mut nic, 0, 8, b"dpi-engine", ruleset, vec![]);
    let attacker = launch(&mut nic, 1, 4, b"thief", vec![], vec![]);

    // --- The attack, recorded: find the victim's image buffer in the
    // allocator metadata and read the ruleset out of DRAM. ---
    nic.start_audit();
    let me = Principal::Nf(attacker, CoreId(1));
    let mut stolen: Option<Vec<Vec<u8>>> = None;
    for meta in victim_buffers(&nic, me, victim, false) {
        // The image is code || config; skip the code prefix.
        let code_len = b"dpi-engine".len() as u64;
        let mut buf = vec![0u8; meta.len.saturating_sub(code_len) as usize];
        if nic.mem_read(me, meta.base + code_len, &mut buf).is_ok() {
            stolen = parse_ruleset(&buf);
        }
    }
    let findings = lint_memory_of(&mut nic);

    let succeeded = stolen.as_deref() == Some(&secret_patterns[..]);
    AttackOutcome::new(
        mode,
        succeeded,
        match &stolen {
            Some(p) => format!("exfiltrated {} signatures; match={}", p.len(), succeeded),
            None => "no ruleset recovered".to_string(),
        },
        findings,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializer_round_trips() {
        let pats = synth_patterns(50, 1);
        assert_eq!(parse_ruleset(&serialize_ruleset(&pats)).unwrap(), pats);
    }

    #[test]
    fn parser_rejects_truncation() {
        let pats = synth_patterns(10, 2);
        let blob = serialize_ruleset(&pats);
        assert!(parse_ruleset(&blob[..blob.len() - 3]).is_none());
        assert!(parse_ruleset(&[1]).is_none());
    }

    #[test]
    fn commodity_ruleset_stolen_exactly() {
        let o = run_ruleset_theft(NicMode::Commodity);
        assert!(o.succeeded, "{o:?}");
        assert!(o.evidence.contains("exfiltrated 200 signatures"));
    }

    #[test]
    fn snic_ruleset_unreachable() {
        let o = run_ruleset_theft(NicMode::Snic);
        assert!(!o.succeeded, "{o:?}");
        assert_eq!(o.evidence, "no ruleset recovered");
    }
}
