//! NIC-OS tampering: the attack §4.2's denylist exists to stop.
//!
//! The paper's threat model trusts nobody on the management plane: "a
//! function's code and data are still accessible to the hypervisor
//! itself" in the traditional model, and even BlueField "does not
//! isolate a network function from the secure-world management OS"
//! (§3.2). Here the *datacenter-provided NIC OS itself* is the
//! adversary: after launching a tenant's function it tries to (a) read
//! the function's in-memory state (e.g. TLS keys) and (b) patch the
//! function's code.
//!
//! On a commodity NIC the management core has full physical access and
//! both succeed. Under S-NIC, `nf_launch` installed a denylist entry for
//! every page of the function, so both are refused — and teardown's
//! scrub means even the *freed* pages reveal nothing.

use snic_core::config::NicMode;
use snic_mem::guard::Principal;
use snic_types::CoreId;

use crate::traced::lint_memory_of;
use crate::{fresh_nic, launch, AttackOutcome};

/// The tenant's secret, 0x1000 bytes into its region.
const SECRET: &[u8; 22] = b"TLS-PRIVATE-KEY-0xA1B2";

/// Execute the attack against a freshly built device in `mode`.
pub fn run_nicos_tamper(mode: NicMode) -> AttackOutcome {
    let mut nic = fresh_nic(mode, 0x0517);

    // The tenant's function holds a secret in its private memory.
    let nf = launch(&mut nic, 0, 4, b"tls-terminator", vec![], vec![]);
    nic.nf_write(nf, CoreId(0), 0x1000, SECRET).ok();
    // Cannot fail: `nf` was launched just above and is live.
    let (base, _) = nic.record_of(nf).expect("live").region;
    // Commodity mode has no NF-virtual addressing; plant the secret the
    // way a commodity NF would: directly in its physical region.
    if mode == NicMode::Commodity {
        // Cannot fail: trusted hardware may write anywhere in bounds.
        nic.mem_write(Principal::TrustedHardware, base + 0x1000, SECRET)
            .expect("plant secret");
    }

    // --- The attack, recorded. ---
    nic.start_audit();
    // (a) The NIC OS reads the function's memory.
    let mut stolen = [0u8; 22];
    let read_ok = nic
        .mem_read(Principal::Management, base + 0x1000, &mut stolen)
        .is_ok()
        && &stolen == SECRET;

    // (b) The NIC OS patches the function's code page.
    let patch_ok = nic
        .mem_write(Principal::Management, base, b"evil-jump")
        .is_ok();
    // Linted before teardown: the OS's reads of the scrubbed, freed
    // pages in (c) are legitimately granted.
    let findings = lint_memory_of(&mut nic);

    // (c) After teardown, the OS scavenges the freed pages for residue.
    // Cannot fail: `nf` is live and no fault is armed.
    nic.nf_teardown(nf).expect("teardown");
    let mut residue = [0u8; 22];
    // Cannot fail: teardown lifts the denylist from the freed pages.
    nic.mem_read(Principal::Management, base + 0x1000, &mut residue)
        .expect("freed pages readable");
    let residue_found = &residue == SECRET;

    let succeeded = read_ok || patch_ok || residue_found;
    AttackOutcome::new(
        mode,
        succeeded,
        format!(
            "state_read={read_ok} code_patched={patch_ok} residue_after_teardown={residue_found}"
        ),
        findings,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commodity_nicos_owns_everything() {
        let o = run_nicos_tamper(NicMode::Commodity);
        assert!(o.succeeded, "{o:?}");
        assert!(o.evidence.contains("state_read=true"));
        assert!(o.evidence.contains("code_patched=true"));
        assert!(o.evidence.contains("residue_after_teardown=true"), "{o:?}");
    }

    #[test]
    fn snic_locks_out_its_own_os() {
        let o = run_nicos_tamper(NicMode::Snic);
        assert!(!o.succeeded, "{o:?}");
        assert!(o.evidence.contains("state_read=false"));
        assert!(o.evidence.contains("code_patched=false"));
        assert!(o.evidence.contains("residue_after_teardown=false"));
    }
}
