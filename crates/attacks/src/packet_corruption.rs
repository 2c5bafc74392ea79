//! Attack 1: packet corruption against a MazuNAT victim (§3.3).
//!
//! "The malicious function leveraged xkphys to scan the metadata
//! structures belonging to the buffer allocator used by all functions.
//! The metadata allowed the malicious function to discover the buffers
//! allocated to MazuNAT's packets; the malicious function then corrupted
//! the packet headers in those buffers, disrupting the intended NAT
//! translations."

use snic_core::config::NicMode;
use snic_mem::guard::Principal;
use snic_nf::{NatNf, NetworkFunction, NullSink};
use snic_pktio::rules::{RuleMatch, SwitchRule};
use snic_types::packet::PacketBuilder;
use snic_types::{CoreId, NfId, Protocol};

use crate::traced::lint_memory_of;
use crate::{fresh_nic, launch, victim_buffers, AttackOutcome};

/// Execute the attack against a freshly built device in `mode`.
pub fn run_packet_corruption(mode: NicMode) -> AttackOutcome {
    let mut nic = fresh_nic(mode, 0xa77ac1);

    // The MazuNAT victim, with a rule steering port-80 traffic, and the
    // malicious co-tenant.
    let port_80 = SwitchRule {
        dst_port: RuleMatch::Exact(80),
        priority: 10,
        ..SwitchRule::any(NfId(0))
    };
    let victim = launch(&mut nic, 0, 8, b"mazu-nat", vec![], vec![port_80]);
    let attacker = launch(&mut nic, 1, 4, b"malicious", vec![], vec![]);

    // A client packet arrives for the NAT.
    let original = PacketBuilder::new(0x0a00_0001, 0xc633_0001, Protocol::Tcp, 4321, 80)
        .payload(b"client data".to_vec())
        .build();
    // Cannot fail: the port-80 rule steers the frame into the victim's
    // empty RX ring.
    assert_eq!(nic.rx_packet(&original), Ok(Some(victim)));

    // --- The attack, recorded: find the victim's packet buffers in the
    // allocator metadata and flip destination-IP bytes in place. ---
    nic.start_audit();
    let me = Principal::Nf(attacker, CoreId(1));
    let mut corrupted_any = false;
    for meta in victim_buffers(&nic, me, victim, true) {
        // Corrupt the IPv4 destination address (offset 14 + 16).
        let mut bad = [0xffu8; 4];
        if nic.mem_read(me, meta.base + 30, &mut bad).is_ok() {
            for b in &mut bad {
                *b ^= 0xff;
            }
            corrupted_any |= nic.mem_write(me, meta.base + 30, &bad).is_ok();
        }
    }
    // Linted before the victim polls: polling frees the packet buffer,
    // which takes it out of the domain map.
    let findings = lint_memory_of(&mut nic);

    // The victim now polls and runs its NAT over whatever is in DRAM.
    // Cannot fail: the frame `rx_packet` queued above is still there.
    let delivered = nic
        .poll_packet(victim)
        .ok()
        .flatten()
        .expect("queued frame");
    let verdict = NatNf::with_defaults(0).process(&delivered, &mut NullSink);

    // Evidence of disruption: the delivered bytes differ from what was
    // sent, and the header checksum no longer validates.
    let tampered = delivered.data != original.data;
    let checksum_broken = delivered.ipv4().map(|ip| !ip.checksum_ok()).unwrap_or(true);
    let succeeded = corrupted_any && tampered && checksum_broken;
    AttackOutcome::new(
        mode,
        succeeded,
        format!(
            "corrupted_any={corrupted_any} tampered={tampered} \
             checksum_broken={checksum_broken} nat_verdict={verdict:?}"
        ),
        findings,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commodity_nat_translations_disrupted() {
        let o = run_packet_corruption(NicMode::Commodity);
        assert!(o.succeeded, "{o:?}");
        assert!(o.evidence.contains("tampered=true"));
    }

    #[test]
    fn snic_packet_arrives_intact() {
        let o = run_packet_corruption(NicMode::Snic);
        assert!(!o.succeeded, "{o:?}");
        assert!(o.evidence.contains("corrupted_any=false"));
        assert!(o.evidence.contains("tampered=false"));
    }
}
