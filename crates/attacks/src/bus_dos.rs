//! Attack 3: IO-bus denial of service (§3.3).
//!
//! "On the Agilio, we ran a function which sat in a tight loop,
//! repeatedly issuing a test_subsat instruction to decrement a semaphore
//! in DRAM. The function saturated the bus and caused the NIC to
//! hard-crash, requiring a power cycle to recover."
//!
//! Under S-NIC, the temporal bus arbiter (§4.5) confines the flood to
//! the attacker's own epochs: the NIC stays alive, the victim keeps
//! receiving packets, and — quantified with the uarch arbiters — the
//! victim's bus grants are bit-for-bit identical with and without the
//! flood.

use snic_core::config::NicMode;
use snic_pktio::rules::{RuleMatch, SwitchRule};
use snic_types::packet::PacketBuilder;
use snic_types::{NfId, Protocol, SnicError};
use snic_uarch::bus::EPOCH_CYCLES;
use snic_verify::{BusSpec, TraceLinter};

use crate::traced::record_grant;
use crate::watermark::{ATTACKER_BEAT, VICTIM_BEAT};
use crate::{fresh_nic, launch, AttackOutcome};

/// Execute the attack against a freshly built device in `mode`.
pub fn run_bus_dos(mode: NicMode) -> AttackOutcome {
    let mut nic = fresh_nic(mode, 0xd05);

    // Victim NF receiving port-443 traffic.
    let port_443 = SwitchRule {
        dst_port: RuleMatch::Exact(443),
        priority: 5,
        ..SwitchRule::any(NfId(0))
    };
    let victim = launch(&mut nic, 0, 4, b"victim", vec![], vec![port_443]);
    let attacker = launch(&mut nic, 1, 4, b"test_subsat loop", vec![], vec![]);

    // The tight loop: issue bus operations until crash or give-up.
    let mut crashed = false;
    for _ in 0..40 {
        if let Err(SnicError::NicCrashed) = nic.bus_flood(attacker, 10_000_000) {
            crashed = true;
            break;
        }
    }

    // The flood as the device's bus arbiter sees it, recorded for Pass 2:
    // the attacker (domain 1) asks for the bus every 10 cycles while the
    // victim (domain 0) issues a sparse request stream.
    let spec = nic.device_spec();
    let mut arbiter = spec.bus.arbiter(2);
    let mut grants = Vec::new();
    let mut victim_ready = 5u64;
    for i in 0..200u64 {
        record_grant(&mut arbiter, &mut grants, 1, i * 10, ATTACKER_BEAT);
        if i.is_multiple_of(8) {
            record_grant(&mut arbiter, &mut grants, 0, victim_ready, VICTIM_BEAT);
            victim_ready += 150;
        }
    }
    let findings = TraceLinter::new(&spec, Vec::new()).lint_bus(&grants);

    // Can the victim still receive traffic?
    let pkt = PacketBuilder::new(1, 2, Protocol::Tcp, 1000, 443).build();
    let victim_alive = matches!(nic.rx_packet(&pkt), Ok(Some(nf)) if nf == victim)
        && matches!(nic.poll_packet(victim), Ok(Some(_)));

    let succeeded = crashed && !victim_alive;
    AttackOutcome::new(
        mode,
        succeeded,
        format!("crashed={crashed} victim_alive={victim_alive}"),
        findings,
    )
}

/// Quantify the victim's bus-grant times with and without the flood, for
/// both arbiters (the §4.5 non-interference experiment).
///
/// Returns `(fcfs_delta, temporal_delta)`: the added grant latency (in
/// cycles) the flood inflicts on the victim's first request.
pub fn flood_latency_impact() -> (u64, u64) {
    let (ready, duration) = (100u64, 16u64); // The victim's one request.
    let delta = |bus: BusSpec| {
        let base = bus.arbiter(2).grant(0, ready, duration);
        let mut noisy = bus.arbiter(2);
        for i in 0..1000 {
            let _ = noisy.grant(1, i, 90);
        }
        noisy.grant(0, ready, duration) - base
    };
    (
        delta(BusSpec::Fcfs),
        delta(BusSpec::Temporal {
            epoch: EPOCH_CYCLES,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use snic_verify::FindingKind;

    #[test]
    fn commodity_nic_hard_crashes() {
        let o = run_bus_dos(NicMode::Commodity);
        assert!(o.succeeded, "{o:?}");
        assert!(o.evidence.contains("crashed=true"));
        assert!(o.evidence.contains("victim_alive=false"));
        // The same run's FCFS grants couple the victim to the flood.
        assert!(
            o.findings
                .iter()
                .any(|f| f.kind == FindingKind::BusInterference),
            "{o:?}"
        );
    }

    #[test]
    fn snic_survives_and_victim_keeps_receiving() {
        let o = run_bus_dos(NicMode::Snic);
        assert!(!o.succeeded, "{o:?}");
        assert!(o.evidence.contains("crashed=false"));
        assert!(o.evidence.contains("victim_alive=true"));
        assert!(o.findings.is_empty(), "{o:?}");
    }

    #[test]
    fn temporal_arbiter_removes_flood_latency() {
        let (fcfs, temporal) = flood_latency_impact();
        assert!(fcfs > 0, "FCFS victim must suffer under flood ({fcfs})");
        assert_eq!(temporal, 0, "temporal victim must be unaffected");
    }

    #[test]
    fn power_cycle_recovers_commodity_nic() {
        let mut nic = fresh_nic(NicMode::Commodity, 1);
        let nf = launch(&mut nic, 0, 4, b"", vec![], vec![]);
        while nic.bus_flood(nf, 30_000_000).is_ok() {}
        assert!(nic.is_crashed());
        nic.power_cycle();
        assert!(!nic.is_crashed());
        // The NIC works again (but lost all functions).
        assert_eq!(nic.live_nfs(), 0);
    }
}
