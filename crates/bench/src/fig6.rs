//! Figure 6: trusted-instruction execution latency per NF.
//!
//! Launch each evaluation NF on an S-NIC sized to its Table 6 memory
//! profile and report the latency breakdowns of `nf_launch` and
//! `nf_destroy` (plus `nf_attest`, which is size-independent).

use rand::SeedableRng;
use snic_core::config::{NicConfig, NicMode};
use snic_core::device::SmartNic;
use snic_core::instr::{LaunchLatency, LaunchRequest, NfImage, TeardownLatency};
use snic_crypto::keys::VendorCa;
use snic_nf::{paper_profile, NfKind};
use snic_types::{ByteSize, CoreId};

use crate::{render_table, Scale};

/// One NF's measured instruction latencies.
#[derive(Debug, Clone)]
pub struct InstrLatencies {
    /// Which NF.
    pub kind: NfKind,
    /// Memory footprint used for the launch.
    pub memory: ByteSize,
    /// `nf_launch` breakdown.
    pub launch: LaunchLatency,
    /// `nf_teardown` breakdown.
    pub teardown: TeardownLatency,
}

/// Run the experiment for all six NFs.
///
/// Each NF launches on its own freshly built device, so the six
/// measurements are independent and fan across the worker pool; the
/// result order still follows [`NfKind::ALL`].
pub fn run() -> Vec<InstrLatencies> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xf16);
    let vendor = VendorCa::new(&mut rng);
    snic_sim::par_map(NfKind::ALL.to_vec(), |kind| {
        let memory = paper_profile(kind).total();
        let mut nic = SmartNic::new(
            NicConfig {
                dram: ByteSize::gib(2),
                ..NicConfig::small(NicMode::Snic)
            },
            &vendor,
        );
        let receipt = nic
            .nf_launch(LaunchRequest::minimal(
                CoreId(0),
                memory,
                NfImage {
                    code: vec![0x90; 4096],
                    config: vec![0x42; 1024],
                },
            ))
            .expect("launch");
        let teardown = nic.nf_teardown(receipt.nf_id).expect("teardown");
        InstrLatencies {
            kind,
            memory,
            launch: receipt.latency,
            teardown: teardown.latency,
        }
    })
}

/// Figure 6 as text: one latency-breakdown row per NF.
pub fn report(_: &Scale, _: bool) -> Result<String, String> {
    let rows: Vec<Vec<String>> = run()
        .into_iter()
        .map(|r| {
            vec![
                r.kind.name().to_string(),
                format!("{:.2}", r.memory.as_mib_f64()),
                format!("{:.4}", r.launch.tlb_setup.as_millis_f64()),
                format!("{:.4}", r.launch.denylisting.as_millis_f64()),
                format!("{:.4}", r.launch.sha_digest.as_millis_f64()),
                format!("{:.4}", r.launch.total().as_millis_f64()),
                format!("{:.4}", r.teardown.allowlisting.as_millis_f64()),
                format!("{:.4}", r.teardown.scrub.as_millis_f64()),
                format!("{:.4}", r.teardown.total().as_millis_f64()),
            ]
        })
        .collect();
    let mut out = render_table(
        "Figure 6: nf_launch / nf_destroy latency (ms) — paper: digest dominates launch (LB 29.62ms, Mon 763.52ms); scrub is 99.99% of destroy (2.11-54.23ms)",
        &["NF", "mem MB", "tlb+cfg", "denylist", "sha", "launch total", "allowlist", "scrub", "destroy total"],
        &rows,
    );
    out.push_str("nf_attest: 5.596 ms RSA + 0.004 ms SHA (size-independent, paper 5.6 ms)\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_dominates_both_instructions() {
        let rows = run();
        let mon = rows.iter().find(|r| r.kind == NfKind::Monitor).unwrap();
        let lb = rows
            .iter()
            .find(|r| r.kind == NfKind::LoadBalancer)
            .unwrap();
        assert!(mon.launch.total().0 > 10 * lb.launch.total().0);
        assert!(mon.launch.sha_digest > lb.launch.sha_digest);
        assert!(mon.teardown.scrub > lb.teardown.scrub);
    }

    #[test]
    fn launch_latencies_match_appendix_c() {
        let rows = run();
        // LB: digest ≈ 29.62 ms, total launch well under 50 ms.
        let lb = rows
            .iter()
            .find(|r| r.kind == NfKind::LoadBalancer)
            .unwrap();
        let digest_ms = lb.launch.sha_digest.as_millis_f64();
        assert!((digest_ms - 29.62).abs() < 1.0, "{digest_ms} ms");
        // Monitor: digest ≈ 763 ms, scrub ≈ 54 ms.
        let mon = rows.iter().find(|r| r.kind == NfKind::Monitor).unwrap();
        assert!((mon.launch.sha_digest.as_millis_f64() - 763.52).abs() < 15.0);
        assert!((mon.teardown.scrub.as_millis_f64() - 54.23).abs() < 4.0);
    }

    #[test]
    fn fixed_costs_are_size_independent() {
        let rows = run();
        for w in rows.windows(2) {
            assert_eq!(w[0].launch.tlb_setup, w[1].launch.tlb_setup);
            assert_eq!(w[0].launch.denylisting, w[1].launch.denylisting);
            assert_eq!(w[0].teardown.allowlisting, w[1].teardown.allowlisting);
        }
    }
}
