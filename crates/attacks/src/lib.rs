//! The concrete attacks of §3.3, runnable against both device modes.
//!
//! Each attack is written once and executed against a commodity NIC
//! (where it must *succeed*, reproducing the paper's proof-of-concept)
//! and against an S-NIC (where the identical code must be stopped by the
//! hardware isolation). The same run records what the attack did and
//! lints the recording with Pass 2 of `snic-verify` ([`traced`]), so one
//! run gives both the verdict and the findings. The five attacks:
//!
//! - [`packet_corruption`]: a malicious NF walks the shared buffer
//!   allocator's metadata, finds a MazuNAT victim's packet buffers, and
//!   corrupts headers in place (LiquidIO, SE-S mode),
//! - [`ruleset_theft`]: a malicious NF locates and exfiltrates another
//!   function's DPI ruleset from DRAM (LiquidIO),
//! - [`bus_dos`]: a tight-loop bus flood saturates the internal IO bus
//!   and hard-crashes the NIC (Agilio `test_subsat`),
//! - [`watermark`]: the §4.5 flow-watermarking channel — an attacker
//!   imprints a bit pattern onto a victim's timing through bus
//!   contention; temporal partitioning destroys it,
//! - [`nicos_tamper`]: the datacenter-provided NIC OS itself reads and
//!   patches a tenant function's memory (what §4.2's denylist stops).
//!
//! [`corpus`] restates the same taxonomy one layer earlier: each attack's
//! essential behaviour as a dataflow-IR submission that the Pass 0 static
//! analyzer must reject — with a pinned stable violation code — before
//! `nf_launch` touches any hardware state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus_dos;
pub mod corpus;
pub mod nicos_tamper;
pub mod packet_corruption;
pub mod ruleset_theft;
pub mod traced;
pub mod watermark;

pub use bus_dos::run_bus_dos;
pub use corpus::{adversarial_corpus, CorpusEntry};
pub use nicos_tamper::run_nicos_tamper;
pub use packet_corruption::run_packet_corruption;
pub use ruleset_theft::run_ruleset_theft;
pub use traced::{lint_all, TracedScenario};
pub use watermark::run_watermark;

use rand::SeedableRng;
use snic_core::alloc::{BufferAllocator, BufferMeta, META_SLOTS};
use snic_core::config::{NicConfig, NicMode};
use snic_core::device::SmartNic;
use snic_core::instr::{LaunchRequest, NfImage};
use snic_crypto::keys::VendorCa;
use snic_mem::guard::Principal;
use snic_pktio::rules::SwitchRule;
use snic_types::{ByteSize, CoreId, NfId};
use snic_verify::Finding;

/// Result of one attack run.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Mode the attack ran against.
    pub mode: NicMode,
    /// Whether the attack achieved its goal.
    pub succeeded: bool,
    /// Human-readable evidence.
    pub evidence: String,
    /// What Pass 2 flagged in this run's own recording of the attack.
    pub findings: Vec<Finding>,
}

impl AttackOutcome {
    fn new(
        mode: NicMode,
        succeeded: bool,
        evidence: impl Into<String>,
        findings: Vec<Finding>,
    ) -> AttackOutcome {
        AttackOutcome {
            mode,
            succeeded,
            evidence: evidence.into(),
            findings,
        }
    }
}

/// Run the attack suite against `mode`: the paper's three §3.3 attacks
/// plus the NIC-OS tampering attack its §4.2 denylist exists to stop.
pub fn run_all(mode: NicMode) -> Vec<AttackOutcome> {
    vec![
        run_packet_corruption(mode),
        run_ruleset_theft(mode),
        run_bus_dos(mode),
        run_nicos_tamper(mode),
    ]
}

/// A fresh `NicConfig::small` device in `mode`, its vendor CA drawn from
/// `seed`.
fn fresh_nic(mode: NicMode, seed: u64) -> SmartNic {
    let vendor = VendorCa::new(&mut rand::rngs::StdRng::seed_from_u64(seed));
    SmartNic::new(NicConfig::small(mode), &vendor)
}

/// Launch `code || config` on `core` with `mib` MiB of memory, steering
/// the switch `rules` to it.
fn launch(
    nic: &mut SmartNic,
    core: u16,
    mib: u64,
    code: &[u8],
    config: Vec<u8>,
    rules: Vec<SwitchRule>,
) -> NfId {
    let image = NfImage {
        code: code.to_vec(),
        config,
    };
    let mut request = LaunchRequest::minimal(CoreId(core), ByteSize::mib(mib), image);
    request.rules = rules;
    // Cannot fail: a scenario launches at most two functions of ≤ 8 MiB,
    // on cores 0 and 1, into a fresh 4-core, 256 MiB small device.
    nic.nf_launch(request).expect("scenario launch").nf_id
}

/// The §3.3 discovery step: `attacker` walks the shared buffer
/// allocator's metadata table slot by slot and keeps `victim`'s live
/// packet buffers (`packets`) or its other buffers. On an S-NIC the first
/// slot read is refused, so the walk ends there with nothing.
fn victim_buffers(
    nic: &SmartNic,
    attacker: Principal,
    victim: NfId,
    packets: bool,
) -> Vec<BufferMeta> {
    (0..META_SLOTS)
        .map_while(|slot| BufferAllocator::read_slot(nic.guard_ref(), attacker, slot).ok())
        .filter(|m| m.owner == victim && m.in_use() && m.is_packet() == packets && m.len > 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_attacks_succeed_on_commodity() {
        for outcome in run_all(NicMode::Commodity) {
            assert!(
                outcome.succeeded,
                "commodity should be vulnerable: {outcome:?}"
            );
        }
    }

    #[test]
    fn all_attacks_fail_on_snic() {
        for outcome in run_all(NicMode::Snic) {
            assert!(
                !outcome.succeeded,
                "S-NIC should block the attack: {outcome:?}"
            );
        }
    }
}
