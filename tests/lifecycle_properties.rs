//! Lifecycle properties under fault interleavings, run by the op driver
//! (`op_driver`) in both personalities: launches and teardowns
//! interleaved with function crashes, armed faults, power loss
//! mid-scrub, scrub resumption and full power cycles. `SmartNic::check`
//! holds after every op — the free list stays sorted, coalesced and
//! disjoint from every region awaiting its scrub — and a relaunched
//! S-NIC region reads back zeroed even when the previous tenant's scrub
//! was cut by power loss.

mod op_driver;

use proptest::prelude::*;
use snic::core::config::NicMode;
use snic::core::instr::{LaunchRequest, NfImage};
use snic::types::{ByteSize, CoreId, SnicError};

use op_driver::{op_strategy, Driver, Op, FAULTS};

const MODES: [NicMode; 2] = [NicMode::Commodity, NicMode::Snic];

/// The driver's ops narrowed to the lifecycle and its faults.
fn lifecycle_op() -> impl Strategy<Value = Op> {
    op_strategy().prop_filter("a lifecycle op", |op| {
        matches!(
            op,
            Op::Launch { .. }
                | Op::Teardown(_)
                | Op::FaultNf(_)
                | Op::Arm(_)
                | Op::PowerLossTeardown(_)
                | Op::ResumeScrubs
                | Op::PowerCycle
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn lifecycle_invariants_hold_under_fault_interleavings(
        ops in proptest::collection::vec(lifecycle_op(), 1..40),
    ) {
        for mode in MODES {
            Driver::new(mode).run(&ops)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 160, ..ProptestConfig::default() })]

    /// However a run ended, one power cycle yields a device that admits
    /// a full-size tenant again.
    #[test]
    fn power_cycle_always_restores_a_quiescent_device(
        ops in proptest::collection::vec(op_strategy(), 1..32),
    ) {
        for mode in MODES {
            let mut driver = Driver::new(mode);
            driver.run(&ops)?;
            // Armed faults still pending may interrupt a cycle's scrubs
            // or refuse a launch once each; every cycle makes progress.
            let full = || LaunchRequest::minimal(CoreId(0), ByteSize::mib(64), NfImage::default());
            let mut launch = Err(SnicError::NicCrashed);
            for _ in 0..FAULTS.len() * ops.len() + 2 {
                driver.run(&[Op::PowerCycle])?;
                if driver.nic.is_crashed() {
                    continue;
                }
                prop_assert!(driver.nic.pending_scrubs().is_empty());
                launch = driver.nic.nf_launch(full());
                if !matches!(launch, Err(SnicError::Transient(_) | SnicError::PowerLoss)) {
                    break;
                }
            }
            prop_assert!(launch.is_ok(), "{:?}: post-cycle launch failed: {:?}", mode, launch.err());
            prop_assert_eq!(driver.nic.check(), Ok(()));
        }
    }

}

/// §4.6: on a downed device every op but the ones it always serves
/// answers `NicCrashed` and changes nothing (the op driver's
/// pre-dispatch check, one op of each kind).
#[test]
fn a_downed_device_refuses_every_gated_op() {
    for mode in MODES {
        op_driver::downed_device_refuses_every_gated_op(mode).unwrap();
    }
}
