//! Isolation properties of the device model: the op driver (`op_driver`)
//! over launches, teardowns, traffic, DMA, accelerator use, bus floods
//! and foreign reads on an S-NIC, with every §4 invariant checked after
//! each op; an S-NIC function's virtual writes never leave its region;
//! and a commodity NIC lets one function read another's memory.

mod op_driver;

use proptest::prelude::*;
use rand::SeedableRng;
use snic::core::config::{NicConfig, NicMode};
use snic::core::device::SmartNic;
use snic::core::instr::{LaunchRequest, NfImage};
use snic::crypto::keys::VendorCa;
use snic::mem::guard::Principal;
use snic::types::{ByteSize, CoreId};

use op_driver::{op_strategy, Driver, Op};

fn nic(mode: NicMode) -> SmartNic {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x150);
    SmartNic::new(NicConfig::small(mode), &VendorCa::new(&mut rng))
}

/// The driver's ops narrowed to what one tenant can aim at another:
/// no crashes, armed faults, power events or clock jumps.
fn isolation_op() -> impl Strategy<Value = Op> {
    op_strategy().prop_filter("an isolation op", |op| {
        !matches!(
            op,
            Op::FaultNf(_)
                | Op::Arm(_)
                | Op::PowerLossTeardown(_)
                | Op::ResumeScrubs
                | Op::PowerCycle
                | Op::Advance(_)
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn snic_invariants_hold_under_random_sequences(
        ops in proptest::collection::vec(isolation_op(), 1..40),
    ) {
        Driver::new(NicMode::Snic).run(&ops)?;
    }

    #[test]
    fn nf_writes_never_escape_their_region(
        mem_mib in 2u8..10,
        offsets in proptest::collection::vec(0u64..32 << 20, 1..20),
    ) {
        let mut device = nic(NicMode::Snic);
        let receipt = device
            .nf_launch(LaunchRequest::minimal(
                CoreId(0),
                ByteSize::mib(u64::from(mem_mib)),
                NfImage::default(),
            ))
            .unwrap();
        let region = ByteSize::mib(u64::from(mem_mib)).align_up(2 << 20).bytes();
        for off in offsets {
            let result = device.nf_write(receipt.nf_id, CoreId(0), off, b"y");
            if off < region {
                prop_assert!(result.is_ok(), "in-region write at {off} failed");
            } else {
                prop_assert!(result.is_err(), "out-of-region write at {off} allowed");
            }
        }
    }
}

#[test]
fn commodity_mode_is_permissive_by_contrast() {
    // Sanity inversion: the same foreign read that S-NIC blocks succeeds
    // on commodity hardware.
    let mut device = nic(NicMode::Commodity);
    let a = device
        .nf_launch(LaunchRequest::minimal(
            CoreId(0),
            ByteSize::mib(4),
            NfImage::default(),
        ))
        .unwrap()
        .nf_id;
    let b = device
        .nf_launch(LaunchRequest::minimal(
            CoreId(1),
            ByteSize::mib(4),
            NfImage::default(),
        ))
        .unwrap()
        .nf_id;
    let victim_base = device.record_of(a).unwrap().region.0;
    let mut buf = [0u8; 8];
    device
        .mem_read(Principal::Nf(b, CoreId(1)), victim_base, &mut buf)
        .unwrap();
}

/// §4.6: on a downed device every op but the ones it always serves
/// answers `NicCrashed` and changes nothing (the op driver's
/// pre-dispatch check, one op of each kind).
#[test]
fn a_downed_device_refuses_every_gated_op() {
    op_driver::downed_device_refuses_every_gated_op(NicMode::Snic).unwrap();
}
