//! The op driver (`op_driver`) over its full op mix, in both
//! personalities: random sequences of every op run against a commodity
//! NIC and an S-NIC, and `SmartNic::check` must hold after every op;
//! then the edge-case literal traces the random mix rarely draws.

mod op_driver;

use proptest::prelude::*;
use snic::core::config::NicMode;

use op_driver::{op_strategy, Driver, Op, Place};

const MODES: [NicMode; 2] = [NicMode::Commodity, NicMode::Snic];

fn run_both(ops: &[Op]) -> Result<(), TestCaseError> {
    for mode in MODES {
        Driver::new(mode).run(ops)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 160, ..ProptestConfig::default() })]

    #[test]
    fn check_holds_after_every_op_in_both_modes(
        ops in proptest::collection::vec(op_strategy(), 1..96),
    ) {
        run_both(&ops)?;
    }
}

fn launch(core: u8, vpp: u8, place: Place) -> Op {
    Op::Launch {
        core,
        mem_mib: 4,
        vpp,
        place,
        host: false,
        crypto: 0,
    }
}

/// A 320-byte PB holds two 142-byte frames' bytes, but under S-NIC
/// their 192-byte slots overrun its five-slot ring: the second would
/// wrap onto the first, still unpolled, and is dropped instead.
#[test]
fn a_320_byte_pb_drops_the_second_142_byte_frame() {
    let frame = Op::Rx {
        slot: 0,
        payload: 100,
    };
    let ops = [
        launch(0, 0, Place::Any),
        frame.clone(),
        frame,
        Op::Poll(0),
        Op::Poll(0),
    ];
    run_both(&ops).unwrap();
}

/// The clock one tick below its end: the last tick is taken, the next
/// is refused, and launch, traffic and teardown still work there.
#[test]
fn the_clock_one_tick_below_its_end() {
    let ops = [
        Op::Advance(u64::MAX - 1),
        Op::Advance(1),
        Op::Advance(1),
        launch(0, 0, Place::Any),
        Op::Rx {
            slot: 0,
            payload: 8,
        },
        Op::Poll(0),
        Op::Teardown(0),
        Op::Advance(0),
    ];
    run_both(&ops).unwrap();
}

/// Launch A, tear it down, relaunch B hinted at A's base; an unhinted
/// launch still finds room, and B's teardown leaves no range on the
/// free list twice.
#[test]
fn a_hinted_relaunch_takes_its_range_off_the_free_list() {
    let launches = [
        launch(0, 0, Place::Any),
        Op::Teardown(0),
        launch(1, 0, Place::Freed(0)),
        launch(2, 0, Place::Any),
        launch(3, 0, Place::AboveBump(2)),
    ];
    for mode in MODES {
        let mut driver = Driver::new(mode);
        driver.run(&launches).unwrap();
        assert_eq!(
            driver.nic.live_nfs(),
            3,
            "{mode:?}: every launch was admitted"
        );
        driver
            .run(&[Op::Teardown(0), Op::Teardown(0), Op::Teardown(0)])
            .unwrap();
        assert_eq!(
            driver.nic.free_regions().len(),
            1,
            "{mode:?}: one coalesced range"
        );
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
