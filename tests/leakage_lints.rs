//! Cross-check: the leakage matrix and the Pass 2 trace linters agree
//! (ISSUE 9 satellite).
//!
//! Two independent subsystems judge the same engine runs: the
//! `snic-leakage` decoder measures capacity end-to-end, and
//! `snic-verify`'s Pass 2 lints flag the enabling contention patterns
//! in the recorded trace. They must never disagree about whether a
//! channel exists — a commodity point with positive measured capacity
//! must show at least one finding on its own trace, and every S-NIC
//! point must lint clean no matter what the sender transmits.

use snic::leakage::channel::{machine_config, receiver_stream, sender_stream};
use snic::leakage::{payload_bits, Channel, ChannelFamily, Confusion, Geometry};
use snic::telemetry::NullSink;
use snic::types::{NfId, NicMode};
use snic::uarch::bus::EPOCH_CYCLES;
use snic::uarch::stream::{EventSource, SharedReplayStream};
use snic::uarch::{run_reference, RecordedTrace};
use snic::verify::trace::{TraceBundle, TraceLinter};

const GEOM: Geometry = Geometry {
    ways: 16,
    sets: 512,
};
/// The device's own epoch, so the machine's temporal bus and the
/// linter's solo replay (`snic_verify::bus_arbiter`) run one schedule.
const EPOCH: u64 = EPOCH_CYCLES;

/// The linter for a `mode` device, judging cache traces against the
/// machine's claimed L2 discipline.
fn linter_for(mode: NicMode) -> TraceLinter {
    let cfg = machine_config(GEOM, EPOCH, mode);
    let mb = 1u64 << 20;
    let domains = vec![
        (0x0800_0000, 2 * mb, NfId(1)),
        (0x0800_0000 + 2 * mb, 2 * mb, NfId(2)),
    ];
    TraceLinter::new(mode, Vec::new(), domains).with_cache(cfg.l2, cfg.l2_partition.clone())
}

/// Record the colocated run of `family` transmitting `bit` under `mode`
/// and lint the very trace that run produced.
fn lint_transmission(
    family: ChannelFamily,
    bit: bool,
    mode: NicMode,
) -> Vec<snic::verify::report::Finding> {
    let cfg = machine_config(GEOM, EPOCH, mode);
    let streams = [
        receiver_stream(family, GEOM),
        sender_stream(family, bit, GEOM),
    ]
    .into_iter()
    .map(|v| EventSource::from(SharedReplayStream::new(v.into())))
    .collect();
    let mut trace = RecordedTrace::default();
    run_reference(&cfg, streams, &[], &NullSink, &mut trace);
    linter_for(mode).lint(&TraceBundle::from_uarch(&trace))
}

/// Measure the channel's capacity the same way the matrix does.
fn capacity(family: ChannelFamily, mode: NicMode) -> f64 {
    let ch = Channel::new(family, GEOM, EPOCH, mode);
    let mut conf = Confusion::default();
    for bit in payload_bits(0x1ea6_c0de, 16) {
        conf.record(bit, ch.transmit(bit).decoded);
    }
    conf.mutual_information()
}

#[test]
fn commodity_capacity_implies_pass2_findings() {
    for family in ChannelFamily::ALL {
        let mi = capacity(family, NicMode::Commodity);
        assert!(
            mi > 0.0,
            "{family:?}: commodity channel on an exploitable geometry must carry bits"
        );
        let findings = lint_transmission(family, true, NicMode::Commodity);
        assert!(
            !findings.is_empty(),
            "{family:?}: measured {mi:.3} bits/use but Pass 2 found nothing on the trace"
        );
    }
}

#[test]
fn snic_points_lint_clean_for_both_payloads() {
    for family in ChannelFamily::ALL {
        assert_eq!(
            capacity(family, NicMode::Snic),
            0.0,
            "{family:?}: S-NIC capacity must be exactly zero"
        );
        for bit in [false, true] {
            let findings = lint_transmission(family, bit, NicMode::Snic);
            assert!(
                findings.is_empty(),
                "{family:?} bit {bit}: S-NIC trace must lint clean, got {findings:#?}"
            );
        }
    }
}

/// The linters see the *pattern*, not the payload: a 0-bit commodity
/// cache run (sender stays off the probed sets) must not raise the
/// co-residency finding the 1-bit run raises.
#[test]
fn lint_findings_track_the_transmitted_bit_on_the_cache_channel() {
    let findings = lint_transmission(ChannelFamily::Cache, false, NicMode::Commodity);
    assert!(
        findings.is_empty(),
        "0-bit cache sender must leave no co-residency signal, got {findings:#?}"
    );
}
