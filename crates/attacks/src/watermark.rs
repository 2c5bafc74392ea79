//! Watermark attack via packet-flow interference (§4.5).
//!
//! "In concert with VPP hardware reservations, temporal partitioning
//! eliminates watermark attacks that leverage packet flow interference
//! [Bates et al.]." In a watermarking attack, an adversary imprints a
//! timing pattern onto a victim's flow by modulating contention on a
//! shared resource; a colluding observer recovers the pattern downstream
//! and uses it to link flows across the network.
//!
//! Model: the attacker encodes a bit string by alternately flooding and
//! idling the IO bus in fixed windows; the victim issues a steady stream
//! of bus requests; the observer thresholds the victim's per-window mean
//! grant delay to decode bits. Under FCFS arbitration the watermark
//! transfers with perfect fidelity; under temporal partitioning the
//! victim's delays are independent of the attacker, so decoding collapses
//! to chance.

use snic_core::config::NicMode;
use snic_uarch::bus::BusArbiter;
use snic_verify::{BusGrantEvent, Finding, TraceLinter};

use crate::traced::{record_grant, synthetic_spec};

/// Cycles per watermark bit window.
const WINDOW_CYCLES: u64 = 4_000;
/// Victim request cadence within a window.
const VICTIM_PERIOD: u64 = 200;
/// Victim transfer size in cycles.
pub(crate) const VICTIM_BEAT: u64 = 16;
/// Attacker transfer size (keeps the bus busy when flooding).
pub(crate) const ATTACKER_BEAT: u64 = 90;

/// Imprint `watermark` through `arbiter` and decode it from the victim's
/// delays; returns the decoded bits and every grant `arbiter` issued, in
/// issue order.
fn transmit_watermark(
    arbiter: &mut BusArbiter,
    watermark: &[bool],
) -> (Vec<bool>, Vec<BusGrantEvent>) {
    let mut grants = Vec::new();
    let mut window_delays: Vec<f64> = Vec::with_capacity(watermark.len());
    for (w, &bit) in watermark.iter().enumerate() {
        let window = w as u64 * WINDOW_CYCLES..(w as u64 + 1) * WINDOW_CYCLES;
        // Attacker: saturate the bus during '1' windows. Issue the flood
        // slightly ahead of the victim's requests so FCFS queues behind it.
        if bit {
            for t in window.clone().step_by(ATTACKER_BEAT as usize) {
                record_grant(arbiter, &mut grants, 1, t, ATTACKER_BEAT);
            }
        }
        // Victim: steady cadence; record mean grant delay.
        let mut total_delay = 0u64;
        let mut requests = 0u64;
        for t in window.step_by(VICTIM_PERIOD as usize) {
            total_delay += record_grant(arbiter, &mut grants, 0, t, VICTIM_BEAT) - t;
            requests += 1;
        }
        window_delays.push(total_delay as f64 / requests as f64);
    }
    // Observer: threshold at the midpoint of the observed delay range.
    let min = window_delays.iter().copied().fold(f64::MAX, f64::min);
    let max = window_delays.iter().copied().fold(f64::MIN, f64::max);
    let threshold = (min + max) / 2.0;
    let decoded = if (max - min).abs() < 1.0 {
        // No signal at all: decode everything as zero.
        vec![false; watermark.len()]
    } else {
        window_delays.iter().map(|&d| d > threshold).collect()
    };
    (decoded, grants)
}

/// Fraction of watermark bits recovered correctly.
fn fidelity(watermark: &[bool], decoded: &[bool]) -> f64 {
    let correct = watermark
        .iter()
        .zip(decoded)
        .filter(|(a, b)| a == b)
        .count();
    correct as f64 / watermark.len() as f64
}

/// The test pattern used by the demo (an alternating-ish 24-bit string).
fn test_pattern() -> Vec<bool> {
    (0..24).map(|i| (i * 7 + 3) % 5 < 2).collect()
}

/// Run the watermark attack over the bus a device in `mode` has (FCFS on
/// a commodity NIC, temporal partitioning under S-NIC); returns the
/// fraction of the pattern the observer decodes and what Pass 2 flags in
/// the grants that carried it.
pub fn run_watermark(mode: NicMode) -> (f64, Vec<Finding>) {
    let pattern = test_pattern();
    let spec = synthetic_spec(mode);
    let (decoded, grants) = transmit_watermark(&mut spec.bus.arbiter(2), &pattern);
    let findings = TraceLinter::new(&spec, Vec::new()).lint_bus(&grants);
    (fidelity(&pattern, &decoded), findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snic_verify::{BusSpec, FindingKind};

    #[test]
    fn fcfs_transfers_the_watermark_perfectly() {
        let (fcfs, findings) = run_watermark(NicMode::Commodity);
        assert!(fcfs > 0.95, "FCFS watermark fidelity {fcfs}");
        // The same run's grants show the victim delayed by the attacker.
        assert!(
            findings
                .iter()
                .any(|f| f.kind == FindingKind::BusInterference),
            "{findings:?}"
        );
    }

    #[test]
    fn temporal_partitioning_destroys_the_watermark() {
        // Fidelity collapses to chance: the victim's residual delay
        // variation comes from its own epoch phase, not the attacker.
        let (fcfs, _) = run_watermark(NicMode::Commodity);
        let (temporal, findings) = run_watermark(NicMode::Snic);
        assert!(
            temporal < 0.7,
            "temporal fidelity {temporal} should be ~chance"
        );
        assert!(
            fcfs - temporal > 0.25,
            "partitioning must destroy the channel"
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn temporal_victim_delays_are_attacker_independent() {
        // The stronger property: the victim's delay sequence is
        // bit-for-bit identical whether the attacker sends the watermark
        // or stays silent.
        let observe = |pattern: &[bool]| -> Vec<u64> {
            let bus = BusSpec::Temporal { epoch: 96 };
            let (_, grants) = transmit_watermark(&mut bus.arbiter(2), pattern);
            grants
                .iter()
                .filter(|g| g.domain == 0)
                .map(|g| g.granted - g.ready)
                .collect()
        };
        let with_mark = observe(&test_pattern());
        let silent = observe(&vec![false; test_pattern().len()]);
        assert_eq!(with_mark, silent);
    }

    #[test]
    fn fidelity_metric_sane() {
        let a = vec![true, false, true];
        assert!((fidelity(&a, &a) - 1.0).abs() < 1e-12);
        assert!((fidelity(&a, &[false, true, false]) - 0.0).abs() < 1e-12);
    }
}
