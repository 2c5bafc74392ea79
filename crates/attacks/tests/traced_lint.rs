//! The tentpole acceptance test for `snic-verify`'s Pass 2: lint every
//! attack scenario's own recording.
//!
//! Commodity mode must light up at least one finding per scenario — the
//! enabling pattern of each §3.3 attack is visible in the trace. S-NIC
//! mode must lint completely clean for the *identical* scenario code:
//! every access the linter would flag is either refused by the hardware
//! (and refusals are not findings) or decoupled from co-tenants by
//! temporal/spatial partitioning.

use snic_attacks::traced::lint_all;
use snic_core::config::NicMode;
use snic_verify::FindingKind;

#[test]
fn no_scenario_flagged_on_snic() {
    for scenario in lint_all(NicMode::Snic) {
        assert!(
            scenario.findings.is_empty(),
            "S-NIC trace of `{}` must lint clean, got {:?}",
            scenario.name,
            scenario.findings
        );
    }
}

#[test]
fn commodity_findings_name_the_expected_patterns() {
    let scenarios = lint_all(NicMode::Commodity);
    assert_eq!(scenarios.len(), 6);
    let kinds_of = |name: &str| -> Vec<FindingKind> {
        scenarios
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("scenario {name} missing"))
            .findings
            .iter()
            .map(|f| f.kind)
            .collect()
    };
    // The two memory attacks walk the allocator metadata *and* reach
    // into the victim's buffers.
    for name in ["packet_corruption", "ruleset_theft"] {
        let kinds = kinds_of(name);
        assert!(
            kinds.contains(&FindingKind::AllocatorMetadataWalk),
            "{name}: {kinds:?}"
        );
        assert!(
            kinds.contains(&FindingKind::CrossDomainReference),
            "{name}: {kinds:?}"
        );
    }
    // The NIC OS reaches into tenant memory.
    assert!(kinds_of("nicos_tamper").contains(&FindingKind::CrossDomainReference));
    // Both bus scenarios couple the victim's grant times to the attacker.
    assert!(kinds_of("bus_dos").contains(&FindingKind::BusInterference));
    assert!(kinds_of("watermark").contains(&FindingKind::BusInterference));
    // Prime+Probe observes co-tenant evictions.
    assert!(kinds_of("cache_probe").contains(&FindingKind::CacheSetCoResidency));
}
