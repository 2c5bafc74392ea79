//! Pass 2 evidence: what the offline linter makes of each attack's run.
//!
//! Every attack in this crate records what it does while it does it —
//! memory references from the guard's audit log, bus grants as the
//! arbiter issued them — and hands the recording to `snic-verify`'s
//! offline [`TraceLinter`] through the helpers here before it judges its
//! payload, so one run yields both the verdict and the findings. The
//! findings are the evidence:
//!
//! - on a **commodity** device every scenario produces at least one
//!   finding (the enabling pattern of the §3.3 attack is visible in the
//!   trace even before the payload lands),
//! - on an **S-NIC** device the *identical* scenario code produces zero
//!   findings: the granted accesses never cross a domain, the temporal
//!   bus grants match a solo replay, and partitioned cache outcomes are
//!   a pure function of each tenant's own stream.
//!
//! [`lint_all`] collects them per scenario. Prime+Probe
//! ([`traced_cache_probe`]) has no payload to judge and lives here whole.

use snic_core::config::NicMode;
use snic_core::device::SmartNic;
use snic_types::AccelKind;
use snic_uarch::bus::{BusArbiter, EPOCH_CYCLES};
use snic_uarch::cache::{Cache, CacheConfig, Partition};
use snic_verify::{
    BusGrantEvent, BusSpec, CacheAccessEvent, DeviceSpec, EnforcementMode, Finding, TraceBundle,
    TraceLinter,
};

use crate::{
    run_bus_dos, run_nicos_tamper, run_packet_corruption, run_ruleset_theft, run_watermark,
};

/// One scenario's recording, linted.
#[derive(Debug, Clone)]
pub struct TracedScenario {
    /// Scenario name (matches the `run_*` attack it comes from).
    pub name: &'static str,
    /// What the offline linter flagged.
    pub findings: Vec<Finding>,
}

/// A scenario run: device mode in, linter findings out.
type Scenario = fn(NicMode) -> Vec<Finding>;

/// Every scenario, by name, in reporting order.
const SCENARIOS: [(&str, Scenario); 6] = [
    ("packet_corruption", |mode| {
        run_packet_corruption(mode).findings
    }),
    ("ruleset_theft", |mode| run_ruleset_theft(mode).findings),
    ("nicos_tamper", |mode| run_nicos_tamper(mode).findings),
    ("bus_dos", |mode| run_bus_dos(mode).findings),
    ("watermark", |mode| run_watermark(mode).1),
    ("cache_probe", traced_cache_probe),
];

/// Run every scenario against `mode` and collect what the linter flagged.
///
/// Each scenario builds its own device and records in isolation, so the
/// six runs fan across the `snic-sim` worker pool; the reporting order
/// stays fixed.
pub fn lint_all(mode: NicMode) -> Vec<TracedScenario> {
    snic_sim::par_map(SCENARIOS.to_vec(), |(name, scenario)| TracedScenario {
        name,
        findings: scenario(mode),
    })
}

/// Lint whatever the audit log captured since `start_audit`, against the
/// device's own spec and current domain map.
pub(crate) fn lint_memory_of(nic: &mut SmartNic) -> Vec<Finding> {
    let spec = nic.device_spec();
    let domains = nic.security_domains();
    let bundle = TraceBundle {
        memory: nic.take_audit(),
        ..TraceBundle::default()
    };
    TraceLinter::new(&spec, domains).lint(&bundle)
}

/// Ask `arbiter` for the bus on behalf of `domain` and log the grant as
/// the arbiter issued it; returns the cycle the transfer starts.
pub(crate) fn record_grant(
    arbiter: &mut BusArbiter,
    log: &mut Vec<BusGrantEvent>,
    domain: u32,
    ready: u64,
    duration: u64,
) -> u64 {
    let granted = arbiter.grant(domain, ready, duration);
    log.push(BusGrantEvent {
        domain,
        ready,
        duration,
        granted,
    });
    granted
}

/// A hardware inventory for the scenarios that never build a full device
/// (no memory is involved, only arbiter/cache models).
pub(crate) fn synthetic_spec(mode: NicMode) -> DeviceSpec {
    let (mode, bus) = match mode {
        NicMode::Commodity => (EnforcementMode::Commodity, BusSpec::Fcfs),
        NicMode::Snic => (
            EnforcementMode::Snic,
            BusSpec::Temporal {
                epoch: EPOCH_CYCLES,
            },
        ),
    };
    DeviceSpec {
        mode,
        dram: 256 << 20,
        nf_region_base: 0x0800_0000,
        nic_os: Vec::new(),
        cores: 4,
        core_tlb_entries: 512,
        accel: vec![(AccelKind::Crypto, 4)],
        rx_capacity: 8 << 20,
        tx_capacity: 8 << 20,
        bus,
    }
}

/// Prime+Probe under the recorder: the attacker (tenant 1) parks lines
/// in a cache set, the victim (tenant 0) thrashes the same set, the
/// attacker probes for evictions. Commodity shares the cache; S-NIC
/// way-partitions it (§4.5).
pub fn traced_cache_probe(mode: NicMode) -> Vec<Finding> {
    let cfg = CacheConfig {
        size: 1024,
        ways: 4,
        line: 64,
    };
    let partition = match mode {
        NicMode::Commodity => Partition::Shared,
        NicMode::Snic => Partition::StaticWays { tenants: 2 },
    };
    let mut cache = Cache::new(cfg, partition.clone());
    let mut events = Vec::new();
    let stride = cfg.sets() * u64::from(cfg.line);
    let touch = |cache: &mut Cache, tenant: u32, addr: u64, out: &mut Vec<CacheAccessEvent>| {
        let hit = cache.access(tenant, addr);
        out.push(CacheAccessEvent { tenant, addr, hit });
    };
    let prime = u64::from(cfg.ways) / 2;
    for _round in 0..6u64 {
        for w in 0..prime {
            touch(&mut cache, 1, (w + 100) * stride, &mut events);
        }
        for v in 0..prime + 1 {
            touch(&mut cache, 0, (v + 1) * stride, &mut events);
        }
        for w in 0..prime {
            touch(&mut cache, 1, (w + 100) * stride, &mut events);
        }
    }
    let bundle = TraceBundle {
        cache: events,
        ..TraceBundle::default()
    };
    TraceLinter::new(&synthetic_spec(mode), Vec::new())
        .with_cache(cfg, partition)
        .lint(&bundle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snic_verify::FindingKind;

    #[test]
    fn commodity_cache_probe_flagged_and_snic_clean() {
        let fs = traced_cache_probe(NicMode::Commodity);
        assert!(
            fs.iter()
                .any(|f| f.kind == FindingKind::CacheSetCoResidency),
            "{fs:?}"
        );
        assert!(traced_cache_probe(NicMode::Snic).is_empty());
    }
}
