//! Pass 2: offline linting of execution traces for §3.3 attack patterns.
//!
//! The linter consumes three trace streams, all cheap to record during a
//! simulation run:
//!
//! - **memory references** — [`snic_mem::AccessRecord`]s from the memory
//!   guard's audit log,
//! - **bus grants** — [`BusGrantEvent`]s from the arbiter,
//! - **cache accesses** — [`CacheAccessEvent`]s with hit/miss results.
//!
//! Each lint recognizes the *enabling pattern* of one §3.3 attack, not
//! the attack's payload: a trace that merely positions an attacker to
//! observe or corrupt a co-tenant is already a violation of the
//! isolation the paper sets out to provide. Denied accesses
//! (`granted = false`) never produce findings — a refused access is the
//! defense working, which is why the same scenarios run on an S-NIC
//! configuration lint clean.

use std::collections::{BTreeSet, HashMap};

use snic_mem::guard::{AccessKind, AccessRecord, Principal};
use snic_types::NfId;
use snic_uarch::cache::{Cache, CacheConfig, Partition};

use crate::report::{Finding, FindingActor, FindingKind};
use crate::spec::{BusSpec, DeviceSpec};

/// One bus transaction as observed at the arbiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusGrantEvent {
    /// Security domain issuing the request.
    pub domain: u32,
    /// Cycle the request became ready.
    pub ready: u64,
    /// Cycles the transfer occupies the bus.
    pub duration: u64,
    /// Cycle the arbiter actually started the transfer.
    pub granted: u64,
}

/// One cache access with its observed outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccessEvent {
    /// Cache tenant slot.
    pub tenant: u32,
    /// Accessed address.
    pub addr: u64,
    /// Whether the access hit.
    pub hit: bool,
}

/// A full recording of one scenario, ready for linting.
#[derive(Debug, Clone, Default)]
pub struct TraceBundle {
    /// Audited physical memory references.
    pub memory: Vec<AccessRecord>,
    /// Bus grants, in issue order.
    pub bus: Vec<BusGrantEvent>,
    /// Cache accesses, in issue order.
    pub cache: Vec<CacheAccessEvent>,
}

impl TraceBundle {
    /// Adapt a uarch-engine recording ([`snic_uarch::run_reference`]
    /// observed by a `RecordedTrace`) into lintable form. The
    /// engine observes L2 accesses and bus grants but not the memory
    /// guard, so `memory` stays empty.
    pub fn from_uarch(trace: &snic_uarch::RecordedTrace) -> TraceBundle {
        TraceBundle {
            memory: Vec::new(),
            bus: trace
                .bus
                .iter()
                .map(|g| BusGrantEvent {
                    domain: g.domain,
                    ready: g.ready,
                    duration: g.duration,
                    granted: g.granted,
                })
                .collect(),
            cache: trace
                .l2
                .iter()
                .map(|a| CacheAccessEvent {
                    tenant: a.tenant,
                    addr: a.addr,
                    hit: a.hit,
                })
                .collect(),
        }
    }
}

/// Stride of one allocator metadata slot (`snic-core`'s shared buffer
/// allocator writes 32-byte slots; the walk detector counts distinct
/// slots at this granularity).
const META_SLOT_STRIDE: u64 = 32;

/// Distinct metadata slots an NF must touch before its reads count as a
/// *walk* rather than an incidental lookup of its own slot.
const WALK_MIN_SLOTS: usize = 4;

/// Cross-tenant evictions a tenant must observe before the pattern
/// counts as co-residency probing rather than noise.
const CORESIDENCY_MIN_EVICTIONS: usize = 4;

/// The offline trace analyzer.
///
/// `domains` is the ground-truth ownership map — which physical ranges
/// belong to which function — taken from the trusted side (the page
/// ownership bitmap plus the allocator's slot table). `nic_os` marks
/// firmware ranges (notably the allocator metadata table) whose
/// wholesale traversal by an NF is the §3.3 discovery step.
#[derive(Debug, Clone)]
pub struct TraceLinter {
    domains: Vec<(u64, u64, NfId)>,
    nic_os: Vec<(u64, u64)>,
    bus: BusSpec,
    cache: Option<(CacheConfig, Partition)>,
}

impl TraceLinter {
    /// Build a linter from the device spec and the ownership map.
    pub fn new(spec: &DeviceSpec, domains: Vec<(u64, u64, NfId)>) -> TraceLinter {
        TraceLinter {
            domains,
            nic_os: spec.nic_os.clone(),
            bus: spec.bus,
            cache: None,
        }
    }

    /// Supply the cache geometry and the *claimed* sharing discipline so
    /// cache traces can be linted against it.
    pub fn with_cache(mut self, cache: CacheConfig, partition: Partition) -> TraceLinter {
        self.cache = Some((cache, partition));
        self
    }

    /// Run every lint over `bundle` and collect the findings.
    pub fn lint(&self, bundle: &TraceBundle) -> Vec<Finding> {
        let mut out = self.lint_memory(&bundle.memory);
        out.extend(self.lint_bus(&bundle.bus));
        out.extend(self.lint_cache(&bundle.cache));
        out
    }

    /// Owner of any byte in `addr..addr+len`, if the range touches an
    /// owned domain.
    fn owner_of(&self, addr: u64, len: u64) -> Option<NfId> {
        self.domains
            .iter()
            .find(|&&(b, l, _)| addr < b.saturating_add(l) && b < addr.saturating_add(len))
            .map(|&(_, _, nf)| nf)
    }

    /// The NIC-OS range containing `addr`, if any.
    fn nic_os_range(&self, addr: u64) -> Option<(u64, u64)> {
        self.nic_os
            .iter()
            .copied()
            .find(|&(b, l)| addr >= b && addr < b.saturating_add(l))
    }

    /// Memory lints: cross-domain references and allocator-metadata
    /// walks, over *granted* accesses only.
    pub fn lint_memory(&self, trace: &[AccessRecord]) -> Vec<Finding> {
        struct CrossStats {
            count: usize,
            example: (u64, u64),
        }
        let mut cross: HashMap<FindingActor, CrossStats> = HashMap::new();
        // Per-NF distinct metadata slots touched, plus the range they
        // fall in (BTreeSet keeps the example deterministic).
        let mut walks: HashMap<NfId, (BTreeSet<u64>, (u64, u64))> = HashMap::new();

        for r in trace.iter().filter(|r| r.granted) {
            let actor = match r.who {
                Principal::TrustedHardware => continue,
                Principal::Management => FindingActor::Management,
                Principal::Nf(nf, _) => FindingActor::Nf(nf),
            };
            let crossed = match r.who {
                Principal::Nf(nf, _) => self.owner_of(r.addr, r.len).filter(|&o| o != nf),
                _ => self.owner_of(r.addr, r.len),
            };
            if crossed.is_some() {
                let stats = cross.entry(actor).or_insert(CrossStats {
                    count: 0,
                    example: (r.addr, r.len),
                });
                stats.count += 1;
            }
            if let (Principal::Nf(nf, _), AccessKind::Load) = (r.who, r.kind) {
                if let Some(range) = self.nic_os_range(r.addr) {
                    let (slots, _) = walks.entry(nf).or_insert((BTreeSet::new(), range));
                    slots.insert((r.addr - range.0) / META_SLOT_STRIDE);
                }
            }
        }

        let mut out = Vec::new();
        for (actor, stats) in cross {
            out.push(Finding {
                kind: FindingKind::CrossDomainReference,
                actor,
                count: stats.count,
                range: Some(stats.example),
                detail: format!(
                    "{} granted reference(s) into another domain's memory",
                    stats.count
                ),
            });
        }
        for (nf, (slots, range)) in walks {
            if slots.len() >= WALK_MIN_SLOTS {
                out.push(Finding {
                    kind: FindingKind::AllocatorMetadataWalk,
                    actor: FindingActor::Nf(nf),
                    count: slots.len(),
                    range: Some(range),
                    detail: format!("walked {} distinct allocator metadata slots", slots.len()),
                });
            }
        }
        out.sort_by_key(|f| format!("{:?}/{}", f.kind, f.actor));
        out
    }

    /// Bus lint: replay each domain's requests through a *solo* arbiter
    /// of the same discipline and compare grant times. Under temporal
    /// partitioning the grant time is a pure function of the domain's
    /// own traffic, so observed == solo and the lint stays silent; under
    /// FCFS any contention shows up as observed grants later than the
    /// solo replay — the coupling the §3.3 DoS and the watermark covert
    /// channel both exploit.
    ///
    /// Each domain's solo replay is independent (its own fresh arbiter),
    /// so the replays fan across the worker pool; findings come back in
    /// ascending domain order either way.
    pub fn lint_bus(&self, trace: &[BusGrantEvent]) -> Vec<Finding> {
        if trace.is_empty() {
            return Vec::new();
        }
        let domain_count = trace.iter().map(|e| e.domain).max().unwrap_or(0) + 1;
        let mut per_domain: HashMap<u32, Vec<&BusGrantEvent>> = HashMap::new();
        for e in trace {
            per_domain.entry(e.domain).or_default().push(e);
        }
        let mut replays: Vec<(u32, Vec<&BusGrantEvent>)> = per_domain.into_iter().collect();
        replays.sort_unstable_by_key(|(d, _)| *d);
        let findings = snic_sim::par_map(replays, |(d, events)| {
            let mut solo = self.bus.arbiter(domain_count);
            let mut delayed = 0usize;
            let mut total_delay = 0u64;
            let mut example = None;
            for e in events {
                let alone = solo.grant(e.domain, e.ready, e.duration);
                if e.granted > alone {
                    delayed += 1;
                    total_delay += e.granted - alone;
                    example.get_or_insert((e.ready, e.granted - alone));
                }
            }
            (delayed > 0).then(|| Finding {
                kind: FindingKind::BusInterference,
                actor: FindingActor::BusDomain(d),
                count: delayed,
                range: example,
                detail: format!(
                    "{delayed} grant(s) delayed {total_delay} cycle(s) total vs. a solo replay"
                ),
            })
        });
        findings.into_iter().flatten().collect()
    }

    /// Cache lint: replay each tenant's access stream *alone* through a
    /// fresh cache of the claimed discipline and compare hit/miss
    /// outcomes. Under hard way-partitioning a tenant's outcomes are a
    /// pure function of its own stream, so the replay matches exactly
    /// and the lint stays silent — even when the tenant thrashes its own
    /// slice. On a shared cache, co-tenant evictions turn solo-replay
    /// hits into observed misses: the set-co-residency signal that
    /// Prime+Probe reads.
    /// Like the bus lint, each tenant's solo cache replay is independent
    /// (its own fresh cache of the claimed discipline), so replays fan
    /// across the worker pool in ascending tenant order.
    pub fn lint_cache(&self, trace: &[CacheAccessEvent]) -> Vec<Finding> {
        let Some((cfg, partition)) = &self.cache else {
            return Vec::new();
        };
        let mut per_tenant: HashMap<u32, Vec<&CacheAccessEvent>> = HashMap::new();
        for e in trace {
            per_tenant.entry(e.tenant).or_default().push(e);
        }
        let mut replays: Vec<(u32, Vec<&CacheAccessEvent>)> = per_tenant.into_iter().collect();
        replays.sort_unstable_by_key(|(t, _)| *t);
        // A partitioned discipline binds tenant ids to way slices at
        // construction, so a trace event from a tenant the partition
        // does not know is itself a finding: the trace cannot have come
        // from the claimed discipline, and replaying it would either
        // panic (the strict model) or alias into another tenant's slice
        // (the clamping bug this repo's engine rejects). Report such
        // tenants instead of replaying them.
        let domains = match partition {
            Partition::Shared => None,
            Partition::StaticWays { tenants } => Some(*tenants),
            Partition::SecDcp { allocation } => Some(allocation.len() as u32),
        };
        let mut foreign = Vec::new();
        if let Some(n) = domains {
            replays.retain(|(t, events)| {
                if *t < n {
                    return true;
                }
                foreign.push(Finding {
                    kind: FindingKind::ForeignCacheTenant,
                    actor: FindingActor::CacheTenant(*t),
                    count: events.len(),
                    range: events.first().map(|e| (e.addr, u64::from(cfg.line))),
                    detail: format!(
                        "{} access(es) from tenant {t}, outside the claimed \
                         {n}-domain way partition",
                        events.len()
                    ),
                });
                false
            });
        }
        let findings = snic_sim::par_map(replays, |(t, events)| {
            let mut solo = Cache::new(*cfg, partition.clone());
            let mut evicted = 0usize;
            let mut example = None;
            for e in events {
                let alone = solo.access(e.tenant, e.addr);
                if alone && !e.hit {
                    evicted += 1;
                    example.get_or_insert(e.addr);
                }
            }
            (evicted >= CORESIDENCY_MIN_EVICTIONS).then(|| Finding {
                kind: FindingKind::CacheSetCoResidency,
                actor: FindingActor::CacheTenant(t),
                count: evicted,
                range: example.map(|a| (a, u64::from(cfg.line))),
                detail: format!(
                    "{evicted} miss(es) on lines a solo replay keeps resident \
                     (co-tenant evictions)"
                ),
            })
        });
        foreign
            .into_iter()
            .chain(findings.into_iter().flatten())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::EnforcementMode;
    use snic_types::{AccelKind, CoreId};
    use snic_uarch::bus::BusArbiter;
    use snic_uarch::cache::{Cache, Partition};

    const MB: u64 = 1 << 20;
    const BASE: u64 = 0x0800_0000;
    const META: u64 = 0x0010_0000;

    fn spec(bus: BusSpec) -> DeviceSpec {
        DeviceSpec {
            mode: EnforcementMode::Commodity,
            dram: 256 * MB,
            nf_region_base: BASE,
            nic_os: vec![(META, 0x2_0000)],
            cores: 4,
            core_tlb_entries: 8,
            accel: vec![(AccelKind::Crypto, 4)],
            rx_capacity: 8 * MB,
            tx_capacity: 8 * MB,
            bus,
        }
    }

    fn linter(bus: BusSpec) -> TraceLinter {
        TraceLinter::new(
            &spec(bus),
            vec![(BASE, 2 * MB, NfId(1)), (BASE + 2 * MB, 2 * MB, NfId(2))],
        )
    }

    fn rec(who: Principal, addr: u64, kind: AccessKind, granted: bool) -> AccessRecord {
        AccessRecord {
            who,
            addr,
            len: 8,
            kind,
            granted,
        }
    }

    #[test]
    fn cross_domain_reference_flagged() {
        let l = linter(BusSpec::Fcfs);
        let attacker = Principal::Nf(NfId(2), CoreId(1));
        let trace = vec![
            // NF 2 reading its own region: fine.
            rec(attacker, BASE + 2 * MB + 64, AccessKind::Load, true),
            // NF 2 reading NF 1's region: the attack.
            rec(attacker, BASE + 64, AccessKind::Load, true),
            rec(attacker, BASE + 128, AccessKind::Store, true),
        ];
        let fs = l.lint_memory(&trace);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].kind, FindingKind::CrossDomainReference);
        assert_eq!(fs[0].actor, FindingActor::Nf(NfId(2)));
        assert_eq!(fs[0].count, 2);
    }

    #[test]
    fn management_intrusion_flagged_but_trusted_hardware_ignored() {
        let l = linter(BusSpec::Fcfs);
        let trace = vec![
            rec(Principal::Management, BASE + 0x1000, AccessKind::Load, true),
            rec(Principal::TrustedHardware, BASE, AccessKind::Store, true),
            // Management touching unowned scratch memory: fine.
            rec(Principal::Management, 0x0400_0000, AccessKind::Load, true),
        ];
        let fs = l.lint_memory(&trace);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].actor, FindingActor::Management);
        assert_eq!(fs[0].count, 1);
    }

    #[test]
    fn denied_accesses_produce_no_findings() {
        let l = linter(BusSpec::Fcfs);
        let attacker = Principal::Nf(NfId(2), CoreId(1));
        let trace: Vec<AccessRecord> = (0..20)
            .map(|i| rec(attacker, BASE + i * 64, AccessKind::Load, false))
            .chain((0..20).map(|i| rec(attacker, META + i * 32, AccessKind::Load, false)))
            .collect();
        assert!(l.lint_memory(&trace).is_empty());
    }

    #[test]
    fn metadata_walk_flagged_but_single_slot_lookup_is_not() {
        let l = linter(BusSpec::Fcfs);
        let nf = Principal::Nf(NfId(2), CoreId(1));
        // One slot (4 words of the same 32-byte slot): legitimate lookup.
        let lookup: Vec<AccessRecord> = (0..4)
            .map(|i| rec(nf, META + i * 8, AccessKind::Load, true))
            .collect();
        assert!(l.lint_memory(&lookup).is_empty());
        // Twelve distinct slots: a walk.
        let walk: Vec<AccessRecord> = (0..12)
            .map(|i| rec(nf, META + i * 32, AccessKind::Load, true))
            .collect();
        let fs = l.lint_memory(&walk);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].kind, FindingKind::AllocatorMetadataWalk);
        assert_eq!(fs[0].count, 12);
    }

    /// Drive the same request pattern through a real arbiter and lint
    /// the resulting grants.
    fn bus_trace(arbiter: &mut BusArbiter) -> Vec<BusGrantEvent> {
        let mut out = Vec::new();
        // Attacker (domain 1) floods; victim (domain 0) issues sparsely.
        let mut victim_ready = 5u64;
        for i in 0..40u64 {
            let ready = i * 10;
            let granted = arbiter.grant(1, ready, 40);
            out.push(BusGrantEvent {
                domain: 1,
                ready,
                duration: 40,
                granted,
            });
            if i.is_multiple_of(8) {
                let granted = arbiter.grant(0, victim_ready, 8);
                out.push(BusGrantEvent {
                    domain: 0,
                    ready: victim_ready,
                    duration: 8,
                    granted,
                });
                victim_ready += 150;
            }
        }
        out
    }

    #[test]
    fn fcfs_bus_interference_flagged() {
        let l = linter(BusSpec::Fcfs);
        let fs = l.lint_bus(&bus_trace(&mut BusSpec::Fcfs.arbiter(2)));
        assert!(
            fs.iter()
                .any(|f| f.kind == FindingKind::BusInterference
                    && f.actor == FindingActor::BusDomain(0)),
            "victim domain must show interference: {fs:?}"
        );
    }

    #[test]
    fn temporal_bus_lints_clean() {
        let bus = BusSpec::Temporal { epoch: 96 };
        let fs = linter(bus).lint_bus(&bus_trace(&mut bus.arbiter(2)));
        assert!(fs.is_empty(), "temporal grants are solo-identical: {fs:?}");
    }

    /// Prime+Probe against a real cache model: the attacker (tenant 1)
    /// primes a set, the victim (tenant 0) touches it, the attacker
    /// probes.
    fn cache_trace(cache: &mut Cache, cfg: CacheConfig) -> Vec<CacheAccessEvent> {
        let sets = cfg.sets();
        let stride = sets * u64::from(cfg.line); // same set, new tag
        let mut out = Vec::new();
        let touch = |c: &mut Cache, tenant: u32, addr: u64, out: &mut Vec<CacheAccessEvent>| {
            let hit = c.access(tenant, addr);
            out.push(CacheAccessEvent { tenant, addr, hit });
        };
        // The attacker's working set fills half the ways, so it always
        // fits its own slice under 2-tenant way partitioning; the victim
        // thrashes the same set with more lines than the other half.
        let prime = u64::from(cfg.ways) / 2;
        for _round in 0..6u64 {
            // Prime: attacker parks lines in set 0.
            for w in 0..prime {
                touch(cache, 1, (w + 100) * stride, &mut out);
            }
            // Victim activity lands in the same set.
            for v in 0..prime + 1 {
                touch(cache, 0, (v + 1) * stride, &mut out);
            }
            // Probe: attacker re-touches its lines, watching for misses.
            for w in 0..prime {
                touch(cache, 1, (w + 100) * stride, &mut out);
            }
        }
        out
    }

    #[test]
    fn shared_cache_coresidency_flagged() {
        let cfg = CacheConfig {
            size: 1024,
            ways: 4,
            line: 64,
        };
        let l = linter(BusSpec::Fcfs).with_cache(cfg, Partition::Shared);
        let mut cache = Cache::new(cfg, Partition::Shared);
        let fs = l.lint_cache(&cache_trace(&mut cache, cfg));
        assert!(
            fs.iter().any(|f| f.kind == FindingKind::CacheSetCoResidency
                && f.actor == FindingActor::CacheTenant(1)),
            "prober must observe evictions: {fs:?}"
        );
    }

    #[test]
    fn partitioned_cache_lints_clean() {
        let cfg = CacheConfig {
            size: 1024,
            ways: 4,
            line: 64,
        };
        let l = linter(BusSpec::Fcfs).with_cache(cfg, Partition::StaticWays { tenants: 2 });
        let mut cache = Cache::new(cfg, Partition::StaticWays { tenants: 2 });
        let fs = l.lint_cache(&cache_trace(&mut cache, cfg));
        assert!(fs.is_empty(), "way partitioning prevents probing: {fs:?}");
    }

    #[test]
    fn foreign_tenant_is_reported_not_replayed() {
        // An event from a tenant outside the claimed partition must
        // surface as a finding — replaying it would panic in the strict
        // cache model (and a clamping model would alias it into another
        // tenant's slice, hiding the inconsistency).
        let cfg = CacheConfig {
            size: 1024,
            ways: 4,
            line: 64,
        };
        let l = linter(BusSpec::Fcfs).with_cache(cfg, Partition::StaticWays { tenants: 2 });
        let mut trace = {
            let mut cache = Cache::new(cfg, Partition::StaticWays { tenants: 2 });
            cache_trace(&mut cache, cfg)
        };
        trace.push(CacheAccessEvent {
            tenant: 7,
            addr: BASE,
            hit: false,
        });
        let fs = l.lint_cache(&trace);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].kind, FindingKind::ForeignCacheTenant);
        assert_eq!(fs[0].actor, FindingActor::CacheTenant(7));
        assert_eq!(fs[0].count, 1);

        // SecDcp binds domains by allocation length the same way.
        let l = linter(BusSpec::Fcfs).with_cache(
            cfg,
            Partition::SecDcp {
                allocation: vec![3, 1],
            },
        );
        let fs = l.lint_cache(&[CacheAccessEvent {
            tenant: 2,
            addr: BASE,
            hit: true,
        }]);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].kind, FindingKind::ForeignCacheTenant);

        // A shared cache has no domain binding — any tenant id replays.
        let l = linter(BusSpec::Fcfs).with_cache(cfg, Partition::Shared);
        let fs = l.lint_cache(&[CacheAccessEvent {
            tenant: 7,
            addr: BASE,
            hit: false,
        }]);
        assert!(
            fs.iter().all(|f| f.kind != FindingKind::ForeignCacheTenant),
            "{fs:?}"
        );
    }

    #[test]
    fn lint_bundle_combines_streams() {
        let cfg = CacheConfig {
            size: 1024,
            ways: 4,
            line: 64,
        };
        let l = linter(BusSpec::Fcfs).with_cache(cfg, Partition::Shared);
        let mut cache = Cache::new(cfg, Partition::Shared);
        let bundle = TraceBundle {
            memory: vec![rec(
                Principal::Nf(NfId(2), CoreId(1)),
                BASE + 64,
                AccessKind::Load,
                true,
            )],
            bus: bus_trace(&mut BusSpec::Fcfs.arbiter(2)),
            cache: cache_trace(&mut cache, cfg),
        };
        let kinds: BTreeSet<String> = l
            .lint(&bundle)
            .iter()
            .map(|f| format!("{:?}", f.kind))
            .collect();
        assert!(kinds.contains("CrossDomainReference"));
        assert!(kinds.contains("BusInterference"));
        assert!(kinds.contains("CacheSetCoResidency"));
    }
}
