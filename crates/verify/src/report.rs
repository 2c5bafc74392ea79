//! Typed verifier output: violations (Pass 1) and findings (Pass 2).
//!
//! The paper's isolation argument is per-mechanism, so the verifier's
//! output is too: every violation and finding names the guarantee it
//! breaks and cites the section of the paper that establishes it.

use std::fmt;

use snic_telemetry::json::escape;
use snic_types::NfId;

/// Which isolation invariant a manifest set breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// Two manifests claim overlapping physical ranges (or one manifest
    /// overlaps itself).
    RegionOverlap,
    /// A function region intrudes into NIC-OS / firmware memory.
    NicOsCollision,
    /// A region lies outside allocatable DRAM (or is empty).
    OutOfDram,
    /// An NF-owned range is reachable by the management core: the
    /// denylist does not cover the ownership map.
    DenylistGap,
    /// Required TLB entries exceed per-core hardware capacity.
    TlbOverflow,
    /// A live function's TLB is not locked, or maps memory outside the
    /// function's manifest.
    TlbEscape,
    /// A core is claimed twice, or does not exist on the device.
    CoreConflict,
    /// Accelerator-cluster requests exceed (or name nonexistent)
    /// capacity, breaking exclusive assignment.
    AccelOvercommit,
    /// Summed VPP buffer reservations exceed port capacity.
    VppOvercommit,
    /// The temporal bus schedule overcommits the epoch.
    BusOvercommit,
    /// Pass 0: a load's address range can leave its granted region.
    OobLoad,
    /// Pass 0: a store's address range can leave its granted region.
    OobStore,
    /// Pass 0: a DMA transfer can leave the host-sanctioned window.
    DmaOverflow,
    /// Pass 0: a packet/state-derived value flows outside the grant
    /// envelope.
    TaintLeak,
    /// Pass 0: an access to a region the manifest does not grant.
    UngrantedRegion,
    /// Pass 0: a submission to an ungranted accelerator family.
    UngrantedAccel,
    /// Pass 0: a CFG back edge with no per-packet trip bound.
    UnboundedLoop,
    /// Pass 0: the proven instruction ceiling exceeds the admission
    /// limit.
    InsnCeiling,
    /// Pass 0: structurally invalid IR.
    MalformedIr,
    /// Pass 0: the analysis fixpoint exceeded its step budget.
    FixpointBudget,
}

impl ViolationKind {
    /// The paper section whose guarantee this violation would break.
    pub fn citation(self) -> &'static str {
        match self {
            ViolationKind::RegionOverlap => "§4.1 (single-owner RAM)",
            ViolationKind::NicOsCollision => "§4.2 (NIC-OS memory protection)",
            ViolationKind::OutOfDram => "§4.1 (physical memory inventory)",
            ViolationKind::DenylistGap => "§4.2 (management-core denylist)",
            ViolationKind::TlbOverflow => "§4.2/§5.2 (TLB sizing, Tables 4-6)",
            ViolationKind::TlbEscape => "§4.2 (locked per-core TLBs)",
            ViolationKind::CoreConflict => "§4.1 (exclusive core binding)",
            ViolationKind::AccelOvercommit => "§4.3 (exclusive accelerator clusters)",
            ViolationKind::VppOvercommit => "§4.4 (reserved VPP buffers)",
            ViolationKind::BusOvercommit => "§4.5 (temporal bus partitioning)",
            ViolationKind::OobLoad | ViolationKind::OobStore | ViolationKind::UngrantedRegion => {
                "§4.1-§4.2 (single-owner memory, Pass 0)"
            }
            ViolationKind::DmaOverflow => "§4.2 (host-sanctioned DMA windows, Pass 0)",
            ViolationKind::TaintLeak => "§3.3/§4 (cross-tenant information flow, Pass 0)",
            ViolationKind::UngrantedAccel => "§4.3 (exclusive accelerators, Pass 0)",
            ViolationKind::UnboundedLoop | ViolationKind::InsnCeiling => {
                "§4 (per-NF compute admission, Pass 0)"
            }
            ViolationKind::MalformedIr | ViolationKind::FixpointBudget => "Pass 0 well-formedness",
        }
    }

    /// Stable machine-readable code for CI and the fleet control plane.
    /// Codes are part of the external interface: never reworded once
    /// shipped.
    pub fn code(self) -> &'static str {
        match self {
            ViolationKind::RegionOverlap => "P1-REGION-OVERLAP",
            ViolationKind::NicOsCollision => "P1-NICOS-COLLISION",
            ViolationKind::OutOfDram => "P1-OUT-OF-DRAM",
            ViolationKind::DenylistGap => "P1-DENYLIST-GAP",
            ViolationKind::TlbOverflow => "P1-TLB-OVERFLOW",
            ViolationKind::TlbEscape => "P1-TLB-ESCAPE",
            ViolationKind::CoreConflict => "P1-CORE-CONFLICT",
            ViolationKind::AccelOvercommit => "P1-ACCEL-OVERCOMMIT",
            ViolationKind::VppOvercommit => "P1-VPP-OVERCOMMIT",
            ViolationKind::BusOvercommit => "P1-BUS-OVERCOMMIT",
            ViolationKind::OobLoad => "P0-OOB-LOAD",
            ViolationKind::OobStore => "P0-OOB-STORE",
            ViolationKind::DmaOverflow => "P0-DMA-OVERFLOW",
            ViolationKind::TaintLeak => "P0-TAINT-LEAK",
            ViolationKind::UngrantedRegion => "P0-REGION-UNGRANTED",
            ViolationKind::UngrantedAccel => "P0-ACCEL-UNGRANTED",
            ViolationKind::UnboundedLoop => "P0-UNBOUNDED-LOOP",
            ViolationKind::InsnCeiling => "P0-INSN-CEILING",
            ViolationKind::MalformedIr => "P0-MALFORMED-IR",
            ViolationKind::FixpointBudget => "P0-FIXPOINT-BUDGET",
        }
    }
}

/// One broken invariant, attributed to a function and a resource range.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The invariant broken.
    pub kind: ViolationKind,
    /// The offending function, when attributable to one.
    pub nf: Option<NfId>,
    /// The offending resource range `(base, len)` — physical addresses
    /// for memory violations, counts/cycles for capacity violations.
    pub range: Option<(u64, u64)>,
    /// Human-readable specifics.
    pub detail: String,
}

impl Violation {
    /// Paper citation for this violation's invariant.
    pub fn citation(&self) -> &'static str {
        self.kind.citation()
    }

    /// Stable machine-readable code (`P0-*`/`P1-*`) for this violation.
    pub fn code(&self) -> &'static str {
        self.kind.code()
    }

    /// JSON object for `snicctl verify --json` and CI gating. The human
    /// `Display` form stays the canonical text output.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"code\":\"{}\",\"kind\":\"{:?}\"",
            self.code(),
            self.kind
        );
        match self.nf {
            Some(nf) => s.push_str(&format!(",\"nf\":{}", nf.0)),
            None => s.push_str(",\"nf\":null"),
        }
        match self.range {
            Some((base, len)) => s.push_str(&format!(",\"base\":{base},\"len\":{len}")),
            None => s.push_str(",\"base\":null,\"len\":null"),
        }
        s.push_str(&format!(
            ",\"detail\":\"{}\",\"citation\":\"{}\"}}",
            escape(&self.detail),
            escape(self.citation())
        ));
        s
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.kind)?;
        if let Some(nf) = self.nf {
            write!(f, " nf={}", nf.0)?;
        }
        if let Some((base, len)) = self.range {
            write!(f, " range={base:#x}+{len:#x}")?;
        }
        write!(f, ": {} [{}]", self.detail, self.citation())
    }
}

/// The result of Pass 1 over a manifest set.
#[derive(Debug, Clone, Default)]
pub struct VerificationReport {
    /// Every invariant violation found (empty = verified).
    pub violations: Vec<Violation>,
    /// How many manifests were checked.
    pub manifests_checked: usize,
}

impl VerificationReport {
    /// True if the manifest set verified cleanly.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations attributed to `nf` (plus unattributed ones).
    pub fn concerning(&self, nf: NfId) -> impl Iterator<Item = &Violation> {
        self.violations
            .iter()
            .filter(move |v| v.nf.is_none() || v.nf == Some(nf))
    }

    /// JSON report for `snicctl verify --json` and CI gating.
    pub fn to_json(&self) -> String {
        let violations: Vec<String> = self.violations.iter().map(Violation::to_json).collect();
        format!(
            "{{\"ok\":{},\"manifests_checked\":{},\"violations\":[{}]}}",
            self.is_ok(),
            self.manifests_checked,
            violations.join(",")
        )
    }
}

impl fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ok() {
            return write!(
                f,
                "verified: {} manifest(s), no violations",
                self.manifests_checked
            );
        }
        writeln!(
            f,
            "REFUSED: {} violation(s) across {} manifest(s)",
            self.violations.len(),
            self.manifests_checked
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Who a trace finding is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingActor {
    /// A network function (memory-trace findings).
    Nf(NfId),
    /// The NIC-OS management core.
    Management,
    /// A bus security domain (bus-trace findings).
    BusDomain(u32),
    /// A cache tenant slot (cache-trace findings).
    CacheTenant(u32),
    /// A serving-daemon tenant, by its index in the transcript's
    /// first-appearance order (the finding's `detail` names it; Pass 4
    /// admission-transcript lints).
    ServeTenant(u32),
}

impl fmt::Display for FindingActor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FindingActor::Nf(nf) => write!(f, "nf {}", nf.0),
            FindingActor::Management => write!(f, "management core"),
            FindingActor::BusDomain(d) => write!(f, "bus domain {d}"),
            FindingActor::CacheTenant(t) => write!(f, "cache tenant {t}"),
            FindingActor::ServeTenant(t) => write!(f, "serve tenant {t}"),
        }
    }
}

/// Which §3.3 attack pattern a trace exhibits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// A granted memory reference crossed a domain boundary (an NF read
    /// another NF's RAM, or the management core read NF RAM).
    CrossDomainReference,
    /// An NF walked the shared buffer allocator's metadata table — the
    /// discovery step of the packet-corruption and ruleset-theft
    /// attacks.
    AllocatorMetadataWalk,
    /// A domain's bus grants were delayed by another domain's traffic
    /// (FCFS coupling: DoS and covert-channel substrate).
    BusInterference,
    /// A tenant repeatedly observed its cache lines evicted by
    /// co-resident tenants (prime-and-probe substrate).
    CacheSetCoResidency,
    /// A cache trace contains accesses from a tenant id outside the
    /// claimed partition's domain count — the trace cannot have come
    /// from the discipline it claims (a strict partition rejects such
    /// tenants at construction; a clamping one would silently alias
    /// them into another tenant's slice).
    ForeignCacheTenant,
    /// A memory region was handed to a function before the zeroization
    /// of its previous owner's data completed (fault-transcript lint).
    UnscrubbedReuse,
    /// A fault injected into one function was followed by an observed
    /// perturbation (or device crash) hitting a *different* tenant —
    /// the blast radius escaped its isolation domain.
    FaultPropagation,
    /// A lifecycle transition violated the
    /// `Launched → Running → Faulted → Scrubbing → Reclaimed` relation.
    IllegalLifecycleTransition,
    /// The daemon served a request for a tenant whose queue was frozen
    /// — blast-radius containment at the serving layer failed
    /// (admission-transcript lint).
    FrozenTenantServed,
    /// A tenant's queue depth exceeded its configured admission bound,
    /// or accounting shows more requests admitted than the bound allows
    /// — backpressure was bypassed (admission-transcript lint).
    AdmissionQuotaBypass,
    /// A request recorded as deadline-expired was nonetheless served —
    /// cancelled work reached the device (admission-transcript lint).
    ExpiredRequestServed,
}

impl FindingKind {
    /// The paper section describing the attack this pattern enables.
    pub fn citation(self) -> &'static str {
        match self {
            FindingKind::CrossDomainReference => "§3.3 (xkphys cross-domain access)",
            FindingKind::AllocatorMetadataWalk => "§3.3 (allocator-metadata scan)",
            FindingKind::BusInterference => "§3.3 (bus DoS) / §4.5",
            FindingKind::CacheSetCoResidency => "§3.3 (cache contention) / §4.2",
            FindingKind::ForeignCacheTenant => "§4.2 (way-partition domain binding)",
            FindingKind::UnscrubbedReuse => "§4.6 (teardown scrubbing)",
            FindingKind::FaultPropagation => "§4.3/§4.6 (fault containment)",
            FindingKind::IllegalLifecycleTransition => "§4.6 (launch/teardown lifecycle)",
            FindingKind::FrozenTenantServed => "§4.3/§4.6 (fault containment, serving layer)",
            FindingKind::AdmissionQuotaBypass => "§2.2 (multi-tenant resource quotas)",
            FindingKind::ExpiredRequestServed => "§4.6 (teardown/cancel atomicity)",
        }
    }

    /// Stable machine-readable code. Trace findings are `P2-*`; the
    /// fault-transcript lints are `P3-*`; the admission-transcript
    /// (daemon) lints are `P4-*`.
    pub fn code(self) -> &'static str {
        match self {
            FindingKind::CrossDomainReference => "P2-CROSS-DOMAIN-REF",
            FindingKind::AllocatorMetadataWalk => "P2-ALLOCATOR-WALK",
            FindingKind::BusInterference => "P2-BUS-INTERFERENCE",
            FindingKind::CacheSetCoResidency => "P2-CACHE-CORESIDENCY",
            FindingKind::ForeignCacheTenant => "P2-FOREIGN-TENANT",
            FindingKind::UnscrubbedReuse => "P3-UNSCRUBBED-REUSE",
            FindingKind::FaultPropagation => "P3-FAULT-PROPAGATION",
            FindingKind::IllegalLifecycleTransition => "P3-LIFECYCLE",
            FindingKind::FrozenTenantServed => "P4-FROZEN-SERVE",
            FindingKind::AdmissionQuotaBypass => "P4-QUOTA-BYPASS",
            FindingKind::ExpiredRequestServed => "P4-EXPIRED-SERVE",
        }
    }
}

/// One attack pattern recognized in a trace by Pass 2.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The pattern recognized.
    pub kind: FindingKind,
    /// Who performed the suspect accesses.
    pub actor: FindingActor,
    /// How many trace events matched.
    pub count: usize,
    /// A representative offending location `(base, len)` — an address
    /// range, or cycle offsets for bus findings.
    pub range: Option<(u64, u64)>,
    /// Human-readable specifics.
    pub detail: String,
}

impl Finding {
    /// Paper citation for this finding's attack pattern.
    pub fn citation(&self) -> &'static str {
        self.kind.citation()
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} by {} x{}", self.kind, self.actor, self.count)?;
        if let Some((base, len)) = self.range {
            write!(f, " at {base:#x}+{len:#x}")?;
        }
        write!(f, ": {} [{}]", self.detail, self.citation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display_includes_citation() {
        let v = Violation {
            kind: ViolationKind::RegionOverlap,
            nf: Some(NfId(3)),
            range: Some((0x0800_0000, 0x1000)),
            detail: "overlaps nf 2".into(),
        };
        let s = v.to_string();
        assert!(s.contains("nf=3"));
        assert!(s.contains("0x8000000"));
        assert!(s.contains("§4.1"));
    }

    #[test]
    fn report_display_and_filtering() {
        let mut r = VerificationReport {
            manifests_checked: 2,
            ..Default::default()
        };
        assert!(r.is_ok());
        assert!(r.to_string().contains("verified"));
        r.violations.push(Violation {
            kind: ViolationKind::CoreConflict,
            nf: Some(NfId(1)),
            range: None,
            detail: "core 0 claimed twice".into(),
        });
        r.violations.push(Violation {
            kind: ViolationKind::VppOvercommit,
            nf: None,
            range: None,
            detail: "pb sum".into(),
        });
        assert!(!r.is_ok());
        assert!(r.to_string().contains("REFUSED"));
        assert_eq!(r.concerning(NfId(1)).count(), 2);
        assert_eq!(r.concerning(NfId(9)).count(), 1);
    }

    #[test]
    fn violation_codes_are_stable_and_unique() {
        let kinds = [
            ViolationKind::RegionOverlap,
            ViolationKind::NicOsCollision,
            ViolationKind::OutOfDram,
            ViolationKind::DenylistGap,
            ViolationKind::TlbOverflow,
            ViolationKind::TlbEscape,
            ViolationKind::CoreConflict,
            ViolationKind::AccelOvercommit,
            ViolationKind::VppOvercommit,
            ViolationKind::BusOvercommit,
            ViolationKind::OobLoad,
            ViolationKind::OobStore,
            ViolationKind::DmaOverflow,
            ViolationKind::TaintLeak,
            ViolationKind::UngrantedRegion,
            ViolationKind::UngrantedAccel,
            ViolationKind::UnboundedLoop,
            ViolationKind::InsnCeiling,
            ViolationKind::MalformedIr,
            ViolationKind::FixpointBudget,
        ];
        let codes: std::collections::HashSet<&str> = kinds.iter().map(|k| k.code()).collect();
        assert_eq!(codes.len(), kinds.len(), "codes must be unique");
        // Spot-check the published P1 prefix; pin every Pass 0 code, which
        // this table alone defines.
        assert_eq!(ViolationKind::CoreConflict.code(), "P1-CORE-CONFLICT");
        let p0: Vec<&str> = kinds[10..].iter().map(|k| k.code()).collect();
        assert_eq!(
            p0,
            [
                "P0-OOB-LOAD",
                "P0-OOB-STORE",
                "P0-DMA-OVERFLOW",
                "P0-TAINT-LEAK",
                "P0-REGION-UNGRANTED",
                "P0-ACCEL-UNGRANTED",
                "P0-UNBOUNDED-LOOP",
                "P0-INSN-CEILING",
                "P0-MALFORMED-IR",
                "P0-FIXPOINT-BUDGET",
            ]
        );
        assert!(kinds.iter().all(|k| {
            let c = k.code();
            c.starts_with("P0-") || c.starts_with("P1-")
        }));
    }

    #[test]
    fn report_json_has_codes_and_fields() {
        let r = VerificationReport {
            manifests_checked: 1,
            violations: vec![Violation {
                kind: ViolationKind::OobStore,
                nf: Some(NfId(4)),
                range: Some((0x1000, 0x20)),
                detail: "store \"x\" escapes".into(),
            }],
        };
        let j = r.to_json();
        assert!(j.contains("\"ok\":false"));
        assert!(j.contains("\"code\":\"P0-OOB-STORE\""));
        assert!(j.contains("\"nf\":4"));
        assert!(j.contains("\"base\":4096"));
        assert!(j.contains("store \\\"x\\\" escapes"));
        // Human display untouched by the JSON path.
        assert!(r.to_string().contains("REFUSED"));
    }

    #[test]
    fn finding_codes_are_stable() {
        assert_eq!(
            FindingKind::CrossDomainReference.code(),
            "P2-CROSS-DOMAIN-REF"
        );
        assert_eq!(FindingKind::UnscrubbedReuse.code(), "P3-UNSCRUBBED-REUSE");
        assert_eq!(
            FindingKind::IllegalLifecycleTransition.code(),
            "P3-LIFECYCLE"
        );
        assert_eq!(FindingKind::FrozenTenantServed.code(), "P4-FROZEN-SERVE");
        assert_eq!(FindingKind::AdmissionQuotaBypass.code(), "P4-QUOTA-BYPASS");
        assert_eq!(FindingKind::ExpiredRequestServed.code(), "P4-EXPIRED-SERVE");
    }

    #[test]
    fn finding_display_names_actor() {
        let f = Finding {
            kind: FindingKind::AllocatorMetadataWalk,
            actor: FindingActor::Nf(NfId(7)),
            count: 12,
            range: Some((0x0010_0000, 32)),
            detail: "walked 12 slots".into(),
        };
        let s = f.to_string();
        assert!(s.contains("nf 7"));
        assert!(s.contains("§3.3"));
    }
}
