//! Pass 1: prove a set of vNIC manifests is an isolation-respecting
//! partition of the device.
//!
//! Every check here is a static counterpart of a mechanism `nf_launch`
//! configures dynamically: the verifier proves the *allocation* sound
//! before the instruction mutates any hardware state, which is what lets
//! the launch path refuse unverifiable manifests atomically.

use std::collections::{BTreeMap, HashMap};

use snic_mem::denylist::Denylist;
use snic_mem::tlb::Tlb;
use snic_types::{AccelKind, NfId, NicMode};
use snic_uarch::bus::EPOCH_CYCLES;

use crate::report::{VerificationReport, Violation, ViolationKind};
use crate::spec::{DeviceSpec, VnicManifest};

/// True if `a` and `b` (each `(base, len)`) share at least one byte.
fn ranges_overlap(a: (u64, u64), b: (u64, u64)) -> bool {
    let (ab, al) = a;
    let (bb, bl) = b;
    al > 0 && bl > 0 && ab < bb.saturating_add(bl) && bb < ab.saturating_add(al)
}

/// Verify `manifests` against `spec`. The report collects *every*
/// violation, not just the first, so an operator sees the whole repair
/// surface at once.
pub fn verify_manifests(spec: &DeviceSpec, manifests: &[VnicManifest]) -> VerificationReport {
    let mut violations = Vec::new();
    check_cores(spec, manifests, &mut violations);
    check_memory(spec, manifests, &mut violations);
    check_tlb_capacity(spec, manifests, &mut violations);
    check_accel(spec, manifests, &mut violations);
    check_vpp(spec, manifests, &mut violations);
    check_bus(spec, manifests, &mut violations);
    VerificationReport {
        violations,
        manifests_checked: manifests.len(),
    }
}

/// §4.1: cores bind to exactly one function, and must exist.
fn check_cores(spec: &DeviceSpec, manifests: &[VnicManifest], out: &mut Vec<Violation>) {
    let mut claimed: HashMap<u16, NfId> = HashMap::new();
    for m in manifests {
        for &core in &m.cores {
            if core.0 >= spec.cores {
                out.push(Violation {
                    kind: ViolationKind::CoreConflict,
                    nf: Some(m.nf),
                    range: Some((u64::from(core.0), 1)),
                    detail: format!("core {} does not exist (device has {})", core.0, spec.cores),
                });
                // Fall through: a nonexistent core still participates in
                // duplicate-claim detection, otherwise two manifests
                // fighting over the same phantom core hide the conflict.
            }
            if let Some(prev) = claimed.insert(core.0, m.nf) {
                out.push(Violation {
                    kind: ViolationKind::CoreConflict,
                    nf: Some(m.nf),
                    range: Some((u64::from(core.0), 1)),
                    detail: if prev == m.nf {
                        format!("core {} listed twice in one manifest", core.0)
                    } else {
                        format!("core {} already bound to nf {}", core.0, prev.0)
                    },
                });
            }
        }
    }
}

/// §4.1–§4.2: single-owner memory. Regions must lie inside allocatable
/// DRAM, avoid NIC-OS reservations, and be pairwise disjoint; host DMA
/// windows must be pairwise disjoint in host physical memory.
fn check_memory(spec: &DeviceSpec, manifests: &[VnicManifest], out: &mut Vec<Violation>) {
    for m in manifests {
        let (base, len) = m.region;
        if len == 0 {
            out.push(Violation {
                kind: ViolationKind::OutOfDram,
                nf: Some(m.nf),
                range: Some(m.region),
                detail: "empty region".into(),
            });
            continue;
        }
        if base < spec.nf_region_base || base.saturating_add(len) > spec.dram {
            out.push(Violation {
                kind: ViolationKind::OutOfDram,
                nf: Some(m.nf),
                range: Some(m.region),
                detail: format!(
                    "region outside allocatable DRAM [{:#x}, {:#x})",
                    spec.nf_region_base, spec.dram
                ),
            });
        }
        for &os in &spec.nic_os {
            if ranges_overlap(m.region, os) {
                out.push(Violation {
                    kind: ViolationKind::NicOsCollision,
                    nf: Some(m.nf),
                    range: Some(os),
                    detail: format!("region overlaps NIC-OS range {:#x}+{:#x}", os.0, os.1),
                });
            }
        }
    }
    for (i, a) in manifests.iter().enumerate() {
        for b in &manifests[i + 1..] {
            if ranges_overlap(a.region, b.region) {
                out.push(Violation {
                    kind: ViolationKind::RegionOverlap,
                    nf: Some(b.nf),
                    range: Some(b.region),
                    detail: format!(
                        "region overlaps nf {}'s region {:#x}+{:#x}",
                        a.nf.0, a.region.0, a.region.1
                    ),
                });
            }
            if let (Some(wa), Some(wb)) = (a.host_window, b.host_window) {
                if ranges_overlap(wa, wb) {
                    out.push(Violation {
                        kind: ViolationKind::RegionOverlap,
                        nf: Some(b.nf),
                        range: Some(wb),
                        detail: format!("host DMA window overlaps nf {}'s window", a.nf.0),
                    });
                }
            }
        }
    }
}

/// §4.2/§5.2: the mapping plan must fit the per-core TLB so it can be
/// installed in full and locked (a miss after locking is fatal).
fn check_tlb_capacity(spec: &DeviceSpec, manifests: &[VnicManifest], out: &mut Vec<Violation>) {
    for m in manifests {
        if m.tlb_entries > spec.core_tlb_entries {
            out.push(Violation {
                kind: ViolationKind::TlbOverflow,
                nf: Some(m.nf),
                range: Some((m.tlb_entries as u64, 0)),
                detail: format!(
                    "needs {} TLB entries per core, hardware has {}",
                    m.tlb_entries, spec.core_tlb_entries
                ),
            });
        }
    }
}

/// §4.3: accelerator clusters are assigned exclusively, so the per-family
/// request sum must fit the device inventory.
fn check_accel(spec: &DeviceSpec, manifests: &[VnicManifest], out: &mut Vec<Violation>) {
    // Ordered by family, so the overcommits are reported in one order.
    let mut demand: BTreeMap<AccelKind, usize> = BTreeMap::new();
    for m in manifests {
        for &(kind, count) in &m.accel {
            match spec.accel_capacity(kind) {
                None => out.push(Violation {
                    kind: ViolationKind::AccelOvercommit,
                    nf: Some(m.nf),
                    range: None,
                    detail: format!("device has no {kind:?} accelerator"),
                }),
                Some(_) => *demand.entry(kind).or_insert(0) += count,
            }
        }
    }
    for (kind, total) in demand {
        let capacity = usize::from(spec.accel_capacity(kind).unwrap_or(0));
        if total > capacity {
            out.push(Violation {
                kind: ViolationKind::AccelOvercommit,
                nf: None,
                range: Some((total as u64, capacity as u64)),
                detail: format!("{kind:?} demand {total} exceeds {capacity} clusters"),
            });
        }
    }
}

/// §4.4: summed VPP reservations must fit the physical port buffers
/// (PB charged against RX, ODB against TX — the device's accounting).
fn check_vpp(spec: &DeviceSpec, manifests: &[VnicManifest], out: &mut Vec<Violation>) {
    let rx: u64 = manifests.iter().map(|m| m.vpp.pb.bytes()).sum();
    let tx: u64 = manifests.iter().map(|m| m.vpp.odb.bytes()).sum();
    if rx > spec.rx_capacity {
        out.push(Violation {
            kind: ViolationKind::VppOvercommit,
            nf: None,
            range: Some((rx, spec.rx_capacity)),
            detail: format!(
                "RX packet-buffer demand {rx} exceeds port capacity {}",
                spec.rx_capacity
            ),
        });
    }
    if tx > spec.tx_capacity {
        out.push(Violation {
            kind: ViolationKind::VppOvercommit,
            nf: None,
            range: Some((tx, spec.tx_capacity)),
            detail: format!(
                "TX output-buffer demand {tx} exceeds port capacity {}",
                spec.tx_capacity
            ),
        });
    }
}

/// §4.5: under S-NIC's temporal partitioning, each reservation must
/// fit one [`EPOCH_CYCLES`] epoch (the arbiter's dead-time rule) and the
/// schedule must not overcommit the epoch in sum. A commodity FCFS bus
/// has no schedule to verify.
fn check_bus(spec: &DeviceSpec, manifests: &[VnicManifest], out: &mut Vec<Violation>) {
    if spec.mode == NicMode::Commodity {
        return;
    }
    let epoch = EPOCH_CYCLES;
    let mut total = 0u64;
    for m in manifests {
        if let Some(slice) = m.bus_slice {
            total = total.saturating_add(slice);
            if slice > epoch {
                out.push(Violation {
                    kind: ViolationKind::BusOvercommit,
                    nf: Some(m.nf),
                    range: Some((slice, epoch)),
                    detail: format!("bus slice {slice} cycles exceeds the {epoch}-cycle epoch"),
                });
            }
        }
    }
    if total > epoch {
        out.push(Violation {
            kind: ViolationKind::BusOvercommit,
            nf: None,
            range: Some((total, epoch)),
            detail: format!("bus schedule reserves {total} of {epoch} cycles per epoch"),
        });
    }
}

/// §4.2 state check: every NF-owned physical range must be denylisted
/// for the management core. `owned` comes from
/// [`snic_mem::PageOwnership::owned_ranges`]. Vacuous on commodity
/// devices, which have no denylist by design.
pub fn verify_denylist_coverage(
    mode: NicMode,
    owned: &[(u64, u64, NfId)],
    denylist: &Denylist,
) -> Vec<Violation> {
    if mode == NicMode::Commodity {
        return Vec::new();
    }
    let mut out = Vec::new();
    for &(base, len, nf) in owned {
        // A range is covered iff every byte is denied; since denylist
        // intervals are disjoint and sorted, walk them over the range.
        let mut cursor = base;
        let end = base + len;
        for &(db, dl, _) in denylist.intervals() {
            if db + dl <= cursor {
                continue;
            }
            if db > cursor {
                break; // gap at `cursor`
            }
            cursor = end.min(db + dl);
            if cursor == end {
                break;
            }
        }
        if cursor < end {
            out.push(Violation {
                kind: ViolationKind::DenylistGap,
                nf: Some(nf),
                range: Some((cursor, end - cursor)),
                detail: format!(
                    "owned range {base:#x}+{len:#x} reachable by the management core from {cursor:#x}"
                ),
            });
        }
    }
    out
}

/// §4.2 state check: a live function's per-core TLBs must be locked and
/// must only map memory the manifest grants (region, NIC-OS windows are
/// not granted). Vacuous on commodity devices, which run without TLB
/// enforcement.
pub fn verify_tlb_state(mode: NicMode, manifest: &VnicManifest, tlbs: &[&Tlb]) -> Vec<Violation> {
    if mode == NicMode::Commodity {
        return Vec::new();
    }
    let mut out = Vec::new();
    for tlb in tlbs {
        if !tlb.is_locked() {
            out.push(Violation {
                kind: ViolationKind::TlbEscape,
                nf: Some(manifest.nf),
                range: None,
                detail: "TLB left unlocked after launch".into(),
            });
        }
        for (pa, len) in tlb.reachable_ranges() {
            if !range_within((pa, len), manifest.region) {
                out.push(Violation {
                    kind: ViolationKind::TlbEscape,
                    nf: Some(manifest.nf),
                    range: Some((pa, len)),
                    detail: format!(
                        "TLB maps {pa:#x}+{len:#x} outside the function's region {:#x}+{:#x}",
                        manifest.region.0, manifest.region.1
                    ),
                });
            }
        }
    }
    out
}

/// True if `inner` lies entirely within `outer`.
fn range_within(inner: (u64, u64), outer: (u64, u64)) -> bool {
    inner.0 >= outer.0 && inner.0.saturating_add(inner.1) <= outer.0.saturating_add(outer.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snic_mem::pagetable::PageMapping;
    use snic_pktio::vpp::VppBufferSpec;
    use snic_types::{ByteSize, CoreId};

    const BASE: u64 = 0x0800_0000;
    const MB: u64 = 1 << 20;

    fn spec() -> DeviceSpec {
        DeviceSpec {
            mode: NicMode::Snic,
            dram: 256 * MB,
            nf_region_base: BASE,
            nic_os: vec![(0x0010_0000, 0x2_0000), (0x0200_0000, 32 * MB)],
            cores: 4,
            core_tlb_entries: 8,
            accel: vec![(AccelKind::Crypto, 4), (AccelKind::Dpi, 4)],
            rx_capacity: 8 * MB,
            tx_capacity: 8 * MB,
        }
    }

    fn manifest(nf: u64, core: u16, base: u64) -> VnicManifest {
        VnicManifest::minimal(NfId(nf), CoreId(core), (base, 2 * MB))
    }

    fn kinds(report: &VerificationReport) -> Vec<ViolationKind> {
        report.violations.iter().map(|v| v.kind).collect()
    }

    #[test]
    fn disjoint_manifests_verify() {
        let ms = [manifest(1, 0, BASE), manifest(2, 1, BASE + 2 * MB)];
        let r = verify_manifests(&spec(), &ms);
        assert!(r.is_ok(), "{r}");
        assert_eq!(r.manifests_checked, 2);
    }

    #[test]
    fn overlapping_regions_flagged() {
        let ms = [manifest(1, 0, BASE), manifest(2, 1, BASE + MB)];
        let r = verify_manifests(&spec(), &ms);
        assert_eq!(kinds(&r), vec![ViolationKind::RegionOverlap]);
        assert_eq!(r.violations[0].nf, Some(NfId(2)));
    }

    #[test]
    fn nic_os_collision_flagged() {
        let mut m = manifest(1, 0, BASE);
        m.region = (0x0200_0000 + MB, 2 * MB); // inside the buffer pool
        let r = verify_manifests(&spec(), &[m]);
        assert!(kinds(&r).contains(&ViolationKind::NicOsCollision));
        assert!(kinds(&r).contains(&ViolationKind::OutOfDram)); // below nf_region_base
    }

    #[test]
    fn out_of_dram_and_empty_regions_flagged() {
        let mut high = manifest(1, 0, 255 * MB);
        high.region.1 = 4 * MB; // spills past 256 MB
        let mut empty = manifest(2, 1, BASE);
        empty.region.1 = 0;
        let r = verify_manifests(&spec(), &[high, empty]);
        assert_eq!(
            kinds(&r),
            vec![ViolationKind::OutOfDram, ViolationKind::OutOfDram]
        );
    }

    #[test]
    fn core_conflicts_flagged() {
        let mut dup = manifest(1, 0, BASE);
        dup.cores = vec![CoreId(0), CoreId(0)];
        let stolen = manifest(2, 0, BASE + 2 * MB);
        let ghost = manifest(3, 99, BASE + 4 * MB);
        let r = verify_manifests(&spec(), &[dup, stolen, ghost]);
        assert_eq!(
            kinds(&r),
            vec![
                ViolationKind::CoreConflict, // core 0 twice in one manifest
                ViolationKind::CoreConflict, // nf 2 steals core 0
                ViolationKind::CoreConflict, // core 99 does not exist
            ]
        );
    }

    #[test]
    fn duplicate_claims_of_nonexistent_core_still_conflict() {
        // Regression: the existence check used to `continue` before
        // recording the claim, so two manifests fighting over the same
        // phantom core produced only existence violations and the
        // duplicate claim vanished.
        let a = manifest(1, 99, BASE);
        let b = manifest(2, 99, BASE + 2 * MB);
        let r = verify_manifests(&spec(), &[a, b]);
        assert_eq!(
            kinds(&r),
            vec![
                ViolationKind::CoreConflict, // nf 1: core 99 does not exist
                ViolationKind::CoreConflict, // nf 2: core 99 does not exist
                ViolationKind::CoreConflict, // nf 2: core 99 already bound
            ]
        );
        assert!(r.violations[2].detail.contains("already bound to nf 1"));
    }

    #[test]
    fn tlb_overflow_flagged() {
        let mut m = manifest(1, 0, BASE);
        m.tlb_entries = 9;
        let r = verify_manifests(&spec(), &[m]);
        assert_eq!(kinds(&r), vec![ViolationKind::TlbOverflow]);
    }

    #[test]
    fn accel_overcommit_and_unknown_family_flagged() {
        let mut a = manifest(1, 0, BASE);
        a.accel = vec![(AccelKind::Crypto, 3)];
        let mut b = manifest(2, 1, BASE + 2 * MB);
        b.accel = vec![(AccelKind::Crypto, 2), (AccelKind::Raid, 1)];
        let r = verify_manifests(&spec(), &[a, b]);
        let ks = kinds(&r);
        assert_eq!(
            ks.iter()
                .filter(|&&k| k == ViolationKind::AccelOvercommit)
                .count(),
            2,
            "{r}"
        );
    }

    /// Two overcommitted families are reported in `AccelKind` order,
    /// every time: the report is the same bytes for the same manifests.
    #[test]
    fn accel_overcommits_are_reported_in_family_order() {
        let mut m = manifest(1, 0, BASE);
        m.accel = vec![(AccelKind::Crypto, 5), (AccelKind::Dpi, 5)];
        for _ in 0..64 {
            let r = verify_manifests(&spec(), std::slice::from_ref(&m));
            let details: Vec<&str> = r.violations.iter().map(|v| v.detail.as_str()).collect();
            assert_eq!(
                details,
                [
                    "Dpi demand 5 exceeds 4 clusters",
                    "Crypto demand 5 exceeds 4 clusters"
                ],
                "{r}"
            );
        }
    }

    #[test]
    fn vpp_overcommit_flagged() {
        let mut ms: Vec<VnicManifest> = (0..4)
            .map(|i| manifest(i + 1, i as u16, BASE + i * 2 * MB))
            .collect();
        for m in &mut ms {
            m.vpp = VppBufferSpec {
                pb: ByteSize::mib(4), // 4 x 4 MB > 8 MB RX
                pdb: ByteSize::kib(128),
                odb: ByteSize::mib(1),
            };
        }
        let r = verify_manifests(&spec(), &ms);
        assert_eq!(kinds(&r), vec![ViolationKind::VppOvercommit]);
    }

    #[test]
    fn bus_overcommit_flagged() {
        let mut a = manifest(1, 0, BASE);
        a.bus_slice = Some(60);
        let mut b = manifest(2, 1, BASE + 2 * MB);
        b.bus_slice = Some(60);
        let r = verify_manifests(&spec(), &[a, b]);
        assert_eq!(kinds(&r), vec![ViolationKind::BusOvercommit]);

        let mut huge = manifest(3, 2, BASE + 4 * MB);
        huge.bus_slice = Some(200);
        let r = verify_manifests(&spec(), &[huge]);
        // Over-epoch slice is flagged per-NF and pushes the sum over too.
        assert_eq!(
            kinds(&r),
            vec![ViolationKind::BusOvercommit, ViolationKind::BusOvercommit]
        );
    }

    #[test]
    fn fcfs_bus_has_no_schedule_to_verify() {
        let mut s = spec();
        s.mode = NicMode::Commodity;
        let mut m = manifest(1, 0, BASE);
        m.bus_slice = Some(10_000);
        assert!(verify_manifests(&s, &[m]).is_ok());
    }

    #[test]
    fn snic_bus_schedule_is_checked_at_the_epoch() {
        let mut full = manifest(1, 0, BASE);
        full.bus_slice = Some(EPOCH_CYCLES);
        assert!(verify_manifests(&spec(), &[full]).is_ok());

        let mut over = manifest(1, 0, BASE);
        over.bus_slice = Some(EPOCH_CYCLES + 1);
        let r = verify_manifests(&spec(), &[over]);
        assert_eq!(
            kinds(&r),
            vec![ViolationKind::BusOvercommit, ViolationKind::BusOvercommit]
        );
        assert_eq!(
            r.violations[0].range,
            Some((EPOCH_CYCLES + 1, EPOCH_CYCLES))
        );
    }

    #[test]
    fn denylist_gap_detected_and_full_coverage_accepted() {
        let owned = [(BASE, 4 * MB, NfId(1))];
        let mut full = Denylist::new();
        full.deny(BASE, 4 * MB, NfId(1)).unwrap();
        assert!(verify_denylist_coverage(NicMode::Snic, &owned, &full).is_empty());

        let mut partial = Denylist::new();
        partial.deny(BASE, MB, NfId(1)).unwrap(); // first MB only
        let vs = verify_denylist_coverage(NicMode::Snic, &owned, &partial);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, ViolationKind::DenylistGap);
        assert_eq!(vs[0].range, Some((BASE + MB, 3 * MB)));

        // Commodity devices have no denylist: vacuously fine.
        assert!(verify_denylist_coverage(NicMode::Commodity, &owned, &Denylist::new()).is_empty());
    }

    #[test]
    fn denylist_coverage_spanning_multiple_intervals() {
        let owned = [(BASE, 4 * MB, NfId(1))];
        let mut split = Denylist::new();
        split.deny(BASE, MB, NfId(1)).unwrap();
        split.deny(BASE + MB, 3 * MB, NfId(1)).unwrap();
        assert!(verify_denylist_coverage(NicMode::Snic, &owned, &split).is_empty());
    }

    #[test]
    fn tlb_state_checks_lock_and_reach() {
        let m = manifest(1, 0, BASE);
        let mapping_in = PageMapping {
            va: 0,
            pa: BASE,
            page_size: 2 * MB,
            writable: true,
        };
        let mut good = Tlb::new(CoreId(0), 8);
        good.install(mapping_in).unwrap();
        good.lock();
        assert!(verify_tlb_state(NicMode::Snic, &m, &[&good]).is_empty());

        let mut unlocked = Tlb::new(CoreId(0), 8);
        unlocked.install(mapping_in).unwrap();
        let vs = verify_tlb_state(NicMode::Snic, &m, &[&unlocked]);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, ViolationKind::TlbEscape);

        let mut escaping = Tlb::new(CoreId(0), 8);
        escaping
            .install(PageMapping {
                va: 0,
                pa: 0x0010_0000, // allocator metadata
                page_size: 2 * MB,
                writable: false,
            })
            .unwrap();
        escaping.lock();
        let vs = verify_tlb_state(NicMode::Snic, &m, &[&escaping]);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, ViolationKind::TlbEscape);
        assert_eq!(vs[0].range, Some((0x0010_0000, 2 * MB)));
    }
}
