//! Integration coverage of the paper's SecDCP extension point: dynamic
//! cache partitioning (§4.2, option 2).

use snic::uarch::cache::{Cache, CacheConfig, Partition};
use snic::uarch::config::MachineConfig;
use snic::uarch::engine::run_colocated;
use snic::uarch::stream::{EventSource, SyntheticStream};

#[test]
fn secdcp_allows_asymmetric_allocations() {
    // A memory-hungry NF paired with a light one: SecDCP can shift ways
    // toward the heavy tenant and beat the static 50/50 split for it,
    // without giving the light tenant a probe channel (its slice is
    // still exclusively its own).
    let heavy = || EventSource::from(SyntheticStream::new(3 << 20, 6, 4, 40_000, 11));
    let light = || EventSource::from(SyntheticStream::new(16 << 10, 6, 4, 40_000, 22));

    let static_cfg = MachineConfig::snic(2, 2 << 20);
    let secdcp_cfg = MachineConfig::snic_secdcp(vec![14, 2], 2 << 20);
    let static_run = run_colocated(&static_cfg, vec![heavy(), light()]);
    let secdcp_run = run_colocated(&secdcp_cfg, vec![heavy(), light()]);
    assert!(
        secdcp_run.nfs[0].l2_misses <= static_run.nfs[0].l2_misses,
        "14/16 ways should not miss more than 8/16: {} vs {}",
        secdcp_run.nfs[0].l2_misses,
        static_run.nfs[0].l2_misses
    );
}

#[test]
fn secdcp_resize_cannot_leak_via_stale_lines() {
    // After shrinking a tenant's allocation, its stranded lines must not
    // be observable by the tenant that inherits the ways.
    let mut cache = Cache::new(
        CacheConfig {
            size: 64 << 10,
            ways: 8,
            line: 64,
        },
        Partition::SecDcp {
            allocation: vec![6, 2],
        },
    );
    // Tenant 0 fills its 6 ways in set 0.
    let sets = 64 * 1024 / (8 * 64);
    let stride = (sets * 64) as u64;
    for i in 0..6u64 {
        cache.access(0, i * stride);
    }
    // Repartition: tenant 1 now owns 6 ways.
    cache.secdcp_resize(vec![2, 6]);
    // Tenant 1 probing its new ways must see only misses (no residue).
    for i in 0..6u64 {
        assert!(
            !cache.access(1, i * stride),
            "tenant 1 hit a stale line at {i}"
        );
    }
}
