//! The trusted instructions of Table 1 and their latency model.
//!
//! `nf_launch` is "a complex instruction ... implemented in microcode,
//! similar to how complex SGX instructions are implemented" (§4.8). The
//! Appendix C microbenchmarks decompose its latency into TLB setup +
//! configuration reading, denylisting, and SHA-256 digesting of the
//! function's memory; `nf_destroy` into allowlisting and memory
//! scrubbing. The constants below are the paper's measured values on a
//! 16-core 1.2 GHz Marvell NIC.

use snic_mem::planner::PagePolicy;
use snic_pktio::rules::SwitchRule;
use snic_pktio::vpp::VppBufferSpec;
use snic_types::{AccelKind, ByteSize, CoreId, NfId, Picos};

/// TLB setup and configuration reading cost (Appendix C: 0.0196 ms).
pub const TLB_SETUP: Picos = Picos(19_600_000);
/// Denylist installation cost (Appendix C: 0.0044 ms).
pub const DENYLISTING: Picos = Picos(4_400_000);
/// Allowlist removal cost (Appendix C: 0.0038 ms).
pub const ALLOWLISTING: Picos = Picos(3_800_000);
/// SHA-256 digest rate of the security co-processor (≈ 0.47 MB/ms).
pub const SHA_BYTES_PER_MS: f64 = 0.47 * 1024.0 * 1024.0;
/// Memory scrub rate (Appendix C: ≈ 6.6 GB/s).
pub const SCRUB_BYTES_PER_SEC: f64 = 6.6e9;
/// RSA signing latency for `nf_attest` (Appendix C: 5.596 ms).
pub const ATTEST_RSA: Picos = Picos(5_596_000_000);
/// SHA portion of `nf_attest` (Appendix C: 0.004 ms).
pub const ATTEST_SHA: Picos = Picos(4_000_000);

/// Time to SHA-digest `bytes` of function memory.
pub fn sha_digest_time(bytes: ByteSize) -> Picos {
    Picos((bytes.bytes() as f64 / SHA_BYTES_PER_MS * 1e9) as u64)
}

/// Time to scrub `bytes` of function memory.
pub fn scrub_time(bytes: ByteSize) -> Picos {
    Picos((bytes.bytes() as f64 / SCRUB_BYTES_PER_SEC * 1e12) as u64)
}

/// The initial code/data image a tenant uploads (§4.1).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NfImage {
    /// Code bytes (hashed into the launch measurement and copied into
    /// the function's memory).
    pub code: Vec<u8>,
    /// Configuration blob (rulesets, keys, parameters — also measured).
    pub config: Vec<u8>,
}

impl NfImage {
    /// Total image bytes.
    pub fn len(&self) -> usize {
        self.code.len() + self.config.len()
    }

    /// True if both sections are empty.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty() && self.config.is_empty()
    }
}

/// Everything `nf_launch` needs (Table 1's argument list).
#[derive(Debug, Clone)]
pub struct LaunchRequest {
    /// Cores to bind (the `core_mask` argument).
    pub cores: Vec<CoreId>,
    /// Private RAM to reserve (drives the planner / page-table walk).
    pub memory: ByteSize,
    /// Accelerator clusters requested per family (the `accel_mask`).
    pub accel: Vec<(AccelKind, usize)>,
    /// Switching rules for the function's VPP (`pkt_pipeline_config`).
    /// The `target` field is overwritten with the new function's id.
    pub rules: Vec<SwitchRule>,
    /// VPP buffer reservation.
    pub vpp: VppBufferSpec,
    /// Initial code + configuration.
    pub image: NfImage,
    /// Page sizes for the mapping plan (None = device default).
    pub page_policy: Option<PagePolicy>,
    /// Host-sanctioned DMA window `(base, len)` in host physical memory
    /// (§4.2: "the function should only be able to transfer data to a
    /// host-sanctioned region in host RAM"). `None` = no host DMA.
    pub host_window: Option<(u64, u64)>,
    /// Physical placement hint for the private region. `None` lets the
    /// device choose; a hint is handed to the static verifier unmodified,
    /// so demos and tests can construct overlapping manifests that the
    /// verifier — not the ownership bitmap — must refuse.
    pub region_base: Option<u64>,
    /// Pass 0 submission: the NF's dataflow IR plus the resource
    /// envelope it claims confinement to. When present, the static
    /// analyzer must prove the program confined *before* any resource is
    /// reserved; a failing analysis refuses the launch atomically.
    /// `None` launches without a program-analysis certificate (the
    /// attestation digest stays all-zero, which a relying party can
    /// reject).
    pub analysis: Option<snic_verify::pass0::LaunchAnalysis>,
}

impl LaunchRequest {
    /// A minimal single-core request with `memory` bytes of RAM.
    pub fn minimal(core: CoreId, memory: ByteSize, image: NfImage) -> LaunchRequest {
        LaunchRequest {
            cores: vec![core],
            memory,
            accel: Vec::new(),
            rules: Vec::new(),
            vpp: VppBufferSpec::default(),
            image,
            page_policy: None,
            host_window: None,
            region_base: None,
            analysis: None,
        }
    }
}

/// Latency breakdown of one `nf_launch` (Figure 6, left).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchLatency {
    /// TLB setup and configuration reading.
    pub tlb_setup: Picos,
    /// Denylisting.
    pub denylisting: Picos,
    /// SHA-256 digesting of function memory.
    pub sha_digest: Picos,
}

impl LaunchLatency {
    /// Total instruction latency.
    pub fn total(&self) -> Picos {
        self.tlb_setup + self.denylisting + self.sha_digest
    }
}

/// What `nf_launch` returns.
#[derive(Debug, Clone)]
pub struct LaunchReceipt {
    /// The new function's opaque id.
    pub nf_id: NfId,
    /// Measured launch hash (covers image, rules, and core/memory
    /// configuration — §4.6's cumulative hash).
    pub measurement: [u8; 32],
    /// Latency breakdown.
    pub latency: LaunchLatency,
}

/// Latency breakdown of one `nf_teardown` (Figure 6, right).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TeardownLatency {
    /// Allowlisting (denylist removal).
    pub allowlisting: Picos,
    /// Memory scrubbing.
    pub scrub: Picos,
}

impl TeardownLatency {
    /// Total instruction latency.
    pub fn total(&self) -> Picos {
        self.allowlisting + self.scrub
    }
}

/// What `nf_teardown` returns.
#[derive(Debug, Clone, Copy)]
pub struct TeardownReceipt {
    /// Latency breakdown.
    pub latency: TeardownLatency,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha_time_matches_appendix_c() {
        // LB (13.80 MB): paper measured 29.62 ms of digesting.
        let t = sha_digest_time(ByteSize((13.80 * 1024.0 * 1024.0) as u64)).as_millis_f64();
        assert!((t - 29.62).abs() < 0.6, "{t} ms");
        // Monitor (360.54 MB): 763.52 ms.
        let t = sha_digest_time(ByteSize((360.54 * 1024.0 * 1024.0) as u64)).as_millis_f64();
        assert!((t - 763.52).abs() < 10.0, "{t} ms");
    }

    #[test]
    fn scrub_time_matches_appendix_c() {
        // Monitor: 54.23 ms dominated by scrubbing.
        let t = scrub_time(ByteSize((360.54 * 1024.0 * 1024.0) as u64)).as_millis_f64();
        assert!((t - 54.23).abs() < 4.0, "{t} ms");
        // LB: 2.11 ms.
        let t = scrub_time(ByteSize((13.80 * 1024.0 * 1024.0) as u64)).as_millis_f64();
        assert!((t - 2.11).abs() < 0.3, "{t} ms");
    }

    #[test]
    fn launch_latency_totals() {
        let l = LaunchLatency {
            tlb_setup: TLB_SETUP,
            denylisting: DENYLISTING,
            sha_digest: sha_digest_time(ByteSize::mib(50)),
        };
        assert_eq!(l.total(), l.tlb_setup + l.denylisting + l.sha_digest);
        // Digesting dominates for a 50 MB function.
        assert!(l.sha_digest.0 > 10 * (l.tlb_setup + l.denylisting).0);
    }

    #[test]
    fn image_len() {
        let img = NfImage {
            code: vec![0; 10],
            config: vec![0; 5],
        };
        assert_eq!(img.len(), 15);
        assert!(!img.is_empty());
        assert!(NfImage::default().is_empty());
    }
}
