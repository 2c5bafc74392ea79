//! Soundness link between Pass 0 and Pass 2.
//!
//! Pass 0 proves, over the NF's dataflow IR, that every load and store
//! stays inside the regions its manifest grants. Pass 2 watches the NF
//! *actually run* and flags granted references that land in another
//! domain's memory. If the IR lowering is faithful, a program Pass 0
//! certifies clean can never trip Pass 2's memory lints under the same
//! manifest — that implication is the analyzer's soundness contract, and
//! this file checks it property-style: random NF kind, random build
//! seed, random packet mix, with the ownership map carved so that every
//! byte *outside* the granted windows belongs to a neighbor. Any stray
//! access would surface as a `P2-CROSS-DOMAIN-REF` finding.
//!
//! The companion test at the bottom shows the lint has teeth: a
//! hand-built stream that wanders outside the windows is flagged, so the
//! silence above is discrimination, not blindness.

use proptest::prelude::*;
use snic::mem::guard::{AccessKind as PhysAccessKind, AccessRecord, Principal};
use snic::nf::{record_stream, NfKind};
use snic::types::packet::PacketBuilder;
use snic::types::{CoreId, NfId, NicMode, Packet, Protocol};
use snic::uarch::stream::AccessKind as VaAccessKind;
use snic::verify::pass0::analyze;
use snic::verify::TraceLinter;

/// The NIC-OS range the linter checks against. NIC-OS metadata sits
/// below the NF virtual layout, so no legitimate NF reference can read
/// it.
const NIC_OS: (u64, u64) = (0x0010_0000, 0x2_0000);

/// Ownership map derived from the *same* manifest Pass 0 verified:
/// every granted window belongs to `me`, and the entire complement of
/// the granted span belongs to `neighbor`, so any reference outside the
/// windows is a cross-domain hit.
fn domains_from_manifest(
    regions: &[(u64, u64)],
    me: NfId,
    neighbor: NfId,
) -> Vec<(u64, u64, NfId)> {
    let lo = regions.iter().map(|&(b, _)| b).min().unwrap_or(0);
    let hi = regions
        .iter()
        .map(|&(b, l)| b.saturating_add(l))
        .max()
        .unwrap_or(0);
    let mut domains: Vec<(u64, u64, NfId)> = regions.iter().map(|&(b, l)| (b, l, me)).collect();
    domains.push((0, lo, neighbor));
    domains.push((hi, u64::MAX - hi, neighbor));
    domains
}

/// Identity VA→PA: the recorded virtual stream *is* the physical trace,
/// attributed to the NF under test. One-byte attribution records the
/// touched address exactly (the sink does not carry access width).
fn to_trace(stream: &[snic::uarch::stream::Access], me: NfId) -> Vec<AccessRecord> {
    stream
        .iter()
        .map(|a| AccessRecord {
            who: Principal::Nf(me, CoreId(0)),
            addr: a.addr,
            len: 1,
            kind: match a.kind {
                VaAccessKind::Load => PhysAccessKind::Load,
                VaAccessKind::Store => PhysAccessKind::Store,
            },
            granted: true,
        })
        .collect()
}

fn packet(flow: u32, port: u16, payload_len: usize) -> Packet {
    let proto = if flow.is_multiple_of(3) {
        Protocol::Udp
    } else {
        Protocol::Tcp
    };
    PacketBuilder::new(
        0x0a00_0000 + flow,
        0xc633_0001 + (flow % 5),
        proto,
        9_000 + port,
        80,
    )
    .payload(vec![0xab; payload_len])
    .build()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 18, ..ProptestConfig::default() })]

    /// Pass 0 clean ⇒ Pass 2 memory lints silent, for every paper NF,
    /// any build seed, any packet mix.
    #[test]
    fn pass0_clean_implies_silent_memory_lint(
        kind_idx in 0usize..NfKind::ALL.len(),
        seed in 0u64..1_000,
        flows in proptest::collection::vec((0u32..64, 0u16..1_024, 0usize..96), 1..40),
    ) {
        let kind = NfKind::ALL[kind_idx];
        let nf = snic::nf::build(kind, seed);
        let submission = snic::nf::launch_analysis(nf.as_ref());

        // The static side: the IR verifies against its manifest.
        let report = analyze(&submission.program, &submission.manifest);
        prop_assert!(
            report.is_clean(),
            "{kind:?} (seed {seed}) failed Pass 0: {report}"
        );

        // The dynamic side: run real packets, lint the real stream under
        // the *same* granted windows.
        let packets: Vec<Packet> = flows
            .iter()
            .map(|&(flow, port, len)| packet(flow, port, len))
            .collect();
        let stream = record_stream(|| snic::nf::build(kind, seed), &packets);
        let (me, neighbor) = (NfId(1), NfId(2));
        let linter = TraceLinter::new(
            NicMode::Snic,
            vec![NIC_OS],
            domains_from_manifest(&submission.manifest.regions, me, neighbor),
        );
        let findings = linter.lint_memory(&to_trace(&stream, me));
        prop_assert!(
            findings.is_empty(),
            "{kind:?} (seed {seed}) passed Pass 0 but tripped Pass 2 over \
             {} accesses: {findings:?}",
            stream.len()
        );
    }
}

/// The lint is not vacuously quiet: the same linter configuration flags
/// a stream that strays one byte past the granted span.
#[test]
fn stray_access_outside_granted_windows_is_flagged() {
    let nf = snic::nf::build(NfKind::Firewall, 7);
    let submission = snic::nf::launch_analysis(nf.as_ref());
    let (me, neighbor) = (NfId(1), NfId(2));
    let linter = TraceLinter::new(
        NicMode::Snic,
        vec![NIC_OS],
        domains_from_manifest(&submission.manifest.regions, me, neighbor),
    );
    let hi = submission
        .manifest
        .regions
        .iter()
        .map(|&(b, l)| b + l)
        .max()
        .unwrap();
    let stray = vec![AccessRecord {
        who: Principal::Nf(me, CoreId(0)),
        addr: hi, // first byte past the last granted window
        len: 1,
        kind: PhysAccessKind::Load,
        granted: true,
    }];
    let findings = linter.lint_memory(&stray);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].kind.code(), "P2-CROSS-DOMAIN-REF");
}
