//! Flow monitor (Mon).
//!
//! §5.1: "Uses a HashMap to record the number of packets for each 5-tuple
//! flow." The monitor is the memory-hungriest NF in Table 6 (361 MB peak)
//! because its map grows with the number of distinct flows in the
//! measurement window, and its *peak* exceeds its steady state due to two
//! effects Appendix C dissects (Figure 7): DPDK hugepage initialization
//! (a temporary staging buffer doubles the resident pool briefly) and
//! `HashMap` resizings (old and new tables coexist during rehash).
//!
//! Both effects are modeled explicitly through an
//! [`snic_mem::tracker::AllocationTracker`], so the Figure 7 time series
//! and the Table 8 memory-utilization ratio are *measured* from the same
//! event stream the monitor produces.

use std::collections::hash_map::Entry;

use snic_mem::tracker::AllocationTracker;
use snic_types::{ByteSize, FiveTuple, Packet, Picos};

use crate::common::{layout, AccessKind, AccessSink, DetHashMap, NetworkFunction, NfKind, Verdict};
use crate::profile::{paper_profile, MemoryProfile};

/// Modeled bytes per map slot: key (16 B five-tuple packed) + count (8 B)
/// + control byte, rounded to 32 for alignment.
pub(crate) const SLOT_BYTES: u64 = 32;

/// The flow-monitor NF.
#[derive(Debug)]
pub struct MonitorNf {
    counts: DetHashMap<FiveTuple, u64>,
    tracker: AllocationTracker,
    /// Current modeled bucket count of the map.
    buckets: u64,
    /// DPDK hugepage pool size.
    hugepage_pool: ByteSize,
    initialized: bool,
    last_time: Picos,
    packets: u64,
}

impl MonitorNf {
    /// Create a monitor with the given DPDK hugepage pool size.
    pub fn new(hugepage_pool: ByteSize) -> MonitorNf {
        MonitorNf {
            counts: DetHashMap::default(),
            tracker: AllocationTracker::new(),
            buckets: 0,
            hugepage_pool,
            initialized: false,
            last_time: Picos::ZERO,
            packets: 0,
        }
    }

    /// Paper defaults: a 64 MB hugepage pool (DPDK's common default for
    /// NIC dataplanes).
    pub fn with_defaults(_seed: u64) -> MonitorNf {
        MonitorNf::new(ByteSize::mib(64))
    }

    /// Distinct flows currently tracked.
    pub fn tracked_flows(&self) -> usize {
        self.counts.len()
    }

    /// Packets observed.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Packet count for a flow.
    pub fn count_of(&self, flow: &FiveTuple) -> u64 {
        self.counts.get(flow).copied().unwrap_or(0)
    }

    /// The allocation event log (drives Figure 7 and Table 8).
    pub fn tracker(&self) -> &AllocationTracker {
        &self.tracker
    }

    /// Peak resident bytes so far (S-NIC's minimum preallocation).
    pub fn peak_bytes(&self) -> ByteSize {
        self.tracker.peak()
    }

    /// Steady-state resident bytes.
    pub fn steady_bytes(&self) -> ByteSize {
        self.tracker.current()
    }

    fn ensure_init(&mut self, time: Picos) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        // DPDK hugepage initialization: a temporary normal buffer holds
        // the data while the hugepage region is populated.
        self.tracker
            .alloc(time, self.hugepage_pool, "hugepage-staging");
        self.tracker
            .alloc(time, self.hugepage_pool, "hugepage-pool");
        self.tracker
            .release(time, self.hugepage_pool, "hugepage-staging");
        // Initial map allocation.
        self.buckets = 8;
        self.tracker
            .alloc(time, ByteSize(self.buckets * SLOT_BYTES), "flow-map");
    }

    fn maybe_resize(&mut self, time: Picos) {
        // hashbrown grows when len exceeds 7/8 of buckets.
        if self.counts.len() as u64 * 8 <= self.buckets * 7 {
            return;
        }
        let new_buckets = self.buckets * 2;
        // During rehash the old and new tables coexist: this is the spike.
        self.tracker
            .alloc(time, ByteSize(new_buckets * SLOT_BYTES), "flow-map-resize");
        self.tracker
            .release(time, ByteSize(self.buckets * SLOT_BYTES), "flow-map-old");
        self.buckets = new_buckets;
    }

    /// Observe one flow occurrence at `time` (the trace-driven interface
    /// used by the Figure 7 experiment).
    pub fn observe(&mut self, flow: FiveTuple, time: Picos, sink: &mut dyn AccessSink) {
        let time = time.max(self.last_time);
        self.last_time = time;
        self.ensure_init(time);
        self.packets += 1;
        // Bucket probe + counter update.
        let addr = layout::HEAP_BASE + (flow.stable_hash() % self.buckets.max(1)) * SLOT_BYTES;
        sink.touch(addr, AccessKind::Load, 200);
        let entry = self.counts.entry(flow);
        let is_new = matches!(entry, Entry::Vacant(_));
        *entry.or_insert(0) += 1;
        sink.touch(addr, AccessKind::Store, 30);
        if is_new {
            self.maybe_resize(time);
        }
    }
}

impl NetworkFunction for MonitorNf {
    fn kind(&self) -> NfKind {
        NfKind::Monitor
    }

    fn process(&mut self, pkt: &Packet, sink: &mut dyn AccessSink) -> Verdict {
        sink.touch(layout::PKTBUF_BASE, AccessKind::Load, 150);
        sink.touch(layout::PKTBUF_BASE + 64, AccessKind::Load, 70);
        let Ok(ft) = FiveTuple::from_packet(pkt) else {
            return Verdict::Drop;
        };
        let t = pkt.arrival;
        self.observe(ft, t, sink);
        Verdict::Forward
    }

    fn dataflow_ir(&self) -> snic_verify::pass0::NfProgram {
        crate::lowering::monitor_ir(self)
    }

    fn memory_profile(&self) -> MemoryProfile {
        MemoryProfile {
            heap_stack: self.peak_bytes().max(ByteSize(self.buckets * SLOT_BYTES)),
            ..paper_profile(NfKind::Monitor)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::NullSink;
    use snic_types::Protocol;

    fn flow(i: u32) -> FiveTuple {
        FiveTuple {
            src_ip: i,
            dst_ip: !i,
            protocol: Protocol::Tcp,
            src_port: 1,
            dst_port: 2,
        }
    }

    #[test]
    fn counts_per_flow() {
        let mut m = MonitorNf::new(ByteSize::mib(1));
        for _ in 0..3 {
            m.observe(flow(1), Picos(1), &mut NullSink);
        }
        m.observe(flow(2), Picos(2), &mut NullSink);
        assert_eq!(m.count_of(&flow(1)), 3);
        assert_eq!(m.count_of(&flow(2)), 1);
        assert_eq!(m.count_of(&flow(3)), 0);
        assert_eq!(m.tracked_flows(), 2);
        assert_eq!(m.packets(), 4);
    }

    #[test]
    fn hugepage_init_creates_startup_spike() {
        let mut m = MonitorNf::new(ByteSize::mib(10));
        m.observe(flow(1), Picos(0), &mut NullSink);
        // Peak saw staging + pool = 20 MB; steady has only the pool.
        assert!(m.peak_bytes() >= ByteSize::mib(20));
        assert!(m.steady_bytes() < ByteSize::mib(11));
    }

    #[test]
    fn map_growth_produces_resize_spikes() {
        let mut m = MonitorNf::new(ByteSize::mib(1));
        for i in 0..10_000u32 {
            m.observe(flow(i), Picos(u64::from(i)), &mut NullSink);
        }
        let resizes = m
            .tracker()
            .events()
            .iter()
            .filter(|e| e.label == "flow-map-resize")
            .count();
        assert!(resizes >= 8, "expected repeated doublings, saw {resizes}");
        // Modeled bucket count stays within the hashbrown growth rule.
        assert!(m.buckets >= 10_000 * 8 / 7);
    }

    #[test]
    fn mur_below_one_with_growth() {
        let mut m = MonitorNf::new(ByteSize::mib(4));
        for i in 0..50_000u32 {
            m.observe(flow(i), Picos(u64::from(i)), &mut NullSink);
        }
        let mur = m.tracker().mur();
        assert!(mur < 1.0, "peak must exceed steady state, mur = {mur}");
        assert!(mur > 0.3, "mur implausibly low: {mur}");
    }

    #[test]
    fn time_series_is_monotone_in_time() {
        let mut m = MonitorNf::new(ByteSize::mib(2));
        for i in 0..5000u32 {
            m.observe(flow(i), Picos(u64::from(i) * 1000), &mut NullSink);
        }
        let series = m.tracker().time_series(50);
        assert_eq!(series.len(), 50);
        assert!(series.windows(2).all(|w| w[0].0 <= w[1].0));
        // The curve ends at the steady state.
        assert_eq!(series.last().unwrap().1, m.steady_bytes());
    }

    #[test]
    fn out_of_order_timestamps_are_clamped() {
        let mut m = MonitorNf::new(ByteSize::mib(1));
        m.observe(flow(1), Picos(1000), &mut NullSink);
        // An earlier timestamp must not panic the tracker.
        m.observe(flow(2), Picos(500), &mut NullSink);
        assert_eq!(m.packets(), 2);
    }

    #[test]
    fn process_uses_packet_arrival_time() {
        use snic_types::packet::PacketBuilder;
        let mut m = MonitorNf::new(ByteSize::mib(1));
        let mut p = PacketBuilder::new(1, 2, Protocol::Udp, 3, 4).build();
        p.arrival = Picos::millis(5);
        assert_eq!(m.process(&p, &mut NullSink), Verdict::Forward);
        assert_eq!(m.tracked_flows(), 1);
    }
}
