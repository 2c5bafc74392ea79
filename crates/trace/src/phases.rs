//! Workload phases: diurnal cycles, flash crowds, heavy-hitter
//! migration, and flow churn layered over the ICTF-like Zipf stream.
//!
//! The paper's §5.3 workload is a *snapshot*: a fixed flow pool with a
//! fixed Zipf(1.1) popularity ranking. Real tenant traffic is not
//! stationary — λ-NIC's serverless workloads and OSMOSIS's multi-tenant
//! mixes (PAPERS.md) motivate four time-varying effects this module
//! adds, each deterministic given a seed so streamed replays stay
//! bit-identical:
//!
//! - **Diurnal cycles**: the active-flow population breathes on a
//!   triangle wave between a trough percentage and 100%. Off-peak,
//!   ranks fold into the active prefix, concentrating traffic on fewer
//!   flows (higher locality); at peak the full pool participates. The
//!   wave is integer arithmetic — no floating-point trig — so every
//!   platform computes the identical schedule.
//! - **Flash crowds**: at fixed onsets a small seeded set of flows
//!   abruptly captures a large share of packets for a bounded window
//!   (the "everyone hits one endpoint" event), then traffic relaxes.
//! - **Heavy-hitter migration**: the popularity ranking rotates through
//!   the pool on a fixed period, so *which* flows are hot drifts over
//!   time while the Zipf shape is preserved.
//! - **Flow churn**: on each churn epoch a fraction of flow
//!   *identities* is replaced — the rank→five-tuple mapping shifts, so
//!   old flows die and new ones take their place (new tags, new NF
//!   state) without perturbing popularity.
//!
//! With every knob off, [`PhasedTrace`] is the paper's snapshot workload
//! — [`IctfLikeTrace`](crate::IctfLikeTrace) is exactly that degenerate
//! phase schedule, which is what keeps the existing goldens valid.

use rand::Rng;
use rand::SeedableRng;
use snic_types::packet::PacketBuilder;
use snic_types::{FiveTuple, Packet};

use crate::flows::{FlowTable, FlowTableConfig};
use crate::ictf::IctfConfig;
use crate::payload::PayloadGen;
use crate::zipf::ZipfSampler;

/// The time-varying knobs of a [`PhasedTrace`]. All periods count in
/// packets (the generator's clock); a period of 0 disables that effect.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSchedule {
    /// Packets per full diurnal cycle (peak → trough → peak); 0 = off.
    pub diurnal_period: u64,
    /// Active-flow percentage at the diurnal trough (1..=100). At 100
    /// the wave is flat even when `diurnal_period` is set.
    pub trough_active_pct: u32,
    /// Packets between flash-crowd onsets; 0 = off.
    pub flash_every: u64,
    /// Packets a flash crowd lasts once it starts (clamped below
    /// `flash_every`).
    pub flash_len: u64,
    /// How many flows the crowd converges on.
    pub flash_hot_flows: usize,
    /// Percentage of in-crowd packets redirected to the hot set.
    pub flash_share_pct: u32,
    /// Packets between heavy-hitter rotations; 0 = off.
    pub migrate_every: u64,
    /// Packets between churn epochs (identity replacement); 0 = off.
    pub churn_every: u64,
    /// Percentage of flow identities replaced per churn epoch.
    pub churn_pct: u32,
}

impl PhaseSchedule {
    /// The degenerate schedule: every effect off. A [`PhasedTrace`]
    /// with this schedule reproduces the paper's stationary Zipf
    /// snapshot bit-for-bit.
    pub fn stationary() -> PhaseSchedule {
        PhaseSchedule {
            diurnal_period: 0,
            trough_active_pct: 100,
            flash_every: 0,
            flash_len: 0,
            flash_hot_flows: 0,
            flash_share_pct: 0,
            migrate_every: 0,
            churn_every: 0,
            churn_pct: 0,
        }
    }

    /// A representative "realistic tenant" schedule scaled to a run of
    /// roughly `horizon` packets: two diurnal cycles, a flash crowd per
    /// cycle capturing ~60% of traffic on 16 flows, hourly-ish
    /// heavy-hitter migration, and 10% identity churn per epoch.
    pub fn realistic(horizon: u64) -> PhaseSchedule {
        let cycle = (horizon / 2).max(8);
        PhaseSchedule {
            diurnal_period: cycle,
            trough_active_pct: 20,
            flash_every: cycle,
            flash_len: cycle / 8,
            flash_hot_flows: 16,
            flash_share_pct: 60,
            migrate_every: (cycle / 4).max(1),
            churn_every: (cycle / 2).max(1),
            churn_pct: 10,
        }
    }

    /// Whether flash crowds happen at all: every knob of the effect is
    /// set.
    fn flash_on(&self) -> bool {
        self.flash_every > 0
            && self.flash_len > 0
            && self.flash_hot_flows > 0
            && self.flash_share_pct > 0
    }

    /// One-line-per-effect human-readable summary (the `snicctl trace
    /// describe` payload).
    pub fn describe(&self) -> String {
        let mut lines = Vec::new();
        if self.diurnal_period > 0 && self.trough_active_pct < 100 {
            lines.push(format!(
                "diurnal: period={} pkts, trough {}% active",
                self.diurnal_period, self.trough_active_pct
            ));
        }
        if self.flash_on() {
            lines.push(format!(
                "flash crowds: every {} pkts for {} pkts, {}% of traffic onto {} flows",
                self.flash_every,
                self.flash_len.min(self.flash_every),
                self.flash_share_pct,
                self.flash_hot_flows
            ));
        }
        if self.migrate_every > 0 {
            lines.push(format!(
                "heavy-hitter migration: rotate every {} pkts",
                self.migrate_every
            ));
        }
        if self.churn_every > 0 && self.churn_pct > 0 {
            lines.push(format!(
                "churn: {}% of identities every {} pkts",
                self.churn_pct, self.churn_every
            ));
        }
        if lines.is_empty() {
            lines.push("stationary (paper snapshot; no phase effects)".to_string());
        }
        lines.join("\n")
    }
}

/// Configuration of a [`PhasedTrace`]: the base ICTF-like workload plus
/// a phase schedule.
#[derive(Debug, Clone)]
pub struct PhasedConfig {
    /// The underlying flow pool / Zipf / payload parameters.
    pub base: IctfConfig,
    /// The time-varying effects.
    pub schedule: PhaseSchedule,
}

/// A deterministic packet stream with workload phases.
///
/// Sampling order per packet: base Zipf rank → diurnal fold into the
/// active prefix → heavy-hitter rotation → flash-crowd override →
/// churn identity shift → five-tuple lookup. Each stage is the identity
/// when its knob is off, and every stage is a pure function of
/// `(schedule, seed, packet index)` — the whole stream rewinds by
/// rebuilding from its config.
#[derive(Debug)]
pub struct PhasedTrace {
    flows: FlowTable,
    zipf: ZipfSampler,
    payloads: PayloadGen,
    rng: rand::rngs::StdRng,
    mean_payload: usize,
    clock: PhaseClock,
}

/// SplitMix64 — the stateless seeded hash behind flash-crowd membership
/// and hot-set selection (independent of the StdRng draw sequence, so
/// enabling a phase never perturbs the base sampler's stream).
fn splitmix64(mut x: u64) -> u64 {
    snic_types::mix::splitmix64(&mut x)
}

/// `t % every` and `t / every` for a packet index `t` that only ever
/// counts up, kept by adding one per tick instead of dividing. A period
/// of 0 never rolls over.
#[derive(Debug, Clone, Copy)]
struct Cycle {
    every: u64,
    rem: u64,
    epoch: u64,
}

impl Cycle {
    fn new(every: u64) -> Cycle {
        Cycle {
            every,
            rem: 0,
            epoch: 0,
        }
    }

    /// Advance one packet; true when a new period begins.
    fn tick(&mut self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.rem += 1;
        if self.rem < self.every {
            return false;
        }
        self.rem = 0;
        self.epoch += 1;
        true
    }
}

/// `(x + y) mod pool` for `x, y < pool`: one compare-and-subtract.
fn wrap_add(x: usize, y: usize, pool: usize) -> usize {
    let s = x + y;
    if s >= pool {
        s - pool
    } else {
        s
    }
}

/// The phase stages at packet index `t`, advanced one tick per draw.
/// Every divisor the stages need is a period or the pool; the clock
/// pays for them once per period (or once per build) and each draw
/// pays compares, adds and the two crowd hashes. The closed form it
/// replaces, which rebuilds every stage from `t`, is the test oracle.
#[derive(Debug)]
struct PhaseClock {
    t: u64,
    pool: usize,
    seed: u64,
    /// Diurnal position in the wave; `every` is 0 when the wave is flat.
    diurnal: Cycle,
    /// Half a diurnal period (at least 1): the depth at the trough.
    half: u64,
    /// The wave's span (`100 - trough_active_pct`) as `q * half + r`.
    span_q: u64,
    span_r: u64,
    /// Distance from the nearest peak, `0..=half`.
    depth: u64,
    /// `span * depth` as `q * half + r`: `q` is the percentage points
    /// below 100 the active prefix is at.
    drop_q: u64,
    drop_r: u64,
    /// Flows in the active prefix (the whole pool at the peak).
    active: usize,
    migrate: Cycle,
    /// Rotation per migration epoch, and the total so far, mod the pool.
    migrate_stride: usize,
    migrate_offset: usize,
    /// Crowd index in `epoch`; in a crowd while `rem < flash_len`.
    flash: Cycle,
    flash_len: u64,
    flash_share_pct: u64,
    flash_hot_flows: u64,
    /// Where the current crowd's hot set starts, mod the pool.
    crowd_origin: usize,
    churn: Cycle,
    /// Identity shift per churn epoch, and the total so far, mod the
    /// pool.
    churn_step: usize,
    churn_offset: usize,
}

impl PhaseClock {
    fn new(schedule: &PhaseSchedule, pool: usize, seed: u64) -> PhaseClock {
        let pool = pool.max(1);
        let wave = schedule.diurnal_period > 0 && schedule.trough_active_pct < 100;
        let half = (schedule.diurnal_period / 2).max(1);
        let span = if wave {
            u64::from(100 - schedule.trough_active_pct)
        } else {
            0
        };
        let flash = schedule.flash_on();
        let churn = schedule.churn_every > 0 && schedule.churn_pct > 0;
        let churn_step = if churn {
            ((pool as u64 * u64::from(schedule.churn_pct)) / 100).max(1) % pool as u64
        } else {
            0
        };
        PhaseClock {
            t: 0,
            pool,
            seed,
            diurnal: Cycle::new(if wave { schedule.diurnal_period } else { 0 }),
            half,
            span_q: span / half,
            span_r: span % half,
            depth: 0,
            drop_q: 0,
            drop_r: 0,
            active: pool,
            migrate: Cycle::new(schedule.migrate_every),
            migrate_stride: (pool / 7).max(1) % pool,
            migrate_offset: 0,
            flash: Cycle::new(if flash { schedule.flash_every } else { 0 }),
            flash_len: if flash {
                schedule.flash_len.min(schedule.flash_every)
            } else {
                0
            },
            flash_share_pct: u64::from(schedule.flash_share_pct),
            flash_hot_flows: schedule.flash_hot_flows as u64,
            crowd_origin: crowd_origin(seed, 0, pool),
            churn: Cycle::new(if churn { schedule.churn_every } else { 0 }),
            churn_step: churn_step as usize,
            churn_offset: 0,
        }
    }

    /// Map a freshly sampled Zipf rank (below the pool) through the
    /// phase stages at the current packet index, yielding the
    /// flow-table index to emit.
    fn flow_index(&self, rank: usize) -> usize {
        // Diurnal: fold into the active prefix. Folding (not clamping)
        // keeps the Zipf head dominant while redistributing tail mass.
        let mut r = if rank >= self.active {
            rank % self.active
        } else {
            rank
        };

        // Heavy-hitter migration: rotate the ranking by a pool-coprime
        // stride per period so the hot set walks the whole pool.
        r = wrap_add(r, self.migrate_offset, self.pool);

        // Flash crowd: a seeded share of in-crowd packets collapses
        // onto a small per-crowd hot set.
        if self.flash.rem < self.flash_len {
            let (t, crowd) = (self.t, self.flash.epoch);
            let gate = splitmix64(self.seed ^ t.wrapping_mul(0x5bd1)) % 100;
            if gate < self.flash_share_pct {
                let slot = splitmix64(self.seed ^ crowd ^ t) % self.flash_hot_flows;
                // The hot set may outnumber the pool.
                let hot = self.crowd_origin as u64 + slot;
                let pool = self.pool as u64;
                r = if hot < pool { hot } else { hot % pool } as usize;
            }
        }

        // Churn: shift the rank→identity mapping by churn_pct of the
        // pool per epoch — old identities age out of the hot ranks.
        wrap_add(r, self.churn_offset, self.pool)
    }

    /// Advance to the next packet index.
    fn tick(&mut self) {
        self.t += 1;
        if self.diurnal.every > 0 {
            self.diurnal.tick();
            let pos = self.diurnal.rem;
            let depth = if pos <= self.half {
                pos
            } else {
                self.diurnal.every - pos
            };
            // The triangle wave moves at most one step per packet.
            if depth != self.depth {
                if depth > self.depth {
                    self.drop_q += self.span_q;
                    self.drop_r += self.span_r;
                    if self.drop_r >= self.half {
                        self.drop_r -= self.half;
                        self.drop_q += 1;
                    }
                } else {
                    self.drop_q -= self.span_q;
                    if self.drop_r < self.span_r {
                        self.drop_r += self.half;
                        self.drop_q -= 1;
                    }
                    self.drop_r -= self.span_r;
                }
                self.depth = depth;
                let pct = 100 - self.drop_q;
                self.active = ((self.pool as u64 * pct / 100) as usize).max(1);
            }
        }
        if self.migrate.tick() {
            self.migrate_offset = wrap_add(self.migrate_offset, self.migrate_stride, self.pool);
        }
        if self.flash.tick() {
            self.crowd_origin = crowd_origin(self.seed, self.flash.epoch, self.pool);
        }
        if self.churn.tick() {
            self.churn_offset = wrap_add(self.churn_offset, self.churn_step, self.pool);
        }
    }
}

/// The first flow of crowd `crowd`'s hot set.
fn crowd_origin(seed: u64, crowd: u64, pool: usize) -> usize {
    (splitmix64(seed.wrapping_add(crowd)) % pool as u64) as usize
}

impl PhasedTrace {
    /// Build the flow pool and samplers.
    pub fn new(config: PhasedConfig) -> PhasedTrace {
        let base = config.base;
        let flows = FlowTable::generate(&FlowTableConfig {
            flows: base.flows,
            tcp_fraction: 0.9,
            seed: base.seed ^ 0xf10f,
        });
        PhasedTrace {
            flows,
            zipf: ZipfSampler::new(base.flows, base.theta),
            payloads: PayloadGen::new(base.seed ^ 0xbeef, base.patterns, base.signature_rate),
            rng: rand::rngs::StdRng::seed_from_u64(base.seed),
            mean_payload: base.mean_payload,
            clock: PhaseClock::new(&config.schedule, base.flows, base.seed),
        }
    }

    /// Draw the next flow (without building packet bytes). This
    /// advances the phase clock: every draw is one tick of `t`.
    pub fn next_flow(&mut self) -> FiveTuple {
        let rank = self.zipf.sample(&mut self.rng);
        let index = self.clock.flow_index(rank);
        self.clock.tick();
        self.flows.get(index)
    }

    /// One packet's draws from the flow RNG: the flow, then the payload
    /// length jittered ±50% around the mean.
    fn draw(&mut self) -> (PacketBuilder, usize) {
        let ft = self.next_flow();
        let len = if self.mean_payload == 0 {
            0
        } else {
            let half = self.mean_payload / 2;
            self.rng
                .random_range(self.mean_payload - half..=self.mean_payload + half)
        };
        let builder =
            PacketBuilder::new(ft.src_ip, ft.dst_ip, ft.protocol, ft.src_port, ft.dst_port);
        (builder, len)
    }

    /// Build the next packet in the stream.
    pub fn next_packet(&mut self) -> Packet {
        let (builder, len) = self.draw();
        builder.payload(self.payloads.generate(len)).build()
    }

    /// Build only the headers of the next packet: the frame
    /// [`PhasedTrace::next_packet`] would return, cut after the L4
    /// header (see [`PacketBuilder::build_headers`]). The flow RNG makes
    /// exactly `next_packet`'s draws, so the stream of five-tuples and
    /// lengths is the same whichever of the two pulls it; the payload
    /// generator, which has its own RNG, is not advanced.
    pub fn next_headers(&mut self) -> Packet {
        let mut frame = Packet::default();
        self.next_headers_into(&mut frame);
        frame
    }

    /// [`PhasedTrace::next_headers`] written over `slot`, in place when
    /// the slot's buffer allows it (see [`PacketBuilder::headers_into`]):
    /// a consumer that reads each frame and keeps none allocates nothing
    /// per packet.
    pub fn next_headers_into(&mut self, slot: &mut Packet) {
        let (builder, len) = self.draw();
        builder.headers_into(len, slot);
    }

    /// Phase-clock ticks so far (flow draws; equals packets when the
    /// stream is consumed via [`PhasedTrace::next_packet`]).
    pub fn generated(&self) -> u64 {
        self.clock.t
    }

    /// The underlying flow pool.
    pub fn flow_table(&self) -> &FlowTable {
        &self.flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The closed form of each stage, rebuilt from the packet index `t`
    /// alone: the oracle [`PhaseClock`] is held to.
    impl PhaseSchedule {
        /// Active-flow percentage at packet `t`: a triangle wave from
        /// 100 (peak, cycle start) down to `trough_active_pct` at
        /// mid-cycle and back.
        fn active_pct_at(&self, t: u64) -> u32 {
            if self.diurnal_period == 0 || self.trough_active_pct >= 100 {
                return 100;
            }
            let period = self.diurnal_period;
            let pos = t % period;
            let half = (period / 2).max(1);
            // Distance from the nearest peak, 0..=half.
            let depth = if pos <= half { pos } else { period - pos };
            let span = u64::from(100 - self.trough_active_pct);
            100 - (span * depth / half) as u32
        }

        /// Which flash crowd (0-based onset index) packet `t` falls in.
        fn crowd_at(&self, t: u64) -> Option<u64> {
            let len = self.flash_len.min(self.flash_every);
            (self.flash_on() && t % self.flash_every < len).then(|| t / self.flash_every)
        }
    }

    /// The flow-table index of Zipf rank `rank` drawn at packet `t`.
    fn phased_rank(sched: &PhaseSchedule, pool: usize, seed: u64, rank: usize, t: u64) -> usize {
        let pool = pool.max(1);
        let mut r = rank;
        let pct = sched.active_pct_at(t);
        if pct < 100 {
            let active = ((pool as u64 * u64::from(pct)) / 100).max(1) as usize;
            r %= active;
        }
        if let Some(epoch) = t.checked_div(sched.migrate_every) {
            let stride = (pool / 7).max(1) as u64;
            r = ((r as u64 + epoch * stride) % pool as u64) as usize;
        }
        if let Some(crowd) = sched.crowd_at(t) {
            let gate = splitmix64(seed ^ t.wrapping_mul(0x5bd1)) % 100;
            if gate < u64::from(sched.flash_share_pct) {
                let slot = splitmix64(seed ^ crowd ^ t) % sched.flash_hot_flows as u64;
                let origin = splitmix64(seed.wrapping_add(crowd)) % pool as u64;
                r = ((origin + slot) % pool as u64) as usize;
            }
        }
        if sched.churn_every > 0 && sched.churn_pct > 0 {
            let epoch = t / sched.churn_every;
            let step = ((pool as u64 * u64::from(sched.churn_pct)) / 100).max(1);
            r = ((r as u64 + epoch * step) % pool as u64) as usize;
        }
        r
    }

    /// Tick a clock through `draws` packets, holding its flow index to
    /// the closed form at every one (ranks drawn uniformly below the
    /// pool, so folds and wraps are all reached).
    fn assert_clock_is_the_closed_form(sched: &PhaseSchedule, pool: usize, seed: u64, draws: u64) {
        let mut clock = PhaseClock::new(sched, pool, seed);
        for t in 0..draws {
            assert_eq!(clock.t, t);
            let rank = (splitmix64(seed ^ t ^ 0xa5a5) % pool as u64) as usize;
            assert_eq!(
                clock.flow_index(rank),
                phased_rank(sched, pool, seed, rank, t),
                "t={t} rank={rank} pool={pool} {sched:?}"
            );
            clock.tick();
        }
    }

    /// Three full periods of the longest effect, and some draws besides.
    fn three_periods(sched: &PhaseSchedule) -> u64 {
        let longest = [
            sched.diurnal_period,
            sched.flash_every,
            sched.migrate_every,
            sched.churn_every,
        ]
        .into_iter()
        .max()
        .unwrap_or(0);
        3 * longest + 64
    }

    /// The edge shapes, each by name: periods of 1 and 2 and odd
    /// lengths, a crowd at least as long as its spacing, a flat wave
    /// at 100 %, full churn, and a pool of one flow.
    #[test]
    fn clock_matches_the_closed_form_on_edge_shapes() {
        let every = |p: u64| PhaseSchedule {
            diurnal_period: p,
            trough_active_pct: 10,
            flash_every: p,
            flash_len: (p / 3).max(1),
            flash_hot_flows: 5,
            flash_share_pct: 70,
            migrate_every: p,
            churn_every: p,
            churn_pct: 30,
        };
        let mut shapes = vec![
            PhaseSchedule::stationary(),
            PhaseSchedule::realistic(2_000),
            PhaseSchedule::realistic(7),
        ];
        shapes.extend([1, 2, 3, 5, 7, 99, 101].map(every));
        shapes.extend([
            PhaseSchedule {
                flash_len: 40,
                ..every(9)
            },
            PhaseSchedule {
                flash_len: 9,
                ..every(9)
            },
            PhaseSchedule {
                trough_active_pct: 100,
                ..every(12)
            },
            PhaseSchedule {
                trough_active_pct: 0,
                ..every(13)
            },
            PhaseSchedule {
                churn_pct: 100,
                ..every(11)
            },
            PhaseSchedule {
                churn_pct: 250,
                ..every(11)
            },
            PhaseSchedule {
                flash_hot_flows: 400,
                flash_share_pct: 100,
                ..every(10)
            },
        ]);
        for sched in &shapes {
            for pool in [1, 2, 3, 7, 50, 1_000] {
                assert_clock_is_the_closed_form(sched, pool, 0x51ed, three_periods(sched));
            }
        }
    }

    fn random_schedules() -> impl Strategy<Value = PhaseSchedule> {
        let period = || prop_oneof![Just(0u64), Just(1u64), Just(2u64), 0u64..64, 0u64..400];
        (
            (period(), 0u32..=100),
            (period(), 0u64..500, 0usize..40, 0u32..=100),
            period(),
            (period(), 0u32..=150),
        )
            .prop_map(
                |(
                    (diurnal_period, trough_active_pct),
                    (flash_every, flash_len, flash_hot_flows, flash_share_pct),
                    migrate_every,
                    (churn_every, churn_pct),
                )| PhaseSchedule {
                    diurnal_period,
                    trough_active_pct,
                    flash_every,
                    flash_len,
                    flash_hot_flows,
                    flash_share_pct,
                    migrate_every,
                    churn_every,
                    churn_pct,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any schedule, pool and seed: at every packet of three full
        /// periods the clock's flow index is the closed form's.
        #[test]
        fn clock_matches_the_closed_form(
            sched in random_schedules(),
            pool in prop_oneof![Just(1usize), 1usize..20, 1usize..5_000],
            seed in any::<u64>(),
        ) {
            assert_clock_is_the_closed_form(&sched, pool, seed, three_periods(&sched));
        }
    }

    fn base(flows: usize, seed: u64) -> IctfConfig {
        IctfConfig {
            flows,
            mean_payload: 64,
            seed,
            ..IctfConfig::default()
        }
    }

    fn phased(flows: usize, seed: u64, schedule: PhaseSchedule) -> PhasedTrace {
        PhasedTrace::new(PhasedConfig {
            base: base(flows, seed),
            schedule,
        })
    }

    /// The generator `IctfLikeTrace` was before it became the stationary
    /// `PhasedTrace`, kept as the oracle: a Zipf rank straight into the
    /// flow table, a jittered length, a payload from the second RNG.
    #[test]
    fn stationary_schedule_is_the_plain_zipf_snapshot() {
        let cfg = base(500, 0x77);
        let flows = FlowTable::generate(&FlowTableConfig {
            flows: cfg.flows,
            tcp_fraction: 0.9,
            seed: cfg.seed ^ 0xf10f,
        });
        let zipf = ZipfSampler::new(cfg.flows, cfg.theta);
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        let mut payloads = PayloadGen::new(cfg.seed ^ 0xbeef, Vec::new(), cfg.signature_rate);
        let mut ph = phased(500, 0x77, PhaseSchedule::stationary());
        for _ in 0..500 {
            let ft = flows.get(zipf.sample(&mut rng));
            let len = rng.random_range(32..=96);
            let want =
                PacketBuilder::new(ft.src_ip, ft.dst_ip, ft.protocol, ft.src_port, ft.dst_port)
                    .payload(payloads.generate(len))
                    .build();
            assert_eq!(ph.next_packet(), want);
        }
    }

    /// One config, two generators: whichever of `next_packet` /
    /// `next_headers` pulls it, the stream has the same flows and
    /// lengths — frame *i* of one is the header prefix of frame *i* of
    /// the other.
    #[test]
    fn headers_stream_is_the_prefix_of_the_packet_stream() {
        for sched in [PhaseSchedule::stationary(), PhaseSchedule::realistic(2_000)] {
            let mut full = phased(300, 0x5a, sched.clone());
            let mut headers = phased(300, 0x5a, sched);
            let mut udp = 0;
            for i in 0..2_000 {
                let (f, h) = (full.next_packet(), headers.next_headers());
                assert!(h.len() <= PacketBuilder::MAX_HEADERS && h.len() < f.len());
                assert_eq!(h.data[..], f.data[..h.len()], "frame {i}");
                assert_eq!(h.ipv4().unwrap(), f.ipv4().unwrap());
                assert_eq!(
                    FiveTuple::from_packet(&h).unwrap(),
                    FiveTuple::from_packet(&f).unwrap()
                );
                assert!(h.ipv4_checksum_ok());
                assert_eq!(h.payload(), b"");
                udp += usize::from(h.udp().is_ok());
            }
            assert!(udp > 0 && udp < 2_000, "both L4 protocols drawn: {udp}");
            assert_eq!(full.generated(), headers.generated());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let sched = PhaseSchedule::realistic(2_000);
        let mut a = phased(300, 0x99, sched.clone());
        let mut b = phased(300, 0x99, sched);
        for _ in 0..2_000 {
            assert_eq!(a.next_packet(), b.next_packet());
        }
    }

    #[test]
    fn diurnal_trough_concentrates_traffic() {
        let sched = PhaseSchedule {
            diurnal_period: 10_000,
            trough_active_pct: 5,
            ..PhaseSchedule::stationary()
        };
        assert_eq!(sched.active_pct_at(0), 100);
        assert_eq!(sched.active_pct_at(5_000), 5);
        assert_eq!(sched.active_pct_at(10_000), 100);
        let mut t = phased(1_000, 0x11, sched);
        let mut peak = HashSet::new();
        let mut trough = HashSet::new();
        for i in 0..10_000u64 {
            let f = t.next_flow();
            // First and last 10% of the cycle are near-peak; the middle
            // 10% is the trough.
            if !(1_000..9_000).contains(&i) {
                peak.insert(f);
            } else if (4_500..5_500).contains(&i) {
                trough.insert(f);
            }
        }
        assert!(
            trough.len() * 3 < peak.len(),
            "trough {} vs peak {}",
            trough.len(),
            peak.len()
        );
    }

    #[test]
    fn flash_crowd_concentrates_on_hot_set() {
        let sched = PhaseSchedule {
            flash_every: 1_000,
            flash_len: 500,
            flash_hot_flows: 4,
            flash_share_pct: 80,
            ..PhaseSchedule::stationary()
        };
        // Large pool + weak skew so baseline concentration is low.
        let mut t = PhasedTrace::new(PhasedConfig {
            base: IctfConfig {
                theta: 0.2,
                ..base(5_000, 0x22)
            },
            schedule: sched,
        });
        let mut in_crowd = std::collections::HashMap::new();
        let mut outside = std::collections::HashMap::new();
        for i in 0..10_000u64 {
            let f = t.next_flow();
            if i % 1_000 < 500 {
                *in_crowd.entry(f).or_insert(0u64) += 1;
            } else {
                *outside.entry(f).or_insert(0u64) += 1;
            }
        }
        let top4 = |m: &std::collections::HashMap<FiveTuple, u64>| {
            let mut v: Vec<u64> = m.values().copied().collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v.iter().take(4).sum::<u64>() as f64 / v.iter().sum::<u64>() as f64
        };
        let crowd_share = top4(&in_crowd);
        let base_share = top4(&outside);
        assert!(
            crowd_share > 2.0 * base_share,
            "crowd top-4 share {crowd_share:.3} vs baseline {base_share:.3}"
        );
    }

    #[test]
    fn heavy_hitters_migrate_across_epochs() {
        let sched = PhaseSchedule {
            migrate_every: 5_000,
            ..PhaseSchedule::stationary()
        };
        let mut t = phased(1_000, 0x33, sched);
        let hottest = |t: &mut PhasedTrace, n: u64| {
            let mut counts = std::collections::HashMap::new();
            for _ in 0..n {
                *counts.entry(t.next_flow()).or_insert(0u64) += 1;
            }
            counts.into_iter().max_by_key(|(_, c)| *c).unwrap().0
        };
        let epoch0 = hottest(&mut t, 5_000);
        let epoch1 = hottest(&mut t, 5_000);
        assert_ne!(epoch0, epoch1, "hot flow should move between epochs");
    }

    #[test]
    fn churn_replaces_identities() {
        let sched = PhaseSchedule {
            churn_every: 5_000,
            churn_pct: 50,
            ..PhaseSchedule::stationary()
        };
        let mut t = phased(1_000, 0x44, sched);
        let hottest = |t: &mut PhasedTrace, n: u64| {
            let mut counts = std::collections::HashMap::new();
            for _ in 0..n {
                *counts.entry(t.next_flow()).or_insert(0u64) += 1;
            }
            counts.into_iter().max_by_key(|(_, c)| *c).unwrap().0
        };
        assert_ne!(hottest(&mut t, 5_000), hottest(&mut t, 5_000));
    }

    #[test]
    fn describe_names_every_active_effect() {
        let d = PhaseSchedule::realistic(100_000).describe();
        for needle in ["diurnal", "flash crowds", "migration", "churn"] {
            assert!(d.contains(needle), "missing {needle} in {d}");
        }
        assert!(PhaseSchedule::stationary()
            .describe()
            .contains("stationary"));
    }
}
