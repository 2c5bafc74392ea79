//! The device op driver the property suites share.
//!
//! [`op_strategy`] draws one op at a time — launches (hinted and
//! unhinted), teardowns, packets in and out, DMA both ways, accelerator
//! submissions, bus floods, function crashes, armed faults, power loss
//! mid-scrub, scrub resumption, power cycles and clock advances — and
//! [`Driver::run`] applies a sequence to one device, commodity or
//! S-NIC, requiring `SmartNic::check` to hold after every op. Each op
//! also asserts what `check` cannot state: every frame polls back
//! byte-equal in arrival order (against a model FIFO), a relaunched
//! S-NIC region reads back zeroed, foreign physical reads fail under
//! S-NIC and succeed on a commodity NIC, a refused launch leaves the
//! resource snapshot as it was, and a faulted function stays frozen.
//!
//! One check runs before every op: on a downed device (§4.6) every op
//! but the four a downed device still serves — draining the wire,
//! arming faults, power cycles and clock advances — answers
//! `NicCrashed` and leaves `check`, the resource snapshot and the fault
//! log as they were. [`downed_device_refuses_every_gated_op`] drives it
//! with one op of each kind.

use std::collections::VecDeque;

use proptest::prelude::*;
use rand::SeedableRng;
use snic::core::config::{NicConfig, NicMode};
use snic::core::device::SmartNic;
use snic::core::instr::{LaunchRequest, NfImage};
use snic::crypto::keys::VendorCa;
use snic::faults::{FaultKind, FaultPlan, FaultSite};
use snic::mem::guard::Principal;
use snic::pktio::rules::{RuleMatch, SwitchRule};
use snic::pktio::vpp::VppBufferSpec;
use snic::types::packet::PacketBuilder;
use snic::types::{AccelKind, ByteSize, CoreId, NfId, NfState, Packet, Picos, Protocol, SnicError};

/// Marker offset: past the image, inside even the smallest (2 MiB)
/// region. Every S-NIC launch writes a dirty marker here, so a relaunch
/// over a recycled region proves the scrub ran.
const MARK_OFF: u64 = 1 << 20;

/// Where DMA lands in a function's region: clear of image and marker.
const DMA_OFF: u64 = 0x1000;

/// `(pb, pdb, odb)` bytes a launch picks from: tiny rings that lap, a
/// few descriptors, and sizes that exhaust the 8 MiB ports.
const VPPS: [(u64, u64, u64); 6] = [
    (320, 1024, 1024),
    (640, 1024, 64),
    (1024, 256, 64),
    (4096, 64, 128),
    (3 << 20, 1024, 4 << 20),
    (2 << 20, 128 << 10, 1 << 20),
];

/// Faults an `Arm` op schedules for the next event at their site.
pub const FAULTS: [(FaultSite, FaultKind); 8] = [
    (FaultSite::Rx, FaultKind::NfCrash),
    (FaultSite::DataPath, FaultKind::NfCrash),
    (FaultSite::Accel, FaultKind::AccelClusterFault),
    (FaultSite::Dma, FaultKind::DmaBusError),
    (FaultSite::Launch, FaultKind::DramExhaustion),
    (FaultSite::Launch, FaultKind::AccelPoolExhaustion),
    (FaultSite::Launch, FaultKind::PowerLoss),
    (FaultSite::Scrub, FaultKind::PowerLoss),
];

/// Where a launch asks its region to go.
#[derive(Debug, Clone, Copy)]
pub enum Place {
    /// No hint: the device picks.
    Any,
    /// The base of the `i`-th free-list range.
    Freed(u8),
    /// `k` 2 MiB pages above the bump pointer.
    AboveBump(u8),
    /// Inside the `i`-th live function's region (refused, §4.1).
    OnLive(u8),
    /// The `i`-th region awaiting its scrub (refused, §4.6).
    OnPending(u8),
}

/// One device op; `u8` operands pick a live function by index.
#[derive(Debug, Clone)]
pub enum Op {
    Launch {
        core: u8,
        mem_mib: u8,
        vpp: u8,
        place: Place,
        host: bool,
        crypto: u8,
    },
    Teardown(u8),
    Rx {
        slot: u8,
        payload: u16,
    },
    Poll(u8),
    Tx(u8),
    WirePop,
    Dma(u8),
    Accel(u8),
    BusFlood {
        slot: u8,
        ops: u64,
    },
    FaultNf(u8),
    Arm(u8),
    PowerLossTeardown(u8),
    ResumeScrubs,
    PowerCycle,
    Advance(u64),
    ForeignRead(u8),
}

fn launch_strategy() -> impl Strategy<Value = Op> {
    let place = prop_oneof![
        Just(Place::Any),
        Just(Place::Any),
        (0u8..4).prop_map(Place::Freed),
        (0u8..4).prop_map(Place::AboveBump),
        (0u8..4).prop_map(Place::OnLive),
        (0u8..4).prop_map(Place::OnPending),
    ];
    (0u8..4, 1u8..12, 0u8..6, place, 0u8..8).prop_map(|(core, mem_mib, vpp, place, extra)| {
        Op::Launch {
            core,
            mem_mib,
            vpp,
            place,
            host: extra & 1 == 1,
            crypto: extra >> 1,
        }
    })
}

fn rx_strategy() -> impl Strategy<Value = Op> {
    (0u8..6, 0u16..300).prop_map(|(slot, payload)| Op::Rx { slot, payload })
}

pub fn op_strategy() -> impl Strategy<Value = Op> {
    let flood = prop_oneof![0u64..5_000_000, 40_000_000u64..120_000_000, Just(u64::MAX)];
    let advance = prop_oneof![0u64..1_000_000_000, Just(u64::MAX / 2), Just(u64::MAX)];
    prop_oneof![
        launch_strategy(),
        launch_strategy(),
        launch_strategy(),
        (0u8..6).prop_map(Op::Teardown),
        rx_strategy(),
        rx_strategy(),
        rx_strategy(),
        (0u8..6).prop_map(Op::Poll),
        (0u8..6).prop_map(Op::Poll),
        (0u8..6).prop_map(Op::Tx),
        Just(Op::WirePop),
        (0u8..6).prop_map(Op::Dma),
        (0u8..6).prop_map(Op::Accel),
        (0u8..6, flood).prop_map(|(slot, ops)| Op::BusFlood { slot, ops }),
        (0u8..6).prop_map(Op::FaultNf),
        (0u8..8).prop_map(Op::Arm),
        (0u8..6).prop_map(Op::PowerLossTeardown),
        Just(Op::ResumeScrubs),
        Just(Op::PowerCycle),
        advance.prop_map(Op::Advance),
        (0u8..6).prop_map(Op::ForeignRead),
    ]
}

/// Take a device with two live functions down (power lost at a third
/// launch) and run one op of every kind on it: each op a downed device
/// must refuse meets the pre-dispatch check, the rest run as ever, and
/// the power cycle among them brings the device back.
pub fn downed_device_refuses_every_gated_op(mode: NicMode) -> Result<(), TestCaseError> {
    let launch = |core| Op::Launch {
        core,
        mem_mib: 4,
        vpp: 0,
        place: Place::Any,
        host: true,
        crypto: 1,
    };
    let power_loss = FaultSite::Launch;
    let arm = FAULTS
        .iter()
        .position(|&(site, kind)| site == power_loss && kind == FaultKind::PowerLoss)
        .expect("a launch power loss") as u8;
    let mut driver = Driver::new(mode);
    let frame = |slot| Op::Rx { slot, payload: 8 };
    driver.run(&[launch(0), launch(1), frame(0), Op::Arm(arm), launch(2)])?;
    prop_assert!(driver.nic.is_crashed(), "{:?}: power lost at launch", mode);
    driver.run(&[
        launch(3),
        Op::Teardown(0),
        frame(1),
        Op::Poll(0),
        Op::Tx(1),
        Op::Dma(0),
        Op::Accel(1),
        Op::BusFlood { slot: 0, ops: 1 },
        Op::FaultNf(1),
        Op::PowerLossTeardown(0),
        Op::ResumeScrubs,
        Op::ForeignRead(0),
    ])?;
    prop_assert!(driver.nic.is_crashed());
    prop_assert_eq!(driver.nic.live_nfs(), 2);
    driver.run(&[Op::WirePop, Op::Arm(0), Op::Advance(1), Op::PowerCycle])?;
    prop_assert!(!driver.nic.is_crashed());
    Ok(())
}

/// What the driver knows about one live function.
struct Tenant {
    id: NfId,
    core: CoreId,
    region: (u64, u64),
    vpp: VppBufferSpec,
    /// Accepted frames not yet polled, oldest first.
    rx: VecDeque<Packet>,
}

/// The device under test plus the model its answers are checked against.
pub struct Driver {
    pub nic: SmartNic,
    tenants: Vec<Tenant>,
    /// Transmitted packets not yet popped, tagged with their sender.
    wire: VecDeque<(NfId, Packet)>,
    sent: u32,
}

fn fail(msg: String) -> Result<(), TestCaseError> {
    Err(TestCaseError::Fail(msg))
}

impl Driver {
    pub fn new(mode: NicMode) -> Driver {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xd0_0d);
        Driver {
            nic: SmartNic::new(NicConfig::small(mode), &VendorCa::new(&mut rng)),
            tenants: Vec::new(),
            wire: VecDeque::new(),
            sent: 0,
        }
    }

    fn snic(&self) -> bool {
        self.nic.mode() == NicMode::Snic
    }

    fn pick(&self, slot: u8) -> Option<usize> {
        (!self.tenants.is_empty()).then(|| usize::from(slot) % self.tenants.len())
    }

    fn operational(&self, id: NfId) -> bool {
        self.nic.state_of(id).is_ok_and(|s| s.is_operational())
    }

    /// Run `ops` in order, checking the device after each.
    pub fn run(&mut self, ops: &[Op]) -> Result<(), TestCaseError> {
        for (i, op) in ops.iter().enumerate() {
            let up: Vec<(NfId, bool)> = self
                .tenants
                .iter()
                .map(|t| (t.id, self.operational(t.id)))
                .collect();
            self.apply(op)?;
            self.after(op, &up);
            let live = self.nic.live_nf_ids();
            self.tenants.retain(|t| live.contains(&t.id));
            prop_assert_eq!(live.len(), self.tenants.len(), "op {} {:?}", i, op);
            if let Err(broken) = self.nic.check() {
                return fail(format!(
                    "{:?} after op {i} {op:?}: {broken}",
                    self.nic.mode()
                ));
            }
        }
        Ok(())
    }

    /// A commodity core that dies sprays a wild store over the first
    /// other operational tenant's oldest queued frame; S-NIC contains it.
    fn after(&mut self, op: &Op, up: &[(NfId, bool)]) {
        let newly_faulted = up
            .iter()
            .find(|&&(id, was)| was && self.nic.state_of(id) == Ok(NfState::Faulted));
        let Some(&(dead, _)) = newly_faulted else {
            return;
        };
        if self.snic() || matches!(op, Op::Accel(_)) {
            return;
        }
        let target = up.iter().find(|&&(id, was)| id != dead && was);
        if let Some(t) = target.and_then(|&(id, _)| self.tenants.iter_mut().find(|t| t.id == id)) {
            if let Some(front) = t.rx.front_mut() {
                let mut data = front.data.to_vec();
                data[..32].fill(0xDE);
                *front = Packet::from_bytes(bytes::Bytes::from(data));
            }
        }
    }

    /// The device call `op` stands for, made on a downed device, or
    /// `None` for the ops a downed device still serves. An op aimed at
    /// a function when none is live names id 0: the crash answers first.
    fn call_while_down(&mut self, op: &Op) -> Option<Result<(), SnicError>> {
        let slot = match *op {
            Op::Teardown(s)
            | Op::PowerLossTeardown(s)
            | Op::Poll(s)
            | Op::Tx(s)
            | Op::Dma(s)
            | Op::Accel(s)
            | Op::BusFlood { slot: s, .. }
            | Op::FaultNf(s)
            | Op::ForeignRead(s) => Some(s),
            _ => None,
        };
        let target = slot.and_then(|s| self.pick(s)).map(|i| &self.tenants[i]);
        let (id, core, base) =
            target.map_or((NfId(0), CoreId(0), 0), |t| (t.id, t.core, t.region.0));
        let pkt = self.packet(1000);
        let nic = &mut self.nic;
        Some(match *op {
            Op::WirePop | Op::Arm(_) | Op::PowerCycle | Op::Advance(_) => return None,
            Op::Launch { core, mem_mib, .. } => {
                let mem = ByteSize::mib(u64::from(mem_mib));
                let req = LaunchRequest::minimal(CoreId(core.into()), mem, NfImage::default());
                nic.nf_launch(req).map(drop)
            }
            Op::Teardown(_) | Op::PowerLossTeardown(_) => nic.nf_teardown(id).map(drop),
            Op::Rx { .. } => nic.rx_packet(&pkt).map(drop),
            Op::Poll(_) => nic.poll_packet(id).map(drop),
            Op::Tx(_) => nic.tx_packet(id, pkt),
            Op::Dma(_) => nic.dma_to_host(id, core, DMA_OFF, 0x1000_0000, 8),
            Op::Accel(_) => nic.accel_submit(id).map(drop),
            Op::BusFlood { ops, .. } => nic.bus_flood(id, ops).map(drop),
            Op::FaultNf(_) => nic.fault_nf(id),
            Op::ResumeScrubs => nic.resume_scrubs().map(drop),
            Op::ForeignRead(_) => nic.mem_read(Principal::Management, base, &mut [0; 8]),
        })
    }

    fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
        if self.nic.is_crashed() {
            let before = (self.nic.resource_snapshot(), self.nic.fault_log().to_vec());
            if let Some(refused) = self.call_while_down(op) {
                prop_assert_eq!(refused, Err(SnicError::NicCrashed), "{:?} while down", op);
                let after = (self.nic.resource_snapshot(), self.nic.fault_log().to_vec());
                prop_assert!(before == after, "{:?} while down changed the device", op);
                return Ok(());
            }
        }
        match *op {
            Op::Launch {
                core,
                mem_mib,
                vpp,
                place,
                host,
                crypto,
            } => self.launch(core, mem_mib, vpp, place, (host, crypto))?,
            Op::Teardown(slot) => {
                let Some(i) = self.pick(slot) else {
                    return Ok(());
                };
                let (id, (base, _)) = (self.tenants[i].id, self.tenants[i].region);
                match self.nic.nf_teardown(id) {
                    Ok(_) => {
                        if self.snic() {
                            // Scrubbed and management-readable again.
                            let mut buf = [0xffu8; 32];
                            let read = self.nic.mem_read(Principal::Management, base, &mut buf);
                            prop_assert!(read.is_ok() && buf == [0; 32], "teardown must scrub");
                        }
                    }
                    Err(SnicError::PowerLoss) => prop_assert!(self.nic.is_crashed()),
                    Err(e) => return fail(format!("teardown of live {id}: {e:?}")),
                }
            }
            Op::Rx { slot, payload } => self.rx(slot, payload)?,
            Op::Poll(slot) => {
                let Some(i) = self.pick(slot) else {
                    return Ok(());
                };
                let id = self.tenants[i].id;
                match self.nic.poll_packet(id) {
                    Ok(got) => {
                        let want = self.tenants[i].rx.pop_front();
                        prop_assert_eq!(got, want, "{:?}: FIFO, byte for byte", self.nic.mode());
                    }
                    Err(SnicError::NfFaulted(_)) => prop_assert!(!self.operational(id)),
                    Err(e) => return fail(format!("poll of live {id}: {e:?}")),
                }
            }
            Op::Tx(slot) => {
                let Some(i) = self.pick(slot) else {
                    return Ok(());
                };
                let (id, odb) = (self.tenants[i].id, self.tenants[i].vpp.odb.bytes());
                let pkt = self.packet(2000);
                let undrained = self.wire.iter().filter(|(s, _)| *s == id).count() as u64;
                match self.nic.tx_packet(id, pkt.clone()) {
                    Ok(()) => {
                        prop_assert!((undrained + 1) * 32 <= odb, "ODB overrun");
                        self.wire.push_back((id, pkt));
                    }
                    Err(SnicError::PortBufferExhausted) => {
                        prop_assert!((undrained + 1) * 32 > odb, "ODB refused with room")
                    }
                    Err(SnicError::NfFaulted(_)) => prop_assert!(!self.operational(id)),
                    Err(e) => return fail(format!("tx of live {id}: {e:?}")),
                }
            }
            Op::WirePop => {
                let want = self.wire.pop_front().map(|(_, p)| p);
                prop_assert_eq!(self.nic.wire_pop(), want);
            }
            Op::Dma(slot) => self.dma(slot)?,
            Op::Accel(slot) => {
                let Some(i) = self.pick(slot) else {
                    return Ok(());
                };
                let id = self.tenants[i].id;
                match self.nic.accel_submit(id) {
                    Ok(_) => {}
                    Err(SnicError::NfFaulted(_)) => prop_assert!(!self.operational(id)),
                    Err(SnicError::NicCrashed) => {
                        prop_assert!(!self.snic() && self.nic.is_crashed())
                    }
                    Err(e) => return fail(format!("accel of live {id}: {e:?}")),
                }
            }
            Op::BusFlood { slot, ops } => {
                let Some(i) = self.pick(slot) else {
                    return Ok(());
                };
                let result = self.nic.bus_flood(self.tenants[i].id, ops);
                // The temporal arbiter never lets a flood crash an S-NIC.
                prop_assert!(!self.snic() || !self.nic.is_crashed());
                if let Err(e) = result {
                    let expected = matches!(e, SnicError::NicCrashed | SnicError::InvalidConfig(_));
                    prop_assert!(expected, "bus flood: {:?}", e);
                }
            }
            Op::FaultNf(slot) => {
                let Some(i) = self.pick(slot) else {
                    return Ok(());
                };
                let (id, core) = (self.tenants[i].id, self.tenants[i].core);
                prop_assert!(self.nic.fault_nf(id).is_ok());
                prop_assert_eq!(self.nic.state_of(id), Ok(NfState::Faulted));
                // A faulted function is frozen: the data path refuses it.
                let frozen = Err(SnicError::NfFaulted(id));
                prop_assert_eq!(self.nic.nf_write(id, core, MARK_OFF, b"x"), frozen.clone());
                prop_assert_eq!(self.nic.poll_packet(id).map(|_| ()), frozen.clone());
                let pkt = self.packet(1);
                prop_assert_eq!(self.nic.tx_packet(id, pkt), frozen);
            }
            Op::Arm(k) => {
                let (site, kind) = FAULTS[usize::from(k) % FAULTS.len()];
                let next = self.nic.fault_site_count(site) + 1;
                self.nic
                    .arm_faults(FaultPlan::none().on_nth(site, next, kind));
            }
            Op::PowerLossTeardown(slot) => {
                let Some(i) = self.pick(slot) else {
                    return Ok(());
                };
                let (id, (base, _)) = (self.tenants[i].id, self.tenants[i].region);
                let next = self.nic.fault_site_count(FaultSite::Scrub) + 1;
                let plan = FaultPlan::none().on_nth(FaultSite::Scrub, next, FaultKind::PowerLoss);
                self.nic.arm_faults(plan);
                let result = self.nic.nf_teardown(id);
                if self.snic() {
                    prop_assert_eq!(result.map(|_| ()), Err(SnicError::PowerLoss));
                    // The interrupted region sits in the pending-scrub
                    // queue, not on the free list.
                    let pending = self.nic.pending_scrubs().iter().any(|t| t.base == base);
                    prop_assert!(pending, "interrupted scrub lost its ticket");
                    self.nic.restore_power();
                } else {
                    prop_assert!(result.is_ok(), "a commodity teardown does not scrub");
                }
            }
            Op::ResumeScrubs => {
                let result = self.nic.resume_scrubs();
                if self.nic.is_crashed() {
                    // Power was lost again part way, and the call says so.
                    prop_assert_eq!(result, Err(SnicError::PowerLoss));
                } else {
                    prop_assert!(result.is_ok());
                    prop_assert!(self.nic.pending_scrubs().is_empty());
                }
            }
            Op::PowerCycle => {
                self.nic.power_cycle();
                prop_assert_eq!(self.nic.live_nfs(), 0);
                if !self.nic.is_crashed() {
                    prop_assert!(self.nic.pending_scrubs().is_empty());
                }
            }
            Op::Advance(dt) => {
                let before = self.nic.now();
                let want = before.0.checked_add(dt).map(Picos);
                prop_assert_eq!(self.nic.advance(Picos(dt)), want);
                prop_assert_eq!(self.nic.now(), want.unwrap_or(before));
            }
            Op::ForeignRead(slot) => {
                let Some(a) = self.pick(slot) else {
                    return Ok(());
                };
                let b = (a + 1) % self.tenants.len();
                if a == b {
                    return Ok(());
                }
                let (attacker, core) = (self.tenants[a].id, self.tenants[a].core);
                let victim = self.tenants[b].region.0;
                let mut buf = [0u8; 8];
                let nf_read = self
                    .nic
                    .mem_read(Principal::Nf(attacker, core), victim, &mut buf);
                let os_read = self.nic.mem_read(Principal::Management, victim, &mut buf);
                if self.snic() {
                    // NFs have no physical addressing; live regions are
                    // denylisted against the management core.
                    prop_assert!(matches!(nf_read, Err(SnicError::Isolation(_))));
                    prop_assert!(matches!(os_read, Err(SnicError::Isolation(_))));
                } else {
                    prop_assert!(nf_read.is_ok() && os_read.is_ok(), "xkphys reads succeed");
                }
            }
        }
        Ok(())
    }

    fn launch(
        &mut self,
        core: u8,
        mem_mib: u8,
        vpp: u8,
        place: Place,
        (host, crypto): (bool, u8),
    ) -> Result<(), TestCaseError> {
        let core = CoreId(u16::from(core));
        let (pb, pdb, odb) = VPPS[usize::from(vpp) % VPPS.len()];
        let mut req = LaunchRequest::minimal(
            core,
            ByteSize::mib(u64::from(mem_mib)),
            NfImage {
                code: vec![core.0 as u8; 64],
                config: vec![],
            },
        );
        req.rules.push(SwitchRule {
            dst_port: RuleMatch::Exact(1000 + core.0),
            priority: 5,
            ..SwitchRule::any(NfId(0))
        });
        req.vpp = VppBufferSpec {
            pb: ByteSize(pb),
            pdb: ByteSize(pdb),
            odb: ByteSize(odb),
        };
        let window = 0x1000_0000 + u64::from(core.0) * 0x1_0000;
        req.host_window = host.then_some((window, 0x1_0000));
        req.accel = vec![(AccelKind::Crypto, usize::from(crypto))];
        let nth = |n: u8, len: usize| usize::from(n) % len.max(1);
        req.region_base = match place {
            Place::Any => None,
            Place::Freed(i) => {
                let free = self.nic.free_regions();
                free.get(nth(i, free.len())).map(|r| r.0)
            }
            Place::AboveBump(k) => {
                Some(self.nic.resource_snapshot().next_region + u64::from(k) * (2 << 20))
            }
            Place::OnLive(i) => self
                .tenants
                .get(nth(i, self.tenants.len()))
                .map(|t| t.region.0 + 0x1000),
            Place::OnPending(i) => {
                let pending = self.nic.pending_scrubs();
                pending.get(nth(i, pending.len())).map(|t| t.base)
            }
        };
        let before = self.nic.resource_snapshot();
        let id = match self.nic.nf_launch(req) {
            Ok(receipt) => receipt.nf_id,
            Err(e) => {
                let expected = matches!(
                    e,
                    SnicError::CoreBusy(_)
                        | SnicError::InvalidConfig(_)
                        | SnicError::ScrubPending { .. }
                        | SnicError::Transient(_)
                        | SnicError::Verification(_)
                        | SnicError::AccelUnavailable(_)
                        | SnicError::PowerLoss
                );
                prop_assert!(expected, "unexpected launch error {:?}", e);
                // A refused launch rolls back to an identical snapshot.
                prop_assert_eq!(&before, &self.nic.resource_snapshot());
                return Ok(());
            }
        };
        let region = self.nic.record_of(id).unwrap().region;
        if self.snic() {
            // A (re)used region reads back zeroed, however its previous
            // tenant died; then it gets dirtied for the next one.
            let mut buf = [0xffu8; 16];
            self.nic.nf_read(id, core, MARK_OFF, &mut buf).unwrap();
            prop_assert_eq!(buf, [0u8; 16], "region handed out dirty");
            let marked = self.nic.nf_write(id, core, MARK_OFF, &[0x77; 16]);
            prop_assert!(matches!(marked, Ok(()) | Err(SnicError::NfFaulted(_))));
        }
        self.tenants.push(Tenant {
            id,
            core,
            region,
            vpp: self.nic.record_of(id).unwrap().vpp,
            rx: VecDeque::new(),
        });
        Ok(())
    }

    fn packet(&mut self, dst_port: u16) -> Packet {
        self.packet_with(dst_port, 16)
    }

    fn packet_with(&mut self, dst_port: u16, payload: u16) -> Packet {
        self.sent += 1;
        PacketBuilder::new(self.sent, 2, Protocol::Udp, 7, dst_port)
            .payload(vec![self.sent as u8; usize::from(payload)])
            .build()
    }

    fn rx(&mut self, slot: u8, payload: u16) -> Result<(), TestCaseError> {
        let target = self.pick(slot);
        let port = target.map_or(1, |i| 1000 + self.tenants[i].core.0);
        let pkt = self.packet_with(port, payload);
        let Some(i) = target else {
            prop_assert_eq!(self.nic.rx_packet(&pkt), Ok(None));
            return Ok(());
        };
        let id = self.tenants[i].id;
        let was_up = self.operational(id);
        let dropped = self.nic.record_of(id).unwrap().rx_dropped;
        let t = &self.tenants[i];
        let queued: u64 = t.rx.iter().map(|p| p.len() as u64).sum();
        let by_size = queued + pkt.len() as u64 <= t.vpp.pb.bytes()
            && (t.rx.len() as u64 + 1) * 32 <= t.vpp.pdb.bytes();
        prop_assert_eq!(self.nic.rx_packet(&pkt), Ok(Some(id)));
        let accepted =
            was_up && self.operational(id) && self.nic.record_of(id).unwrap().rx_dropped == dropped;
        // Commodity admits exactly by PB bytes and PDB descriptors; the
        // S-NIC ring never admits more.
        if was_up && self.operational(id) {
            match self.nic.mode() {
                NicMode::Commodity => prop_assert_eq!(accepted, by_size),
                NicMode::Snic => prop_assert!(by_size || !accepted),
            }
        }
        if accepted {
            self.tenants[i].rx.push_back(pkt);
        }
        Ok(())
    }

    /// Host → region → host through the tenant's own DMA bank.
    fn dma(&mut self, slot: u8) -> Result<(), TestCaseError> {
        let Some(i) = self.pick(slot) else {
            return Ok(());
        };
        let (id, core) = (self.tenants[i].id, self.tenants[i].core);
        let Some((window, _)) = self.nic.record_of(id).unwrap().host_window else {
            let refused = self.nic.dma_to_host(id, core, DMA_OFF, 0x1000_0000, 8);
            prop_assert!(refused.is_err(), "DMA without a host window");
            return Ok(());
        };
        let pattern = [id.0 as u8 ^ 0x5a; 64];
        self.nic.host_mem().write(window, &pattern);
        let result = self
            .nic
            .dma_from_host(id, core, DMA_OFF, window, 64)
            .and_then(|()| self.nic.dma_to_host(id, core, DMA_OFF, window + 0x100, 64));
        match result {
            Ok(()) => {
                let mut back = [0u8; 64];
                self.nic.host_mem().read(window + 0x100, &mut back);
                prop_assert_eq!(back, pattern, "DMA round trip");
            }
            Err(SnicError::BusError { .. }) => prop_assert!(self.snic()),
            Err(SnicError::NicCrashed) => prop_assert!(!self.snic() && self.nic.is_crashed()),
            Err(SnicError::NfFaulted(_)) => prop_assert!(!self.operational(id)),
            Err(e) => return fail(format!("DMA of live {id}: {e:?}")),
        }
        Ok(())
    }
}
