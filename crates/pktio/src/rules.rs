//! Switching rules.
//!
//! §3.1: rules are "predicates over a packet's 5-tuple"; §4.4 extends
//! them with MAC addresses and VXLAN VNIs so "a NIC [can] direct specific
//! VXLAN flows to specific functions". Rules carry a priority;
//! highest-priority first match wins.

use snic_types::packet::MacAddr;
use snic_types::{FiveTuple, NfId, Packet, Protocol};

use crate::vxlan::vxlan_decap;

/// A wildcardable field match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuleMatch<T> {
    /// Match anything.
    #[default]
    Any,
    /// Match exactly this value.
    Exact(T),
}

impl<T: PartialEq> RuleMatch<T> {
    /// True if `v` satisfies the match.
    pub fn matches(&self, v: &T) -> bool {
        match self {
            RuleMatch::Any => true,
            RuleMatch::Exact(x) => x == v,
        }
    }
}

/// One switching rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchRule {
    /// Source IP match.
    pub src_ip: RuleMatch<u32>,
    /// Destination IP match.
    pub dst_ip: RuleMatch<u32>,
    /// Protocol match.
    pub protocol: RuleMatch<Protocol>,
    /// Source port match.
    pub src_port: RuleMatch<u16>,
    /// Destination port match.
    pub dst_port: RuleMatch<u16>,
    /// Destination MAC match.
    pub dst_mac: RuleMatch<MacAddr>,
    /// VXLAN VNI match (applies to the outer VXLAN header; `Exact` rules
    /// only match encapsulated packets).
    pub vni: RuleMatch<u32>,
    /// Larger wins.
    pub priority: u32,
    /// The NF whose VPP receives matching packets.
    pub target: NfId,
}

impl SwitchRule {
    /// A rule matching everything for `target` at priority 0.
    pub fn any(target: NfId) -> SwitchRule {
        SwitchRule {
            src_ip: RuleMatch::Any,
            dst_ip: RuleMatch::Any,
            protocol: RuleMatch::Any,
            src_port: RuleMatch::Any,
            dst_port: RuleMatch::Any,
            dst_mac: RuleMatch::Any,
            vni: RuleMatch::Any,
            priority: 0,
            target,
        }
    }

    fn matches(&self, ft: &FiveTuple, dst_mac: &MacAddr, vni: Option<u32>) -> bool {
        let vni_ok = match (&self.vni, vni) {
            (RuleMatch::Any, _) => true,
            (RuleMatch::Exact(want), Some(got)) => *want == got,
            (RuleMatch::Exact(_), None) => false,
        };
        vni_ok
            && self.src_ip.matches(&ft.src_ip)
            && self.dst_ip.matches(&ft.dst_ip)
            && self.protocol.matches(&ft.protocol)
            && self.src_port.matches(&ft.src_port)
            && self.dst_port.matches(&ft.dst_port)
            && self.dst_mac.matches(dst_mac)
    }
}

/// The packet input module's rule table.
#[derive(Debug, Default)]
pub struct RuleTable {
    rules: Vec<SwitchRule>,
}

impl RuleTable {
    /// An empty table (all packets unmatched).
    pub fn new() -> RuleTable {
        RuleTable::default()
    }

    /// Install a rule; the table re-sorts by descending priority
    /// (stable, so earlier installs win ties).
    pub fn install(&mut self, rule: SwitchRule) {
        self.rules.push(rule);
        self.rules.sort_by_key(|r| std::cmp::Reverse(r.priority));
    }

    /// Remove every rule targeting `nf` (teardown); returns how many.
    pub fn remove_target(&mut self, nf: NfId) -> usize {
        let before = self.rules.len();
        self.rules.retain(|r| r.target != nf);
        before - self.rules.len()
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Classify a packet: peel VXLAN if present, then match rules against
    /// the (inner) five-tuple and the VNI.
    pub fn classify(&self, pkt: &Packet) -> Option<NfId> {
        let (vni, inner);
        let effective: &Packet = match vxlan_decap(pkt) {
            Ok((v, p)) => {
                vni = Some(v);
                inner = p;
                &inner
            }
            Err(_) => {
                vni = None;
                pkt
            }
        };
        let ft = FiveTuple::from_packet(effective).ok()?;
        let dst_mac = effective.ethernet().ok()?.dst;
        self.rules
            .iter()
            .find(|r| r.matches(&ft, &dst_mac, vni))
            .map(|r| r.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snic_types::packet::PacketBuilder;

    impl SwitchRule {
        /// A rule matching an exact five-tuple.
        fn for_flow(ft: FiveTuple, target: NfId, priority: u32) -> SwitchRule {
            SwitchRule {
                src_ip: RuleMatch::Exact(ft.src_ip),
                dst_ip: RuleMatch::Exact(ft.dst_ip),
                protocol: RuleMatch::Exact(ft.protocol),
                src_port: RuleMatch::Exact(ft.src_port),
                dst_port: RuleMatch::Exact(ft.dst_port),
                dst_mac: RuleMatch::Any,
                vni: RuleMatch::Any,
                priority,
                target,
            }
        }
    }

    fn pkt(dst_port: u16) -> Packet {
        PacketBuilder::new(0x0a000001, 0xc6330001, Protocol::Tcp, 5000, dst_port).build()
    }

    #[test]
    fn priority_order_wins() {
        let mut t = RuleTable::new();
        t.install(SwitchRule::any(NfId(1)));
        t.install(SwitchRule {
            dst_port: RuleMatch::Exact(80),
            priority: 10,
            ..SwitchRule::any(NfId(2))
        });
        assert_eq!(t.classify(&pkt(80)), Some(NfId(2)));
        assert_eq!(t.classify(&pkt(81)), Some(NfId(1)));
    }

    #[test]
    fn tie_break_is_install_order() {
        let mut t = RuleTable::new();
        t.install(SwitchRule::any(NfId(1)));
        t.install(SwitchRule::any(NfId(2)));
        assert_eq!(t.classify(&pkt(80)), Some(NfId(1)));
    }

    #[test]
    fn empty_table_matches_nothing() {
        assert_eq!(RuleTable::new().classify(&pkt(80)), None);
    }

    #[test]
    fn exact_flow_rule() {
        let ft = FiveTuple {
            src_ip: 0x0a000001,
            dst_ip: 0xc6330001,
            protocol: Protocol::Tcp,
            src_port: 5000,
            dst_port: 443,
        };
        let mut t = RuleTable::new();
        t.install(SwitchRule::for_flow(ft, NfId(7), 5));
        assert_eq!(t.classify(&pkt(443)), Some(NfId(7)));
        assert_eq!(t.classify(&pkt(444)), None);
    }

    #[test]
    fn remove_target_unroutes() {
        let mut t = RuleTable::new();
        t.install(SwitchRule::any(NfId(1)));
        t.install(SwitchRule {
            priority: 9,
            ..SwitchRule::any(NfId(2))
        });
        assert_eq!(t.remove_target(NfId(2)), 1);
        assert_eq!(t.classify(&pkt(80)), Some(NfId(1)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn vni_rule_matches_only_encapsulated() {
        use crate::vxlan::vxlan_encap;
        let mut t = RuleTable::new();
        t.install(SwitchRule {
            vni: RuleMatch::Exact(0x1234),
            priority: 10,
            ..SwitchRule::any(NfId(3))
        });
        t.install(SwitchRule::any(NfId(1)));
        let inner = pkt(80);
        let enc = vxlan_encap(&inner, 0x1234, 0x01020304, 0x05060708).unwrap();
        assert_eq!(t.classify(&enc), Some(NfId(3)));
        // Plain packet skips the VNI rule.
        assert_eq!(t.classify(&inner), Some(NfId(1)));
        // Wrong VNI falls through.
        let other = vxlan_encap(&inner, 0x9999, 0x01020304, 0x05060708).unwrap();
        assert_eq!(t.classify(&other), Some(NfId(1)));
    }

    #[test]
    fn mac_rule() {
        let mut t = RuleTable::new();
        let target_mac = MacAddr::from_seed(u64::from(0xc6330001u32));
        t.install(SwitchRule {
            dst_mac: RuleMatch::Exact(target_mac),
            priority: 10,
            ..SwitchRule::any(NfId(4))
        });
        assert_eq!(t.classify(&pkt(80)), Some(NfId(4)));
    }
}
