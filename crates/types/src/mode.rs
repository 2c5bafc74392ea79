//! The device personality.
//!
//! The evaluation compares one SoC in two personalities: the §3
//! commodity NIC and the §4 S-NIC. Every layer that behaves differently
//! by personality — the device model, the static verifier, the attack
//! harness, the leakage battery, the daemon — reads this one type, and
//! its text form is written only here.

/// Which personality a device runs with.
///
/// Commodity sorts first: tables and leakage cells list it before S-NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NicMode {
    /// Commodity SoC NIC: flat physical addressing, a shared buffer
    /// allocator, a shared L2 and an FCFS bus (§3).
    Commodity,
    /// S-NIC: denylists, locked TLBs, a way-partitioned L2 and temporal
    /// bus partitioning (§4).
    Snic,
}

impl NicMode {
    /// Both personalities, commodity first.
    pub const ALL: [NicMode; 2] = [NicMode::Commodity, NicMode::Snic];

    /// The stable one-word name configs, scripts and tables use.
    pub fn name(self) -> &'static str {
        match self {
            NicMode::Commodity => "commodity",
            NicMode::Snic => "snic",
        }
    }

    /// The personality a [`NicMode::name`] names.
    pub fn named(name: &str) -> Option<NicMode> {
        NicMode::ALL.into_iter().find(|m| m.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mode_round_trips_through_its_name() {
        for m in NicMode::ALL {
            assert_eq!(NicMode::named(m.name()), Some(m));
        }
        assert_eq!(NicMode::Commodity.name(), "commodity");
        assert_eq!(NicMode::Snic.name(), "snic");
        assert!(NicMode::Commodity < NicMode::Snic);
    }

    #[test]
    fn unknown_names_are_refused() {
        for bad in ["", "SNIC", "Commodity", "snic ", "fcfs"] {
            assert_eq!(NicMode::named(bad), None, "{bad:?}");
        }
    }
}
