//! Principal and resource identifiers.
//!
//! The paper's threat model (§2) distinguishes eight principal types; the
//! ones that appear as *identifiers* in the device model are network
//! functions, plus the physical resources that `nf_launch` binds to a
//! virtual smart NIC: programmable cores and accelerator clusters.

/// Opaque identifier of a launched network function.
///
/// Returned by the `nf_launch` trusted instruction (Table 1 of the paper);
/// the NIC OS passes it back to `nf_teardown`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NfId(pub u64);

/// Index of a programmable (or management) core on the NIC SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub u16);

/// Index of a hardware-thread cluster inside an accelerator (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccelClusterId {
    /// Which accelerator the cluster belongs to.
    pub kind: AccelKind,
    /// Cluster index within that accelerator.
    pub index: u16,
}

/// The accelerator families modeled by the reproduction.
///
/// These follow the paper's evaluation (§5.2, Table 3 and Table 7): a deep
/// packet inspection engine, a compression engine, and a storage/RAID
/// engine, plus the cryptographic co-processor used by attestation
/// (Appendix C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccelKind {
    /// Deep packet inspection (regular-expression / Aho-Corasick engine).
    Dpi,
    /// Data compression.
    Zip,
    /// Storage parity acceleration.
    Raid,
    /// Cryptographic co-processor (SHA/RSA offload).
    Crypto,
}

impl AccelKind {
    /// All accelerator kinds, in the order used by the paper's tables.
    pub const ALL: [AccelKind; 4] = [
        AccelKind::Dpi,
        AccelKind::Zip,
        AccelKind::Raid,
        AccelKind::Crypto,
    ];

    /// Short display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            AccelKind::Dpi => "DPI",
            AccelKind::Zip => "ZIP",
            AccelKind::Raid => "RAID",
            AccelKind::Crypto => "CRYPTO",
        }
    }
}

impl core::fmt::Display for NfId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "nf{}", self.0)
    }
}

impl core::fmt::Display for CoreId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accel_kind_names_are_stable() {
        assert_eq!(AccelKind::Dpi.name(), "DPI");
        assert_eq!(AccelKind::Zip.name(), "ZIP");
        assert_eq!(AccelKind::Raid.name(), "RAID");
        assert_eq!(AccelKind::Crypto.name(), "CRYPTO");
    }

    #[test]
    fn ids_order_and_compare() {
        assert!(NfId(1) < NfId(2));
        assert!(CoreId(0) < CoreId(15));
    }

    #[test]
    fn display_forms() {
        assert_eq!(NfId(9).to_string(), "nf9");
        assert_eq!(CoreId(2).to_string(), "core2");
    }

    #[test]
    fn cluster_id_hashes_distinctly() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        for kind in AccelKind::ALL {
            for index in 0..4 {
                set.insert(AccelClusterId { kind, index });
            }
        }
        assert_eq!(set.len(), 16);
    }
}
