//! Physical RX/TX port buffer accounting.
//!
//! §4.4: a VPP includes "buffer space in the physical RX and TX ports";
//! `nf_launch` fails with `PortBufferExhausted` if the requested space is
//! not available. Reservations are byte-granular and per-NF.

use std::collections::HashMap;
use std::sync::Arc;

use snic_telemetry::{metrics, NullSink, TelemetrySink};
use snic_types::{ByteSize, NfId, SnicError};

/// Reservation ledger for one physical port direction.
#[derive(Debug)]
pub struct PortBuffers {
    capacity: ByteSize,
    reservations: HashMap<NfId, ByteSize>,
    sink: Arc<dyn TelemetrySink>,
}

impl PortBuffers {
    /// A port with `capacity` bytes of buffer SRAM.
    pub fn new(capacity: ByteSize) -> PortBuffers {
        PortBuffers {
            capacity,
            reservations: HashMap::new(),
            sink: Arc::new(NullSink),
        }
    }

    /// Attach a telemetry sink (observational only).
    pub fn set_sink(&mut self, sink: Arc<dyn TelemetrySink>) {
        self.sink = sink;
    }

    /// Total capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Bytes currently reserved.
    pub fn reserved(&self) -> ByteSize {
        ByteSize(self.reservations.values().map(|b| b.bytes()).sum())
    }

    /// Bytes still available.
    pub fn available(&self) -> ByteSize {
        self.capacity.saturating_sub(self.reserved())
    }

    /// Reserve `amount` for `owner` (additive if called twice).
    pub fn reserve(&mut self, owner: NfId, amount: ByteSize) -> Result<(), SnicError> {
        if amount > self.available() {
            return Err(SnicError::PortBufferExhausted);
        }
        *self.reservations.entry(owner).or_insert(ByteSize::ZERO) += amount;
        if self.sink.enabled() {
            self.sink
                .counter_add(owner.0, metrics::PORT_RESERVED_BYTES, amount.bytes());
        }
        Ok(())
    }

    /// Release everything held by `owner`; returns the amount freed.
    pub fn release_owner(&mut self, owner: NfId) -> ByteSize {
        let freed = self.reservations.remove(&owner).unwrap_or(ByteSize::ZERO);
        if self.sink.enabled() && freed > ByteSize::ZERO {
            self.sink
                .counter_add(owner.0, metrics::PORT_RELEASED_BYTES, freed.bytes());
        }
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PortBuffers {
        /// The reservation held by `owner`.
        fn reservation_of(&self, owner: NfId) -> ByteSize {
            self.reservations
                .get(&owner)
                .copied()
                .unwrap_or(ByteSize::ZERO)
        }
    }

    #[test]
    fn reserve_and_release() {
        let mut p = PortBuffers::new(ByteSize::mib(8));
        p.reserve(NfId(1), ByteSize::mib(2)).unwrap();
        p.reserve(NfId(2), ByteSize::mib(4)).unwrap();
        assert_eq!(p.available(), ByteSize::mib(2));
        assert_eq!(p.release_owner(NfId(1)), ByteSize::mib(2));
        assert_eq!(p.available(), ByteSize::mib(4));
        assert_eq!(p.reservation_of(NfId(1)), ByteSize::ZERO);
    }

    #[test]
    fn over_reservation_fails_cleanly() {
        let mut p = PortBuffers::new(ByteSize::mib(4));
        p.reserve(NfId(1), ByteSize::mib(3)).unwrap();
        assert_eq!(
            p.reserve(NfId(2), ByteSize::mib(2)).unwrap_err(),
            SnicError::PortBufferExhausted
        );
        // Failed reservation takes nothing.
        assert_eq!(p.reservation_of(NfId(2)), ByteSize::ZERO);
        assert_eq!(p.available(), ByteSize::mib(1));
    }

    #[test]
    fn additive_reservations() {
        let mut p = PortBuffers::new(ByteSize::mib(4));
        p.reserve(NfId(1), ByteSize::mib(1)).unwrap();
        p.reserve(NfId(1), ByteSize::mib(1)).unwrap();
        assert_eq!(p.reservation_of(NfId(1)), ByteSize::mib(2));
    }

    #[test]
    fn exact_fit_allowed() {
        let mut p = PortBuffers::new(ByteSize::mib(4));
        p.reserve(NfId(1), ByteSize::mib(4)).unwrap();
        assert_eq!(p.available(), ByteSize::ZERO);
        assert!(p.reserve(NfId(2), ByteSize(1)).is_err());
    }
}
