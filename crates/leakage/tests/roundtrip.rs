//! Property-based round-trip guarantees for the covert channels.
//!
//! Commodity mode: every family transmits arbitrary seeded payloads
//! with **zero** bit errors across exploitable geometries, epoch
//! lengths, and payload lengths — the channels are real, not
//! statistical flukes. S-NIC mode: the decoder's output is bit-for-bit
//! identical for a payload and its complement (the receiver observes
//! *nothing* payload-dependent), and the resulting BER sits in the
//! wide band a payload-independent decoder must produce on balanced
//! random payloads.

use proptest::prelude::*;
use snic_leakage::{payload_bits, Channel, ChannelFamily, Geometry, Mode};

/// Exploitable geometries: enough L2 ways that the prime+probe set
/// survives the receiver's own L1 flush (see
/// `snic_leakage::covert::pp_primed_ways`).
fn exploitable_geometry() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        Just(Geometry {
            ways: 16,
            sets: 512
        }),
        Just(Geometry {
            ways: 8,
            sets: 1024
        }),
        Just(Geometry { ways: 8, sets: 128 }),
        Just(Geometry {
            ways: 12,
            sets: 256
        }),
    ]
}

fn family() -> impl Strategy<Value = ChannelFamily> {
    prop_oneof![
        Just(ChannelFamily::Cache),
        Just(ChannelFamily::Bus),
        Just(ChannelFamily::Scrub),
    ]
}

fn epoch() -> impl Strategy<Value = u64> {
    prop_oneof![Just(64u64), Just(96), Just(192)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn commodity_round_trip_is_error_free(
        fam in family(),
        geom in exploitable_geometry(),
        ep in epoch(),
        seed in any::<u64>(),
        len in 4usize..12,
    ) {
        let ch = Channel::new(fam, geom, ep, Mode::Commodity);
        for (i, bit) in payload_bits(seed, len).into_iter().enumerate() {
            let trial = ch.transmit(bit);
            prop_assert_eq!(
                trial.decoded, bit,
                "{:?} {} epoch {}: bit {} of seed {:#x} flipped",
                fam, geom.label(), ep, i, seed
            );
        }
    }

    #[test]
    fn snic_decoder_is_payload_independent(
        fam in family(),
        geom in exploitable_geometry(),
        ep in epoch(),
        seed in any::<u64>(),
    ) {
        let ch = Channel::new(fam, geom, ep, Mode::Snic);
        let payload = payload_bits(seed, 32);
        let mut errors = 0u32;
        for &bit in &payload {
            let trial = ch.transmit(bit);
            let anti = ch.transmit(!bit);
            // The decoder cannot tell a bit from its complement...
            prop_assert_eq!(
                trial.decoded, anti.decoded,
                "{:?} {} epoch {}: S-NIC decode depended on the payload",
                fam, geom.label(), ep
            );
            // ...and the raw observable is the solo constant either way.
            prop_assert_eq!(trial.observable, ch.solo_baseline());
            prop_assert_eq!(anti.observable, ch.solo_baseline());
            errors += u32::from(trial.decoded != bit);
        }
        // A payload-independent decoder errs on every 1 (or every 0) of
        // a balanced random payload: BER lands well inside [1/8, 7/8]
        // for 32 bits, and nowhere near the 0 a working channel shows.
        let ber = f64::from(errors) / payload.len() as f64;
        prop_assert!(
            (0.125..=0.875).contains(&ber),
            "{:?}: S-NIC BER {} outside the payload-independence band",
            fam, ber
        );
    }
}
