//! The Appendix A attestation protocol.
//!
//! A function `F` proves to a verifier `P` that it (1) runs atop an
//! authentic S-NIC and (2) had a specific initial state, while the two
//! bootstrap a shared symmetric key via Diffie–Hellman:
//!
//! 1. `P → F`: hello with nonce `n`,
//! 2. `F`: picks `x`, computes `g^x mod p`, and invokes `nf_attest` over
//!    `(g, p, n, g^x mod p)`; the hardware signs
//!    `Hash(F's initial state) ‖ g ‖ p ‖ n ‖ g^x` with `AK_priv`,
//! 3. `F → P`: the quote (parameters, hash, signature, AK endorsement,
//!    EK certificate),
//! 4. `P`: checks hash, chain, and nonce; replies with `g^y mod p`,
//! 5. both compute `g^xy mod p` and derive the session key.

use rand::Rng;
use snic_crypto::bigint::BigUint;
use snic_crypto::dh::{DhKeyPair, DhParams};
use snic_crypto::keys::Certificate;
use snic_crypto::rsa::{RsaPublicKey, RsaSignature};
use snic_types::{NfId, SnicError};

use crate::device::SmartNic;

/// What the `nf_attest` instruction returns (device-side).
#[derive(Debug, Clone)]
pub struct SignedStatement {
    /// The function's launch measurement.
    pub measurement: [u8; 32],
    /// Static-verifier verdict at quote time: `true` iff Pass 1 of
    /// `snic-verify` found the device's live manifest set violation-free.
    /// The byte is covered by the signature, so a verifier learns not
    /// just *what* launched but that the device's isolation invariants
    /// held when the quote was cut.
    pub verdict: bool,
    /// Digest of the function's Pass 0 analysis certificate (all-zero
    /// when it launched without a dataflow-IR submission). Covered by
    /// the signature, so a relying party can require proof that the
    /// program itself was statically confined, not just the allocation.
    pub analysis_digest: [u8; 32],
    /// AK signature over `measurement ‖ verdict ‖ analysis_digest ‖
    /// context`.
    pub signature: RsaSignature,
    /// EK endorsement of the AK.
    pub ak_endorsement: Certificate,
    /// Vendor certificate of the EK.
    pub ek_certificate: Certificate,
}

/// The four-part message of step 3.
#[derive(Debug, Clone)]
pub struct AttestationQuote {
    /// DH generator.
    pub g: BigUint,
    /// DH modulus.
    pub p: BigUint,
    /// Verifier nonce (echoed).
    pub nonce: [u8; 32],
    /// The function's DH public value `g^x mod p`.
    pub dh_public: BigUint,
    /// Hash of the function's initial state.
    pub measurement: [u8; 32],
    /// Static-verifier verdict embedded (and signed) by the hardware.
    pub verdict: bool,
    /// Pass 0 analysis-certificate digest, signed alongside the verdict.
    pub analysis_digest: [u8; 32],
    /// Hardware signature over the transcript.
    pub signature: RsaSignature,
    /// AK endorsement by the EK.
    pub ak_endorsement: Certificate,
    /// Vendor certificate for the EK.
    pub ek_certificate: Certificate,
}

/// Serialize the signed context: `g ‖ p ‖ n ‖ g^x`, each part prefixed
/// by its length (the measurement is prepended by the signer, see
/// [`statement`]).
pub(crate) fn transcript(
    g: &BigUint,
    p: &BigUint,
    nonce: &[u8; 32],
    dh_public: &BigUint,
) -> Vec<u8> {
    let mut out = Vec::new();
    for part in [
        g.to_be_bytes(),
        p.to_be_bytes(),
        nonce.to_vec(),
        dh_public.to_be_bytes(),
    ] {
        out.extend_from_slice(&(part.len() as u32).to_le_bytes());
        out.extend_from_slice(&part);
    }
    out
}

/// The bytes an attestation key signs: `measurement ‖ verdict ‖
/// analysis_digest ‖ context`. The device (`nf_attest`), host enclaves
/// and [`verify_quote`] all encode through this one function, so signer
/// and verifier cannot drift apart.
pub(crate) fn statement(
    measurement: &[u8; 32],
    verdict: bool,
    analysis_digest: &[u8; 32],
    context: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(65 + context.len());
    out.extend_from_slice(measurement);
    out.push(u8::from(verdict));
    out.extend_from_slice(analysis_digest);
    out.extend_from_slice(context);
    out
}

/// Function-side attestation state (holds the DH secret between steps).
pub struct FunctionAttestation {
    keypair: DhKeyPair,
    /// The quote to send to the verifier.
    pub quote: AttestationQuote,
}

impl FunctionAttestation {
    /// Steps 2–3: respond to a verifier hello.
    pub fn respond<R: Rng + ?Sized>(
        rng: &mut R,
        nic: &mut SmartNic,
        nf: NfId,
        params: &DhParams,
        nonce: [u8; 32],
    ) -> Result<FunctionAttestation, SnicError> {
        let keypair = DhKeyPair::generate(rng, params);
        let context = transcript(&params.g, &params.p, &nonce, &keypair.public);
        let stmt = nic.nf_attest(nf, &context)?;
        Ok(FunctionAttestation {
            quote: AttestationQuote {
                g: params.g.clone(),
                p: params.p.clone(),
                nonce,
                dh_public: keypair.public.clone(),
                measurement: stmt.measurement,
                verdict: stmt.verdict,
                analysis_digest: stmt.analysis_digest,
                signature: stmt.signature,
                ak_endorsement: stmt.ak_endorsement,
                ek_certificate: stmt.ek_certificate,
            },
            keypair,
        })
    }

    /// Step 5 (function side): derive the session key from the verifier's
    /// `g^y mod p`.
    pub fn session_key(&self, verifier_public: &BigUint) -> [u8; 32] {
        self.keypair.session_key(verifier_public, &self.quote.nonce)
    }
}

/// Step 4: verify a quote.
///
/// Checks (a) the signature chain up to the vendor, (b) that the signed
/// transcript matches the quote's parameters and nonce, (c) that the
/// measurement equals `expected_measurement`, and (d) that the device's
/// static verifier vouched for the manifest set (`verdict` is true —
/// a signed-but-failing verdict is an honest device reporting that its
/// isolation invariants no longer hold, which the verifier must reject).
pub fn verify_quote(
    vendor_public: &RsaPublicKey,
    expected_measurement: &[u8; 32],
    expected_nonce: &[u8; 32],
    quote: &AttestationQuote,
) -> bool {
    if &quote.measurement != expected_measurement || &quote.nonce != expected_nonce {
        return false;
    }
    if !quote.verdict {
        return false;
    }
    let context = transcript(&quote.g, &quote.p, &quote.nonce, &quote.dh_public);
    snic_crypto::keys::verify_chain(
        vendor_public,
        &quote.ek_certificate,
        &quote.ak_endorsement,
        &statement(
            &quote.measurement,
            quote.verdict,
            &quote.analysis_digest,
            &context,
        ),
        &quote.signature,
    )
}

/// Verifier-side state.
pub struct Verifier {
    /// The nonce sent in the hello.
    pub nonce: [u8; 32],
    keypair: Option<DhKeyPair>,
}

impl Verifier {
    /// Step 1: create a hello with a fresh nonce.
    pub fn hello<R: Rng + ?Sized>(rng: &mut R) -> Verifier {
        let mut nonce = [0u8; 32];
        rng.fill(&mut nonce);
        Verifier {
            nonce,
            keypair: None,
        }
    }

    /// Step 4: verify the quote and produce `g^y mod p`.
    pub fn accept<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        vendor_public: &RsaPublicKey,
        expected_measurement: &[u8; 32],
        quote: &AttestationQuote,
    ) -> Result<BigUint, SnicError> {
        if !verify_quote(vendor_public, expected_measurement, &self.nonce, quote) {
            return Err(SnicError::InvalidConfig(
                "attestation quote rejected".into(),
            ));
        }
        let params = DhParams {
            g: quote.g.clone(),
            p: quote.p.clone(),
        };
        let kp = DhKeyPair::generate(rng, &params);
        let public = kp.public.clone();
        self.keypair = Some(kp);
        Ok(public)
    }

    /// Step 5 (verifier side): derive the session key.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Verifier::accept`] succeeded.
    pub fn session_key(&self, function_public: &BigUint) -> [u8; 32] {
        self.keypair
            .as_ref()
            .expect("accept() must succeed before deriving a key")
            .session_key(function_public, &self.nonce)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NicConfig, NicMode};
    use crate::instr::{LaunchRequest, NfImage};
    use rand::SeedableRng;
    use snic_crypto::keys::VendorCa;
    use snic_types::{ByteSize, CoreId};

    fn setup() -> (VendorCa, SmartNic, NfId, [u8; 32]) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let vendor = VendorCa::new(&mut rng);
        let mut nic = SmartNic::new(NicConfig::small(NicMode::Snic), &vendor);
        let receipt = nic
            .nf_launch(LaunchRequest::minimal(
                CoreId(0),
                ByteSize::mib(4),
                NfImage {
                    code: b"tls middlebox v1".to_vec(),
                    config: vec![],
                },
            ))
            .unwrap();
        (vendor, nic, receipt.nf_id, receipt.measurement)
    }

    #[test]
    fn full_protocol_agrees_on_key() {
        let (vendor, mut nic, nf, measurement) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let params = DhParams::tiny_test_group();

        let mut verifier = Verifier::hello(&mut rng);
        let f =
            FunctionAttestation::respond(&mut rng, &mut nic, nf, &params, verifier.nonce).unwrap();
        let verifier_pub = verifier
            .accept(&mut rng, vendor.public(), &measurement, &f.quote)
            .unwrap();
        let k_f = f.session_key(&verifier_pub);
        let k_v = verifier.session_key(&f.quote.dh_public);
        assert_eq!(k_f, k_v);
    }

    #[test]
    fn wrong_measurement_rejected() {
        let (vendor, mut nic, nf, _) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let params = DhParams::tiny_test_group();
        let mut verifier = Verifier::hello(&mut rng);
        let f =
            FunctionAttestation::respond(&mut rng, &mut nic, nf, &params, verifier.nonce).unwrap();
        let wrong = [0u8; 32];
        assert!(verifier
            .accept(&mut rng, vendor.public(), &wrong, &f.quote)
            .is_err());
    }

    #[test]
    fn replayed_nonce_rejected() {
        let (vendor, mut nic, nf, measurement) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let params = DhParams::tiny_test_group();
        let mut v1 = Verifier::hello(&mut rng);
        let f = FunctionAttestation::respond(&mut rng, &mut nic, nf, &params, v1.nonce).unwrap();
        // A different verifier session must not accept the old quote.
        let mut v2 = Verifier::hello(&mut rng);
        assert_ne!(v1.nonce, v2.nonce);
        assert!(v2
            .accept(&mut rng, vendor.public(), &measurement, &f.quote)
            .is_err());
        // The original session still accepts.
        assert!(v1
            .accept(&mut rng, vendor.public(), &measurement, &f.quote)
            .is_ok());
    }

    #[test]
    fn tampered_dh_public_rejected() {
        let (vendor, mut nic, nf, measurement) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let params = DhParams::tiny_test_group();
        let mut verifier = Verifier::hello(&mut rng);
        let mut f =
            FunctionAttestation::respond(&mut rng, &mut nic, nf, &params, verifier.nonce).unwrap();
        // A MitM swapping the DH public breaks the signature.
        f.quote.dh_public = f.quote.dh_public.add(&BigUint::one());
        assert!(verifier
            .accept(&mut rng, vendor.public(), &measurement, &f.quote)
            .is_err());
    }

    #[test]
    fn cleared_verdict_rejected() {
        let (vendor, mut nic, nf, measurement) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let params = DhParams::tiny_test_group();
        let mut verifier = Verifier::hello(&mut rng);
        let mut f =
            FunctionAttestation::respond(&mut rng, &mut nic, nf, &params, verifier.nonce).unwrap();
        assert!(
            f.quote.verdict,
            "healthy device attests with a clean verdict"
        );
        // Flipping the verdict is rejected outright — and even if the flag
        // check were skipped, the signature covers the verdict byte.
        f.quote.verdict = false;
        assert!(verifier
            .accept(&mut rng, vendor.public(), &measurement, &f.quote)
            .is_err());
    }

    #[test]
    fn rogue_nic_rejected() {
        let (vendor, _, _, _) = setup();
        // Rogue NIC with its own (uncertified) vendor.
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let rogue_vendor = VendorCa::new(&mut rng);
        let mut rogue = SmartNic::new(NicConfig::small(NicMode::Snic), &rogue_vendor);
        let receipt = rogue
            .nf_launch(LaunchRequest::minimal(
                CoreId(0),
                ByteSize::mib(4),
                NfImage {
                    code: b"tls middlebox v1".to_vec(),
                    config: vec![],
                },
            ))
            .unwrap();
        let params = DhParams::tiny_test_group();
        let mut verifier = Verifier::hello(&mut rng);
        let f = FunctionAttestation::respond(
            &mut rng,
            &mut rogue,
            receipt.nf_id,
            &params,
            verifier.nonce,
        )
        .unwrap();
        // The genuine vendor's public key rejects the rogue chain.
        assert!(verifier
            .accept(&mut rng, vendor.public(), &receipt.measurement, &f.quote)
            .is_err());
    }
}
