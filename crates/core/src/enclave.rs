//! Host-level secure computations (SGX-enclave-like endpoints).
//!
//! §4.7: "If P runs atop trusted hardware as well (e.g., because P
//! resides within an SGX enclave or a TrustZone secure world), F can now
//! ask P to attest to F." The paper treats enclaves as opaque attestable
//! endpoints; this model gives them the same measurement-plus-signature
//! shape as NFs, rooted in a (distinct) host-CPU vendor CA.

use rand::Rng;
use snic_crypto::dh::{DhKeyPair, DhParams};
use snic_crypto::keys::{AttestationKey, Certificate, EndorsementKey, VendorCa};
use snic_crypto::rsa::RsaPublicKey;
use snic_crypto::sha256::sha256;

use crate::attest::{statement, transcript, AttestationQuote};

/// A host-level enclave with attestable identity.
pub struct HostEnclave {
    /// Measurement of the enclave's initial code/data.
    pub measurement: [u8; 32],
    ak: AttestationKey,
    ek_certificate: Certificate,
}

impl HostEnclave {
    /// "Load" an enclave with the given initial image on a host whose CPU
    /// was manufactured by `cpu_vendor`.
    pub fn load<R: Rng + ?Sized>(rng: &mut R, cpu_vendor: &VendorCa, image: &[u8]) -> HostEnclave {
        let ek = EndorsementKey::manufacture(rng, cpu_vendor);
        let ak = AttestationKey::generate(rng, &ek);
        HostEnclave {
            measurement: sha256(image),
            ak,
            ek_certificate: ek.certificate.clone(),
        }
    }

    /// The AK public key (for tests that verify directly).
    pub fn ak_public(&self) -> &RsaPublicKey {
        self.ak.public()
    }

    /// Produce an attestation quote for a verifier nonce, performing the
    /// function side of the Appendix A exchange. Returns the quote plus
    /// the DH state needed to finish key agreement.
    pub fn respond<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        params: &DhParams,
        nonce: [u8; 32],
    ) -> (AttestationQuote, DhKeyPair) {
        let keypair = DhKeyPair::generate(rng, params);
        let context = transcript(&params.g, &params.p, &nonce, &keypair.public);
        // Enclaves have no vNIC manifest set to verify and no dataflow
        // IR to analyze; the verdict slot is trivially clean and the
        // analysis-digest slot all-zero (kept so NF and enclave quotes
        // share one wire format and one `verify_quote`).
        let signature = self
            .ak
            .sign(&statement(&self.measurement, true, &[0u8; 32], &context));
        (
            AttestationQuote {
                g: params.g.clone(),
                p: params.p.clone(),
                nonce,
                dh_public: keypair.public.clone(),
                measurement: self.measurement,
                verdict: true,
                analysis_digest: [0u8; 32],
                signature,
                ak_endorsement: self.ak.endorsement.clone(),
                ek_certificate: self.ek_certificate.clone(),
            },
            keypair,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attest::verify_quote;
    use rand::SeedableRng;

    #[test]
    fn enclave_quote_verifies_against_cpu_vendor() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let intel = VendorCa::new(&mut rng);
        let enclave = HostEnclave::load(&mut rng, &intel, b"key manager enclave v2");
        let params = DhParams::tiny_test_group();
        let nonce = [7u8; 32];
        let (quote, _) = enclave.respond(&mut rng, &params, nonce);
        assert!(verify_quote(
            intel.public(),
            &enclave.measurement,
            &nonce,
            &quote
        ));
        // The NIC vendor's key does not verify a host enclave.
        let nic_vendor = VendorCa::new(&mut rng);
        assert!(!verify_quote(
            nic_vendor.public(),
            &enclave.measurement,
            &nonce,
            &quote
        ));
    }

    #[test]
    fn different_images_different_measurements() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let intel = VendorCa::new(&mut rng);
        let a = HostEnclave::load(&mut rng, &intel, b"image-a");
        let b = HostEnclave::load(&mut rng, &intel, b"image-b");
        assert_ne!(a.measurement, b.measurement);
    }
}
