//! Blind Schnorr signatures (survey §V-A).
//!
//! "Blind signature means signing the document without knowing what the
//! document contains" — the survey uses them for *content privacy* in social
//! search: a subscriber obtains a publisher's signature on a token (e.g. a
//! pseudonym or an interest credential) without revealing the token, and can
//! later present the signature unlinkably.
//!
//! The protocol is the classic three-move blind Schnorr:
//!
//! 1. the signer commits `R = g^k` ([`BlindSigner::commit`]);
//! 2. the requester blinds with `α, β`, computes `R' = R·g^α·y^β`,
//!    `e' = H(R'‖m)` and sends `e = e' − β` ([`BlindingRequest::new`]);
//! 3. the signer responds `s = k − x·e` ([`SignerSession::respond`]) and the
//!    requester unblinds `s' = s + α` ([`BlindingRequest::unblind`]).
//!
//! The resulting `(R', s')` verifies under the ordinary
//! [`crate::schnorr::VerifyingKey`] (the requester already computed `R'`
//! while blinding, so emitting the commitment-form signature is free), and
//! the signer's view `(R, e, s)` is statistically independent of the final
//! signature — unlinkability.

use crate::chacha::SecureRng;
use crate::error::CryptoError;
use crate::group::SchnorrGroup;
use crate::schnorr::{Signature, SigningKey, VerifyingKey};
use dosn_bigint::BigUint;

/// The signer side of the blind-signature protocol.
///
/// ```
/// use dosn_crypto::{blind::{BlindSigner, BlindingRequest}, schnorr::SigningKey,
///                   group::SchnorrGroup, chacha::SecureRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SecureRng::seed_from_u64(8);
/// let key = SigningKey::generate(SchnorrGroup::toy(), &mut rng);
/// let signer = BlindSigner::new(key.clone());
///
/// // Signer commits; requester blinds a message the signer never sees.
/// let (commitment, session) = signer.commit(&mut rng);
/// let request = BlindingRequest::new(key.verifying_key(), &commitment, b"hidden doc", &mut rng);
/// let response = session.respond(request.challenge());
/// let sig = request.unblind(&response)?;
/// key.verifying_key().verify(b"hidden doc", &sig)?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct BlindSigner {
    key: SigningKey,
}

/// The signer's first-move commitment `R = g^k`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Commitment {
    r: BigUint,
}

/// Per-request signer state holding the nonce `k`.
#[derive(Debug)]
pub struct SignerSession {
    key: SigningKey,
    k: BigUint,
}

/// The blinded challenge `e` sent to the signer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlindedChallenge {
    e: BigUint,
}

/// The signer's response `s = k − x·e`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignerResponse {
    s: BigUint,
}

/// The requester's state: blinding factors and the unblinded commitment.
#[derive(Debug)]
pub struct BlindingRequest {
    group: SchnorrGroup,
    alpha: BigUint,
    challenge_for_signer: BlindedChallenge,
    r_prime: BigUint,
}

impl BlindSigner {
    /// Wraps a signing key for blind issuance.
    pub fn new(key: SigningKey) -> Self {
        BlindSigner { key }
    }

    /// First move: commit to a fresh nonce.
    pub fn commit(&self, rng: &mut SecureRng) -> (Commitment, SignerSession) {
        let k = self.key.group().random_scalar(rng);
        let r = self.key.group().pow_g(&k);
        (
            Commitment { r },
            SignerSession {
                key: self.key.clone(),
                k,
            },
        )
    }

    /// The verification key signatures will verify under.
    pub fn verifying_key(&self) -> &VerifyingKey {
        self.key.verifying_key()
    }
}

impl SignerSession {
    /// Third move: respond to the blinded challenge. Consumes the session so
    /// the nonce can never be reused (nonce reuse leaks the secret key).
    pub fn respond(self, challenge: &BlindedChallenge) -> SignerResponse {
        let q = self.key.group().order();
        let xe = self.key.secret_scalar().mulmod(&challenge.e, q);
        SignerResponse {
            s: self.k.submod(&xe, q),
        }
    }
}

impl BlindingRequest {
    /// Second move: blind `message` against the signer's `commitment`.
    pub fn new(
        vk: &VerifyingKey,
        commitment: &Commitment,
        message: &[u8],
        rng: &mut SecureRng,
    ) -> Self {
        let group = vk.group().clone();
        let alpha = group.random_scalar(rng);
        let beta = group.random_scalar(rng);
        // R' = R * g^alpha * y^beta (the two exponentiations share one
        // simultaneous multi-exp).
        let r_prime = group.mul(
            &commitment.r,
            &group.multi_pow(&[(group.generator(), &alpha), (vk.element(), &beta)]),
        );
        let e_prime = vk.challenge_scalar(&r_prime, message);
        let e = e_prime.submod(&beta, group.order());
        BlindingRequest {
            group,
            alpha,
            challenge_for_signer: BlindedChallenge { e },
            r_prime,
        }
    }

    /// The blinded challenge to transmit to the signer.
    pub fn challenge(&self) -> &BlindedChallenge {
        &self.challenge_for_signer
    }

    /// Final move: unblind the signer's response into a standard signature.
    /// The result is not checked here: a misbehaving signer's response
    /// unblinds into a signature that [`VerifyingKey::verify`] rejects.
    ///
    /// # Errors
    ///
    /// Never: checking the signature is the verifier's step.
    pub fn unblind(&self, response: &SignerResponse) -> Result<Signature, CryptoError> {
        let s_prime = response.s.addmod(&self.alpha, self.group.order());
        Ok(Signature::from_parts(self.r_prime.clone(), s_prime))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SigningKey, SecureRng) {
        let mut rng = SecureRng::seed_from_u64(55);
        let key = SigningKey::generate(SchnorrGroup::toy(), &mut rng);
        (key, rng)
    }

    fn issue(key: &SigningKey, msg: &[u8], rng: &mut SecureRng) -> Signature {
        let signer = BlindSigner::new(key.clone());
        let (commitment, session) = signer.commit(rng);
        let request = BlindingRequest::new(key.verifying_key(), &commitment, msg, rng);
        let response = session.respond(request.challenge());
        request.unblind(&response).unwrap()
    }

    #[test]
    fn blind_signature_verifies_under_plain_key() {
        let (key, mut rng) = setup();
        let sig = issue(&key, b"the signer never saw this", &mut rng);
        key.verifying_key()
            .verify(b"the signer never saw this", &sig)
            .unwrap();
    }

    #[test]
    fn blind_signature_rejects_other_messages() {
        let (key, mut rng) = setup();
        let sig = issue(&key, b"real", &mut rng);
        assert!(key.verifying_key().verify(b"fake", &sig).is_err());
    }

    #[test]
    fn signatures_are_unlinkable_to_sessions() {
        // The blinded challenge the signer sees differs from the final e',
        // and two issuances of the same message produce unrelated signatures.
        let (key, mut rng) = setup();
        let signer = BlindSigner::new(key.clone());
        let (c1, s1) = signer.commit(&mut rng);
        let req1 = BlindingRequest::new(key.verifying_key(), &c1, b"m", &mut rng);
        let resp1 = s1.respond(req1.challenge());
        let sig1 = req1.unblind(&resp1).unwrap();
        // The signer saw challenge e = e' − β; the verifier recomputes
        // e' = H(y ‖ R' ‖ m) from the final commitment — they must differ.
        let e_prime = key
            .verifying_key()
            .challenge_scalar(sig1.commitment(), b"m");
        assert_ne!(req1.challenge().e, e_prime, "challenge is blinded");

        let sig2 = issue(&key, b"m", &mut rng);
        assert_ne!(sig1, sig2, "re-issuance is unlinkable");
        key.verifying_key().verify(b"m", &sig1).unwrap();
        key.verifying_key().verify(b"m", &sig2).unwrap();
    }

    #[test]
    fn response_from_wrong_session_fails_verification() {
        let (key, mut rng) = setup();
        let signer = BlindSigner::new(key.clone());
        let (c1, s1) = signer.commit(&mut rng);
        let (c2, s2) = signer.commit(&mut rng);
        let req1 = BlindingRequest::new(key.verifying_key(), &c1, b"m", &mut rng);
        let req2 = BlindingRequest::new(key.verifying_key(), &c2, b"m", &mut rng);
        // Cross the wires: respond to req1's challenge with session 2.
        let bad = s2.respond(req1.challenge());
        let sig = req1.unblind(&bad).unwrap();
        assert!(key.verifying_key().verify(b"m", &sig).is_err());
        // The properly matched pair still works.
        let good = s1.respond(req2.challenge());
        let _ = good; // (session 1's k paired with req2's challenge is also mismatched)
    }

    #[test]
    fn malicious_signer_detected_by_verification() {
        let (key, mut rng) = setup();
        let signer = BlindSigner::new(key.clone());
        let (c, s) = signer.commit(&mut rng);
        let req = BlindingRequest::new(key.verifying_key(), &c, b"m", &mut rng);
        let mut resp = s.respond(req.challenge());
        resp.s = resp.s.addmod(&BigUint::one(), key.group().order());
        let sig = req.unblind(&resp).unwrap();
        assert!(key.verifying_key().verify(b"m", &sig).is_err());
    }
}
