//! Non-interactive zero-knowledge proofs (survey §V-B).
//!
//! The survey proposes "ZKP alongside pseudonyms" for searcher privacy: a
//! user operates under a pseudonym and proves possession of an access
//! privilege without revealing anything else. This module provides
//! [`DlogProof`], a Fiat–Shamir Schnorr proof of knowledge of a discrete
//! logarithm (prove you know `x` with `y = g^x` without revealing `x`).
//!
//! It accepts a `context` byte string that is bound into the challenge, so
//! proofs cannot be replayed across protocol contexts.

use crate::chacha::SecureRng;
use crate::error::CryptoError;
use crate::group::SchnorrGroup;
use dosn_bigint::BigUint;

/// NIZK proof of knowledge of `x` such that `y = g^x`.
///
/// ```
/// use dosn_crypto::{zkp::DlogProof, group::SchnorrGroup, chacha::SecureRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let group = SchnorrGroup::toy();
/// let mut rng = SecureRng::seed_from_u64(6);
/// let x = group.random_scalar(&mut rng);
/// let y = group.pow_g(&x);
/// let proof = DlogProof::prove(&group, &x, b"resource:photo-7", &mut rng);
/// proof.verify(&group, &y, b"resource:photo-7")?;
/// assert!(proof.verify(&group, &y, b"resource:photo-8").is_err()); // context-bound
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DlogProof {
    commitment: BigUint,
    response: BigUint,
}

impl DlogProof {
    /// Proves knowledge of `x` (with public `y = g^x`) bound to `context`.
    pub fn prove(group: &SchnorrGroup, x: &BigUint, context: &[u8], rng: &mut SecureRng) -> Self {
        let k = group.random_scalar(rng);
        let commitment = group.pow_g(&k);
        let y = group.pow_g(x);
        let e = challenge(group, &[&y, &commitment], context);
        // response = k + e*x mod q
        let response = k.addmod(&x.mulmod(&e, group.order()), group.order());
        DlogProof {
            commitment,
            response,
        }
    }

    /// Verifies the proof against the public element `y` and `context`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidProof`] on failure.
    pub fn verify(
        &self,
        group: &SchnorrGroup,
        y: &BigUint,
        context: &[u8],
    ) -> Result<(), CryptoError> {
        if !group.contains(&self.commitment) || !group.contains(y) {
            return Err(CryptoError::InvalidProof);
        }
        let e = challenge(group, &[y, &self.commitment], context);
        // g^response == commitment * y^e, checked as
        // g^response * y^(q-e) == commitment (y has order q, so y^(q-e) is
        // y^-e) — one simultaneous multi-exp instead of two exponentiations.
        let neg_e = group.order() - &e;
        let lhs = group.multi_pow(&[(group.generator(), &self.response), (y, &neg_e)]);
        if lhs == self.commitment {
            Ok(())
        } else {
            Err(CryptoError::InvalidProof)
        }
    }
}

fn challenge(group: &SchnorrGroup, elements: &[&BigUint], context: &[u8]) -> BigUint {
    let encoded: Vec<Vec<u8>> = elements.iter().map(|e| group.element_bytes(e)).collect();
    let mut parts: Vec<&[u8]> = vec![b"dosn.zkp.v1", context];
    for e in &encoded {
        parts.push(e);
    }
    group.hash_to_scalar(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SchnorrGroup, SecureRng) {
        (SchnorrGroup::toy(), SecureRng::seed_from_u64(66))
    }

    #[test]
    fn dlog_proof_roundtrip() {
        let (g, mut rng) = setup();
        let x = g.random_scalar(&mut rng);
        let y = g.pow_g(&x);
        let proof = DlogProof::prove(&g, &x, b"ctx", &mut rng);
        proof.verify(&g, &y, b"ctx").unwrap();
    }

    #[test]
    fn dlog_proof_rejects_wrong_statement() {
        let (g, mut rng) = setup();
        let x = g.random_scalar(&mut rng);
        let proof = DlogProof::prove(&g, &x, b"ctx", &mut rng);
        let other_y = g.pow_g(&g.random_scalar(&mut rng));
        assert_eq!(
            proof.verify(&g, &other_y, b"ctx").unwrap_err(),
            CryptoError::InvalidProof
        );
    }

    #[test]
    fn dlog_proof_is_context_bound() {
        let (g, mut rng) = setup();
        let x = g.random_scalar(&mut rng);
        let y = g.pow_g(&x);
        let proof = DlogProof::prove(&g, &x, b"resource-a", &mut rng);
        assert!(proof.verify(&g, &y, b"resource-b").is_err());
    }

    #[test]
    fn dlog_proof_rejects_non_group_elements() {
        let (g, mut rng) = setup();
        let x = g.random_scalar(&mut rng);
        let proof = DlogProof::prove(&g, &x, b"c", &mut rng);
        assert!(proof.verify(&g, &BigUint::zero(), b"c").is_err());
    }

    #[test]
    fn dlog_proofs_are_randomized() {
        let (g, mut rng) = setup();
        let x = g.random_scalar(&mut rng);
        let p1 = DlogProof::prove(&g, &x, b"c", &mut rng);
        let p2 = DlogProof::prove(&g, &x, b"c", &mut rng);
        assert_ne!(p1, p2);
    }
}
