//! Oblivious pseudo-random function: the 2HashDH construction (survey §III-F).
//!
//! The survey describes Hummingbird's key dissemination: a receiver learns
//! `f_s(x)` for their chosen input `x` while the sender (who holds `s`)
//! learns nothing about `x`. This module implements the Jarecki–Liu-style
//! DH OPRF over a [`SchnorrGroup`]:
//!
//! * unblinded evaluation (sender-side, for the sender's own inputs):
//!   `F_s(x) = H2(x, H1(x)^s)`;
//! * the oblivious protocol: receiver sends `a = H1(x)^r`, sender returns
//!   `b = a^s`, receiver unblinds `b^(1/r) = H1(x)^s` and hashes.
//!
//! Because evaluation is deterministic, the output can be used directly as
//! symmetric key material — which is precisely how the Hummingbird-style
//! subscription layer in `dosn-core` uses it for hashtag keys.

use crate::chacha::SecureRng;
use crate::error::CryptoError;
use crate::group::SchnorrGroup;
use crate::sha256::sha256_concat;
use dosn_bigint::BigUint;

/// The sender side: holds the PRF secret `s`.
///
/// ```
/// use dosn_crypto::{oprf::{OprfSender, OprfReceiver}, group::SchnorrGroup, chacha::SecureRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SecureRng::seed_from_u64(12);
/// let sender = OprfSender::generate(SchnorrGroup::toy(), &mut rng);
///
/// // Receiver obliviously evaluates the PRF on "#party".
/// let (blinded, state) = OprfReceiver::blind(sender.group(), b"#party", &mut rng);
/// let evaluated = sender.evaluate_blinded(&blinded)?;
/// let via_protocol = state.finalize(&evaluated)?;
///
/// // The sender computes the same value directly — and never saw "#party".
/// assert_eq!(via_protocol, sender.evaluate(b"#party"));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct OprfSender {
    group: SchnorrGroup,
    s: BigUint,
}

impl std::fmt::Debug for OprfSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OprfSender({:?})", self.group)
    }
}

/// A blinded input `H1(x)^r` in transit to the sender.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlindedInput {
    element: BigUint,
}

/// The sender's reply `H1(x)^(r·s)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvaluatedElement {
    element: BigUint,
}

/// Receiver-side state: the blinding exponent and the original input.
#[derive(Debug)]
pub struct ReceiverState {
    group: SchnorrGroup,
    r_inv: BigUint,
    input: Vec<u8>,
}

/// Marker type implementing the receiver's protocol moves.
#[derive(Debug, Clone, Copy)]
pub struct OprfReceiver;

impl OprfSender {
    /// Generates a sender with a random secret.
    pub fn generate(group: SchnorrGroup, rng: &mut SecureRng) -> Self {
        let s = group.random_scalar(rng);
        OprfSender { group, s }
    }

    /// The group in use.
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// Direct (non-oblivious) evaluation `F_s(x)` — the sender's own use.
    pub fn evaluate(&self, input: &[u8]) -> [u8; 32] {
        let h1 = self.group.hash_to_element(input);
        let exp = self.group.pow(&h1, &self.s);
        finalize_hash(&self.group, input, &exp)
    }

    /// Protocol move: raise the blinded element to the secret.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Protocol`] if the blinded element is not a
    /// valid group element (a malformed or malicious request).
    pub fn evaluate_blinded(
        &self,
        blinded: &BlindedInput,
    ) -> Result<EvaluatedElement, CryptoError> {
        if !self.group.contains(&blinded.element) {
            return Err(CryptoError::Protocol("blinded input not in group".into()));
        }
        Ok(EvaluatedElement {
            element: self.group.pow(&blinded.element, &self.s),
        })
    }
}

impl OprfReceiver {
    /// Protocol move: blind `input` with a fresh exponent.
    pub fn blind(
        group: &SchnorrGroup,
        input: &[u8],
        rng: &mut SecureRng,
    ) -> (BlindedInput, ReceiverState) {
        let r = group.random_scalar(rng);
        let r_inv = group
            .invert_scalar(&r)
            .expect("random_scalar is never zero");
        let h1 = group.hash_to_element(input);
        (
            BlindedInput {
                element: group.pow(&h1, &r),
            },
            ReceiverState {
                group: group.clone(),
                r_inv,
                input: input.to_vec(),
            },
        )
    }
}

impl ReceiverState {
    /// Final move: unblind the sender's reply and hash to the PRF output.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Protocol`] if the sender's reply is not a
    /// valid group element.
    pub fn finalize(&self, evaluated: &EvaluatedElement) -> Result<[u8; 32], CryptoError> {
        if !self.group.contains(&evaluated.element) {
            return Err(CryptoError::Protocol("evaluation not in group".into()));
        }
        let unblinded = self.group.pow(&evaluated.element, &self.r_inv);
        Ok(finalize_hash(&self.group, &self.input, &unblinded))
    }
}

fn finalize_hash(group: &SchnorrGroup, input: &[u8], element: &BigUint) -> [u8; 32] {
    sha256_concat(&[
        b"dosn.oprf.finalize",
        &(input.len() as u64).to_be_bytes(),
        input,
        &group.element_bytes(element),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (OprfSender, SecureRng) {
        let mut rng = SecureRng::seed_from_u64(77);
        let sender = OprfSender::generate(SchnorrGroup::toy(), &mut rng);
        (sender, rng)
    }

    #[test]
    fn protocol_matches_direct_evaluation() {
        let (sender, mut rng) = setup();
        for input in [b"#party".as_slice(), b"", b"another tag"] {
            let (blinded, state) = OprfReceiver::blind(sender.group(), input, &mut rng);
            let eval = sender.evaluate_blinded(&blinded).unwrap();
            assert_eq!(state.finalize(&eval).unwrap(), sender.evaluate(input));
        }
    }

    #[test]
    fn evaluation_is_deterministic_per_secret() {
        let (sender, mut rng) = setup();
        assert_eq!(sender.evaluate(b"x"), sender.evaluate(b"x"));
        let other = OprfSender::generate(SchnorrGroup::toy(), &mut rng);
        assert_ne!(sender.evaluate(b"x"), other.evaluate(b"x"));
        assert_ne!(sender.evaluate(b"x"), sender.evaluate(b"y"));
    }

    #[test]
    fn blinding_hides_the_input() {
        // Two blindings of the same input are different group elements, and
        // neither equals the raw hash-to-element of the input.
        let (sender, mut rng) = setup();
        let (b1, _) = OprfReceiver::blind(sender.group(), b"secret-interest", &mut rng);
        let (b2, _) = OprfReceiver::blind(sender.group(), b"secret-interest", &mut rng);
        assert_ne!(b1, b2);
        let raw = sender.group().hash_to_element(b"secret-interest");
        assert_ne!(b1.element, raw);
        assert_ne!(b2.element, raw);
    }

    #[test]
    fn malformed_blinded_input_rejected() {
        let (sender, _) = setup();
        let bad = BlindedInput {
            element: BigUint::zero(),
        };
        assert!(sender.evaluate_blinded(&bad).is_err());
        // p - 1 is a non-residue for a safe prime: not in the subgroup.
        let bad2 = BlindedInput {
            element: sender.group().modulus() - &BigUint::one(),
        };
        assert!(sender.evaluate_blinded(&bad2).is_err());
    }

    #[test]
    fn malformed_evaluation_rejected() {
        let (sender, mut rng) = setup();
        let (_, state) = OprfReceiver::blind(sender.group(), b"x", &mut rng);
        let bad = EvaluatedElement {
            element: BigUint::zero(),
        };
        assert!(state.finalize(&bad).is_err());
    }

    #[test]
    fn output_usable_as_key_material() {
        let (sender, _) = setup();
        let out = sender.evaluate(b"#hashtag");
        let key = crate::aead::SymmetricKey::from_bytes(&out);
        let mut rng = SecureRng::seed_from_u64(1);
        let ct = key.seal(b"tweet body", b"", &mut rng);
        assert_eq!(key.open(&ct, b"").unwrap(), b"tweet body");
    }
}
