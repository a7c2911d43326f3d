//! Resource handlers with ZKP-gated access (survey §V-B / §V-C; Backes et
//! al.'s security API).
//!
//! Two survey mechanisms compose here:
//!
//! * **Privacy of the searched data owner** — "every data item has a
//!   handler as a reference to that data. For example 'Alice's birthday'
//!   instead of '26 October 1990'. When one is interested in knowing the
//!   content of that handler, he must prove himself to the data owner."
//! * **Privacy of the searcher** — "a user can use a pseudonym while
//!   searching … and when (s)he wants to reach a content belonging to
//!   another person, (s)he uses ZKP to prove having privileges to access."
//!
//! Owners register content under an opaque handler together with a
//! credential *public* element; friends hold the credential secret (a
//! discrete log) and retrieve by presenting a [`DlogProof`] under a
//! pseudonym — so the registry learns the pseudonym and the handler, but
//! neither the identity of the searcher nor (before a successful proof) the
//! content.

use crate::error::DosnError;
use crate::search::audit::{Knowledge, LeakageAudit};
use dosn_bigint::BigUint;
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::SchnorrGroup;
use dosn_crypto::zkp::DlogProof;
use std::collections::BTreeMap;

/// A credential: the secret is held by authorized friends, the public
/// element sits in the registry.
#[derive(Debug, Clone)]
pub struct AccessCredential {
    secret: BigUint,
    public: BigUint,
}

impl AccessCredential {
    /// Generates a credential in `group`.
    pub fn generate(group: &SchnorrGroup, rng: &mut SecureRng) -> Self {
        let secret = group.random_scalar(rng);
        let public = group.pow_g(&secret);
        AccessCredential { secret, public }
    }
}

/// One registered resource.
#[derive(Debug, Clone)]
struct ResourceEntry {
    content: Vec<u8>,
    credential_public: BigUint,
}

/// The handler registry (runs at a storage node / provider).
///
/// ```
/// use dosn_core::search::zk_access::{AccessCredential, ResourceRegistry};
/// use dosn_core::search::{Knowledge, LeakageAudit};
/// use dosn_crypto::{group::SchnorrGroup, chacha::SecureRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let group = SchnorrGroup::toy();
/// let mut rng = SecureRng::seed_from_u64(100);
/// let mut registry = ResourceRegistry::new(group.clone());
///
/// // Alice registers her birthday behind a handler and shares the
/// // credential with friends out of band.
/// let credential = AccessCredential::generate(&group, &mut rng);
/// registry.register("alice/birthday", b"26 October 1990", &credential);
///
/// // A friend fetches under a pseudonym with a ZK proof.
/// let mut audit = LeakageAudit::new();
/// let content = registry.fetch("alice/birthday", "pseudonym-7",
///                              &credential, &mut rng, &mut audit)?;
/// assert_eq!(content, b"26 October 1990");
/// assert!(!audit.knows("registry", Knowledge::SearcherIdentity));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ResourceRegistry {
    group: SchnorrGroup,
    entries: BTreeMap<String, ResourceEntry>,
}

impl ResourceRegistry {
    /// Creates an empty registry.
    pub fn new(group: SchnorrGroup) -> Self {
        ResourceRegistry {
            group,
            entries: BTreeMap::new(),
        }
    }

    /// Registers `content` behind `handler`, gated by `credential`.
    pub fn register(&mut self, handler: &str, content: &[u8], credential: &AccessCredential) {
        self.entries.insert(
            handler.to_owned(),
            ResourceEntry {
                content: content.to_vec(),
                credential_public: credential.public.clone(),
            },
        );
    }

    /// The public handler list (what an uncredentialed searcher sees: the
    /// handlers exist, the contents do not leak).
    pub fn handlers(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Fetches a resource by proving credential possession under a
    /// pseudonym.
    ///
    /// # Errors
    ///
    /// * [`DosnError::ContentUnavailable`] — unknown handler;
    /// * [`DosnError::NotAuthorized`] — proof does not verify against the
    ///   registered credential.
    pub fn fetch(
        &self,
        handler: &str,
        pseudonym: &str,
        credential: &AccessCredential,
        rng: &mut SecureRng,
        audit: &mut LeakageAudit,
    ) -> Result<Vec<u8>, DosnError> {
        let proof = DlogProof::prove(
            &self.group,
            &credential.secret,
            context(handler, pseudonym).as_bytes(),
            rng,
        );
        self.fetch_with_proof(handler, pseudonym, &proof, audit)
    }

    /// The registry-side verification half of [`ResourceRegistry::fetch`]
    /// (separated so a malicious requester can be simulated).
    ///
    /// # Errors
    ///
    /// See [`ResourceRegistry::fetch`].
    pub fn fetch_with_proof(
        &self,
        handler: &str,
        pseudonym: &str,
        proof: &DlogProof,
        audit: &mut LeakageAudit,
    ) -> Result<Vec<u8>, DosnError> {
        // The registry learns: which handler, and a pseudonym.
        audit.record("registry", Knowledge::SearcherPseudonym);
        audit.record("registry", Knowledge::QueryContent);
        let entry = self
            .entries
            .get(handler)
            .ok_or_else(|| DosnError::ContentUnavailable(handler.to_owned()))?;
        proof
            .verify(
                &self.group,
                &entry.credential_public,
                context(handler, pseudonym).as_bytes(),
            )
            .map_err(|_| {
                DosnError::NotAuthorized(format!("proof for {handler} failed verification"))
            })?;
        Ok(entry.content.clone())
    }
}

fn context(handler: &str, pseudonym: &str) -> String {
    format!("dosn.zk_access|{handler}|{pseudonym}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ResourceRegistry, AccessCredential, SecureRng) {
        let group = SchnorrGroup::toy();
        let mut rng = SecureRng::seed_from_u64(101);
        let cred = AccessCredential::generate(&group, &mut rng);
        let mut reg = ResourceRegistry::new(group);
        reg.register("alice/birthday", b"26 October 1990", &cred);
        (reg, cred, rng)
    }

    #[test]
    fn credentialed_fetch_succeeds_pseudonymously() {
        let (reg, cred, mut rng) = setup();
        let mut audit = LeakageAudit::new();
        let content = reg
            .fetch("alice/birthday", "nym-1", &cred, &mut rng, &mut audit)
            .unwrap();
        assert_eq!(content, b"26 October 1990");
        assert_eq!(audit.identity_exposure(), 0, "no one learns the identity");
        assert!(audit.knows("registry", Knowledge::SearcherPseudonym));
    }

    #[test]
    fn wrong_credential_rejected() {
        let (reg, _, mut rng) = setup();
        let other = AccessCredential::generate(&SchnorrGroup::toy(), &mut rng);
        let mut audit = LeakageAudit::new();
        assert!(matches!(
            reg.fetch("alice/birthday", "nym-2", &other, &mut rng, &mut audit),
            Err(DosnError::NotAuthorized(_))
        ));
    }

    #[test]
    fn unknown_handler_unavailable() {
        let (reg, cred, mut rng) = setup();
        let mut audit = LeakageAudit::new();
        assert!(matches!(
            reg.fetch("alice/phone", "nym-3", &cred, &mut rng, &mut audit),
            Err(DosnError::ContentUnavailable(_))
        ));
    }

    #[test]
    fn proof_replay_across_handlers_fails() {
        let (mut reg, cred, mut rng) = setup();
        reg.register("alice/phone", b"555-0199", &cred);
        // A proof made for the birthday handler must not open the phone.
        let proof = DlogProof::prove(
            &SchnorrGroup::toy(),
            &cred.secret,
            context("alice/birthday", "nym").as_bytes(),
            &mut rng,
        );
        let mut audit = LeakageAudit::new();
        assert!(reg
            .fetch_with_proof("alice/birthday", "nym", &proof, &mut audit)
            .is_ok());
        assert!(reg
            .fetch_with_proof("alice/phone", "nym", &proof, &mut audit)
            .is_err());
    }

    #[test]
    fn proof_bound_to_pseudonym() {
        let (reg, cred, mut rng) = setup();
        let proof = DlogProof::prove(
            &SchnorrGroup::toy(),
            &cred.secret,
            context("alice/birthday", "nym-a").as_bytes(),
            &mut rng,
        );
        let mut audit = LeakageAudit::new();
        assert!(reg
            .fetch_with_proof("alice/birthday", "nym-b", &proof, &mut audit)
            .is_err());
    }

    #[test]
    fn handlers_reveal_names_not_contents() {
        let (reg, _, _) = setup();
        let handlers = reg.handlers();
        assert_eq!(handlers, vec!["alice/birthday"]);
    }
}
