//! Fork-consistent object histories (survey §IV-B; Frientegrity).
//!
//! "The object history tree data structure addresses \[the\] historical
//! integrity problem where a malicious service provider or any data storage
//! utility cannot present different clients with divergent views of the
//! system's state … Clients share information about their individual views
//! of the history by embedding it in every operation they perform. As a
//! result, if the clients who have been equivocated by the service provider
//! communicate to each other, they will discover the provider's
//! misbehaviour. In this method, the service provider also digitally signs
//! the root of \[the\] object history tree in order to prevent the client
//! from later falsely accusing the server of cheating."
//!
//! [`HistoryServer`] models the (possibly malicious) provider: it can
//! [`HistoryServer::fork`] an object and feed different branches to
//! different clients, but must sign every view it serves.
//! [`HistoryClient`] checks (a) the signature, (b) that each new view
//! extends its previous view (no history rewriting), and (c) on contact
//! with another client, that their views agree on the common prefix —
//! equivocation surfaces as [`DosnError::ForkDetected`], with the signed
//! digests as non-repudiable evidence. Experiment E4 measures detection
//! probability versus gossip.
//!
//! *Substitution note:* Frientegrity's history **tree** gives logarithmic
//! membership proofs. The history here is the workspace's one Merkle tree
//! ([`dosn_crypto::merkle`], shared with the ACL dictionary), but its roots
//! are still recomputed linearly from the transported log rather than
//! checked with consistency proofs. That preserves the detection semantics
//! the survey describes (what E4 measures) at simulation-friendly cost.

use crate::error::DosnError;
use crate::identity::UserId;
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::SchnorrGroup;
use dosn_crypto::merkle;
use dosn_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use dosn_crypto::sha256::{sha256_concat, Sha256};
use std::collections::HashMap;

/// One operation in an object's history (a wall post, a comment, an ACL
/// change…).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// Who performed it.
    pub author: UserId,
    /// Opaque payload.
    pub payload: Vec<u8>,
}

impl Operation {
    /// Creates an operation.
    pub fn new(author: impl Into<UserId>, payload: impl Into<Vec<u8>>) -> Self {
        Operation {
            author: author.into(),
            payload: payload.into(),
        }
    }

    fn hash(&self) -> [u8; 32] {
        sha256_concat(&[
            b"dosn.history.op",
            &(self.author.as_bytes().len() as u64).to_be_bytes(),
            self.author.as_bytes(),
            &self.payload,
        ])
    }
}

/// Merkle root over a log (or a prefix of one).
fn log_root(ops: &[Operation]) -> [u8; 32] {
    let leaves: Vec<[u8; 32]> = ops.iter().map(Operation::hash).collect();
    merkle::root(b"dosn.history.node", &leaves)
}

fn no_branch(object: &str, branch: usize) -> DosnError {
    DosnError::ContentUnavailable(format!("no branch {branch} of object {object:?}"))
}

/// A signed view digest: what clients exchange to detect forks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDigest {
    /// The object this digest describes.
    pub object: String,
    /// History length at signing time.
    pub version: u64,
    /// Merkle root over the first `version` operations.
    pub root: [u8; 32],
    signature: Signature,
}

impl ViewDigest {
    fn signed_bytes(object: &str, version: u64, root: &[u8; 32]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(b"dosn.history.digest");
        h.update(&(object.len() as u64).to_be_bytes());
        h.update(object.as_bytes());
        h.update(&version.to_be_bytes());
        h.update(root);
        h.finalize()
    }
}

/// The storage provider for object histories — honest by default, but able
/// to equivocate on demand (for the E4 experiment and tests).
pub struct HistoryServer {
    key: SigningKey,
    /// object -> branches; branch 0 is the "main" view.
    logs: HashMap<String, Vec<Vec<Operation>>>,
    rng: SecureRng,
}

impl std::fmt::Debug for HistoryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HistoryServer({} objects)", self.logs.len())
    }
}

impl HistoryServer {
    /// Creates a server with a fresh signing key.
    pub fn new(group: SchnorrGroup, seed: u64) -> Self {
        let mut rng = SecureRng::seed_from_u64(seed);
        HistoryServer {
            key: SigningKey::generate(group, &mut rng),
            logs: HashMap::new(),
            rng,
        }
    }

    /// The key clients verify digests against.
    pub fn verifying_key(&self) -> &VerifyingKey {
        self.key.verifying_key()
    }

    /// Appends an operation to *every* branch of `object` (honest
    /// behaviour; before a fork there is exactly one branch).
    pub fn append(&mut self, object: &str, op: Operation) {
        let branches = self
            .logs
            .entry(object.to_owned())
            .or_insert_with(|| vec![Vec::new()]);
        for b in branches.iter_mut() {
            b.push(op.clone());
        }
    }

    /// Equivocation: duplicates the current main branch. Subsequent
    /// [`HistoryServer::append_to_branch`] calls let the two views diverge.
    /// Returns the new branch index.
    pub fn fork(&mut self, object: &str) -> usize {
        let branches = self
            .logs
            .entry(object.to_owned())
            .or_insert_with(|| vec![Vec::new()]);
        let copy = branches[0].clone();
        branches.push(copy);
        branches.len() - 1
    }

    /// Appends only to one branch (the malicious move).
    ///
    /// # Errors
    ///
    /// [`DosnError::ContentUnavailable`] for an unknown object or branch.
    pub fn append_to_branch(
        &mut self,
        object: &str,
        branch: usize,
        op: Operation,
    ) -> Result<(), DosnError> {
        let log = self.logs.get_mut(object).and_then(|b| b.get_mut(branch));
        log.ok_or_else(|| no_branch(object, branch))?.push(op);
        Ok(())
    }

    /// Serves `object`'s history as seen on `branch`, with a signed digest.
    /// The signature is what makes later fork evidence non-repudiable.
    ///
    /// # Errors
    ///
    /// [`DosnError::ContentUnavailable`] for an unknown object or branch.
    pub fn view(
        &mut self,
        object: &str,
        branch: usize,
    ) -> Result<(Vec<Operation>, ViewDigest), DosnError> {
        let log = self.logs.get(object).and_then(|b| b.get(branch));
        let log = log.ok_or_else(|| no_branch(object, branch))?.clone();
        let version = log.len() as u64;
        let root = log_root(&log);
        let digest_bytes = ViewDigest::signed_bytes(object, version, &root);
        let signature = self.key.sign(&digest_bytes, &mut self.rng);
        Ok((
            log,
            ViewDigest {
                object: object.to_owned(),
                version,
                root,
                signature,
            },
        ))
    }
}

/// A client maintaining a fork-consistent view of one object.
#[derive(Debug, Clone)]
pub struct HistoryClient {
    /// Client name (for error evidence).
    pub name: String,
    object: String,
    server_key: VerifyingKey,
    log: Vec<Operation>,
    latest: Option<ViewDigest>,
}

impl HistoryClient {
    /// Creates a client for `object`, trusting digests signed by
    /// `server_key`.
    pub fn new(
        name: impl Into<String>,
        object: impl Into<String>,
        server_key: VerifyingKey,
    ) -> Self {
        HistoryClient {
            name: name.into(),
            object: object.into(),
            server_key,
            log: Vec::new(),
            latest: None,
        }
    }

    /// The newest digest this client holds (to gossip to peers).
    pub fn digest(&self) -> Option<&ViewDigest> {
        self.latest.as_ref()
    }

    /// The client's current view length.
    pub fn version(&self) -> u64 {
        self.log.len() as u64
    }

    /// Ingests a served view: verifies the server signature, the root, and
    /// that the new log extends the previously accepted one.
    ///
    /// # Errors
    ///
    /// * [`DosnError::IntegrityViolation`] — bad signature, root mismatch,
    ///   or a served history that *rewrites* (is not an extension of) what
    ///   this client already accepted.
    pub fn observe(&mut self, log: Vec<Operation>, digest: ViewDigest) -> Result<(), DosnError> {
        if digest.object != self.object {
            return Err(DosnError::IntegrityViolation(
                "digest for wrong object".into(),
            ));
        }
        let bytes = ViewDigest::signed_bytes(&digest.object, digest.version, &digest.root);
        self.server_key
            .verify(&bytes, &digest.signature)
            .map_err(|_| DosnError::IntegrityViolation("server digest signature invalid".into()))?;
        if digest.version != log.len() as u64 || log_root(&log) != digest.root {
            return Err(DosnError::IntegrityViolation(
                "served log does not match signed digest".into(),
            ));
        }
        if log.len() < self.log.len() {
            return Err(DosnError::IntegrityViolation(
                "served history shorter than previously observed".into(),
            ));
        }
        // The root of `self.log`, checked against its signed digest when it
        // was accepted (the empty root before the first view).
        let accepted = self.latest.as_ref().map_or([0; 32], |d| d.root);
        if log_root(&log[..self.log.len()]) != accepted {
            return Err(DosnError::IntegrityViolation(
                "served history rewrites the accepted prefix".into(),
            ));
        }
        self.log = log;
        self.latest = Some(digest);
        Ok(())
    }

    /// Cross-checks another client's signed digest against this client's
    /// view — the §IV-B gossip that catches equivocation.
    ///
    /// # Errors
    ///
    /// [`DosnError::ForkDetected`] when the common prefix disagrees: the
    /// provider signed two divergent histories.
    pub fn cross_check(&self, other_digest: &ViewDigest) -> Result<(), DosnError> {
        if other_digest.object != self.object {
            return Ok(()); // different objects cannot conflict
        }
        let bytes = ViewDigest::signed_bytes(
            &other_digest.object,
            other_digest.version,
            &other_digest.root,
        );
        self.server_key
            .verify(&bytes, &other_digest.signature)
            .map_err(|_| DosnError::IntegrityViolation("peer digest signature invalid".into()))?;
        if let Some(prefix) = self.log.get(..other_digest.version as usize) {
            // Our log covers their version: recompute the root they should
            // have seen.
            if log_root(prefix) != other_digest.root {
                return Err(DosnError::ForkDetected(format!(
                    "{}: provider signed divergent views at version {}",
                    self.name, other_digest.version
                )));
            }
        } else if let Some(mine) = &self.latest {
            // They are ahead: they must agree with our root at our version.
            // We cannot verify from the digest alone (no proof), so flag
            // only equal-version mismatches here; full verification happens
            // when we next observe and re-cross-check.
            if other_digest.version == mine.version && other_digest.root != mine.root {
                return Err(DosnError::ForkDetected(format!(
                    "{}: provider signed two roots for version {}",
                    self.name, mine.version
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> HistoryServer {
        HistoryServer::new(SchnorrGroup::toy(), 90)
    }

    fn client(name: &str, server: &HistoryServer) -> HistoryClient {
        HistoryClient::new(name, "bob-wall", server.verifying_key().clone())
    }

    #[test]
    fn honest_server_passes_all_checks() {
        let mut server = setup();
        let mut alice = client("alice", &server);
        let mut carol = client("carol", &server);
        for i in 0..5 {
            server.append("bob-wall", Operation::new("bob", format!("post {i}")));
            let (log, digest) = server.view("bob-wall", 0).unwrap();
            alice.observe(log, digest).unwrap();
        }
        let (log, digest) = server.view("bob-wall", 0).unwrap();
        carol.observe(log, digest).unwrap();
        alice.cross_check(carol.digest().unwrap()).unwrap();
        carol.cross_check(alice.digest().unwrap()).unwrap();
    }

    #[test]
    fn equivocation_detected_on_gossip() {
        let mut server = setup();
        server.append("bob-wall", Operation::new("bob", "shared post"));
        let branch = server.fork("bob-wall");
        // Alice's branch gets a post Carol never sees.
        server
            .append_to_branch("bob-wall", 0, Operation::new("bob", "only for alice"))
            .unwrap();
        server
            .append_to_branch("bob-wall", branch, Operation::new("bob", "only for carol"))
            .unwrap();

        let mut alice = client("alice", &server);
        let mut carol = client("carol", &server);
        let (log_a, dig_a) = server.view("bob-wall", 0).unwrap();
        alice.observe(log_a, dig_a).unwrap();
        let (log_c, dig_c) = server.view("bob-wall", branch).unwrap();
        carol.observe(log_c, dig_c).unwrap();

        // Same version, different roots: gossip catches it immediately.
        let err = alice.cross_check(carol.digest().unwrap()).unwrap_err();
        assert!(matches!(err, DosnError::ForkDetected(_)), "{err}");
    }

    #[test]
    fn equivocation_detected_across_versions() {
        let mut server = setup();
        server.append("bob-wall", Operation::new("bob", "p0"));
        let branch = server.fork("bob-wall");
        server
            .append_to_branch("bob-wall", 0, Operation::new("bob", "a1"))
            .unwrap();
        server
            .append_to_branch("bob-wall", 0, Operation::new("bob", "a2"))
            .unwrap();
        server
            .append_to_branch("bob-wall", branch, Operation::new("bob", "c1"))
            .unwrap();

        let mut alice = client("alice", &server);
        let mut carol = client("carol", &server);
        let (la, da) = server.view("bob-wall", 0).unwrap(); // version 3
        alice.observe(la, da).unwrap();
        let (lc, dc) = server.view("bob-wall", branch).unwrap(); // version 2
        carol.observe(lc, dc).unwrap();
        // Alice's log covers carol's version: prefix mismatch -> fork.
        assert!(matches!(
            alice.cross_check(carol.digest().unwrap()),
            Err(DosnError::ForkDetected(_))
        ));
    }

    #[test]
    fn history_rewrite_rejected_at_observe() {
        let mut server = setup();
        server.append("bob-wall", Operation::new("bob", "original"));
        let mut alice = client("alice", &server);
        let (log, digest) = server.view("bob-wall", 0).unwrap();
        alice.observe(log, digest).unwrap();
        // The server rewrites history on a fresh branch with different ops.
        let branch = server.fork("bob-wall");
        server.logs.get_mut("bob-wall").unwrap()[branch][0] = Operation::new("bob", "rewritten");
        server
            .append_to_branch("bob-wall", branch, Operation::new("bob", "more"))
            .unwrap();
        let (log2, digest2) = server.view("bob-wall", branch).unwrap();
        assert!(matches!(
            alice.observe(log2, digest2),
            Err(DosnError::IntegrityViolation(_))
        ));
    }

    #[test]
    fn shortened_history_rejected() {
        let mut server = setup();
        for i in 0..3 {
            server.append("bob-wall", Operation::new("bob", format!("{i}")));
        }
        let mut alice = client("alice", &server);
        let (log, digest) = server.view("bob-wall", 0).unwrap();
        alice.observe(log, digest).unwrap();
        // Server now serves a truncated (but correctly signed) view.
        let branch = server.fork("bob-wall");
        server.logs.get_mut("bob-wall").unwrap()[branch].truncate(1);
        let (short_log, short_digest) = server.view("bob-wall", branch).unwrap();
        assert!(alice.observe(short_log, short_digest).is_err());
    }

    #[test]
    fn digest_forgery_rejected() {
        let mut server = setup();
        server.append("bob-wall", Operation::new("bob", "p"));
        let (log, mut digest) = server.view("bob-wall", 0).unwrap();
        digest.root[0] ^= 1;
        let mut alice = client("alice", &server);
        assert!(alice.observe(log, digest).is_err());
    }

    #[test]
    fn log_digest_mismatch_rejected() {
        let mut server = setup();
        server.append("bob-wall", Operation::new("bob", "p"));
        let (mut log, digest) = server.view("bob-wall", 0).unwrap();
        log[0] = Operation::new("bob", "swapped");
        let mut alice = client("alice", &server);
        assert!(alice.observe(log, digest).is_err());
    }

    #[test]
    fn cross_object_digests_ignored() {
        let mut server = setup();
        server.append("bob-wall", Operation::new("bob", "p"));
        server.append("carol-wall", Operation::new("carol", "q"));
        let mut alice = client("alice", &server);
        let (log, digest) = server.view("bob-wall", 0).unwrap();
        alice.observe(log, digest).unwrap();
        let mut dave = HistoryClient::new("dave", "carol-wall", server.verifying_key().clone());
        let (log2, digest2) = server.view("carol-wall", 0).unwrap();
        dave.observe(log2, digest2).unwrap();
        alice.cross_check(dave.digest().unwrap()).unwrap();
    }

    #[test]
    fn unknown_object_or_branch_is_a_typed_error() {
        let mut server = setup();
        server.append("bob-wall", Operation::new("bob", "p"));
        let op = Operation::new("bob", "q");
        for (object, branch) in [("nobody-wall", 0), ("bob-wall", 1)] {
            assert!(matches!(
                server.append_to_branch(object, branch, op.clone()),
                Err(DosnError::ContentUnavailable(_))
            ));
            assert!(matches!(
                server.view(object, branch),
                Err(DosnError::ContentUnavailable(_))
            ));
        }
    }

    #[test]
    fn root_bytes_are_pinned() {
        // Seven ops `x: op0..op6`. A change to the op or node hashing, or
        // to the tree's shape, moves this root.
        let mut server = setup();
        for i in 0..7 {
            server.append("bob-wall", Operation::new("x", format!("op{i}")));
        }
        let (_, digest) = server.view("bob-wall", 0).unwrap();
        let hex: String = digest.root.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "659525df3e843fa73bd95859495cba9940ca36de766b815c622794971bc0dcc1"
        );
    }

    #[test]
    fn merkle_root_properties() {
        let ops: Vec<Operation> = (0..7)
            .map(|i| Operation::new("x", format!("op{i}")))
            .collect();
        assert_eq!(log_root(&ops[..0]), [0; 32]);
        assert_ne!(log_root(&ops[..1]), log_root(&ops[..2]));
        assert_ne!(log_root(&ops[..6]), log_root(&ops[..7]));
        // Prefix roots are a function of the prefix only.
        let longer: Vec<Operation> = ops
            .iter()
            .cloned()
            .chain([Operation::new("x", "extra")])
            .collect();
        assert_eq!(log_root(&ops[..5]), log_root(&longer[..5]));
    }
}
