//! A complete assembled DOSN: the facade the examples build on.
//!
//! [`DosnNetwork`] is a thin single-op front for the request engine, which
//! owns all state: one record per user (the §III privacy plane beside the
//! §IV timeline and relation keys) sharded by user, over a replicated
//! store on any overlay family:
//!
//! ```text
//!            ┌────────────────────────────────────────────┐
//!            │            DosnNetwork<S> facade           │
//!            │  register · befriend · post · read · …     │
//!            │  (every call = an OpBatch of one)          │
//!            └─────────────────────┬──────────────────────┘
//!            ┌─────────────────────▼──────────────────────┐
//!            │  Engine<S>: plan → prepare → commit → finish│
//!            └──────┬──────────────────────────────┬──────┘
//!                   │ 32 shards of                 │
//!      ┌────────────▼─────────────┐     ┌──────────▼──────────┐
//!      │ UserId → one user record │     │   ReplicatedStore   │
//!      │  §III identity, friends  │     │   R-way placement   │
//!      │   group, PrivacyPlane    │     │   quorum reads      │
//!      │   (any AccessScheme as   │     │   read-repair       │
//!      │   trait object + codec)  │     └──────────┬──────────┘
//!      │  §IV timeline, sequence, │                │ StoragePlane
//!      │   relation keys, comments│     ┌──────────▼──────────┐
//!      └──────────────────────────┘     │ Chord  │ Kademlia   │
//!                                       │ Super- │ Federation │
//!                                       │ peer   │            │
//!                                       └─────────────────────┘
//! ```
//!
//! Posts are encrypted by the author's privacy plane, signed and chained
//! into the author's timeline, and written R-way by the replicated store;
//! reads run a quorum fetch whose per-copy verifier is the envelope check
//! itself, then decrypt. Every facade call executes as a batch of one
//! through [`crate::engine::Engine`] — callers that want throughput submit
//! an [`OpBatch`] to [`DosnNetwork::execute`] instead and get the
//! prepare/finish phases parallelized across worker threads
//! ([`DosnNetwork::set_workers`]) with byte-identical results.
//!
//! The default composition (`DosnNetwork::new`) is the survey's §II-B
//! structured-overlay baseline — Chord with replication 3 and the symmetric
//! friends-group scheme — but any [`StoragePlane`] slots in via
//! [`DosnNetwork::with_plane`], and any [`crate::privacy::AccessScheme`]
//! via [`DosnNetwork::register_with_scheme`].

pub use crate::engine::privacy_plane::PrivacyPlane;

pub use dosn_overlay::adversary::{reader_parity, AdversaryConfig, AdversaryMode, AdversaryPlane};
pub use dosn_overlay::placement::{SocialPlacement, SocialPlane};
pub use dosn_overlay::replication::{apply_crash_schedule, QuorumOutcome, ReplicatedStore};
// The overlay's scale-free workload graph; aliased because `dosn-core` has
// its own user-level `crate::graph::SocialGraph` for access control.
pub use dosn_overlay::social::{SocialGraph as WorkloadGraph, SocialGraphConfig};
pub use dosn_overlay::storage::{
    ChordPlane, FederationPlane, KademliaPlane, StorageError, StoragePlane, SuperPeerPlane,
};

pub use crate::feed::{FeedCache, FeedItem};

use crate::engine::{BatchReport, Engine, OpBatch, OpOutput};
use crate::error::DosnError;
use crate::graph::SocialGraph;
use crate::privacy::AccessScheme;
use dosn_crypto::keys::KeyDirectory;
use dosn_obs::{Registry, Snapshot};
use dosn_overlay::fault::FaultPlan;
use dosn_overlay::metrics::Metrics;

/// An assembled distributed online social network over a pluggable
/// storage plane (Chord by default).
///
/// ```
/// use dosn_core::network::DosnNetwork;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut net = DosnNetwork::new(32, 42);
/// net.register("alice")?;
/// net.register("bob")?;
/// net.befriend("alice", "bob", 0.9)?;
///
/// let post_key = net.post("alice", "dinner at my place, friends only")?;
/// // Bob (a friend) reads and verifies; the DHT nodes never see plaintext.
/// let body = net.read_post("bob", "alice", post_key)?;
/// assert_eq!(body, "dinner at my place, friends only");
///
/// // Carol (a stranger) is refused at the decryption layer.
/// net.register("carol")?;
/// assert!(net.read_post("carol", "alice", post_key).is_err());
/// # Ok(())
/// # }
/// ```
///
/// Any overlay family slots in as the storage plane:
///
/// ```
/// use dosn_core::network::{DosnNetwork, KademliaPlane};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut net = DosnNetwork::with_plane(KademliaPlane::build(32, 20, 7), 3, 7);
/// net.register("alice")?;
/// net.register("bob")?;
/// net.befriend("alice", "bob", 1.0)?;
/// let seq = net.post("alice", "same API, different overlay")?;
/// assert_eq!(net.read_post("bob", "alice", seq)?, "same API, different overlay");
/// # Ok(())
/// # }
/// ```
///
/// The batch path runs the same operations through the engine's
/// prepare/commit/finish phases (see [`crate::engine`]):
///
/// ```
/// use dosn_core::engine::{OpBatch, OpOutput};
/// use dosn_core::network::DosnNetwork;
///
/// let mut net = DosnNetwork::new(32, 42);
/// net.set_workers(4); // parallel prepare/finish; results unchanged
/// let report = net.execute(
///     OpBatch::new()
///         .register("alice")
///         .register("bob")
///         .befriend("alice", "bob", 0.9)
///         .post("alice", "batched hello")
///         .read_post("bob", "alice", 0),
/// );
/// assert!(matches!(report.results[4], Ok(OpOutput::Read { .. })));
/// ```
pub struct DosnNetwork<S: StoragePlane = ChordPlane> {
    engine: Engine<S>,
}

impl<S: StoragePlane> std::fmt::Debug for DosnNetwork<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DosnNetwork({} users over {} x{})",
            self.engine.user_count(),
            self.engine.storage().plane().name(),
            self.engine.storage().replicas(),
        )
    }
}

impl DosnNetwork {
    /// Creates the default composition: a Chord ring of `overlay_nodes`
    /// with replication factor 3.
    pub fn new(overlay_nodes: usize, seed: u64) -> Self {
        Self::with_plane(ChordPlane::build(overlay_nodes, seed), 3, seed)
    }
}

impl<S: StoragePlane> DosnNetwork<S> {
    /// Assembles a network over any storage plane with `replicas`-way
    /// replication and a majority read quorum.
    pub fn with_plane(plane: S, replicas: usize, seed: u64) -> Self {
        Self::with_replication(ReplicatedStore::new(plane, replicas), seed)
    }

    /// Assembles a network over a pre-configured replicated store (custom
    /// read quorum, pre-seeded plane).
    ///
    /// The network adopts the store's observability [`Registry`], so a
    /// store built with [`ReplicatedStore::with_obs`] shares one registry
    /// across the storage layer, the facade's end-to-end timings, and the
    /// crypto cache counters.
    pub fn with_replication(storage: ReplicatedStore<S>, seed: u64) -> Self {
        DosnNetwork {
            engine: Engine::new(storage, seed),
        }
    }

    /// Executes a batch of operations through the engine's
    /// prepare / commit / finish phases. See [`crate::engine::Engine`] for
    /// staging, determinism, and error semantics.
    pub fn execute(&mut self, batch: OpBatch) -> BatchReport {
        self.engine.execute(batch)
    }

    /// Sets the engine's worker-thread count for the parallel phases.
    /// Results are byte-identical for any value; only wall-clock changes.
    pub fn set_workers(&mut self, workers: usize) {
        self.engine.set_workers(workers);
    }

    /// The engine's configured worker count.
    pub fn workers(&self) -> usize {
        self.engine.workers()
    }

    /// The underlying request engine.
    pub fn engine(&self) -> &Engine<S> {
        &self.engine
    }

    /// The underlying request engine, mutably.
    pub fn engine_mut(&mut self) -> &mut Engine<S> {
        &mut self.engine
    }

    /// Registers a user with the default symmetric friends-group scheme
    /// (a batch of one through the engine).
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownUser`] if the name is already taken (reported
    /// against the name).
    pub fn register(&mut self, name: &str) -> Result<(), DosnError> {
        self.one(
            "register",
            OpBatch::new().register(name),
            OpOutput::Registered,
        )
    }

    /// Registers a user whose posts are protected by an arbitrary §III
    /// access scheme (wrapped in a [`PrivacyPlane`]). The scheme must be
    /// able to create a group containing the user and to seal bodies for
    /// storage (symmetric and per-recipient schemes can; ABE/IBBE report a
    /// typed error at post time).
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownUser`] for a taken name, plus scheme-specific
    /// group-creation failures.
    pub fn register_with_scheme(
        &mut self,
        name: &str,
        privacy: PrivacyPlane,
    ) -> Result<(), DosnError> {
        self.engine.register_with_plane(name, privacy)
    }

    /// The social graph.
    pub fn graph(&self) -> &SocialGraph {
        self.engine.graph()
    }

    /// The key directory.
    pub fn directory(&self) -> &KeyDirectory {
        self.engine.directory()
    }

    /// Accumulated overlay + plane metrics.
    pub fn metrics(&self) -> &Metrics {
        self.engine.metrics()
    }

    /// The network's observability registry (shared with the replicated
    /// store and the crypto layer's cache counters). End-to-end operation
    /// latencies land here: `net.post`, `net.read_post.quorum`,
    /// `net.register`, `net.key_dissemination`, plus the engine phase
    /// timings `engine.plan` / `engine.prepare` / `engine.commit` /
    /// `engine.finish`.
    pub fn obs(&self) -> &Registry {
        self.engine.obs()
    }

    /// Refreshes derived gauges (overlay traffic totals, big-integer
    /// exponentiation tallies) and returns a point-in-time [`Snapshot`] of
    /// every instrument. Call this right before exporting — the gauges are
    /// snapshots, not live counters.
    pub fn publish_obs(&self) -> Snapshot {
        self.engine.publish_obs()
    }

    /// A user's timeline (verifier view).
    pub fn timeline(&self, user: &str) -> Option<&crate::integrity::Timeline> {
        self.engine.timeline(user)
    }

    /// The replicated storage layer (placement, accounting).
    pub fn storage(&self) -> &ReplicatedStore<S> {
        self.engine.storage()
    }

    /// The replicated storage layer, mutably (churn injection, direct
    /// plane access).
    pub fn storage_mut(&mut self) -> &mut ReplicatedStore<S> {
        self.engine.storage_mut()
    }

    /// Applies a fault plan's crash schedule to the storage plane as of
    /// `now_ms` (see [`apply_crash_schedule`]). Returns how many storage
    /// nodes are down afterwards.
    pub fn apply_crashes(&mut self, plan: &FaultPlan, now_ms: u64) -> usize {
        self.engine.apply_crashes(plan, now_ms)
    }

    /// Makes two users friends: graph edge + mutual friends-group
    /// membership (each can now read the other's friends-only posts).
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownUser`] for unregistered names.
    pub fn befriend(&mut self, a: &str, b: &str, trust: f64) -> Result<(), DosnError> {
        let batch = OpBatch::new().befriend(a, b, trust);
        self.one("befriend", batch, OpOutput::Befriended)
    }

    /// Publishes a friends-only post: encrypt (the author's privacy plane)
    /// → sign + chain + mint relation keys (the author's timeline) → R-way
    /// store (storage). Returns the author-local sequence number.
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownUser`], privacy-plane sealing failures, and
    /// [`DosnError::ContentUnavailable`] for storage failures.
    pub fn post(&mut self, author: &str, body: &str) -> Result<u64, DosnError> {
        match self.output(OpBatch::new().post(author, body))? {
            OpOutput::Posted { seq } => Ok(seq),
            other => Err(unexpected_output("post", &other)),
        }
    }

    /// Attaches a comment to `author`'s post `seq` as `commenter` — only
    /// friends hold the commenters key, and the per-post relation key binds
    /// the comment to exactly that post (§IV-C).
    ///
    /// # Errors
    ///
    /// * [`DosnError::UnknownUser`] / [`DosnError::ContentUnavailable`];
    /// * [`DosnError::NotAuthorized`] — commenter is not in the author's
    ///   friends group.
    pub fn comment(
        &mut self,
        commenter: &str,
        author: &str,
        seq: u64,
        body: &str,
    ) -> Result<(), DosnError> {
        let batch = OpBatch::new().comment(commenter, author, seq, body);
        self.one("comment", batch, OpOutput::Commented)
    }

    /// Verified comments on a post (commenter, body).
    pub fn comments(&self, author: &str, seq: u64) -> Vec<(String, String)> {
        self.engine.comments(author, seq)
    }

    /// Fetches (quorum read with envelope verification per copy), verifies,
    /// and decrypts a post as `reader`.
    ///
    /// # Errors
    ///
    /// * [`DosnError::ContentUnavailable`] — no live replica / no quorum;
    /// * [`DosnError::MalformedEnvelope`] — the stored record does not
    ///   parse;
    /// * [`DosnError::IntegrityViolation`] — signature/tamper failures;
    /// * [`DosnError::NotAuthorized`] — reader is not in the author's
    ///   friends group.
    pub fn read_post(&mut self, reader: &str, author: &str, seq: u64) -> Result<String, DosnError> {
        match self.output(OpBatch::new().read_post(reader, author, seq))? {
            OpOutput::Read { body } => Ok(body),
            other => Err(unexpected_output("read_post", &other)),
        }
    }

    /// Revokes a friendship: graph edge removed and both friends groups
    /// re-keyed (returns the total membership-change cost, E2-style).
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownUser`] for unregistered names.
    pub fn unfriend(&mut self, a: &str, b: &str) -> Result<u64, DosnError> {
        self.engine.unfriend(a, b)
    }

    /// Enables the full caching hierarchy: the reader-side materialized
    /// feed cache (L1, `capacity` decrypted posts, valid while the
    /// hash-chain head they were proven under is on the author's live
    /// chain) and the storage plane's hot envelope cache (L2,
    /// `capacity` verified sealed envelopes under the plane's native
    /// admission policy). Op outcomes are byte-identical with caching on
    /// or off; only latency and the `cache.*` instruments change. See
    /// [`crate::feed`] for the integrity argument.
    pub fn enable_feed_cache(&mut self, capacity: usize) {
        self.engine.enable_feed_cache(capacity);
        self.engine.enable_hot_cache(capacity);
    }

    /// Disables the reader-side feed cache (the storage plane's hot cache,
    /// once enabled, stays — it holds only verified sealed envelopes).
    pub fn disable_feed_cache(&mut self) {
        self.engine.disable_feed_cache();
    }

    /// The reader-side feed cache, when enabled.
    pub fn feed_cache(&self) -> Option<&FeedCache> {
        self.engine.feed_cache()
    }

    /// Aggregates `user`'s feed — the latest `k` posts of every friend —
    /// as one engine batch (parallel finish phase, batched Schnorr
    /// verification on the fill path). Friends come from the social
    /// graph; a user with zero friends gets an empty feed. See
    /// [`crate::engine::Engine::read_feed`].
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownUser`] when `user` is not registered.
    pub fn read_feed(&mut self, user: &str, k: usize) -> Result<Vec<FeedItem>, DosnError> {
        self.engine.read_feed(user, k)
    }

    /// [`DosnNetwork::register_with_scheme`] for an already-boxed scheme
    /// (convenience for experiment harnesses that hold
    /// `Box<dyn AccessScheme>`).
    ///
    /// # Errors
    ///
    /// Same as [`DosnNetwork::register_with_scheme`].
    pub fn register_with_boxed_scheme(
        &mut self,
        name: &str,
        scheme: Box<dyn AccessScheme>,
    ) -> Result<(), DosnError> {
        self.register_with_scheme(name, PrivacyPlane::new(scheme))
    }

    /// Runs a batch of one and unwraps its only result. The engine
    /// guarantees one result per op, so the empty case is a typed defect
    /// report, never a panic.
    fn output(&mut self, batch: OpBatch) -> Result<OpOutput, DosnError> {
        self.engine.execute(batch).results.pop().unwrap_or_else(|| {
            Err(DosnError::IntegrityViolation(
                "engine returned an empty report for a batch of one".into(),
            ))
        })
    }

    /// [`Self::output`] for the calls that return nothing: the engine must
    /// answer a `call` op with exactly `want`.
    fn one(&mut self, call: &str, batch: OpBatch, want: OpOutput) -> Result<(), DosnError> {
        match self.output(batch)? {
            output if output == want => Ok(()),
            other => Err(unexpected_output(call, &other)),
        }
    }
}

fn unexpected_output(call: &str, output: &OpOutput) -> DosnError {
    DosnError::IntegrityViolation(format!("engine returned {output:?} for a {call} op"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosn_crypto::chacha::SecureRng;

    fn net() -> DosnNetwork {
        let mut n = DosnNetwork::new(16, 3);
        for u in ["alice", "bob", "carol"] {
            n.register(u).unwrap();
        }
        n.befriend("alice", "bob", 0.9).unwrap();
        n
    }

    #[test]
    fn friends_read_strangers_do_not() {
        let mut n = net();
        let seq = n.post("alice", "friends only").unwrap();
        assert_eq!(n.read_post("bob", "alice", seq).unwrap(), "friends only");
        assert!(matches!(
            n.read_post("carol", "alice", seq),
            Err(DosnError::NotAuthorized(_))
        ));
    }

    #[test]
    fn double_registration_rejected() {
        let mut n = net();
        assert!(n.register("alice").is_err());
    }

    #[test]
    fn unknown_users_rejected_everywhere() {
        let mut n = net();
        assert!(n.befriend("alice", "ghost", 0.5).is_err());
        assert!(n.post("ghost", "x").is_err());
        assert!(n.read_post("ghost", "alice", 0).is_err());
    }

    #[test]
    fn missing_post_unavailable() {
        let mut n = net();
        assert!(matches!(
            n.read_post("bob", "alice", 99),
            Err(DosnError::ContentUnavailable(_))
        ));
    }

    #[test]
    fn unfriending_revokes_future_posts() {
        let mut n = net();
        let old = n.post("alice", "while friends").unwrap();
        assert!(n.read_post("bob", "alice", old).is_ok());
        let rekeyed = n.unfriend("alice", "bob").unwrap();
        assert!(rekeyed <= 2);
        let new = n.post("alice", "after the falling out").unwrap();
        assert!(n.read_post("bob", "alice", new).is_err());
        // The fundamental limit: bob still holds the old epoch key.
        assert!(n.read_post("bob", "alice", old).is_ok());
    }

    #[test]
    fn timeline_chains_posts() {
        let mut n = net();
        for i in 0..4 {
            n.post("alice", &format!("post {i}")).unwrap();
        }
        let t = n.timeline("alice").unwrap();
        assert_eq!(t.entries().len(), 4);
        t.verify(n.directory()).unwrap();
    }

    #[test]
    fn friends_comment_strangers_cannot() {
        let mut n = net();
        let seq = n.post("alice", "comment away").unwrap();
        n.comment("bob", "alice", seq, "first!").unwrap();
        assert_eq!(
            n.comments("alice", seq),
            vec![("bob".to_string(), "first!".to_string())]
        );
        // Carol is not alice's friend.
        assert!(matches!(
            n.comment("carol", "alice", seq, "sneaky"),
            Err(DosnError::NotAuthorized(_))
        ));
        // Nonexistent post.
        assert!(matches!(
            n.comment("bob", "alice", 99, "where?"),
            Err(DosnError::ContentUnavailable(_))
        ));
        assert!(n.comments("alice", 99).is_empty());
    }

    #[test]
    fn author_comments_own_post() {
        let mut n = net();
        let seq = n.post("alice", "self-reply").unwrap();
        n.comment("alice", "alice", seq, "addendum").unwrap();
        assert_eq!(n.comments("alice", seq).len(), 1);
    }

    #[test]
    fn metrics_accumulate() {
        let mut n = net();
        let before = n.metrics().messages;
        n.post("alice", "x").unwrap();
        assert!(n.metrics().messages > before);
    }

    #[test]
    fn posts_are_replicated_r_ways() {
        let mut n = net();
        n.post("alice", "durable").unwrap();
        assert_eq!(n.metrics().count("store.replicas_written"), 3);
        assert_eq!(n.storage().accounting().nodes_used(), 3);
    }

    #[test]
    fn malformed_stored_blob_is_a_typed_error_not_a_panic() {
        let mut n = net();
        let seq = n.post("alice", "will be vandalized").unwrap();
        // Overwrite every replica with bytes that are not a record.
        let key = crate::engine::wall_key("alice", seq);
        let mut m = Metrics::new();
        n.storage_mut()
            .put(key, b"not an envelope".to_vec(), &mut m)
            .unwrap();
        assert!(matches!(
            n.read_post("bob", "alice", seq),
            Err(DosnError::MalformedEnvelope(_))
        ));
        // A truncated-header blob is equally survivable.
        n.storage_mut().put(key, vec![0u8; 5], &mut m).unwrap();
        assert!(matches!(
            n.read_post("bob", "alice", seq),
            Err(DosnError::MalformedEnvelope(_))
        ));
    }

    #[test]
    fn crashed_replica_is_read_repaired() {
        let mut n = net();
        let seq = n.post("alice", "survives churn").unwrap();
        let key = crate::engine::wall_key("alice", seq);
        let mut m = Metrics::new();
        let holders = n
            .storage_mut()
            .plane_mut()
            .replica_candidates(key, 3, &mut m)
            .unwrap();
        n.storage_mut().plane_mut().set_online(holders[0], false);
        assert_eq!(n.read_post("bob", "alice", seq).unwrap(), "survives churn");
        assert!(n.metrics().count("get.repairs") > 0);
    }

    #[test]
    fn obs_times_post_read_and_key_dissemination_end_to_end() {
        let mut n = net(); // 3 registrations + 1 befriend already timed
        let seq = n.post("alice", "timed post").unwrap();
        n.read_post("bob", "alice", seq).unwrap();

        let snap = n.publish_obs();
        assert_eq!(snap.histograms["net.post"].count(), 1);
        assert_eq!(snap.histograms["net.read_post.quorum"].count(), 1);
        assert_eq!(snap.histograms["net.register"].count(), 3);
        assert_eq!(snap.histograms["net.key_dissemination"].count(), 1);
        // Quorum read checks every replica's envelope (R = 3 copies) in
        // one batched Schnorr verification: one histogram sample per read.
        assert_eq!(snap.histograms["crypto.schnorr.verify"].count(), 1);
        // Storage-layer timings rode along on the shared registry.
        assert!(snap.histograms["store.put"].count() >= 1);
        assert!(snap.histograms["store.get.quorum"].count() >= 1);
        // Every facade call was a batch of one through the engine phases.
        assert!(snap.histograms["engine.prepare"].count() >= 5);
        assert!(snap.counters["engine.ops"] >= 6);
        // Derived gauges reflect the overlay traffic totals.
        assert!(snap.gauges["overlay.messages"] > 0.0);
        assert!(snap.gauges["overlay.bytes"] > 0.0);
        // And the crypto cache counters were registered live by the group.
        let (hits, misses) = (
            snap.counters["crypto.group.pow.table_hit"],
            snap.counters["crypto.group.pow.table_miss"],
        );
        assert!(hits + misses > 0, "group exponentiations should be counted");
    }

    #[test]
    fn pke_privacy_plane_composes_with_the_facade() {
        let mut n = DosnNetwork::new(16, 9);
        let mut seed_rng = SecureRng::seed_from_u64(77);
        let pke = crate::privacy::PkeGroupScheme::with_fresh_identities(
            &["alice", "bob", "carol"],
            &mut seed_rng,
        );
        n.register_with_boxed_scheme("alice", Box::new(pke))
            .unwrap();
        n.register("bob").unwrap();
        n.register("carol").unwrap();
        n.befriend("alice", "bob", 1.0).unwrap();
        let seq = n.post("alice", "pke wall post").unwrap();
        assert_eq!(n.read_post("bob", "alice", seq).unwrap(), "pke wall post");
        assert!(n.read_post("carol", "alice", seq).is_err());
    }

    #[test]
    fn refused_scheme_registration_leaves_nothing_behind() {
        let mut n = net();
        let users = n.engine().user_count();
        // A PKE scheme that holds no key pair for "zed" refuses to create
        // zed's friends group — before any key binding is published.
        let pke = crate::privacy::PkeGroupScheme::new(dosn_crypto::group::SchnorrGroup::toy(), 1);
        assert!(matches!(
            n.register_with_boxed_scheme("zed", Box::new(pke)),
            Err(DosnError::UnknownUser(_))
        ));
        assert!(n.directory().lookup("zed").is_err(), "stray key binding");
        assert_eq!(n.engine().user_count(), users);
        n.register("zed").unwrap();
        assert!(n.directory().lookup("zed").is_ok());
    }

    #[test]
    fn facade_and_batch_paths_agree() {
        // The same workload through single calls and through one batch
        // must produce the same readable state.
        let mut a = DosnNetwork::new(16, 44);
        a.register("alice").unwrap();
        a.register("bob").unwrap();
        a.befriend("alice", "bob", 1.0).unwrap();
        let seq = a.post("alice", "one way").unwrap();
        let single_body = a.read_post("bob", "alice", seq).unwrap();

        let mut b = DosnNetwork::new(16, 44);
        let report = b.execute(
            OpBatch::new()
                .register("alice")
                .register("bob")
                .befriend("alice", "bob", 1.0)
                .post("alice", "one way")
                .read_post("bob", "alice", 0),
        );
        match &report.results[4] {
            Ok(OpOutput::Read { body }) => assert_eq!(*body, single_body),
            other => panic!("batched read failed: {other:?}"),
        }
    }
}
