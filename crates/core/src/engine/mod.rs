//! The batched request engine: prepare / plan / commit / finish execution
//! of [`OpBatch`]es over one map of per-user records.
//!
//! [`Engine`] is the assembled DOSN and its one entry point: an overlay
//! (§II) under a privacy layer (§III) under an integrity layer (§IV). A
//! batch runs straight through four phases on the calling thread, each in
//! op order:
//!
//! ```text
//!            OpBatch (Register | Befriend | Post | Comment | ReadPost)
//!                │  every op's RNG is HKDF(seed, global op_index)
//!                ▼
//!    prepare     register keygen · befriend links · post encrypt +
//!                sign + chain · comment attach, stage by stage
//!                │ sealed records, in op order
//!                ▼
//!    plan        read validation, then the feed cache (L1) answers
//!                the reads it can
//!                │
//!                ▼
//!    commit      one `ReplicatedStore::put_each` over the records —
//!                every post has a fresh wall key; a record that cannot
//!                be placed fails alone
//!                │
//!                ▼
//!    finish      fetch every read's copies, prove every read's
//!                strict-plurality value in one combined signature
//!                check, then each read votes, decrypts and repairs
//!                │
//!                ▼  results, digest, then the feed-cache fills
//! ```
//!
//! Each phase is one file beside this one — `plan`, `prepare`, `finish` —
//! with `pipeline` holding [`Engine::execute`], which runs a batch through
//! them (the commit is a dozen lines inside it). All of them work on one
//! record per user (`user`), kept in one map. The record holds the user's
//! §III [`AccessScheme`] itself and is the one place a post body is sealed
//! or opened, through the `SealedBody` wire codec in [`crate::privacy`].
//! Batches run one after the other: [`Engine::execute_all`] is `execute`
//! in a loop.
//!
//! # Determinism contract
//!
//! Every op draws its randomness from `HKDF(engine seed, global op index)`
//! — never from a shared stream — and every phase touches users, storage
//! and caches in op order. Outputs (ciphertexts, signatures, sequence
//! numbers, storage records, [`BatchReport::digest`]) are therefore
//! byte-identical across runs with the same seed and op sequence, and the
//! single-op calls ([`Engine::post`] and its four siblings) are batches of
//! one. The global op index persists across batches, so splitting a
//! workload into many batches does not reuse nonces or change results.
//!
//! # Batch semantics
//!
//! Ops execute in *stages*: all `Register`s take effect, then all
//! `Befriend`s, then `Post`/`Comment` crypto and commits, then
//! `ReadPost`s. Results are reported in submission order. A `ReadPost`
//! in the same batch as its `Post` reads the committed record; a
//! `Comment` after its `Post` attaches to it. Commit failures are
//! isolated per op: a post whose replicas cannot be placed (its plane has
//! no online nodes) reports its own storage error while its siblings
//! still commit.

mod batch;
mod finish;
mod pipeline;
mod plan;
mod prepare;
mod user;

pub use batch::{BatchReport, Op, OpBatch, OpOutput};

use crate::error::DosnError;
use crate::feed::{FeedCache, FeedItem};
use crate::identity::UserId;
use crate::privacy::AccessScheme;
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::{GroupSize, SchnorrGroup};
use dosn_crypto::hmac::{hkdf_expand, hkdf_extract};
use dosn_crypto::keys::KeyDirectory;
use dosn_crypto::sha256::sha256;
use dosn_obs::{names, Registry, Snapshot};
use dosn_overlay::fault::FaultPlan;
use dosn_overlay::id::Key;
use dosn_overlay::metrics::Metrics;
use dosn_overlay::replication::{apply_crash_schedule, ReplicatedStore};
use dosn_overlay::storage::{StorageError, StoragePlane};
use std::collections::BTreeMap;
use std::time::Instant;
use user::UserState;

/// The bucket count of [`shard_of`]. The engine keeps every user in one
/// map and does not read this; it stays for workload shapers that spread
/// authors over 32 buckets.
pub const NUM_SHARDS: usize = 32;

/// A stable bucket for a user name: the first eight big-endian bytes of
/// `SHA-256(name)` mod [`NUM_SHARDS`]. A pure function the engine does not
/// call; workload shapers use it to spread authors evenly.
pub fn shard_of(name: &str) -> usize {
    let digest = sha256(name.as_bytes());
    let mut eight = [0u8; 8];
    eight.copy_from_slice(&digest[..8]);
    (u64::from_be_bytes(eight) % NUM_SHARDS as u64) as usize
}

/// The storage key of `author`'s post `seq` — the deterministic address
/// every reader derives independently: `Key::hash("wall/{author}/{seq}")`.
pub fn wall_key(author: &str, seq: u64) -> Key {
    Key::hash(format!("wall/{author}/{seq}").as_bytes())
}

/// Maps storage-plane failures onto the social layer's error type: every
/// variant means the content cannot currently be served.
fn storage_to_dosn(e: StorageError) -> DosnError {
    DosnError::ContentUnavailable(e.to_string())
}

/// The HKDF-SHA256 extract step of every op's RNG, with the engine seed as
/// input keying material: it depends on nothing else, so an engine runs it
/// once.
fn op_prk(seed: &[u8; 32]) -> [u8; 32] {
    hkdf_extract(b"dosn.engine.op.rng.v1", seed)
}

/// Derives the RNG for global op `index`: the HKDF-SHA256 expand step from
/// [`op_prk`]'s key with the op index as info. Op N's randomness is
/// independent of what ops 1..N-1 did — no stream is shared between ops,
/// which is why results don't depend on batch boundaries.
fn op_rng(prk: &[u8; 32], index: u64) -> SecureRng {
    let okm = hkdf_expand(prk, &index.to_be_bytes(), 32);
    let mut key = [0u8; 32];
    key.copy_from_slice(&okm);
    SecureRng::from_seed(key)
}

fn elapsed_micros(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Every registered user's record, by name.
type Users = BTreeMap<UserId, UserState>;

/// `name`'s record, or [`DosnError::UnknownUser`].
fn known_user<'a>(users: &'a Users, name: &str) -> Result<&'a UserState, DosnError> {
    users
        .get(name)
        .ok_or_else(|| DosnError::UnknownUser(name.to_owned()))
}

/// `name`'s record, mutably, or [`DosnError::UnknownUser`].
fn user_mut<'a>(users: &'a mut Users, name: &str) -> Result<&'a mut UserState, DosnError> {
    users
        .get_mut(name)
        .ok_or_else(|| DosnError::UnknownUser(name.to_owned()))
}

/// What every phase reads but none mutates: the crypto and observability
/// handles plus the engine's knobs.
struct PhaseCtx {
    group: SchnorrGroup,
    directory: KeyDirectory,
    obs: Registry,
    seed: [u8; 32],
    /// [`op_prk`] of `seed`.
    op_prk: [u8; 32],
    batch_verify: bool,
}

/// The assembled DOSN: the batched request engine (see module docs) over a
/// replicated store on any overlay family. Owns the crypto group, key
/// directory, replicated storage and metrics, and one record per user —
/// friendships included, as friends-group rosters.
///
/// ```
/// use dosn_core::engine::Engine;
/// use dosn_core::network::{ChordPlane, ReplicatedStore};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The survey's §II-B baseline: a 32-node Chord ring, 3-way replication.
/// let mut net = Engine::new(ReplicatedStore::new(ChordPlane::build(32, 42), 3), 42);
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
/// use dosn_core::engine::Engine;
/// use dosn_core::network::{KademliaPlane, ReplicatedStore};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut net = Engine::new(ReplicatedStore::new(KademliaPlane::build(32, 20, 7), 3), 7);
/// net.register("alice")?;
/// net.register("bob")?;
/// net.befriend("alice", "bob", 1.0)?;
/// let seq = net.post("alice", "same API, different overlay")?;
/// assert_eq!(net.read_post("bob", "alice", seq)?, "same API, different overlay");
/// # Ok(())
/// # }
/// ```
///
/// The batch path runs the same operations as one [`OpBatch`], in stages:
///
/// ```
/// use dosn_core::engine::{Engine, OpBatch, OpOutput};
/// use dosn_core::network::{ChordPlane, ReplicatedStore};
///
/// let mut net = Engine::new(ReplicatedStore::new(ChordPlane::build(32, 42), 3), 42);
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
pub struct Engine<S: StoragePlane> {
    ctx: PhaseCtx,
    storage: ReplicatedStore<S>,
    users: Users,
    metrics: Metrics,
    next_op_index: u64,
    /// Reader-side materialized timelines (L1). `None` = caching off; op
    /// outcomes are byte-identical either way (see [`crate::feed`]).
    feed: Option<FeedCache>,
}

impl<S: StoragePlane> std::fmt::Debug for Engine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Engine({} users over {} x{})",
            self.user_count(),
            self.storage.plane().name(),
            self.storage.replicas(),
        )
    }
}

impl<S: StoragePlane> Engine<S> {
    /// Builds an engine over a pre-configured replicated store, adopting
    /// the store's observability registry. `seed` roots every op's
    /// HKDF-derived randomness.
    pub fn new(storage: ReplicatedStore<S>, seed: u64) -> Self {
        let obs = storage.obs().clone();
        // One process-wide group instance per size: engines share the
        // fixed-base table cache instead of each rebuilding its own
        // generator/key tables.
        let group = SchnorrGroup::shared(GroupSize::Toy);
        group.register_obs(&obs);
        let seed = sha256(&seed.to_be_bytes());
        Engine {
            ctx: PhaseCtx {
                group,
                directory: KeyDirectory::new(),
                obs,
                seed,
                op_prk: op_prk(&seed),
                batch_verify: true,
            },
            storage,
            users: Users::new(),
            metrics: Metrics::new(),
            next_op_index: 0,
            feed: None,
        }
    }

    /// Enables the reader-side materialized-feed cache (L1): decrypted
    /// timeline slices, each pinned to the author's hash-chain head it was
    /// last proven under, holding at most `capacity` posts (the least
    /// recently touched post goes first). A cached slice serves only while
    /// that head is still on the author's live chain: an append carries
    /// the slice — it re-pins to the new head, keeps its posts, and only
    /// the new post is fetched — while a fork or a rollback drops it whole
    /// (`cache.invalidations`), so cache hits can never serve tampered or
    /// forked content. Op outcomes and [`BatchReport::digest`] are
    /// byte-identical with the cache on or off (in fault-free runs the
    /// cache can only return what a quorum read returned); only latency
    /// and `cache.*` counters change. See [`crate::feed`].
    pub fn enable_feed_cache(&mut self, capacity: usize) {
        self.feed = Some(FeedCache::new(capacity));
    }

    /// The feed cache, when enabled.
    pub fn feed_cache(&self) -> Option<&FeedCache> {
        self.feed.as_ref()
    }

    /// Enables hot-envelope caching (L2) at the storage plane, sized to
    /// `capacity` sealed envelopes, with the plane's native admission
    /// policy seeded from the engine seed. Served envelopes are verified
    /// exactly like replica copies; a failing entry is invalidated and
    /// the read retries as a real quorum fetch.
    pub fn enable_hot_cache(&mut self, capacity: usize) {
        let mut eight = [0u8; 8];
        eight.copy_from_slice(&self.ctx.seed[..8]);
        self.storage
            .plane_mut()
            .enable_hot_cache(capacity, u64::from_be_bytes(eight));
    }

    /// Toggles batched Schnorr verification in the finish phase's quorum
    /// reads. On (the default), every read of a batch that stakes on one
    /// value (an L2-served envelope, or its copies' strict plurality) is
    /// proven in one combined random-linear-combination check, and a read
    /// with a tied plurality or a failed stake checks its other distinct
    /// values together. Off, every
    /// value is decoded and verified alone. Results and
    /// [`BatchReport::digest`] are byte-identical either way — the toggle
    /// exists so the equivalence suites can prove that.
    pub fn set_batch_verify(&mut self, on: bool) {
        self.ctx.batch_verify = on;
    }

    /// Accepts a worker count and changes nothing: every batch runs on the
    /// calling thread, whatever `workers` is. Kept so that callers which
    /// pick a worker count still compile.
    pub fn set_workers(&mut self, workers: usize) {
        let _ = workers;
    }

    /// Registered user count.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// `user`'s friends, sorted by name (empty for an unknown user): their
    /// friends-group roster minus themselves — the one record of friendship,
    /// the same one that decides who can read their posts.
    pub fn friends(&self, user: &str) -> Vec<String> {
        self.users
            .get(user)
            .map_or_else(Vec::new, UserState::friends)
    }

    /// The key directory.
    pub fn directory(&self) -> &KeyDirectory {
        &self.ctx.directory
    }

    /// Accumulated overlay + plane metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The observability registry (the replicated store's): the `net.*`
    /// end-to-end latencies land here beside the `engine.*` phase timings.
    pub fn obs(&self) -> &Registry {
        &self.ctx.obs
    }

    /// The replicated storage layer.
    pub fn storage(&self) -> &ReplicatedStore<S> {
        &self.storage
    }

    /// The replicated storage layer, mutably.
    pub fn storage_mut(&mut self) -> &mut ReplicatedStore<S> {
        &mut self.storage
    }

    /// A user's timeline (verifier view).
    pub fn timeline(&self, user: &str) -> Option<&crate::integrity::Timeline> {
        self.users.get(user).map(UserState::timeline)
    }

    /// Verified comments on a post (commenter, body).
    pub fn comments(&self, author: &str, seq: u64) -> Vec<(String, String)> {
        self.users
            .get(author)
            .map_or_else(Vec::new, |u| u.comments(seq))
    }

    /// Aggregates `user`'s feed: the latest `k` posts of every friend,
    /// planned as **one** engine batch so the fill path gets the finish
    /// phase's combined Schnorr check. The friend set is
    /// [`Engine::friends`] (the reader's own roster); per-friend sequence
    /// ranges come from the friends' timeline lengths. Posts the reader
    /// cannot read (revoked epochs, unplaceable replicas) are skipped, not
    /// errors — a feed is best-effort by design. With the feed cache
    /// enabled, posts held by slices whose witness is still on the author's
    /// chain are served without a quorum read; after a friend posts, only
    /// the new post is fetched.
    ///
    /// Returns items grouped by friend (friends in sorted-name order),
    /// oldest-first within each friend. A user with zero friends gets an
    /// empty feed, not an error.
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownUser`] when `user` is not registered.
    pub fn read_feed(&mut self, user: &str, k: usize) -> Result<Vec<FeedItem>, DosnError> {
        let friends = known_user(&self.users, user)?.friends();
        let obs = &self.ctx.obs;
        obs.counter(names::FEED_READS).add(1);
        obs.histogram(names::FEED_FANIN)
            .record(friends.len() as u64);
        if friends.is_empty() || k == 0 {
            return Ok(Vec::new());
        }
        let mut batch = OpBatch::new();
        let mut plan: Vec<(UserId, u64)> = Vec::new();
        for friend in friends {
            let len = self
                .users
                .get(friend.as_str())
                .map_or(0, |u| u.timeline().entries().len() as u64);
            for seq in len.saturating_sub(k as u64)..len {
                batch = batch.read_post(user, &friend, seq);
                plan.push((UserId(friend.clone()), seq));
            }
        }
        if plan.is_empty() {
            return Ok(Vec::new());
        }
        let report = self.execute(batch);
        let mut items = Vec::with_capacity(plan.len());
        for ((author, seq), result) in plan.into_iter().zip(report.results) {
            if let Ok(OpOutput::Read { body }) = result {
                items.push(FeedItem { author, seq, body });
            }
        }
        Ok(items)
    }

    /// Applies a fault plan's crash schedule to the storage plane.
    pub fn apply_crashes(&mut self, plan: &FaultPlan, now_ms: u64) -> usize {
        apply_crash_schedule(self.storage.plane_mut(), plan, now_ms)
    }

    /// Refreshes derived gauges (overlay traffic totals, big-integer
    /// exponentiation tallies) and snapshots every instrument. Call it
    /// right before exporting: the gauges are not live counters.
    pub fn publish_obs(&self) -> Snapshot {
        let obs = &self.ctx.obs;
        self.ctx.group.register_obs(obs);
        obs.set_gauge(names::OVERLAY_MESSAGES, self.metrics.messages as f64);
        obs.set_gauge(names::OVERLAY_BYTES, self.metrics.bytes as f64);
        obs.histogram(names::OVERLAY_MSG_LATENCY)
            .replace(self.metrics.latency.clone());
        obs.snapshot()
    }

    /// Registers a user with the default symmetric friends-group scheme —
    /// like the four calls below, a batch of one through [`Engine::execute`].
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownUser`] if the name is already taken (reported
    /// against the name).
    pub fn register(&mut self, name: &str) -> Result<(), DosnError> {
        let report = self.execute(OpBatch::new().register(name));
        one("register", report, OpOutput::Registered)
    }

    /// Makes two users friends: mutual friends-group membership (each can
    /// now read the other's friends-only posts). A side that already lists
    /// the other is left as it is; on `Err` neither roster has changed.
    /// `trust` must lie in `[0, 1]` and is not stored.
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownUser`] for unregistered names.
    pub fn befriend(&mut self, a: &str, b: &str, trust: f64) -> Result<(), DosnError> {
        let report = self.execute(OpBatch::new().befriend(a, b, trust));
        one("befriend", report, OpOutput::Befriended)
    }

    /// Publishes a friends-only post: encrypt (the author's access scheme)
    /// → sign + chain + mint relation keys (the author's timeline) → R-way
    /// store (storage). Returns the author-local sequence number.
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownUser`], the scheme's sealing failures, and
    /// [`DosnError::ContentUnavailable`] for storage failures.
    pub fn post(&mut self, author: &str, body: &str) -> Result<u64, DosnError> {
        match output(self.execute(OpBatch::new().post(author, body)))? {
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
        let report = self.execute(OpBatch::new().comment(commenter, author, seq, body));
        one("comment", report, OpOutput::Commented)
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
        match output(self.execute(OpBatch::new().read_post(reader, author, seq)))? {
            OpOutput::Read { body } => Ok(body),
            other => Err(unexpected_output("read_post", &other)),
        }
    }

    /// Registers a user whose posts are protected by an arbitrary §III
    /// [`AccessScheme`] — the seam for callers that supply their own
    /// scheme; consumes one op index so its randomness is identical whether
    /// or not batches ran in between. The scheme must be able to create a
    /// group containing the user and to seal bodies for storage (symmetric
    /// and per-recipient schemes can; ABE/IBBE report a typed error at post
    /// time).
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownUser`] for a taken name, plus scheme-specific
    /// group-creation failures.
    pub fn register_with_scheme(
        &mut self,
        name: &str,
        scheme: Box<dyn AccessScheme>,
    ) -> Result<(), DosnError> {
        if self.users.contains_key(name) {
            return Err(DosnError::UnknownUser(format!("{name} already registered")));
        }
        let _timer = self.ctx.obs.timer(names::NET_REGISTER);
        let mut rng = op_rng(&self.ctx.op_prk, self.next_op_index);
        self.next_op_index += 1;
        prepare::register_user(
            &mut self.users,
            &self.ctx.group,
            &self.ctx.directory,
            name,
            scheme,
            &mut rng,
        )
    }

    /// Revokes a friendship (it re-keys two users' groups);
    /// returns the membership-change cost. Each side whose roster lists the
    /// other is revoked in turn: on `Err` the side that refused still lists
    /// the other, and a retry revokes only what is left.
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownUser`] for unregistered names or when neither
    /// roster lists the other, plus scheme-specific revocation failures.
    pub fn unfriend(&mut self, a: &str, b: &str) -> Result<u64, DosnError> {
        let lists =
            |owner: &str, friend: &str| known_user(&self.users, owner).map(|u| u.lists(friend));
        if a == b || !(lists(a, b)? | lists(b, a)?) {
            return Err(DosnError::UnknownUser(format!(
                "{a} and {b} are not friends"
            )));
        }
        let mut rekeyed = 0;
        for (owner, friend) in [(a, b), (b, a)] {
            let state = user_mut(&mut self.users, owner)?;
            if state.lists(friend) {
                let cost = state.scheme.revoke_member(&state.friends_group, friend)?;
                rekeyed += cost.rekeyed_members;
            }
        }
        Ok(rekeyed)
    }
}

/// Unwraps the only result of a batch of one. The engine guarantees one
/// result per op, so the empty case is a typed defect report, never a panic.
fn output(mut report: BatchReport) -> Result<OpOutput, DosnError> {
    report.results.pop().unwrap_or_else(|| {
        Err(DosnError::IntegrityViolation(
            "engine returned an empty report for a batch of one".into(),
        ))
    })
}

/// [`output`] for the calls that return nothing: the engine must answer a
/// `call` op with exactly `want`.
fn one(call: &str, report: BatchReport, want: OpOutput) -> Result<(), DosnError> {
    match output(report)? {
        output if output == want => Ok(()),
        other => Err(unexpected_output(call, &other)),
    }
}

fn unexpected_output(call: &str, output: &OpOutput) -> DosnError {
    DosnError::IntegrityViolation(format!("engine returned {output:?} for a {call} op"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosn_crypto::sha256::Sha256;
    use dosn_overlay::chord::ChordPlane;

    fn engine(seed: u64) -> Engine<ChordPlane> {
        Engine::new(ReplicatedStore::new(ChordPlane::build(24, seed), 3), seed)
    }

    fn seeded_batch() -> OpBatch {
        OpBatch::new()
            .register("alice")
            .register("bob")
            .register("carol")
            .befriend("alice", "bob", 0.9)
            .post("alice", "friends only")
            .comment("bob", "alice", 0, "first!")
            .read_post("bob", "alice", 0)
    }

    #[test]
    fn batch_runs_all_op_kinds() {
        let mut e = engine(7);
        let report = e.execute(seeded_batch());
        assert_eq!(report.results.len(), 7);
        assert!(matches!(report.results[4], Ok(OpOutput::Posted { seq: 0 })));
        assert!(matches!(report.results[5], Ok(OpOutput::Commented)));
        match &report.results[6] {
            Ok(OpOutput::Read { body }) => assert_eq!(body, "friends only"),
            other => panic!("read failed: {other:?}"),
        }
        assert_eq!(e.comments("alice", 0).len(), 1);
        assert_eq!(e.timeline("alice").unwrap().entries().len(), 1);
        // Each phase is timed exactly once per batch.
        let snap = e.obs().snapshot();
        for phase in [
            names::ENGINE_PLAN,
            names::ENGINE_PREPARE,
            names::ENGINE_COMMIT,
            names::ENGINE_FINISH,
        ] {
            assert_eq!(snap.histograms[phase].count(), 1, "{phase}");
        }
    }

    #[test]
    fn batch_of_ones_matches_one_batch() {
        let mut whole = engine(5);
        let whole_report = whole.execute(seeded_batch());

        let mut split = engine(5);
        let mut split_digests = Sha256::new();
        for op in seeded_batch().into_ops() {
            let r = split.execute(OpBatch::from_ops(vec![op]));
            split_digests.update(&r.digest);
        }
        // Same final state: same timelines, same readable content.
        assert_eq!(
            whole.timeline("alice").unwrap().entries().len(),
            split.timeline("alice").unwrap().entries().len()
        );
        let whole_read = whole.execute(OpBatch::new().read_post("bob", "alice", 0));
        let split_read = split.execute(OpBatch::new().read_post("bob", "alice", 0));
        assert_eq!(whole_read.digest, split_read.digest);
        assert!(matches!(whole_report.results[6], Ok(OpOutput::Read { .. })));
    }

    #[test]
    fn staged_semantics_let_one_batch_bootstrap_itself() {
        // Reads and comments reference posts committed by the same batch,
        // and ops arrive deliberately interleaved.
        let mut e = engine(11);
        let report = e.execute(
            OpBatch::new()
                .read_post("bob", "alice", 0) // runs last (finish stage)
                .comment("bob", "alice", 0, "hi") // runs after the post
                .post("alice", "bootstrap") // runs after registers+links
                .befriend("alice", "bob", 1.0)
                .register("bob")
                .register("alice"),
        );
        for (i, r) in report.results.iter().enumerate() {
            assert!(r.is_ok(), "op {i} failed: {r:?}");
        }
    }

    #[test]
    fn per_op_errors_do_not_poison_the_batch() {
        let mut e = engine(13);
        let report = e.execute(
            OpBatch::new()
                .register("alice")
                .register("alice") // duplicate
                .post("ghost", "no such author")
                .post("alice", "fine")
                .read_post("alice", "alice", 0),
        );
        assert!(report.results[0].is_ok());
        assert!(matches!(report.results[1], Err(DosnError::UnknownUser(_))));
        assert!(matches!(report.results[2], Err(DosnError::UnknownUser(_))));
        assert!(matches!(report.results[3], Ok(OpOutput::Posted { seq: 0 })));
        assert!(matches!(report.results[4], Ok(OpOutput::Read { .. })));
    }

    #[test]
    fn a_forked_or_rolled_back_chain_drops_the_slice_and_reads_go_to_quorum() {
        use crate::integrity::Timeline;
        for diverge in [false, true] {
            let mut e = engine(31);
            e.enable_feed_cache(64);
            let mut setup = OpBatch::new()
                .register("alice")
                .register("bob")
                .befriend("alice", "bob", 0.9);
            for body in ["zero", "one", "two"] {
                setup = setup.post("alice", body);
            }
            e.execute(setup);
            let reads = || {
                OpBatch::new()
                    .read_post("bob", "alice", 0)
                    .read_post("bob", "alice", 1)
            };
            e.execute(reads());
            let warm = e.execute(reads());
            let filled = e.feed_cache().unwrap().stats();
            assert_eq!((filled.hits, filled.invalidations), (2, 0));

            // Alice's record comes back with another history: rolled back
            // to two entries, or with a different third post on top of them.
            let mut rng = SecureRng::seed_from_u64(5);
            let alice = user_mut(&mut e.users, "alice").unwrap();
            alice.rewrite_timeline(|alice, chain| {
                let prefix = chain.entries()[..2].to_vec();
                let mut fork = Timeline::from_entries(alice.id().clone(), prefix);
                if diverge {
                    fork.append(alice, b"another two", vec![], &mut rng);
                }
                fork
            });
            let quorum_reads = |e: &Engine<ChordPlane>| {
                e.obs().snapshot().histograms[names::STORE_GET_QUORUM].count()
            };
            let before = quorum_reads(&e);
            let after = e.execute(reads());
            // Bob's witness (the old entry 2) is on neither chain: his slice
            // goes before anything is served, and both reads are re-proven.
            let stats = e.feed_cache().unwrap().stats();
            assert_eq!(stats.invalidations, 1, "diverge {diverge}");
            assert_eq!(stats.hits, filled.hits, "diverge {diverge}");
            assert_eq!(quorum_reads(&e), before + 2, "diverge {diverge}");
            assert_eq!(after.digest, warm.digest, "diverge {diverge}");
        }
    }

    #[test]
    fn a_post_naming_another_slot_is_an_integrity_violation() {
        // Alice's own signed record at slot `seq` whose post names another
        // author or sequence number: the envelope verifies and the body
        // decrypts, and the slot check refuses it.
        use crate::content::Post;
        let mut e = engine(7);
        e.execute(
            OpBatch::new()
                .register("alice")
                .register("bob")
                .befriend("alice", "bob", 0.9)
                .post("alice", "zero"),
        );
        let mut rng = SecureRng::seed_from_u64(9);
        for (seq, named, named_seq) in [(1, "alice", 0), (2, "bob", 2)] {
            let group = e.ctx.group.clone();
            let alice = user_mut(&mut e.users, "alice").unwrap();
            let post = Post::new(named, named_seq, named_seq, "misplaced");
            let (ciphertext, epoch) = alice.seal(&post.to_bytes().unwrap()).unwrap();
            let mut wire = Vec::new();
            alice.rewrite_timeline(|alice, chain| {
                let mut chain = chain.clone();
                let entry = chain.append(alice, &ciphertext, vec![], &mut rng);
                wire = entry.encode_wire(epoch, &group);
                chain
            });
            e.storage
                .put(wall_key("alice", seq), wire, &mut Metrics::new())
                .unwrap();
            let read = e.read_post("bob", "alice", seq);
            assert!(
                matches!(&read, Err(DosnError::IntegrityViolation(why)) if why.contains("holds post")),
                "slot {seq}: {read:?}"
            );
        }
        assert_eq!(e.read_post("bob", "alice", 0), Ok("zero".into()));
    }

    #[test]
    fn wall_key_format_is_pinned() {
        // Readers, placement pinning and the benchmark harness all derive
        // this address independently: the format is a public contract.
        assert_eq!(wall_key("alice", 3), Key::hash(b"wall/alice/3"));
        assert_ne!(wall_key("alice", 3), wall_key("alice", 4));
        assert_ne!(wall_key("alice", 3), wall_key("bob", 3));
    }

    #[test]
    fn storage_errors_become_content_unavailable() {
        let e = storage_to_dosn(StorageError::NoNodes);
        assert!(matches!(e, DosnError::ContentUnavailable(_)));
    }

    #[test]
    fn op_rng_derivation_is_pinned() {
        // Compatibility vector: the per-op RNG stream is a public contract
        // (results must be reproducible across releases for a fixed seed).
        let prk = op_prk(&sha256(&42u64.to_be_bytes()));
        let mut rng = op_rng(&prk, 0);
        let mut first = [0u8; 8];
        rand::RngCore::fill_bytes(&mut rng, &mut first);
        let mut rng7 = op_rng(&prk, 7);
        let mut first7 = [0u8; 8];
        rand::RngCore::fill_bytes(&mut rng7, &mut first7);
        assert_ne!(first, first7, "distinct ops draw distinct streams");
        // Pinned bytes, computed once from the v1 derivation (HKDF label
        // dosn.engine.op.rng.v1) and asserted forever: the per-op RNG
        // stream is a public contract, so a change here is a compatibility
        // break and needs an explicit note (see CHANGES.md).
        let hex: String = first.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "c22021ed51f7f4b9", "op-rng derivation changed");
    }

    #[test]
    fn global_op_index_advances_across_batches() {
        // Two posts in two batches must not reuse the first batch's
        // randomness: their ciphertext records must differ even though the
        // plaintext is identical.
        let mut e = engine(21);
        e.execute(OpBatch::new().register("alice"));
        let r1 = e.execute(OpBatch::new().post("alice", "same words"));
        let r2 = e.execute(OpBatch::new().post("alice", "same words"));
        assert!(matches!(r1.results[0], Ok(OpOutput::Posted { seq: 0 })));
        assert!(matches!(r2.results[0], Ok(OpOutput::Posted { seq: 1 })));
        assert_ne!(r1.digest, r2.digest);
    }

    // ---- the single-op calls, end to end ----
    #[test]
    fn an_empty_report_is_a_typed_defect_not_a_panic() {
        // No batch of one comes back empty; if one did, say so, don't index.
        let empty = || engine(1).execute(OpBatch::new());
        let defect = |r: Result<(), _>| matches!(r, Err(DosnError::IntegrityViolation(_)));
        assert!(defect(output(empty()).map(drop)));
        assert!(defect(one("register", empty(), OpOutput::Registered)));
    }

    fn chord16(seed: u64) -> Engine<ChordPlane> {
        Engine::new(ReplicatedStore::new(ChordPlane::build(16, seed), 3), seed)
    }

    fn net() -> Engine<ChordPlane> {
        let mut n = chord16(3);
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
        let key = wall_key("alice", seq);
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
        let key = wall_key("alice", seq);
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
        // The read's R = 3 agreeing copies are one candidate, proven in the
        // finish phase's combined Schnorr check: one histogram sample per
        // check, and this batch held one read.
        assert_eq!(snap.histograms["crypto.schnorr.verify"].count(), 1);
        // Storage-layer timings rode along on the shared registry.
        assert!(snap.histograms["store.put"].count() >= 1);
        assert!(snap.histograms["store.get.quorum"].count() >= 1);
        // Every single-op call was a batch of one through the engine phases.
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
    fn a_pke_scheme_composes_with_the_engine() {
        let mut n = chord16(9);
        let mut seed_rng = SecureRng::seed_from_u64(77);
        let pke = crate::privacy::PkeGroupScheme::with_fresh_identities(
            &["alice", "bob", "carol"],
            &mut seed_rng,
        );
        n.register_with_scheme("alice", Box::new(pke)).unwrap();
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
        let users = n.user_count();
        // A PKE scheme that holds no key pair for "zed" refuses to create
        // zed's friends group — before any key binding is published.
        let pke = crate::privacy::PkeGroupScheme::new(dosn_crypto::group::SchnorrGroup::toy(), 1);
        assert!(matches!(
            n.register_with_scheme("zed", Box::new(pke)),
            Err(DosnError::UnknownUser(_))
        ));
        assert!(n.directory().lookup("zed").is_err(), "stray key binding");
        assert_eq!(n.user_count(), users);
        n.register("zed").unwrap();
        assert!(n.directory().lookup("zed").is_ok());
    }

    #[test]
    fn single_op_and_batch_paths_agree() {
        // The same workload through single calls and through one batch
        // must produce the same readable state.
        let mut a = chord16(44);
        a.register("alice").unwrap();
        a.register("bob").unwrap();
        a.befriend("alice", "bob", 1.0).unwrap();
        let seq = a.post("alice", "one way").unwrap();
        let single_body = a.read_post("bob", "alice", seq).unwrap();

        let mut b = chord16(44);
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
