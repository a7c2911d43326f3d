//! The batched request engine: prepare / commit / finish execution of
//! [`OpBatch`]es over sharded per-user state.
//!
//! The facade's one-op-at-a-time `&mut self` API serializes everything,
//! even though the dominant per-op cost — modular exponentiation for
//! Schnorr sign/verify and the privacy planes' key wrapping — is
//! independent per author. The engine restores that parallelism without
//! giving up determinism:
//!
//! ```text
//!            OpBatch (Register | Befriend | Post | Comment | ReadPost)
//!                │
//!    plan        │  sequential: route each op to its author's shard;
//!                ▼  every op's RNG is HKDF(seed, global op_index)
//!  ┌─────────────────────────────────────────────────────────┐
//!  │ prepare    parallel over shards (one `fan_out`,         │
//!  │            round-robin shard→worker binning):           │
//!  │            register keygen · post/comment encrypt+sign  │
//!  │            (befriend links run in the sequential seam — │
//!  │            they touch two users' shards at once)        │
//!  └─────────────────────────────────────────────────────────┘
//!                │ sealed records, in op order
//!                ▼ (then the feed cache answers the reads it can)
//!    commit      sequential: one `ReplicatedStore::put_each` over the
//!                records — storage is `&mut`, and every post has a
//!                fresh wall key, so there is nothing to reorder; a
//!                record that cannot be placed fails alone
//!                │
//!                ▼
//!  ┌─────────────────────────────────────────────────────────┐
//!  │ finish     fetch copies sequentially (storage is &mut), │
//!  │            then parallel quorum votes + envelope        │
//!  │            verification + decryption, each worker       │
//!  │            borrowing its authors' home shards read-only │
//!  └─────────────────────────────────────────────────────────┘
//!                │
//!                ▼  sequential: read-repairs, fallbacks, results,
//!                   then the feed-cache fills
//! ```
//!
//! Each phase is one file beside this one — `plan`, `prepare`, `finish` —
//! with `pipeline` holding [`Engine::execute`], which runs a batch through
//! them (the commit is a dozen lines inside it), and the single worker
//! fan-out both parallel phases share. All of them work on one record per
//! user (`user`), kept in exactly one shard map. Batches run one after the
//! other: [`Engine::execute_all`] is `execute` in a loop.
//!
//! # Determinism contract
//!
//! Every op draws its randomness from `HKDF(engine seed, global op index)`
//! — never from a shared stream — and each user's ops execute in batch
//! order inside the one shard that owns that user. Everything that touches
//! shared state (graph edges, storage writes, read-repairs, feed fills)
//! happens on the calling thread in op order; worker outputs are re-sorted
//! by op index before anything reads them. Outputs (ciphertexts,
//! signatures, sequence numbers, storage records, [`BatchReport::digest`])
//! are therefore **byte-identical for any worker count**, and a batch of
//! one behaves exactly like the single-op facade calls. The global op
//! index persists across batches, so splitting a workload into many
//! batches does not reuse nonces or change results.
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
pub(crate) mod privacy_plane;
mod user;

pub use batch::{BatchReport, Op, OpBatch, OpOutput};

use crate::error::DosnError;
use crate::feed::{FeedCache, FeedItem};
use crate::graph::SocialGraph;
use crate::identity::UserId;
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::{GroupSize, SchnorrGroup};
use dosn_crypto::hmac::hkdf;
use dosn_crypto::keys::KeyDirectory;
use dosn_crypto::sha256::sha256;
use dosn_obs::{names, Registry, Snapshot};
use dosn_overlay::fault::FaultPlan;
use dosn_overlay::id::Key;
use dosn_overlay::metrics::Metrics;
use dosn_overlay::replication::{apply_crash_schedule, ReplicatedStore};
use dosn_overlay::storage::{StorageError, StoragePlane};
use privacy_plane::PrivacyPlane;
use std::collections::BTreeMap;
use std::time::Instant;
use user::UserState;

/// Fixed shard count. Constant (and larger than any sensible worker
/// count) so that the user→shard routing — and therefore every
/// scheme-internal RNG sequence — is independent of how many workers the
/// engine happens to run with. Public because workload shapers spread
/// authors over the shards.
pub const NUM_SHARDS: usize = 32;

/// One slice of per-user state: the records of the users routed here. A
/// worker thread owns whole shards during the parallel phases, so no
/// per-user state is ever shared between threads.
type Shard = BTreeMap<UserId, UserState>;

/// Stable user→shard routing: first eight big-endian bytes of
/// `SHA-256(name)` mod [`NUM_SHARDS`]. Must never depend on registration
/// order or worker count. Public because workload shapers use it to spread
/// authors evenly.
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

/// Derives the RNG for global op `index`: `HKDF-SHA256` with the engine
/// seed as input keying material and the op index as info. Op N's
/// randomness is independent of what ops 1..N-1 did — the fix for the
/// facade-wide shared-stream coupling, and the reason results don't
/// depend on scheduling.
fn op_rng(seed: &[u8; 32], index: u64) -> SecureRng {
    let okm = hkdf(b"dosn.engine.op.rng.v1", seed, &index.to_be_bytes(), 32);
    let mut key = [0u8; 32];
    key.copy_from_slice(&okm);
    SecureRng::from_seed(key)
}

fn elapsed_micros(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// `name`'s record, looked up in its home shard.
fn user_in<'a>(shards: &'a [Shard], name: &str) -> Option<&'a UserState> {
    shards[shard_of(name)].get(name)
}

/// [`user_in`], or [`DosnError::UnknownUser`].
fn known_user<'a>(shards: &'a [Shard], name: &str) -> Result<&'a UserState, DosnError> {
    user_in(shards, name).ok_or_else(|| DosnError::UnknownUser(name.to_owned()))
}

/// `name`'s record in `shard` (its home shard), mutably, or
/// [`DosnError::UnknownUser`].
fn user_mut<'a>(shard: &'a mut Shard, name: &str) -> Result<&'a mut UserState, DosnError> {
    shard
        .get_mut(name)
        .ok_or_else(|| DosnError::UnknownUser(name.to_owned()))
}

/// What every phase and worker thread reads but none mutates: the
/// thread-safe crypto and observability handles (their `Send + Sync` bounds
/// are compile-tested in `dosn-crypto`'s thread-safety suite) plus the
/// engine's knobs. Workers share it by reference.
struct WorkerCtx {
    group: SchnorrGroup,
    directory: KeyDirectory,
    obs: Registry,
    seed: [u8; 32],
    workers: usize,
    batch_verify: bool,
}

/// The batched parallel request engine (see module docs). Owns everything
/// the old monolithic facade owned — the crypto group, key directory,
/// replicated storage, social graph, metrics — with per-user state split
/// into [`NUM_SHARDS`] shards that worker threads borrow during the
/// parallel phases.
pub struct Engine<S: StoragePlane> {
    ctx: WorkerCtx,
    storage: ReplicatedStore<S>,
    shards: Vec<Shard>,
    graph: SocialGraph,
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
            "Engine({} users, {} shards, {} workers over {} x{})",
            self.user_count(),
            NUM_SHARDS,
            self.ctx.workers,
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
        Engine {
            ctx: WorkerCtx {
                group,
                directory: KeyDirectory::new(),
                obs,
                seed: sha256(&seed.to_be_bytes()),
                workers: 1,
                batch_verify: true,
            },
            storage,
            shards: (0..NUM_SHARDS).map(|_| Shard::new()).collect(),
            graph: SocialGraph::new(),
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

    /// Drops the feed cache and disables L1 caching.
    pub fn disable_feed_cache(&mut self) {
        self.feed = None;
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
            .enable_hot_cache(capacity, u64::from_be_bytes(eight));
    }

    /// Toggles batched Schnorr verification in the finish phase's quorum
    /// reads. On (the default), a read's distinct values are verified in
    /// one combined random-linear-combination check; off verifies them one
    /// by one. The vote hands the verifier each distinct value once, so on
    /// a read whose copies agree the two are the same single equation and
    /// the toggle decides nothing; it matters only while replicas disagree.
    /// Results and [`BatchReport::digest`] are byte-identical either way —
    /// the toggle exists so the equivalence suites can prove that.
    pub fn set_batch_verify(&mut self, on: bool) {
        self.ctx.batch_verify = on;
    }

    /// Whether finish-phase quorum reads use batched verification.
    pub fn batch_verify(&self) -> bool {
        self.ctx.batch_verify
    }

    /// Sets the worker-thread count for the parallel phases (clamped to
    /// `1..=NUM_SHARDS`). Worker count never changes results — only
    /// wall-clock time. With one worker the engine runs inline, without
    /// spawning threads, so single-op facade calls pay no thread overhead.
    pub fn set_workers(&mut self, workers: usize) {
        self.ctx.workers = workers.clamp(1, NUM_SHARDS);
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.ctx.workers
    }

    /// Registered user count, across shards.
    pub fn user_count(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    /// The social graph.
    pub fn graph(&self) -> &SocialGraph {
        &self.graph
    }

    /// The key directory.
    pub fn directory(&self) -> &KeyDirectory {
        &self.ctx.directory
    }

    /// Accumulated overlay + plane metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The shared observability registry.
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
        user_in(&self.shards, user).map(UserState::timeline)
    }

    /// Verified comments on a post (commenter, body).
    pub fn comments(&self, author: &str, seq: u64) -> Vec<(String, String)> {
        user_in(&self.shards, author).map_or_else(Vec::new, |u| u.comments(seq))
    }

    /// Aggregates `user`'s feed: the latest `k` posts of every friend,
    /// planned as **one** engine batch so the fill path gets the parallel
    /// finish phase and batched Schnorr verification. The friend set comes
    /// from the social graph; per-friend sequence ranges come from the
    /// friends' timeline lengths. Posts the reader cannot read
    /// (revoked epochs, unplaceable replicas) are skipped, not errors —
    /// a feed is best-effort by design. With the feed cache enabled,
    /// posts held by slices whose witness is still on the author's chain
    /// are served without a quorum read; after a friend posts, only the
    /// new post is fetched.
    ///
    /// Returns items grouped by friend (friends in sorted-name order),
    /// oldest-first within each friend. A user with zero friends gets an
    /// empty feed, not an error.
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownUser`] when `user` is not registered.
    pub fn read_feed(&mut self, user: &str, k: usize) -> Result<Vec<FeedItem>, DosnError> {
        known_user(&self.shards, user)?;
        let obs = &self.ctx.obs;
        obs.counter(names::FEED_READS).add(1);
        let friends = self.graph.friends(&UserId::from(user));
        obs.histogram(names::FEED_FANIN)
            .record(friends.len() as u64);
        if friends.is_empty() || k == 0 {
            return Ok(Vec::new());
        }
        let mut batch = OpBatch::new();
        let mut plan: Vec<(UserId, u64)> = Vec::new();
        for friend in &friends {
            let len = user_in(&self.shards, friend.as_str())
                .map_or(0, |u| u.timeline().entries().len() as u64);
            for seq in len.saturating_sub(k as u64)..len {
                batch = batch.read_post(user, &friend.0, seq);
                plan.push((friend.clone(), seq));
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

    /// Refreshes derived gauges and snapshots every instrument (see
    /// `DosnNetwork::publish_obs`).
    pub fn publish_obs(&self) -> Snapshot {
        let obs = &self.ctx.obs;
        self.ctx.group.register_obs(obs);
        obs.set_gauge(names::OVERLAY_MESSAGES, self.metrics.messages as f64);
        obs.set_gauge(names::OVERLAY_BYTES, self.metrics.bytes as f64);
        obs.histogram(names::OVERLAY_MSG_LATENCY)
            .replace(self.metrics.latency.clone());
        obs.snapshot()
    }

    /// Registers a user behind an arbitrary privacy plane — the sequential
    /// seam for callers that supply their own scheme; consumes one op
    /// index so its randomness is identical whether or not batches ran
    /// in between.
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownUser`] for a taken name, plus scheme-specific
    /// group-creation failures.
    pub fn register_with_plane(
        &mut self,
        name: &str,
        privacy: PrivacyPlane,
    ) -> Result<(), DosnError> {
        if user_in(&self.shards, name).is_some() {
            return Err(DosnError::UnknownUser(format!("{name} already registered")));
        }
        let _timer = self.ctx.obs.timer(names::NET_REGISTER);
        let mut rng = op_rng(&self.ctx.seed, self.next_op_index);
        self.next_op_index += 1;
        prepare::register_user(
            &mut self.shards[shard_of(name)],
            &self.ctx.group,
            &self.ctx.directory,
            name,
            privacy,
            &mut rng,
        )?;
        self.graph.add_user(&UserId::from(name));
        Ok(())
    }

    /// Revokes a friendship (sequential: it re-keys two users' groups).
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownUser`] for unregistered names or a missing edge.
    pub fn unfriend(&mut self, a: &str, b: &str) -> Result<u64, DosnError> {
        if !self.graph.unfriend(&UserId::from(a), &UserId::from(b)) {
            return Err(DosnError::UnknownUser(format!(
                "{a} and {b} are not friends"
            )));
        }
        let mut rekeyed = 0;
        for (owner, friend) in [(a, b), (b, a)] {
            let state = user_mut(&mut self.shards[shard_of(owner)], owner)?;
            let cost = state.privacy.revoke_member(&state.friends_group, friend)?;
            rekeyed += cost.rekeyed_members;
        }
        Ok(rekeyed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosn_crypto::sha256::Sha256;
    use dosn_overlay::storage::ChordPlane;

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
    fn digest_identical_across_worker_counts() {
        let mut digests = Vec::new();
        for workers in [1usize, 2, 8] {
            let mut e = engine(99);
            e.set_workers(workers);
            let report = e.execute(seeded_batch());
            digests.push(report.digest_hex());
        }
        assert_eq!(digests[0], digests[1], "1 vs 2 workers");
        assert_eq!(digests[0], digests[2], "1 vs 8 workers");
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
            let alice = user_mut(&mut e.shards[shard_of("alice")], "alice").unwrap();
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
        let seed = sha256(&42u64.to_be_bytes());
        let mut rng = op_rng(&seed, 0);
        let mut first = [0u8; 8];
        rand::RngCore::fill_bytes(&mut rng, &mut first);
        let mut rng7 = op_rng(&seed, 7);
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
}
