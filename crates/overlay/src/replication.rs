//! R-way replication with quorum reads and read-repair over any
//! [`StoragePlane`].
//!
//! The survey's availability argument (§II-B, §IV) is that a DOSN only
//! matches a centralized OSN's durability if user data is replicated across
//! peers that fail independently — PeerSoN, Safebook, and Cachet all layer
//! replica placement over their DHTs. [`ReplicatedStore`] implements that
//! layer once, over the [`StoragePlane`] abstraction, so the same
//! replication/repair logic runs over Chord successor chains, Kademlia
//! XOR-closest sets, super-peer hosts, and federation pod mirrors:
//!
//! * **Put** writes the value to the first `R` online candidates
//!   ([`StoragePlane::replica_candidates`]) and charges per-node storage to
//!   a [`StorageAccounting`] ledger (counter `store.replicas_written`).
//! * **Get** reads *all* `R` current candidates — not stopping at the first
//!   hit — and accepts the majority value among copies that pass the
//!   caller's verifier, requiring at least `K` copies that *agree on that
//!   value* (default `R/2 + 1`; counter `get.quorum_size`).
//! * **Read-repair**: candidates that returned nothing, a non-verifying
//!   copy, or a stale value are rewritten with the winner (counter
//!   `get.repairs`). This is what heals the replica set after churn:
//!   when a holder crashes, placement shifts to a substitute node that
//!   lacks the value, and the next read re-establishes `R` live copies.

use crate::fault::FaultPlan;
use crate::id::{Key, NodeId};
use crate::metrics::{Metrics, StorageAccounting};
use crate::storage::{StorageError, StoragePlane};
use dosn_obs::{names, Registry};

/// Applies the crash schedule of a [`FaultPlan`] to a storage plane as of
/// simulated time `now_ms`: a node inside any of its crash windows
/// ([`FaultPlan::is_crashed`]) goes offline, and one the plan names outside
/// all of them comes back. Crash events naming nodes the plane does not
/// have are ignored. Returns how many named nodes are down afterwards.
///
/// This is how a run's clock reaches the storage plane: availability
/// experiments and the engine build one [`FaultPlan`] and apply it at each
/// simulated time they read at.
pub fn apply_crash_schedule<P: StoragePlane + ?Sized>(
    plane: &mut P,
    plan: &FaultPlan,
    now_ms: u64,
) -> usize {
    let known = plane.node_ids();
    let mut named = Vec::new();
    for crash in &plan.crashes {
        if known.contains(&crash.node) && !named.contains(&crash.node) {
            named.push(crash.node);
        }
    }
    let mut down = 0;
    for node in named {
        let crashed = plan.is_crashed(node, now_ms);
        plane.set_online(node, !crashed);
        down += usize::from(crashed);
    }
    down
}

/// R-way replicated, quorum-read storage over a [`StoragePlane`].
///
/// ```
/// use dosn_overlay::id::Key;
/// use dosn_overlay::metrics::Metrics;
/// use dosn_overlay::replication::ReplicatedStore;
/// use dosn_overlay::chord::ChordPlane;
/// use dosn_overlay::storage::StoragePlane;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut store = ReplicatedStore::new(ChordPlane::build(64, 1), 3);
/// let mut m = Metrics::new();
/// let key = Key::hash(b"wall/alice/0");
/// let holders = store.put(key, b"post".to_vec(), &mut m)?;
/// assert_eq!(holders.len(), 3);
///
/// // One replica crashes; a quorum of the survivors still answers, and the
/// // read repairs the substitute candidate that took the crashed node's
/// // place in the preference list.
/// store.plane_mut().set_online(holders[0], false);
/// let got = store.get(key, &mut m)?;
/// assert_eq!(got, b"post");
/// assert!(m.count("get.repairs") > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ReplicatedStore<P: StoragePlane> {
    plane: P,
    replicas: usize,
    read_quorum: usize,
    accounting: StorageAccounting,
    obs: Registry,
}

impl<P: StoragePlane> ReplicatedStore<P> {
    /// Wraps `plane` with replication factor `replicas` and the default
    /// majority read quorum (`replicas / 2 + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    pub fn new(plane: P, replicas: usize) -> Self {
        assert!(replicas >= 1, "replication factor must be at least 1");
        let read_quorum = replicas / 2 + 1;
        ReplicatedStore {
            plane,
            replicas,
            read_quorum,
            accounting: StorageAccounting::new(),
            obs: Registry::new(),
        }
    }

    /// Overrides the read quorum (clamped into `1..=replicas`).
    pub fn with_quorum(mut self, read_quorum: usize) -> Self {
        self.read_quorum = read_quorum.clamp(1, self.replicas);
        self
    }

    /// Shares an observability registry with the store: `put` latency lands
    /// in the `store.put` histogram, quorum reads in `store.get.quorum`, and
    /// the read-repair pass in `store.get.repair` (all wall-clock µs).
    /// Callers that aggregate across stores pass one [`Registry`] to each.
    pub fn with_obs(mut self, obs: Registry) -> Self {
        self.obs = obs;
        self
    }

    /// The store's observability registry.
    pub fn obs(&self) -> &Registry {
        &self.obs
    }

    /// The replication factor R.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The read quorum K.
    pub fn read_quorum(&self) -> usize {
        self.read_quorum
    }

    /// The underlying plane.
    pub fn plane(&self) -> &P {
        &self.plane
    }

    /// The underlying plane, mutably (churn injection, overlay access).
    pub fn plane_mut(&mut self) -> &mut P {
        &mut self.plane
    }

    /// Consumes the store, returning the plane.
    pub fn into_inner(self) -> P {
        self.plane
    }

    /// The per-node storage ledger.
    pub fn accounting(&self) -> &StorageAccounting {
        &self.accounting
    }

    /// Consults the plane's hot envelope cache for `key`. Returns the
    /// cached sealed bytes on a hit (bumping `cache.hits`), `None` on a
    /// miss (`cache.misses`) or when no cache is enabled (no counter —
    /// an uncached store has no cache events). The caller must verify the
    /// returned envelope exactly as it would a replica's copy: the cache
    /// is an accelerator, never a trust root.
    pub fn cached_fetch(&mut self, key: Key, metrics: &mut Metrics) -> Option<Vec<u8>> {
        let cache = self.plane.hot_cache_mut()?;
        match cache.lookup(key) {
            Some(v) => {
                metrics.bump(names::CACHE_HITS, 1);
                Some(v)
            }
            None => {
                metrics.bump(names::CACHE_MISSES, 1);
                None
            }
        }
    }

    /// Offers a quorum-verified envelope for hot caching under the plane's
    /// admission policy. Runs strictly *off* the read path — a miss still
    /// performs the full quorum read first — so quorum semantics are
    /// unchanged. Capacity victims bump `cache.evictions`.
    pub fn admit_hot(&mut self, key: Key, value: &[u8], metrics: &mut Metrics) {
        if let Some(cache) = self.plane.hot_cache_mut() {
            let out = cache.admit(key, value);
            if out.evicted > 0 {
                metrics.bump(names::CACHE_EVICTIONS, out.evicted);
            }
        }
    }

    /// Drops a cached envelope — called when a cached copy fails
    /// verification, so the poisoned entry cannot be served again (bumps
    /// `cache.invalidations`).
    pub fn invalidate_hot(&mut self, key: Key, metrics: &mut Metrics) {
        if let Some(cache) = self.plane.hot_cache_mut() {
            if cache.remove(key) {
                metrics.bump(names::CACHE_INVALIDATIONS, 1);
            }
        }
    }

    /// Writes `value` to the first R online candidates for `key`, returning
    /// the holders. Partial placement (fewer than R online nodes) succeeds
    /// with a shorter holder list; a node that refuses the write (raced
    /// offline) is skipped.
    ///
    /// # Errors
    ///
    /// [`StorageError::NoNodes`] when no candidate accepted the write.
    pub fn put(
        &mut self,
        key: Key,
        value: Vec<u8>,
        metrics: &mut Metrics,
    ) -> Result<Vec<NodeId>, StorageError> {
        let _put_timer = self.obs.timer(names::STORE_PUT);
        self.put_one_replicated(key, &value, metrics)
    }

    /// Writes a batch of `(key, value)` records in input order with
    /// **per-entry error isolation**: an entry whose placement or writes
    /// fail yields an `Err` slot and the remaining entries still commit.
    /// This is the commit path of the batched request engine — one call
    /// per batch — where a single poisoned op must not abort its siblings. Replica selection runs once per key, and
    /// one `store.put` timing covers the whole call.
    pub fn put_each(
        &mut self,
        items: &[(Key, Vec<u8>)],
        metrics: &mut Metrics,
    ) -> Vec<Result<Vec<NodeId>, StorageError>> {
        let _put_timer = self.obs.timer(names::STORE_PUT);
        let mut placed = Vec::with_capacity(items.len());
        for (key, value) in items {
            placed.push(self.put_one_replicated(*key, value, metrics));
        }
        placed
    }

    /// One R-way placement + write pass: the shared inner step of
    /// [`ReplicatedStore::put`] and [`ReplicatedStore::put_each`] (no
    /// timer — callers own timing).
    fn put_one_replicated(
        &mut self,
        key: Key,
        value: &[u8],
        metrics: &mut Metrics,
    ) -> Result<Vec<NodeId>, StorageError> {
        let candidates = self.plane.replica_candidates(key, self.replicas, metrics)?;
        let mut written = Vec::with_capacity(candidates.len());
        for node in candidates {
            if self.plane.store_at(node, key, value, metrics).is_ok() {
                self.accounting.add(node, value.len() as u64);
                written.push(node);
            }
        }
        if written.is_empty() {
            return Err(StorageError::NoNodes);
        }
        metrics.bump(names::STORE_REPLICAS_WRITTEN, written.len() as u64);
        Ok(written)
    }

    /// Quorum read with every copy trusted: [`ReplicatedStore::get_verified`]
    /// with a verifier that accepts anything.
    ///
    /// # Errors
    ///
    /// See [`ReplicatedStore::get_verified`].
    pub fn get(&mut self, key: Key, metrics: &mut Metrics) -> Result<Vec<u8>, StorageError> {
        self.get_verified(key, metrics, |_| true)
    }

    /// Fetches the raw per-candidate copies of `key` without verifying or
    /// repairing: the fetch half of a quorum read, split out so a batch
    /// engine can collect copies for many keys, prove them together, vote
    /// on each ([`quorum_vote`]), and then apply repairs
    /// ([`ReplicatedStore::repair_copies`]).
    ///
    /// Bumps `get.quorum_size` exactly as [`ReplicatedStore::get_verified`]
    /// does.
    ///
    /// # Errors
    ///
    /// [`StorageError::NoNodes`] when every node is offline.
    pub fn fetch_copies(
        &mut self,
        key: Key,
        metrics: &mut Metrics,
    ) -> Result<FetchedCopies, StorageError> {
        let candidates = self.plane.replica_candidates(key, self.replicas, metrics)?;
        metrics.bump(names::GET_QUORUM_SIZE, candidates.len() as u64);
        let mut copies: Vec<(NodeId, Option<Vec<u8>>)> = Vec::with_capacity(candidates.len());
        for node in &candidates {
            let got = self.plane.fetch_from(*node, key, metrics).unwrap_or(None);
            copies.push((*node, got));
        }
        Ok(FetchedCopies { key, copies })
    }

    /// Read-repair pass over fetched copies: rewrites every candidate whose
    /// copy differs from `winner`, charging storage accounting and bumping
    /// `get.repairs`. Returns the number of repairs written.
    pub fn repair_copies(
        &mut self,
        fetched: &FetchedCopies,
        winner: &[u8],
        metrics: &mut Metrics,
    ) -> u64 {
        let repair_timer = self.obs.timer(names::STORE_GET_REPAIR);
        let mut repairs = 0u64;
        for (node, copy) in &fetched.copies {
            if copy.as_deref() == Some(winner) {
                continue;
            }
            if self
                .plane
                .store_at(*node, fetched.key, winner, metrics)
                .is_ok()
            {
                self.accounting.add(*node, winner.len() as u64);
                repairs += 1;
            }
        }
        if repairs > 0 {
            metrics.bump(names::GET_REPAIRS, repairs);
        }
        repair_timer.observe();
        repairs
    }

    /// Quorum read: fetches `key` from *all* R current candidates, keeps the
    /// copies that pass `verify`, and requires at least K of them to agree
    /// on the winning value. The winner is the most common verifying byte
    /// string (ties broken toward the copy held by the most-preferred
    /// candidate). Candidates missing the winner — crash substitutes, nodes
    /// holding stale or corrupt copies — are repaired in place.
    ///
    /// Reading all R rather than stopping at the first verifying copy is
    /// deliberate: repair opportunities are only visible on the replicas a
    /// short-circuiting read would skip.
    ///
    /// # Errors
    ///
    /// [`StorageError::NotFound`] when no candidate holds a verifying copy;
    /// [`StorageError::QuorumFailed`] when some do but fewer than K.
    pub fn get_verified(
        &mut self,
        key: Key,
        metrics: &mut Metrics,
        verify: impl Fn(&[u8]) -> bool,
    ) -> Result<Vec<u8>, StorageError> {
        self.read_outcome(key, metrics, verify)?.into_result()
    }

    /// [`ReplicatedStore::get_verified`] with the vote's full anatomy
    /// exposed: runs the same fetch → vote → (on success) repair pipeline
    /// but returns the [`QuorumOutcome`] instead of collapsing it, so
    /// callers — the adversarial scenarios, the leakage accountant — can
    /// distinguish "failed closed on tamper" from "nothing was there".
    ///
    /// # Errors
    ///
    /// [`StorageError::NoNodes`] when every node is offline (the vote never
    /// ran); vote-level failures are encoded in the returned outcome, not
    /// as errors.
    pub fn read_outcome(
        &mut self,
        key: Key,
        metrics: &mut Metrics,
        verify: impl Fn(&[u8]) -> bool,
    ) -> Result<QuorumOutcome, StorageError> {
        let quorum_timer = self.obs.timer(names::STORE_GET_QUORUM);
        let fetched = self.fetch_copies(key, metrics)?;
        let outcome = QuorumOutcome::of(&fetched, self.read_quorum, verify);
        quorum_timer.observe();
        if let (true, Some(winner)) = (outcome.served(), outcome.winner.as_ref()) {
            self.repair_copies(&fetched, winner, metrics);
        }
        Ok(outcome)
    }
}

/// The raw per-candidate copies fetched for one key: the intermediate state
/// of a quorum read between the fetch pass and the repair pass. Offline
/// races read as the candidate holding nothing.
#[derive(Debug, Clone)]
pub struct FetchedCopies {
    /// The key the copies were fetched for.
    pub key: Key,
    /// `(candidate, copy-if-any)` in placement preference order.
    pub copies: Vec<(NodeId, Option<Vec<u8>>)>,
}

/// The typed anatomy of one quorum vote: how many copies were missing,
/// failed verification, agreed with the winner, or disagreed with it —
/// everything [`quorum_vote`] collapses into a `Result`. Adversarial
/// scenarios need the distinction the `Result` erases: a read that **fails
/// closed** on tampering ([`QuorumOutcome::fail_closed`] — verifying copies
/// exist but the winner lacks agreement, or every copy is corrupt) is a
/// defense working; a read that fails because nothing is there is plain
/// unavailability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumOutcome {
    /// The key voted on.
    pub key: Key,
    /// Candidates asked (fetched copies, present or not).
    pub candidates: usize,
    /// Candidates holding no copy at all.
    pub missing: usize,
    /// Copies present but rejected by the verifier.
    pub invalid: usize,
    /// Verifying copies byte-identical to the winner.
    pub agreeing: usize,
    /// Verifying copies that disagree with the winner.
    pub disagreeing: usize,
    /// The read quorum K the vote was held under.
    pub need: usize,
    /// The tally leader among verifying copies (even when its agreement
    /// count falls short of the quorum), `None` when nothing verified.
    pub winner: Option<Vec<u8>>,
}

impl QuorumOutcome {
    /// The vote over `fetched` ([`Tally::decide`]) with each distinct
    /// present value put to `verify` once, and its anatomy under read
    /// quorum `need`.
    pub fn of(fetched: &FetchedCopies, need: usize, verify: impl Fn(&[u8]) -> bool) -> Self {
        let tally = Tally::new(fetched);
        let vote = tally.decide(tally.values(fetched).map(|v| verify(v).then_some(v)));
        let present = fetched.copies.iter().filter(|(_, c)| c.is_some()).count();
        let agreeing = vote.winner.map_or(0, |(_, n)| n);
        QuorumOutcome {
            key: fetched.key,
            candidates: fetched.copies.len(),
            missing: fetched.copies.len() - present,
            invalid: present - vote.verifying,
            agreeing,
            disagreeing: vote.verifying - agreeing,
            need,
            winner: vote.winner.map(|(v, _)| v.to_vec()),
        }
    }

    /// Applies the PR 7 agreement rule — **the winning value's agreement
    /// count must reach the quorum** — turning the anatomy back into the
    /// exact `Result` [`quorum_vote`] returns.
    ///
    /// # Errors
    ///
    /// [`StorageError::NotFound`] when no copy verified;
    /// [`StorageError::QuorumFailed`] when the winner's agreement count is
    /// below `need`.
    pub fn into_result(self) -> Result<Vec<u8>, StorageError> {
        match self.winner {
            None => Err(StorageError::NotFound(self.key)),
            Some(_) if self.agreeing < self.need => Err(StorageError::QuorumFailed {
                key: self.key,
                have: self.agreeing,
                need: self.need,
            }),
            Some(winner) => Ok(winner),
        }
    }

    /// Whether the vote would serve a value (winner present with quorum
    /// agreement).
    pub fn served(&self) -> bool {
        self.winner.is_some() && self.agreeing >= self.need
    }

    /// Whether the read failed **closed**: copies were physically present,
    /// yet the vote refused to serve — corrupt or disagreeing replicas were
    /// rejected rather than returned. `false` when the read served, and
    /// also when nothing was there to serve (plain unavailability, not a
    /// defense).
    pub fn fail_closed(&self) -> bool {
        !self.served() && self.candidates > self.missing
    }
}

/// Majority vote among verifying copies: the pure (no storage access)
/// middle of a quorum read, split out so a batch engine can vote on many
/// [`FetchedCopies`] between fetching them and repairing them.
/// Ties break toward the copy held by the most-preferred candidate (the
/// earliest-seen value wins at equal counts).
///
/// The quorum requirement applies to the **winning value's** agreement
/// count, not to the total number of verifying copies: `read_quorum = K`
/// means "at least K replicas hold byte-identical verifying copies of the
/// value we return". (An earlier revision summed verifying copies of
/// *different* values toward the quorum, so three disagreeing-but-signed
/// copies satisfied K=2 and the read returned a value only one replica
/// agreed on — exactly the stale-read the quorum exists to prevent.)
///
/// # Errors
///
/// [`StorageError::NotFound`] when no candidate holds a verifying copy;
/// [`StorageError::QuorumFailed`] when some do but the winner has fewer
/// than `read_quorum` agreeing copies (`have` reports the winner's count).
pub fn quorum_vote(
    fetched: &FetchedCopies,
    read_quorum: usize,
    verify: impl Fn(&[u8]) -> bool,
) -> Result<Vec<u8>, StorageError> {
    QuorumOutcome::of(fetched, read_quorum, verify).into_result()
}

/// One read's copies, counted once: each distinct present value, in
/// first-seen (candidate-preference) order, with its holder count. A value's
/// index in that order is its *position*: a caller keeps what it learned of
/// each value at its position and [`Tally::decide`] reads the vote off
/// those, so no value is found again by its bytes. The tally keeps positions
/// into the [`FetchedCopies`] it counted, which [`Tally::values`] takes
/// back, so it can live beside them.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// `(position of the value's first holder, holders)` per value.
    values: Vec<(usize, usize)>,
}

/// What [`Tally::decide`] found.
#[derive(Debug)]
pub struct Vote<T> {
    /// The winner's proof and holder count: of the proven values, the one
    /// with the most holders, the earliest-seen on a tie.
    pub winner: Option<(T, usize)>,
    /// The holders of every proven value, the winner's included.
    pub verifying: usize,
}

impl Tally {
    /// Counts the present copies of `fetched`.
    pub fn new(fetched: &FetchedCopies) -> Self {
        let mut values: Vec<(usize, usize)> = Vec::new();
        for (at, (_, copy)) in fetched.copies.iter().enumerate() {
            let Some(bytes) = copy.as_deref() else {
                continue;
            };
            match values
                .iter_mut()
                .find(|(first, _)| copy_at(fetched, *first) == bytes)
            {
                Some((_, holders)) => *holders += 1,
                None => values.push((at, 1)),
            }
        }
        Tally { values }
    }

    /// The distinct values in position order, borrowed from `fetched`, which
    /// must be the copies the tally counted (any other reads as empty
    /// values).
    pub fn values<'a>(
        &self,
        fetched: &'a FetchedCopies,
    ) -> impl Iterator<Item = &'a [u8]> + use<'_, 'a> {
        self.values.iter().map(|&(at, _)| copy_at(fetched, at))
    }

    /// The leader's position and holder count: the value with the most
    /// holders, the earliest-seen on a tie — what [`Tally::decide`] elects
    /// when every value is proven.
    pub fn leader(&self) -> Option<(usize, usize)> {
        self.decide((0..self.values.len()).map(Some)).winner
    }

    /// The vote, decided over positions: `proofs` holds, position by
    /// position, what the caller proved of each value, `None` for a value
    /// refused or never opened (positions past its end count as `None`).
    /// The winner is the proven value with the most holders, the
    /// earliest-seen on a tie; a caller that requires K holders compares the
    /// winner's count with K.
    pub fn decide<T>(&self, proofs: impl IntoIterator<Item = Option<T>>) -> Vote<T> {
        let mut vote = Vote {
            winner: None,
            verifying: 0,
        };
        for (&(_, holders), proof) in self.values.iter().zip(proofs) {
            let Some(proof) = proof else {
                continue;
            };
            vote.verifying += holders;
            if vote.winner.as_ref().is_none_or(|&(_, most)| holders > most) {
                vote.winner = Some((proof, holders));
            }
        }
        vote
    }
}

/// The present copy at position `at` of `fetched`; empty when there is none.
fn copy_at(fetched: &FetchedCopies, at: usize) -> &[u8] {
    let copy = fetched.copies.get(at).and_then(|(_, copy)| copy.as_deref());
    copy.unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Holders;
    use crate::chord::ChordPlane;
    use crate::federation::FederationPlane;
    use crate::kademlia::KademliaPlane;
    use crate::superpeer::SuperPeerPlane;

    fn stores(r: usize) -> Vec<ReplicatedStore<Box<dyn StoragePlane>>> {
        let planes: Vec<Box<dyn StoragePlane>> = vec![
            Box::new(ChordPlane::build(48, 11)),
            Box::new(KademliaPlane::build(48, 20, 11)),
            Box::new(SuperPeerPlane::build(48, 6, 11)),
            Box::new(FederationPlane::build(10)),
        ];
        planes
            .into_iter()
            .map(|p| ReplicatedStore::new(p, r))
            .collect()
    }

    #[test]
    fn put_places_r_copies_and_accounts_bytes() {
        for mut store in stores(3) {
            let mut m = Metrics::new();
            let key = Key::hash(b"r3");
            let holders = store.put(key, vec![7u8; 100], &mut m).unwrap();
            assert_eq!(holders.len(), 3, "{}", store.plane().name());
            assert_eq!(m.count("store.replicas_written"), 3);
            assert_eq!(store.accounting().total_bytes(), 300);
            assert_eq!(store.accounting().nodes_used(), 3);
            for h in &holders {
                assert_eq!(store.accounting().bytes_on(*h), 100);
            }
        }
    }

    #[test]
    fn quorum_survives_one_crash_and_repairs() {
        for mut store in stores(3) {
            let name = store.plane().name();
            let mut m = Metrics::new();
            let key = Key::hash(b"crashy");
            let holders = store.put(key, b"v".to_vec(), &mut m).unwrap();
            store.plane_mut().set_online(holders[0], false);
            assert_eq!(store.get(key, &mut m).unwrap(), b"v", "{name}");
            assert!(
                m.count("get.repairs") > 0,
                "{name}: substitute not repaired"
            );
            // The repaired substitute now holds the value directly.
            let current = store
                .plane_mut()
                .replica_candidates(key, 3, &mut m)
                .unwrap();
            for node in current {
                assert_eq!(
                    store.plane_mut().fetch_from(node, key, &mut m).unwrap(),
                    Some(b"v".to_vec()),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn r1_loses_data_when_owner_crashes() {
        for mut store in stores(1) {
            let name = store.plane().name();
            let mut m = Metrics::new();
            let key = Key::hash(b"fragile");
            let holders = store.put(key, b"v".to_vec(), &mut m).unwrap();
            assert_eq!(holders.len(), 1);
            store.plane_mut().set_online(holders[0], false);
            assert!(
                matches!(store.get(key, &mut m), Err(StorageError::NotFound(_))),
                "{name}: R=1 must lose the value with its only holder"
            );
        }
    }

    #[test]
    fn verifier_rejections_fail_quorum() {
        let mut store = ReplicatedStore::new(ChordPlane::build(32, 3), 3);
        let mut m = Metrics::new();
        let key = Key::hash(b"unverifiable");
        store.put(key, b"garbage".to_vec(), &mut m).unwrap();
        assert!(matches!(
            store.get_verified(key, &mut m, |_| false),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn majority_wins_over_corrupt_minority() {
        let mut store = ReplicatedStore::new(ChordPlane::build(32, 3), 3);
        let mut m = Metrics::new();
        let key = Key::hash(b"majority");
        let holders = store.put(key, b"good".to_vec(), &mut m).unwrap();
        // Corrupt one replica in place.
        store
            .plane_mut()
            .store_at(holders[2], key, b"BAD!", &mut m)
            .unwrap();
        assert_eq!(store.get(key, &mut m).unwrap(), b"good");
        assert!(m.count("get.repairs") >= 1);
        // The corrupt copy was overwritten.
        assert_eq!(
            store
                .plane_mut()
                .fetch_from(holders[2], key, &mut m)
                .unwrap(),
            Some(b"good".to_vec())
        );
    }

    #[test]
    fn strict_quorum_fails_below_k() {
        // R=3 but demand all three copies verify; knock two offline.
        let mut store = ReplicatedStore::new(ChordPlane::build(32, 5), 3).with_quorum(3);
        let mut m = Metrics::new();
        let key = Key::hash(b"strict");
        let holders = store.put(key, b"v".to_vec(), &mut m).unwrap();
        store.plane_mut().set_online(holders[1], false);
        store.plane_mut().set_online(holders[2], false);
        match store.get(key, &mut m) {
            Err(StorageError::QuorumFailed { have, need, .. }) => {
                assert!(have < need);
            }
            other => panic!("expected QuorumFailed, got {other:?}"),
        }
    }

    #[test]
    fn obs_histograms_time_put_quorum_and_repair() {
        let reg = Registry::new();
        let mut store = ReplicatedStore::new(ChordPlane::build(32, 9), 3).with_obs(reg.clone());
        let mut m = Metrics::new();
        let key = Key::hash(b"timed");
        let holders = store.put(key, b"v".to_vec(), &mut m).unwrap();
        store.plane_mut().set_online(holders[0], false);
        store.get(key, &mut m).unwrap();

        let snap = reg.snapshot();
        assert_eq!(snap.histograms["store.put"].count(), 1);
        assert_eq!(snap.histograms["store.get.quorum"].count(), 1);
        // The crashed holder's substitute was repaired, so the repair pass
        // was timed too.
        assert_eq!(snap.histograms["store.get.repair"].count(), 1);
        assert!(m.count("get.repairs") > 0);
    }

    #[test]
    fn put_each_matches_sequential_puts() {
        let items: Vec<(Key, Vec<u8>)> = (0u8..8)
            .map(|i| (Key::hash(&[b'k', i]), vec![i; 64]))
            .collect();

        let mut batched = ReplicatedStore::new(ChordPlane::build(48, 11), 3);
        let mut mb = Metrics::new();
        let placed = batched.put_each(&items, &mut mb);
        assert_eq!(placed.len(), items.len());

        let mut sequential = ReplicatedStore::new(ChordPlane::build(48, 11), 3);
        let mut ms = Metrics::new();
        for (i, (key, value)) in items.iter().enumerate() {
            let holders = sequential.put(*key, value.clone(), &mut ms).unwrap();
            assert_eq!(
                placed[i].as_ref().expect("all entries place"),
                &holders,
                "placement diverged at item {i}"
            );
        }
        assert_eq!(mb, ms, "one batched call accounts like eight puts");
        assert_eq!(
            batched.accounting().total_bytes(),
            sequential.accounting().total_bytes()
        );
        // Every batched write reads back through the normal quorum path.
        for (key, value) in &items {
            assert_eq!(batched.get(*key, &mut mb).unwrap(), *value);
        }
    }

    /// A plane wrapper that refuses replica placement for one key —
    /// simulates a poisoned record whose responsible nodes are all gone.
    #[derive(Debug)]
    struct PoisonPlane {
        inner: ChordPlane,
        poisoned: Key,
    }

    impl StoragePlane for PoisonPlane {
        fn name(&self) -> &'static str {
            "poison"
        }
        fn holders(&self) -> &Holders {
            self.inner.holders()
        }
        fn holders_mut(&mut self) -> &mut Holders {
            self.inner.holders_mut()
        }
        fn set_online(&mut self, node: NodeId, online: bool) {
            self.inner.set_online(node, online);
        }
        fn replica_candidates(
            &mut self,
            key: Key,
            want: usize,
            metrics: &mut Metrics,
        ) -> Result<Vec<NodeId>, StorageError> {
            if key == self.poisoned {
                return Err(StorageError::NoNodes);
            }
            self.inner.replica_candidates(key, want, metrics)
        }
        fn store_at(
            &mut self,
            node: NodeId,
            key: Key,
            value: &[u8],
            metrics: &mut Metrics,
        ) -> Result<(), StorageError> {
            self.inner.store_at(node, key, value, metrics)
        }
        fn fetch_from(
            &mut self,
            node: NodeId,
            key: Key,
            metrics: &mut Metrics,
        ) -> Result<Option<Vec<u8>>, StorageError> {
            self.inner.fetch_from(node, key, metrics)
        }
    }

    #[test]
    fn put_each_isolates_poisoned_entries() {
        let poisoned = Key::hash(b"poisoned-entry");
        let mut store = ReplicatedStore::new(
            PoisonPlane {
                inner: ChordPlane::build(48, 11),
                poisoned,
            },
            3,
        );
        let mut m = Metrics::new();
        let items = vec![
            (Key::hash(b"sibling-a"), b"a".to_vec()),
            (poisoned, b"p".to_vec()),
            (Key::hash(b"sibling-b"), b"b".to_vec()),
        ];
        let placed = store.put_each(&items, &mut m);
        assert!(placed[0].is_ok(), "entry before the poison must commit");
        assert!(matches!(placed[1], Err(StorageError::NoNodes)));
        assert!(placed[2].is_ok(), "entry after the poison must commit");
        // Siblings read back through the normal quorum path.
        assert_eq!(store.get(items[0].0, &mut m).unwrap(), b"a");
        assert_eq!(store.get(items[2].0, &mut m).unwrap(), b"b");
    }

    #[test]
    fn put_each_with_every_node_offline_fails_every_entry() {
        let mut store = ReplicatedStore::new(ChordPlane::build(16, 7), 3);
        for node in store.plane().node_ids() {
            store.plane_mut().set_online(node, false);
        }
        let mut m = Metrics::new();
        let items = vec![
            (Key::hash(b"dark-a"), b"a".to_vec()),
            (Key::hash(b"dark-b"), b"b".to_vec()),
        ];
        let placed = store.put_each(&items, &mut m);
        assert_eq!(placed.len(), 2);
        for slot in &placed {
            assert!(matches!(slot, Err(StorageError::NoNodes)));
        }
        assert_eq!(m.count("store.replicas_written"), 0);
    }

    #[test]
    fn split_fetch_vote_repair_matches_get_verified() {
        let mut whole = ReplicatedStore::new(ChordPlane::build(32, 9), 3);
        let mut split = ReplicatedStore::new(ChordPlane::build(32, 9), 3);
        let mut m = Metrics::new();
        let key = Key::hash(b"split-path");
        let holders = whole.put(key, b"good".to_vec(), &mut m).unwrap();
        split.put(key, b"good".to_vec(), &mut m).unwrap();
        // Corrupt the same replica in both stores.
        whole
            .plane_mut()
            .store_at(holders[2], key, b"BAD!", &mut m)
            .unwrap();
        split
            .plane_mut()
            .store_at(holders[2], key, b"BAD!", &mut m)
            .unwrap();

        let via_whole = whole.get(key, &mut m).unwrap();

        let mut ms = Metrics::new();
        let fetched = split.fetch_copies(key, &mut ms).unwrap();
        let winner = quorum_vote(&fetched, split.read_quorum(), |b| b != b"BAD!").unwrap();
        let repairs = split.repair_copies(&fetched, &winner, &mut ms);
        assert_eq!(winner, via_whole);
        assert_eq!(repairs, 1);
        assert_eq!(ms.count("get.repairs"), 1);
        assert_eq!(ms.count("get.quorum_size"), 3);
        assert_eq!(
            split
                .plane_mut()
                .fetch_from(holders[2], key, &mut ms)
                .unwrap(),
            Some(b"good".to_vec())
        );
    }

    #[test]
    fn quorum_vote_is_pure_and_reports_shortfall() {
        let key = Key::hash(b"pure-vote");
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let fetched = FetchedCopies {
            key,
            copies: vec![
                (nodes[0], Some(b"v".to_vec())),
                (nodes[1], None),
                (nodes[2], Some(b"w".to_vec())),
            ],
        };
        // Tie at one vote each: preference order (earliest seen) wins, and
        // leads the tally.
        assert_eq!(quorum_vote(&fetched, 1, |_| true).unwrap(), b"v");
        assert_eq!(Tally::new(&fetched).leader(), Some((0, 1)));
        // Below quorum: `have` reports the winner's agreement count (one
        // copy of "v"), not the total number of verifying copies (two).
        match quorum_vote(&fetched, 3, |_| true) {
            Err(StorageError::QuorumFailed { have, need, .. }) => {
                assert_eq!((have, need), (1, 3));
            }
            other => panic!("expected QuorumFailed, got {other:?}"),
        }
        // No verifying copies at all reads as missing.
        assert!(matches!(
            quorum_vote(&fetched, 1, |_| false),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn disagreeing_verified_copies_do_not_fake_a_quorum() {
        // Regression: three replicas each hold a validly-signed but
        // *different* value (one fresh write, two stale generations). The
        // old vote summed all verifying copies (3 ≥ K=2) and returned the
        // earliest candidate's value on a single copy's agreement; the
        // quorum must instead fail, because no value has two agreeing
        // replicas.
        let key = Key::hash(b"stale-split");
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let fetched = FetchedCopies {
            key,
            copies: vec![
                (nodes[0], Some(b"fresh-seq-3".to_vec())),
                (nodes[1], Some(b"stale-seq-2".to_vec())),
                (nodes[2], Some(b"stale-seq-1".to_vec())),
            ],
        };
        match quorum_vote(&fetched, 2, |_| true) {
            Err(StorageError::QuorumFailed { have, need, .. }) => {
                assert_eq!((have, need), (1, 2), "winner has one agreeing copy");
            }
            other => panic!("expected QuorumFailed, got {other:?}"),
        }
        // Two agreeing fresh copies against one stale do satisfy K=2, and
        // the agreeing value wins regardless of preference order.
        let healthy = FetchedCopies {
            key,
            copies: vec![
                (nodes[0], Some(b"stale-seq-2".to_vec())),
                (nodes[1], Some(b"fresh-seq-3".to_vec())),
                (nodes[2], Some(b"fresh-seq-3".to_vec())),
            ],
        };
        assert_eq!(quorum_vote(&healthy, 2, |_| true).unwrap(), b"fresh-seq-3");
    }

    #[test]
    fn the_vote_sees_each_distinct_value_once_and_weighs_it_by_its_holders() {
        let key = Key::hash(b"batched-vote");
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let fetched = FetchedCopies {
            key,
            copies: vec![
                (nodes[0], Some(b"good".to_vec())),
                (nodes[1], None),
                (nodes[2], Some(b"BAD!".to_vec())),
                (nodes[3], Some(b"good".to_vec())),
            ],
        };
        let tally = Tally::new(&fetched);
        assert_eq!(tally.leader(), Some((0, 2)));
        // Absent copies are not values; each distinct present value comes
        // once, in candidate-preference order.
        let values: Vec<&[u8]> = tally.values(&fetched).collect();
        assert_eq!(values, [&b"good"[..], &b"BAD!"[..]]);
        // The proof of "good" counts for both candidates holding it.
        let vote = tally.decide(values.iter().map(|v| (*v != b"BAD!").then_some(*v)));
        assert_eq!((vote.winner, vote.verifying), (Some((&b"good"[..], 2)), 2));
        let outcome = inspect(&fetched, 2, |c| c != b"BAD!");
        assert_eq!(
            (outcome.missing, outcome.invalid, outcome.agreeing),
            (1, 1, 2)
        );
        assert_eq!(outcome.into_result().unwrap(), b"good");
    }

    #[test]
    fn fetch_copies_of_a_never_stored_key_votes_not_found() {
        let mut store = ReplicatedStore::new(ChordPlane::build(32, 9), 3);
        let mut m = Metrics::new();
        let stored = Key::hash(b"present");
        store.put(stored, b"v".to_vec(), &mut m).unwrap();
        let hit = store.fetch_copies(stored, &mut m).unwrap();
        assert_eq!(quorum_vote(&hit, 1, |_| true).unwrap(), b"v");
        // An unknown key still yields candidates; the vote reports it missing.
        let miss = store.fetch_copies(Key::hash(b"absent"), &mut m).unwrap();
        assert_eq!(miss.copies.len(), 3);
        assert!(matches!(
            quorum_vote(&miss, 1, |_| true),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn quorum_size_counter_tracks_candidate_reads() {
        let mut store = ReplicatedStore::new(ChordPlane::build(32, 9), 3);
        let mut m = Metrics::new();
        let key = Key::hash(b"counted");
        store.put(key, b"v".to_vec(), &mut m).unwrap();
        store.get(key, &mut m).unwrap();
        assert_eq!(m.count("get.quorum_size"), 3);
    }

    /// The vote's anatomy with `verify` run on each distinct value.
    fn inspect(
        fetched: &FetchedCopies,
        read_quorum: usize,
        verify: impl Fn(&[u8]) -> bool,
    ) -> QuorumOutcome {
        QuorumOutcome::of(fetched, read_quorum, verify)
    }

    fn copies(entries: &[Option<&[u8]>]) -> FetchedCopies {
        FetchedCopies {
            key: Key::hash(b"anatomy"),
            copies: entries
                .iter()
                .enumerate()
                .map(|(i, c)| (NodeId(i as u64), c.map(<[u8]>::to_vec)))
                .collect(),
        }
    }

    /// PR 7 regression, reasserted against the typed outcome: the quorum
    /// applies to the **winner's** agreement count, and
    /// `QuorumOutcome::into_result` reproduces `quorum_vote` bit-for-bit
    /// on every anatomy the vote can encounter.
    #[test]
    fn vote_anatomy_counts_and_matches_quorum_vote() {
        let cases: Vec<Vec<Option<&[u8]>>> = vec![
            vec![Some(b"good"), Some(b"good"), Some(b"good")],
            vec![Some(b"good"), Some(b"good"), Some(b"BAD!")],
            vec![Some(b"good"), Some(b"BAD!"), None],
            // PR 7's bug shape: three disagreeing-but-verifying copies must
            // not sum toward the quorum.
            vec![Some(b"one"), Some(b"two"), Some(b"three")],
            vec![None, None, None],
            vec![Some(b"BAD!"), Some(b"BAD!"), Some(b"BAD!")],
            vec![Some(b"good"), None, None],
        ];
        let verify = |c: &[u8]| c != b"BAD!";
        for case in cases {
            let fetched = copies(&case);
            for k in 1..=3 {
                let outcome = inspect(&fetched, k, verify);
                assert_eq!(
                    outcome.clone().into_result(),
                    quorum_vote(&fetched, k, verify),
                    "outcome and vote diverged on {case:?} at K={k}"
                );
                assert_eq!(outcome.candidates, case.len());
                assert_eq!(outcome.missing, case.iter().filter(|c| c.is_none()).count());
                assert_eq!(
                    outcome.invalid,
                    case.iter()
                        .filter(|c| c.is_some_and(|b| !verify(b)))
                        .count()
                );
                assert_eq!(
                    outcome.missing + outcome.invalid + outcome.agreeing + outcome.disagreeing,
                    outcome.candidates,
                    "anatomy must partition the candidates"
                );
            }
        }
    }

    #[test]
    fn fail_closed_distinguishes_tamper_from_absence() {
        let verify = |c: &[u8]| c != b"BAD!";
        // All copies corrupt: present but refused — fail closed.
        let tampered = inspect(
            &copies(&[Some(b"BAD!"), Some(b"BAD!"), Some(b"BAD!")]),
            2,
            verify,
        );
        assert!(tampered.fail_closed());
        assert!(!tampered.served());
        // Nothing stored anywhere: plain unavailability, not a defense.
        let absent = inspect(&copies(&[None, None, None]), 2, verify);
        assert!(!absent.fail_closed());
        assert!(!absent.served());
        // Healthy majority: served, neither failure kind.
        let healthy = inspect(
            &copies(&[Some(b"good"), Some(b"good"), Some(b"BAD!")]),
            2,
            verify,
        );
        assert!(healthy.served());
        assert!(!healthy.fail_closed());
        assert_eq!(healthy.winner.as_deref(), Some(b"good".as_slice()));
    }

    #[test]
    fn read_outcome_reports_and_repairs_like_get_verified() {
        let mut store = ReplicatedStore::new(ChordPlane::build(32, 3), 3);
        let mut m = Metrics::new();
        let key = Key::hash(b"outcome");
        let holders = store.put(key, b"good".to_vec(), &mut m).unwrap();
        store
            .plane_mut()
            .store_at(holders[2], key, b"BAD!", &mut m)
            .unwrap();
        let outcome = store.read_outcome(key, &mut m, |c| c != b"BAD!").unwrap();
        assert!(outcome.served());
        assert_eq!(outcome.agreeing, 2);
        assert_eq!(outcome.invalid, 1);
        assert_eq!(outcome.winner.as_deref(), Some(b"good".as_slice()));
        // Served outcomes repair, exactly as get_verified does.
        assert!(m.count("get.repairs") >= 1);
        assert_eq!(
            store
                .plane_mut()
                .fetch_from(holders[2], key, &mut m)
                .unwrap(),
            Some(b"good".to_vec())
        );
    }
}
