//! Structured overlay: a Chord distributed hash table (survey §II-B,
//! "structured").
//!
//! "Most of the recent DOSNs use structured organization and distributed
//! hash tables for the lookup service" — PrPl, PeerSoN, Safebook, Cachet.
//! This module implements Chord's ring geometry: 64-bit identifiers, finger
//! routing with up to 64 entries, successor lists for replication, and
//! greedy closest-preceding-finger routing. Lookups route *only* through
//! each node's local view and report hop/message metrics, which is what
//! experiment E5 measures.
//!
//! # Scale architecture
//!
//! Per-node state is gone. Membership lives in a [`NodeArena`] (one sorted
//! id array + online bitmap); stored blobs live in one interned
//! [`SharedStore`]. Finger tables and successor lists are *lazy*: every
//! eager table was derived from the same sorted-online-ids snapshot anyway,
//! so the overlay keeps that snapshot (`routing`, refreshed by
//! [`ChordPlane::stabilize`]) and answers `finger[i]`/`successor` queries
//! with binary searches at lookup time — identical routing decisions,
//! O(1) bytes per node instead of 64×8-byte finger arrays. Stabilize itself
//! only charges maintenance for *dirty* (churned/joined) nodes plus a small
//! refresh sample, per the satellite fix: idle nodes no longer pay
//! O(log²n) every round.

use crate::arena::{NodeArena, SharedStore};
use crate::fault::LinkFaults;
use crate::hotcache::HotCache;
use crate::id::{in_interval_open_closed, ring_distance, Key, NodeId};
use crate::metrics::Metrics;
use crate::sim::{LatencyModel, PLANE_HOP_MS};
use crate::storage::{refused, StorageError, StoragePlane};
use dosn_obs::names;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const FINGER_BITS: usize = 64;

/// Errors from DHT operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DhtError {
    /// The overlay has no online nodes to route through.
    NoNodes,
    /// The key's holders, or a link on the route to them, cannot be reached.
    Unavailable(Key),
    /// The key was never stored.
    NotFound(Key),
    /// The named node does not exist (or, as a lookup's start, is offline).
    UnknownNode(NodeId),
}

impl std::fmt::Display for DhtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DhtError::NoNodes => f.write_str("overlay has no online nodes"),
            DhtError::Unavailable(k) => write!(f, "all replicas for {k} are offline"),
            DhtError::NotFound(k) => write!(f, "key {k} not stored"),
            DhtError::UnknownNode(n) => write!(f, "unknown node {n}"),
        }
    }
}

impl std::error::Error for DhtError {}

/// A Chord ring, and the [`StoragePlane`] over it: replicas at the key's
/// successor chain, lookups routed through finger tables (hops accounted).
///
/// Two access paths share one placement. The routed [`ChordPlane::store`] /
/// [`ChordPlane::get`] walk from a given node through possibly stale
/// fingers and replicate along the successor list; the plane methods
/// ([`StoragePlane::replica_candidates`], [`StoragePlane::store_at`],
/// [`StoragePlane::fetch_from`]) let an upper layer place copies itself.
///
/// ```
/// use dosn_overlay::chord::ChordPlane;
/// use dosn_overlay::id::Key;
/// use dosn_overlay::metrics::Metrics;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ring = ChordPlane::build(64, 42).with_replicas(3);
/// let mut metrics = Metrics::new();
/// let key = Key::hash(b"alice/profile");
/// ring.store(ring.random_node(1), key, b"profile-data".to_vec(), &mut metrics)?;
/// let got = ring.get(ring.random_node(2), key, &mut metrics)?;
/// assert_eq!(got, b"profile-data");
/// // O(log n) routing:
/// assert!(metrics.count("chord.hop") <= 2 * 6 + 2);
/// # Ok(())
/// # }
/// ```
pub struct ChordPlane {
    /// Membership: sorted ring ids + online bitmap.
    arena: NodeArena,
    /// Sorted online-id snapshot from the last table build (build, join,
    /// leave, or stabilize). All finger/successor answers derive from it.
    routing: Vec<u64>,
    /// Nodes churned or joined since the last stabilize round; only these
    /// (plus a refresh sample) are charged maintenance messages.
    dirty: BTreeSet<u64>,
    /// Cursor for the round-robin idle-refresh sample.
    refresh_cursor: usize,
    /// Interned key/value storage shared by every node.
    storage: SharedStore,
    /// Copies a routed `store` writes (the owner plus successors); also
    /// sets the successor-list length.
    replicas: usize,
    rng: StdRng,
    hot: Option<HotCache>,
}

impl std::fmt::Debug for ChordPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ChordPlane({} nodes, {} replicas)",
            self.arena.len(),
            self.replicas
        )
    }
}

impl ChordPlane {
    /// Builds a ring of `n` nodes with random ids and a replication factor
    /// of 1: placement through the plane is decided by the caller, and
    /// only the routed `store`/`get` replicate (see
    /// [`ChordPlane::with_replicas`]).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn build(n: usize, seed: u64) -> Self {
        assert!(n > 0, "ring needs at least one node");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids = BTreeSet::new();
        while ids.len() < n {
            ids.insert(rng.random::<u64>());
        }
        let sorted: Vec<u64> = ids.into_iter().collect();
        let dirty: BTreeSet<u64> = sorted.iter().copied().collect();
        ChordPlane {
            routing: sorted.clone(),
            arena: NodeArena::from_sorted_ids(sorted),
            dirty,
            refresh_cursor: 0,
            storage: SharedStore::new(),
            replicas: 1,
            rng,
            hot: None,
        }
    }

    /// Sets how many copies a routed [`ChordPlane::store`] writes and
    /// [`ChordPlane::get`] tries (the owner plus successors); the
    /// successor list is at least this long. Draws nothing from the RNG.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    #[must_use]
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        assert!(replicas > 0, "need at least one replica (the owner)");
        self.replicas = replicas;
        self
    }

    /// Estimated resident bytes of membership, routing snapshot, and
    /// storage — the E15 memory-per-node denominator.
    pub fn memory_bytes(&self) -> usize {
        self.arena.memory_bytes()
            + self.routing.capacity() * 8
            + self.dirty.len() * 32
            + self.storage.memory_bytes()
            + std::mem::size_of::<Self>()
    }

    /// A deterministic "random" online node for workload driving.
    ///
    /// # Panics
    ///
    /// Panics if every node is offline.
    pub fn random_node(&self, salt: u64) -> NodeId {
        let id = self
            .arena
            .nth_online(salt as usize)
            .expect("no online nodes");
        NodeId(id)
    }

    /// Runs a stabilization round: refreshes the routing snapshot from the
    /// *online* membership (models Chord's periodic stabilize/fix-fingers)
    /// and returns the number of maintenance messages a real deployment
    /// would send — O(log²n) per *repaired* node, per the Chord paper.
    ///
    /// Only nodes that churned or joined since the previous round, plus a
    /// small round-robin refresh sample (n/64 per round, so fingers decay
    /// within 64 rounds even without churn), are charged; an idle ring no
    /// longer pays O(n·log²n) per round. The first round after `build`
    /// charges every node (the initial table construction).
    pub fn stabilize(&mut self) -> u64 {
        self.routing = self.arena.online_ids();
        let n = self.arena.len();
        let n_online = self.arena.online_count() as u64;
        let logn = u64::from(64 - n_online.leading_zeros());
        // Refresh sample: n/64 idle nodes per round, round-robin.
        let sample = (n / FINGER_BITS).max(1);
        let repaired = (self.dirty.len() + sample).min(n).max(1) as u64;
        self.refresh_cursor = (self.refresh_cursor + sample) % n.max(1);
        self.dirty.clear();
        repaired * logn * logn
    }

    /// Adds a fresh node with a random id, returning it. The routing
    /// snapshot refreshes (join cost is reported at the next
    /// [`ChordPlane::stabilize`]).
    pub fn join(&mut self) -> NodeId {
        let id = loop {
            let candidate = self.rng.random::<u64>();
            if !self.arena.contains(candidate) {
                break candidate;
            }
        };
        self.arena.insert(id);
        self.dirty.insert(id);
        self.routing = self.arena.online_ids();
        NodeId(id)
    }

    /// Permanently removes a node (its stored replicas are lost, as with an
    /// ungraceful departure).
    pub fn leave(&mut self, node: NodeId) {
        if self.arena.remove(node.0) {
            self.storage.purge_holder(node.0);
            self.dirty.remove(&node.0);
            self.routing = self.arena.online_ids();
        }
    }

    /// successor(key) over the routing snapshot: the first snapshot id
    /// `>= key`, wrapping to the smallest. `None` when the snapshot is
    /// empty (every node was offline at the last stabilize).
    fn routing_successor(&self, key: u64) -> Option<u64> {
        if self.routing.is_empty() {
            return None;
        }
        let i = self.routing.partition_point(|&id| id < key);
        Some(if i == self.routing.len() {
            self.routing[0]
        } else {
            self.routing[i]
        })
    }

    /// Iterative greedy lookup from `from` toward the owner of `key`,
    /// routing only via (lazily computed) finger tables. Returns the
    /// terminal node.
    ///
    /// # Errors
    ///
    /// Returns [`DhtError`] when the overlay is empty or the start node is
    /// unknown/offline.
    pub fn lookup(
        &mut self,
        from: NodeId,
        key: Key,
        metrics: &mut Metrics,
    ) -> Result<NodeId, DhtError> {
        self.route(from, key, metrics, None)
    }

    /// [`ChordPlane::lookup`] over lossy links: every hop is a
    /// transmission that `faults` may fail, retried up to `retries` extra
    /// times (counted as `chord.retry`). When a finger link stays dead the
    /// route falls back to the plain successor (`chord.reroute`) — Chord's
    /// standard recovery path — so lookups converge under partial loss and
    /// fail only when the route is truly cut.
    ///
    /// # Errors
    ///
    /// [`DhtError::Unavailable`] when a hop cannot be crossed within the
    /// retry budget (e.g. a partition), plus all [`ChordPlane::lookup`]
    /// errors.
    pub fn lookup_with_faults(
        &mut self,
        from: NodeId,
        key: Key,
        metrics: &mut Metrics,
        faults: &mut LinkFaults,
        retries: u32,
    ) -> Result<NodeId, DhtError> {
        self.route(from, key, metrics, Some((faults, retries)))
    }

    /// The ring's one routing loop, behind both entry points above. With
    /// `link == None` every hop delivers and no `LinkFaults` exists.
    fn route(
        &mut self,
        from: NodeId,
        key: Key,
        metrics: &mut Metrics,
        mut link: Option<(&mut LinkFaults, u32)>,
    ) -> Result<NodeId, DhtError> {
        if !self.arena.is_online(from.0) {
            return Err(DhtError::UnknownNode(from));
        }
        let hop = LatencyModel::default();
        let mut current = from.0;
        let mut hops = 0u64;
        // 64-bit ring: any correct greedy route is <= 64 hops; a generous
        // cap guards against routing loops under heavy churn.
        let cap = 2 * FINGER_BITS as u64 + self.arena.len() as u64;
        let mut crosses = |at: u64, to: u64, metrics: &mut Metrics| {
            let (at, to) = (NodeId(at), NodeId(to));
            LinkFaults::hop(&mut link, at, to, metrics, names::CHORD_RETRY, 64)
        };
        loop {
            // Terminal condition: key lies between us and our first live
            // successor -> that successor owns it (or we do if we are it).
            let Some(successor) = self.first_live_successor(current) else {
                return Err(DhtError::NoNodes);
            };
            if in_interval_open_closed(key.0, current, successor) {
                if successor != current {
                    if !crosses(current, successor, metrics) {
                        return Err(DhtError::Unavailable(key));
                    }
                    let lat = hop.draw(&mut self.rng);
                    metrics.record(names::CHORD_HOP, 64, lat);
                }
                return Ok(NodeId(successor));
            }
            // Greedy: closest preceding live finger.
            let mut next = self.closest_preceding(current, key.0).unwrap_or(successor);
            if next == current {
                return Ok(NodeId(current));
            }
            if !crosses(current, next, metrics) {
                // Finger link is dead: fall back to the successor route.
                if next == successor {
                    return Err(DhtError::Unavailable(key));
                }
                metrics.record_offpath(names::CHORD_REROUTE, 64);
                if !crosses(current, successor, metrics) {
                    return Err(DhtError::Unavailable(key));
                }
                next = successor;
            }
            let lat = hop.draw(&mut self.rng);
            metrics.record(names::CHORD_HOP, 64, lat);
            current = next;
            hops += 1;
            if hops > cap {
                // Routing loop under churn: fall back to the true owner and
                // account one stabilization's worth of repair traffic.
                let owner = self.successors(key, 1).pop();
                let owner = owner.ok_or(DhtError::NoNodes)?;
                metrics.record(names::CHORD_REPAIR, 64, hop.draw(&mut self.rng));
                return Ok(owner);
            }
        }
    }

    /// Stores `value` under `key`, replicating to the successor list.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors.
    pub fn store(
        &mut self,
        from: NodeId,
        key: Key,
        value: Vec<u8>,
        metrics: &mut Metrics,
    ) -> Result<(), DhtError> {
        let owner = self.lookup(from, key, metrics)?;
        let replica_ids = self.replica_set(owner.0);
        let size = value.len() as u64;
        for (i, rid) in replica_ids.iter().enumerate() {
            let lat = LatencyModel::default().draw(&mut self.rng);
            if i == 0 {
                metrics.record(names::CHORD_STORE, size, lat);
            } else {
                metrics.record_offpath(names::CHORD_REPLICATE, size);
            }
            self.storage.insert(*rid, key.0, &value);
        }
        Ok(())
    }

    /// Retrieves `key`, trying the owner then its successor replicas.
    ///
    /// # Errors
    ///
    /// [`DhtError::Unavailable`] when every replica holding the key is
    /// offline; [`DhtError::NotFound`] when no live replica has it.
    pub fn get(
        &mut self,
        from: NodeId,
        key: Key,
        metrics: &mut Metrics,
    ) -> Result<Vec<u8>, DhtError> {
        let owner = self.lookup(from, key, metrics)?;
        let replica_ids = self.replica_set(owner.0);
        let mut any_holder_offline = false;
        for rid in &replica_ids {
            let lat = LatencyModel::default().draw(&mut self.rng);
            if !self.arena.is_online(*rid) {
                if self.storage.contains(*rid, key.0) {
                    any_holder_offline = true;
                }
                metrics.record(names::CHORD_FETCH_FAIL, 16, lat);
                continue;
            }
            metrics.record(names::CHORD_FETCH, 64, lat);
            if let Some(v) = self.storage.get(*rid, key.0) {
                return Ok(v.to_vec());
            }
        }
        if any_holder_offline {
            Err(DhtError::Unavailable(key))
        } else {
            Err(DhtError::NotFound(key))
        }
    }

    /// The `want` online nodes that should hold `key`'s replicas: its owner
    /// (clockwise successor) followed by the next online nodes in ring
    /// order. Empty when every node is offline.
    fn successors(&self, key: Key, want: usize) -> Vec<NodeId> {
        if self.arena.online_count() == 0 || want == 0 {
            return Vec::new();
        }
        let ids = self.arena.ids();
        let n = ids.len();
        let start = self.arena.partition_point(key.0);
        let mut out = Vec::with_capacity(want.min(self.arena.online_count()));
        for i in 0..n {
            let slot = (start + i) % n;
            if self.arena.is_online_slot(slot) {
                out.push(NodeId(ids[slot]));
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }

    /// The replica set for an owner: the owner plus following nodes
    /// (regardless of liveness — liveness is checked on access).
    fn replica_set(&self, owner: u64) -> Vec<u64> {
        let ids = self.arena.ids();
        let n = ids.len();
        let mut out = Vec::with_capacity(self.replicas.min(n));
        let Ok(pos) = ids.binary_search(&owner) else {
            return vec![owner];
        };
        for i in 0..self.replicas.min(n) {
            out.push(ids[(pos + i) % n]);
        }
        out
    }

    /// First currently-online entry of `id`'s successor list. The list is
    /// the `succ_list_len` consecutive routing-snapshot entries after `id`
    /// — exactly what the eager per-node lists contained.
    fn first_live_successor(&self, id: u64) -> Option<u64> {
        if !self.routing.is_empty() {
            let succ_list_len = self.replicas.max(2).min(self.routing.len());
            let start = self
                .routing
                .partition_point(|&s| s < id.wrapping_add(1).max(1));
            // wrapping_add(1) overflows only for id == u64::MAX, whose
            // successor is the smallest snapshot id — partition_point(0)=0.
            let start = if id == u64::MAX { 0 } else { start };
            for k in 0..succ_list_len {
                let s = self.routing[(start + k) % self.routing.len()];
                if self.arena.is_online(s) {
                    return Some(s);
                }
            }
        }
        if self.arena.is_online(id) {
            Some(id)
        } else {
            None
        }
    }

    /// Greedy routing step: the highest finger that precedes `key`. The
    /// finger targets `id + 2^i` are resolved against the routing snapshot
    /// on demand — byte-for-byte the entries the eager tables held.
    fn closest_preceding(&self, id: u64, key: u64) -> Option<u64> {
        let span = ring_distance(id, key);
        for i in (0..FINGER_BITS).rev() {
            let target = id.wrapping_add(1u64 << i);
            let f = self.routing_successor(target)?;
            if f != id
                && self.arena.is_online(f)
                && ring_distance(id, f) < span
                && ring_distance(f, key) < span
            {
                return Some(f);
            }
        }
        None
    }
}

impl StoragePlane for ChordPlane {
    fn name(&self) -> &'static str {
        "chord"
    }

    fn node_count(&self) -> usize {
        self.arena.len()
    }

    fn node_ids(&self) -> Vec<NodeId> {
        self.arena.ids().iter().map(|&id| NodeId(id)).collect()
    }

    fn is_online(&self, node: NodeId) -> bool {
        self.arena.is_online(node.0)
    }

    /// Routing snapshots are not refreshed: routing must cope, as in a
    /// real deployment between stabilization rounds.
    fn set_online(&mut self, node: NodeId, online: bool) {
        if self.arena.set_online(node.0, online).is_some() {
            self.dirty.insert(node.0);
        }
    }

    fn online_count(&self) -> usize {
        self.arena.online_count()
    }

    fn replica_candidates(
        &mut self,
        key: Key,
        want: usize,
        metrics: &mut Metrics,
    ) -> Result<Vec<NodeId>, StorageError> {
        let candidates = self.successors(key, want);
        if candidates.is_empty() {
            return Err(StorageError::NoNodes);
        }
        // Account the routing cost of finding the owner: an iterative
        // finger-table lookup from a deterministic online start node.
        let from = self.random_node(key.0);
        self.lookup(from, key, metrics)?;
        Ok(candidates)
    }

    fn store_at(
        &mut self,
        node: NodeId,
        key: Key,
        value: &[u8],
        metrics: &mut Metrics,
    ) -> Result<(), StorageError> {
        if !self.arena.is_online(node.0) {
            return Err(refused(node, self.arena.contains(node.0)));
        }
        self.storage.insert(node.0, key.0, value);
        metrics.record(names::CHORD_STORE, value.len() as u64, PLANE_HOP_MS);
        Ok(())
    }

    fn fetch_from(
        &mut self,
        node: NodeId,
        key: Key,
        metrics: &mut Metrics,
    ) -> Result<Option<Vec<u8>>, StorageError> {
        if !self.arena.is_online(node.0) {
            return Err(refused(node, self.arena.contains(node.0)));
        }
        metrics.record(names::CHORD_FETCH, 64, PLANE_HOP_MS);
        Ok(self.storage.get(node.0, key.0).map(<[u8]>::to_vec))
    }

    fn hot_cache(&self) -> Option<&HotCache> {
        self.hot.as_ref()
    }

    fn hot_cache_mut(&mut self) -> Option<&mut HotCache> {
        self.hot.as_mut()
    }

    /// Cachet-style gossip admission: a ring replica caches roughly half
    /// the verified envelopes it sees, decided by a seeded coin per key.
    fn enable_hot_cache(&mut self, capacity: usize, seed: u64) {
        self.hot = Some(HotCache::new(capacity).with_admission(seed, 128));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> ChordPlane {
        ChordPlane::build(n, 7).with_replicas(3)
    }

    #[test]
    fn store_and_get_roundtrip() {
        let mut r = ring(32);
        let mut m = Metrics::new();
        let key = Key::hash(b"post:1");
        let from = r.random_node(0);
        r.store(from, key, b"hello".to_vec(), &mut m).unwrap();
        let got = r.get(r.random_node(5), key, &mut m).unwrap();
        assert_eq!(got, b"hello");
    }

    #[test]
    fn lookup_converges_to_same_owner_from_any_start() {
        let mut r = ring(64);
        let key = Key::hash(b"content");
        let mut owners = std::collections::HashSet::new();
        for salt in 0..10 {
            let mut m = Metrics::new();
            let from = r.random_node(salt);
            owners.insert(r.lookup(from, key, &mut m).unwrap());
        }
        assert_eq!(owners.len(), 1, "all lookups agree on the owner");
    }

    #[test]
    fn lookup_is_logarithmic() {
        let mut r = ring(1024);
        let mut total_hops = 0u64;
        let lookups = 50;
        for i in 0..lookups {
            let mut m = Metrics::new();
            let key = Key::hash(format!("item-{i}").as_bytes());
            let from = r.random_node(i);
            r.lookup(from, key, &mut m).unwrap();
            total_hops += m.count("chord.hop");
        }
        let avg = total_hops as f64 / lookups as f64;
        // log2(1024) = 10; greedy Chord averages ~ (1/2) log2 n.
        assert!(avg <= 12.0, "average hops {avg} too high");
        assert!(avg >= 1.0, "average hops {avg} suspiciously low");
    }

    #[test]
    fn missing_key_not_found() {
        let mut r = ring(16);
        let mut m = Metrics::new();
        let from = r.random_node(0);
        let err = r.get(from, Key::hash(b"never stored"), &mut m).unwrap_err();
        assert!(matches!(err, DhtError::NotFound(_)));
    }

    #[test]
    fn replication_survives_owner_failure() {
        let mut r = ring(32);
        let mut m = Metrics::new();
        let key = Key::hash(b"replicated");
        let from = r.random_node(0);
        r.store(from, key, b"v".to_vec(), &mut m).unwrap();
        let owner = r.lookup(from, key, &mut m).unwrap();
        r.set_online(owner, false);
        let reader = (0..64)
            .map(|s| r.random_node(s))
            .find(|&n| n != owner)
            .unwrap();
        let got = r.get(reader, key, &mut m).unwrap();
        assert_eq!(got, b"v");
    }

    #[test]
    fn unavailable_when_all_replicas_offline() {
        let mut r = ChordPlane::build(16, 3).with_replicas(2);
        let mut m = Metrics::new();
        let key = Key::hash(b"fragile");
        let from = r.random_node(0);
        r.store(from, key, b"v".to_vec(), &mut m).unwrap();
        let owner = r.lookup(from, key, &mut m).unwrap();
        // Knock out owner and every following replica.
        let ids = r.node_ids();
        let pos = ids.iter().position(|&n| n == owner).unwrap();
        for k in 0..2 {
            r.set_online(ids[(pos + k) % ids.len()], false);
        }
        let reader = ids.iter().copied().find(|n| r.is_online(*n)).unwrap();
        let err = r.get(reader, key, &mut m).unwrap_err();
        assert!(
            matches!(err, DhtError::Unavailable(_) | DhtError::NotFound(_)),
            "{err:?}"
        );
    }

    #[test]
    fn join_changes_membership_and_routing_still_works() {
        let mut r = ring(8);
        let before = r.node_count();
        let newcomer = r.join();
        assert_eq!(r.node_count(), before + 1);
        let mut m = Metrics::new();
        let key = Key::hash(b"after-join");
        r.store(newcomer, key, b"x".to_vec(), &mut m).unwrap();
        assert_eq!(r.get(r.random_node(1), key, &mut m).unwrap(), b"x");
    }

    #[test]
    fn leave_removes_node() {
        let mut r = ring(8);
        let victim = r.random_node(3);
        r.leave(victim);
        assert_eq!(r.node_count(), 7);
        let mut m = Metrics::new();
        let key = Key::hash(b"post-leave");
        let from = r.random_node(0);
        r.store(from, key, b"y".to_vec(), &mut m).unwrap();
        assert_eq!(r.get(r.random_node(2), key, &mut m).unwrap(), b"y");
    }

    #[test]
    fn stabilize_reports_maintenance_cost() {
        let mut r = ring(64);
        let cost = r.stabilize();
        assert!(cost > 0);
        // 64 nodes * 6^2 hops or so.
        assert!(cost >= 64 * 36);
    }

    #[test]
    fn idle_stabilize_is_cheap_and_lookups_still_converge() {
        let mut r = ring(256);
        // Round 1: initial table construction — every node is dirty.
        let full = r.stabilize();
        // Round 2: nothing churned — only the refresh sample is charged.
        let idle = r.stabilize();
        assert!(
            idle * 8 <= full,
            "idle stabilize {idle} should be <= 1/8 of full {full}"
        );
        // Churn a handful of nodes: cost scales with the dirty set, not n.
        let ids = r.node_ids();
        for &id in ids.iter().take(4) {
            r.set_online(id, false);
        }
        let churned = r.stabilize();
        assert!(
            churned < full / 4,
            "churn-of-4 stabilize {churned} should stay far below full {full}"
        );
        // And routing still converges to a live owner from any start.
        let from = ids.iter().copied().find(|&n| r.is_online(n)).unwrap();
        let mut owners = std::collections::HashSet::new();
        for i in 0..10 {
            let mut m = Metrics::new();
            let key = Key::hash(format!("post-churn-{i}").as_bytes());
            let owner = r.lookup(from, key, &mut m).unwrap();
            assert!(r.is_online(owner), "lookup lands on a live node");
            owners.insert(owner);
        }
        assert!(owners.len() > 1, "lookups spread over the ring");
    }

    #[test]
    fn single_node_ring_owns_everything() {
        let mut r = ChordPlane::build(1, 1);
        let mut m = Metrics::new();
        let only = r.random_node(0);
        let key = Key::hash(b"solo");
        assert_eq!(r.lookup(only, key, &mut m).unwrap(), only);
        r.store(only, key, b"v".to_vec(), &mut m).unwrap();
        assert_eq!(r.get(only, key, &mut m).unwrap(), b"v");
    }

    #[test]
    fn lookup_under_churn_without_stabilize_still_terminates() {
        let mut r = ring(128);
        // Take a third of the ring offline without stabilizing.
        let ids = r.node_ids();
        for (i, &id) in ids.iter().enumerate() {
            if i % 3 == 0 {
                r.set_online(id, false);
            }
        }
        let from = ids.iter().copied().find(|&n| r.is_online(n)).unwrap();
        let mut m = Metrics::new();
        for i in 0..20 {
            let key = Key::hash(format!("churny-{i}").as_bytes());
            let owner = r.lookup(from, key, &mut m).unwrap();
            assert!(r.is_online(owner), "lookup must land on a live node");
        }
    }

    #[test]
    fn memory_stays_compact_per_node() {
        let r = ring(4096);
        // Lazy tables: no 64-entry finger array per node; the arena plus
        // routing snapshot is ~17 bytes/node.
        let per_node = r.memory_bytes() / r.node_count();
        assert!(per_node <= 64, "{per_node} bytes/node");
    }

    /// One type, two access paths, one placement: what the replicated
    /// store puts through the plane methods, a routed `get` finds from
    /// every node, and what a routed `store` writes, the store reads back.
    #[test]
    fn routed_and_plane_access_agree_on_placement() {
        use crate::replication::ReplicatedStore;
        let mut store = ReplicatedStore::new(ChordPlane::build(64, 7).with_replicas(3), 3);
        let mut m = Metrics::new();
        let value = |tag: &str, i: u64| format!("{tag} {i}").into_bytes();
        for i in 0..50 {
            let key = Key::hash(format!("placed-{i}").as_bytes());
            store.put(key, value("placed", i), &mut m).unwrap();
        }
        let readers = store.plane().node_ids();
        for i in 0..50 {
            let key = Key::hash(format!("placed-{i}").as_bytes());
            for &reader in &readers {
                let got = store.plane_mut().get(reader, key, &mut m).unwrap();
                assert_eq!(got, value("placed", i), "key {i} from {reader}");
            }
        }
        for i in 0..50 {
            let key = Key::hash(format!("routed-{i}").as_bytes());
            let ring = store.plane_mut();
            let from = ring.random_node(i);
            ring.store(from, key, value("routed", i), &mut m).unwrap();
            assert_eq!(store.get(key, &mut m).unwrap(), value("routed", i));
        }
    }
}
