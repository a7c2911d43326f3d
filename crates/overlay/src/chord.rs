//! Structured overlay: a Chord distributed hash table (survey §II-B,
//! "structured").
//!
//! "Most of the recent DOSNs use structured organization and distributed
//! hash tables for the lookup service" — PrPl, PeerSoN, Safebook, Cachet.
//! This module implements Chord's ring geometry: 64-bit identifiers, finger
//! routing with up to 64 entries, short successor lists, and greedy
//! closest-preceding-finger routing. Lookups route *only* through each
//! node's local view and report hop/message metrics, which is what
//! experiment E5 measures. How many copies a key gets, and how a read votes
//! on them, is [`crate::replication::ReplicatedStore`]'s business: the ring
//! answers placement ([`StoragePlane::replica_candidates`]: the key's
//! successor chain) and one-node access.
//!
//! # Scale architecture
//!
//! Per-node state is gone. Membership (one sorted id array + online
//! bitmap) and stored blobs live in the ring's [`Holders`] table. Finger
//! tables and successor lists are *lazy*: every eager table was derived
//! from the same sorted-online-ids snapshot anyway, so the overlay keeps
//! that snapshot (`routing`, refreshed by [`ChordPlane::stabilize`]) and
//! answers `finger[i]`/`successor` queries with binary searches at lookup
//! time — identical routing decisions, O(1) bytes per node instead of
//! 64×8-byte finger arrays. Stabilize itself
//! only charges maintenance for *dirty* (churned/joined) nodes plus a small
//! refresh sample, per the satellite fix: idle nodes no longer pay
//! O(log²n) every round.

use crate::arena::{Admission, Holders};
use crate::fault::{hop_latency_ms, LinkFaults};
use crate::id::{in_interval_open_closed, ring_distance, Key, NodeId};
use crate::metrics::Metrics;
use crate::storage::{StorageError, StoragePlane};
use dosn_obs::names;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const FINGER_BITS: usize = 64;

/// Entries in each node's successor list: the first live one ends a route.
const SUCC_LIST_LEN: usize = 2;

/// Errors from DHT operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DhtError {
    /// The overlay has no online nodes to route through.
    NoNodes,
    /// The key's holders, or a link on the route to them, cannot be reached.
    Unavailable(Key),
    /// The named node does not exist (or, as a lookup's start, is offline).
    UnknownNode(NodeId),
}

impl std::fmt::Display for DhtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DhtError::NoNodes => f.write_str("overlay has no online nodes"),
            DhtError::Unavailable(k) => write!(f, "all replicas for {k} are offline"),
            DhtError::UnknownNode(n) => write!(f, "unknown node {n}"),
        }
    }
}

impl std::error::Error for DhtError {}

/// A Chord ring, and the [`StoragePlane`] over it: replicas at the key's
/// successor chain, lookups routed through finger tables (hops accounted).
///
/// The ring stores nothing on its own initiative: a replicated write or a
/// quorum read is a [`ReplicatedStore`](crate::replication::ReplicatedStore)
/// over the ring, which asks it for candidates and writes or fetches each
/// copy through the plane methods.
///
/// ```
/// use dosn_overlay::chord::ChordPlane;
/// use dosn_overlay::id::Key;
/// use dosn_overlay::metrics::Metrics;
/// use dosn_overlay::replication::ReplicatedStore;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut store = ReplicatedStore::new(ChordPlane::build(64, 42), 3);
/// let mut metrics = Metrics::new();
/// let key = Key::hash(b"alice/profile");
/// store.put(key, b"profile-data".to_vec(), &mut metrics)?;
/// assert_eq!(store.get(key, &mut metrics)?, b"profile-data");
/// // The put and the read each route one O(log n) lookup:
/// assert!(metrics.count("chord.hop") <= 2 * 6 + 2);
/// # Ok(())
/// # }
/// ```
pub struct ChordPlane {
    /// Membership (sorted ring ids + online set), blobs and hot cache.
    holders: Holders,
    /// Sorted online-id snapshot from the last table build (build, join,
    /// leave, or stabilize). All finger/successor answers derive from it.
    routing: Vec<u64>,
    /// Nodes churned or joined since the last stabilize round; only these
    /// (plus a refresh sample) are charged maintenance messages.
    dirty: BTreeSet<u64>,
    /// Cursor for the round-robin idle-refresh sample.
    refresh_cursor: usize,
    rng: StdRng,
}

impl std::fmt::Debug for ChordPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChordPlane({} nodes)", self.node_count())
    }
}

impl ChordPlane {
    /// Builds a ring of `n` nodes with random ids.
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
            // Cachet-style gossip admission: a ring replica caches about
            // half the verified envelopes it sees, by a seeded coin per key.
            holders: Holders::new(
                sorted,
                names::CHORD_STORE,
                names::CHORD_FETCH,
                Admission::Coin(128),
            ),
            dirty,
            refresh_cursor: 0,
            rng,
        }
    }

    /// Estimated resident bytes of membership, routing snapshot, and
    /// storage — the E15 memory-per-node denominator.
    pub fn memory_bytes(&self) -> usize {
        self.holders.memory_bytes()
            + self.routing.capacity() * 8
            + self.dirty.len() * 32
            + std::mem::size_of::<Self>()
    }

    /// A deterministic "random" online node for workload driving; `None`
    /// when every node is offline.
    pub fn random_node(&self, salt: u64) -> Option<NodeId> {
        self.holders.random_node(salt)
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
        let arena = self.holders.arena();
        self.routing = arena.online_ids();
        let n = arena.len();
        let n_online = arena.online_len() as u64;
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
            if !self.holders.arena().contains(candidate) {
                break candidate;
            }
        };
        self.holders.insert(id);
        self.dirty.insert(id);
        self.routing = self.holders.arena().online_ids();
        NodeId(id)
    }

    /// Permanently removes a node (its stored replicas are lost, as with an
    /// ungraceful departure).
    pub fn leave(&mut self, node: NodeId) {
        if self.holders.remove(node.0) {
            self.dirty.remove(&node.0);
            self.routing = self.holders.arena().online_ids();
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
        if !self.is_online(from) {
            return Err(DhtError::UnknownNode(from));
        }
        let mut current = from.0;
        let mut hops = 0u64;
        // 64-bit ring: any correct greedy route is <= 64 hops; a generous
        // cap guards against routing loops under heavy churn.
        let cap = 2 * FINGER_BITS as u64 + self.node_count() as u64;
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
                    let lat = hop_latency_ms(&mut self.rng);
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
            let lat = hop_latency_ms(&mut self.rng);
            metrics.record(names::CHORD_HOP, 64, lat);
            current = next;
            hops += 1;
            if hops > cap {
                // Routing loop under churn: fall back to the true owner and
                // account one stabilization's worth of repair traffic.
                let owner = self.successors(key, 1).pop();
                let owner = owner.ok_or(DhtError::NoNodes)?;
                metrics.record(names::CHORD_REPAIR, 64, hop_latency_ms(&mut self.rng));
                return Ok(owner);
            }
        }
    }

    /// The `want` online nodes that should hold `key`'s replicas: its owner
    /// (clockwise successor) followed by the next online nodes in ring
    /// order. Empty when every node is offline.
    fn successors(&self, key: Key, want: usize) -> Vec<NodeId> {
        let start = self.holders.arena().partition_point(key.0);
        self.holders.scan_online(start, want)
    }

    /// First currently-online entry of `id`'s successor list. The list is
    /// the [`SUCC_LIST_LEN`] consecutive routing-snapshot entries after `id`
    /// — exactly what the eager per-node lists contained.
    fn first_live_successor(&self, id: u64) -> Option<u64> {
        if !self.routing.is_empty() {
            let succ_list_len = SUCC_LIST_LEN.min(self.routing.len());
            let start = self
                .routing
                .partition_point(|&s| s < id.wrapping_add(1).max(1));
            // wrapping_add(1) overflows only for id == u64::MAX, whose
            // successor is the smallest snapshot id — partition_point(0)=0.
            let start = if id == u64::MAX { 0 } else { start };
            for k in 0..succ_list_len {
                let s = self.routing[(start + k) % self.routing.len()];
                if self.holders.arena().is_online(s) {
                    return Some(s);
                }
            }
        }
        if self.holders.arena().is_online(id) {
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
                && self.holders.arena().is_online(f)
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

    fn holders(&self) -> &Holders {
        &self.holders
    }

    fn holders_mut(&mut self) -> &mut Holders {
        &mut self.holders
    }

    /// Routing snapshots are not refreshed: routing must cope, as in a
    /// real deployment between stabilization rounds.
    fn set_online(&mut self, node: NodeId, online: bool) {
        if self.holders.set_online(node, online) {
            self.dirty.insert(node.0);
        }
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
        let from = self.random_node(key.0).ok_or(StorageError::NoNodes)?;
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
        self.holders.store_at(node, key, value, metrics)
    }

    fn fetch_from(
        &mut self,
        node: NodeId,
        key: Key,
        metrics: &mut Metrics,
    ) -> Result<Option<Vec<u8>>, StorageError> {
        self.holders.fetch_from(node, key, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::ReplicatedStore;

    fn ring(n: usize) -> ChordPlane {
        ChordPlane::build(n, 7)
    }

    fn replicated(n: usize) -> ReplicatedStore<ChordPlane> {
        ReplicatedStore::new(ring(n), 3)
    }

    #[test]
    fn store_and_get_roundtrip() {
        let mut store = replicated(32);
        let mut m = Metrics::new();
        let key = Key::hash(b"post:1");
        store.put(key, b"hello".to_vec(), &mut m).unwrap();
        assert_eq!(store.get(key, &mut m).unwrap(), b"hello");
    }

    /// A node that is down while a key is written gets no copy: the write
    /// goes to the live successor that takes its place, so the node has
    /// nothing to serve when it comes back.
    #[test]
    fn a_node_offline_during_the_write_holds_no_copy() {
        let mut store = replicated(32);
        let mut m = Metrics::new();
        let key = Key::hash(b"written-while-down");
        let candidates = store
            .plane_mut()
            .replica_candidates(key, 3, &mut m)
            .unwrap();
        let down = candidates[1];
        store.plane_mut().set_online(down, false);
        let holders = store.put(key, vec![118], &mut m).unwrap();
        assert_eq!(holders.len(), 3);
        assert!(!holders.contains(&down));
        store.plane_mut().set_online(down, true);
        assert_eq!(store.plane_mut().fetch_from(down, key, &mut m), Ok(None));
    }

    #[test]
    fn lookup_converges_to_same_owner_from_any_start() {
        let mut r = ring(64);
        let key = Key::hash(b"content");
        let mut owners = std::collections::HashSet::new();
        for salt in 0..10 {
            let mut m = Metrics::new();
            let from = r.random_node(salt).unwrap();
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
            let from = r.random_node(i).unwrap();
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
        let mut store = replicated(16);
        let mut m = Metrics::new();
        let err = store.get(Key::hash(b"never stored"), &mut m).unwrap_err();
        assert!(matches!(err, StorageError::NotFound(_)));
    }

    #[test]
    fn not_found_when_all_replicas_offline() {
        let mut store = ReplicatedStore::new(ChordPlane::build(16, 3), 2).with_quorum(1);
        let mut m = Metrics::new();
        let key = Key::hash(b"fragile");
        for holder in store.put(key, b"v".to_vec(), &mut m).unwrap() {
            store.plane_mut().set_online(holder, false);
        }
        let err = store.get(key, &mut m).unwrap_err();
        assert!(matches!(err, StorageError::NotFound(_)), "{err:?}");
    }

    #[test]
    fn join_changes_membership_and_routing_still_works() {
        let mut store = replicated(8);
        let before = store.plane().node_count();
        let newcomer = store.plane_mut().join();
        assert_eq!(store.plane().node_count(), before + 1);
        let mut m = Metrics::new();
        let key = Key::hash(b"after-join");
        store.plane_mut().lookup(newcomer, key, &mut m).unwrap();
        store.put(key, b"x".to_vec(), &mut m).unwrap();
        assert_eq!(store.get(key, &mut m).unwrap(), b"x");
    }

    #[test]
    fn leave_removes_node() {
        let mut store = replicated(8);
        let victim = store.plane().random_node(3).unwrap();
        store.plane_mut().leave(victim);
        assert_eq!(store.plane().node_count(), 7);
        let mut m = Metrics::new();
        let key = Key::hash(b"post-leave");
        let holders = store.put(key, b"y".to_vec(), &mut m).unwrap();
        assert!(!holders.contains(&victim));
        assert_eq!(store.get(key, &mut m).unwrap(), b"y");
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
        let mut store = ReplicatedStore::new(ChordPlane::build(1, 1), 1);
        let mut m = Metrics::new();
        let only = store.plane().random_node(0).unwrap();
        let key = Key::hash(b"solo");
        assert_eq!(store.plane_mut().lookup(only, key, &mut m).unwrap(), only);
        assert_eq!(store.put(key, b"v".to_vec(), &mut m).unwrap(), [only]);
        assert_eq!(store.get(key, &mut m).unwrap(), b"v");
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
}
