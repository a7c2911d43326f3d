//! Socially-aware replica placement over any [`StoragePlane`].
//!
//! Nasir et al. ("Socially-Aware Distributed Hash Tables for Decentralized
//! Online Social Networks", arXiv:1508.05591) show that placing a user's
//! replicas on friend and community nodes cuts lookup cost exactly when
//! reads follow the social graph — friends fetch your posts, and with
//! social placement the data already sits one social hop away instead of
//! O(log n) DHT hops.
//!
//! [`SocialPlane`] wraps any existing [`StoragePlane`] and re-orders
//! *placement only*: candidate replicas are drawn from the key owner's
//! friends and community, falling back to the wrapped plane's hash
//! placement for the shortfall. Access ([`StoragePlane::store_at`] /
//! [`StoragePlane::fetch_from`]), quorum semantics, and the replication
//! layer above are untouched — [`crate::replication::ReplicatedStore`]
//! runs over a [`SocialPlane`] unchanged.
//!
//! **Degradation guarantee**: with zero social edges every vertex has
//! degree 0, the social candidate list is always empty, and placement is
//! byte-identical to the wrapped plane's hash placement (same candidate
//! lists in the same order) — see `tests/placement_equivalence.rs`.

use crate::arena::Holders;
use crate::id::{Key, NodeId};
use crate::metrics::Metrics;
use crate::social::SocialGraph;
use crate::storage::{StorageError, StoragePlane};
use dosn_obs::names;
use std::collections::HashMap;

/// Maps keys to owner vertices and social vertices to overlay nodes.
#[derive(Debug, Clone)]
pub struct SocialPlacement {
    graph: SocialGraph,
    /// Vertex → overlay node, fixed at construction.
    node_of: Vec<NodeId>,
    /// Explicit key → owner-vertex assignments (workload-declared
    /// ownership); unassigned keys hash to a vertex.
    owners: HashMap<u64, u32>,
}

impl SocialPlacement {
    /// Binds a social graph to an overlay membership: vertex `v` lives on
    /// `node_ids[v % node_ids.len()]`.
    ///
    /// # Panics
    ///
    /// Panics when `node_ids` is empty.
    pub fn new(graph: SocialGraph, node_ids: &[NodeId]) -> Self {
        assert!(!node_ids.is_empty(), "placement needs at least one node");
        let node_of = (0..graph.nodes())
            .map(|v| node_ids[v % node_ids.len()])
            .collect();
        SocialPlacement {
            graph,
            node_of,
            owners: HashMap::new(),
        }
    }

    /// Declares `vertex` the owner of `key` (e.g. "this key is a post by
    /// user `vertex`"). Reads and writes of the key will prefer the
    /// owner's friends and community.
    ///
    /// # Panics
    ///
    /// Panics when `vertex` is out of range.
    pub fn assign_owner(&mut self, key: Key, vertex: u32) {
        assert!(
            (vertex as usize) < self.graph.nodes(),
            "vertex out of range"
        );
        self.owners.insert(key.0, vertex);
    }

    /// The owner vertex for `key`: the declared owner, else a hash of the
    /// key.
    pub fn owner_vertex(&self, key: Key) -> u32 {
        self.owners
            .get(&key.0)
            .copied()
            .unwrap_or((key.0 % self.graph.nodes() as u64) as u32)
    }

    /// The overlay node hosting `vertex`.
    pub fn node_of(&self, vertex: u32) -> NodeId {
        self.node_of[vertex as usize]
    }

    /// The bound social graph.
    pub fn graph(&self) -> &SocialGraph {
        &self.graph
    }

    /// Resident bytes of the placement state (graph + vertex map + owner
    /// table).
    pub fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
            + self.node_of.capacity() * std::mem::size_of::<NodeId>()
            + self.owners.capacity() * 16
            + std::mem::size_of::<Self>()
    }
}

/// A [`StoragePlane`] decorator that prefers friend/community replicas.
#[derive(Debug)]
pub struct SocialPlane<P: StoragePlane> {
    inner: P,
    placement: SocialPlacement,
}

impl<P: StoragePlane> SocialPlane<P> {
    /// Wraps `inner` with social placement.
    pub fn new(inner: P, placement: SocialPlacement) -> Self {
        SocialPlane { inner, placement }
    }

    /// The wrapped plane.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The wrapped plane, mutably.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// The placement policy.
    pub fn placement(&self) -> &SocialPlacement {
        &self.placement
    }

    /// The placement policy, mutably (to declare key owners).
    pub fn placement_mut(&mut self) -> &mut SocialPlacement {
        &mut self.placement
    }

    /// Online nodes hosting the owner, its friends, and its community
    /// co-members (vertices with at least one edge), in preference order,
    /// deduplicated, at most `want`. Empty when the owner has no social
    /// edges — the caller then falls back to hash placement.
    fn social_candidates(&self, key: Key, want: usize) -> Vec<NodeId> {
        let placement = &self.placement;
        let inner = &self.inner;
        let graph = placement.graph();
        let v = placement.owner_vertex(key);
        if graph.degree(v) == 0 {
            return Vec::new();
        }
        let mut out: Vec<NodeId> = Vec::with_capacity(want);
        let push = |out: &mut Vec<NodeId>, vertex: u32| -> bool {
            let node = placement.node_of(vertex);
            if inner.is_online(node) && !out.contains(&node) {
                out.push(node);
            }
            out.len() >= want
        };
        if push(&mut out, v) {
            return out;
        }
        for &f in graph.friends(v) {
            if push(&mut out, f) {
                return out;
            }
        }
        for m in graph.community_range(graph.community_of(v)) {
            if m != v && graph.degree(m) > 0 && push(&mut out, m) {
                return out;
            }
        }
        out
    }
}

impl<P: StoragePlane> StoragePlane for SocialPlane<P> {
    fn name(&self) -> &'static str {
        "social"
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
        let mut social = self.social_candidates(key, want);
        if social.is_empty() {
            // No social edges for this key's owner: byte-identical hash
            // placement (including error behavior).
            metrics.bump(names::PLACEMENT_FALLBACKS, 1);
            return self.inner.replica_candidates(key, want, metrics);
        }
        metrics.bump(names::PLACEMENT_SOCIAL_HITS, social.len() as u64);
        if social.len() < want {
            // Shortfall: top up from the wrapped plane's hash placement
            // (its routing cost is what the metrics should show).
            metrics.bump(names::PLACEMENT_FALLBACKS, 1);
            // A fallback failure is not fatal — social candidates exist,
            // so the shorter list is served.
            if let Ok(fallback) = self.inner.replica_candidates(key, want, metrics) {
                for node in fallback {
                    if !social.contains(&node) {
                        social.push(node);
                        if social.len() >= want {
                            break;
                        }
                    }
                }
            }
        }
        Ok(social)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chord::ChordPlane;
    use crate::social::SocialGraphConfig;

    fn social_plane(n: usize) -> SocialPlane<ChordPlane> {
        let plane = ChordPlane::build(n, 7);
        let graph = SocialGraph::generate(&SocialGraphConfig::new(n, 21));
        let placement = SocialPlacement::new(graph, &plane.node_ids());
        SocialPlane::new(plane, placement)
    }

    #[test]
    fn prefers_owner_and_friends() {
        let mut sp = social_plane(64);
        let key = Key::hash(b"alice/post/1");
        sp.placement_mut().assign_owner(key, 5);
        let mut m = Metrics::new();
        let got = sp.replica_candidates(key, 3, &mut m).unwrap();
        assert_eq!(got.len(), 3);
        // First candidate is the owner's own node (vertex 5 has friends in
        // a generated graph, so degree > 0).
        assert_eq!(got[0], sp.placement().node_of(5));
        assert!(m.count(names::PLACEMENT_SOCIAL_HITS) > 0);
    }

    #[test]
    fn skips_offline_friends() {
        let mut sp = social_plane(64);
        let key = Key::hash(b"bob/post/1");
        sp.placement_mut().assign_owner(key, 9);
        let owner_node = sp.placement().node_of(9);
        sp.set_online(owner_node, false);
        let mut m = Metrics::new();
        let got = sp.replica_candidates(key, 3, &mut m).unwrap();
        assert!(!got.contains(&owner_node));
        for n in &got {
            assert!(sp.is_online(*n));
        }
    }

    #[test]
    fn roundtrips_through_plane_api() {
        let mut sp = social_plane(32);
        let key = Key::hash(b"carol/photo");
        sp.placement_mut().assign_owner(key, 3);
        let mut m = Metrics::new();
        let holder = sp.replica_candidates(key, 1, &mut m).unwrap()[0];
        sp.store_at(holder, key, b"bytes", &mut m).unwrap();
        let holder = sp.replica_candidates(key, 1, &mut m).unwrap()[0];
        let got = sp.fetch_from(holder, key, &mut m).unwrap();
        assert_eq!(got.as_deref(), Some(&b"bytes"[..]));
    }

    #[test]
    fn empty_graph_falls_back_to_inner_placement() {
        let plane = ChordPlane::build(32, 7);
        let mut bare = ChordPlane::build(32, 7);
        let placement = SocialPlacement::new(SocialGraph::empty(32), &plane.node_ids());
        let mut sp = SocialPlane::new(plane, placement);
        for i in 0..20 {
            let key = Key::hash(format!("k{i}").as_bytes());
            let mut m1 = Metrics::new();
            let mut m2 = Metrics::new();
            let a = sp.replica_candidates(key, 3, &mut m1).unwrap();
            let b = bare.replica_candidates(key, 3, &mut m2).unwrap();
            assert_eq!(a, b);
            assert_eq!(m1.count(names::PLACEMENT_SOCIAL_HITS), 0);
        }
    }
}
