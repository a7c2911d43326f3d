//! The storage plane: one trait over every overlay organization.
//!
//! The survey's §II-B treats the overlay (structured DHT, semi-structured
//! super-peers, server federation…) as an interchangeable substrate under
//! the same security layers, and LibreSocial's layered framework shows a
//! production P2P OSN is built exactly that way: a replicated storage plane
//! beneath pluggable security components. Each overlay family is one type
//! that implements [`StoragePlane`] in its own module —
//! [`crate::chord::ChordPlane`], [`crate::kademlia::KademliaPlane`],
//! [`crate::superpeer::SuperPeerPlane`] and
//! [`crate::federation::FederationPlane`] — so upper layers, notably
//! [`crate::replication::ReplicatedStore`] and the `dosn-core` request
//! engine, run unchanged over any of them.
//!
//! The trait decomposes storage into *placement* and *access*:
//! [`StoragePlane::replica_candidates`] answers "which online nodes should
//! hold this key?" (routing/lookup cost is accounted in the metrics), and
//! [`StoragePlane::store_at`] / [`StoragePlane::fetch_from`] move bytes to
//! and from one specific holder. The split is what lets a single
//! replication layer implement R-way placement, quorum reads, and
//! read-repair over every overlay geometry.

use crate::arena::Holders;
use crate::chord::DhtError;
use crate::hotcache::HotCache;
use crate::id::{Key, NodeId};
use crate::metrics::Metrics;

/// Errors from storage-plane operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The plane has no online nodes.
    NoNodes,
    /// The addressed node does not exist.
    UnknownNode(NodeId),
    /// The addressed node is offline.
    NodeOffline(NodeId),
    /// No live replica holds the key.
    NotFound(Key),
    /// Fewer verifying copies than the read quorum requires.
    QuorumFailed {
        /// The key being read.
        key: Key,
        /// Verifying copies obtained.
        have: usize,
        /// Copies the quorum requires.
        need: usize,
    },
    /// A backend-specific failure.
    Backend(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::NoNodes => f.write_str("storage plane has no online nodes"),
            StorageError::UnknownNode(n) => write!(f, "unknown storage node {n}"),
            StorageError::NodeOffline(n) => write!(f, "storage node {n} is offline"),
            StorageError::NotFound(k) => write!(f, "no live replica holds {k}"),
            StorageError::QuorumFailed { key, have, need } => {
                write!(
                    f,
                    "read quorum failed for {key}: {have}/{need} verifying copies"
                )
            }
            StorageError::Backend(what) => write!(f, "storage backend failure: {what}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<DhtError> for StorageError {
    fn from(e: DhtError) -> Self {
        match e {
            DhtError::NoNodes => StorageError::NoNodes,
            DhtError::Unavailable(k) => StorageError::NotFound(k),
            DhtError::UnknownNode(n) => StorageError::UnknownNode(n),
        }
    }
}

/// A pluggable overlay storage backend: key-addressed blob placement and
/// access over one of the survey's §II-B organizations.
///
/// Implementations must keep [`StoragePlane::replica_candidates`]
/// *deterministic for a fixed key and membership*: readers and writers
/// derive placement independently, so the same key must map to the same
/// preference-ordered holder list until churn changes the online set.
///
/// Every plane keeps one [`Holders`] table — members, online set, held
/// blobs and hot cache — and the trait splits on it:
///
/// * **Provided, never overridden:** [`StoragePlane::node_count`],
///   [`StoragePlane::node_ids`], [`StoragePlane::is_online`],
///   [`StoragePlane::online_count`], [`StoragePlane::hot_cache`],
///   [`StoragePlane::hot_cache_mut`] and [`StoragePlane::enable_hot_cache`]
///   read or change the table and nothing else, so a plane that wraps
///   another forwards [`StoragePlane::holders`] and
///   [`StoragePlane::holders_mut`] and gets all seven — its inner plane's
///   cache included.
/// * **Required:** [`StoragePlane::name`],
///   [`StoragePlane::replica_candidates`], [`StoragePlane::set_online`],
///   [`StoragePlane::store_at`] and [`StoragePlane::fetch_from`]. Some
///   planes add a side effect to these — the ring marks a churned node for
///   its next stabilize round, the super-peer publishes each stored
///   holder to its index, the adversary forges what it serves — and a
///   default would let a wrapper skip its inner plane's side effect
///   without a word. A family implements each as one call into its
///   table plus its side effect; a wrapper forwards each to the plane it
///   wraps.
pub trait StoragePlane: std::fmt::Debug {
    /// Short backend name for reports ("chord", "kademlia", "superpeer",
    /// "federation").
    fn name(&self) -> &'static str;

    /// The plane's holder table (a wrapper returns its inner plane's).
    fn holders(&self) -> &Holders;

    /// The plane's holder table, mutably (a wrapper returns its inner
    /// plane's).
    fn holders_mut(&mut self) -> &mut Holders;

    /// Marks a node online/offline (churn / crash injection). A node the
    /// plane does not have is ignored.
    fn set_online(&mut self, node: NodeId, online: bool);

    /// Up to `want` *online* nodes that should hold `key`'s replicas, in
    /// preference order, accounting any routing cost in `metrics`.
    ///
    /// # Errors
    ///
    /// [`StorageError::NoNodes`] when every node is offline.
    fn replica_candidates(
        &mut self,
        key: Key,
        want: usize,
        metrics: &mut Metrics,
    ) -> Result<Vec<NodeId>, StorageError>;

    /// Stores `value` under `key` on one specific node.
    ///
    /// # Errors
    ///
    /// [`StorageError::UnknownNode`] for a node the plane does not have,
    /// [`StorageError::NodeOffline`] for a member that is down.
    fn store_at(
        &mut self,
        node: NodeId,
        key: Key,
        value: &[u8],
        metrics: &mut Metrics,
    ) -> Result<(), StorageError>;

    /// Fetches `key` from one specific node; `Ok(None)` when the node is
    /// reachable but does not hold the key.
    ///
    /// # Errors
    ///
    /// [`StorageError::UnknownNode`] for a node the plane does not have,
    /// [`StorageError::NodeOffline`] for a member that is down.
    fn fetch_from(
        &mut self,
        node: NodeId,
        key: Key,
        metrics: &mut Metrics,
    ) -> Result<Option<Vec<u8>>, StorageError>;

    /// Total nodes (online and offline).
    fn node_count(&self) -> usize {
        self.holders().arena().len()
    }

    /// All node ids, in id order.
    fn node_ids(&self) -> Vec<NodeId> {
        let ids = self.holders().arena().ids();
        ids.iter().map(|&id| NodeId(id)).collect()
    }

    /// Whether `node` is online.
    fn is_online(&self, node: NodeId) -> bool {
        self.holders().arena().is_online(node.0)
    }

    /// Online node count.
    fn online_count(&self) -> usize {
        self.holders().arena().online_len()
    }

    /// The plane's hot envelope cache, if caching is enabled (see
    /// [`HotCache`]).
    fn hot_cache(&self) -> Option<&HotCache> {
        self.holders().hot.as_ref()
    }

    /// The plane's hot envelope cache, mutably.
    fn hot_cache_mut(&mut self) -> Option<&mut HotCache> {
        self.holders_mut().hot.as_mut()
    }

    /// Enables hot-post caching with the plane's native admission policy:
    /// super-peers host every verified envelope (Supernova-style),
    /// Chord/Kademlia replicas admit by a seeded gossip coin
    /// (Cachet-style), and federation pods, which mirror everything
    /// already, ignore the call.
    fn enable_hot_cache(&mut self, capacity: usize, seed: u64) {
        self.holders_mut().start_cache(capacity, seed);
    }
}

impl<T: StoragePlane + ?Sized> StoragePlane for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn holders(&self) -> &Holders {
        (**self).holders()
    }

    fn holders_mut(&mut self) -> &mut Holders {
        (**self).holders_mut()
    }

    fn set_online(&mut self, node: NodeId, online: bool) {
        (**self).set_online(node, online);
    }

    fn replica_candidates(
        &mut self,
        key: Key,
        want: usize,
        metrics: &mut Metrics,
    ) -> Result<Vec<NodeId>, StorageError> {
        (**self).replica_candidates(key, want, metrics)
    }

    fn store_at(
        &mut self,
        node: NodeId,
        key: Key,
        value: &[u8],
        metrics: &mut Metrics,
    ) -> Result<(), StorageError> {
        (**self).store_at(node, key, value, metrics)
    }

    fn fetch_from(
        &mut self,
        node: NodeId,
        key: Key,
        metrics: &mut Metrics,
    ) -> Result<Option<Vec<u8>>, StorageError> {
        (**self).fetch_from(node, key, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chord::ChordPlane;
    use crate::federation::FederationPlane;
    use crate::kademlia::KademliaPlane;
    use crate::superpeer::SuperPeerPlane;

    fn planes() -> Vec<Box<dyn StoragePlane>> {
        vec![
            Box::new(ChordPlane::build(32, 7)),
            Box::new(KademliaPlane::build(32, 20, 7)),
            Box::new(SuperPeerPlane::build(32, 4, 7)),
            Box::new(FederationPlane::build(8)),
        ]
    }

    #[test]
    fn every_plane_roundtrips_single_copy() {
        for mut plane in planes() {
            let mut m = Metrics::new();
            let key = Key::hash(b"plane-roundtrip");
            // Route, store one copy; route again, fetch it back.
            let holder = plane.replica_candidates(key, 1, &mut m).unwrap()[0];
            plane.store_at(holder, key, b"value", &mut m).unwrap();
            let holder = plane.replica_candidates(key, 1, &mut m).unwrap()[0];
            let got = plane.fetch_from(holder, key, &mut m).unwrap();
            assert_eq!(got.as_deref(), Some(&b"value"[..]), "{}", plane.name());
            assert!(m.messages > 0, "{} accounted no messages", plane.name());
        }
    }

    #[test]
    fn candidates_are_deterministic_and_online() {
        for mut plane in planes() {
            let key = Key::hash(b"placement");
            let mut m = Metrics::new();
            let a = plane.replica_candidates(key, 3, &mut m).unwrap();
            let b = plane.replica_candidates(key, 3, &mut m).unwrap();
            assert_eq!(a, b, "{}: placement must be deterministic", plane.name());
            assert_eq!(a.len(), 3, "{}", plane.name());
            for n in &a {
                assert!(plane.is_online(*n), "{}", plane.name());
            }
        }
    }

    #[test]
    fn candidates_shift_when_holder_crashes() {
        for mut plane in planes() {
            let key = Key::hash(b"crash-shift");
            let mut m = Metrics::new();
            // A plane's own count must be what the membership scan says.
            let scan =
                |p: &dyn StoragePlane| p.node_ids().iter().filter(|&&n| p.is_online(n)).count();
            assert_eq!(plane.online_count(), scan(&*plane));
            let before = plane.replica_candidates(key, 3, &mut m).unwrap();
            plane.set_online(before[0], false);
            assert_eq!(plane.online_count(), scan(&*plane));
            let after = plane.replica_candidates(key, 3, &mut m).unwrap();
            assert!(
                !after.contains(&before[0]),
                "{}: offline node must leave the candidate set",
                plane.name()
            );
        }
    }

    #[test]
    fn offline_and_unknown_nodes_are_distinct_typed_errors() {
        for mut plane in planes() {
            let name = plane.name();
            let key = Key::hash(b"offline-fetch");
            let mut m = Metrics::new();
            let node = plane.replica_candidates(key, 1, &mut m).unwrap()[0];
            plane.store_at(node, key, b"v", &mut m).unwrap();
            plane.set_online(node, false);
            let offline = Err(StorageError::NodeOffline(node));
            assert_eq!(plane.fetch_from(node, key, &mut m), offline, "{name}");
            // A node the plane lacks: churn is a no-op, access is `UnknownNode`.
            let ghost = NodeId(u64::MAX - 1);
            let online = plane.online_count();
            plane.set_online(ghost, true);
            assert_eq!(plane.online_count(), online, "{name}");
            let unknown = StorageError::UnknownNode(ghost);
            let stored = plane.store_at(ghost, key, b"v", &mut m);
            assert_eq!(stored.unwrap_err(), unknown, "{name}");
            let fetched = plane.fetch_from(ghost, key, &mut m);
            assert_eq!(fetched.unwrap_err(), unknown, "{name}");
        }
    }

    #[test]
    fn missing_key_is_none_not_error() {
        for mut plane in planes() {
            let key = Key::hash(b"missing");
            let mut m = Metrics::new();
            let node = plane.replica_candidates(key, 1, &mut m).unwrap()[0];
            assert_eq!(plane.fetch_from(node, key, &mut m).unwrap(), None);
        }
    }

    #[test]
    fn all_offline_is_no_nodes() {
        for mut plane in planes() {
            for n in plane.node_ids() {
                plane.set_online(n, false);
            }
            let mut m = Metrics::new();
            assert!(matches!(
                plane.replica_candidates(Key::hash(b"x"), 1, &mut m),
                Err(StorageError::NoNodes)
            ));
        }
    }

    #[test]
    fn error_display_is_descriptive() {
        let e = StorageError::QuorumFailed {
            key: Key::hash(b"k"),
            have: 1,
            need: 2,
        };
        assert!(e.to_string().contains("1/2"));
        assert!(StorageError::NoNodes.to_string().contains("no online"));
    }
}
