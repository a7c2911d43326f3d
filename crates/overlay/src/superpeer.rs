//! Semi-structured overlay: super-peers (survey §II-B, "semi-structured").
//!
//! "Semi-structured DOSN makes use of super peers, which are a subset of all
//! users who are responsible for storing the index and managing other users
//! as proposed in Supernova" — including "tracking of users' up-time to find
//! the best places for replication". Here, peers with the highest announced
//! uptime are elected super-peers; each ordinary peer attaches to one
//! super-peer; super-peers hold the content index and answer queries in at
//! most three hops (leaf → super → super → leaf).

use crate::arena::{Admission, Holders};
use crate::fault::{hop_latency_ms, LinkFaults, PLANE_HOP_MS};
use crate::id::{Key, NodeId};
use crate::metrics::Metrics;
use crate::storage::{StorageError, StoragePlane};
use dosn_obs::names;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A peer in the super-peer overlay (its online flag is in the plane's
/// [`Holders`] table, under the peer's index).
#[derive(Debug, Clone)]
struct Peer {
    /// Announced uptime fraction in `[0, 1]`; the election criterion.
    uptime: f64,
    /// `Some(super_id)` for leaves; `None` for super-peers.
    attached_to: Option<NodeId>,
}

/// The Supernova-style super-peer overlay, and the [`StoragePlane`] over it:
/// blobs are hosted on a deterministic scan of online peers, and the
/// super-peer index is kept up to date so plain [`SuperPeerPlane::search`]
/// still finds holders.
///
/// ```
/// use dosn_overlay::superpeer::SuperPeerPlane;
/// use dosn_overlay::id::{Key, NodeId};
/// use dosn_overlay::metrics::Metrics;
///
/// let mut net = SuperPeerPlane::build(100, 10, 21);
/// net.publish(NodeId(42), Key::hash(b"photo"));
/// let mut m = Metrics::new();
/// let holder = net.search(NodeId(7), Key::hash(b"photo"), &mut m);
/// assert_eq!(holder, Some(NodeId(42)));
/// assert!(m.messages <= 4, "super-peer search is a constant number of hops");
/// ```
pub struct SuperPeerPlane {
    peers: Vec<Peer>,
    supers: Vec<NodeId>,
    /// Per super-peer: key -> holders, each listed once (the distributed
    /// index).
    index: HashMap<NodeId, HashMap<u64, Vec<NodeId>>>,
    /// The online set over peer indices `0..n`, the content blobs hosted
    /// across all peers (the index on the super-peers points searchers at
    /// holders; holders keep the bytes) and the hot cache.
    holders: Holders,
    rng: StdRng,
}

impl std::fmt::Debug for SuperPeerPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SuperPeerPlane({} peers, {} supers)",
            self.peers.len(),
            self.supers.len()
        )
    }
}

impl SuperPeerPlane {
    /// Builds `n` peers and elects the `supers` highest-uptime ones as
    /// super-peers; every leaf attaches to a deterministic super-peer.
    ///
    /// # Panics
    ///
    /// Panics if `supers == 0` or `supers > n`.
    pub fn build(n: usize, supers: usize, seed: u64) -> Self {
        assert!(supers >= 1 && supers <= n, "invalid super-peer count");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut peers: Vec<Peer> = (0..n)
            .map(|_| Peer {
                uptime: rng.random_range(0.05..1.0),
                attached_to: None,
            })
            .collect();
        // Election: the highest-uptime peers become super-peers (Supernova's
        // uptime-tracking criterion).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            peers[b]
                .uptime
                .partial_cmp(&peers[a].uptime)
                .expect("uptime is finite")
        });
        let super_ids: Vec<NodeId> = order[..supers].iter().map(|&i| NodeId(i as u64)).collect();
        for (i, peer) in peers.iter_mut().enumerate() {
            let id = NodeId(i as u64);
            if !super_ids.contains(&id) {
                let chosen = super_ids[i % super_ids.len()];
                peer.attached_to = Some(chosen);
            }
        }
        let index = super_ids.iter().map(|&s| (s, HashMap::new())).collect();
        // Supernova-style hosting: the super-peer tier caches every
        // verified envelope it serves (no admission coin).
        let ids = (0..n as u64).collect();
        SuperPeerPlane {
            peers,
            supers: super_ids,
            index,
            holders: Holders::new(ids, names::SUPER_STORE, names::SUPER_FETCH, Admission::All),
            rng,
        }
    }

    /// The super-peer responsible for indexing `key` (by hash partition).
    fn index_home(&self, key: Key) -> NodeId {
        self.supers[(key.0 as usize) % self.supers.len()]
    }

    /// The super-peer a node talks to (itself if it is one); `None` for a
    /// node the overlay does not have.
    pub fn super_of(&self, node: NodeId) -> Option<NodeId> {
        let peer = self.peers.get(node.0 as usize)?;
        Some(peer.attached_to.unwrap_or(node))
    }

    /// Announces that `holder` stores `key`: the index entry is placed on
    /// the responsible super-peer (2 messages: leaf → own super → index
    /// home). A holder already listed for `key` is not listed again, so a
    /// rewrite or a read-repair leaves the index as it was.
    pub fn publish(&mut self, holder: NodeId, key: Key) {
        let home = self.index_home(key);
        let holders = self
            .index
            .get_mut(&home)
            .expect("home is a super-peer")
            .entry(key.0)
            .or_default();
        if !holders.contains(&holder) {
            holders.push(holder);
        }
    }

    /// Searches for `key`: leaf → its super-peer → index-home super-peer →
    /// answer. Message count is constant (≤ 3 on-path + 1 reply). `None`
    /// when `from` is unknown or offline.
    pub fn search(&mut self, from: NodeId, key: Key, metrics: &mut Metrics) -> Option<NodeId> {
        self.walk(from, key, metrics, None)
    }

    /// [`SuperPeerPlane::search`] over lossy links: each of the three
    /// on-path transmissions (leaf → own super, own super → index home,
    /// answer back) may fail and is retried up to `retries` extra times
    /// (counted as `super.retry`). The constant-hop design means there is
    /// no alternate route: an uncrossable link fails the whole search,
    /// which is exactly the fragility the semi-structured family trades
    /// for its low message count.
    pub fn search_with_faults(
        &mut self,
        from: NodeId,
        key: Key,
        metrics: &mut Metrics,
        faults: &mut LinkFaults,
        retries: u32,
    ) -> Option<NodeId> {
        self.walk(from, key, metrics, Some((faults, retries)))
    }

    /// The overlay's one search walk, behind both entry points above. With
    /// `link == None` every transmission delivers and no `LinkFaults`
    /// exists.
    fn walk(
        &mut self,
        from: NodeId,
        key: Key,
        metrics: &mut Metrics,
        mut link: Option<(&mut LinkFaults, u32)>,
    ) -> Option<NodeId> {
        if !self.is_online(from) {
            return None;
        }
        let mut crosses = |a: NodeId, b: NodeId, metrics: &mut Metrics| {
            LinkFaults::hop(&mut link, a, b, metrics, names::SUPER_RETRY, 32)
        };
        let own_super = self.super_of(from)?;
        if own_super != from {
            if !crosses(from, own_super, metrics) {
                return None;
            }
            metrics.record(names::SUPER_QUERY, 32, hop_latency_ms(&mut self.rng));
        }
        if !self.is_online(own_super) {
            return None; // orphaned leaf while its super-peer is down
        }
        let home = self.index_home(key);
        if home != own_super {
            if !crosses(own_super, home, metrics) {
                return None;
            }
            metrics.record(names::SUPER_FORWARD, 32, hop_latency_ms(&mut self.rng));
        }
        if !self.is_online(home) || !crosses(home, from, metrics) {
            return None;
        }
        metrics.record(names::SUPER_ANSWER, 32, hop_latency_ms(&mut self.rng));
        self.index[&home]
            .get(&key.0)
            .and_then(|holders| holders.iter().copied().find(|h| self.is_online(*h)))
    }
}

impl StoragePlane for SuperPeerPlane {
    fn name(&self) -> &'static str {
        "superpeer"
    }

    fn holders(&self) -> &Holders {
        &self.holders
    }

    fn holders_mut(&mut self) -> &mut Holders {
        &mut self.holders
    }

    /// A failed super-peer takes its index partition offline.
    fn set_online(&mut self, node: NodeId, online: bool) {
        self.holders.set_online(node, online);
    }

    /// A deterministic forward scan from the key's hash position, so
    /// readers and writers agree on placement without consulting the
    /// index.
    fn replica_candidates(
        &mut self,
        key: Key,
        want: usize,
        metrics: &mut Metrics,
    ) -> Result<Vec<NodeId>, StorageError> {
        let candidates = self.holders.scan_online(key.0 as usize, want);
        if candidates.is_empty() {
            return Err(StorageError::NoNodes);
        }
        // Leaf → own super → index-home super: the constant-hop index
        // consultation that precedes any placement decision.
        metrics.record(names::SUPER_QUERY, 32, PLANE_HOP_MS);
        Ok(candidates)
    }

    /// Hosts the blob on `node` and publishes the index entry so searches
    /// can find it.
    fn store_at(
        &mut self,
        node: NodeId,
        key: Key,
        value: &[u8],
        metrics: &mut Metrics,
    ) -> Result<(), StorageError> {
        // Blob transfer to the holder, then the index publish hop.
        self.holders.store_at(node, key, value, metrics)?;
        self.publish(node, key);
        metrics.record_offpath(names::SUPER_PUBLISH, 32);
        Ok(())
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

    #[test]
    fn search_finds_published_content_in_constant_hops() {
        let mut net = SuperPeerPlane::build(200, 16, 1);
        let key = Key::hash(b"doc");
        net.publish(NodeId(100), key);
        let mut m = Metrics::new();
        assert_eq!(net.search(NodeId(5), key, &mut m), Some(NodeId(100)));
        assert!(m.messages <= 3);
    }

    #[test]
    fn miss_returns_none_cheaply() {
        let mut net = SuperPeerPlane::build(100, 8, 2);
        let mut m = Metrics::new();
        assert_eq!(net.search(NodeId(3), Key::hash(b"nope"), &mut m), None);
        assert!(m.messages <= 3);
    }

    #[test]
    fn election_prefers_high_uptime() {
        let net = SuperPeerPlane::build(100, 10, 3);
        let min_super_uptime = net
            .supers
            .iter()
            .map(|s| net.peers[s.0 as usize].uptime)
            .fold(f64::INFINITY, f64::min);
        let max_leaf_uptime = (0..100)
            .filter(|i| !net.supers.contains(&NodeId(*i)))
            .map(|i| net.peers[i as usize].uptime)
            .fold(0.0, f64::max);
        assert!(min_super_uptime >= max_leaf_uptime);
    }

    #[test]
    fn leaves_attach_to_supers() {
        let net = SuperPeerPlane::build(50, 5, 4);
        for i in 0..50 {
            let id = NodeId(i);
            let sup = net.super_of(id).unwrap();
            assert!(net.supers.contains(&sup));
            if net.supers.contains(&id) {
                assert_eq!(sup, id);
            }
        }
    }

    #[test]
    fn offline_holder_not_returned() {
        let mut net = SuperPeerPlane::build(50, 5, 5);
        let key = Key::hash(b"x");
        net.publish(NodeId(20), key);
        net.set_online(NodeId(20), false);
        let mut m = Metrics::new();
        assert_eq!(net.search(NodeId(1), key, &mut m), None);
    }

    #[test]
    fn a_failed_index_home_takes_its_partition_offline() {
        let mut net = SuperPeerPlane::build(60, 4, 6);
        let key = Key::hash(b"indexed");
        net.publish(NodeId(30), key);
        let home = net.index_home(key);
        net.set_online(home, false);
        // Choose a searcher whose own super is alive and != home.
        let searcher = (0..60)
            .map(NodeId)
            .find(|&n| {
                let s = net.super_of(n).unwrap();
                s != home && net.is_online(s) && net.is_online(n)
            })
            .expect("someone is attached elsewhere");
        let mut m = Metrics::new();
        assert_eq!(net.search(searcher, key, &mut m), None, "partition down");
    }

    #[test]
    fn multiple_holders_prefers_online_one() {
        let mut net = SuperPeerPlane::build(40, 4, 8);
        let key = Key::hash(b"popular");
        net.publish(NodeId(10), key);
        net.publish(NodeId(11), key);
        net.set_online(NodeId(10), false);
        let mut m = Metrics::new();
        assert_eq!(net.search(NodeId(2), key, &mut m), Some(NodeId(11)));
    }

    /// Regression: every `store_at` used to append its holder to the index
    /// again, so rewrites and read-repairs grew it without bound.
    #[test]
    fn rewrites_list_a_holder_once() {
        let mut net = SuperPeerPlane::build(16, 2, 3);
        let key = Key::hash(b"rewritten");
        let mut m = Metrics::new();
        let holder = net.replica_candidates(key, 1, &mut m).unwrap()[0];
        for round in 0..5u8 {
            net.store_at(holder, key, &[round], &mut m).unwrap();
        }
        let entries: usize = net
            .index
            .values()
            .flat_map(|p| p.values())
            .map(Vec::len)
            .sum();
        assert_eq!(entries, 1);
    }
}
