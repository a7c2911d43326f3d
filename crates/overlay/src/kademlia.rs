//! Kademlia: the second structured overlay (survey §II-B ablation).
//!
//! Most of the survey's structured DOSNs sit on a DHT; Chord and Kademlia
//! are the two canonical geometries (Cachet's DHT is Kademlia-based via
//! FreePastry-like routing; PeerSoN uses OpenDHT). Implementing both lets
//! experiment E5b compare ring-geometry greedy routing against XOR-metric
//! bucket routing under the identical workload.
//!
//! Implementation: 64-bit XOR metric, `k`-buckets per bit prefix, and
//! iterative lookup with α=3 parallelism (accounted, not simulated
//! concurrently). Replicas go to the XOR-closest online nodes, written and
//! read by [`crate::replication::ReplicatedStore`] through the plane
//! methods.
//!
//! # Scale architecture
//!
//! Buckets are *lazy*. Bucket `b` of node `id` is, by definition, the `k`
//! XOR-closest nodes whose distance to `id` has its highest set bit at
//! position `b` — and those nodes occupy one contiguous range of the sorted
//! id array (`[base, base + 2^b)` with `base = (id ^ 2^b)` masked below bit
//! `b`). So instead of materializing 64 `Vec`s per node (O(n·k·64) bytes),
//! the overlay keeps the single sorted id array of its [`Holders`] table
//! and answers bucket queries with two binary searches plus a bit-descent
//! that extracts the `k` XOR-smallest members — byte-identical contacts to
//! the eager tables. Stored blobs live in the same table.

use crate::arena::{Admission, Holders};
use crate::fault::LinkFaults;
use crate::id::{Key, NodeId};
use crate::metrics::Metrics;
use crate::sim::LatencyModel;
use crate::storage::{StorageError, StoragePlane};
use dosn_obs::names;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Lookup parallelism (classic Kademlia α).
const ALPHA: usize = 3;

/// Appends the `*remaining` XOR-closest ids to `refid` from a sorted slice
/// whose members all agree with each other above `bit` (a k-bucket range).
/// Within such a slice, ids matching `refid`'s value at `bit` are strictly
/// closer than those differing, so descending bit-by-bit enumerates ids in
/// exact XOR order without sorting.
fn take_closest(slice: &[u64], refid: u64, bit: i32, remaining: &mut usize, out: &mut Vec<u64>) {
    if *remaining == 0 || slice.is_empty() {
        return;
    }
    if slice.len() <= *remaining {
        out.extend_from_slice(slice);
        *remaining -= slice.len();
        return;
    }
    debug_assert!(bit >= 0, "slice of >1 id must still have bits to split");
    let mask = 1u64 << bit;
    let split = slice.partition_point(|&x| x & mask == 0);
    let (zeros, ones) = slice.split_at(split);
    let (near, far) = if refid & mask == 0 {
        (zeros, ones)
    } else {
        (ones, zeros)
    };
    take_closest(near, refid, bit - 1, remaining, out);
    take_closest(far, refid, bit - 1, remaining, out);
}

/// A Kademlia overlay, and the [`StoragePlane`] over it: replicas at the
/// XOR-closest online nodes, iterative α-parallel lookups accounted per
/// round.
///
/// ```
/// use dosn_overlay::kademlia::KademliaPlane;
/// use dosn_overlay::id::Key;
/// use dosn_overlay::metrics::Metrics;
/// use dosn_overlay::replication::ReplicatedStore;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut store = ReplicatedStore::new(KademliaPlane::build(128, 20, 9), 4);
/// let mut m = Metrics::new();
/// let key = Key::hash(b"profile");
/// assert_eq!(store.put(key, b"data".to_vec(), &mut m)?.len(), 4);
/// assert_eq!(store.get(key, &mut m)?, b"data");
/// # Ok(())
/// # }
/// ```
pub struct KademliaPlane {
    holders: Holders,
    k: usize,
    rng: StdRng,
}

impl std::fmt::Debug for KademliaPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KademliaPlane({} nodes, k={})",
            self.node_count(),
            self.k
        )
    }
}

impl KademliaPlane {
    /// Builds `n` nodes with bucket size `k`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` or `k == 0`.
    pub fn build(n: usize, k: usize, seed: u64) -> Self {
        assert!(n > 0 && k > 0, "invalid parameters");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids = BTreeSet::new();
        while ids.len() < n {
            ids.insert(rng.random::<u64>());
        }
        // Seeded gossip admission, as on the Chord plane: the XOR-closest
        // replicas cache a deterministic half of the verified envelopes.
        let ids = ids.into_iter().collect();
        KademliaPlane {
            holders: Holders::new(
                ids,
                names::KAD_STORE,
                names::KAD_FETCH,
                Admission::Coin(128),
            ),
            k,
            rng,
        }
    }

    /// Estimated resident bytes of membership and storage — the E15
    /// memory-per-node denominator.
    pub fn memory_bytes(&self) -> usize {
        self.holders.memory_bytes() + std::mem::size_of::<Self>()
    }

    /// A deterministic online node for workload driving; `None` when
    /// every node is offline.
    pub fn random_node(&self, salt: u64) -> Option<NodeId> {
        self.holders.random_node(salt)
    }

    /// The contacts of `id`'s bucket `b`: its `k` XOR-closest nodes whose
    /// distance to `id` peaks at bit `b`, computed on demand from the
    /// sorted id array.
    fn bucket_contacts(&self, id: u64, b: usize) -> Vec<u64> {
        let ids = self.holders.arena().ids();
        let base = (id ^ (1u64 << b)) & !((1u64 << b) - 1);
        let lo = ids.partition_point(|&x| x < base);
        let hi = match base.checked_add(1u64 << b) {
            Some(end) => ids.partition_point(|&x| x < end),
            None => ids.len(),
        };
        let mut out = Vec::new();
        let mut remaining = self.k;
        take_closest(&ids[lo..hi], id, b as i32 - 1, &mut remaining, &mut out);
        out
    }

    /// The `count` closest contacts `id` knows of toward `target` — the
    /// lazy equivalent of flattening its 64 k-buckets.
    fn closest_known_of(&self, id: u64, target: u64, count: usize) -> Vec<u64> {
        let mut all: Vec<u64> = Vec::with_capacity(64.min(self.node_count()) * 2);
        for b in 0..64 {
            all.extend(self.bucket_contacts(id, b));
        }
        all.sort_by_key(|&c| c ^ target);
        all.truncate(count);
        all
    }

    /// Iterative XOR-metric lookup: returns up to `count` closest online
    /// nodes found (capped by the bucket size `k`), recording per-round
    /// messages/latency in `metrics`. Empty when `from` is not a member.
    pub fn lookup(
        &mut self,
        from: NodeId,
        key: Key,
        count: usize,
        metrics: &mut Metrics,
    ) -> Vec<NodeId> {
        self.iterate(from, key, count, metrics, None)
    }

    /// [`KademliaPlane::lookup`] over lossy links: each `FIND_NODE` to a
    /// shortlist candidate is a transmission that `faults` may fail,
    /// retried up to `retries` extra times (counted as `kad.retry`).
    /// Unreachable candidates are simply skipped — Kademlia's α-parallel
    /// redundancy is itself the alternate route — so the lookup still
    /// converges on the closest *reachable* replicas.
    pub fn lookup_with_faults(
        &mut self,
        from: NodeId,
        key: Key,
        count: usize,
        metrics: &mut Metrics,
        faults: &mut LinkFaults,
        retries: u32,
    ) -> Vec<NodeId> {
        self.iterate(from, key, count, metrics, Some((faults, retries)))
    }

    /// The overlay's one routing loop, behind both entry points above.
    /// With `link == None` every `FIND_NODE` delivers and no `LinkFaults`
    /// exists.
    fn iterate(
        &mut self,
        from: NodeId,
        key: Key,
        count: usize,
        metrics: &mut Metrics,
        mut link: Option<(&mut LinkFaults, u32)>,
    ) -> Vec<NodeId> {
        if !self.holders.arena().contains(from.0) {
            return Vec::new();
        }
        let target = key.0;
        let mut shortlist: Vec<u64> = self.closest_known_of(from.0, target, self.k);
        let mut queried: BTreeSet<u64> = BTreeSet::new();
        let mut unreachable: BTreeSet<u64> = BTreeSet::new();
        let mut closest_seen = u64::MAX;
        loop {
            // Query the α closest unqueried live candidates.
            let batch: Vec<u64> = shortlist
                .iter()
                .copied()
                .filter(|c| !queried.contains(c))
                .take(ALPHA)
                .collect();
            if batch.is_empty() {
                break;
            }
            let lat = LatencyModel::default().draw(&mut self.rng);
            let mut improved = false;
            for candidate in batch {
                queried.insert(candidate);
                // α queries go out in parallel: one latency per round.
                metrics.record_offpath(names::KAD_FIND_NODE, 64);
                let to = NodeId(candidate);
                if !LinkFaults::hop(&mut link, from, to, metrics, names::KAD_RETRY, 64) {
                    unreachable.insert(candidate);
                    continue;
                }
                if !self.is_online(to) {
                    continue;
                }
                for learned in self.closest_known_of(candidate, target, self.k) {
                    if !shortlist.contains(&learned) {
                        shortlist.push(learned);
                    }
                }
            }
            metrics.add_latency(lat);
            shortlist.sort_by_key(|&c| c ^ target);
            shortlist.truncate(self.k);
            if let Some(&best) = shortlist.first() {
                if best ^ target < closest_seen {
                    closest_seen = best ^ target;
                    improved = true;
                }
            }
            if !improved && shortlist.iter().all(|c| queried.contains(c)) {
                break;
            }
        }
        // The loop ends with the whole shortlist queried, so the results are
        // its online members minus any a lossy link never reached: an online
        // node behind a partition is indistinguishable from a dead one.
        shortlist
            .into_iter()
            .filter(|c| self.is_online(NodeId(*c)) && !unreachable.contains(c))
            .take(count)
            .map(NodeId)
            .collect()
    }
}

impl StoragePlane for KademliaPlane {
    fn name(&self) -> &'static str {
        "kademlia"
    }

    fn holders(&self) -> &Holders {
        &self.holders
    }

    fn holders_mut(&mut self) -> &mut Holders {
        &mut self.holders
    }

    fn set_online(&mut self, node: NodeId, online: bool) {
        self.holders.set_online(node, online);
    }

    fn replica_candidates(
        &mut self,
        key: Key,
        want: usize,
        metrics: &mut Metrics,
    ) -> Result<Vec<NodeId>, StorageError> {
        let from = self.random_node(key.0).ok_or(StorageError::NoNodes)?;
        let found = self.lookup(from, key, want, metrics);
        if found.is_empty() {
            return Err(StorageError::NoNodes);
        }
        Ok(found)
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

    fn net(n: usize) -> KademliaPlane {
        KademliaPlane::build(n, 20, 13)
    }

    fn replicated(n: usize) -> ReplicatedStore<KademliaPlane> {
        ReplicatedStore::new(net(n), 3)
    }

    #[test]
    fn store_get_roundtrip() {
        let mut store = replicated(64);
        let mut m = Metrics::new();
        let key = Key::hash(b"x");
        store.put(key, b"hello".to_vec(), &mut m).unwrap();
        assert_eq!(store.get(key, &mut m).unwrap(), b"hello");
    }

    #[test]
    fn lookups_converge_from_any_start() {
        let mut k = net(128);
        let key = Key::hash(b"converge");
        let mut all: Vec<Vec<NodeId>> = Vec::new();
        for s in 0..6 {
            let mut m = Metrics::new();
            let from = k.random_node(s * 11).unwrap();
            let mut found = k.lookup(from, key, 3, &mut m);
            found.sort();
            all.push(found);
        }
        // The closest-replica sets agree regardless of the start node.
        for w in all.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }

    #[test]
    fn lookup_cost_is_logarithmic() {
        let mut k = net(1024);
        let mut total_msgs = 0u64;
        for i in 0..30 {
            let mut m = Metrics::new();
            let key = Key::hash(format!("q{i}").as_bytes());
            k.lookup(k.random_node(i).unwrap(), key, 3, &mut m);
            total_msgs += m.count("kad.find_node");
        }
        let avg = total_msgs as f64 / 30.0;
        // α * O(log n) rounds; generous bound.
        assert!(avg < 80.0, "avg {avg} find_node messages too high");
        assert!(avg >= 3.0, "avg {avg} suspiciously low");
    }

    #[test]
    fn survives_replica_failures() {
        let mut store = replicated(64);
        let mut m = Metrics::new();
        let key = Key::hash(b"resilient");
        let holders = store.put(key, b"v".to_vec(), &mut m).unwrap();
        // Knock out the single closest replica.
        store.plane_mut().set_online(holders[0], false);
        assert_eq!(store.get(key, &mut m).unwrap(), b"v");
    }

    #[test]
    fn missing_key_errors() {
        let mut store = replicated(32);
        let mut m = Metrics::new();
        let err = store.get(Key::hash(b"ghost"), &mut m).unwrap_err();
        assert!(matches!(err, StorageError::NotFound(_)));
    }

    #[test]
    fn buckets_bounded_by_k_and_correctly_binned() {
        let k = KademliaPlane::build(256, 8, 5);
        for node in k.node_ids() {
            for b in 0..64 {
                let bucket = k.bucket_contacts(node.0, b);
                assert!(bucket.len() <= 8);
                for c in bucket {
                    assert_eq!(
                        63 - (node.0 ^ c).leading_zeros() as usize,
                        b,
                        "contact {c:#x} in wrong bucket of {:#x}",
                        node.0
                    );
                }
            }
        }
    }

    #[test]
    fn lazy_bucket_extraction_matches_brute_force() {
        let k = KademliaPlane::build(128, 5, 77);
        let ids: Vec<u64> = k.node_ids().iter().map(|n| n.0).collect();
        for &id in ids.iter().step_by(17) {
            for b in 0..64 {
                // Brute force: all nodes whose distance peaks at bit b,
                // sorted by distance, truncated to k.
                let mut expect: Vec<u64> = ids
                    .iter()
                    .copied()
                    .filter(|&o| o != id && 63 - (id ^ o).leading_zeros() as usize == b)
                    .collect();
                expect.sort_by_key(|&c| c ^ id);
                expect.truncate(5);
                let mut got = k.bucket_contacts(id, b);
                got.sort_by_key(|&c| c ^ id);
                assert_eq!(got, expect, "bucket {b} of {id:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid parameters")]
    fn zero_nodes_rejected() {
        KademliaPlane::build(0, 20, 1);
    }
}
