//! Hybrid overlay: DHT + gossip-fed social caches (survey §II-B, "hybrid").
//!
//! Cachet "uses hybrid structured-unstructured overlay using a DHT-based
//! approach together with gossip-based caching to achieve high performance",
//! and Cuckoo resolves popular items via the unstructured layer while the
//! DHT guarantees rare items are still found. [`HybridOverlay`] implements
//! exactly that composition: every `get` tries the local cache, then the
//! caches of the node's social contacts (one hop), then falls back to the
//! authoritative replicated Chord store — and populates caches on the way
//! back.

use crate::chord::ChordPlane;
use crate::hotcache::HotCache;
use crate::id::{Key, NodeId};
use crate::metrics::Metrics;
use crate::replication::ReplicatedStore;
use crate::storage::{StorageError, StoragePlane};
use dosn_obs::names;
use std::collections::HashMap;

/// The fixed latency of a contact-cache hit: one social hop to a friend.
const CONTACT_FETCH_MS: u64 = 40;

/// Where a hybrid `get` was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitSource {
    /// The requesting node's own cache.
    LocalCache,
    /// A social contact's cache (one hop).
    ContactCache,
    /// The structured DHT (authoritative).
    Dht,
}

/// A Cachet-style hybrid overlay: a replicated Chord store under per-node
/// LRU caches ([`HotCache`], always admitting).
///
/// The DHT layer is a [`ReplicatedStore`] over a [`ChordPlane`] with a read
/// quorum of one: a put writes the key's R live candidates, and a read that
/// misses every cache takes the first verifying copy among them (and
/// repairs the rest).
///
/// ```
/// use dosn_overlay::hybrid::{HybridOverlay, HitSource};
/// use dosn_overlay::id::Key;
/// use dosn_overlay::metrics::Metrics;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut net = HybridOverlay::build(64, 3, 16, 31);
/// let mut m = Metrics::new();
/// let key = Key::hash(b"status-update");
/// net.put(key, b"feeling great".to_vec(), &mut m)?;
/// let reader = net.dht().random_node(9).ok_or("no online node")?;
/// let (value, source) = net.get(reader, key, &mut m)?;
/// assert_eq!(value, b"feeling great");
/// assert_eq!(source, HitSource::Dht); // first read is authoritative...
/// let (_, source2) = net.get(reader, key, &mut m)?;
/// assert_eq!(source2, HitSource::LocalCache); // ...then cached
/// # Ok(())
/// # }
/// ```
pub struct HybridOverlay {
    dht: ReplicatedStore<ChordPlane>,
    caches: HashMap<NodeId, HotCache>,
    contacts: HashMap<NodeId, Vec<NodeId>>,
    cache_capacity: usize,
}

impl std::fmt::Debug for HybridOverlay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HybridOverlay({:?}, {} replicas, cache {} entries/node)",
            self.dht.plane(),
            self.dht.replicas(),
            self.cache_capacity
        )
    }
}

impl HybridOverlay {
    /// Builds the hybrid overlay: a Chord ring replicated `replicas` ways,
    /// per-node caches and a random social-contact graph (≈6 contacts per
    /// node).
    ///
    /// # Panics
    ///
    /// Panics if `n`, `replicas` or `cache_capacity` is zero.
    pub fn build(n: usize, replicas: usize, cache_capacity: usize, seed: u64) -> Self {
        let dht = ReplicatedStore::new(ChordPlane::build(n, seed), replicas).with_quorum(1);
        let ids = dht.plane().node_ids();
        let mut contacts: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        // Deterministic contact graph: each node links to 6 pseudo-random
        // peers (symmetrized).
        for (i, &id) in ids.iter().enumerate() {
            for k in 1..=3usize {
                let j = (i + k * 7 + (id.0 as usize % 13)) % ids.len();
                if ids[j] != id {
                    contacts.entry(id).or_default().push(ids[j]);
                    contacts.entry(ids[j]).or_default().push(id);
                }
            }
        }
        for list in contacts.values_mut() {
            list.sort();
            list.dedup();
        }
        HybridOverlay {
            caches: ids
                .iter()
                .map(|&id| (id, HotCache::new(cache_capacity)))
                .collect(),
            contacts,
            dht,
            cache_capacity,
        }
    }

    /// The underlying structured layer.
    pub fn dht(&self) -> &ChordPlane {
        self.dht.plane()
    }

    /// Mutable access to the structured layer (churn injection in tests).
    pub fn dht_mut(&mut self) -> &mut ChordPlane {
        self.dht.plane_mut()
    }

    /// A node's social contacts.
    pub fn contacts(&self, node: NodeId) -> &[NodeId] {
        self.contacts.get(&node).map_or(&[], Vec::as_slice)
    }

    /// Replicated write to the DHT, returning the holders (caches are
    /// invalidated for this key, since Cachet-style caches hold immutable
    /// versioned objects, a new put is a new version).
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
        for cache in self.caches.values_mut() {
            cache.remove(key);
        }
        self.dht.put(key, value, metrics)
    }

    /// Reads `key`: local cache → contact caches (one hop each, off the
    /// critical path except the first) → replicated DHT read. Populates the
    /// local cache.
    ///
    /// # Errors
    ///
    /// Propagates [`StorageError`] when the DHT fallback fails.
    pub fn get(
        &mut self,
        from: NodeId,
        key: Key,
        metrics: &mut Metrics,
    ) -> Result<(Vec<u8>, HitSource), StorageError> {
        if let Some(v) = self.caches.get_mut(&from).and_then(|c| c.lookup(key)) {
            return Ok((v, HitSource::LocalCache));
        }
        let contacts = self.contacts.get(&from).map_or(&[][..], Vec::as_slice);
        let contact_hit = contacts.iter().find_map(|c| {
            if !self.dht.plane().is_online(*c) {
                return None;
            }
            self.caches.get_mut(c).and_then(|cache| cache.lookup(key))
        });
        if let Some(v) = contact_hit {
            metrics.record(
                names::HYBRID_CONTACT_FETCH,
                v.len() as u64,
                CONTACT_FETCH_MS,
            );
            self.cache_insert(from, key, &v);
            return Ok((v, HitSource::ContactCache));
        }
        let v = self.dht.get(key, metrics)?;
        self.cache_insert(from, key, &v);
        Ok((v, HitSource::Dht))
    }

    fn cache_insert(&mut self, node: NodeId, key: Key, value: &[u8]) {
        if let Some(cache) = self.caches.get_mut(&node) {
            cache.admit(key, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> HybridOverlay {
        HybridOverlay::build(64, 3, 8, 17)
    }

    #[test]
    fn dht_then_cache_hit() {
        let mut n = net();
        let mut m = Metrics::new();
        let key = Key::hash(b"a");
        n.put(key, b"v".to_vec(), &mut m).unwrap();
        let r = n.dht().random_node(5).unwrap();
        assert_eq!(n.get(r, key, &mut m).unwrap().1, HitSource::Dht);
        let before = m.messages;
        assert_eq!(n.get(r, key, &mut m).unwrap().1, HitSource::LocalCache);
        assert_eq!(m.messages, before, "local hits are free");
    }

    #[test]
    fn contact_cache_shortcut() {
        let mut n = net();
        let mut m = Metrics::new();
        let key = Key::hash(b"b");
        n.put(key, b"v".to_vec(), &mut m).unwrap();
        // Reader 1 pulls it into their cache.
        let r1 = n.dht().random_node(3).unwrap();
        n.get(r1, key, &mut m).unwrap();
        // A contact of r1 should hit r1's cache in one hop.
        let r2 = n.contacts(r1)[0];
        let (_, src) = n.get(r2, key, &mut m).unwrap();
        assert_eq!(src, HitSource::ContactCache);
    }

    #[test]
    fn popular_content_gets_cheaper_messages() {
        let mut n = net();
        let key = Key::hash(b"viral");
        let mut m = Metrics::new();
        n.put(key, vec![9u8; 100], &mut m).unwrap();
        let mut first = Metrics::new();
        let mut later = Metrics::new();
        let readers: Vec<NodeId> = (0..20)
            .map(|s| n.dht().random_node(s * 3 + 1).unwrap())
            .collect();
        for (i, r) in readers.iter().enumerate() {
            let mut per = Metrics::new();
            n.get(*r, key, &mut per).unwrap();
            if i < 5 {
                first.merge(&per);
            } else {
                later.merge(&per);
            }
        }
        assert!(
            later.messages as f64 / 15.0 <= first.messages as f64 / 5.0,
            "caching must not make reads more expensive: {} vs {}",
            later.messages,
            first.messages
        );
    }

    #[test]
    fn put_invalidates_caches() {
        let mut n = net();
        let mut m = Metrics::new();
        let key = Key::hash(b"mutable");
        n.put(key, b"v1".to_vec(), &mut m).unwrap();
        let r = n.dht().random_node(7).unwrap();
        n.get(r, key, &mut m).unwrap();
        n.put(key, b"v2".to_vec(), &mut m).unwrap();
        let (v, src) = n.get(r, key, &mut m).unwrap();
        assert_eq!(v, b"v2");
        assert_eq!(src, HitSource::Dht, "stale cache entry must not serve");
    }

    #[test]
    fn cache_capacity_evicts_the_least_recently_used_key() {
        let mut n = HybridOverlay::build(32, 2, 2, 19);
        let mut m = Metrics::new();
        let r = n.dht().random_node(1).unwrap();
        let keys: Vec<Key> = (0..3)
            .map(|i| Key::hash(format!("k{i}").as_bytes()))
            .collect();
        for k in &keys {
            n.put(*k, b"v".to_vec(), &mut m).unwrap();
        }
        n.get(r, keys[0], &mut m).unwrap();
        n.get(r, keys[1], &mut m).unwrap();
        // Reading keys[0] again makes keys[1] the least recently used, so
        // admitting keys[2] (capacity 2) evicts keys[1] although keys[0]
        // was admitted first.
        assert_eq!(n.get(r, keys[0], &mut m).unwrap().1, HitSource::LocalCache);
        n.get(r, keys[2], &mut m).unwrap();
        assert_eq!(n.get(r, keys[0], &mut m).unwrap().1, HitSource::LocalCache);
        assert_eq!(n.get(r, keys[1], &mut m).unwrap().1, HitSource::Dht);
    }

    /// A DHT candidate that is down during a put gets no copy, so it has
    /// nothing to serve when it comes back.
    #[test]
    fn a_node_offline_during_the_put_holds_no_copy() {
        let mut n = net();
        let mut m = Metrics::new();
        let key = Key::hash(b"written-while-down");
        let candidates = n.dht_mut().replica_candidates(key, 3, &mut m).unwrap();
        let down = candidates[1];
        n.dht_mut().set_online(down, false);
        let holders = n.put(key, vec![118], &mut m).unwrap();
        assert_eq!(holders.len(), 3);
        n.dht_mut().set_online(down, true);
        assert_eq!(n.dht_mut().fetch_from(down, key, &mut m), Ok(None));
    }

    #[test]
    fn offline_contact_cache_not_used() {
        let mut n = net();
        let mut m = Metrics::new();
        let key = Key::hash(b"c");
        n.put(key, b"v".to_vec(), &mut m).unwrap();
        let r1 = n.dht().random_node(3).unwrap();
        n.get(r1, key, &mut m).unwrap();
        n.dht_mut().set_online(r1, false);
        let r2 = n
            .contacts(r1)
            .iter()
            .copied()
            .find(|&c| n.dht().is_online(c))
            .unwrap();
        let (_, src) = n.get(r2, key, &mut m).unwrap();
        assert_eq!(src, HitSource::Dht, "offline contact must be skipped");
    }
}
