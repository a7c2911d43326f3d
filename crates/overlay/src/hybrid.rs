//! Hybrid overlay: DHT + gossip-fed social caches (survey §II-B, "hybrid").
//!
//! Cachet "uses hybrid structured-unstructured overlay using a DHT-based
//! approach together with gossip-based caching to achieve high performance",
//! and Cuckoo resolves popular items via the unstructured layer while the
//! DHT guarantees rare items are still found. [`HybridOverlay`] implements
//! exactly that composition: every `get` tries the local cache, then the
//! caches of the node's social contacts (one hop), then falls back to the
//! authoritative Chord lookup — and populates caches on the way back.

use crate::chord::{ChordPlane, DhtError};
use crate::id::{Key, NodeId};
use crate::metrics::Metrics;
use crate::storage::StoragePlane;
use dosn_obs::names;
use std::collections::{HashMap, VecDeque};

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

#[derive(Debug, Default)]
struct NodeCache {
    /// FIFO cache: key -> value.
    entries: HashMap<u64, Vec<u8>>,
    order: VecDeque<u64>,
}

impl NodeCache {
    fn insert(&mut self, key: u64, value: Vec<u8>, capacity: usize) {
        if capacity == 0 {
            return;
        }
        if self.entries.insert(key, value).is_none() {
            self.order.push_back(key);
        }
        while self.order.len() > capacity {
            if let Some(evicted) = self.order.pop_front() {
                self.entries.remove(&evicted);
            }
        }
    }
}

/// A Cachet-style hybrid overlay.
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
/// let writer = net.dht().random_node(0);
/// net.put(writer, key, b"feeling great".to_vec(), &mut m)?;
/// let reader = net.dht().random_node(9);
/// let (value, source) = net.get(reader, key, &mut m)?;
/// assert_eq!(value, b"feeling great");
/// assert_eq!(source, HitSource::Dht); // first read is authoritative...
/// let (_, source2) = net.get(reader, key, &mut m)?;
/// assert_eq!(source2, HitSource::LocalCache); // ...then cached
/// # Ok(())
/// # }
/// ```
pub struct HybridOverlay {
    dht: ChordPlane,
    caches: HashMap<NodeId, NodeCache>,
    contacts: HashMap<NodeId, Vec<NodeId>>,
    cache_capacity: usize,
}

impl std::fmt::Debug for HybridOverlay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HybridOverlay({:?}, cache {} entries/node)",
            self.dht, self.cache_capacity
        )
    }
}

impl HybridOverlay {
    /// Builds the hybrid overlay: a Chord ring plus per-node caches and a
    /// random social-contact graph (≈6 contacts per node).
    pub fn build(n: usize, replicas: usize, cache_capacity: usize, seed: u64) -> Self {
        let dht = ChordPlane::build(n, seed).with_replicas(replicas);
        let ids = dht.node_ids();
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
            caches: ids.iter().map(|&id| (id, NodeCache::default())).collect(),
            contacts,
            dht,
            cache_capacity,
        }
    }

    /// The underlying structured layer.
    pub fn dht(&self) -> &ChordPlane {
        &self.dht
    }

    /// Mutable access to the structured layer (churn injection in tests).
    pub fn dht_mut(&mut self) -> &mut ChordPlane {
        &mut self.dht
    }

    /// A node's social contacts.
    pub fn contacts(&self, node: NodeId) -> &[NodeId] {
        self.contacts.get(&node).map_or(&[], Vec::as_slice)
    }

    /// Writes through to the DHT (caches are invalidated for this key, since
    /// Cachet-style caches hold immutable versioned objects, a new put is a
    /// new version).
    ///
    /// # Errors
    ///
    /// Propagates [`DhtError`] from the structured layer.
    pub fn put(
        &mut self,
        from: NodeId,
        key: Key,
        value: Vec<u8>,
        metrics: &mut Metrics,
    ) -> Result<(), DhtError> {
        for cache in self.caches.values_mut() {
            if cache.entries.remove(&key.0).is_some() {
                cache.order.retain(|&k| k != key.0);
            }
        }
        self.dht.store(from, key, value, metrics)
    }

    /// Reads `key`: local cache → contact caches (one hop each, off the
    /// critical path except the first) → DHT. Populates the local cache.
    ///
    /// # Errors
    ///
    /// Propagates [`DhtError`] when the DHT fallback fails.
    pub fn get(
        &mut self,
        from: NodeId,
        key: Key,
        metrics: &mut Metrics,
    ) -> Result<(Vec<u8>, HitSource), DhtError> {
        if let Some(v) = self.caches.get(&from).and_then(|c| c.entries.get(&key.0)) {
            return Ok((v.clone(), HitSource::LocalCache));
        }
        let contact_hit = self.contacts(from).iter().find_map(|c| {
            if !self.dht.is_online(*c) {
                return None;
            }
            self.caches
                .get(c)
                .and_then(|cache| cache.entries.get(&key.0))
                .cloned()
        });
        if let Some(v) = contact_hit {
            metrics.record(
                names::HYBRID_CONTACT_FETCH,
                v.len() as u64,
                CONTACT_FETCH_MS,
            );
            self.cache_insert(from, key, v.clone());
            return Ok((v, HitSource::ContactCache));
        }
        let v = self.dht.get(from, key, metrics)?;
        self.cache_insert(from, key, v.clone());
        Ok((v, HitSource::Dht))
    }

    fn cache_insert(&mut self, node: NodeId, key: Key, value: Vec<u8>) {
        if let Some(cache) = self.caches.get_mut(&node) {
            cache.insert(key.0, value, self.cache_capacity);
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
        let w = n.dht().random_node(0);
        n.put(w, key, b"v".to_vec(), &mut m).unwrap();
        let r = n.dht().random_node(5);
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
        let w = n.dht().random_node(0);
        n.put(w, key, b"v".to_vec(), &mut m).unwrap();
        // Reader 1 pulls it into their cache.
        let r1 = n.dht().random_node(3);
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
        let w = n.dht().random_node(0);
        n.put(w, key, vec![9u8; 100], &mut m).unwrap();
        let mut first = Metrics::new();
        let mut later = Metrics::new();
        let readers: Vec<NodeId> = (0..20).map(|s| n.dht().random_node(s * 3 + 1)).collect();
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
        let w = n.dht().random_node(0);
        n.put(w, key, b"v1".to_vec(), &mut m).unwrap();
        let r = n.dht().random_node(7);
        n.get(r, key, &mut m).unwrap();
        n.put(w, key, b"v2".to_vec(), &mut m).unwrap();
        let (v, src) = n.get(r, key, &mut m).unwrap();
        assert_eq!(v, b"v2");
        assert_eq!(src, HitSource::Dht, "stale cache entry must not serve");
    }

    #[test]
    fn cache_capacity_evicts_fifo() {
        let mut n = HybridOverlay::build(32, 2, 2, 19);
        let mut m = Metrics::new();
        let r = n.dht().random_node(1);
        let keys: Vec<Key> = (0..3)
            .map(|i| Key::hash(format!("k{i}").as_bytes()))
            .collect();
        let w = n.dht().random_node(0);
        for k in &keys {
            n.put(w, *k, b"v".to_vec(), &mut m).unwrap();
        }
        for k in &keys {
            n.get(r, *k, &mut m).unwrap();
        }
        // keys[0] was evicted (capacity 2): next read goes to the DHT.
        assert_eq!(n.get(r, keys[0], &mut m).unwrap().1, HitSource::Dht);
        assert_eq!(n.get(r, keys[2], &mut m).unwrap().1, HitSource::LocalCache);
    }

    #[test]
    fn offline_contact_cache_not_used() {
        let mut n = net();
        let mut m = Metrics::new();
        let key = Key::hash(b"c");
        let w = n.dht().random_node(0);
        n.put(w, key, b"v".to_vec(), &mut m).unwrap();
        let r1 = n.dht().random_node(3);
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
