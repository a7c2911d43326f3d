//! Hot-post caching for storage planes: a bounded LRU of verified sealed
//! envelopes, with an optional seeded gossip-style admission policy.
//!
//! The survey's read-heavy DOSN designs all cache sealed content near the
//! reader: Supernova keeps hot objects at super-peers, Cachet gossips
//! recently-verified envelopes between social contacts so a feed read can
//! skip the DHT walk. Because every cached value is a *self-certifying
//! sealed envelope* (signed by its author, integrity-checked again on every
//! serve), caching never weakens the trust model — a tampered cache entry
//! simply fails verification and the read falls through to the normal
//! quorum path (see `dosn-core`'s engine read path).
//!
//! [`HotCache`] is the one implementation shared by every plane:
//!
//! * **Super-peer planes** admit every verified envelope (the super-peer is
//!   a designated cache host, Supernova-style).
//! * **Chord / Kademlia planes** admit probabilistically, keyed by a seeded
//!   hash of the envelope's key (Cachet-style gossip admission: only the
//!   deterministic "gossip winners" are worth caching at a replica). The
//!   decision is a pure function of `(seed, key)`, so runs replay
//!   byte-identically.
//!
//! Capacity is bounded; the victim is the least-recently-used entry, and
//! evictions are surfaced so callers can account them on the
//! `cache.evictions` instrument.

use crate::id::Key;
use dosn_crypto::sha256::Sha256;
use std::collections::BTreeMap;

/// What one [`HotCache::admit`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmitOutcome {
    /// Whether the value is now cached under the key.
    pub admitted: bool,
    /// LRU victims evicted to make room.
    pub evicted: u64,
}

/// A bounded, deterministic LRU cache of sealed envelope bytes keyed by
/// storage [`Key`]. See the module docs for the admission policies.
#[derive(Debug, Clone)]
pub struct HotCache {
    capacity: usize,
    /// `Some((seed, p))`: admit a *new* key iff the first byte of
    /// `SHA-256(seed || key)` is below `p` (p/256 admission probability).
    /// `None`: admit everything (super-peer hosting).
    admission: Option<(u64, u8)>,
    tick: u64,
    entries: BTreeMap<Key, (Vec<u8>, u64)>,
}

impl HotCache {
    /// An always-admit cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "hot cache capacity must be at least 1");
        HotCache {
            capacity,
            admission: None,
            tick: 0,
            entries: BTreeMap::new(),
        }
    }

    /// Switches to seeded gossip admission: a new key is admitted with
    /// probability `p256/256`, decided by `SHA-256(seed || key)` so the
    /// same run always caches the same keys. Keys already cached are
    /// always refreshed in place regardless of the policy (the overwrite
    /// path is how a stale or tampered entry gets replaced).
    #[must_use]
    pub(crate) fn with_admission(mut self, seed: u64, p256: u8) -> Self {
        self.admission = Some((seed, p256));
        self
    }

    /// Cached entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn lookup(&mut self, key: Key) -> Option<Vec<u8>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&key).map(|(value, used)| {
            *used = tick;
            value.clone()
        })
    }

    /// Offers `value` for caching under `key`. An existing entry is always
    /// overwritten; a new key passes the admission policy first. Evicts
    /// LRU victims down to capacity.
    pub fn admit(&mut self, key: Key, value: &[u8]) -> AdmitOutcome {
        self.tick += 1;
        if let Some((v, used)) = self.entries.get_mut(&key) {
            // Overwritten in place: the entry's buffer is reused.
            v.clear();
            v.extend_from_slice(value);
            *used = self.tick;
            return AdmitOutcome {
                admitted: true,
                evicted: 0,
            };
        }
        if let Some((seed, p256)) = self.admission {
            let mut h = Sha256::new();
            h.update(&seed.to_be_bytes());
            h.update(&key.0.to_be_bytes());
            if h.finalize()[0] >= p256 {
                return AdmitOutcome {
                    admitted: false,
                    evicted: 0,
                };
            }
        }
        self.entries.insert(key, (value.to_vec(), self.tick));
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            // BTreeMap iteration is key-ordered; the victim is the entry
            // with the smallest last-used tick (ties impossible — ticks
            // are unique).
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k)
                .expect("cache over capacity is non-empty");
            self.entries.remove(&victim);
            evicted += 1;
        }
        AdmitOutcome {
            admitted: true,
            evicted,
        }
    }

    /// Drops `key` if cached (explicit invalidation).
    pub fn remove(&mut self, key: Key) -> bool {
        self.entries.remove(&key).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_after_admit_roundtrips() {
        let mut c = HotCache::new(4);
        let key = Key::hash(b"hot");
        assert!(c.lookup(key).is_none());
        let out = c.admit(key, b"envelope");
        assert!(out.admitted);
        assert_eq!(c.lookup(key).unwrap(), b"envelope");
    }

    #[test]
    fn capacity_evicts_lru_victim() {
        let mut c = HotCache::new(2);
        let (a, b, d) = (Key::hash(b"a"), Key::hash(b"b"), Key::hash(b"d"));
        c.admit(a, b"1");
        c.admit(b, b"2");
        c.lookup(a); // b is now least recently used
        let out = c.admit(d, b"3");
        assert_eq!(out.evicted, 1);
        assert!(c.lookup(a).is_some());
        assert!(c.lookup(b).is_none(), "LRU victim must be b");
        assert!(c.lookup(d).is_some());
    }

    #[test]
    fn overwrite_replaces_in_place() {
        let mut c = HotCache::new(2);
        let key = Key::hash(b"refresh");
        c.admit(key, b"old");
        let out = c.admit(key, b"new");
        assert!(out.admitted);
        assert_eq!(out.evicted, 0);
        assert_eq!(c.lookup(key).unwrap(), b"new");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn seeded_admission_is_deterministic_and_partial() {
        let decide = |seed: u64| -> Vec<bool> {
            let mut c = HotCache::new(64).with_admission(seed, 128);
            (0u16..64)
                .map(|i| c.admit(Key::hash(&i.to_be_bytes()), b"v").admitted)
                .collect()
        };
        let first = decide(7);
        assert_eq!(first, decide(7), "same seed, same admissions");
        assert!(first.iter().any(|&a| a), "p=128/256 admits some keys");
        assert!(!first.iter().all(|&a| a), "p=128/256 rejects some keys");
        // Overwrite bypasses the policy: a rejected key, once force-admitted
        // by an overwrite of a cached neighbor, is irrelevant here — but a
        // *cached* key is always refreshed.
        let rejected_idx = first.iter().position(|&a| !a).unwrap() as u16;
        let mut c = HotCache::new(64).with_admission(7, 128);
        let k = Key::hash(&rejected_idx.to_be_bytes());
        assert!(!c.admit(k, b"v").admitted, "policy rejects the new key");
        assert!(c.lookup(k).is_none());
    }

    #[test]
    fn remove_invalidates() {
        let mut c = HotCache::new(2);
        let key = Key::hash(b"gone");
        c.admit(key, b"v");
        assert!(c.remove(key));
        assert!(!c.remove(key));
        assert!(c.lookup(key).is_none());
    }
}
