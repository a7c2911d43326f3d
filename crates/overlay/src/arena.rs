//! Compact arena storage for million-node overlays.
//!
//! The original overlay structs gave every node its own
//! `HashMap<u64, Vec<u8>>` plus eagerly-built routing tables; at hundreds of
//! nodes that is invisible, at 10⁶ nodes it is gigabytes of empty maps and
//! 512-byte finger tables. This module provides the two building blocks the
//! refactored overlays share:
//!
//! * [`NodeArena`] — struct-of-arrays membership state: one sorted `Vec<u64>`
//!   of ring/XOR identifiers with a parallel online bitmap. Nodes are
//!   addressed by dense `u32` slot or by identifier (binary search); no
//!   per-node allocation exists at all.
//! * [`SharedStore`] — a single interned key/value store shared by every
//!   node of an overlay. Entries are `(node id, key) → value index`; the
//!   value bytes themselves are deduplicated, so R replicas of the same blob
//!   cost one allocation plus R 16-byte entries. Empty nodes cost nothing.
//!
//! Both report [`NodeArena::memory_bytes`] / [`SharedStore::memory_bytes`]
//! estimates so the E15 scale bench can gate memory-per-node honestly.

use std::collections::HashMap;

/// Struct-of-arrays node membership: sorted identifiers + online bitmap.
#[derive(Debug, Clone, Default)]
pub struct NodeArena {
    ids: Vec<u64>,
    online: Vec<bool>,
    online_count: usize,
}

impl NodeArena {
    /// Builds an arena from a sorted, deduplicated id list; all nodes start
    /// online.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is not strictly increasing.
    pub fn from_sorted_ids(ids: Vec<u64>) -> Self {
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "arena ids must be sorted and unique"
        );
        let n = ids.len();
        NodeArena {
            ids,
            online: vec![true; n],
            online_count: n,
        }
    }

    /// Number of nodes (online and offline).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the arena has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Online node count.
    pub fn online_count(&self) -> usize {
        self.online_count
    }

    /// The sorted identifier array.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Dense slot of `id`, if present.
    pub fn slot_of(&self, id: u64) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Whether the arena contains `id`.
    pub fn contains(&self, id: u64) -> bool {
        self.slot_of(id).is_some()
    }

    /// Whether `id` is a current, online member.
    pub fn is_online(&self, id: u64) -> bool {
        self.slot_of(id).is_some_and(|s| self.online[s])
    }

    /// Whether the node at `slot` is online.
    pub fn is_online_slot(&self, slot: usize) -> bool {
        self.online[slot]
    }

    /// Sets the online flag for `id`; returns the previous value, or
    /// `None` (nothing changes) for unknown ids.
    pub fn set_online(&mut self, id: u64, online: bool) -> Option<bool> {
        let slot = self.slot_of(id)?;
        let was = self.online[slot];
        self.online[slot] = online;
        match (was, online) {
            (false, true) => self.online_count += 1,
            (true, false) => self.online_count -= 1,
            _ => {}
        }
        Some(was)
    }

    /// Inserts a new id (online). Returns `false` when already present.
    /// O(n) splice — joins are rare relative to lookups.
    pub fn insert(&mut self, id: u64) -> bool {
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, id);
                self.online.insert(pos, true);
                self.online_count += 1;
                true
            }
        }
    }

    /// Removes `id`; returns `false` when absent. O(n) splice.
    pub fn remove(&mut self, id: u64) -> bool {
        match self.ids.binary_search(&id) {
            Ok(pos) => {
                if self.online[pos] {
                    self.online_count -= 1;
                }
                self.ids.remove(pos);
                self.online.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Sorted identifiers of every online node.
    pub fn online_ids(&self) -> Vec<u64> {
        self.ids
            .iter()
            .zip(&self.online)
            .filter(|&(_, &on)| on)
            .map(|(&id, _)| id)
            .collect()
    }

    /// The `rank`-th online id in sorted order (the deterministic
    /// "random node" primitive). `None` when everything is offline.
    ///
    /// O(1) when every node is online; O(n) scan under churn.
    pub fn nth_online(&self, rank: usize) -> Option<u64> {
        if self.online_count == 0 {
            return None;
        }
        let rank = rank % self.online_count;
        if self.online_count == self.ids.len() {
            return Some(self.ids[rank]);
        }
        let mut seen = 0usize;
        for (slot, &on) in self.online.iter().enumerate() {
            if on {
                if seen == rank {
                    return Some(self.ids[slot]);
                }
                seen += 1;
            }
        }
        None
    }

    /// First slot whose id is `>= key` (== `len()` when none).
    pub fn partition_point(&self, key: u64) -> usize {
        self.ids.partition_point(|&id| id < key)
    }

    /// Estimated resident bytes of the arena itself.
    pub fn memory_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<u64>()
            + self.online.capacity()
            + std::mem::size_of::<Self>()
    }
}

/// One interned key/value store shared by all nodes of an overlay.
///
/// Replaces per-node `HashMap<u64, Vec<u8>>`: entries are keyed by
/// `(holder id, key)` and point into a deduplicated value table, so the R
/// identical copies a replication layer writes share a single allocation.
#[derive(Debug, Clone, Default)]
pub struct SharedStore {
    /// `(holder, key) -> index into values`.
    entries: HashMap<(u64, u64), u32>,
    /// Interned value bytes.
    values: Vec<Box<[u8]>>,
    /// fnv(value) -> candidate value indices (hash-collision safe). Values
    /// are retained for the overlay's lifetime — delete churn is
    /// negligible in the sim.
    by_hash: HashMap<u64, Vec<u32>>,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl SharedStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(&mut self, value: &[u8]) -> u32 {
        let h = fnv1a(value);
        if let Some(cands) = self.by_hash.get(&h) {
            for &idx in cands {
                if self.values[idx as usize].as_ref() == value {
                    return idx;
                }
            }
        }
        let idx = u32::try_from(self.values.len()).expect("fewer than 2^32 distinct values");
        self.values.push(value.to_vec().into_boxed_slice());
        self.by_hash.entry(h).or_default().push(idx);
        idx
    }

    /// Stores `value` for `(holder, key)`, replacing any previous entry.
    pub fn insert(&mut self, holder: u64, key: u64, value: &[u8]) {
        let idx = self.intern(value);
        self.entries.insert((holder, key), idx);
    }

    /// The value stored for `(holder, key)`, if any.
    pub fn get(&self, holder: u64, key: u64) -> Option<&[u8]> {
        self.entries
            .get(&(holder, key))
            .map(|&idx| self.values[idx as usize].as_ref())
    }

    /// Drops every entry held by `holder` (an ungraceful departure).
    pub fn purge_holder(&mut self, holder: u64) {
        self.entries.retain(|&(h, _), _| h != holder);
    }

    /// Number of `(holder, key)` entries.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of distinct interned values.
    pub fn unique_values(&self) -> usize {
        self.values.len()
    }

    /// Estimated resident bytes: entry table + interned values + intern index.
    pub fn memory_bytes(&self) -> usize {
        let entry_sz = std::mem::size_of::<((u64, u64), u32)>() + 8;
        let value_bytes: usize = self.values.iter().map(|v| v.len()).sum();
        self.entries.capacity() * entry_sz
            + value_bytes
            + self.values.capacity() * std::mem::size_of::<Box<[u8]>>()
            + self.by_hash.len() * 32
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_membership_and_churn() {
        let mut a = NodeArena::from_sorted_ids(vec![3, 7, 11, 20]);
        assert_eq!(a.len(), 4);
        assert_eq!(a.online_count(), 4);
        assert_eq!(a.slot_of(11), Some(2));
        assert!(a.is_online(7));
        assert_eq!(a.set_online(7, false), Some(true));
        assert!(!a.is_online(7));
        assert_eq!(a.online_count(), 3);
        assert_eq!(a.online_ids(), vec![3, 11, 20]);
        // nth_online skips offline nodes deterministically.
        assert_eq!(a.nth_online(0), Some(3));
        assert_eq!(a.nth_online(1), Some(11));
        assert_eq!(a.nth_online(4), Some(11)); // wraps mod online_count
        assert!(a.insert(9));
        assert!(!a.insert(9));
        assert_eq!(a.ids(), &[3, 7, 9, 11, 20]);
        assert!(a.remove(3));
        assert!(!a.remove(3));
        // 5 nodes minus removed 3, with 7 still offline: 9, 11, 20 online.
        assert_eq!(a.online_count(), 3);
    }

    #[test]
    fn arena_partition_point_wraps() {
        let a = NodeArena::from_sorted_ids(vec![10, 20, 30]);
        assert_eq!(a.partition_point(5), 0);
        assert_eq!(a.partition_point(20), 1);
        assert_eq!(a.partition_point(21), 2);
        assert_eq!(a.partition_point(99), 3);
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn arena_rejects_unsorted() {
        NodeArena::from_sorted_ids(vec![5, 5]);
    }

    #[test]
    fn shared_store_roundtrip_and_dedup() {
        let mut s = SharedStore::new();
        s.insert(1, 100, b"hello");
        s.insert(2, 100, b"hello");
        s.insert(3, 100, b"hello");
        assert_eq!(s.get(1, 100), Some(&b"hello"[..]));
        assert_eq!(s.get(2, 100), Some(&b"hello"[..]));
        assert_eq!(s.get(9, 100), None);
        assert_eq!(s.entry_count(), 3);
        // Three replicas, one interned allocation.
        assert_eq!(s.unique_values(), 1);
    }

    #[test]
    fn shared_store_overwrite_and_purge() {
        let mut s = SharedStore::new();
        s.insert(1, 5, b"v1");
        s.insert(1, 5, b"v2");
        assert_eq!(s.get(1, 5), Some(&b"v2"[..]));
        s.insert(1, 6, b"other");
        s.purge_holder(1);
        assert_eq!(s.get(1, 5), None);
        assert_eq!(s.get(1, 6), None);
        assert_eq!(s.entry_count(), 0);
    }

    #[test]
    fn shared_store_memory_counts_values_once() {
        let mut s = SharedStore::new();
        let blob = vec![0xAB; 1024];
        for holder in 0..100u64 {
            s.insert(holder, 1, &blob);
        }
        // 100 holders of a 1 KiB blob stay near 1 KiB of value bytes,
        // not 100 KiB.
        assert!(s.memory_bytes() < 16 * 1024, "{}", s.memory_bytes());
    }
}
