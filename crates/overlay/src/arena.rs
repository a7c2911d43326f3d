//! The holder table every storage plane keeps, and its compact parts.
//!
//! Every §II-B overlay family answers the same three questions the same
//! way: which nodes exist and are online, what each one holds, and what
//! its hot-envelope cache (L2) holds. [`Holders`] is that answer, kept
//! once: a family owns one and implements placement and its own side
//! effects around it, and [`StoragePlane`]'s membership and cache methods
//! are provided over it. Its parts are sized for million-node overlays —
//! the original overlay structs gave every node its own
//! `HashMap<u64, Vec<u8>>` plus eagerly-built routing tables, which at
//! 10⁶ nodes is gigabytes of empty maps:
//!
//! * `NodeArena` — struct-of-arrays membership state: one sorted `Vec<u64>`
//!   of ring/XOR identifiers with a parallel online bitmap. Nodes are
//!   addressed by dense `u32` slot or by identifier (binary search); no
//!   per-node allocation exists at all. The super-peer and federation
//!   planes use the dense ids `0..n`.
//! * `SharedStore` — a single interned key/value store shared by every
//!   node of an overlay. Entries are `(node id, key) → value index`; the
//!   value bytes themselves are deduplicated, so R replicas of the same blob
//!   cost one allocation plus R entries, and a value is freed with its last
//!   entry. Empty nodes cost nothing.
//!
//! Both parts estimate their resident bytes, which the families sum into
//! their `memory_bytes()` so the E15 scale bench can gate memory-per-node
//! honestly.
//!
//! [`StoragePlane`]: crate::storage::StoragePlane

use crate::fault::PLANE_HOP_MS;
use crate::hotcache::HotCache;
use crate::id::{Key, NodeId};
use crate::metrics::Metrics;
use crate::storage::StorageError;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// How a family's hot cache admits a key it has not cached yet (see
/// [`HotCache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// No cache: enabling one does nothing (federation pods mirror
    /// everything already).
    Off,
    /// Every verified envelope (Supernova-style super-peer hosting).
    All,
    /// A seeded coin admitting `p256/256` of new keys (Cachet-style gossip
    /// at DHT replicas).
    Coin(u8),
}

/// One storage plane's holder table: its members and their online set, the
/// blobs they hold, its hot-envelope cache, and the family's constants —
/// the metric kinds a one-node store and fetch are accounted under, and
/// the cache's admission policy.
///
/// A family implements [`StoragePlane`](crate::storage::StoragePlane)'s
/// required `set_online`, `store_at` and `fetch_from` as one call into
/// its `Holders` plus its own side effect, if it has one; the membership
/// and cache methods are provided over [`StoragePlane::holders`].
///
/// [`StoragePlane::holders`]: crate::storage::StoragePlane::holders
#[derive(Debug)]
pub struct Holders {
    arena: NodeArena,
    store: SharedStore,
    /// The plane's L2, once enabled.
    pub(crate) hot: Option<HotCache>,
    store_kind: &'static str,
    fetch_kind: &'static str,
    admission: Admission,
}

impl Holders {
    /// A table over `ids` (sorted and unique), every member online, nothing
    /// stored and no cache yet.
    pub(crate) fn new(
        ids: Vec<u64>,
        store_kind: &'static str,
        fetch_kind: &'static str,
        admission: Admission,
    ) -> Self {
        Holders {
            arena: NodeArena::from_sorted_ids(ids),
            store: SharedStore::default(),
            hot: None,
            store_kind,
            fetch_kind,
            admission,
        }
    }

    /// Membership: the sorted ids and the online set.
    pub(crate) fn arena(&self) -> &NodeArena {
        &self.arena
    }

    /// Marks a member online or offline; `false` (and no change) for a
    /// node the table does not have.
    pub(crate) fn set_online(&mut self, node: NodeId, online: bool) -> bool {
        self.arena.set_online(node.0, online).is_some()
    }

    /// Adds a member (online); `false` when it is one already.
    pub(crate) fn insert(&mut self, id: u64) -> bool {
        self.arena.insert(id)
    }

    /// Removes a member and everything it held (an ungraceful departure);
    /// `false` when it is not one.
    pub(crate) fn remove(&mut self, id: u64) -> bool {
        let removed = self.arena.remove(id);
        if removed {
            self.store.purge_holder(id);
        }
        removed
    }

    /// A deterministic online member chosen by `salt` (the workload
    /// drivers' "random node"); `None` when every member is offline.
    pub(crate) fn random_node(&self, salt: u64) -> Option<NodeId> {
        self.arena.nth_online(salt as usize).map(NodeId)
    }

    /// Up to `want` online members in slot order, starting at slot
    /// `start` (mod the member count) and wrapping: the placement scan of
    /// the ring and the super-peer and federation planes.
    pub(crate) fn scan_online(&self, start: usize, want: usize) -> Vec<NodeId> {
        let ids = self.arena.ids();
        let n = ids.len();
        (0..n)
            .map(|i| (start % n + i) % n)
            .filter(|&slot| self.arena.is_online_slot(slot))
            .take(want)
            .map(|slot| NodeId(ids[slot]))
            .collect()
    }

    /// Stores `value` under `key` at `node`, accounted as the family's
    /// store kind with `value.len()` bytes.
    pub(crate) fn store_at(
        &mut self,
        node: NodeId,
        key: Key,
        value: &[u8],
        metrics: &mut Metrics,
    ) -> Result<(), StorageError> {
        self.reachable(node)?;
        self.store.insert(node.0, key.0, value);
        metrics.record(self.store_kind, value.len() as u64, PLANE_HOP_MS);
        Ok(())
    }

    /// What `node` holds under `key`, accounted as the family's fetch kind
    /// with 64 bytes; `Ok(None)` when it holds nothing.
    pub(crate) fn fetch_from(
        &self,
        node: NodeId,
        key: Key,
        metrics: &mut Metrics,
    ) -> Result<Option<Vec<u8>>, StorageError> {
        self.reachable(node)?;
        metrics.record(self.fetch_kind, 64, PLANE_HOP_MS);
        Ok(self.stored(node, key))
    }

    /// What `node` holds under `key`, unaccounted and whether or not it is
    /// online.
    pub(crate) fn stored(&self, node: NodeId, key: Key) -> Option<Vec<u8>> {
        self.store.get(node.0, key.0).map(<[u8]>::to_vec)
    }

    /// Whether direct access to `node` may go ahead: the one error
    /// contract of every plane's `store_at` and `fetch_from`.
    fn reachable(&self, node: NodeId) -> Result<(), StorageError> {
        match self.arena.slot_of(node.0) {
            Some(slot) if self.arena.is_online_slot(slot) => Ok(()),
            Some(_) => Err(StorageError::NodeOffline(node)),
            None => Err(StorageError::UnknownNode(node)),
        }
    }

    /// Starts an empty cache of `capacity` entries under the family's
    /// admission policy; a family without a cache ignores the call.
    pub(crate) fn start_cache(&mut self, capacity: usize, seed: u64) {
        self.hot = match self.admission {
            Admission::Off => return,
            Admission::All => Some(HotCache::new(capacity)),
            Admission::Coin(p256) => Some(HotCache::new(capacity).with_admission(seed, p256)),
        };
    }

    /// Estimated resident bytes of the membership and the blob store.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.arena.memory_bytes() + self.store.memory_bytes()
    }
}

/// Struct-of-arrays node membership: sorted identifiers + online bitmap.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeArena {
    ids: Vec<u64>,
    online: Vec<bool>,
    online_len: usize,
}

impl NodeArena {
    /// Builds an arena from a sorted, deduplicated id list; all nodes start
    /// online.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is not strictly increasing.
    pub(crate) fn from_sorted_ids(ids: Vec<u64>) -> Self {
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "arena ids must be sorted and unique"
        );
        let n = ids.len();
        NodeArena {
            ids,
            online: vec![true; n],
            online_len: n,
        }
    }

    /// Number of nodes (online and offline).
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Online node count.
    pub(crate) fn online_len(&self) -> usize {
        self.online_len
    }

    /// The sorted identifier array.
    pub(crate) fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Dense slot of `id`, if present.
    pub(crate) fn slot_of(&self, id: u64) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Whether the arena contains `id`.
    pub(crate) fn contains(&self, id: u64) -> bool {
        self.slot_of(id).is_some()
    }

    /// Whether `id` is a current, online member.
    pub(crate) fn is_online(&self, id: u64) -> bool {
        self.slot_of(id).is_some_and(|s| self.online[s])
    }

    /// Whether the node at `slot` is online.
    pub(crate) fn is_online_slot(&self, slot: usize) -> bool {
        self.online[slot]
    }

    /// Sets the online flag for `id`; returns the previous value, or
    /// `None` (nothing changes) for unknown ids.
    pub(crate) fn set_online(&mut self, id: u64, online: bool) -> Option<bool> {
        let slot = self.slot_of(id)?;
        let was = self.online[slot];
        self.online[slot] = online;
        match (was, online) {
            (false, true) => self.online_len += 1,
            (true, false) => self.online_len -= 1,
            _ => {}
        }
        Some(was)
    }

    /// Inserts a new id (online). Returns `false` when already present.
    /// O(n) splice — joins are rare relative to lookups.
    pub(crate) fn insert(&mut self, id: u64) -> bool {
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, id);
                self.online.insert(pos, true);
                self.online_len += 1;
                true
            }
        }
    }

    /// Removes `id`; returns `false` when absent. O(n) splice.
    pub(crate) fn remove(&mut self, id: u64) -> bool {
        match self.ids.binary_search(&id) {
            Ok(pos) => {
                if self.online[pos] {
                    self.online_len -= 1;
                }
                self.ids.remove(pos);
                self.online.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Sorted identifiers of every online node.
    pub(crate) fn online_ids(&self) -> Vec<u64> {
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
    pub(crate) fn nth_online(&self, rank: usize) -> Option<u64> {
        if self.online_len == 0 {
            return None;
        }
        let rank = rank % self.online_len;
        if self.online_len == self.ids.len() {
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
    pub(crate) fn partition_point(&self, key: u64) -> usize {
        self.ids.partition_point(|&id| id < key)
    }

    /// Estimated resident bytes of the arena itself.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<u64>()
            + self.online.capacity()
            + std::mem::size_of::<Self>()
    }
}

/// One interned key/value store shared by all nodes of an overlay.
///
/// Replaces per-node `HashMap<u64, Vec<u8>>`: entries are keyed by
/// `(holder id, key)` and share their value's allocation with every equal
/// value, so the R identical copies a replication layer writes cost one
/// allocation. A value leaves the interning table with its last entry (an
/// overwrite or a purge), so the table never holds more distinct values
/// than entries.
#[derive(Debug, Clone, Default)]
pub(crate) struct SharedStore {
    entries: HashMap<(u64, u64), Arc<[u8]>>,
    /// Every value an entry holds, once.
    values: HashSet<Arc<[u8]>>,
}

impl SharedStore {
    /// Stores `value` for `(holder, key)`, replacing any previous entry.
    pub(crate) fn insert(&mut self, holder: u64, key: u64, value: &[u8]) {
        let value = match self.values.get(value) {
            Some(shared) => Arc::clone(shared),
            None => {
                let shared: Arc<[u8]> = value.into();
                self.values.insert(Arc::clone(&shared));
                shared
            }
        };
        if let Some(old) = self.entries.insert((holder, key), value) {
            self.release(old);
        }
    }

    /// Drops a value taken out of an entry; the table lets go of it when
    /// this was its last entry (only the table's reference and this one
    /// are left).
    fn release(&mut self, value: Arc<[u8]>) {
        if Arc::strong_count(&value) == 2 {
            self.values.remove(&value);
        }
    }

    /// The value stored for `(holder, key)`, if any.
    pub(crate) fn get(&self, holder: u64, key: u64) -> Option<&[u8]> {
        self.entries.get(&(holder, key)).map(AsRef::as_ref)
    }

    /// Drops every entry held by `holder` (an ungraceful departure).
    pub(crate) fn purge_holder(&mut self, holder: u64) {
        let mut gone = Vec::new();
        self.entries.retain(|&(h, _), value| {
            if h == holder {
                gone.push(Arc::clone(value));
            }
            h != holder
        });
        for value in gone {
            self.release(value);
        }
    }

    /// Estimated resident bytes: entry table + interned values (with their
    /// two reference counts) + interning table.
    pub(crate) fn memory_bytes(&self) -> usize {
        let slot = std::mem::size_of::<Arc<[u8]>>() + 8;
        let value_bytes: usize = self.values.iter().map(|v| v.len() + 16).sum();
        self.entries.capacity() * (std::mem::size_of::<(u64, u64)>() + slot)
            + value_bytes
            + self.values.capacity() * slot
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
        assert_eq!(a.online_len(), 4);
        assert_eq!(a.slot_of(11), Some(2));
        assert!(a.is_online(7));
        assert_eq!(a.set_online(7, false), Some(true));
        assert!(!a.is_online(7));
        assert_eq!(a.online_len(), 3);
        assert_eq!(a.online_ids(), vec![3, 11, 20]);
        // nth_online skips offline nodes deterministically.
        assert_eq!(a.nth_online(0), Some(3));
        assert_eq!(a.nth_online(1), Some(11));
        assert_eq!(a.nth_online(4), Some(11)); // wraps mod online_len
        assert!(a.insert(9));
        assert!(!a.insert(9));
        assert_eq!(a.ids(), &[3, 7, 9, 11, 20]);
        assert!(a.remove(3));
        assert!(!a.remove(3));
        // 5 nodes minus removed 3, with 7 still offline: 9, 11, 20 online.
        assert_eq!(a.online_len(), 3);
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

    /// `(entries, distinct values)`.
    fn counts(s: &SharedStore) -> (usize, usize) {
        (s.entries.len(), s.values.len())
    }

    #[test]
    fn shared_store_roundtrip_and_dedup() {
        let mut s = SharedStore::default();
        s.insert(1, 100, b"hello");
        s.insert(2, 100, b"hello");
        s.insert(3, 100, b"hello");
        assert_eq!(s.get(1, 100), Some(&b"hello"[..]));
        assert_eq!(s.get(2, 100), Some(&b"hello"[..]));
        assert_eq!(s.get(9, 100), None);
        // Three replicas, one interned allocation.
        assert_eq!(counts(&s), (3, 1));
    }

    #[test]
    fn shared_store_overwrite_and_purge() {
        let mut s = SharedStore::default();
        s.insert(1, 5, b"v1");
        s.insert(1, 5, b"v2");
        assert_eq!(s.get(1, 5), Some(&b"v2"[..]));
        // The overwritten value went with its last entry.
        assert_eq!(counts(&s), (1, 1));
        s.insert(1, 5, b"v2");
        assert_eq!(counts(&s), (1, 1));
        s.insert(1, 6, b"other");
        s.insert(2, 6, b"other");
        s.purge_holder(1);
        assert_eq!(s.get(1, 5), None);
        assert_eq!(s.get(1, 6), None);
        assert_eq!(s.get(2, 6), Some(&b"other"[..]));
        assert_eq!(counts(&s), (1, 1));
        s.purge_holder(2);
        assert_eq!(counts(&s), (0, 0));
        // Two keys of one holder sharing a value: it goes with the second.
        s.insert(3, 7, b"v1");
        s.insert(3, 8, b"v1");
        s.insert(4, 7, b"v1");
        assert_eq!(counts(&s), (3, 1));
        s.purge_holder(4);
        assert_eq!(counts(&s), (2, 1));
        s.purge_holder(3);
        assert_eq!(counts(&s), (0, 0));
    }

    #[test]
    fn shared_store_never_holds_more_values_than_entries() {
        // A seeded stream of overwrites, shared values and purges over a
        // few holders and keys.
        let mut s = SharedStore::default();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (holder, key, value) = (x % 8, (x >> 8) % 4, (x >> 16) % 6);
            if x >> 40 & 15 == 0 {
                s.purge_holder(holder);
            } else {
                s.insert(holder, key, &value.to_be_bytes());
            }
            let (entries, values) = counts(&s);
            assert!(values <= entries, "{values} values for {entries} entries");
            assert_eq!(
                s.get(holder, key).is_some(),
                s.entries.contains_key(&(holder, key))
            );
        }
    }

    #[test]
    fn shared_store_memory_counts_values_once() {
        let mut s = SharedStore::default();
        let blob = vec![0xAB; 1024];
        for holder in 0..100u64 {
            s.insert(holder, 1, &blob);
        }
        // 100 holders of a 1 KiB blob stay near 1 KiB of value bytes,
        // not 100 KiB.
        assert!(s.memory_bytes() < 16 * 1024, "{}", s.memory_bytes());
    }
}
