//! Materialized feed caching with integrity-preserving invalidation.
//!
//! The survey's feed problem (§II, §IV): a DOSN reader aggregates the
//! latest posts of every friend, but each post lives encrypted on a
//! replicated overlay — a naive feed read is `friends × posts` quorum
//! reads. Centralized OSNs answer this with materialized timelines; a DOSN
//! cannot trust a materialized copy blindly, because a storage peer (or the
//! cache itself) could serve stale or forked content.
//!
//! [`FeedCache`] is the DOSN answer: per-reader materialized slices of each
//! author's timeline, keyed by the author's **hash-chain head** (§IV-B; the
//! timeline lives in the author's engine record). A cached slice is served
//! only while the author's current chain head still equals the head
//! recorded at fill time.
//! Any append by the author advances the head, which invalidates the whole
//! slice and falls the read through to the normal quorum path — so a cache
//! hit can never silently serve tampered or forked content: the chain head
//! *is* the fork-consistency witness.
//!
//! The cache stores decrypted bodies (it lives reader-side, inside the
//! engine, after `privacy.unseal`), is bounded in total cached posts, and
//! evicts whole author-slices LRU-first. All bookkeeping is deterministic
//! (`BTreeMap` + logical ticks) so cached and uncached runs produce
//! byte-identical batch digests.

use crate::identity::UserId;
use crate::integrity::EntryHash;
use std::collections::BTreeMap;

/// One aggregated feed entry returned by `read_feed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedItem {
    /// The post's author (one of the reader's friends).
    pub author: UserId,
    /// The post's sequence number on the author's timeline.
    pub seq: u64,
    /// The decrypted post body.
    pub body: String,
}

/// A reader's cached slice of one author's timeline.
#[derive(Debug, Clone)]
struct AuthorSlice {
    /// The author's chain head when this slice was filled. The slice is
    /// valid only while the live head still matches.
    head: EntryHash,
    /// Cached decrypted bodies by sequence number.
    posts: BTreeMap<u64, String>,
    /// Logical LRU tick of the slice's last hit or fill.
    last_used: u64,
}

/// Counters the cache maintains for tests and metric export. The engine
/// mirrors these onto the `cache.*` instruments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedCacheStats {
    /// Reads served from a slice whose chain head matched.
    pub hits: u64,
    /// Reads that fell through to a quorum read.
    pub misses: u64,
    /// Slices dropped because the author's chain head advanced.
    pub invalidations: u64,
    /// Posts evicted by capacity pressure.
    pub evictions: u64,
}

/// Per-reader materialized timelines with chain-head invalidation.
///
/// Keyed `(reader, author) → slice`; capacity counts cached *posts* across
/// all slices. See the module docs for the integrity argument.
#[derive(Debug, Clone)]
pub struct FeedCache {
    capacity: usize,
    tick: u64,
    len: usize,
    slices: BTreeMap<(UserId, UserId), AuthorSlice>,
    stats: FeedCacheStats,
}

impl FeedCache {
    /// An empty cache holding at most `capacity` posts in total.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "feed cache capacity must be at least 1");
        FeedCache {
            capacity,
            tick: 0,
            len: 0,
            slices: BTreeMap::new(),
            stats: FeedCacheStats::default(),
        }
    }

    /// Total cached posts across all slices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> FeedCacheStats {
        self.stats
    }

    /// Attempts to serve `(reader, author, seq)` from the cache, given the
    /// author's **live** chain head `head`.
    ///
    /// * Slice present with `slice.head == head` and the seq cached → hit.
    /// * Slice present with a different head → the author appended (or the
    ///   state forked) since fill time: the whole slice is dropped
    ///   (counted as an invalidation) and the read misses.
    /// * Anything else → miss.
    pub fn lookup(
        &mut self,
        reader: &UserId,
        author: &UserId,
        seq: u64,
        head: EntryHash,
    ) -> Option<String> {
        self.tick += 1;
        let key = (reader.clone(), author.clone());
        match self.slices.get_mut(&key) {
            Some(slice) if slice.head == head => {
                if let Some(body) = slice.posts.get(&seq) {
                    slice.last_used = self.tick;
                    self.stats.hits += 1;
                    Some(body.clone())
                } else {
                    self.stats.misses += 1;
                    None
                }
            }
            Some(_) => {
                let dropped = self.slices.remove(&key).expect("slice just matched");
                self.len -= dropped.posts.len();
                self.stats.invalidations += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Fills `(reader, author, seq) → body`, recorded against the author's
    /// chain head `head` observed when the body was read and verified. A
    /// slice pinned to an older head is replaced outright (its posts
    /// predate `head` and must not survive under the new witness). Returns
    /// the number of posts evicted by capacity pressure.
    pub fn insert(
        &mut self,
        reader: &UserId,
        author: &UserId,
        seq: u64,
        head: EntryHash,
        body: String,
    ) -> u64 {
        self.tick += 1;
        let key = (reader.clone(), author.clone());
        let slice = self.slices.entry(key).or_insert_with(|| AuthorSlice {
            head,
            posts: BTreeMap::new(),
            last_used: 0,
        });
        if slice.head != head {
            self.len -= slice.posts.len();
            slice.posts.clear();
            slice.head = head;
        }
        slice.last_used = self.tick;
        if slice.posts.insert(seq, body).is_none() {
            self.len += 1;
        }
        let mut evicted = 0;
        while self.len > self.capacity {
            // Victim = least-recently-used slice; shed its oldest post
            // first so the hottest (newest) posts of a slice die last.
            let victim = self
                .slices
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
                .expect("cache over capacity is non-empty");
            let slice = self.slices.get_mut(&victim).expect("victim exists");
            let oldest = *slice
                .posts
                .keys()
                .next()
                .expect("victim slice is non-empty");
            slice.posts.remove(&oldest);
            self.len -= 1;
            evicted += 1;
            if slice.posts.is_empty() {
                self.slices.remove(&victim);
            }
        }
        self.stats.evictions += evicted;
        evicted
    }

    /// Drops every slice cached for `author` (all readers) — used when an
    /// author's state is reset outside the normal append path.
    pub fn invalidate_author(&mut self, author: &UserId) -> u64 {
        let keys: Vec<_> = self
            .slices
            .keys()
            .filter(|(_, a)| a == author)
            .cloned()
            .collect();
        let mut dropped = 0;
        for key in keys {
            let slice = self.slices.remove(&key).expect("key just listed");
            self.len -= slice.posts.len();
            dropped += 1;
        }
        self.stats.invalidations += dropped;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uid(s: &str) -> UserId {
        UserId(s.to_string())
    }

    #[test]
    fn hit_requires_matching_head() {
        let mut c = FeedCache::new(8);
        let (r, a) = (uid("reader"), uid("author"));
        let head = [1u8; 32];
        c.insert(&r, &a, 0, head, "post".into());
        assert_eq!(c.lookup(&r, &a, 0, head).as_deref(), Some("post"));
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn advanced_head_invalidates_whole_slice() {
        let mut c = FeedCache::new(8);
        let (r, a) = (uid("reader"), uid("author"));
        c.insert(&r, &a, 0, [1u8; 32], "p0".into());
        c.insert(&r, &a, 1, [1u8; 32], "p1".into());
        // The author appended: the live head is now different.
        assert!(c.lookup(&r, &a, 0, [2u8; 32]).is_none());
        assert_eq!(c.stats().invalidations, 1);
        assert!(c.is_empty(), "the whole slice is dropped");
        // Even the other cached seq is gone.
        assert!(c.lookup(&r, &a, 1, [2u8; 32]).is_none());
    }

    #[test]
    fn insert_with_newer_head_replaces_slice() {
        let mut c = FeedCache::new(8);
        let (r, a) = (uid("reader"), uid("author"));
        c.insert(&r, &a, 0, [1u8; 32], "old".into());
        c.insert(&r, &a, 1, [2u8; 32], "new".into());
        assert!(
            c.lookup(&r, &a, 0, [2u8; 32]).is_none(),
            "pre-head post dropped"
        );
        assert_eq!(c.lookup(&r, &a, 1, [2u8; 32]).as_deref(), Some("new"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_evicts_lru_slice_oldest_post_first() {
        let mut c = FeedCache::new(3);
        let r = uid("reader");
        let (a, b) = (uid("alice"), uid("bob"));
        c.insert(&r, &a, 0, [1u8; 32], "a0".into());
        c.insert(&r, &a, 1, [1u8; 32], "a1".into());
        c.insert(&r, &b, 0, [2u8; 32], "b0".into());
        // alice's slice was used more recently (tick 2) than... actually
        // bob's fill is newest; alice is LRU. One more post evicts a0.
        let evicted = c.insert(&r, &b, 1, [2u8; 32], "b1".into());
        assert_eq!(evicted, 1);
        assert_eq!(c.len(), 3);
        assert!(c.lookup(&r, &a, 0, [1u8; 32]).is_none(), "a0 was evicted");
        assert_eq!(c.lookup(&r, &a, 1, [1u8; 32]).as_deref(), Some("a1"));
    }

    #[test]
    fn slices_are_per_reader() {
        let mut c = FeedCache::new(8);
        let (r1, r2, a) = (uid("r1"), uid("r2"), uid("author"));
        c.insert(&r1, &a, 0, [1u8; 32], "p".into());
        assert!(c.lookup(&r2, &a, 0, [1u8; 32]).is_none());
        assert_eq!(c.lookup(&r1, &a, 0, [1u8; 32]).as_deref(), Some("p"));
    }

    #[test]
    fn invalidate_author_drops_all_readers() {
        let mut c = FeedCache::new(8);
        let (r1, r2, a) = (uid("r1"), uid("r2"), uid("author"));
        c.insert(&r1, &a, 0, [1u8; 32], "p".into());
        c.insert(&r2, &a, 0, [1u8; 32], "p".into());
        assert_eq!(c.invalidate_author(&a), 2);
        assert!(c.is_empty());
    }
}
