//! Hash-chained timelines with cross-user entanglement (survey §IV-B).
//!
//! "The digital signature must be applied on each entry published by a
//! user, and includes the hash of at least one of his prior posts. This
//! causes a provable partial ordering for his posts. Another solution is to
//! establish a dependency between the timelines of different publishers …
//! the publisher adds the hashes of prior events from other participants" —
//! the Fethr (Birds of a Fethr) design. [`Timeline`] implements both: every
//! entry carries `prev_hash` and optional external references, and the
//! verifier API proves ordering within and across timelines.
//!
//! An entry is a [`SignedEnvelope`], signed once over a digest that covers
//! `prev_hash` and the refs and is the entry's hash; so the record a replica
//! stores is the entry, and stored records decoded with
//! [`SignedEnvelope::decode_wire`] rebuild a chain anyone can verify.

use super::envelope::SignedEnvelope;
use crate::error::DosnError;
use crate::identity::{Identity, UserId};
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::keys::KeyDirectory;

/// Hash of a timeline entry.
pub type EntryHash = [u8; 32];

/// A reference to another user's timeline entry (entanglement).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExternalRef {
    /// The referenced timeline's owner.
    pub author: UserId,
    /// The referenced entry's sequence number.
    pub sequence: u64,
    /// The referenced entry's hash.
    pub hash: EntryHash,
}

/// One signed, chained timeline entry: a broadcast [`SignedEnvelope`]
/// issued at its sequence number, whose [`SignedEnvelope::hash`] is what
/// its successor chains to.
pub type TimelineEntry = SignedEnvelope;

/// An author-side timeline.
///
/// ```
/// use dosn_core::integrity::Timeline;
/// use dosn_core::identity::Identity;
/// use dosn_crypto::{group::SchnorrGroup, chacha::SecureRng, keys::KeyDirectory};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SecureRng::seed_from_u64(80);
/// let directory = KeyDirectory::new();
/// let bob = Identity::create("bob", SchnorrGroup::toy(), &directory, &mut rng);
/// let mut timeline = Timeline::new(bob.id().clone());
/// timeline.append(&bob, b"first post", vec![], &mut rng);
/// timeline.append(&bob, b"second post", vec![], &mut rng);
/// timeline.verify(&directory)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    owner: UserId,
    entries: Vec<TimelineEntry>,
    /// The hash of the newest entry (zeros when empty), kept beside the
    /// entries so that reading it hashes nothing.
    head: EntryHash,
}

impl Timeline {
    /// Creates an empty timeline for `owner`.
    pub fn new(owner: UserId) -> Self {
        Timeline {
            owner,
            entries: Vec::new(),
            head: [0; 32],
        }
    }

    /// The timeline owner.
    pub fn owner(&self) -> &UserId {
        &self.owner
    }

    /// The chained entries, oldest first.
    pub fn entries(&self) -> &[TimelineEntry] {
        &self.entries
    }

    /// The hash of the newest entry (zeros when empty) — what another user
    /// embeds to entangle with this timeline.
    pub fn head_hash(&self) -> EntryHash {
        self.head
    }

    /// A reference to the newest entry, for entangling (`None` when empty).
    pub fn head_ref(&self) -> Option<ExternalRef> {
        self.entries.last().map(|e| ExternalRef {
            author: e.author.clone(),
            sequence: e.sequence,
            hash: self.head,
        })
    }

    /// Whether `witness` is the hash of one of this chain's entries at
    /// position `from` or later — whether the chain *extends* a head that
    /// somebody saw when it was at least `from + 1` entries long. Walks
    /// newest to oldest over hashes the chain already stores (the head, then
    /// what each successor chained to) and hashes nothing; a forked or
    /// rolled-back chain no longer holds the witness and answers `false`.
    /// The links are believed as stored, so the answer is as good as the
    /// chain: its holder's own, or one that passed [`Timeline::verify`].
    pub(crate) fn extends(&self, witness: &EntryHash, from: u64) -> bool {
        let from = usize::try_from(from).unwrap_or(usize::MAX);
        let mut hash = &self.head;
        for entry in self.entries.get(from..).unwrap_or_default().iter().rev() {
            // `hash` is `entry`'s own: the head, or its successor's link.
            if hash == witness {
                return true;
            }
            hash = &entry.prev_hash;
        }
        false
    }

    /// Appends and signs a new entry: one signature, over the envelope
    /// digest that chains it to the current head.
    ///
    /// # Panics
    ///
    /// Panics when `identity` is not the timeline owner.
    pub fn append(
        &mut self,
        identity: &Identity,
        body: &[u8],
        external_refs: Vec<ExternalRef>,
        rng: &mut SecureRng,
    ) -> &TimelineEntry {
        assert_eq!(identity.id(), &self.owner, "only the owner appends");
        let sequence = self.entries.len() as u64;
        let (entry, hash) =
            SignedEnvelope::chained(identity, sequence, self.head, external_refs, body, rng);
        self.head = hash;
        self.entries.push(entry);
        self.entries.last().expect("just pushed")
    }

    /// Reconstructs a timeline from transported entries, without verifying
    /// (call [`Timeline::verify`]).
    pub fn from_entries(owner: UserId, entries: Vec<TimelineEntry>) -> Self {
        let head = entries.last().map_or([0; 32], TimelineEntry::hash);
        Timeline {
            owner,
            entries,
            head,
        }
    }

    /// Verifies the whole chain: signatures, contiguous sequences, and
    /// `prev_hash` linkage.
    ///
    /// # Errors
    ///
    /// [`DosnError::IntegrityViolation`] pinpointing the first bad entry.
    pub fn verify(&self, directory: &KeyDirectory) -> Result<(), DosnError> {
        let vk = directory.verifying_key(self.owner.as_str())?;
        let mut prev = [0u8; 32];
        for (i, entry) in self.entries.iter().enumerate() {
            if entry.author != self.owner {
                return Err(DosnError::IntegrityViolation(format!(
                    "entry {i} authored by {}",
                    entry.author
                )));
            }
            if entry.sequence != i as u64 {
                return Err(DosnError::IntegrityViolation(format!(
                    "entry {i} has sequence {}",
                    entry.sequence
                )));
            }
            if entry.prev_hash != prev {
                return Err(DosnError::IntegrityViolation(format!(
                    "entry {i} breaks the hash chain"
                )));
            }
            let hash = entry.hash();
            vk.verify(&hash, entry.signature()).map_err(|_| {
                DosnError::IntegrityViolation(format!("entry {i} signature invalid"))
            })?;
            prev = hash;
        }
        Ok(())
    }

    /// Verifies that this timeline's external references into `other` match
    /// real entries there — establishing the provable cross-publisher order
    /// of §IV-B. Returns the number of verified references.
    ///
    /// # Errors
    ///
    /// [`DosnError::IntegrityViolation`] when a reference names a missing or
    /// mismatching entry.
    pub fn verify_entanglement(&self, other: &Timeline) -> Result<usize, DosnError> {
        let mut checked = 0;
        for entry in &self.entries {
            for r in &entry.external_refs {
                if r.author != other.owner {
                    continue;
                }
                let target = other.entries.get(r.sequence as usize).ok_or_else(|| {
                    DosnError::IntegrityViolation(format!(
                        "reference to missing entry {}#{}",
                        r.author, r.sequence
                    ))
                })?;
                if target.hash() != r.hash {
                    return Err(DosnError::IntegrityViolation(format!(
                        "reference hash mismatch at {}#{}",
                        r.author, r.sequence
                    )));
                }
                checked += 1;
            }
        }
        Ok(checked)
    }

    /// Whether entry `a` provably precedes entry `b` within this timeline.
    pub fn precedes(&self, a: u64, b: u64) -> bool {
        a < b && (b as usize) < self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosn_crypto::group::SchnorrGroup;
    use proptest::prelude::*;

    fn setup() -> (Identity, Identity, KeyDirectory, SecureRng) {
        let mut rng = SecureRng::seed_from_u64(81);
        let dir = KeyDirectory::new();
        let bob = Identity::create("bob", SchnorrGroup::toy(), &dir, &mut rng);
        let alice = Identity::create("alice", SchnorrGroup::toy(), &dir, &mut rng);
        (bob, alice, dir, rng)
    }

    #[test]
    fn chain_verifies_and_orders() {
        let (bob, _, dir, mut rng) = setup();
        let mut t = Timeline::new(bob.id().clone());
        for i in 0..5 {
            t.append(&bob, format!("post {i}").as_bytes(), vec![], &mut rng);
        }
        t.verify(&dir).unwrap();
        assert!(t.precedes(0, 4));
        assert!(!t.precedes(4, 0));
        assert!(!t.precedes(1, 99));
    }

    #[test]
    fn body_tampering_breaks_chain() {
        let (bob, _, dir, mut rng) = setup();
        let mut t = Timeline::new(bob.id().clone());
        t.append(&bob, b"a", vec![], &mut rng);
        t.append(&bob, b"b", vec![], &mut rng);
        t.entries[0].body = b"A".to_vec();
        assert!(t.verify(&dir).is_err());
    }

    #[test]
    fn deletion_of_middle_entry_detected() {
        let (bob, _, dir, mut rng) = setup();
        let mut t = Timeline::new(bob.id().clone());
        for i in 0..4 {
            t.append(&bob, format!("{i}").as_bytes(), vec![], &mut rng);
        }
        t.entries.remove(1);
        assert!(t.verify(&dir).is_err());
    }

    #[test]
    fn reordering_detected() {
        let (bob, _, dir, mut rng) = setup();
        let mut t = Timeline::new(bob.id().clone());
        for i in 0..3 {
            t.append(&bob, format!("{i}").as_bytes(), vec![], &mut rng);
        }
        t.entries.swap(0, 1);
        assert!(t.verify(&dir).is_err());
    }

    #[test]
    fn truncation_of_tail_is_not_detectable_by_chain_alone() {
        // The chain proves prefix integrity; withholding the newest entries
        // is exactly the attack the fork-consistency layer (history.rs)
        // exists to catch.
        let (bob, _, dir, mut rng) = setup();
        let mut t = Timeline::new(bob.id().clone());
        for i in 0..3 {
            t.append(&bob, format!("{i}").as_bytes(), vec![], &mut rng);
        }
        t.entries.pop();
        t.verify(&dir).unwrap();
    }

    #[test]
    fn entanglement_proves_cross_publisher_order() {
        let (bob, alice, dir, mut rng) = setup();
        let mut tb = Timeline::new(bob.id().clone());
        let mut ta = Timeline::new(alice.id().clone());
        tb.append(&bob, b"bob post 0", vec![], &mut rng);
        // Alice entangles with Bob's head: her post is provably after his.
        let bref = tb.head_ref().unwrap();
        ta.append(&alice, b"alice post 0", vec![bref], &mut rng);
        ta.verify(&dir).unwrap();
        assert_eq!(ta.verify_entanglement(&tb).unwrap(), 1);
    }

    #[test]
    fn forged_entanglement_detected() {
        let (bob, alice, _, mut rng) = setup();
        let mut tb = Timeline::new(bob.id().clone());
        let mut ta = Timeline::new(alice.id().clone());
        tb.append(&bob, b"real", vec![], &mut rng);
        let mut fake_ref = tb.head_ref().unwrap();
        fake_ref.hash[0] ^= 1;
        ta.append(&alice, b"claims to follow", vec![fake_ref], &mut rng);
        assert!(ta.verify_entanglement(&tb).is_err());
        // Reference to a nonexistent sequence also fails.
        let mut ta2 = Timeline::new(alice.id().clone());
        ta2.append(
            &alice,
            b"x",
            vec![ExternalRef {
                author: bob.id().clone(),
                sequence: 99,
                hash: [0; 32],
            }],
            &mut rng,
        );
        assert!(ta2.verify_entanglement(&tb).is_err());
    }

    #[test]
    fn refs_to_third_parties_are_skipped() {
        let (bob, alice, _, mut rng) = setup();
        let mut ta = Timeline::new(alice.id().clone());
        ta.append(
            &alice,
            b"x",
            vec![ExternalRef {
                author: "carol".into(),
                sequence: 0,
                hash: [9; 32],
            }],
            &mut rng,
        );
        let tb = Timeline::new(bob.id().clone());
        assert_eq!(ta.verify_entanglement(&tb).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "only the owner appends")]
    fn foreign_append_panics() {
        let (bob, alice, _, mut rng) = setup();
        let mut t = Timeline::new(bob.id().clone());
        t.append(&alice, b"hijack", vec![], &mut rng);
    }

    #[test]
    fn transported_entries_reverify() {
        let (bob, _, dir, mut rng) = setup();
        let mut t = Timeline::new(bob.id().clone());
        for i in 0..3 {
            t.append(&bob, format!("{i}").as_bytes(), vec![], &mut rng);
        }
        let rebuilt = Timeline::from_entries(bob.id().clone(), t.entries().to_vec());
        rebuilt.verify(&dir).unwrap();
    }

    #[test]
    fn extends_finds_a_witness_on_the_chain_at_or_after_the_bound_only() {
        let (bob, _, _, mut rng) = setup();
        let mut t = Timeline::new(bob.id().clone());
        assert!(
            !t.extends(&t.head_hash(), 0),
            "an empty chain holds nothing"
        );
        for i in 0..5 {
            t.append(&bob, format!("{i}").as_bytes(), vec![], &mut rng);
        }
        let hashes: Vec<EntryHash> = t.entries().iter().map(TimelineEntry::hash).collect();
        for (position, hash) in hashes.iter().enumerate() {
            for from in 0..7 {
                assert_eq!(t.extends(hash, from), from <= position as u64);
            }
        }
        assert!(!t.extends(&[0; 32], 0), "entry 0's link is not an entry");
        // A fork that keeps entries 0..=2 still extends their hashes and
        // nothing above them; a rollback to the same prefix likewise.
        let rolled_back = Timeline::from_entries(bob.id().clone(), t.entries()[..3].to_vec());
        let mut fork = rolled_back.clone();
        fork.append(&bob, b"another 3", vec![], &mut rng);
        for chain in [&rolled_back, &fork] {
            for (position, hash) in hashes.iter().enumerate() {
                assert_eq!(chain.extends(hash, 0), position < 3, "entry {position}");
            }
        }
        assert!(fork.extends(&fork.head_hash(), 3));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// The stored head is the newest entry's recomputed hash after every
        /// `append` and `from_entries`, whatever mix of the two built the
        /// chain (`true` appends, `false` rebuilds from a prefix).
        #[test]
        fn head_hash_is_the_newest_entrys_hash(
            steps in proptest::collection::vec((any::<bool>(), 0..8usize), 1..24),
        ) {
            let (bob, _, dir, mut rng) = setup();
            let mut t = Timeline::new(bob.id().clone());
            for (i, (append, keep)) in steps.into_iter().enumerate() {
                if append {
                    t.append(&bob, format!("post {i}").as_bytes(), vec![], &mut rng);
                } else {
                    let keep = keep.min(t.entries().len());
                    t = Timeline::from_entries(bob.id().clone(), t.entries()[..keep].to_vec());
                }
                let newest = t.entries().last().map_or([0; 32], TimelineEntry::hash);
                prop_assert_eq!(t.head_hash(), newest);
                prop_assert_eq!(t.head_ref().map(|r| r.hash), t.entries().last().map(TimelineEntry::hash));
            }
            t.verify(&dir).unwrap();
        }
    }
}
