//! Persistent authenticated dictionary (survey §III-F).
//!
//! "The hybrid structure of the access control lists (ACLs) in Frientegrity
//! is organized in a persistent authenticated dictionary (PAD). Thus, ACLs
//! are PADs, making it possible to access in logarithmic time." A PAD lets
//! an untrusted provider store a key→value map on the owner's behalf and
//! answer lookups with *proofs*: a positive proof that `k ↦ v` under the
//! owner-signed root, or a negative proof that `k` is absent — so a
//! malicious provider can neither forge ACL entries nor hide them.
//!
//! Implementation: a [`merkle`] tree over the sorted entry list, whose
//! signed root also signs the entry count. Membership proofs are RFC 9162
//! inclusion proofs, checked at their claimed index against that signed
//! count; absence proofs present the two *adjacent* entries that straddle
//! the missing key (plus their proofs), or the first or last entry at an
//! edge — adjacency and the edges are checked on the bound indices, so a
//! provider cannot renumber a neighbour to hide an entry. Every mutation
//! signs a fresh root at the next version and the owner keeps only that
//! one: an older signed root still verifies for whoever holds it, so a
//! verifier pins the freshest version it has seen. Proof size and
//! verification are `O(log n)`.

use crate::chacha::SecureRng;
use crate::error::CryptoError;
use crate::group::SchnorrGroup;
use crate::merkle::{self, Hash};
use crate::schnorr::{Signature, SigningKey, VerifyingKey};
use crate::sha256::{sha256_concat, Sha256};
use std::collections::BTreeMap;

/// The PAD's interior-node domain tag.
const NODE_TAG: &[u8] = b"dosn.pad.node";

fn leaf_hash(key: &[u8], value: &[u8]) -> Hash {
    sha256_concat(&[
        b"dosn.pad.leaf",
        &(key.len() as u64).to_be_bytes(),
        key,
        &(value.len() as u64).to_be_bytes(),
        value,
    ])
}

fn leaves(entries: &BTreeMap<Vec<u8>, Vec<u8>>) -> Vec<Hash> {
    entries.iter().map(|(k, v)| leaf_hash(k, v)).collect()
}

/// `owner`'s signature on `entries` as `version`: the Merkle root over
/// every leaf, so each mutation rehashes the whole list.
fn sign_root(
    owner: &SigningKey,
    version: u64,
    entries: &BTreeMap<Vec<u8>, Vec<u8>>,
    rng: &mut SecureRng,
) -> SignedRoot {
    let size = entries.len();
    let root = merkle::root(NODE_TAG, &leaves(entries));
    let signature = owner.sign(&SignedRoot::digest(version, size, &root), rng);
    SignedRoot {
        version,
        size,
        root,
        signature,
    }
}

/// A signed root: version, entry count, root hash, and the owner's
/// signature over all three.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedRoot {
    /// Monotone version (one per mutation).
    pub version: u64,
    /// Entries (Merkle leaves) at this version: every proof's index is
    /// checked against it.
    pub size: usize,
    /// Merkle root at this version.
    pub root: Hash,
    signature: Signature,
}

impl SignedRoot {
    fn digest(version: u64, size: usize, root: &Hash) -> Hash {
        let mut h = Sha256::new();
        h.update(b"dosn.pad.root");
        h.update(&version.to_be_bytes());
        h.update(&(size as u64).to_be_bytes());
        h.update(root);
        h.finalize()
    }

    /// Verifies the owner's signature on this root.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidSignature`] when the signature is bad.
    pub fn verify(&self, owner: &VerifyingKey) -> Result<(), CryptoError> {
        let digest = Self::digest(self.version, self.size, &self.root);
        owner.verify(&digest, &self.signature)
    }

    /// Wire size in bytes: version, count, root hash and signature.
    pub fn size_bytes(&self, group: &SchnorrGroup) -> usize {
        8 + 8 + 32 + self.signature.size_bytes(group)
    }
}

/// A proof that a key is present (with its value) or absent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupProof {
    /// `key ↦ value` is in the dictionary.
    Present {
        /// The bound value.
        value: Vec<u8>,
        /// Leaf index in the sorted entry list.
        index: usize,
        /// Sibling hashes from the leaf up ([`merkle::inclusion_proof`]).
        path: Vec<Hash>,
    },
    /// `key` is absent; the straddling neighbors prove it.
    Absent {
        /// The greatest entry below the key (`None` at the left edge).
        left: Option<NeighborProof>,
        /// The least entry above the key (`None` at the right edge).
        right: Option<NeighborProof>,
    },
}

impl LookupProof {
    /// Wire size in bytes: each value, neighbor key, index and path with
    /// an 8-byte length or index, and 32 bytes per path hash. The key
    /// looked up is the verifier's own and is not counted.
    pub fn size_bytes(&self) -> usize {
        let entry = |value: &[u8], path: &[Hash]| 8 + value.len() + 8 + 8 + 32 * path.len();
        match self {
            LookupProof::Present { value, path, .. } => entry(value, path),
            LookupProof::Absent { left, right } => [left, right]
                .into_iter()
                .flatten()
                .map(|n| 8 + n.key.len() + entry(&n.value, &n.path))
                .sum(),
        }
    }
}

/// A neighbor entry with its own inclusion proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborProof {
    key: Vec<u8>,
    value: Vec<u8>,
    index: usize,
    path: Vec<Hash>,
}

/// The owner-side persistent authenticated dictionary.
///
/// ```
/// use dosn_crypto::pad::AuthenticatedDictionary;
/// use dosn_crypto::{schnorr::SigningKey, group::SchnorrGroup, chacha::SecureRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SecureRng::seed_from_u64(120);
/// let owner = SigningKey::generate(SchnorrGroup::toy(), &mut rng);
/// let mut acl = AuthenticatedDictionary::new(owner.clone(), [], &mut rng);
///
/// acl.insert(b"bob", b"reader", &mut rng);
/// acl.insert(b"carol", b"writer", &mut rng);
///
/// // The provider answers lookups with proofs a client can verify offline.
/// let (proof, root) = acl.prove(b"bob");
/// AuthenticatedDictionary::verify(owner.verifying_key(), &root, b"bob", &proof)?;
///
/// // Absence is also provable: the provider cannot hide entries.
/// let (proof, root) = acl.prove(b"mallory");
/// AuthenticatedDictionary::verify(owner.verifying_key(), &root, b"mallory", &proof)?;
/// # Ok(())
/// # }
/// ```
pub struct AuthenticatedDictionary {
    owner: SigningKey,
    entries: BTreeMap<Vec<u8>, Vec<u8>>,
    /// The current signed root.
    root: SignedRoot,
}

impl std::fmt::Debug for AuthenticatedDictionary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AuthenticatedDictionary({} entries, version {})",
            self.entries.len(),
            self.root.version
        )
    }
}

impl AuthenticatedDictionary {
    /// Creates a dictionary owned by `owner` that holds `entries` (a later
    /// duplicate key replaces an earlier one), and signs its first root,
    /// version 1: `n` initial entries cost one signature, not `n`.
    pub fn new(
        owner: SigningKey,
        entries: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
        rng: &mut SecureRng,
    ) -> Self {
        let entries = entries.into_iter().collect();
        let root = sign_root(&owner, 1, &entries, rng);
        AuthenticatedDictionary {
            owner,
            entries,
            root,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Signs the next version over the current entries.
    fn resign(&mut self, rng: &mut SecureRng) -> SignedRoot {
        self.root = sign_root(&self.owner, self.root.version + 1, &self.entries, rng);
        self.root.clone()
    }

    /// Inserts (or replaces) an entry, producing a fresh signed root.
    pub fn insert(&mut self, key: &[u8], value: &[u8], rng: &mut SecureRng) -> SignedRoot {
        self.entries.insert(key.to_vec(), value.to_vec());
        self.resign(rng)
    }

    /// Removes an entry (no-op version bump if absent), producing a fresh
    /// signed root.
    pub fn remove(&mut self, key: &[u8], rng: &mut SecureRng) -> SignedRoot {
        self.entries.remove(key);
        self.resign(rng)
    }

    /// Produces a lookup proof for `key` against the *current* version.
    pub fn prove(&self, key: &[u8]) -> (LookupProof, SignedRoot) {
        let entries: Vec<(&Vec<u8>, &Vec<u8>)> = self.entries.iter().collect();
        let leaves = leaves(&self.entries);
        let neighbor = |index: usize| NeighborProof {
            key: entries[index].0.clone(),
            value: entries[index].1.clone(),
            index,
            path: merkle::inclusion_proof(NODE_TAG, &leaves, index),
        };
        let proof = match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            Ok(index) => LookupProof::Present {
                value: entries[index].1.clone(),
                index,
                path: merkle::inclusion_proof(NODE_TAG, &leaves, index),
            },
            Err(insertion) => LookupProof::Absent {
                left: insertion.checked_sub(1).map(neighbor),
                right: (insertion < entries.len()).then(|| neighbor(insertion)),
            },
        };
        (proof, self.root.clone())
    }

    /// Client-side verification of a lookup proof against a signed root.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::InvalidSignature`] — bad root signature;
    /// * [`CryptoError::InvalidProof`] — the proof does not place its entry
    ///   at its index under the root and its signed size, or the absence
    ///   neighbors are not adjacent entries straddling the key.
    pub fn verify(
        owner: &VerifyingKey,
        root: &SignedRoot,
        key: &[u8],
        proof: &LookupProof,
    ) -> Result<(), CryptoError> {
        root.verify(owner)?;
        let included = |key: &[u8], value: &[u8], index: usize, path: &[Hash]| {
            let leaf = leaf_hash(key, value);
            merkle::verify_inclusion(NODE_TAG, &leaf, index, root.size, path, &root.root)
        };
        let neighbor = |n: &NeighborProof| included(&n.key, &n.value, n.index, &n.path);
        let valid = match proof {
            LookupProof::Present { value, index, path } => included(key, value, *index, path),
            LookupProof::Absent { left, right } => match (left, right) {
                (Some(l), Some(r)) => {
                    neighbor(l)
                        && neighbor(r)
                        && l.key.as_slice() < key
                        && key < r.key.as_slice()
                        && r.index == l.index + 1
                }
                // Key is beyond the right edge.
                (Some(l), None) => {
                    neighbor(l) && l.key.as_slice() < key && l.index + 1 == root.size
                }
                (None, Some(r)) => neighbor(r) && key < r.key.as_slice() && r.index == 0,
                (None, None) => root.size == 0,
            },
        };
        if valid {
            Ok(())
        } else {
            Err(CryptoError::InvalidProof)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AuthenticatedDictionary, SigningKey, SecureRng) {
        let mut rng = SecureRng::seed_from_u64(121);
        let owner = SigningKey::generate(SchnorrGroup::toy(), &mut rng);
        let dict = AuthenticatedDictionary::new(owner.clone(), [], &mut rng);
        (dict, owner, rng)
    }

    fn populated() -> (AuthenticatedDictionary, SigningKey, SecureRng) {
        let (mut dict, owner, mut rng) = setup();
        for (k, v) in [("bob", "reader"), ("carol", "writer"), ("erin", "reader")] {
            dict.insert(k.as_bytes(), v.as_bytes(), &mut rng);
        }
        (dict, owner, rng)
    }

    #[test]
    fn membership_proofs_verify() {
        let (dict, owner, _) = populated();
        for key in ["bob", "carol", "erin"] {
            let (proof, root) = dict.prove(key.as_bytes());
            assert!(matches!(proof, LookupProof::Present { .. }));
            AuthenticatedDictionary::verify(owner.verifying_key(), &root, key.as_bytes(), &proof)
                .unwrap();
        }
    }

    #[test]
    fn absence_proofs_verify() {
        let (dict, owner, _) = populated();
        // Interior gap, left edge, right edge.
        for key in ["dave", "aaron", "zed"] {
            let (proof, root) = dict.prove(key.as_bytes());
            assert!(matches!(proof, LookupProof::Absent { .. }), "{key}");
            AuthenticatedDictionary::verify(owner.verifying_key(), &root, key.as_bytes(), &proof)
                .unwrap();
        }
    }

    #[test]
    fn forged_value_rejected() {
        let (dict, owner, _) = populated();
        let (proof, root) = dict.prove(b"bob");
        let LookupProof::Present { index, path, .. } = proof else {
            panic!("present");
        };
        let forged = LookupProof::Present {
            value: b"owner".to_vec(), // privilege escalation attempt
            index,
            path,
        };
        assert_eq!(
            AuthenticatedDictionary::verify(owner.verifying_key(), &root, b"bob", &forged)
                .unwrap_err(),
            CryptoError::InvalidProof
        );
    }

    #[test]
    fn hiding_an_entry_rejected() {
        // The provider tries to prove "carol" absent although she is listed,
        // with bob and erin at their true indices: carol sits between them,
        // so they are not adjacent. (Renumbering erin to make them look
        // adjacent fails too: see the test below.)
        let (dict, owner, _) = populated();
        let (bob_proof, root) = dict.prove(b"bob");
        let (erin_proof, _) = dict.prove(b"erin");
        let LookupProof::Present {
            value: bv,
            index: bi,
            path: bp,
        } = bob_proof
        else {
            panic!()
        };
        let LookupProof::Present {
            value: ev,
            index: ei,
            path: ep,
        } = erin_proof
        else {
            panic!()
        };
        let fake_absent = LookupProof::Absent {
            left: Some(NeighborProof {
                key: b"bob".to_vec(),
                value: bv,
                index: bi,
                path: bp,
            }),
            right: Some(NeighborProof {
                key: b"erin".to_vec(),
                value: ev,
                index: ei,
                path: ep,
            }),
        };
        assert!(AuthenticatedDictionary::verify(
            owner.verifying_key(),
            &root,
            b"carol",
            &fake_absent
        )
        .is_err());
    }

    /// `key`'s membership proof, recast as an absence-proof neighbor.
    fn as_neighbor(dict: &AuthenticatedDictionary, key: &[u8]) -> NeighborProof {
        let (LookupProof::Present { value, index, path }, _) = dict.prove(key) else {
            panic!("{key:?} is listed")
        };
        NeighborProof {
            key: key.to_vec(),
            value,
            index,
            path,
        }
    }

    #[test]
    fn renumbering_a_neighbor_cannot_hide_an_entry() {
        // erin keeps her true path but claims bob's index + 1, so that bob
        // and erin look adjacent around carol.
        let (dict, owner, _) = populated();
        let (_, root) = dict.prove(b"carol");
        let bob = as_neighbor(&dict, b"bob");
        let erin = NeighborProof {
            index: bob.index + 1,
            ..as_neighbor(&dict, b"erin")
        };
        let forged = LookupProof::Absent {
            left: Some(bob),
            right: Some(erin),
        };
        assert_eq!(
            AuthenticatedDictionary::verify(owner.verifying_key(), &root, b"carol", &forged),
            Err(CryptoError::InvalidProof)
        );
    }

    #[test]
    fn a_short_count_cannot_hide_the_last_entry() {
        // carol as the last entry would prove erin absent at the right
        // edge; the signed count says carol is not last, and a root
        // relabelled with the count that would make her last loses the
        // owner's signature.
        let (dict, owner, _) = populated();
        let (_, root) = dict.prove(b"erin");
        let carol = as_neighbor(&dict, b"carol");
        let short = SignedRoot {
            size: carol.index + 1,
            ..root.clone()
        };
        let forged = LookupProof::Absent {
            left: Some(carol),
            right: None,
        };
        let key = owner.verifying_key();
        assert_eq!(
            AuthenticatedDictionary::verify(key, &root, b"erin", &forged),
            Err(CryptoError::InvalidProof)
        );
        assert_eq!(
            AuthenticatedDictionary::verify(key, &short, b"erin", &forged),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn a_membership_proof_is_bound_to_its_index() {
        let (dict, owner, _) = populated();
        for key in [b"bob".as_slice(), b"carol", b"erin"] {
            let (proof, root) = dict.prove(key);
            let LookupProof::Present { value, index, path } = proof else {
                panic!("{key:?} is listed")
            };
            for moved in index.checked_sub(1).into_iter().chain([index + 1]) {
                let forged = LookupProof::Present {
                    value: value.clone(),
                    index: moved,
                    path: path.clone(),
                };
                assert_eq!(
                    AuthenticatedDictionary::verify(owner.verifying_key(), &root, key, &forged),
                    Err(CryptoError::InvalidProof),
                    "{key:?} at {moved}"
                );
            }
        }
    }

    #[test]
    fn root_bytes_are_pinned() {
        // bob ↦ reader, carol ↦ writer, erin ↦ reader. A change to the leaf
        // or node hashing, or to the tree's shape, moves this root.
        let (dict, _, _) = populated();
        let (_, root) = dict.prove(b"bob");
        let hex: String = root.root.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "2eb3e93b6b61f2dca65b450d348f67c3b0800ee4b2bc6ac254bd4768303a6fe9"
        );
    }

    #[test]
    fn stale_root_rejected_for_new_entries() {
        let (mut dict, owner, mut rng) = populated();
        let (_, old_root) = dict.prove(b"bob");
        dict.insert(b"dave", b"reader", &mut rng);
        let (new_proof, new_root) = dict.prove(b"dave");
        // New proof does not verify against the old root.
        assert!(AuthenticatedDictionary::verify(
            owner.verifying_key(),
            &old_root,
            b"dave",
            &new_proof
        )
        .is_err());
        AuthenticatedDictionary::verify(owner.verifying_key(), &new_root, b"dave", &new_proof)
            .unwrap();
    }

    #[test]
    fn removal_and_empty_dictionary() {
        let (mut dict, owner, mut rng) = setup();
        dict.insert(b"bob", b"reader", &mut rng);
        dict.remove(b"bob", &mut rng);
        assert!(dict.is_empty());
        let (proof, root) = dict.prove(b"bob");
        AuthenticatedDictionary::verify(owner.verifying_key(), &root, b"bob", &proof).unwrap();
        assert!(matches!(
            proof,
            LookupProof::Absent {
                left: None,
                right: None
            }
        ));
        assert_eq!(root.size, 0);
    }

    #[test]
    fn every_mutation_signs_the_next_version() {
        let (mut dict, _, mut rng) = setup();
        let signed: Vec<SignedRoot> = (0..5)
            .map(|i| dict.insert(format!("k{i}").as_bytes(), b"v", &mut rng))
            .collect();
        for (i, r) in signed.iter().enumerate() {
            assert_eq!(r.version, i as u64 + 2);
        }
        // Roots change with every mutation, and proofs use the latest.
        let unique: std::collections::HashSet<_> = signed.iter().map(|r| r.root).collect();
        assert_eq!(unique.len(), 5);
        assert_eq!(dict.prove(b"k0").1, signed[4]);
    }

    #[test]
    fn wrong_owner_rejected() {
        let (dict, _, mut rng) = populated();
        let mallory = SigningKey::generate(SchnorrGroup::toy(), &mut rng);
        let (proof, root) = dict.prove(b"bob");
        assert_eq!(
            AuthenticatedDictionary::verify(mallory.verifying_key(), &root, b"bob", &proof)
                .unwrap_err(),
            CryptoError::InvalidSignature
        );
    }

    #[test]
    fn large_dictionary_logarithmic_proofs() {
        let (mut dict, owner, mut rng) = setup();
        for i in 0..128 {
            dict.insert(format!("user{i:03}").as_bytes(), b"member", &mut rng);
        }
        let (proof, root) = dict.prove(b"user064");
        let LookupProof::Present { ref path, .. } = proof else {
            panic!()
        };
        assert!(
            path.len() <= 8,
            "128 entries -> ≤ 8-step path, got {}",
            path.len()
        );
        AuthenticatedDictionary::verify(owner.verifying_key(), &root, b"user064", &proof).unwrap();
    }
}
