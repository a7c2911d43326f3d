//! The one Merkle tree of the ACL dictionary ([`crate::pad`], survey
//! §III-F) and the object history (`dosn_core::integrity::history`, §IV-B).
//!
//! Callers hash their own leaves. Pairing them bottom-up and promoting an
//! odd last node computes RFC 9162's MTH; an empty tree's root is `[0; 32]`.
//! An interior node is `SHA-256(tag ‖ left ‖ right)`, the caller's domain
//! tag standing where RFC 9162 puts the byte `0x01`.
//!
//! An inclusion proof is the sibling hashes from the leaf up; the verifier
//! derives each side from `(index, size)`. The same siblings can still
//! verify at their index under a neighbouring size, so `size` must come
//! from something signed, such as the PAD's
//! [`SignedRoot`](crate::pad::SignedRoot).

use crate::sha256::sha256_concat;

/// A leaf or interior node hash.
pub type Hash = [u8; 32];

fn node(tag: &[u8], left: &Hash, right: &Hash) -> Hash {
    sha256_concat(&[tag, left, right])
}

/// The level above `level`: pairs hashed, an odd last node promoted.
fn parent_level(tag: &[u8], level: &[Hash]) -> Vec<Hash> {
    level
        .chunks(2)
        .map(|pair| match pair {
            [left, right] => node(tag, left, right),
            _ => pair[0],
        })
        .collect()
}

/// The root over `leaves` (`[0; 32]` when there are none).
pub fn root(tag: &[u8], leaves: &[Hash]) -> Hash {
    let mut level = leaves.to_vec();
    while level.len() > 1 {
        level = parent_level(tag, &level);
    }
    level.first().copied().unwrap_or([0; 32])
}

/// The sibling hashes that connect `leaves[index]` to the root, leaf level
/// first. For `index ≥ leaves.len()` the result proves nothing.
pub fn inclusion_proof(tag: &[u8], leaves: &[Hash], mut index: usize) -> Vec<Hash> {
    let mut proof = Vec::new();
    let mut level = leaves.to_vec();
    while level.len() > 1 {
        if let Some(sibling) = level.get(index ^ 1) {
            proof.push(*sibling);
        }
        level = parent_level(tag, &level);
        index /= 2;
    }
    proof
}

/// Whether `proof` connects `leaf`, at `index` in a tree of `size` leaves,
/// to `root`. Rejects `index ≥ size` and a proof of the wrong length.
pub fn verify_inclusion(
    tag: &[u8],
    leaf: &Hash,
    index: usize,
    size: usize,
    proof: &[Hash],
    root: &Hash,
) -> bool {
    index < size && fold(tag, *leaf, index, size, proof) == Some(*root)
}

/// The root `proof` leads to from `acc` at `index < size`, walking the
/// same `(index, level length)` steps as [`inclusion_proof`]; `None` when
/// the proof is too short or too long.
fn fold(tag: &[u8], mut acc: Hash, mut index: usize, size: usize, proof: &[Hash]) -> Option<Hash> {
    let mut siblings = proof.iter();
    let mut level_len = size;
    while level_len > 1 {
        // An even last node of an odd level has no sibling: it is promoted.
        if !index.is_multiple_of(2) {
            acc = node(tag, siblings.next()?, &acc);
        } else if index + 1 < level_len {
            acc = node(tag, &acc, siblings.next()?);
        }
        index /= 2;
        level_len = level_len.div_ceil(2);
    }
    siblings.next().is_none().then_some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAGS: [&[u8]; 2] = [b"dosn.pad.node", b"dosn.history.node"];

    /// RFC 9162 §2.1.1's MTH, recursively: split at the largest power of
    /// two below `n`.
    fn reference_root(tag: &[u8], leaves: &[Hash]) -> Hash {
        match leaves.len() {
            0 => [0; 32],
            1 => leaves[0],
            n => {
                let k = 1 << (n - 1).ilog2();
                let left = reference_root(tag, &leaves[..k]);
                let right = reference_root(tag, &leaves[k..]);
                node(tag, &left, &right)
            }
        }
    }

    fn leaves(n: usize) -> Vec<Hash> {
        (0..n as u64)
            .map(|i| sha256_concat(&[b"leaf", &i.to_be_bytes()]))
            .collect()
    }

    #[test]
    fn root_is_rfc_9162_mth_up_to_600_leaves() {
        let all = leaves(600);
        for tag in TAGS {
            for n in 0..=all.len() {
                assert_eq!(
                    root(tag, &all[..n]),
                    reference_root(tag, &all[..n]),
                    "n = {n}"
                );
            }
        }
    }

    /// Checks the proofs of `indices` in the tree over `leaves` (`n` of
    /// them); returns how many still verify, at the same index, under size
    /// `n + 1` and `n - 1`.
    fn check_proofs(tag: &[u8], leaves: &[Hash], indices: &[usize]) -> (usize, usize) {
        let n = leaves.len();
        let root = root(tag, leaves);
        let mut verifies_at_other_size = (0, 0);
        for &i in indices {
            let proof = inclusion_proof(tag, leaves, i);
            let verifies = |index: usize, size: usize, proof: &[Hash]| {
                verify_inclusion(tag, &leaves[i], index, size, proof, &root)
            };
            assert!(verifies(i, n, &proof), "({i}, {n})");
            assert!(!verifies(i + 1, n, &proof), "({i} + 1, {n})");
            assert!(i == 0 || !verifies(i - 1, n, &proof), "({i} - 1, {n})");
            for s in 0..proof.len() {
                let mut flipped = proof.clone();
                flipped[s][s % 32] ^= 1;
                assert!(!verifies(i, n, &flipped), "({i}, {n}) sibling {s}");
            }
            verifies_at_other_size.0 += usize::from(verifies(i, n + 1, &proof));
            verifies_at_other_size.1 += usize::from(verifies(i, n - 1, &proof));
        }
        verifies_at_other_size
    }

    /// Every `(index, n)` up to 64 leaves, and five indices of each size
    /// around a power of two up to 600: a proof is built from all `n`
    /// leaves, so checking every index of every size up to 600 would hash
    /// Σ n² ≈ 7·10⁷ nodes a tag, too slow for an unoptimised test build.
    #[test]
    fn a_proof_verifies_at_its_own_index_only() {
        let all = leaves(600);
        for tag in TAGS {
            let mut at_other_size = (0, 0);
            for n in 1..64 {
                let (up, down) = check_proofs(tag, &all[..n], &(0..n).collect::<Vec<_>>());
                at_other_size = (at_other_size.0 + up, at_other_size.1 + down);
            }
            // The siblings alone do not fix the size: this many proofs of
            // the 2,016 with n < 64 still verify at their index under n ± 1,
            // which is why a caller must take the size from a signature.
            assert_eq!(at_other_size, (1_824, 1_762));
            check_proofs(tag, &all[..64], &(0..64).collect::<Vec<_>>());
            for n in [127, 128, 129, 255, 256, 257, 511, 512, 513, 600] {
                check_proofs(tag, &all[..n], &[0, 1, n / 2, n - 2, n - 1]);
            }
        }
    }

    #[test]
    fn an_empty_tree_proves_nothing() {
        let root = root(TAGS[0], &[]);
        assert_eq!(root, [0; 32]);
        assert!(!verify_inclusion(TAGS[0], &[0; 32], 0, 0, &[], &root));
    }

    #[test]
    fn a_short_or_long_proof_is_rejected() {
        let all = leaves(5);
        let root = root(TAGS[1], &all);
        let proof = inclusion_proof(TAGS[1], &all, 2);
        let verifies = |proof: &[Hash]| verify_inclusion(TAGS[1], &all[2], 2, 5, proof, &root);
        assert!(verifies(&proof));
        assert!(!verifies(&proof[..proof.len() - 1]));
        assert!(!verifies(&[proof.clone(), vec![[0; 32]]].concat()));
    }
}
