//! Batch Schnorr verification: one multi-exponentiation for many envelopes.
//!
//! Quorum reads verify every replica copy of a signed envelope; E12/E14
//! histograms show that per-copy `crypto.schnorr.verify` dominates the read
//! path. This module amortizes it with the standard random-linear-combination
//! check: for signatures `(rᵢ, sᵢ)` under keys `yⱼ` with challenges
//! `eᵢ = H(yⱼ ‖ rᵢ ‖ mᵢ)`, draw per-item coefficients `zᵢ` and test
//!
//! ```text
//! g^(Σ zᵢ·sᵢ) · ∏ⱼ yⱼ^(Σᵢ∈ⱼ zᵢ·eᵢ)  ==  ∏ᵢ rᵢ^zᵢ      (mod p)
//! ```
//!
//! Each individually valid signature satisfies `g^{sᵢ}·yⱼ^{eᵢ} = rᵢ`, so the
//! combined equation holds; conversely any invalid item makes it fail except
//! with probability `2⁻¹²⁸` over the `zᵢ`. The wins stack: the left side is
//! one table-served `g` pow plus one multi-exp over the distinct keys, the
//! right side rides one interleaved multi-exp whose exponents are only 128
//! bits wide (against full-width `q` for per-item verification), and
//! byte-identical quorum copies are deduplicated before any group operation.
//!
//! The coefficients are drawn from a ChaCha stream seeded by a transcript
//! hash over every item — deterministic for a given batch (reproducible
//! engine runs) yet unpredictable to a forger, who must commit to all
//! signatures before learning any `zᵢ`.
//!
//! When the combined check fails, [`batch_verify`] bisects: sub-batches get
//! fresh transcript-derived coefficients, and singleton leaves fall back to
//! plain [`VerifyingKey::verify`], so callers learn exactly which items are
//! bad at a cost logarithmic in the batch size (for few corruptions).
//!
//! The engine's finish phase hands over one item per read that stakes on
//! one value (agreeing replicas, or a hot-cached envelope), under as many
//! keys as the batch has authors. A batch whose items all carry one
//! `(key, message, signature)` triple never enters the combined check: one
//! item is already a leaf, decided by `g^s · y^e = r` alone.

use crate::error::CryptoError;
use crate::group::SchnorrGroup;
use crate::schnorr::{Signature, VerifyingKey};
use crate::sha256::{sha256, Sha256};
use dosn_bigint::BigUint;
use rand::RngCore;
use std::collections::HashMap;

/// A batch item: verify `signature` over `message` under `key`.
pub type BatchItem<'a> = (&'a VerifyingKey, &'a [u8], &'a Signature);

/// Batch verification failure: the indices (into the input slice) of every
/// item that does not verify individually.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchFailure {
    /// Failing input indices, ascending.
    pub failed: Vec<usize>,
}

impl std::fmt::Display for BatchFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch verification failed at indices {:?}", self.failed)
    }
}

impl std::error::Error for BatchFailure {}

/// Width of the random coefficients in bytes: 128-bit `zᵢ` bound the
/// per-item false-accept probability by `2⁻¹²⁸` while keeping the
/// right-hand multi-exp exponents short — that asymmetry against the
/// full-width challenge/response scalars is the batch speedup.
const COEFF_BYTES: usize = 16;

/// One unique (key, message, signature) triple with its precomputed
/// challenge and the input indices it stands for.
struct UniqueItem<'a> {
    key: &'a VerifyingKey,
    sig: &'a Signature,
    /// `e = H(y ‖ r ‖ m)`, computed once and reused across bisection.
    e: BigUint,
    msg_digest: [u8; 32],
    /// All input indices carrying this exact triple (quorum reads hand the
    /// verifier R byte-identical copies; they cost one slot here).
    indices: Vec<usize>,
}

/// Verifies every item, sharing one combined check across the whole batch.
///
/// Items may mix verification keys; all keys must belong to the same group
/// (items from a different group are verified individually). Returns
/// `Ok(())` when every item verifies.
///
/// # Errors
///
/// Returns [`BatchFailure`] listing each failing item's index. The failure
/// set is exact: it is what per-item [`VerifyingKey::verify`] would reject.
pub fn batch_verify(items: &[BatchItem<'_>]) -> Result<(), BatchFailure> {
    let mut failed: Vec<usize> = Vec::new();
    let Some(&(first_key, _, _)) = items.first() else {
        return Ok(());
    };
    let group = first_key.group();

    // Partition: foreign-group items resolve immediately; the rest
    // deduplicate into unique triples, and each triple's structural check
    // (a Jacobi symbol) runs once however many inputs carry it — a
    // malformed triple's slot is `None` and fails all of them.
    let mut uniques: Vec<UniqueItem<'_>> = Vec::new();
    type TripleKey<'a> = (&'a BigUint, &'a BigUint, &'a BigUint, &'a [u8]);
    let mut slot_of: HashMap<TripleKey<'_>, Option<usize>> = HashMap::new();
    for (idx, &(key, msg, sig)) in items.iter().enumerate() {
        if key.group() != group {
            if key.verify(msg, sig).is_err() {
                failed.push(idx);
            }
            continue;
        }
        let slot = *slot_of
            .entry((key.element(), sig.commitment(), sig.s_scalar(), msg))
            .or_insert_with(|| {
                key.signature_well_formed(sig).then(|| {
                    uniques.push(UniqueItem {
                        key,
                        sig,
                        e: key.challenge_scalar(sig.commitment(), msg),
                        msg_digest: sha256(msg),
                        indices: Vec::new(),
                    });
                    uniques.len() - 1
                })
            });
        match slot {
            Some(slot) => uniques[slot].indices.push(idx),
            None => failed.push(idx),
        }
    }

    let mut bad_slots: Vec<usize> = Vec::new();
    if let [only] = uniques.as_slice() {
        // One unique triple is its own bisection leaf: the plain equation
        // `g^s · y^e = r` decides it, with no coefficients to draw and no
        // second multi-exp. (A quorum read, whose copies agree, always
        // lands here.)
        if verify_unique(only).is_err() {
            bad_slots.push(0);
        }
    } else if !uniques.is_empty() && !combined_check(group, &uniques) {
        isolate(
            group,
            &uniques,
            &(0..uniques.len()).collect::<Vec<_>>(),
            &mut bad_slots,
        );
        if bad_slots.is_empty() {
            // The combined check can (with probability ~2⁻¹²⁸) reject a good
            // batch, and bisection inherits the same odds per split. Fall
            // back to the ground truth rather than report a phantom failure.
            for (slot, u) in uniques.iter().enumerate() {
                if verify_unique(u).is_err() {
                    bad_slots.push(slot);
                }
            }
        }
    }
    for slot in bad_slots {
        failed.extend(uniques[slot].indices.iter().copied());
    }

    if failed.is_empty() {
        Ok(())
    } else {
        failed.sort_unstable();
        Err(BatchFailure { failed })
    }
}

/// Individual (non-batched) verification of a unique item.
fn verify_unique(u: &UniqueItem<'_>) -> Result<(), CryptoError> {
    // Re-derive from the precomputed challenge to skip re-hashing the
    // message: valid iff g^s · y^e == r.
    let group = u.key.group();
    let rhs = group.multi_pow(&[
        (group.generator(), u.sig.s_scalar()),
        (u.key.element(), &u.e),
    ]);
    if rhs == *u.sig.commitment() {
        Ok(())
    } else {
        Err(CryptoError::InvalidSignature)
    }
}

/// Recursive bisection over slots of `uniques`: narrows a failing combined
/// check to individual bad items, re-deriving coefficients per sub-batch.
fn isolate(
    group: &SchnorrGroup,
    uniques: &[UniqueItem<'_>],
    slots: &[usize],
    bad: &mut Vec<usize>,
) {
    match slots {
        [] => {}
        &[slot] => {
            if verify_unique(&uniques[slot]).is_err() {
                bad.push(slot);
            }
        }
        _ => {
            let (lo, hi) = slots.split_at(slots.len() / 2);
            for half in [lo, hi] {
                let sub: Vec<&UniqueItem<'_>> = half.iter().map(|&s| &uniques[s]).collect();
                if !combined_check_refs(group, &sub) {
                    isolate(group, uniques, half, bad);
                }
            }
        }
    }
}

fn combined_check(group: &SchnorrGroup, uniques: &[UniqueItem<'_>]) -> bool {
    let refs: Vec<&UniqueItem<'_>> = uniques.iter().collect();
    combined_check_refs(group, &refs)
}

/// The random-linear-combination equation over one (sub-)batch.
fn combined_check_refs(group: &SchnorrGroup, uniques: &[&UniqueItem<'_>]) -> bool {
    let q = group.order();

    // Transcript hash binding every item: y ‖ r ‖ s ‖ H(m) each, under a
    // domain tag. Seeds the coefficient stream, so no zᵢ exists until the
    // entire (sub-)batch is fixed.
    let mut h = Sha256::new();
    h.update(b"dosn.schnorr.batch.v1");
    h.update(&(uniques.len() as u64).to_be_bytes());
    for u in uniques {
        h.update(&group.element_bytes(u.key.element()));
        h.update(&group.element_bytes(u.sig.commitment()));
        let w = (q.bits() as usize).div_ceil(8);
        h.update(&u.sig.s_scalar().to_fixed_bytes_be(w));
        h.update(&u.msg_digest);
    }
    let mut rng = crate::chacha::SecureRng::from_seed(h.finalize());

    // A = Σ zᵢ·sᵢ, per-key Bⱼ = Σ zᵢ·eᵢ (both mod q), RHS pairs (rᵢ, zᵢ).
    // The sums accumulate *unreduced* — zᵢ is at most 128 bits, so even a
    // full batch stays far below q·2¹³⁵ — and are reduced mod q once at the
    // end: one division each instead of a division-backed `mulmod` per item
    // (which profiled as ~30% of the whole combined check at 1024 bits).
    let mut a = BigUint::zero();
    let mut per_key: Vec<(&BigUint, BigUint)> = Vec::new();
    let mut key_slot: HashMap<&BigUint, usize> = HashMap::new();
    let mut rhs_pairs: Vec<(&BigUint, BigUint)> = Vec::with_capacity(uniques.len());
    for u in uniques {
        let z = loop {
            let mut buf = [0u8; COEFF_BYTES];
            rng.fill_bytes(&mut buf);
            let z = &BigUint::from_bytes_be(&buf) % q;
            // Zero would let the item escape the check entirely; redraw
            // (only reachable for toy groups with q below 128 bits).
            if !z.is_zero() {
                break z;
            }
        };
        a = &a + &(&z * u.sig.s_scalar());
        let ze = &z * &u.e;
        let slot = *key_slot.entry(u.key.element()).or_insert_with(|| {
            per_key.push((u.key.element(), BigUint::zero()));
            per_key.len() - 1
        });
        per_key[slot].1 = &per_key[slot].1 + &ze;
        rhs_pairs.push((u.sig.commitment(), z));
    }
    let a = &a % q;
    for (_, b) in &mut per_key {
        *b = &*b % q;
    }

    // LHS: g^A · ∏ yⱼ^Bⱼ — `g` from its table, the distinct keys in one
    // multi-exp.
    let mut lhs_pairs: Vec<(&BigUint, &BigUint)> = Vec::with_capacity(1 + per_key.len());
    lhs_pairs.push((group.generator(), &a));
    for (y, b) in &per_key {
        lhs_pairs.push((y, b));
    }
    let lhs = group.multi_pow(&lhs_pairs);

    // RHS: ∏ rᵢ^zᵢ — fresh commitments with short exponents; one
    // interleaved multi-exp.
    let rhs_refs: Vec<(&BigUint, &BigUint)> = rhs_pairs.iter().map(|(r, z)| (*r, z)).collect();
    let rhs = group.multi_pow(&rhs_refs);

    lhs == rhs
}

impl VerifyingKey {
    /// Verifies many `(message, signature)` pairs under this key in one
    /// combined check. See [`batch_verify`] for the construction.
    ///
    /// # Errors
    ///
    /// Returns [`BatchFailure`] listing each failing pair's index.
    pub fn verify_batch(&self, pairs: &[(&[u8], &Signature)]) -> Result<(), BatchFailure> {
        let items: Vec<BatchItem<'_>> = pairs.iter().map(|&(m, s)| (self, m, s)).collect();
        batch_verify(&items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha::SecureRng;
    use crate::schnorr::SigningKey;

    fn setup(n: usize) -> (SigningKey, Vec<Vec<u8>>, Vec<Signature>, SecureRng) {
        let mut rng = SecureRng::seed_from_u64(77);
        let key = SigningKey::generate(SchnorrGroup::toy(), &mut rng);
        let msgs: Vec<Vec<u8>> = (0..n)
            .map(|i| format!("message {i}").into_bytes())
            .collect();
        let sigs: Vec<Signature> = msgs.iter().map(|m| key.sign(m, &mut rng)).collect();
        (key, msgs, sigs, rng)
    }

    #[test]
    fn empty_and_single_batches() {
        let (key, msgs, sigs, _) = setup(2);
        let vk = key.verifying_key();
        assert!(batch_verify(&[]).is_ok());
        vk.verify_batch(&[(&msgs[0], &sigs[0])]).unwrap();
        // One triple, however many copies, is decided by the plain equation:
        // one windowed exponentiation, accepted or rejected.
        let pows = |pairs: &[(&[u8], &Signature)]| {
            let before = vk.group().exp_stats().total();
            let verdict = vk.verify_batch(pairs);
            (verdict, vk.group().exp_stats().total() - before)
        };
        let (ok, n) = pows(&[(&msgs[0], &sigs[0]), (&msgs[0], &sigs[0])]);
        assert_eq!((ok, n), (Ok(()), 1));
        let (bad, n) = pows(&[(&msgs[0], &sigs[1]), (&msgs[0], &sigs[1])]);
        assert_eq!((bad.unwrap_err().failed, n), (vec![0, 1], 1));
    }

    #[test]
    fn all_valid_batch_accepts() {
        let (key, msgs, sigs, _) = setup(32);
        let pairs: Vec<(&[u8], &Signature)> =
            msgs.iter().map(|m| m.as_slice()).zip(sigs.iter()).collect();
        key.verifying_key().verify_batch(&pairs).unwrap();
    }

    #[test]
    fn cross_key_batch_accepts_and_isolates() {
        let mut rng = SecureRng::seed_from_u64(99);
        let g = SchnorrGroup::toy();
        let keys: Vec<SigningKey> = (0..4)
            .map(|_| SigningKey::generate(g.clone(), &mut rng))
            .collect();
        let msgs: Vec<Vec<u8>> = (0..12).map(|i| vec![i as u8; 20]).collect();
        let mut items_owned: Vec<(usize, Signature)> = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            items_owned.push((i % 4, keys[i % 4].sign(m, &mut rng)));
        }
        let items: Vec<BatchItem<'_>> = msgs
            .iter()
            .zip(items_owned.iter())
            .map(|(m, (k, s))| (keys[*k].verifying_key(), m.as_slice(), s))
            .collect();
        batch_verify(&items).unwrap();

        // Swap one signature onto the wrong key: exactly that index fails.
        let mut bad = items.clone();
        bad[5].0 = keys[(items_owned[5].0 + 1) % 4].verifying_key();
        assert_eq!(batch_verify(&bad).unwrap_err().failed, vec![5]);
    }

    #[test]
    fn duplicate_copies_verify_once_and_fail_together() {
        // Quorum reads batch R byte-identical copies; dedup must keep the
        // result per-index exact in both directions.
        let (key, msgs, sigs, mut rng) = setup(2);
        let vk = key.verifying_key();
        let forged = key.sign(b"other", &mut rng);
        let items: Vec<BatchItem<'_>> = vec![
            (vk, &msgs[0], &sigs[0]),
            (vk, &msgs[0], &sigs[0]),
            (vk, &msgs[1], &forged),
            (vk, &msgs[0], &sigs[0]),
            (vk, &msgs[1], &forged),
        ];
        assert_eq!(batch_verify(&items).unwrap_err().failed, vec![2, 4]);

        // A structurally bad triple (`s` out of range) is screened once and
        // fails every input carrying it.
        let q = vk.group().order().clone();
        let wide = Signature::from_parts(sigs[0].commitment().clone(), &q + sigs[0].s_scalar());
        let items: Vec<BatchItem<'_>> = vec![
            (vk, &msgs[0], &wide),
            (vk, &msgs[0], &sigs[0]),
            (vk, &msgs[0], &wide),
        ];
        assert_eq!(batch_verify(&items).unwrap_err().failed, vec![0, 2]);
    }
}
