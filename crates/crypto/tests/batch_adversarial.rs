//! Adversarial batch-verification suite.
//!
//! Batch Schnorr verification trades one combined random-linear-combination
//! check for many per-item checks; every soundness claim in that trade is
//! probed here from the outside: a single tampered item buried in a large
//! batch must be isolated exactly, and the classic cancellation attack —
//! two responses shifted by `±d` so the *sum* equation still balances —
//! must be rejected by the random coefficients even though the
//! all-coefficients-one check provably passes.

use dosn_bigint::BigUint;
use dosn_crypto::batch::{batch_verify, BatchItem};
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::SchnorrGroup;
use dosn_crypto::schnorr::{Signature, SigningKey};

/// Rebuilds a signature with a substituted response scalar via the public
/// wire format: `r || s` with `s` at the group's scalar width.
fn with_response(group: &SchnorrGroup, sig: &Signature, s: &BigUint) -> Signature {
    let el = group.element_len();
    let w = (group.order().bits() as usize).div_ceil(8);
    let mut bytes = sig.to_bytes(group);
    bytes[el..].copy_from_slice(&s.to_fixed_bytes_be(w));
    assert_eq!(bytes.len(), el + w);
    Signature::from_bytes(group, &bytes).expect("same width")
}

/// The response scalar of a signature, recovered from the wire format.
fn response_of(group: &SchnorrGroup, sig: &Signature) -> BigUint {
    BigUint::from_bytes_be(&sig.to_bytes(group)[group.element_len()..])
}

/// The commitment element of a signature, recovered from the wire format.
fn commitment_of(group: &SchnorrGroup, sig: &Signature) -> BigUint {
    BigUint::from_bytes_be(&sig.to_bytes(group)[..group.element_len()])
}

/// The Fiat–Shamir challenge exactly as the verifier derives it.
fn challenge(group: &SchnorrGroup, y: &BigUint, r: &BigUint, msg: &[u8]) -> BigUint {
    group.hash_to_scalar(&[
        b"dosn.schnorr.sign",
        &group.element_bytes(y),
        &group.element_bytes(r),
        msg,
    ])
}

#[test]
fn one_tampered_item_in_64_is_isolated() {
    let mut rng = SecureRng::seed_from_u64(4242);
    let key = SigningKey::generate(SchnorrGroup::toy(), &mut rng);
    let msgs: Vec<Vec<u8>> = (0..64)
        .map(|i| format!("envelope {i}").into_bytes())
        .collect();
    let mut sigs: Vec<Signature> = msgs.iter().map(|m| key.sign(m, &mut rng)).collect();

    // A signature over the wrong message at index 37: individually valid
    // bytes, wrong statement.
    sigs[37] = key.sign(b"a different envelope", &mut rng);

    let pairs: Vec<(&[u8], &Signature)> =
        msgs.iter().map(|m| m.as_slice()).zip(sigs.iter()).collect();
    let failure = key.verifying_key().verify_batch(&pairs).unwrap_err();
    assert_eq!(failure.failed, vec![37], "exactly the tampered index");
}

#[test]
fn scattered_corruptions_are_all_reported() {
    let mut rng = SecureRng::seed_from_u64(171);
    let key = SigningKey::generate(SchnorrGroup::toy(), &mut rng);
    let msgs: Vec<Vec<u8>> = (0..48).map(|i| vec![i as u8; 12]).collect();
    let mut sigs: Vec<Signature> = msgs.iter().map(|m| key.sign(m, &mut rng)).collect();
    for idx in [0usize, 17, 31, 47] {
        sigs[idx] = key.sign(b"forged", &mut rng);
    }
    let pairs: Vec<(&[u8], &Signature)> =
        msgs.iter().map(|m| m.as_slice()).zip(sigs.iter()).collect();
    let failure = key.verifying_key().verify_batch(&pairs).unwrap_err();
    assert_eq!(failure.failed, vec![0, 17, 31, 47]);
}

#[test]
fn cancellation_pair_passes_sum_form_but_is_rejected() {
    // The attack random coefficients exist to stop: shift two responses by
    // ±d. Each item is invalid, yet Σsᵢ is unchanged, so a batch equation
    // with all coefficients equal to one still balances.
    let mut rng = SecureRng::seed_from_u64(2718);
    let group = SchnorrGroup::toy();
    let key = SigningKey::generate(group.clone(), &mut rng);
    let vk = key.verifying_key();
    let q = group.order().clone();

    let sig1 = key.sign(b"post alpha", &mut rng);
    let sig2 = key.sign(b"post beta", &mut rng);
    let d = BigUint::from(0x5eed_cafeu64);
    let bad1 = with_response(&group, &sig1, &response_of(&group, &sig1).addmod(&d, &q));
    let bad2 = with_response(&group, &sig2, &response_of(&group, &sig2).submod(&d, &q));

    // Both tampered items fail individually…
    assert!(vk.verify(b"post alpha", &bad1).is_err());
    assert!(vk.verify(b"post beta", &bad2).is_err());

    // …but the all-coefficients-one sum equation holds:
    //   g^(s₁'+s₂') · y^(e₁+e₂) == r₁·r₂.
    let (r1, r2) = (commitment_of(&group, &bad1), commitment_of(&group, &bad2));
    let e1 = challenge(&group, vk.element(), &r1, b"post alpha");
    let e2 = challenge(&group, vk.element(), &r2, b"post beta");
    let s_sum = response_of(&group, &bad1).addmod(&response_of(&group, &bad2), &q);
    let e_sum = e1.addmod(&e2, &q);
    let lhs = group.multi_pow(&[(group.generator(), &s_sum), (vk.element(), &e_sum)]);
    assert_eq!(
        lhs,
        group.mul(&r1, &r2),
        "sum form must balance — otherwise this is not the cancellation attack"
    );

    // The randomized combined check must still reject, and name both items.
    let failure = vk
        .verify_batch(&[(b"post alpha", &bad1), (b"post beta", &bad2)])
        .unwrap_err();
    assert_eq!(failure.failed, vec![0, 1]);
}

#[test]
fn structurally_invalid_items_are_rejected_without_poisoning_the_batch() {
    let mut rng = SecureRng::seed_from_u64(31415);
    let group = SchnorrGroup::toy();
    let key = SigningKey::generate(group.clone(), &mut rng);
    let msgs: Vec<Vec<u8>> = (0..8).map(|i| vec![0xA0 | i as u8; 9]).collect();
    let mut sigs: Vec<Signature> = msgs.iter().map(|m| key.sign(m, &mut rng)).collect();

    // Out-of-range response (s = q) at index 3: caught by the structural
    // pre-check, never enters the combined equation.
    sigs[3] = with_response(&group, &sigs[3], group.order());

    let pairs: Vec<(&[u8], &Signature)> =
        msgs.iter().map(|m| m.as_slice()).zip(sigs.iter()).collect();
    let failure = key.verifying_key().verify_batch(&pairs).unwrap_err();
    assert_eq!(failure.failed, vec![3]);
}

#[test]
fn mixed_group_items_fall_back_to_individual_verification() {
    let mut rng = SecureRng::seed_from_u64(5150);
    let toy_key = SigningKey::generate(SchnorrGroup::toy(), &mut rng);
    let other_key = SigningKey::generate(SchnorrGroup::generate(192, &mut rng), &mut rng);

    let sig_a = toy_key.sign(b"toy message", &mut rng);
    let sig_b = other_key.sign(b"other-group message", &mut rng);
    let sig_c = other_key.sign(b"tampered", &mut rng);

    let items: Vec<BatchItem<'_>> = vec![
        (toy_key.verifying_key(), b"toy message", &sig_a),
        (other_key.verifying_key(), b"other-group message", &sig_b),
        // Wrong message for sig_c: the foreign-group individual path must
        // still catch it.
        (other_key.verifying_key(), b"not what was signed", &sig_c),
    ];
    let failure = batch_verify(&items).unwrap_err();
    assert_eq!(failure.failed, vec![2]);
}

#[test]
fn quorum_shaped_duplicate_batches_agree_with_individual_verification() {
    // The engine hands the batch verifier R byte-identical copies per
    // envelope (one per replica). Dedup must not change any verdict.
    let mut rng = SecureRng::seed_from_u64(8080);
    let key = SigningKey::generate(SchnorrGroup::toy(), &mut rng);
    let vk = key.verifying_key();
    let msgs: Vec<Vec<u8>> = (0..6).map(|i| format!("post {i}").into_bytes()).collect();
    let sigs: Vec<Signature> = msgs.iter().map(|m| key.sign(m, &mut rng)).collect();
    let forged = key.sign(b"elsewhere", &mut rng);

    // 3 copies of each: envelopes 0,1,2 valid, envelope 4's copies forged.
    let mut items: Vec<BatchItem<'_>> = Vec::new();
    for copy in 0..3 {
        let _ = copy;
        for (i, m) in msgs.iter().take(4).enumerate() {
            let sig = if i == 3 { &forged } else { &sigs[i] };
            items.push((vk, m.as_slice(), sig));
        }
    }
    let failure = batch_verify(&items).unwrap_err();
    // Indices 3, 7, 11 are the forged envelope's three copies.
    assert_eq!(failure.failed, vec![3, 7, 11]);
}

/// A signature `(r, s)` rebuilt through the public wire format.
fn signature(group: &SchnorrGroup, r: &BigUint, s: &BigUint) -> Signature {
    let w = (group.order().bits() as usize).div_ceil(8);
    let mut bytes = group.element_bytes(r);
    bytes.extend_from_slice(&s.to_fixed_bytes_be(w));
    Signature::from_bytes(group, &bytes).expect("well-sized")
}

/// Whether `items[at]` verifies, asked both ways: alone, with the plain
/// equation ([`VerifyingKey::verify`]), and inside a batch of honest items,
/// whose combined check decides it. The two must agree.
fn verdicts(items: &[BatchItem<'_>], at: usize) -> bool {
    let (vk, msg, sig) = items[at];
    let alone = vk.verify(msg, sig).is_ok();
    let batched = match batch_verify(items) {
        Ok(()) => true,
        Err(failure) => {
            assert_eq!(failure.failed, vec![at], "only the probed item may fail");
            false
        }
    };
    assert_eq!(
        alone, batched,
        "batch verify on and off disagree on item {at}"
    );
    alone
}

/// Seven honest `(message, signature)` pairs under `key`, and the key.
fn honest_batch(seed: u64) -> (SigningKey, Vec<Vec<u8>>, Vec<Signature>, SecureRng) {
    let mut rng = SecureRng::seed_from_u64(seed);
    let key = SigningKey::generate(SchnorrGroup::toy(), &mut rng);
    let msgs: Vec<Vec<u8>> = (0..7)
        .map(|i| format!("record {i} of {seed}").into_bytes())
        .collect();
    let sigs = msgs.iter().map(|m| key.sign(m, &mut rng)).collect();
    (key, msgs, sigs, rng)
}

#[test]
fn negating_the_commitment_of_an_honest_signature_is_rejected_with_batch_verify_on_and_off() {
    // `p − r` is the honest `r` with the order-2 component flipped. The
    // equation would accept it up to sign, but `e` hashes `r` itself, so
    // the swapped pair answers a different challenge and fails.
    for seed in 0..16 {
        let (key, msgs, mut sigs, _) = honest_batch(seed);
        let group = key.group().clone();
        let p = group.modulus();
        let r = commitment_of(&group, &sigs[3]);
        sigs[3] = signature(&group, &(p - &r), &response_of(&group, &sigs[3]));
        let items: Vec<BatchItem<'_>> = msgs
            .iter()
            .zip(&sigs)
            .map(|(m, s)| (key.verifying_key(), m.as_slice(), s))
            .collect();
        assert!(!verdicts(&items, 3), "seed {seed}");
    }
}

#[test]
fn a_signer_made_commitment_outside_the_subgroup_is_accepted_with_batch_verify_on_and_off() {
    // The key holder signs with `r = p − g^k`, a non-residue: then
    // `g^s·y^e = g^k = −r`, which cofactored verification accepts. Only the
    // secret key makes such a pair.
    for seed in 0..16 {
        let (key, msgs, mut sigs, mut rng) = honest_batch(seed);
        let group = key.group().clone();
        let (p, q) = (group.modulus(), group.order());
        let x = BigUint::from_bytes_be(&key.secret_scalar_bytes());
        let k = group.random_scalar(&mut rng);
        let r = p - &group.pow_g(&k);
        let e = challenge(&group, key.verifying_key().element(), &r, &msgs[5]);
        let s = k.submod(&x.mulmod(&e, q), q);
        sigs[5] = signature(&group, &r, &s);
        let items: Vec<BatchItem<'_>> = msgs
            .iter()
            .zip(&sigs)
            .map(|(m, s)| (key.verifying_key(), m.as_slice(), s))
            .collect();
        assert!(verdicts(&items, 5), "seed {seed}");
    }
}

#[test]
fn an_order_two_commitment_with_a_wrong_response_fails_every_combined_check() {
    // A commitment carrying the order-2 component and a response that does
    // not answer it. Without the comparison up to sign, an unscreened
    // combined check would cancel the component whenever the item's
    // coefficient is even; with it, the item fails whatever the
    // coefficients, so the batch falls back and names exactly this item.
    for seed in 0..64 {
        let (key, msgs, mut sigs, mut rng) = honest_batch(seed);
        let group = key.group().clone();
        let p = group.modulus();
        let k = group.random_scalar(&mut rng);
        let r = p - &group.pow_g(&k);
        let wrong = group.random_scalar(&mut rng);
        sigs[seed as usize % 7] = signature(&group, &r, &wrong);
        let items: Vec<BatchItem<'_>> = msgs
            .iter()
            .zip(&sigs)
            .map(|(m, s)| (key.verifying_key(), m.as_slice(), s))
            .collect();
        assert!(!verdicts(&items, seed as usize % 7), "seed {seed}");
    }
}
