//! Property tests for the envelope wire codec: encode/decode must round
//! trip exactly, and the decoder must reject — never panic on — arbitrary
//! bytes, since records come back from untrusted storage nodes. Also pins
//! that a verdict established once per distinct record and carried through
//! the quorum vote is the verdict recomputing it per copy would reach.

use dosn_core::error::DosnError;
use dosn_core::identity::{Identity, UserId};
use dosn_core::integrity::envelope::{SignedEnvelope, WIRE_HEADER_LEN};
use dosn_core::integrity::timeline::{ExternalRef, Timeline};
use dosn_crypto::batch::batch_verify;
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::SchnorrGroup;
use dosn_crypto::keys::KeyDirectory;
use dosn_crypto::schnorr::Signature;
use dosn_overlay::id::{Key, NodeId};
use dosn_overlay::replication::{quorum_inspect_batch, FetchedCopies, QuorumOutcome};
use proptest::prelude::*;

fn author() -> (Identity, KeyDirectory, SecureRng) {
    let mut rng = SecureRng::seed_from_u64(0xE12);
    let dir = KeyDirectory::new();
    let id = Identity::create("wirebob", SchnorrGroup::toy(), &dir, &mut rng);
    (id, dir, rng)
}

/// The quorum vote with every present copy put to `verify` — no grouping
/// ahead of the verifier. What the vote-level dedup must equal field for
/// field.
fn vote_over_every_copy(
    fetched: &FetchedCopies,
    need: usize,
    verify: impl Fn(&[u8]) -> bool,
) -> QuorumOutcome {
    let present: Vec<&[u8]> = fetched
        .copies
        .iter()
        .filter_map(|(_, c)| c.as_deref())
        .collect();
    let verifying: Vec<&[u8]> = present.iter().copied().filter(|c| verify(c)).collect();
    // Most copies wins; at equal counts the value seen first.
    let leader = verifying
        .iter()
        .map(|v| (*v, verifying.iter().filter(|w| *w == v).count()))
        .reduce(|best, cand| if cand.1 > best.1 { cand } else { best });
    let agreeing = leader.map_or(0, |(_, n)| n);
    QuorumOutcome {
        key: fetched.key,
        candidates: fetched.copies.len(),
        missing: fetched.copies.len() - present.len(),
        invalid: present.len() - verifying.len(),
        agreeing,
        disagreeing: verifying.len() - agreeing,
        need,
        winner: leader.map(|(v, _)| v.to_vec()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// A verdict reached once per distinct value and carried equals the
    /// verdict recomputed for every copy: over arbitrary multisets of up to
    /// five copies (pristine, mutated at an arbitrary byte, or absent) the
    /// vote that verifies each distinct value once returns the outcome of
    /// the vote that verifies every copy, and the batch verifier's verdicts
    /// are those of `decode_wire` + `verify` copy by copy.
    #[test]
    fn carried_verdict_equals_the_recomputed_one(
        body in proptest::collection::vec(any::<u8>(), 1..96),
        mutants in proptest::collection::vec((any::<usize>(), 1u8..=255), 2..3),
        picks in proptest::collection::vec(0usize..4, 0..6),
        need in 1usize..=3,
    ) {
        let (identity, dir, mut rng) = author();
        let group = SchnorrGroup::toy();
        let id = UserId::from("wirebob");
        let wire = SignedEnvelope::seal(&identity, None, 4, 9, None, &body, &mut rng)
            .encode_wire(2, &group);
        // Pick 0 is the pristine record, 1 and 2 are its mutants, 3 is a
        // holder with nothing.
        let mut variants = vec![Some(wire.clone())];
        for (at, mask) in mutants {
            let mut m = wire.clone();
            m[at % wire.len()] ^= mask;
            variants.push(Some(m));
        }
        variants.push(None);
        let fetched = FetchedCopies {
            key: Key::hash(b"carried"),
            copies: picks
                .iter()
                .enumerate()
                .map(|(i, p)| (NodeId(i as u64), variants[*p].clone()))
                .collect(),
        };
        let one_by_one = |bytes: &[u8]| {
            SignedEnvelope::decode_wire(&id, 4, bytes, &group)
                .and_then(|(env, _)| env.verify(&dir, None, u64::MAX - 1))
                .is_ok()
        };
        let batched = |values: &[&[u8]]| {
            SignedEnvelope::verify_wire_copies_batch(
                &id, 4, values, &group, &dir, None, u64::MAX - 1,
            )
        };
        let present: Vec<&[u8]> =
            fetched.copies.iter().filter_map(|(_, c)| c.as_deref()).collect();
        prop_assert_eq!(
            batched(&present),
            present.iter().map(|c| one_by_one(c)).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            quorum_inspect_batch(&fetched, need, batched),
            vote_over_every_copy(&fetched, need, one_by_one)
        );
    }

    /// A batch of one is the plain Schnorr equation: for any mutation of a
    /// signature's bytes `batch_verify` and `VerifyingKey::verify` agree.
    #[test]
    fn a_batch_of_one_decides_as_plain_verify(
        msg in proptest::collection::vec(any::<u8>(), 0..64),
        at in any::<usize>(),
        mask in any::<u8>(),
    ) {
        let (identity, _, mut rng) = author();
        let group = SchnorrGroup::toy();
        let vk = identity.signing().verifying_key();
        let mut sig = identity.signing().sign(&msg, &mut rng).to_bytes(&group);
        let at = at % sig.len();
        sig[at] ^= mask;
        let sig = Signature::from_bytes(&group, &sig).unwrap();
        let plain = vk.verify(&msg, &sig).is_ok();
        prop_assert_eq!(plain, mask == 0);
        prop_assert_eq!(batch_verify(&[(vk, msg.as_slice(), &sig)]).is_ok(), plain);
    }

    #[test]
    fn wire_roundtrip_preserves_envelope(
        epoch in any::<u64>(),
        seq in any::<u64>(),
        issued_at in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let (identity, dir, mut rng) = author();
        let group = SchnorrGroup::toy();
        let envelope = SignedEnvelope::seal(&identity, None, seq, issued_at, None, &body, &mut rng);
        let wire = envelope.encode_wire(epoch, &group);

        let (decoded, got_epoch) =
            SignedEnvelope::decode_wire(&UserId::from("wirebob"), seq, &wire, &group).unwrap();
        prop_assert_eq!(got_epoch, epoch);
        prop_assert_eq!(decoded.sequence, seq);
        prop_assert_eq!(decoded.issued_at, issued_at);
        prop_assert_eq!(&decoded.body, &body);
        // The decoded envelope still verifies — signature bytes survived.
        prop_assert!(decoded.verify(&dir, None, u64::MAX - 1).is_ok());
    }

    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(
        seq in any::<u64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let group = SchnorrGroup::toy();
        let _ = SignedEnvelope::decode_wire(&UserId::from("anyone"), seq, &bytes, &group);
    }

    /// Every prefix of a chained record — header, signature, refs, body —
    /// is refused: by the decoder while the cut is inside the header, the
    /// signature or the refs, by the signature once only body bytes are
    /// lost. The whole record decodes to the entry, link and refs included.
    #[test]
    fn truncations_of_a_valid_record_error_cleanly(
        body in proptest::collection::vec(any::<u8>(), 1..64),
        ref_count in 0usize..3,
    ) {
        let (identity, dir, mut rng) = author();
        let group = SchnorrGroup::toy();
        let id = UserId::from("wirebob");
        let mut chain = Timeline::new(id.clone());
        chain.append(&identity, b"first", vec![], &mut rng);
        let refs: Vec<ExternalRef> = (0..ref_count)
            .map(|i| ExternalRef {
                author: format!("friend{i}").into(),
                sequence: i as u64,
                hash: [i as u8; 32],
            })
            .collect();
        let entry = chain.append(&identity, &body, refs, &mut rng);
        let wire = entry.encode_wire(0, &group);
        let body_offset = wire.len() - body.len();
        let (whole, _) = SignedEnvelope::decode_wire(&id, 1, &wire, &group).unwrap();
        prop_assert_eq!(whole.hash(), entry.hash());
        prop_assert_eq!((&whole.prev_hash, &whole.external_refs), (&entry.prev_hash, &entry.external_refs));
        prop_assert!(whole.verify(&dir, None, u64::MAX - 1).is_ok());
        for len in 0..wire.len() {
            match SignedEnvelope::decode_wire(&id, 1, &wire[..len], &group) {
                Err(e) => prop_assert!(
                    len < body_offset && matches!(e, DosnError::MalformedEnvelope(_)),
                    "cut at {} of {}: {:?}", len, wire.len(), e
                ),
                Ok((cut, _)) => {
                    prop_assert!(len >= body_offset, "cut at {} decoded", len);
                    prop_assert!(cut.verify(&dir, None, u64::MAX - 1).is_err());
                }
            }
        }
    }
}

#[test]
fn sequence_mismatch_is_an_integrity_violation() {
    let (identity, _, mut rng) = author();
    let group = SchnorrGroup::toy();
    let wire = SignedEnvelope::seal(&identity, None, 7, 7, None, b"slot 7", &mut rng)
        .encode_wire(3, &group);
    assert!(matches!(
        SignedEnvelope::decode_wire(&UserId::from("wirebob"), 8, &wire, &group),
        Err(DosnError::IntegrityViolation(_))
    ));
}

#[test]
fn oversized_signature_length_is_malformed() {
    let mut bytes = vec![0u8; WIRE_HEADER_LEN];
    bytes[24..28].copy_from_slice(&u32::MAX.to_be_bytes());
    assert!(matches!(
        SignedEnvelope::decode_wire(&UserId::from("x"), 0, &bytes, &SchnorrGroup::toy()),
        Err(DosnError::MalformedEnvelope(_))
    ));
}

#[test]
fn a_hostile_ref_count_is_malformed_without_allocating_for_it() {
    // A record with a valid signature claiming u32::MAX refs and carrying
    // none: each ref needs at least 44 bytes, so decoding stops at the end.
    let (identity, _, mut rng) = author();
    let group = SchnorrGroup::toy();
    let mut wire =
        SignedEnvelope::seal(&identity, None, 2, 2, None, b"body", &mut rng).encode_wire(0, &group);
    wire[WIRE_HEADER_LEN - 4..WIRE_HEADER_LEN].copy_from_slice(&u32::MAX.to_be_bytes());
    assert!(matches!(
        SignedEnvelope::decode_wire(&UserId::from("wirebob"), 2, &wire, &group),
        Err(DosnError::MalformedEnvelope(_))
    ));
}
