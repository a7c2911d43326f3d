//! Signed envelopes: owner, content, relation, and freshness integrity
//! (survey §IV, §IV-A).
//!
//! The survey's running example: Alice receives "Come to my party held at
//! my home on Friday" and must decide (a) is it really from Bob, (b) is the
//! content unmodified, (c) is it still valid / properly ordered, and (d) was
//! it issued *to her*. A [`SignedEnvelope`] answers all four: the author
//! signs `H(author ‖ recipient ‖ sequence ‖ timestamps ‖ body)` (hash-then-
//! sign, exactly as §IV describes), and verification checks signature,
//! claimed author against the [`KeyDirectory`], recipient binding, and
//! expiry.

use crate::error::DosnError;
use crate::identity::{Identity, UserId};
use dosn_crypto::batch::{batch_verify, BatchItem};
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::keys::KeyDirectory;
use dosn_crypto::schnorr::{Signature, VerifyingKey};
use dosn_crypto::sha256::Sha256;

/// Fixed wire-header length: epoch, issue time, and sequence words plus the
/// signature length prefix (see [`SignedEnvelope::encode_wire`]).
pub const WIRE_HEADER_LEN: usize = 8 + 8 + 8 + 4;

/// A signed, optionally recipient-bound, optionally expiring message.
///
/// ```
/// use dosn_core::integrity::SignedEnvelope;
/// use dosn_core::identity::Identity;
/// use dosn_crypto::{group::SchnorrGroup, chacha::SecureRng, keys::KeyDirectory};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SecureRng::seed_from_u64(70);
/// let directory = KeyDirectory::new();
/// let bob = Identity::create("bob", SchnorrGroup::toy(), &directory, &mut rng);
///
/// let invite = SignedEnvelope::seal(
///     &bob, Some("alice".into()), 1, 100, Some(200),
///     b"Come to my party held at my home on Friday", &mut rng);
///
/// // Alice verifies owner, content, relation, and freshness in one call.
/// invite.verify(&directory, Some(&"alice".into()), 150)?;
/// // Carol cannot accept an invitation issued for Alice (§IV relations).
/// assert!(invite.verify(&directory, Some(&"carol".into()), 150).is_err());
/// // And by Saturday it has expired (§IV history).
/// assert!(invite.verify(&directory, Some(&"alice".into()), 250).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SignedEnvelope {
    /// Claimed author.
    pub author: UserId,
    /// Intended recipient (`None` = broadcast).
    pub recipient: Option<UserId>,
    /// Author-local sequence number.
    pub sequence: u64,
    /// Logical issue time.
    pub issued_at: u64,
    /// Logical expiry (`None` = never).
    pub expires_at: Option<u64>,
    /// The message body.
    pub body: Vec<u8>,
    signature: Signature,
}

impl SignedEnvelope {
    /// Signs a message as `author`.
    pub fn seal(
        author: &Identity,
        recipient: Option<UserId>,
        sequence: u64,
        issued_at: u64,
        expires_at: Option<u64>,
        body: &[u8],
        rng: &mut SecureRng,
    ) -> Self {
        let digest = Self::digest(
            author.id(),
            recipient.as_ref(),
            sequence,
            issued_at,
            expires_at,
            body,
        );
        SignedEnvelope {
            author: author.id().clone(),
            recipient,
            sequence,
            issued_at,
            expires_at,
            body: body.to_vec(),
            signature: author.signing().sign(&digest, rng),
        }
    }

    /// Verifies all four §IV aspects.
    ///
    /// # Errors
    ///
    /// * [`DosnError::IntegrityViolation`] — bad signature (owner/content),
    ///   wrong recipient (relations), or expired/future message (history);
    /// * [`DosnError::Crypto`] — the author's key is not in the directory.
    pub fn verify(
        &self,
        directory: &KeyDirectory,
        expected_recipient: Option<&UserId>,
        now: u64,
    ) -> Result<(), DosnError> {
        let vk = directory.verifying_key(self.author.as_str())?;
        vk.verify(&self.signed_digest(), &self.signature)
            .map_err(|_| {
                DosnError::IntegrityViolation(format!(
                    "signature does not verify under {}'s key",
                    self.author
                ))
            })?;
        self.check_binding(expected_recipient, now)
    }

    /// The relation and history halves of [`SignedEnvelope::verify`]: the
    /// recipient binding and the freshness window, without the signature.
    fn check_binding(
        &self,
        expected_recipient: Option<&UserId>,
        now: u64,
    ) -> Result<(), DosnError> {
        if let Some(expected) = expected_recipient {
            match &self.recipient {
                Some(r) if r == expected => {}
                Some(r) => {
                    return Err(DosnError::IntegrityViolation(format!(
                        "message issued for {r}, presented to {expected}"
                    )))
                }
                None => {} // broadcast: any recipient is legitimate
            }
        }
        if self.issued_at > now {
            return Err(DosnError::IntegrityViolation(
                "message from the future".into(),
            ));
        }
        if let Some(exp) = self.expires_at {
            if now >= exp {
                return Err(DosnError::IntegrityViolation("message expired".into()));
            }
        }
        Ok(())
    }

    /// Reassembles an envelope from transported parts (wire decoding); the
    /// result still has to pass [`SignedEnvelope::verify`].
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        author: UserId,
        recipient: Option<UserId>,
        sequence: u64,
        issued_at: u64,
        expires_at: Option<u64>,
        body: Vec<u8>,
        signature: Signature,
    ) -> Self {
        SignedEnvelope {
            author,
            recipient,
            sequence,
            issued_at,
            expires_at,
            body,
            signature,
        }
    }

    /// Serializes a broadcast envelope for overlay storage:
    /// `epoch(8) | issued_at(8) | sequence(8) | sig_len(4) | sig | body`,
    /// all integers big-endian. [`SignedEnvelope::decode_wire`] inverts it.
    pub fn encode_wire(&self, epoch: u64, group: &dosn_crypto::group::SchnorrGroup) -> Vec<u8> {
        let sig = self.signature.to_bytes(group);
        let mut out = Vec::with_capacity(WIRE_HEADER_LEN + sig.len() + self.body.len());
        out.extend_from_slice(&epoch.to_be_bytes());
        out.extend_from_slice(&self.issued_at.to_be_bytes());
        out.extend_from_slice(&self.sequence.to_be_bytes());
        out.extend_from_slice(&(sig.len() as u32).to_be_bytes());
        out.extend_from_slice(&sig);
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses a stored record back into an envelope plus its privacy epoch.
    /// Every length is validated before use, so arbitrary bytes produce a
    /// typed error, never a panic; the result still has to pass
    /// [`SignedEnvelope::verify`].
    ///
    /// # Errors
    ///
    /// * [`DosnError::MalformedEnvelope`] — truncated header, signature
    ///   length exceeding the record, or a signature that does not parse
    ///   under `group`;
    /// * [`DosnError::IntegrityViolation`] — the embedded sequence number
    ///   differs from `expected_seq` (a record swapped onto another slot).
    pub fn decode_wire(
        author: &UserId,
        expected_seq: u64,
        bytes: &[u8],
        group: &dosn_crypto::group::SchnorrGroup,
    ) -> Result<(SignedEnvelope, u64), DosnError> {
        if bytes.len() < WIRE_HEADER_LEN {
            return Err(DosnError::MalformedEnvelope(format!(
                "record of {} bytes is shorter than the {WIRE_HEADER_LEN}-byte header",
                bytes.len()
            )));
        }
        let word = |i: usize| -> u64 {
            let mut w = [0u8; 8];
            w.copy_from_slice(&bytes[i..i + 8]);
            u64::from_be_bytes(w)
        };
        let epoch = word(0);
        let issued_at = word(8);
        let sequence = word(16);
        let mut len4 = [0u8; 4];
        len4.copy_from_slice(&bytes[24..28]);
        let sig_len = u32::from_be_bytes(len4) as usize;
        let Some(body_offset) = WIRE_HEADER_LEN.checked_add(sig_len) else {
            return Err(DosnError::MalformedEnvelope(
                "signature length overflows".into(),
            ));
        };
        if bytes.len() < body_offset {
            return Err(DosnError::MalformedEnvelope(format!(
                "claimed signature of {sig_len} bytes exceeds the {}-byte record",
                bytes.len()
            )));
        }
        let signature = Signature::from_bytes(group, &bytes[WIRE_HEADER_LEN..body_offset])
            .map_err(|e| DosnError::MalformedEnvelope(format!("signature does not parse: {e}")))?;
        if sequence != expected_seq {
            return Err(DosnError::IntegrityViolation(format!(
                "record carries sequence {sequence}, slot expects {expected_seq}"
            )));
        }
        Ok((
            SignedEnvelope::from_parts(
                author.clone(),
                None,
                sequence,
                issued_at,
                None,
                bytes[body_offset..].to_vec(),
                signature,
            ),
            epoch,
        ))
    }

    /// Verifies many wire-encoded copies of the same slot (`author`,
    /// `expected_seq`) in one pass: each copy's decode and freshness rule
    /// are screened alone, and every surviving signature equation joins one
    /// combined check ([`dosn_crypto::batch::batch_verify`]), the engine's
    /// multi-slot verifier over slots that share an author and a sequence
    /// number. Returns one verdict per copy, exactly matching what
    /// [`SignedEnvelope::decode_wire`] + [`SignedEnvelope::verify`] would
    /// decide copy by copy. A wire record is a broadcast (`decode_wire`
    /// restores no recipient), so `_expected_recipient` can refuse none.
    pub fn verify_wire_copies_batch(
        author: &UserId,
        expected_seq: u64,
        copies: &[&[u8]],
        group: &dosn_crypto::group::SchnorrGroup,
        directory: &KeyDirectory,
        _expected_recipient: Option<&UserId>,
        now: u64,
    ) -> Vec<bool> {
        let slots: Vec<(&UserId, u64, &[u8])> = copies
            .iter()
            .map(|&bytes| (author, expected_seq, bytes))
            .collect();
        Self::verify_wire_slots(&slots, group, directory, now)
            .iter()
            .map(Option::is_some)
            .collect()
    }

    /// Verifies stored records for many slots at once, each `(author, seq,
    /// bytes)` read as `author`'s post `seq`, and keeps what it decoded: an
    /// accepted record comes back as the [`VerifiedEnvelope`] its verdict
    /// was reached on, so the caller unseals it without decoding or
    /// verifying again. Each record's decode, freshness rule and signed
    /// digest are screened one by one, with no group operation; every
    /// surviving signature equation, under however many authors' keys,
    /// joins one random-linear-combination check
    /// ([`dosn_crypto::batch::batch_verify`]), which bisects a failure down
    /// to exact per-slot verdicts. A slot therefore comes back `Some`
    /// exactly where [`SignedEnvelope::open_wire`] accepts it, whatever
    /// else shares the call.
    ///
    /// The finish phase calls it once per batch, over each read's staked
    /// value (its L2 entry or its copies' strict plurality), and once per
    /// read that staked on nothing or whose stake failed, over that read's
    /// other values (slots sharing an author and a seq).
    pub(crate) fn verify_wire_slots(
        slots: &[(&UserId, u64, &[u8])],
        group: &dosn_crypto::group::SchnorrGroup,
        directory: &KeyDirectory,
        now: u64,
    ) -> Vec<Option<VerifiedEnvelope>> {
        // Survivors of the screen queue (key, digest, signature) for the
        // combined check; an unknown author screens out.
        let screened: Vec<(usize, VerifyingKey, [u8; 32], VerifiedEnvelope)> = slots
            .iter()
            .enumerate()
            .filter_map(|(idx, &(author, seq, bytes))| {
                let vk = directory.verifying_key(author.as_str()).ok()?;
                let (envelope, epoch) = Self::decode_wire(author, seq, bytes, group).ok()?;
                envelope.check_binding(None, now).ok()?;
                let digest = envelope.signed_digest();
                Some((idx, vk, digest, VerifiedEnvelope { envelope, epoch }))
            })
            .collect();
        let items: Vec<BatchItem<'_>> = screened
            .iter()
            .map(|(_, vk, digest, v)| (vk, digest.as_slice(), &v.envelope.signature))
            .collect();
        // Failing items, ascending.
        let bad = batch_verify(&items).map_or_else(|f| f.failed, |()| Vec::new());
        let mut opened: Vec<Option<VerifiedEnvelope>> = slots.iter().map(|_| None).collect();
        for (item, (idx, _, _, verified)) in screened.into_iter().enumerate() {
            if bad.binary_search(&item).is_err() {
                opened[idx] = Some(verified);
            }
        }
        opened
    }

    /// Decodes and fully verifies one stored record:
    /// [`SignedEnvelope::decode_wire`] then [`SignedEnvelope::verify`].
    ///
    /// # Errors
    ///
    /// Whatever either step returns.
    pub(crate) fn open_wire(
        author: &UserId,
        expected_seq: u64,
        bytes: &[u8],
        group: &dosn_crypto::group::SchnorrGroup,
        directory: &KeyDirectory,
        now: u64,
    ) -> Result<VerifiedEnvelope, DosnError> {
        let (envelope, epoch) = Self::decode_wire(author, expected_seq, bytes, group)?;
        envelope.verify(directory, None, now)?;
        Ok(VerifiedEnvelope { envelope, epoch })
    }

    fn signed_digest(&self) -> [u8; 32] {
        Self::digest(
            &self.author,
            self.recipient.as_ref(),
            self.sequence,
            self.issued_at,
            self.expires_at,
            &self.body,
        )
    }

    /// The canonical signed digest.
    fn digest(
        author: &UserId,
        recipient: Option<&UserId>,
        sequence: u64,
        issued_at: u64,
        expires_at: Option<u64>,
        body: &[u8],
    ) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(b"dosn.envelope.v1");
        for field in [
            author.as_bytes(),
            recipient.map_or(b"" as &[u8], |r| r.as_bytes()),
            &sequence.to_be_bytes(),
            &issued_at.to_be_bytes(),
            &expires_at.unwrap_or(u64::MAX).to_be_bytes(),
            body,
        ] {
            // length-prefixed framing per field
            h.update(&(field.len() as u64).to_be_bytes());
            h.update(field);
        }
        h.finalize()
    }
}

/// A stored record that decoded as its slot's envelope and passed
/// [`SignedEnvelope::verify`] — the proof a served read rests on, carried
/// as a type. Only this module can build one (from
/// [`SignedEnvelope::open_wire`] or the batch verifier), and the engine
/// unseals nothing else.
#[derive(Debug)]
pub(crate) struct VerifiedEnvelope {
    envelope: SignedEnvelope,
    epoch: u64,
}

impl VerifiedEnvelope {
    /// The privacy epoch the record was stored under.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sealed body the signature covers.
    pub(crate) fn body(&self) -> &[u8] {
        &self.envelope.body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosn_crypto::group::SchnorrGroup;

    fn setup() -> (Identity, Identity, KeyDirectory, SecureRng) {
        let mut rng = SecureRng::seed_from_u64(71);
        let dir = KeyDirectory::new();
        let bob = Identity::create("bob", SchnorrGroup::toy(), &dir, &mut rng);
        let mallory = Identity::create("mallory", SchnorrGroup::toy(), &dir, &mut rng);
        (bob, mallory, dir, rng)
    }

    #[test]
    fn valid_envelope_verifies() {
        let (bob, _, dir, mut rng) = setup();
        let env = SignedEnvelope::seal(&bob, None, 1, 10, None, b"hello", &mut rng);
        env.verify(&dir, None, 20).unwrap();
    }

    #[test]
    fn content_tampering_detected() {
        let (bob, _, dir, mut rng) = setup();
        let mut env = SignedEnvelope::seal(&bob, None, 1, 10, None, b"party friday", &mut rng);
        env.body = b"party saturday".to_vec();
        assert!(matches!(
            env.verify(&dir, None, 20),
            Err(DosnError::IntegrityViolation(_))
        ));
    }

    #[test]
    fn owner_forgery_detected() {
        // Mallory signs a message but claims Bob is the author.
        let (_, mallory, dir, mut rng) = setup();
        let mut env =
            SignedEnvelope::seal(&mallory, None, 1, 10, None, b"i am totally bob", &mut rng);
        env.author = UserId::from("bob");
        assert!(env.verify(&dir, None, 20).is_err());
    }

    #[test]
    fn unknown_author_rejected() {
        let (bob, _, _, mut rng) = setup();
        let empty_dir = KeyDirectory::new();
        let env = SignedEnvelope::seal(&bob, None, 1, 10, None, b"x", &mut rng);
        assert!(matches!(
            env.verify(&empty_dir, None, 20),
            Err(DosnError::Crypto(_))
        ));
    }

    #[test]
    fn recipient_binding_enforced() {
        let (bob, _, dir, mut rng) = setup();
        let env = SignedEnvelope::seal(
            &bob,
            Some("alice".into()),
            1,
            10,
            None,
            b"for alice",
            &mut rng,
        );
        env.verify(&dir, Some(&"alice".into()), 20).unwrap();
        assert!(env.verify(&dir, Some(&"carol".into()), 20).is_err());
        // A verifier not checking recipients accepts.
        env.verify(&dir, None, 20).unwrap();
    }

    #[test]
    fn recipient_field_tampering_detected() {
        let (bob, _, dir, mut rng) = setup();
        let mut env = SignedEnvelope::seal(
            &bob,
            Some("alice".into()),
            1,
            10,
            None,
            b"for alice",
            &mut rng,
        );
        env.recipient = Some("carol".into());
        assert!(env.verify(&dir, Some(&"carol".into()), 20).is_err());
    }

    #[test]
    fn expiry_and_future_rules() {
        let (bob, _, dir, mut rng) = setup();
        let env = SignedEnvelope::seal(&bob, None, 1, 100, Some(200), b"x", &mut rng);
        env.verify(&dir, None, 150).unwrap();
        assert!(env.verify(&dir, None, 200).is_err(), "expired at boundary");
        assert!(env.verify(&dir, None, 50).is_err(), "not yet issued");
    }

    #[test]
    fn broadcast_never_expires_without_expiry() {
        let (bob, _, dir, mut rng) = setup();
        let env = SignedEnvelope::seal(&bob, None, 1, 0, None, b"x", &mut rng);
        env.verify(&dir, None, u64::MAX).unwrap();
    }

    #[test]
    fn verified_envelopes_are_exactly_the_copies_decode_and_verify_accept() {
        // Every one-byte mutation of bob's stored record, the record
        // itself, mallory's record, and each record filed under the other
        // author or another sequence number, in one call: a slot comes back
        // `Some` exactly where `decode_wire` + `verify` accept it, carrying
        // what they decoded.
        let (bob, mallory, dir, mut rng) = setup();
        let group = SchnorrGroup::toy();
        let wire = SignedEnvelope::seal(&bob, None, 3, 10, None, b"sealed body", &mut rng)
            .encode_wire(6, &group);
        let other = SignedEnvelope::seal(&mallory, None, 5, 10, None, b"hers", &mut rng)
            .encode_wire(1, &group);
        let mut copies = vec![wire.clone()];
        for at in 0..wire.len() {
            let mut m = wire.clone();
            m[at] ^= 0x40;
            copies.push(m);
        }
        let (id, mid) = (UserId::from("bob"), UserId::from("mallory"));
        let mut slots: Vec<(&UserId, u64, &[u8])> =
            copies.iter().map(|c| (&id, 3, c.as_slice())).collect();
        slots.extend([
            (&mid, 5, other.as_slice()),
            (&id, 5, other.as_slice()),
            (&mid, 3, wire.as_slice()),
            (&id, 4, wire.as_slice()),
        ]);
        let opened = SignedEnvelope::verify_wire_slots(&slots, &group, &dir, 20);
        let mut accepted = 0;
        for (&(author, seq, bytes), got) in slots.iter().zip(&opened) {
            let want = SignedEnvelope::decode_wire(author, seq, bytes, &group)
                .and_then(|(env, epoch)| env.verify(&dir, None, 20).map(|()| (env, epoch)));
            assert_eq!(got.is_some(), want.is_ok());
            if let (Some(got), Ok((env, epoch))) = (got, want) {
                assert_eq!((got.epoch(), got.body()), (epoch, env.body.as_slice()));
                assert_eq!(got.envelope.sequence, env.sequence);
                assert_eq!(got.envelope.issued_at, env.issued_at);
                accepted += 1;
            }
        }
        // Bob's record and its eight epoch-word mutants (the epoch sits
        // outside the signed digest; DESIGN.md, threat model), and
        // mallory's record under her own name.
        assert_eq!(accepted, 10);
        let alone = SignedEnvelope::open_wire(&id, 3, &wire, &group, &dir, 20).unwrap();
        let first = opened[0].as_ref().unwrap();
        assert_eq!((alone.epoch(), alone.body()), (6, first.body()));
    }

    #[test]
    fn field_framing_is_unambiguous() {
        // author "ab" + body "c..." must not collide with author "a" + body "bc...".
        let (bob, _, _, mut rng) = setup();
        let e1 = SignedEnvelope::seal(&bob, None, 1, 10, None, b"ab", &mut rng);
        let e2 = SignedEnvelope::seal(&bob, None, 1, 10, None, b"a", &mut rng);
        assert_ne!(
            SignedEnvelope::digest(&e1.author, None, 1, 10, None, &e1.body),
            SignedEnvelope::digest(&e2.author, None, 1, 10, None, &e2.body),
        );
    }
}
