//! Signed envelopes: owner, content, relation, and freshness integrity
//! (survey §IV, §IV-A), and the signed entries of a timeline (§IV-B).
//!
//! The survey's running example: Alice receives "Come to my party held at
//! my home on Friday" and must decide (a) is it really from Bob, (b) is the
//! content unmodified, (c) is it still valid / properly ordered, and (d) was
//! it issued *to her*. A [`SignedEnvelope`] answers all four: the author
//! signs `H(author ‖ recipient ‖ sequence ‖ timestamps ‖ prev_hash ‖ refs ‖
//! body)` (hash-then-sign, exactly as §IV describes), and verification
//! checks signature, claimed author against the [`KeyDirectory`], recipient
//! binding, and expiry. That digest is also a timeline entry's hash, so a
//! chained envelope ([`crate::integrity::Timeline::append`]) is signed once
//! and its stored record — `epoch(8) | issued_at(8) | sequence(8) |
//! sig_len(4) | prev_hash(32) | ref_count(4) | sig | refs | body`, each ref
//! `author_len(4) | author | sequence(8) | hash(32)`, integers big-endian —
//! carries its link; only the epoch word is unsigned.

use super::timeline::{EntryHash, ExternalRef};
use crate::error::DosnError;
use crate::identity::{Identity, UserId};
use dosn_crypto::batch::{batch_verify, BatchItem};
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::keys::KeyDirectory;
use dosn_crypto::schnorr::{Signature, VerifyingKey};
use dosn_crypto::sha256::Sha256;

/// Fixed wire-header length: every field before the signature bytes (see
/// [`SignedEnvelope::encode_wire`]).
pub const WIRE_HEADER_LEN: usize = 8 + 8 + 8 + 4 + 32 + 4;

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
    /// The hash of the author's previous timeline entry (zeros for the first
    /// entry, and for an envelope outside any timeline).
    pub prev_hash: EntryHash,
    /// Entangled references into other users' timelines.
    pub external_refs: Vec<ExternalRef>,
    /// The message body.
    pub body: Vec<u8>,
    signature: Signature,
}

impl SignedEnvelope {
    /// Signs a message as `author`: an unchained envelope (zero
    /// `prev_hash`, no refs).
    pub fn seal(
        author: &Identity,
        recipient: Option<UserId>,
        sequence: u64,
        issued_at: u64,
        expires_at: Option<u64>,
        body: &[u8],
        rng: &mut SecureRng,
    ) -> Self {
        let words = [sequence, issued_at, expires_at.unwrap_or(u64::MAX)];
        let digest = digest(author.id(), recipient.as_ref(), words, &[0; 32], &[], body);
        SignedEnvelope {
            author: author.id().clone(),
            recipient,
            sequence,
            issued_at,
            expires_at,
            prev_hash: [0; 32],
            external_refs: Vec::new(),
            body: body.to_vec(),
            signature: author.signing().sign(&digest, rng),
        }
    }

    /// Signs `author`'s timeline entry `sequence` — a broadcast issued at
    /// its sequence number, never expiring, chained to `prev_hash` — and
    /// returns it with its [`SignedEnvelope::hash`].
    pub(crate) fn chained(
        author: &Identity,
        sequence: u64,
        prev_hash: EntryHash,
        external_refs: Vec<ExternalRef>,
        body: &[u8],
        rng: &mut SecureRng,
    ) -> (Self, EntryHash) {
        let words = [sequence, sequence, u64::MAX];
        let digest = digest(author.id(), None, words, &prev_hash, &external_refs, body);
        let envelope = SignedEnvelope {
            author: author.id().clone(),
            recipient: None,
            sequence,
            issued_at: sequence,
            expires_at: None,
            prev_hash,
            external_refs,
            body: body.to_vec(),
            signature: author.signing().sign(&digest, rng),
        };
        (envelope, digest)
    }

    /// The digest the signature covers — every field but the signature —
    /// and, for a timeline entry, the hash its successor chains to.
    pub fn hash(&self) -> EntryHash {
        let words = [
            self.sequence,
            self.issued_at,
            self.expires_at.unwrap_or(u64::MAX),
        ];
        digest(
            &self.author,
            self.recipient.as_ref(),
            words,
            &self.prev_hash,
            &self.external_refs,
            &self.body,
        )
    }

    /// The author's signature over [`SignedEnvelope::hash`].
    pub(crate) fn signature(&self) -> &Signature {
        &self.signature
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
        vk.verify(&self.hash(), &self.signature).map_err(|_| {
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

    /// Serializes a broadcast envelope for overlay storage in the module's
    /// wire layout: the fixed [`WIRE_HEADER_LEN`]-byte header (`epoch`,
    /// `issued_at`, `sequence`, `sig_len`, `prev_hash`, `ref_count`), the
    /// signature, the refs, the body. [`SignedEnvelope::decode_wire`]
    /// inverts it.
    pub fn encode_wire(&self, epoch: u64, group: &dosn_crypto::group::SchnorrGroup) -> Vec<u8> {
        let sig = self.signature.to_bytes(group);
        let mut out = Vec::with_capacity(WIRE_HEADER_LEN + sig.len() + self.body.len());
        out.extend_from_slice(&epoch.to_be_bytes());
        out.extend_from_slice(&self.issued_at.to_be_bytes());
        out.extend_from_slice(&self.sequence.to_be_bytes());
        out.extend_from_slice(&(sig.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.prev_hash);
        out.extend_from_slice(&(self.external_refs.len() as u32).to_be_bytes());
        out.extend_from_slice(&sig);
        for r in &self.external_refs {
            encode_ref(r, &mut out);
        }
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses a stored record back into an envelope plus its privacy epoch.
    /// Every length is validated before use, so arbitrary bytes produce a
    /// typed error, never a panic; the result still has to pass
    /// [`SignedEnvelope::verify`]. A record is a broadcast with no expiry,
    /// so a decoded chained record is its author's timeline entry.
    ///
    /// # Errors
    ///
    /// * [`DosnError::MalformedEnvelope`] — truncated header, signature or
    ///   refs running past the record, a signature that does not parse
    ///   under `group`, or a ref author that is not UTF-8;
    /// * [`DosnError::IntegrityViolation`] — the embedded sequence number
    ///   differs from `expected_seq` (a record swapped onto another slot).
    pub fn decode_wire(
        author: &UserId,
        expected_seq: u64,
        bytes: &[u8],
        group: &dosn_crypto::group::SchnorrGroup,
    ) -> Result<(SignedEnvelope, u64), DosnError> {
        let mut c = Cursor(bytes);
        let header = (|| Some((c.u64()?, c.u64()?, c.u64()?, c.u32()?, c.array()?, c.u32()?)))();
        let Some((epoch, issued_at, sequence, sig_len, prev_hash, refs)) = header else {
            return Err(DosnError::MalformedEnvelope(format!(
                "record of {} bytes is shorter than the {WIRE_HEADER_LEN}-byte header",
                bytes.len()
            )));
        };
        let sig = c.take(sig_len).ok_or_else(|| {
            DosnError::MalformedEnvelope(format!(
                "claimed signature of {sig_len} bytes exceeds the {}-byte record",
                bytes.len()
            ))
        })?;
        let signature = Signature::from_bytes(group, sig)
            .map_err(|e| DosnError::MalformedEnvelope(format!("signature does not parse: {e}")))?;
        if sequence != expected_seq {
            return Err(DosnError::IntegrityViolation(format!(
                "record carries sequence {sequence}, slot expects {expected_seq}"
            )));
        }
        // Each ref takes at least 44 bytes or fails, so a hostile count ends
        // where the record does.
        let external_refs = (0..refs)
            .map(|_| decode_ref(&mut c))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| DosnError::MalformedEnvelope(format!("{refs} refs do not decode")))?;
        let envelope = SignedEnvelope {
            author: author.clone(),
            recipient: None,
            sequence,
            issued_at,
            expires_at: None,
            prev_hash,
            external_refs,
            body: c.0.to_vec(),
            signature,
        };
        Ok((envelope, epoch))
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
                let digest = envelope.hash();
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
}

/// The canonical signed digest: a domain tag, then every field
/// length-prefixed — author, recipient, the sequence / issue / expiry
/// words (no expiry hashes as `u64::MAX`), `prev_hash`, the ref count and
/// each ref's author, sequence and hash, and the body.
fn digest(
    author: &UserId,
    recipient: Option<&UserId>,
    words: [u64; 3],
    prev_hash: &EntryHash,
    external_refs: &[ExternalRef],
    body: &[u8],
) -> EntryHash {
    let mut h = Sha256::new();
    h.update(b"dosn.envelope.v2");
    let mut field = |bytes: &[u8]| {
        h.update(&(bytes.len() as u64).to_be_bytes());
        h.update(bytes);
    };
    field(author.as_bytes());
    field(recipient.map_or(b"", |r| r.as_bytes()));
    for word in words {
        field(&word.to_be_bytes());
    }
    field(prev_hash);
    field(&(external_refs.len() as u64).to_be_bytes());
    for r in external_refs {
        field(r.author.as_bytes());
        field(&r.sequence.to_be_bytes());
        field(&r.hash);
    }
    field(body);
    h.finalize()
}

/// Appends one ref in the module's wire layout.
fn encode_ref(r: &ExternalRef, out: &mut Vec<u8>) {
    out.extend_from_slice(&(r.author.as_bytes().len() as u32).to_be_bytes());
    out.extend_from_slice(r.author.as_bytes());
    out.extend_from_slice(&r.sequence.to_be_bytes());
    out.extend_from_slice(&r.hash);
}

/// Inverts [`encode_ref`]; `None` on a short read or a non-UTF-8 author.
fn decode_ref(c: &mut Cursor) -> Option<ExternalRef> {
    let author = std::str::from_utf8(c.field()?).ok()?.into();
    Some(ExternalRef {
        author,
        sequence: c.u64()?,
        hash: c.array()?,
    })
}

/// Length-checked reads off the front of untrusted bytes: a read past the
/// end is `None`, so a decoder built on it never indexes out of range or
/// allocates what a length field claims.
pub(crate) struct Cursor<'a>(pub(crate) &'a [u8]);

impl<'a> Cursor<'a> {
    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    /// The next `N` bytes.
    pub(crate) fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.0.split_first_chunk::<N>()?;
        self.0 = rest;
        Some(*head)
    }

    /// A big-endian `u32` length.
    pub(crate) fn u32(&mut self) -> Option<usize> {
        self.array().map(|b| u32::from_be_bytes(b) as usize)
    }

    /// A big-endian `u64`.
    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_be_bytes)
    }

    /// A `len(4) | bytes` field.
    pub(crate) fn field(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()?;
        self.take(len)
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
        // author "ab" + body "c" must not collide with author "a" + body "bc".
        let words = [1, 10, u64::MAX];
        assert_ne!(
            digest(&"ab".into(), None, words, &[0; 32], &[], b"c"),
            digest(&"a".into(), None, words, &[0; 32], &[], b"bc"),
        );
    }

    #[test]
    fn the_link_and_the_refs_are_signed_and_carried() {
        // A chained record keeps its link and refs through the wire, and
        // the signature covers both: a record re-linked or re-referenced by
        // a holder no longer verifies.
        let (bob, _, dir, mut rng) = setup();
        let group = SchnorrGroup::toy();
        let refs = vec![ExternalRef {
            author: "mallory".into(),
            sequence: 4,
            hash: [5; 32],
        }];
        let (entry, hash) = SignedEnvelope::chained(&bob, 2, [7; 32], refs, b"body", &mut rng);
        assert_eq!(hash, entry.hash());
        let wire = entry.encode_wire(1, &group);
        let (decoded, epoch) =
            SignedEnvelope::decode_wire(&"bob".into(), 2, &wire, &group).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(
            (decoded.prev_hash, &decoded.external_refs),
            (entry.prev_hash, &entry.external_refs)
        );
        assert_eq!((decoded.issued_at, decoded.hash()), (2, hash));
        decoded.verify(&dir, None, 2).unwrap();
        let mut relinked = decoded.clone();
        relinked.prev_hash[0] ^= 1;
        assert!(relinked.verify(&dir, None, 2).is_err());
        let mut rereferenced = decoded;
        rereferenced.external_refs[0].sequence = 3;
        assert!(rereferenced.verify(&dir, None, 2).is_err());
        // An unchained envelope carries a zero link and no refs.
        let sealed = SignedEnvelope::seal(&bob, None, 2, 2, None, b"body", &mut rng);
        assert_eq!((sealed.prev_hash, sealed.external_refs.len()), ([0; 32], 0));
    }
}
