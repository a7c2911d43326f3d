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
use dosn_crypto::schnorr::Signature;
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
        let recipient_name = recipient.as_ref().map(UserId::as_str);
        let digest = digest(
            author.id().as_str(),
            recipient_name,
            words,
            &[0; 32],
            &[],
            body,
        );
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
        let digest = digest(
            author.id().as_str(),
            None,
            words,
            &prev_hash,
            &external_refs,
            body,
        );
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
            self.author.as_str(),
            self.recipient.as_ref().map(UserId::as_str),
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
        vk.verify(&self.hash(), &self.signature)
            .map_err(|_| forged(self.author.as_str()))?;
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
        issued_by(self.issued_at, now)?;
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
        let record = WireRecord::parse(author.as_str(), expected_seq, bytes, group)?;
        let envelope = SignedEnvelope {
            author: author.clone(),
            recipient: None,
            sequence: record.sequence,
            issued_at: record.issued_at,
            expires_at: None,
            prev_hash: record.prev_hash,
            external_refs: record.external_refs,
            body: record.body.to_vec(),
            signature: record.signature,
        };
        Ok((envelope, record.epoch))
    }

    /// Verifies many wire-encoded copies of the same slot (`author`,
    /// `expected_seq`) in one pass: each copy is decoded alone and every
    /// decoded signature joins one combined check
    /// ([`dosn_crypto::batch::batch_verify`]). Returns one verdict per copy,
    /// exactly matching what [`SignedEnvelope::decode_wire`] +
    /// [`SignedEnvelope::verify`] would decide copy by copy. A wire record is a broadcast (`decode_wire`
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
        let slots: Vec<(&str, u64, &[u8])> = copies
            .iter()
            .map(|&bytes| (author.as_str(), expected_seq, bytes))
            .collect();
        Self::verify_wire_slots(&slots, group, directory, now)
            .iter()
            .map(Result::is_ok)
            .collect()
    }

    /// Verifies stored records for many slots at once, each `(author, seq,
    /// bytes)` read as `author`'s post `seq`, and keeps what it proved: an
    /// accepted record comes back as the [`VerifiedEnvelope`] its verdict
    /// was reached on — its epoch and its body, borrowed from the record —
    /// so the caller unseals it without decoding or verifying again. Each
    /// record is decoded in place, with no group operation, and its
    /// author's key looked up; every decoded signature
    /// equation, under however many authors' keys, joins one
    /// random-linear-combination check ([`dosn_crypto::batch::batch_verify`]),
    /// which verifies each signature alone when it fails, so the per-slot
    /// verdicts are exact; a record whose signature holds then has its
    /// freshness rule checked. The steps run in
    /// [`SignedEnvelope::open_wire`]'s order, so each slot comes back with
    /// exactly what `open_wire` returns for it, refusals included, whatever
    /// else shares the call.
    ///
    /// The finish phase calls it once per batch, over each read's staked
    /// value (its L2 entry or its tally's leader), and once per read that
    /// staked on nothing or whose stake failed, over that read's other
    /// values (slots sharing an author and a seq).
    pub(crate) fn verify_wire_slots<'a>(
        slots: &[(&'a str, u64, &'a [u8])],
        group: &dosn_crypto::group::SchnorrGroup,
        directory: &KeyDirectory,
        now: u64,
    ) -> Vec<Result<VerifiedEnvelope<'a>, DosnError>> {
        // Each decoded record with its author's key and signed digest.
        let decoded: Vec<_> = slots
            .iter()
            .map(|&(author, seq, bytes)| -> Result<_, DosnError> {
                let record = WireRecord::parse(author, seq, bytes, group)?;
                let vk = directory.verifying_key(author)?;
                Ok((vk, record.hash(), record))
            })
            .collect();
        let items: Vec<BatchItem<'_>> = decoded
            .iter()
            .flatten()
            .map(|(vk, digest, record)| (vk, digest.as_slice(), &record.signature))
            .collect();
        // Failing items, ascending.
        let bad = batch_verify(&items).map_or_else(|f| f.failed, |()| Vec::new());
        let mut items = 0..;
        decoded
            .into_iter()
            .map(|slot| {
                let (_, _, record) = slot?;
                if bad.binary_search(&items.next().unwrap_or_default()).is_ok() {
                    return Err(forged(record.author));
                }
                record.verified(now)
            })
            .collect()
    }

    /// Decodes and fully verifies one stored record: what
    /// [`SignedEnvelope::decode_wire`] then [`SignedEnvelope::verify`]
    /// decide, without copying the body out.
    ///
    /// # Errors
    ///
    /// Whatever either step returns.
    pub(crate) fn open_wire<'a>(
        author: &'a str,
        expected_seq: u64,
        bytes: &'a [u8],
        group: &dosn_crypto::group::SchnorrGroup,
        directory: &KeyDirectory,
        now: u64,
    ) -> Result<VerifiedEnvelope<'a>, DosnError> {
        let record = WireRecord::parse(author, expected_seq, bytes, group)?;
        directory
            .verifying_key(author)?
            .verify(&record.hash(), &record.signature)
            .map_err(|_| forged(author))?;
        record.verified(now)
    }
}

/// The error of a signature that does not verify under `author`'s key.
fn forged(author: &str) -> DosnError {
    DosnError::IntegrityViolation(format!("signature does not verify under {author}'s key"))
}

/// The history rule's lower half: a message issued after `now` is refused.
fn issued_by(issued_at: u64, now: u64) -> Result<(), DosnError> {
    if issued_at > now {
        return Err(DosnError::IntegrityViolation(
            "message from the future".into(),
        ));
    }
    Ok(())
}

/// A stored record read in place, the author's name and the body borrowed:
/// the verifiers check it as it lies, and `decode_wire` copies it out.
struct WireRecord<'a> {
    author: &'a str,
    epoch: u64,
    issued_at: u64,
    sequence: u64,
    prev_hash: EntryHash,
    external_refs: Vec<ExternalRef>,
    signature: Signature,
    body: &'a [u8],
}

impl<'a> WireRecord<'a> {
    /// Parses `bytes` as `author`'s record `expected_seq`, with
    /// [`SignedEnvelope::decode_wire`]'s checks and errors.
    fn parse(
        author: &'a str,
        expected_seq: u64,
        bytes: &'a [u8],
        group: &dosn_crypto::group::SchnorrGroup,
    ) -> Result<Self, DosnError> {
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
        Ok(WireRecord {
            author,
            epoch,
            issued_at,
            sequence,
            prev_hash,
            external_refs,
            signature,
            body: c.0,
        })
    }

    /// The digest the record's signature covers: a broadcast with no
    /// expiry ([`SignedEnvelope::hash`] of the decoded envelope).
    fn hash(&self) -> EntryHash {
        let words = [self.sequence, self.issued_at, u64::MAX];
        let (refs, body) = (&self.external_refs, self.body);
        digest(self.author, None, words, &self.prev_hash, refs, body)
    }

    /// The record once its signature holds: refused if issued after `now`
    /// (a broadcast without expiry binds nothing else).
    fn verified(self, now: u64) -> Result<VerifiedEnvelope<'a>, DosnError> {
        issued_by(self.issued_at, now)?;
        Ok(VerifiedEnvelope {
            epoch: self.epoch,
            body: self.body,
        })
    }
}

/// The canonical signed digest: a domain tag, then every field
/// length-prefixed — author, recipient, the sequence / issue / expiry
/// words (no expiry hashes as `u64::MAX`), `prev_hash`, the ref count and
/// each ref's author, sequence and hash, and the body.
fn digest(
    author: &str,
    recipient: Option<&str>,
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
/// as a type: the record's epoch and the sealed body the signature covers,
/// borrowed from the record. Only this module can build one (from
/// [`SignedEnvelope::open_wire`] or the batch verifier), and the engine
/// unseals nothing else.
#[derive(Debug)]
pub(crate) struct VerifiedEnvelope<'a> {
    epoch: u64,
    body: &'a [u8],
}

impl<'a> VerifiedEnvelope<'a> {
    /// The privacy epoch the record was stored under.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sealed body the signature covers.
    pub(crate) fn body(&self) -> &'a [u8] {
        self.body
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

    /// Whether every slot's batch verdict is [`SignedEnvelope::open_wire`]'s
    /// verdict on it alone: the same epoch and body, or the same error,
    /// variant and message.
    fn verdicts_match_open_wire<'a>(
        slots: &[(&'a str, u64, &'a [u8])],
        dir: &KeyDirectory,
        now: u64,
    ) -> Vec<Result<VerifiedEnvelope<'a>, DosnError>> {
        let group = SchnorrGroup::toy();
        let batched = SignedEnvelope::verify_wire_slots(slots, &group, dir, now);
        for (&(author, seq, bytes), got) in slots.iter().zip(&batched) {
            let alone = SignedEnvelope::open_wire(author, seq, bytes, &group, dir, now);
            assert_eq!(
                format!("{got:?}"),
                format!("{alone:?}"),
                "slot {author}/{seq}"
            );
        }
        batched
    }

    #[test]
    fn verified_envelopes_are_exactly_the_copies_open_wire_accepts() {
        // Every one-byte mutation of bob's stored record, the record
        // itself, mallory's record, each record filed under the other
        // author or another sequence number, an unknown author's slot
        // (whole and truncated), and a record from the future (intact and
        // forged), in one call: each slot comes back with what `open_wire`
        // returns for it, which decodes, then looks up the key, then checks
        // the signature, then the freshness rule.
        let (bob, mallory, dir, mut rng) = setup();
        let group = SchnorrGroup::toy();
        let wire = SignedEnvelope::seal(&bob, None, 3, 10, None, b"sealed body", &mut rng)
            .encode_wire(6, &group);
        let other = SignedEnvelope::seal(&mallory, None, 5, 10, None, b"hers", &mut rng)
            .encode_wire(1, &group);
        let future = SignedEnvelope::seal(&bob, None, 3, 30, None, b"later", &mut rng)
            .encode_wire(6, &group);
        let mut forged_future = future.clone();
        *forged_future.last_mut().unwrap() ^= 1;
        let mut copies = vec![wire.clone()];
        for at in 0..wire.len() {
            let mut m = wire.clone();
            m[at] ^= 0x40;
            copies.push(m);
        }
        let (id, mid, nobody) = ("bob", "mallory", "nobody");
        let mut slots: Vec<(&str, u64, &[u8])> =
            copies.iter().map(|c| (id, 3, c.as_slice())).collect();
        slots.extend([
            (mid, 5, other.as_slice()),
            (id, 5, other.as_slice()),
            (mid, 3, wire.as_slice()),
            (id, 4, wire.as_slice()),
            (nobody, 3, wire.as_slice()),
            (nobody, 3, &wire[..8]),
            (id, 3, future.as_slice()),
            (id, 3, forged_future.as_slice()),
        ]);
        let opened = verdicts_match_open_wire(&slots, &dir, 20);
        // Bob's record and its eight epoch-word mutants (the epoch sits
        // outside the signed digest; DESIGN.md, threat model), and
        // mallory's record under her own name.
        assert_eq!(opened.iter().filter(|v| v.is_ok()).count(), 10);
        // The last four slots refuse for the reasons listed above, in order.
        let tail: Vec<_> = opened[slots.len() - 4..]
            .iter()
            .map(|v| v.as_ref().err())
            .collect();
        assert!(
            matches!(
                tail[..],
                [
                    Some(DosnError::Crypto(_)),
                    Some(DosnError::MalformedEnvelope(_)),
                    Some(DosnError::IntegrityViolation(_)),
                    Some(DosnError::IntegrityViolation(_)),
                ]
            ),
            "{tail:?}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Over arbitrary mutations of a stored record, several in one
        /// call, each slot's batch verdict is `open_wire`'s: the accepted
        /// envelope, or the refusal's variant and message.
        #[test]
        fn batch_verdicts_are_open_wires_on_mutated_records(
            body in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..96),
            mutants in proptest::collection::vec(
                (proptest::prelude::any::<usize>(), 1u8..=255),
                1..5,
            ),
        ) {
            let (bob, _, dir, mut rng) = setup();
            let group = SchnorrGroup::toy();
            let id = "bob";
            let wire = SignedEnvelope::seal(&bob, None, 4, 9, None, &body, &mut rng)
                .encode_wire(2, &group);
            let mut copies = vec![wire.clone()];
            for (at, mask) in mutants {
                let mut m = wire.clone();
                m[at % wire.len()] ^= mask;
                copies.push(m);
            }
            let slots: Vec<(&str, u64, &[u8])> =
                copies.iter().map(|c| (id, 4, c.as_slice())).collect();
            verdicts_match_open_wire(&slots, &dir, u64::MAX - 1);
        }
    }

    #[test]
    fn field_framing_is_unambiguous() {
        // author "ab" + body "c" must not collide with author "a" + body "bc".
        let words = [1, 10, u64::MAX];
        assert_ne!(
            digest("ab", None, words, &[0; 32], &[], b"c"),
            digest("a", None, words, &[0; 32], &[], b"bc"),
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
