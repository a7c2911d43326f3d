//! Integrity of data relations: per-post comment keys (survey §IV-C).
//!
//! "To guarantee the links between two entities in the system, for example
//! a post and corresponding comments, one solution is to embed a proper
//! signing key for signing the comments of that post. The signing key is
//! encrypted in a way that only authorized users can decrypt and use it …
//! \[the\] corresponding verification key is also located in the content of
//! the post. This verification key can be used to verify whether the
//! comments belong to the post or not, and also to verify the privileges of
//! the commenter." — the Cachet design. Each post gets its own key pair, so
//! "a different sub-group of the users \[can\] write a comment for different
//! posts".

use crate::error::DosnError;
use crate::identity::UserId;
use dosn_bigint::BigUint;
use dosn_crypto::aead::SymmetricKey;
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::SchnorrGroup;
use dosn_crypto::schnorr::{Signature, SigningKey, VerifyingKey};

/// The relation key material attached to one post.
///
/// ```
/// use dosn_core::integrity::{PostRelationKeys, CommentAttachment};
/// use dosn_crypto::{aead::SymmetricKey, group::SchnorrGroup, chacha::SecureRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SecureRng::seed_from_u64(95);
/// let commenters_key = SymmetricKey::generate(&mut rng); // shared with friends
/// let post = PostRelationKeys::create("bob/post/1", SchnorrGroup::toy(),
///                                     &commenters_key, &mut rng);
///
/// // A friend holding the commenters key attaches a comment.
/// let comment = CommentAttachment::create(
///     &post, &commenters_key, "alice".into(), b"sounds fun!", &mut rng)?;
/// post.verify_comment(&comment)?;
///
/// // The same comment cannot be re-attached to a different post.
/// let other = PostRelationKeys::create("bob/post/2", SchnorrGroup::toy(),
///                                      &commenters_key, &mut rng);
/// assert!(other.verify_comment(&comment).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PostRelationKeys {
    /// The post this key pair is bound to.
    pub post_id: String,
    /// The public verification key, shipped in the post content.
    verification: VerifyingKey,
    /// The per-post signing key, wrapped for the authorized commenter group.
    wrapped_signing_key: Vec<u8>,
    group: SchnorrGroup,
}

/// A comment carrying its proof of relation to a post.
#[derive(Debug, Clone)]
pub struct CommentAttachment {
    /// The commenter.
    pub author: UserId,
    /// The target post.
    pub post_id: String,
    /// Comment body.
    pub body: Vec<u8>,
    signature: Signature,
}

impl PostRelationKeys {
    /// Creates a fresh per-post key pair, wrapping the signing key under
    /// `commenters_key` (which the owner shares with exactly the sub-group
    /// allowed to comment on this post).
    pub fn create(
        post_id: impl Into<String>,
        group: SchnorrGroup,
        commenters_key: &SymmetricKey,
        rng: &mut SecureRng,
    ) -> Self {
        let post_id = post_id.into();
        let signing = SigningKey::generate(group.clone(), rng);
        let scalar_bytes = signing.secret_scalar_bytes();
        let wrapped_signing_key = commenters_key.seal(&scalar_bytes, post_id.as_bytes(), rng);
        PostRelationKeys {
            post_id,
            verification: signing.verifying_key().clone(),
            wrapped_signing_key,
            group,
        }
    }

    /// Unwraps the signing key — succeeds only for holders of the
    /// commenters key (the privilege check of §IV-C).
    ///
    /// # Errors
    ///
    /// [`DosnError::NotAuthorized`] when `key` is not the commenters key.
    pub fn unwrap_signing_key(&self, key: &SymmetricKey) -> Result<SigningKey, DosnError> {
        let scalar_bytes = key
            .open(&self.wrapped_signing_key, self.post_id.as_bytes())
            .map_err(|_| {
                DosnError::NotAuthorized(format!("not in the commenter group of {}", self.post_id))
            })?;
        let scalar = BigUint::from_bytes_be(&scalar_bytes);
        Ok(SigningKey::from_scalar(self.group.clone(), scalar))
    }

    /// Verifies that `comment` belongs to this post and was written by a
    /// privileged commenter.
    ///
    /// # Errors
    ///
    /// [`DosnError::IntegrityViolation`] on post mismatch or bad signature.
    pub fn verify_comment(&self, comment: &CommentAttachment) -> Result<(), DosnError> {
        if comment.post_id != self.post_id {
            return Err(DosnError::IntegrityViolation(format!(
                "comment targets {}, verified against {}",
                comment.post_id, self.post_id
            )));
        }
        self.verification
            .verify(&comment.signed_bytes(), &comment.signature)
            .map_err(|_| {
                DosnError::IntegrityViolation(
                    "comment not signed with this post's relation key".into(),
                )
            })
    }
}

impl CommentAttachment {
    /// Writes a comment: unwraps the post's signing key (privilege check)
    /// and signs the comment bound to the post id.
    ///
    /// # Errors
    ///
    /// [`DosnError::NotAuthorized`] when `commenters_key` cannot unwrap the
    /// post's signing key.
    pub fn create(
        post: &PostRelationKeys,
        commenters_key: &SymmetricKey,
        author: UserId,
        body: &[u8],
        rng: &mut SecureRng,
    ) -> Result<Self, DosnError> {
        let signing = post.unwrap_signing_key(commenters_key)?;
        let payload = Self::payload_bytes(&author, &post.post_id, body);
        let signature = signing.sign(&payload, rng);
        Ok(CommentAttachment {
            author,
            post_id: post.post_id.clone(),
            body: body.to_vec(),
            signature,
        })
    }

    fn signed_bytes(&self) -> Vec<u8> {
        Self::payload_bytes(&self.author, &self.post_id, &self.body)
    }

    fn payload_bytes(author: &UserId, post_id: &str, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"dosn.relation.comment");
        out.extend_from_slice(&(author.as_bytes().len() as u64).to_be_bytes());
        out.extend_from_slice(author.as_bytes());
        out.extend_from_slice(&(post_id.len() as u64).to_be_bytes());
        out.extend_from_slice(post_id.as_bytes());
        out.extend_from_slice(body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PostRelationKeys, SymmetricKey, SecureRng) {
        let mut rng = SecureRng::seed_from_u64(96);
        let key = SymmetricKey::generate(&mut rng);
        let post = PostRelationKeys::create("bob/post/1", SchnorrGroup::toy(), &key, &mut rng);
        (post, key, rng)
    }

    #[test]
    fn privileged_comment_verifies() {
        let (post, key, mut rng) = setup();
        let c = CommentAttachment::create(&post, &key, "alice".into(), b"nice!", &mut rng).unwrap();
        post.verify_comment(&c).unwrap();
        assert_eq!(c.author, UserId::from("alice"));
    }

    #[test]
    fn unprivileged_user_cannot_comment() {
        let (post, _, mut rng) = setup();
        let wrong_key = SymmetricKey::generate(&mut rng);
        assert!(matches!(
            CommentAttachment::create(&post, &wrong_key, "eve".into(), b"spam", &mut rng),
            Err(DosnError::NotAuthorized(_))
        ));
    }

    #[test]
    fn comment_bound_to_post() {
        let (post, key, mut rng) = setup();
        let other = PostRelationKeys::create("bob/post/2", SchnorrGroup::toy(), &key, &mut rng);
        let c = CommentAttachment::create(&post, &key, "alice".into(), b"x", &mut rng).unwrap();
        assert!(other.verify_comment(&c).is_err());
        // Even rewriting the post_id field fails: it is signed.
        let mut forged = c.clone();
        forged.post_id = "bob/post/2".into();
        assert!(other.verify_comment(&forged).is_err());
    }

    #[test]
    fn body_and_author_tampering_detected() {
        let (post, key, mut rng) = setup();
        let c =
            CommentAttachment::create(&post, &key, "alice".into(), b"original", &mut rng).unwrap();
        let mut tampered = c.clone();
        tampered.body = b"modified".to_vec();
        assert!(post.verify_comment(&tampered).is_err());
        let mut reattributed = c.clone();
        reattributed.author = "mallory".into();
        assert!(post.verify_comment(&reattributed).is_err());
    }

    #[test]
    fn per_post_subgroups() {
        // Different posts can have different commenter groups.
        let mut rng = SecureRng::seed_from_u64(97);
        let family_key = SymmetricKey::generate(&mut rng);
        let work_key = SymmetricKey::generate(&mut rng);
        let family_post =
            PostRelationKeys::create("p/family", SchnorrGroup::toy(), &family_key, &mut rng);
        let work_post =
            PostRelationKeys::create("p/work", SchnorrGroup::toy(), &work_key, &mut rng);
        assert!(
            CommentAttachment::create(&family_post, &work_key, "boss".into(), b"?", &mut rng)
                .is_err()
        );
        assert!(
            CommentAttachment::create(&work_post, &work_key, "boss".into(), b"ok", &mut rng)
                .is_ok()
        );
    }
}
