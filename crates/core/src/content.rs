//! Social content: profiles and posts.
//!
//! These are the plaintext objects the privacy layer (§III) encrypts, the
//! integrity layer (§IV) signs and chains, and the search layer (§V)
//! indexes.

use crate::error::DosnError;
use crate::identity::UserId;
use crate::integrity::envelope::Cursor;

/// A monotonically increasing logical timestamp (the social layer does not
/// assume synchronized clocks; ordering guarantees come from hash chains,
/// §IV-B).
pub type LogicalTime = u64;

/// A user profile: the fields OSNs typically force public, which the
/// information-substitution scheme (§III-A) protects by swapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// The owning user.
    pub owner: UserId,
    /// Display name.
    pub display_name: String,
    /// Free-text fields keyed by field name (e.g. "birthday", "city").
    pub fields: Vec<(String, String)>,
    /// Interest keywords (drive social search, §V).
    pub interests: Vec<String>,
}

impl Profile {
    /// Creates a minimal profile.
    pub fn new(owner: impl Into<UserId>, display_name: impl Into<String>) -> Self {
        Profile {
            owner: owner.into(),
            display_name: display_name.into(),
            fields: Vec::new(),
            interests: Vec::new(),
        }
    }

    /// Adds an interest keyword (builder style).
    #[must_use]
    pub fn with_interest(mut self, interest: impl Into<String>) -> Self {
        self.interests.push(interest.into());
        self
    }

    /// Looks up a field value.
    pub fn field(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A post on a user's wall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Post {
    /// The author.
    pub author: UserId,
    /// Author-local sequence number (position in the author's timeline).
    pub sequence: u64,
    /// Logical creation time.
    pub created_at: LogicalTime,
    /// Body text.
    pub body: String,
}

impl Post {
    /// Creates a post.
    pub fn new(
        author: impl Into<UserId>,
        sequence: u64,
        created_at: LogicalTime,
        body: impl Into<String>,
    ) -> Self {
        Post {
            author: author.into(),
            sequence,
            created_at,
            body: body.into(),
        }
    }

    /// The post's wire form, what the privacy layer encrypts:
    /// `author_len(4) | author | sequence(8) | created_at(8) | body_len(4) |
    /// body`, all integers big-endian. [`Post::from_bytes`] inverts it.
    ///
    /// # Errors
    ///
    /// [`DosnError::MalformedEnvelope`] when the author or the body is
    /// 4 GiB or longer.
    pub fn to_bytes(&self) -> Result<Vec<u8>, DosnError> {
        let (author, body) = (self.author.as_bytes(), self.body.as_bytes());
        let mut out = Vec::with_capacity(24 + author.len() + body.len());
        let field = |out: &mut Vec<u8>, bytes: &[u8]| -> Result<(), DosnError> {
            let len =
                u32::try_from(bytes.len()).map_err(|_| malformed("field of 4 GiB or more"))?;
            out.extend_from_slice(&len.to_be_bytes());
            out.extend_from_slice(bytes);
            Ok(())
        };
        field(&mut out, author)?;
        out.extend_from_slice(&self.sequence.to_be_bytes());
        out.extend_from_slice(&self.created_at.to_be_bytes());
        field(&mut out, body)?;
        Ok(out)
    }

    /// Parses [`Post::to_bytes`] output. Every length is checked against
    /// what remains before use, so arbitrary bytes produce a typed error,
    /// never a panic or an allocation they sized.
    ///
    /// # Errors
    ///
    /// [`DosnError::MalformedEnvelope`] — a truncated field, a length past
    /// the end, bytes after the body, or an author or body that is not
    /// UTF-8.
    pub fn from_bytes(bytes: &[u8]) -> Result<Post, DosnError> {
        let (author, sequence, created_at, body) = Post::read(bytes)?;
        Ok(Post::new(author, sequence, created_at, body))
    }

    /// [`Post::from_bytes`] without the copies: author, sequence number,
    /// creation time and body, borrowed from `bytes`.
    pub(crate) fn read(bytes: &[u8]) -> Result<(&str, u64, LogicalTime, &str), DosnError> {
        let mut c = Cursor(bytes);
        let Some((author, sequence, created_at, body)) =
            (|| Some((c.field()?, c.u64()?, c.u64()?, c.field()?)))()
        else {
            return Err(malformed("truncated, or a length past the end"));
        };
        if !c.0.is_empty() {
            return Err(malformed(&format!("{} bytes after the body", c.0.len())));
        }
        let text = |bytes| std::str::from_utf8(bytes).map_err(|_| malformed("text is not utf-8"));
        Ok((text(author)?, sequence, created_at, text(body)?))
    }
}

fn malformed(what: &str) -> DosnError {
    DosnError::MalformedEnvelope(format!("post: {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_builder_and_lookup() {
        let mut p = Profile::new("alice", "Alice A.").with_interest("football");
        p.fields.push(("city".into(), "Istanbul".into()));
        assert_eq!(p.field("city"), Some("Istanbul"));
        assert_eq!(p.field("missing"), None);
        assert_eq!(p.interests, vec!["football"]);
    }

    #[test]
    fn wire_form_round_trips_and_differs_for_different_content() {
        let p1 = Post::new("a", 1, 2, "x #tag");
        let p2 = Post::new("a", 1, 2, "y #tag");
        let (b1, b2) = (p1.to_bytes().unwrap(), p2.to_bytes().unwrap());
        assert_ne!(b1, b2);
        assert_eq!(b1.len(), 24 + 1 + 6);
        assert_eq!(Post::from_bytes(&b1).unwrap(), p1);
        assert_eq!(Post::read(&b2).unwrap(), ("a", 1, 2, "y #tag"));
    }
}
