//! Social content: profiles and posts.
//!
//! These are the plaintext objects the privacy layer (§III) encrypts, the
//! integrity layer (§IV) signs and chains, and the search layer (§V)
//! indexes.

use crate::identity::UserId;
use serde::{DeError, Deserialize, Serialize, Value};

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

    /// Adds a profile field (builder style).
    #[must_use]
    pub fn with_field(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.fields.push((name.into(), value.into()));
        self
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
    /// Optional hashtags (drive the Hummingbird-style subscription layer).
    pub hashtags: Vec<String>,
}

impl Post {
    /// Creates a post.
    pub fn new(
        author: impl Into<UserId>,
        sequence: u64,
        created_at: LogicalTime,
        body: impl Into<String>,
    ) -> Self {
        let body = body.into();
        let hashtags = body
            .split_whitespace()
            .filter(|w| w.starts_with('#') && w.len() > 1)
            .map(|w| {
                w.trim_matches(|c: char| !c.is_alphanumeric() && c != '#')
                    .to_owned()
            })
            .filter(|w| w.len() > 1)
            .collect();
        Post {
            author: author.into(),
            sequence,
            created_at,
            body,
            hashtags,
        }
    }

    /// Canonical byte encoding (for hashing/signing).
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("post serializes")
    }
}

impl Serialize for Post {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("author".into(), self.author.to_value()),
            ("sequence".into(), self.sequence.to_value()),
            ("created_at".into(), self.created_at.to_value()),
            ("body".into(), self.body.to_value()),
            ("hashtags".into(), self.hashtags.to_value()),
        ])
    }
}

impl Deserialize for Post {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(Post {
            author: serde::field(value, "author")?,
            sequence: serde::field(value, "sequence")?,
            created_at: serde::field(value, "created_at")?,
            body: serde::field(value, "body")?,
            hashtags: serde::field(value, "hashtags")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_builder_and_lookup() {
        let p = Profile::new("alice", "Alice A.")
            .with_field("city", "Istanbul")
            .with_field("birthday", "26 October 1990")
            .with_interest("football");
        assert_eq!(p.field("city"), Some("Istanbul"));
        assert_eq!(p.field("missing"), None);
        assert_eq!(p.interests, vec!["football"]);
    }

    #[test]
    fn post_extracts_hashtags() {
        let p = Post::new("bob", 1, 10, "going to #party at my place on #friday!");
        assert_eq!(p.hashtags, vec!["#party", "#friday"]);
        let plain = Post::new("bob", 2, 11, "no tags here");
        assert!(plain.hashtags.is_empty());
        let lone_hash = Post::new("bob", 3, 12, "just # alone");
        assert!(lone_hash.hashtags.is_empty());
    }

    #[test]
    fn canonical_bytes_differ_for_different_content() {
        let p1 = Post::new("a", 1, 1, "x");
        let p2 = Post::new("a", 1, 1, "y");
        assert_ne!(p1.to_bytes(), p2.to_bytes());
    }
}
