//! The search index and the plaintext baseline search.
//!
//! This is the §V status quo: a provider-visible index over profiles where
//! every search discloses the searcher's identity and query to the
//! provider — the baseline the private modes are measured against in E7.

use crate::content::Profile;
use crate::identity::UserId;
use crate::search::audit::{Knowledge, LeakageAudit};
use std::collections::{BTreeMap, BTreeSet};

/// An inverted index: keyword → users.
#[derive(Debug, Clone, Default)]
pub struct SearchIndex {
    by_interest: BTreeMap<String, BTreeSet<UserId>>,
    profiles: BTreeMap<UserId, Profile>,
}

impl SearchIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes a profile by its interests.
    pub fn insert(&mut self, profile: Profile) {
        for interest in &profile.interests {
            self.by_interest
                .entry(interest.to_lowercase())
                .or_default()
                .insert(profile.owner.clone());
        }
        self.profiles.insert(profile.owner.clone(), profile);
    }

    /// Number of indexed profiles.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Raw interest lookup (no audit — callers instrument).
    pub fn users_interested_in(&self, interest: &str) -> Vec<UserId> {
        self.by_interest
            .get(&interest.to_lowercase())
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// The indexed profile of a user.
    pub fn profile(&self, user: &UserId) -> Option<&Profile> {
        self.profiles.get(user)
    }

    /// The §V baseline: a plaintext search at the provider. The provider
    /// learns the searcher's identity, the query, and which owners matched.
    pub fn plain_search(
        &self,
        searcher: &UserId,
        interest: &str,
        audit: &mut LeakageAudit,
    ) -> Vec<UserId> {
        audit.record("provider", Knowledge::SearcherIdentity);
        audit.record("provider", Knowledge::QueryContent);
        let matches = self.users_interested_in(interest);
        if !matches.is_empty() {
            audit.record("provider", Knowledge::OwnerIdentity);
        }
        // Matched owners are NOT told who searched (Facebook-style), but the
        // searcher of course learns the owners.
        audit.record(searcher.as_str(), Knowledge::OwnerIdentity);
        matches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> SearchIndex {
        let mut idx = SearchIndex::new();
        idx.insert(
            Profile::new("alice", "Alice A.")
                .with_interest("football")
                .with_interest("chess"),
        );
        idx.insert(Profile::new("bob", "Bob B.").with_interest("football"));
        idx.insert(Profile::new("carol", "Carol C.").with_interest("painting"));
        idx
    }

    #[test]
    fn interest_lookup() {
        let idx = index();
        let fans = idx.users_interested_in("football");
        assert_eq!(fans.len(), 2);
        assert!(fans.contains(&"alice".into()));
        assert!(
            idx.users_interested_in("Football").len() == 2,
            "case-folded"
        );
        assert!(idx.users_interested_in("curling").is_empty());
    }

    #[test]
    fn plain_search_leaks_everything_to_provider() {
        let idx = index();
        let mut audit = LeakageAudit::new();
        let results = idx.plain_search(&"alice".into(), "football", &mut audit);
        assert_eq!(results.len(), 2);
        assert!(audit.knows("provider", Knowledge::SearcherIdentity));
        assert!(audit.knows("provider", Knowledge::QueryContent));
        assert!(audit.knows("provider", Knowledge::OwnerIdentity));
        assert_eq!(audit.identity_exposure(), 1);
    }

    #[test]
    fn profiles_retrievable() {
        let idx = index();
        assert_eq!(idx.len(), 3);
        assert_eq!(
            idx.profile(&"carol".into()).unwrap().interests,
            vec!["painting"]
        );
    }
}
