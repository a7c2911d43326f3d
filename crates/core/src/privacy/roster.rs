//! The membership roster: who held a group's keys during which epochs.
//!
//! Every list-style scheme (symmetric §III-B, per-recipient PKE §III-C,
//! IBBE §III-E) decides "may `member` open a post sealed at `epoch`?" from
//! the same ledger — member → (joined epoch, revoked epoch), with the epoch
//! bumped by every revocation. The ledger lives here once; a scheme keeps
//! only its key material, its [`super::MembershipCost`] arithmetic and the
//! wording of its refusals.

use crate::error::DosnError;
use std::collections::BTreeMap;

/// One group's membership ledger.
pub(crate) struct Roster {
    epoch: u64,
    /// member -> (joined epoch, revoked epoch). A member holds the keys of
    /// every epoch in `[joined, revoked)` — `[joined, ∞)` while active.
    members: BTreeMap<String, (u64, Option<u64>)>,
}

impl Roster {
    /// A roster at epoch 0 whose founding `members` all joined at epoch 0.
    pub(crate) fn new(members: &[String]) -> Self {
        Roster {
            epoch: 0,
            members: members.iter().map(|m| (m.clone(), (0, None))).collect(),
        }
    }

    /// The current epoch: the number of revocations so far.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether `member` held the group's keys at `epoch`: joined at or
    /// before it and not revoked until after it.
    pub(crate) fn active_at(&self, member: &str, epoch: u64) -> bool {
        self.members
            .get(member)
            .is_some_and(|(joined, revoked)| *joined <= epoch && revoked.is_none_or(|r| epoch < r))
    }

    /// The members not revoked, in name order.
    pub(crate) fn active(&self) -> Vec<String> {
        self.members
            .iter()
            .filter(|(_, (_, revoked))| revoked.is_none())
            .map(|(m, _)| m.clone())
            .collect()
    }

    /// Records `member` as joined at the current epoch. A re-join starts a
    /// fresh membership: epochs held before it are forgotten.
    pub(crate) fn join(&mut self, member: &str) {
        self.members.insert(member.to_owned(), (self.epoch, None));
    }

    /// Revokes `member`, opening a new epoch they do not hold. Returns how
    /// many members remain active.
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownUser`] for a name never on the roster or already
    /// revoked (the epoch does not move).
    pub(crate) fn revoke(&mut self, member: &str) -> Result<u64, DosnError> {
        let Some(entry) = self.members.get_mut(member) else {
            return Err(DosnError::UnknownUser(member.to_owned()));
        };
        if entry.1.is_some() {
            return Err(DosnError::UnknownUser(format!("{member} already revoked")));
        }
        self.epoch += 1;
        entry.1 = Some(self.epoch);
        let remaining = self.members.values().filter(|(_, r)| r.is_none());
        Ok(remaining.count() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_membership_spans_joined_to_revoked() {
        let mut r = Roster::new(&["a".into(), "b".into()]);
        assert_eq!(r.revoke("b").unwrap(), 1); // epoch 1 opens without b
        r.join("c");
        assert_eq!(r.epoch(), 1);
        assert!(r.active_at("b", 0) && !r.active_at("b", 1));
        assert!(!r.active_at("c", 0) && r.active_at("c", 1) && r.active_at("c", 9));
        assert_eq!(r.active(), vec!["a".to_string(), "c".to_string()]);
        r.join("b"); // re-join: a fresh membership from epoch 1
        assert!(!r.active_at("b", 0) && r.active_at("b", 1));
    }

    #[test]
    fn failed_revocations_do_not_open_an_epoch() {
        let mut r = Roster::new(&["a".into(), "b".into()]);
        r.revoke("b").unwrap();
        assert!(matches!(r.revoke("b"), Err(DosnError::UnknownUser(_))));
        assert!(matches!(r.revoke("nobody"), Err(DosnError::UnknownUser(_))));
        assert_eq!(r.epoch(), 1);
    }
}
