//! Server federation (survey §II-B, "server federation").
//!
//! "The main purpose of this architecture is to distribute users' data among
//! several servers … In this way none of them will have a complete global
//! view of the private data stored in the system." This is the
//! Diaspora-style pod model: every user has a *home server*; clients talk to
//! their home server, and servers relay to other servers on the user's
//! behalf. [`FederationPlane::max_view_fraction`] quantifies the survey's
//! global-view claim directly.

use crate::arena::{Admission, Holders};
use crate::id::{Key, NodeId};
use crate::metrics::Metrics;
use crate::sim::PLANE_HOP_MS;
use crate::storage::{StorageError, StoragePlane};
use dosn_obs::names;
use std::collections::HashMap;

/// Errors from federated operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FederationError {
    /// The user is not registered on any server.
    UnknownUser(String),
    /// The user's home server is down.
    HomeServerDown(String),
    /// The key is not stored.
    NotFound(Key),
}

impl std::fmt::Display for FederationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederationError::UnknownUser(u) => write!(f, "user {u:?} not registered"),
            FederationError::HomeServerDown(u) => write!(f, "home server of {u:?} is down"),
            FederationError::NotFound(k) => write!(f, "key {k} not stored in the federation"),
        }
    }
}

impl std::error::Error for FederationError {}

/// A pod's registered users (its online flag is in the plane's
/// [`Holders`] table, under the pod's index).
#[derive(Debug, Default)]
struct Server {
    users: Vec<String>,
}

/// A federation of home servers (Diaspora pods), and the [`StoragePlane`]
/// over it: "nodes" are pods, replicas are pod-to-pod mirrors of a user's
/// data. Pods mirror everything already, so the plane has no hot cache.
///
/// ```
/// use dosn_overlay::federation::FederationPlane;
/// use dosn_overlay::id::Key;
/// use dosn_overlay::metrics::Metrics;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut fed = FederationPlane::build(4);
/// fed.register("alice@pod0", 0)?;
/// fed.register("bob@pod2", 2)?;
/// let mut m = Metrics::new();
/// fed.store("alice@pod0", Key::hash(b"alice/post/1"), b"hi".to_vec(), &mut m)?;
/// // Bob fetches via his own home server, which relays to pod 0.
/// let got = fed.fetch("bob@pod2", Key::hash(b"alice/post/1"), "alice@pod0", &mut m)?;
/// assert_eq!(got, b"hi");
/// // No server hosts more than half the users.
/// assert!(fed.max_view_fraction() <= 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FederationPlane {
    servers: Vec<Server>,
    home_of: HashMap<String, usize>,
    /// The online set over pod indices `0..n` and the pods' blob storage,
    /// interned across the whole federation — mirrored replicas of one
    /// value share one allocation.
    holders: Holders,
}

impl FederationPlane {
    /// Creates a federation with `servers` empty online servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn build(servers: usize) -> Self {
        assert!(servers > 0, "federation needs at least one server");
        let ids = (0..servers as u64).collect();
        FederationPlane {
            servers: (0..servers).map(|_| Server::default()).collect(),
            home_of: HashMap::new(),
            holders: Holders::new(ids, names::FED_STORE, names::FED_FETCH, Admission::Off),
        }
    }

    /// Registers `user` with home server `server`. Registering a known
    /// user again moves them: they leave their old pod's user list, so
    /// every user is listed on exactly their home pod.
    ///
    /// # Errors
    ///
    /// Returns [`FederationError::UnknownUser`] if the server index is out
    /// of range (reported against the user for context).
    pub fn register(&mut self, user: &str, server: usize) -> Result<(), FederationError> {
        if server >= self.servers.len() {
            return Err(FederationError::UnknownUser(user.to_owned()));
        }
        if let Some(old) = self.home_of.insert(user.to_owned(), server) {
            self.servers[old].users.retain(|u| u != user);
        }
        self.servers[server].users.push(user.to_owned());
        Ok(())
    }

    /// The home server index of `user`.
    pub fn home_server(&self, user: &str) -> Option<usize> {
        self.home_of.get(user).copied()
    }

    /// Stores data on the *owner's* home server (client → home, 1 message).
    ///
    /// # Errors
    ///
    /// [`FederationError::UnknownUser`] / [`FederationError::HomeServerDown`].
    pub fn store(
        &mut self,
        owner: &str,
        key: Key,
        value: Vec<u8>,
        metrics: &mut Metrics,
    ) -> Result<(), FederationError> {
        let home = self
            .home_server(owner)
            .ok_or_else(|| FederationError::UnknownUser(owner.to_owned()))?;
        self.holders
            .store_at(NodeId(home as u64), key, &value, metrics)
            .map_err(|_| FederationError::HomeServerDown(owner.to_owned()))
    }

    /// Fetches `key` owned by `owner`, as `requester`: client → requester's
    /// home → owner's home → back. Two on-path messages when the owners
    /// differ, one when they share a pod.
    ///
    /// # Errors
    ///
    /// [`FederationError`] when either home is unknown/down or the key is
    /// missing.
    pub fn fetch(
        &mut self,
        requester: &str,
        key: Key,
        owner: &str,
        metrics: &mut Metrics,
    ) -> Result<Vec<u8>, FederationError> {
        let req_home = self
            .home_server(requester)
            .ok_or_else(|| FederationError::UnknownUser(requester.to_owned()))?;
        if !self.is_online(NodeId(req_home as u64)) {
            return Err(FederationError::HomeServerDown(requester.to_owned()));
        }
        metrics.record(names::FED_CLIENT_REQUEST, 32, PLANE_HOP_MS);
        let owner_home = self
            .home_server(owner)
            .ok_or_else(|| FederationError::UnknownUser(owner.to_owned()))?;
        if owner_home != req_home {
            if !self.is_online(NodeId(owner_home as u64)) {
                return Err(FederationError::HomeServerDown(owner.to_owned()));
            }
            metrics.record(names::FED_SERVER_RELAY, 32, 40);
        }
        self.holders
            .stored(NodeId(owner_home as u64), key)
            .ok_or(FederationError::NotFound(key))
    }

    /// The survey's global-view metric: the largest fraction of all users
    /// whose data any single server observes. Centralized OSN = 1.0;
    /// a balanced federation approaches `1 / servers`.
    pub fn max_view_fraction(&self) -> f64 {
        let total: usize = self.servers.iter().map(|s| s.users.len()).sum();
        if total == 0 {
            return 0.0;
        }
        let max = self
            .servers
            .iter()
            .map(|s| s.users.len())
            .max()
            .unwrap_or(0);
        max as f64 / total as f64
    }
}

impl StoragePlane for FederationPlane {
    fn name(&self) -> &'static str {
        "federation"
    }

    fn holders(&self) -> &Holders {
        &self.holders
    }

    fn holders_mut(&mut self) -> &mut Holders {
        &mut self.holders
    }

    fn set_online(&mut self, node: NodeId, online: bool) {
        self.holders.set_online(node, online);
    }

    /// A deterministic forward scan from the key's hash partition.
    fn replica_candidates(
        &mut self,
        key: Key,
        want: usize,
        metrics: &mut Metrics,
    ) -> Result<Vec<NodeId>, StorageError> {
        let candidates = self.holders.scan_online(key.0 as usize, want);
        if candidates.is_empty() {
            return Err(StorageError::NoNodes);
        }
        // Client → home server: federation placement is a table lookup.
        metrics.record(names::FED_CLIENT_REQUEST, 32, PLANE_HOP_MS);
        Ok(candidates)
    }

    /// A pod mirroring a friend's pod.
    fn store_at(
        &mut self,
        node: NodeId,
        key: Key,
        value: &[u8],
        metrics: &mut Metrics,
    ) -> Result<(), StorageError> {
        self.holders.store_at(node, key, value, metrics)
    }

    fn fetch_from(
        &mut self,
        node: NodeId,
        key: Key,
        metrics: &mut Metrics,
    ) -> Result<Option<Vec<u8>>, StorageError> {
        self.holders.fetch_from(node, key, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fed() -> FederationPlane {
        let mut f = FederationPlane::build(4);
        for i in 0..20 {
            f.register(&format!("user{i}"), i % 4).unwrap();
        }
        f
    }

    #[test]
    fn same_pod_fetch_is_one_message() {
        let mut f = fed();
        let mut m = Metrics::new();
        f.store("user0", Key::hash(b"x"), b"v".to_vec(), &mut m)
            .unwrap();
        let mut m2 = Metrics::new();
        // user4 also lives on pod 0.
        let got = f.fetch("user4", Key::hash(b"x"), "user0", &mut m2).unwrap();
        assert_eq!(got, b"v");
        assert_eq!(m2.count("fed.server_relay"), 0);
        assert_eq!(m2.count("fed.client_request"), 1);
    }

    #[test]
    fn cross_pod_fetch_relays() {
        let mut f = fed();
        let mut m = Metrics::new();
        f.store("user0", Key::hash(b"y"), b"w".to_vec(), &mut m)
            .unwrap();
        let mut m2 = Metrics::new();
        let got = f.fetch("user1", Key::hash(b"y"), "user0", &mut m2).unwrap();
        assert_eq!(got, b"w");
        assert_eq!(m2.count("fed.server_relay"), 1);
    }

    #[test]
    fn unknown_users_rejected() {
        let mut f = fed();
        let mut m = Metrics::new();
        assert!(matches!(
            f.store("ghost", Key::hash(b"z"), vec![], &mut m),
            Err(FederationError::UnknownUser(_))
        ));
        assert!(matches!(
            f.fetch("ghost", Key::hash(b"z"), "user0", &mut m),
            Err(FederationError::UnknownUser(_))
        ));
        assert!(matches!(
            f.fetch("user0", Key::hash(b"z"), "ghost", &mut m),
            Err(FederationError::UnknownUser(_))
        ));
    }

    #[test]
    fn downed_home_server_blocks_its_users_only() {
        let mut f = fed();
        let mut m = Metrics::new();
        f.store("user1", Key::hash(b"a"), b"1".to_vec(), &mut m)
            .unwrap();
        f.store("user2", Key::hash(b"b"), b"2".to_vec(), &mut m)
            .unwrap();
        f.set_online(NodeId(1), false); // user1's pod
        assert!(matches!(
            f.fetch("user0", Key::hash(b"a"), "user1", &mut m),
            Err(FederationError::HomeServerDown(_))
        ));
        // Other pods unaffected.
        assert_eq!(
            f.fetch("user0", Key::hash(b"b"), "user2", &mut m).unwrap(),
            b"2"
        );
        // user1 cannot even issue requests.
        assert!(matches!(
            f.fetch("user1", Key::hash(b"b"), "user2", &mut m),
            Err(FederationError::HomeServerDown(_))
        ));
    }

    #[test]
    fn missing_key_not_found() {
        let mut f = fed();
        let mut m = Metrics::new();
        assert!(matches!(
            f.fetch("user0", Key::hash(b"none"), "user1", &mut m),
            Err(FederationError::NotFound(_))
        ));
    }

    #[test]
    fn view_fraction_balanced_federation() {
        let f = fed();
        assert!((f.max_view_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn view_fraction_extremes() {
        let empty = FederationPlane::build(3);
        assert_eq!(empty.max_view_fraction(), 0.0);
        let mut central = FederationPlane::build(1);
        central.register("only", 0).unwrap();
        assert_eq!(central.max_view_fraction(), 1.0);
    }

    #[test]
    fn register_bad_server_fails() {
        let mut f = FederationPlane::build(2);
        assert!(f.register("x", 5).is_err());
    }

    /// Regression: registering a user again used to list them on both
    /// pods, so a one-user federation reported a 0.5 view fraction.
    #[test]
    fn registering_again_moves_the_user() {
        let mut f = FederationPlane::build(2);
        f.register("u", 0).unwrap();
        f.register("u", 1).unwrap();
        assert_eq!(f.home_server("u"), Some(1));
        assert_eq!(f.max_view_fraction(), 1.0);
        assert_eq!(f.servers[0].users, Vec::<String>::new());
        // Again on the same pod: still listed once.
        f.register("u", 1).unwrap();
        assert_eq!(f.servers[1].users, vec!["u".to_owned()]);
        // A refused move changes nothing.
        assert!(f.register("u", 7).is_err());
        assert_eq!(f.home_server("u"), Some(1));
    }
}
