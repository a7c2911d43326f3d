//! The analysis graph: named users, trust-weighted friendships, and
//! synthetic generators — the input of the §V searches and §VI
//! anonymization, not the engine's record of who is friends with whom
//! (that is each user's friends-group roster).
//!
//! Relationships carry a trust weight in `[0, 1]` because two of the
//! survey's mechanisms consume it: trusted-friends search routing (§V-B,
//! Safebook) and trust-ranked search results (§V-D, Huang et al., where
//! "the amount of trust assigned to Sara by Alice … is a function of trust
//! levels of every intermediate friend of that chain").
//!
//! Since no real DOSN trace ships with a survey, [`generators`] provides the
//! two standard synthetic social topologies (Watts–Strogatz small-world and
//! Barabási–Albert preferential attachment) used by the experiment harness.

use crate::identity::UserId;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// An undirected social graph with per-edge trust weights.
///
/// ```
/// use dosn_core::graph::SocialGraph;
///
/// let mut g = SocialGraph::new();
/// g.befriend(&"alice".into(), &"bob".into(), 0.9);
/// g.befriend(&"bob".into(), &"carol".into(), 0.8);
/// assert_eq!(g.trust(&"bob".into(), &"alice".into()), Some(0.9));
/// assert_eq!(g.friends(&"bob".into()).len(), 2);
/// // Trust decays along chains multiplicatively.
/// let (path, t) = g.best_trust_path(&"alice".into(), &"carol".into(), 2).unwrap();
/// assert_eq!(path.len(), 3);
/// assert!((t - 0.72).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SocialGraph {
    edges: BTreeMap<UserId, BTreeMap<UserId, f64>>,
}

impl SocialGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of users with at least one edge (or explicitly added).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no users.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Ensures a user exists (isolated users are legal).
    pub fn add_user(&mut self, user: &UserId) {
        self.edges.entry(user.clone()).or_default();
    }

    /// Creates (or updates) a symmetric friendship with `trust ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `trust` is outside `[0, 1]` or the endpoints are equal.
    pub fn befriend(&mut self, a: &UserId, b: &UserId, trust: f64) {
        assert!((0.0..=1.0).contains(&trust), "trust must be in [0,1]");
        assert_ne!(a, b, "self-friendship is not allowed");
        self.edges
            .entry(a.clone())
            .or_default()
            .insert(b.clone(), trust);
        self.edges
            .entry(b.clone())
            .or_default()
            .insert(a.clone(), trust);
    }

    /// The trust `a` places in direct friend `b`.
    pub fn trust(&self, a: &UserId, b: &UserId) -> Option<f64> {
        self.edges.get(a).and_then(|m| m.get(b)).copied()
    }

    /// `user`'s friends, sorted.
    pub fn friends(&self, user: &UserId) -> Vec<UserId> {
        self.edges
            .get(user)
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// All users, sorted.
    pub fn users(&self) -> Vec<UserId> {
        self.edges.keys().cloned().collect()
    }

    /// The best-trust path from `from` to `to` up to `max_hops`, by
    /// exhaustive widest-path search over multiplicative trust (suitable
    /// for the small per-query neighborhoods of §V-D ranking).
    pub fn best_trust_path(
        &self,
        from: &UserId,
        to: &UserId,
        max_hops: usize,
    ) -> Option<(Vec<UserId>, f64)> {
        // Dijkstra-like on -log(trust) == max product trust.
        let mut best: HashMap<UserId, f64> = HashMap::new();
        let mut best_path: HashMap<UserId, Vec<UserId>> = HashMap::new();
        best.insert(from.clone(), 1.0);
        best_path.insert(from.clone(), vec![from.clone()]);
        let mut frontier = vec![from.clone()];
        for _ in 0..max_hops {
            let mut next_frontier = Vec::new();
            for cur in frontier {
                let cur_trust = best[&cur];
                for friend in self.friends(&cur) {
                    let t = cur_trust * self.trust(&cur, &friend).expect("edge exists");
                    if t > best.get(&friend).copied().unwrap_or(0.0) {
                        best.insert(friend.clone(), t);
                        let mut p = best_path[&cur].clone();
                        p.push(friend.clone());
                        best_path.insert(friend.clone(), p);
                        next_frontier.push(friend);
                    }
                }
            }
            if next_frontier.is_empty() {
                break;
            }
            frontier = next_frontier;
        }
        let t = best.get(to).copied()?;
        Some((best_path.remove(to)?, t))
    }
}

/// Synthetic social graph generators for the experiment workloads.
pub mod generators {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn uid(i: usize) -> UserId {
        UserId(format!("user{i}"))
    }

    /// Watts–Strogatz small-world graph: `n` users on a ring, each linked to
    /// `k` nearest neighbors per side, with rewiring probability `beta`.
    /// Trust weights are drawn uniformly from `[0.5, 1.0]`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2 * k + 1` or `beta` outside `[0, 1]`.
    pub fn small_world(n: usize, k: usize, beta: f64, seed: u64) -> SocialGraph {
        assert!(n > 2 * k, "ring too small for k");
        assert!((0.0..=1.0).contains(&beta), "beta in [0,1]");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = SocialGraph::new();
        for i in 0..n {
            g.add_user(&uid(i));
        }
        for i in 0..n {
            for j in 1..=k {
                let mut target = (i + j) % n;
                if beta > 0.0 && rng.random_range(0.0..1.0) < beta {
                    // Rewire to a random non-self target.
                    loop {
                        let cand = rng.random_range(0..n);
                        if cand != i {
                            target = cand;
                            break;
                        }
                    }
                }
                if target != i {
                    let trust = rng.random_range(0.5..1.0);
                    g.befriend(&uid(i), &uid(target), trust);
                }
            }
        }
        g
    }

    /// Barabási–Albert preferential attachment: `n` users, each newcomer
    /// attaching to `m` existing users with probability proportional to
    /// degree — yielding the heavy-tailed degree distribution real OSNs
    /// exhibit (survey ref \[1\], Mislove et al.).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `n <= m`.
    pub fn preferential_attachment(n: usize, m: usize, seed: u64) -> SocialGraph {
        assert!(m >= 1, "m >= 1");
        assert!(n > m, "need more users than attachment count");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = SocialGraph::new();
        // Degree-weighted urn: node appears once per incident edge.
        let mut urn: Vec<usize> = Vec::new();
        // Seed clique of m+1 nodes.
        for i in 0..=m {
            g.add_user(&uid(i));
            for j in 0..i {
                g.befriend(&uid(i), &uid(j), rng.random_range(0.5..1.0));
                urn.push(i);
                urn.push(j);
            }
        }
        for i in (m + 1)..n {
            g.add_user(&uid(i));
            let mut targets = BTreeSet::new();
            while targets.len() < m {
                let pick = urn[rng.random_range(0..urn.len())];
                if pick != i {
                    targets.insert(pick);
                }
            }
            for t in targets {
                g.befriend(&uid(i), &uid(t), rng.random_range(0.5..1.0));
                urn.push(i);
                urn.push(t);
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(s: &str) -> UserId {
        UserId::from(s)
    }

    #[test]
    fn befriend_is_symmetric() {
        let mut g = SocialGraph::new();
        g.befriend(&u("a"), &u("b"), 0.7);
        assert_eq!(g.trust(&u("a"), &u("b")), Some(0.7));
        assert_eq!(g.trust(&u("b"), &u("a")), Some(0.7));
    }

    #[test]
    #[should_panic(expected = "trust must be in [0,1]")]
    fn invalid_trust_panics() {
        SocialGraph::new().befriend(&u("a"), &u("b"), 1.5);
    }

    #[test]
    #[should_panic(expected = "self-friendship")]
    fn self_friendship_panics() {
        SocialGraph::new().befriend(&u("a"), &u("a"), 0.5);
    }

    #[test]
    fn best_trust_path_prefers_trustworthy_route() {
        let mut g = SocialGraph::new();
        // Short but weak path a-b-d (0.1*0.1), long strong a-x-y-d (0.9^3).
        g.befriend(&u("a"), &u("b"), 0.1);
        g.befriend(&u("b"), &u("d"), 0.1);
        g.befriend(&u("a"), &u("x"), 0.9);
        g.befriend(&u("x"), &u("y"), 0.9);
        g.befriend(&u("y"), &u("d"), 0.9);
        let (path, trust) = g.best_trust_path(&u("a"), &u("d"), 5).unwrap();
        assert_eq!(path.len(), 4);
        assert!((trust - 0.729).abs() < 1e-9);
        assert!(g.best_trust_path(&u("a"), &u("nobody"), 5).is_none());
    }

    #[test]
    fn best_trust_path_respects_hop_limit() {
        let mut g = SocialGraph::new();
        g.befriend(&u("a"), &u("b"), 0.9);
        g.befriend(&u("b"), &u("c"), 0.9);
        assert!(g.best_trust_path(&u("a"), &u("c"), 1).is_none());
        assert!(g.best_trust_path(&u("a"), &u("c"), 2).is_some());
    }

    #[test]
    fn small_world_generator_shape() {
        let g = generators::small_world(100, 3, 0.1, 5);
        assert_eq!(g.len(), 100);
        let avg_degree: f64 = g
            .users()
            .iter()
            .map(|u| g.friends(u).len() as f64)
            .sum::<f64>()
            / 100.0;
        assert!(avg_degree >= 5.0, "avg degree {avg_degree}");
        // Connectivity (beta small, ring base): any two nodes reachable.
        assert!(g
            .best_trust_path(&UserId("user0".into()), &UserId("user50".into()), 100)
            .is_some());
    }

    #[test]
    fn preferential_attachment_has_hubs() {
        let g = generators::preferential_attachment(300, 2, 6);
        assert_eq!(g.len(), 300);
        let mut degrees: Vec<usize> = g.users().iter().map(|u| g.friends(u).len()).collect();
        degrees.sort_unstable();
        let max = *degrees.last().unwrap();
        let median = degrees[degrees.len() / 2];
        assert!(
            max >= median * 4,
            "expected heavy tail: max {max}, median {median}"
        );
    }

    #[test]
    fn generators_are_deterministic() {
        let a = generators::small_world(50, 2, 0.2, 9);
        let b = generators::small_world(50, 2, 0.2, 9);
        for u in a.users() {
            assert_eq!(a.friends(&u), b.friends(&u));
        }
    }
}
