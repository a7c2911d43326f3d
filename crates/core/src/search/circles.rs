//! Trusted-friends concentric routing (survey §V-B; Safebook).
//!
//! "Each user connects directly to trusted friends to forward messages. It
//! will cause a concentric circle of friends around each user, which makes
//! it possible to communicate with the user without revealing identity or
//! even IP address." A query hops through a chain of the searcher's
//! friends-of-friends; only the first hop sees the searcher, every later
//! hop sees only its predecessor, and the provider sees the *exit* node.
//! The anonymity the provider faces is quantified as the set of users who
//! could plausibly have originated a query exiting there.

use crate::identity::UserId;
use crate::search::audit::{Knowledge, LeakageAudit};
use crate::search::index::SearchIndex;
use dosn_overlay::social::SocialGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Routes queries through chains of trusted friends.
#[derive(Debug)]
pub struct FriendCircleRouter {
    rng: StdRng,
    /// Number of hops in the mixing chain (ring depth).
    pub chain_len: usize,
}

/// The outcome of a routed search.
#[derive(Debug, Clone)]
pub struct RoutedSearch {
    /// The relay chain of vertices, searcher first, exit node last.
    pub chain: Vec<u32>,
    /// Matching users.
    pub results: Vec<UserId>,
    /// Size of the anonymity set the provider faces (users within
    /// `chain_len` hops of the exit node).
    pub anonymity_set: usize,
}

impl FriendCircleRouter {
    /// Creates a router with the given chain length.
    ///
    /// # Panics
    ///
    /// Panics if `chain_len == 0` (a zero-hop chain is a plain search).
    pub fn new(chain_len: usize, seed: u64) -> Self {
        assert!(chain_len >= 1, "chain must have at least one relay");
        FriendCircleRouter {
            rng: StdRng::seed_from_u64(seed),
            chain_len,
        }
    }

    /// Builds a random friend chain from vertex `searcher` and runs the
    /// query at the exit node; `audit` names each vertex `user{v}`.
    ///
    /// Returns `None` when the searcher has no friends to relay through.
    pub fn search(
        &mut self,
        graph: &SocialGraph,
        searcher: u32,
        interest: &str,
        index: &SearchIndex,
        audit: &mut LeakageAudit,
    ) -> Option<RoutedSearch> {
        let mut chain = vec![searcher];
        let mut current = searcher;
        for _ in 0..self.chain_len {
            let candidates: Vec<u32> = graph
                .friends(current)
                .iter()
                .copied()
                .filter(|f| !chain.contains(f))
                .collect();
            if candidates.is_empty() {
                break;
            }
            current = candidates[self.rng.random_range(0..candidates.len())];
            chain.push(current);
        }
        if chain.len() < 2 {
            return None;
        }
        // Disclosure model: each relay learns only its predecessor. The
        // first relay therefore knows the searcher — but, per the survey's
        // relaxation, "friends of a user are trusted parties". We still
        // record it honestly.
        audit.record(&principal(chain[1]), Knowledge::SearcherIdentity);
        // Later relays learn a predecessor pseudonym, not the origin.
        for &relay in &chain[2..] {
            audit.record(&principal(relay), Knowledge::SearcherPseudonym);
        }
        // The exit node submits the query: the provider sees the query and
        // the exit's identity — not the searcher's.
        audit.record("provider", Knowledge::QueryContent);
        audit.record(&principal(current), Knowledge::QueryContent);
        let results = index.users_interested_in(interest);
        if !results.is_empty() {
            audit.record("provider", Knowledge::OwnerIdentity);
        }
        audit.record(&principal(searcher), Knowledge::OwnerIdentity);
        let anonymity_set = anonymity_set_size(graph, current, self.chain_len);
        Some(RoutedSearch {
            chain,
            results,
            anonymity_set,
        })
    }
}

/// The audit principal for vertex `v`: `user{v}`, the name a generated
/// graph's users carry in a [`SearchIndex`]. The one place a vertex
/// becomes a name.
fn principal(v: u32) -> String {
    format!("user{v}")
}

/// Vertices within `hops` of `exit` — everyone who could have originated a
/// chain exiting there.
fn anonymity_set_size(graph: &SocialGraph, exit: u32, hops: usize) -> usize {
    let mut reached = vec![false; graph.nodes()];
    reached[exit as usize] = true;
    let mut frontier = vec![exit];
    let mut size = 1;
    for _ in 0..hops {
        let mut next = Vec::new();
        for v in frontier {
            for &f in graph.friends(v) {
                if !reached[f as usize] {
                    reached[f as usize] = true;
                    next.push(f);
                }
            }
        }
        size += next.len();
        frontier = next;
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::Profile;
    use std::collections::BTreeSet;

    fn setup() -> (SocialGraph, SearchIndex) {
        let (graph, _) = SocialGraph::small_world(60, 3, 0.1, 7);
        let mut idx = SearchIndex::new();
        idx.insert(Profile::new("user30", "U30").with_interest("jazz"));
        (graph, idx)
    }

    #[test]
    fn chain_hides_searcher_from_provider() {
        let (graph, idx) = setup();
        let mut router = FriendCircleRouter::new(3, 1);
        let mut audit = LeakageAudit::new();
        let routed = router.search(&graph, 0, "jazz", &idx, &mut audit).unwrap();
        assert_eq!(routed.results, vec![UserId::from("user30")]);
        assert!(!audit.knows("provider", Knowledge::SearcherIdentity));
        assert!(audit.knows("provider", Knowledge::QueryContent));
        // Only the first relay knows the searcher.
        assert_eq!(audit.identity_exposure(), 1);
        assert_eq!(
            audit.principals_knowing(Knowledge::SearcherIdentity),
            vec![format!("user{}", routed.chain[1])]
        );
    }

    #[test]
    fn chain_members_are_distinct_friends() {
        let (graph, idx) = setup();
        let mut router = FriendCircleRouter::new(4, 2);
        let mut audit = LeakageAudit::new();
        let routed = router.search(&graph, 5, "jazz", &idx, &mut audit).unwrap();
        // Consecutive chain members are friends; no repeats.
        for pair in routed.chain.windows(2) {
            assert!(graph.are_friends(pair[0], pair[1]));
        }
        let unique: BTreeSet<_> = routed.chain.iter().collect();
        assert_eq!(unique.len(), routed.chain.len());
    }

    #[test]
    fn longer_chains_widen_anonymity() {
        let (graph, idx) = setup();
        let run = |len: usize| {
            let mut router = FriendCircleRouter::new(len, 3);
            let mut audit = LeakageAudit::new();
            let mut total = 0usize;
            for searcher in 0..10 {
                if let Some(r) = router.search(&graph, searcher, "jazz", &idx, &mut audit) {
                    total += r.anonymity_set;
                }
            }
            total
        };
        assert!(
            run(4) > run(1),
            "deeper rings must face the provider with more candidates"
        );
    }

    #[test]
    fn isolated_searcher_cannot_route() {
        let graph = SocialGraph::empty(1);
        let idx = SearchIndex::new();
        let mut router = FriendCircleRouter::new(2, 4);
        let mut audit = LeakageAudit::new();
        assert!(router.search(&graph, 0, "x", &idx, &mut audit).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one relay")]
    fn zero_chain_rejected() {
        FriendCircleRouter::new(0, 1);
    }
}
