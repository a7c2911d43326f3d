//! Trusted search results (survey §V-D; Huang et al.).
//!
//! "If Alice trusts Bob and Bob trusts Sara, then Alice can trust Sara too.
//! The amount of trust assigned to Sara by Alice, based on the search chain
//! from Alice to Sara, is a function of trust levels of every intermediate
//! friend of that chain … In this way, the target users can be ranked and
//! then chosen." Candidates are scored by the best multiplicative trust
//! chain from the searcher, blended with a popularity signal, and sorted.
//!
//! Trust is a per-edge array aligned with the graph's adjacency
//! ([`SocialGraph::weighted`]); this module is the only reader of it.

use dosn_overlay::social::SocialGraph;
use std::collections::BTreeMap;

/// A scored search candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedResult {
    /// The candidate vertex.
    pub user: u32,
    /// Best chain trust from the searcher (`0` when unreachable).
    pub trust: f64,
    /// Normalized popularity in `[0, 1]`.
    pub popularity: f64,
    /// Blended score used for ordering.
    pub score: f64,
    /// The best trust chain (searcher → … → candidate), empty if none.
    pub chain: Vec<u32>,
}

/// Ranks `candidates` for `searcher`.
///
/// `trust` is the graph's trust array ([`SocialGraph::weighted`]).
/// `popularity` maps vertices to raw popularity counts (followers, content
/// hits); missing vertices count 0. `trust_weight ∈ [0, 1]` blends trust
/// vs. popularity (the paper's model combines both signals); `max_hops`
/// bounds the chains.
///
/// ```
/// use dosn_core::search::rank_results;
/// use dosn_overlay::social::SocialGraph;
/// use std::collections::BTreeMap;
///
/// let (alice, bob, sara, mallory) = (0, 1, 2, 3);
/// let (g, trust) = SocialGraph::weighted(
///     4,
///     &[(alice, bob, 0.9), (bob, sara, 0.8), (alice, mallory, 0.1)],
/// );
/// let pop = BTreeMap::from([(sara, 10u64), (mallory, 10u64)]);
/// let ranked = rank_results(&g, &trust, alice, &[sara, mallory], &pop, 0.8, 4);
/// assert_eq!(ranked[0].user, sara); // trusted chain wins
/// assert_eq!(ranked[0].chain, vec![alice, bob, sara]);
/// ```
///
/// # Panics
///
/// Panics when `trust_weight` is outside `[0, 1]`, when `trust` is not
/// aligned with the adjacency, or when a vertex is out of range.
pub fn rank_results(
    graph: &SocialGraph,
    trust: &[f64],
    searcher: u32,
    candidates: &[u32],
    popularity: &BTreeMap<u32, u64>,
    trust_weight: f64,
    max_hops: usize,
) -> Vec<RankedResult> {
    assert!((0.0..=1.0).contains(&trust_weight), "trust_weight in [0,1]");
    let best = best_trust_paths(graph, trust, searcher, max_hops);
    let max_pop = candidates
        .iter()
        .map(|c| popularity.get(c).copied().unwrap_or(0))
        .max()
        .unwrap_or(0)
        .max(1) as f64;
    let mut out: Vec<RankedResult> = candidates
        .iter()
        .map(|&c| {
            let (chain, trust) = best[c as usize].clone();
            let pop = popularity.get(&c).copied().unwrap_or(0) as f64 / max_pop;
            RankedResult {
                user: c,
                trust,
                popularity: pop,
                score: trust_weight * trust + (1.0 - trust_weight) * pop,
                chain,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("scores are finite")
            .then_with(|| a.user.cmp(&b.user))
    });
    out
}

/// The best-trust chain from `from` to every vertex, over chains of at
/// most `max_hops` hops: entry `v` is the chain and the product of its
/// trust weights, or `(vec![], 0.0)` when no such chain has positive trust.
///
/// A hop-bounded relaxation: round `r` extends the round-`r − 1` chains
/// of the vertices that round improved, so after `r` rounds every entry is
/// the best chain of at most `r` hops. A vertex raised during a round is
/// extended from its raised value only in the next one. Since trust is at
/// most 1, a cycle never raises a product, so each chain is a simple path.
fn best_trust_paths(
    graph: &SocialGraph,
    trust: &[f64],
    from: u32,
    max_hops: usize,
) -> Vec<(Vec<u32>, f64)> {
    assert_eq!(
        trust.len(),
        2 * graph.edge_count(),
        "trust must be aligned with the adjacency"
    );
    let mut best = vec![(Vec::new(), 0.0); graph.nodes()];
    best[from as usize] = (vec![from], 1.0);
    let mut improved = vec![from];
    for _ in 0..max_hops {
        let previous: Vec<(u32, Vec<u32>, f64)> = improved
            .drain(..)
            .map(|v| (v, best[v as usize].0.clone(), best[v as usize].1))
            .collect();
        for (v, chain, t) in previous {
            for (&f, &w) in graph.friends(v).iter().zip(&trust[graph.row(v)]) {
                let through = t * w;
                if through > best[f as usize].1 {
                    best[f as usize] = ([chain.as_slice(), &[f]].concat(), through);
                    improved.push(f);
                }
            }
        }
        if improved.is_empty() {
            break;
        }
        improved.sort_unstable();
        improved.dedup();
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ALICE: u32 = 0;
    const BOB: u32 = 1;
    const SARA: u32 = 2;
    const CARL: u32 = 3;
    const DAVE: u32 = 4;
    const STRANGER: u32 = 5;

    fn graph() -> (SocialGraph, Vec<f64>) {
        SocialGraph::weighted(
            6,
            &[
                (ALICE, BOB, 0.9),
                (BOB, SARA, 0.9),
                (ALICE, CARL, 0.2),
                (CARL, DAVE, 0.2),
            ],
        )
    }

    fn pop(entries: &[(u32, u64)]) -> BTreeMap<u32, u64> {
        entries.iter().copied().collect()
    }

    #[test]
    fn trusted_chain_outranks_weak_chain() {
        let (g, trust) = graph();
        let ranked = rank_results(
            &g,
            &trust,
            ALICE,
            &[SARA, DAVE],
            &pop(&[(SARA, 5), (DAVE, 5)]),
            1.0,
            4,
        );
        assert_eq!(ranked[0].user, SARA);
        assert!((ranked[0].trust - 0.81).abs() < 1e-9);
        assert!((ranked[1].trust - 0.04).abs() < 1e-9);
        assert_eq!(ranked[0].chain, vec![ALICE, BOB, SARA]);
    }

    #[test]
    fn popularity_breaks_in_when_weighted() {
        let (g, trust) = graph();
        // dave is far more popular; with popularity-heavy weighting he wins.
        let ranked = rank_results(
            &g,
            &trust,
            ALICE,
            &[SARA, DAVE],
            &pop(&[(SARA, 1), (DAVE, 100)]),
            0.1,
            4,
        );
        assert_eq!(ranked[0].user, DAVE);
    }

    #[test]
    fn unreachable_candidate_scores_zero_trust() {
        let (g, trust) = graph();
        let ranked = rank_results(&g, &trust, ALICE, &[STRANGER], &pop(&[]), 1.0, 4);
        assert_eq!(ranked[0].trust, 0.0);
        assert!(ranked[0].chain.is_empty());
        assert_eq!(ranked[0].score, 0.0);
    }

    #[test]
    fn ties_break_deterministically() {
        let (g, trust) = graph();
        let ranked = rank_results(&g, &trust, ALICE, &[STRANGER, DAVE], &pop(&[]), 0.0, 4);
        // Both score 0 (no popularity, weight 0): sorted by vertex.
        assert_eq!(ranked[0].user, DAVE);
    }

    #[test]
    #[should_panic(expected = "trust_weight")]
    fn bad_weight_panics() {
        let (g, trust) = graph();
        rank_results(&g, &trust, ALICE, &[], &BTreeMap::new(), 1.5, 3);
    }

    #[test]
    fn empty_candidates_ok() {
        let (g, trust) = graph();
        let ranked = rank_results(&g, &trust, ALICE, &[], &BTreeMap::new(), 0.5, 3);
        assert!(ranked.is_empty());
    }

    /// Within one round, b raises c (0.9·0.9 > 0.1), and c must not relay
    /// that raised value on to d in the same round: the 3-hop chain
    /// a–b–c–d (0.729) is out of reach at 2 hops, where a–c–d (0.09) wins.
    #[test]
    fn a_vertex_raised_this_round_does_not_relay_until_the_next() {
        let (a, b, c, d) = (0, 1, 2, 3);
        let (g, trust) =
            SocialGraph::weighted(4, &[(a, b, 0.9), (a, c, 0.1), (b, c, 0.9), (c, d, 0.9)]);
        let (path, t) = &best_trust_paths(&g, &trust, a, 2)[d as usize];
        assert_eq!(path, &[a, c, d]);
        assert!((t - 0.09).abs() < 1e-12);
        let (path, t) = &best_trust_paths(&g, &trust, a, 3)[d as usize];
        assert_eq!(path, &[a, b, c, d]);
        assert!((t - 0.729).abs() < 1e-12);
    }

    /// The best product over the simple paths of at most `hops` more hops
    /// that extend `path` (of product `t`) to `to`; `0.0` when there is none.
    fn brute_force(
        g: &SocialGraph,
        trust: &[f64],
        path: &mut Vec<u32>,
        t: f64,
        to: u32,
        hops: usize,
    ) -> f64 {
        let v = path[path.len() - 1];
        let mut best = if v == to { t } else { 0.0 };
        for (&f, &w) in g.friends(v).iter().zip(&trust[g.row(v)]) {
            if hops > 0 && !path.contains(&f) {
                path.push(f);
                best = best.max(brute_force(g, trust, path, t * w, to, hops - 1));
                path.pop();
            }
        }
        best
    }

    const N: u32 = 7;
    const WEIGHTS: [f64; 4] = [0.1, 0.5, 0.9, 1.0];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// On small seeded graphs whose weights tie often, every entry of
        /// the relaxation equals the best simple path of at most `hops`
        /// hops, and its chain is such a path with exactly that product.
        #[test]
        fn relaxation_matches_every_simple_path_within_the_hop_limit(
            edges in proptest::collection::vec((0..N, 0..N, 0usize..4), 0..16),
            hops in 0usize..5,
        ) {
            let edges: Vec<(u32, u32, f64)> =
                edges.into_iter().map(|(a, b, w)| (a, b, WEIGHTS[w])).collect();
            let (g, trust) = SocialGraph::weighted(N as usize, &edges);
            for from in 0..N {
                let best = best_trust_paths(&g, &trust, from, hops);
                for to in 0..N {
                    let (chain, t) = &best[to as usize];
                    prop_assert_eq!(*t, brute_force(&g, &trust, &mut vec![from], 1.0, to, hops));
                    if chain.is_empty() {
                        continue;
                    }
                    prop_assert!(chain.len() <= hops + 1);
                    prop_assert_eq!((chain[0], chain[chain.len() - 1]), (from, to));
                    let distinct: std::collections::BTreeSet<&u32> = chain.iter().collect();
                    prop_assert_eq!(distinct.len(), chain.len());
                    let product = chain.windows(2).try_fold(1.0, |t, hop| {
                        let at = g.friends(hop[0]).binary_search(&hop[1]).ok()?;
                        Some(t * trust[g.row(hop[0]).start + at])
                    });
                    prop_assert_eq!(product, Some(*t));
                }
            }
        }
    }
}
