//! Social-graph anonymization and de-anonymization (survey §VI).
//!
//! "OSN providers publish their data for … research … There should be an
//! 'anonymized' way that let\[s\] the OSN providers publish these data sets
//! … Obtaining the anonymized data, one can reverse the anonymization
//! process and identif\[y\] the corresponding nodes (which is known as
//! de-anonymization)." Both sides are implemented:
//!
//! * [`anonymize`] — naive identifier-stripping plus **k-degree
//!   anonymity** (every degree value is shared by ≥ k nodes, achieved by
//!   adding padding edges);
//! * [`DeanonymizationAttack`] — the standard seed-and-propagate attack
//!   (Narayanan–Shmatikov style): given a few known seed mappings and an
//!   auxiliary copy of the graph, iteratively match neighbors by degree and
//!   already-mapped adjacency, re-identifying "anonymized" nodes.
//!
//! The test suite demonstrates the survey's implicit claim: naive
//! anonymization falls to the attack, and degree padding reduces (but does
//! not eliminate) re-identification.

use dosn_overlay::social::SocialGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The published artifact: pseudonymous ids with edges.
#[derive(Debug, Clone)]
pub struct AnonymizedGraph {
    /// Pseudonym adjacency (symmetric).
    pub edges: BTreeMap<u64, BTreeSet<u64>>,
    /// The secret mapping vertex → pseudonym (kept by the publisher; the
    /// attacker never sees it — tests use it as ground truth).
    pub ground_truth: BTreeMap<u32, u64>,
}

impl AnonymizedGraph {
    /// Degree of a pseudonymous node.
    pub fn degree(&self, node: u64) -> usize {
        self.edges.get(&node).map_or(0, BTreeSet::len)
    }

    /// Whether every degree value is shared by at least `k` nodes.
    fn is_k_degree_anonymous(&self, k: usize) -> bool {
        let mut by_degree: BTreeMap<usize, usize> = BTreeMap::new();
        for node in self.edges.keys() {
            *by_degree.entry(self.degree(*node)).or_insert(0) += 1;
        }
        by_degree.values().all(|&count| count >= k)
    }
}

/// Anonymizes `graph`: strips identifiers to random pseudonyms and, when
/// `k > 1`, pads edges until the degree sequence is k-anonymous.
pub fn anonymize(graph: &SocialGraph, k: usize, seed: u64) -> AnonymizedGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = graph.nodes();
    // Random pseudonym assignment.
    let mut pseudonyms: Vec<u64> = Vec::new();
    let mut used = BTreeSet::new();
    while pseudonyms.len() < n {
        let p = rng.random::<u64>();
        if used.insert(p) {
            pseudonyms.push(p);
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    // Shuffle the assignment so pseudonym order leaks nothing.
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let ground_truth: BTreeMap<u32, u64> =
        (0..n).map(|v| (v as u32, pseudonyms[order[v]])).collect();
    let edges: BTreeMap<u64, BTreeSet<u64>> = ground_truth
        .iter()
        .map(|(&v, &p)| {
            (
                p,
                graph.friends(v).iter().map(|f| ground_truth[f]).collect(),
            )
        })
        .collect();
    let mut out = AnonymizedGraph {
        edges,
        ground_truth,
    };
    if k > 1 {
        pad_to_k_degree(&mut out, k, &mut rng);
    }
    out
}

/// Adds edges until every degree class holds ≥ k nodes.
///
/// Each round plans a target degree per node: nodes sorted by degree,
/// highest first, in runs of `k` (the last run absorbs the remainder), each
/// node raised to the highest degree of its run. Nodes short of their
/// target are joined to each other, lowest degree first; a node that finds
/// no short non-neighbour is joined to a random non-neighbour instead. That
/// neighbour's unplanned edge can leave its class short, so rounds repeat
/// until the sequence is anonymous. Raising a node only ever to a degree
/// its run already has means the top of the sequence never runs away.
fn pad_to_k_degree(graph: &mut AnonymizedGraph, k: usize, rng: &mut StdRng) {
    let nodes: Vec<u64> = graph.edges.keys().copied().collect();
    if nodes.len() < k {
        return;
    }
    for _ in 0..nodes.len() {
        if graph.is_k_degree_anonymous(k) {
            return;
        }
        let mut ranked = nodes.clone();
        ranked.sort_by_key(|&p| (std::cmp::Reverse(graph.degree(p)), p));
        let last_run = (ranked.len() / k - 1) * k;
        let mut short: Vec<usize> = (0..ranked.len())
            .map(|i| graph.degree(ranked[(i / k * k).min(last_run)]) - graph.degree(ranked[i]))
            .collect();
        for (i, &p) in ranked.iter().enumerate() {
            while short[i] > 0 {
                let free = |q: u64| q != p && !graph.edges[&p].contains(&q);
                let partner = (0..ranked.len())
                    .rev()
                    .find(|&j| j != i && short[j] > 0 && free(ranked[j]));
                let mut random = (0..nodes.len()).map(|_| nodes[rng.random_range(0..nodes.len())]);
                let other = match partner {
                    Some(j) => {
                        short[j] -= 1;
                        ranked[j]
                    }
                    None => match random.find(|&q| free(q)) {
                        Some(q) => q,
                        None => break,
                    },
                };
                short[i] -= 1;
                graph.edges.get_mut(&p).expect("node").insert(other);
                graph.edges.get_mut(&other).expect("node").insert(p);
            }
        }
    }
}

/// The seed-and-propagate de-anonymization attack.
#[derive(Debug)]
pub struct DeanonymizationAttack {
    /// Auxiliary knowledge: the attacker's own copy of the social graph
    /// (e.g. crawled from another OSN — the survey's network-inference
    /// threat).
    pub auxiliary: SocialGraph,
    /// Known seed mappings (vertex → pseudonym).
    pub seeds: BTreeMap<u32, u64>,
}

impl DeanonymizationAttack {
    /// Runs propagation: repeatedly match an unmapped auxiliary vertex to an
    /// unmapped pseudonym when they agree on (degree, mapped-neighbor set)
    /// uniquely. Returns the recovered mapping (including seeds).
    pub fn run(&self, published: &AnonymizedGraph) -> BTreeMap<u32, u64> {
        let mut mapping = self.seeds.clone();
        let mut mapped_pseudos: BTreeSet<u64> = mapping.values().copied().collect();
        loop {
            let mut progress = false;
            for user in 0..self.auxiliary.nodes() as u32 {
                if mapping.contains_key(&user) {
                    continue;
                }
                // Signature: the set of already-mapped neighbors.
                let mapped_neighbors: BTreeSet<u64> = self
                    .auxiliary
                    .friends(user)
                    .iter()
                    .filter_map(|f| mapping.get(f).copied())
                    .collect();
                if mapped_neighbors.is_empty() {
                    continue;
                }
                // Candidate pseudonyms adjacent to ALL mapped neighbors,
                // with matching degree.
                let degree = self.auxiliary.degree(user);
                let candidates: Vec<u64> = published
                    .edges
                    .keys()
                    .copied()
                    .filter(|p| !mapped_pseudos.contains(p))
                    .filter(|p| published.degree(*p) == degree)
                    .filter(|p| {
                        mapped_neighbors
                            .iter()
                            .all(|mn| published.edges[p].contains(mn))
                    })
                    .collect();
                if candidates.len() == 1 {
                    mapping.insert(user, candidates[0]);
                    mapped_pseudos.insert(candidates[0]);
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
        mapping
    }

    /// Fraction of non-seed vertices correctly re-identified.
    pub fn accuracy(&self, published: &AnonymizedGraph, recovered: &BTreeMap<u32, u64>) -> f64 {
        let non_seed: Vec<&u32> = published
            .ground_truth
            .keys()
            .filter(|u| !self.seeds.contains_key(*u))
            .collect();
        if non_seed.is_empty() {
            return 0.0;
        }
        let correct = non_seed
            .iter()
            .filter(|u| recovered.get(**u) == published.ground_truth.get(**u))
            .count();
        correct as f64 / non_seed.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> SocialGraph {
        SocialGraph::preferential_attachment(120, 2, 51).0
    }

    fn seeds(g: &SocialGraph, published: &AnonymizedGraph, n: usize) -> BTreeMap<u32, u64> {
        // Seed with the highest-degree vertices (easiest auxiliary knowledge).
        let mut users: Vec<u32> = (0..g.nodes() as u32).collect();
        users.sort_by_key(|&u| std::cmp::Reverse(g.degree(u)));
        users
            .into_iter()
            .take(n)
            .map(|u| (u, published.ground_truth[&u]))
            .collect()
    }

    #[test]
    fn anonymization_strips_identifiers_and_preserves_structure() {
        let g = graph();
        let published = anonymize(&g, 1, 9);
        assert_eq!(published.edges.len(), g.nodes());
        // Edge counts match.
        let anon_edges: usize = published.edges.values().map(BTreeSet::len).sum();
        assert_eq!(2 * g.edge_count(), anon_edges);
    }

    #[test]
    fn naive_anonymization_falls_to_seed_attack() {
        let g = graph();
        let published = anonymize(&g, 1, 10);
        let attack = DeanonymizationAttack {
            auxiliary: g.clone(),
            seeds: seeds(&g, &published, 5),
        };
        let recovered = attack.run(&published);
        let acc = attack.accuracy(&published, &recovered);
        assert!(
            acc > 0.5,
            "seed attack should re-identify most of a naive release, got {acc:.2}"
        );
    }

    #[test]
    fn k_degree_padding_achieves_anonymity_and_reduces_attack() {
        let g = graph();
        let naive = anonymize(&g, 1, 11);
        let padded = anonymize(&g, 4, 11);
        assert!(padded.is_k_degree_anonymous(4));
        let attack = |published: &AnonymizedGraph| {
            let a = DeanonymizationAttack {
                auxiliary: g.clone(),
                seeds: seeds(&g, published, 5),
            };
            let r = a.run(published);
            a.accuracy(published, &r)
        };
        let acc_naive = attack(&naive);
        let acc_padded = attack(&padded);
        assert!(
            acc_padded <= acc_naive,
            "padding must not help the attacker ({acc_naive:.2} -> {acc_padded:.2})"
        );
    }

    /// Padding lifts nodes only to degrees their run already has, so it
    /// reaches k-anonymity whatever the pseudonym draw.
    #[test]
    fn padding_reaches_k_degree_anonymity_on_every_seed() {
        for seed in 0..8 {
            let (g, _) = SocialGraph::preferential_attachment(120, 2, seed);
            for k in [2, 4, 8] {
                let published = anonymize(&g, k, seed);
                assert!(published.is_k_degree_anonymous(k), "graph {seed}, k {k}");
            }
        }
    }

    #[test]
    fn attack_without_seeds_recovers_nothing() {
        let g = graph();
        let published = anonymize(&g, 1, 12);
        let attack = DeanonymizationAttack {
            auxiliary: g.clone(),
            seeds: BTreeMap::new(),
        };
        let recovered = attack.run(&published);
        assert!(recovered.is_empty());
        assert_eq!(attack.accuracy(&published, &recovered), 0.0);
    }

    #[test]
    fn pseudonyms_are_unlinkable_to_names() {
        let g = graph();
        let p1 = anonymize(&g, 1, 13);
        let p2 = anonymize(&g, 1, 14);
        // Different seeds -> different pseudonym assignments.
        assert_ne!(p1.ground_truth[&0], p2.ground_truth[&0]);
    }

    #[test]
    fn k_anonymity_check_logic() {
        let g = graph();
        let naive = anonymize(&g, 1, 15);
        // A preferential-attachment graph has unique hub degrees: not even
        // 2-anonymous without padding.
        assert!(!naive.is_k_degree_anonymous(2));
    }
}
