//! Social-graph Sybil detection (survey §VI, "other concerns").
//!
//! "In a sybil attack, the reputation system of a network will be subverted
//! by \[an\] attacker who makes (usually multiple) pseudonymous entities."
//! The SybilGuard family of defences exploits the structural signature of
//! such attacks: the sybil region connects to the honest region through few
//! *attack edges*, so short random walks started from an honest verifier
//! rarely cross into it. This module implements that verified-random-walk
//! test: a suspect is accepted when enough of the verifier's walks
//! intersect the suspect's walks.
//!
//! Walks run on the overlay's CSR [`SocialGraph`] — the graph the placement
//! layer and the million-node substrate use — with `u32` vertices. A step draws from the RNG exactly once, via
//! `random_range(0..degree)` over the vertex's sorted neighbor list, and not
//! at all at an isolated vertex — so a verdict is a function of the edge set
//! and the detector's seed alone.

use dosn_overlay::social::SocialGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::ops::Range;

/// Verdict for one suspect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SybilVerdict {
    /// Enough walk intersections: likely honest.
    Accepted,
    /// Too few intersections: likely a sybil identity.
    Rejected,
}

/// Random-walk Sybil detector parameters.
#[derive(Debug, Clone, Copy)]
pub struct SybilDetector {
    /// Number of random walks per principal.
    pub walks: usize,
    /// Walk length (SybilGuard uses Θ(√(n log n)); calibrate per graph).
    pub walk_length: usize,
    /// Minimum fraction of verifier walks that must intersect the
    /// suspect's walk set for acceptance.
    pub intersection_threshold: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SybilDetector {
    fn default() -> Self {
        SybilDetector {
            walks: 32,
            walk_length: 16,
            intersection_threshold: 0.3,
            seed: 0x5B11,
        }
    }
}

impl SybilDetector {
    /// Collects the set of vertices touched by `walks` random walks from
    /// `start`.
    fn walk_footprint(&self, graph: &SocialGraph, start: u32, salt: u64) -> BTreeSet<u32> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ salt);
        let mut footprint = BTreeSet::new();
        for _ in 0..self.walks {
            let mut current = start;
            footprint.insert(current);
            for _ in 0..self.walk_length {
                let friends = graph.friends(current);
                if friends.is_empty() {
                    break;
                }
                current = friends[rng.random_range(0..friends.len())];
                footprint.insert(current);
            }
        }
        footprint
    }

    /// The verdict a verifier footprint renders on a suspect footprint:
    /// accepted when the intersecting fraction of the verifier's footprint
    /// reaches the threshold.
    fn judge(&self, vf: &BTreeSet<u32>, sf: &BTreeSet<u32>) -> SybilVerdict {
        let intersection = vf.intersection(sf).count();
        let frac = intersection as f64 / vf.len().max(1) as f64;
        if frac >= self.intersection_threshold {
            SybilVerdict::Accepted
        } else {
            SybilVerdict::Rejected
        }
    }

    /// Tests whether `suspect` looks honest from `verifier`'s position.
    pub fn verify(&self, graph: &SocialGraph, verifier: u32, suspect: u32) -> SybilVerdict {
        let vf = self.walk_footprint(graph, verifier, 0xA5A5);
        let sf = self.walk_footprint(graph, suspect, 0x5A5A);
        self.judge(&vf, &sf)
    }

    /// Sweeps a set of suspects; returns `(accepted, rejected)` counts —
    /// the accuracy numbers an evaluation reports. The verifier footprint
    /// is deterministic per call, so it is computed once and reused across
    /// suspects (identical verdicts to per-suspect [`SybilDetector::verify`],
    /// at a fraction of the walk work — what lets the E17 campaign sweep
    /// hundreds of suspects on a 100k-node graph).
    pub fn sweep(&self, graph: &SocialGraph, verifier: u32, suspects: &[u32]) -> (usize, usize) {
        let vf = self.walk_footprint(graph, verifier, 0xA5A5);
        let mut accepted = 0;
        let mut rejected = 0;
        for &s in suspects {
            let sf = self.walk_footprint(graph, s, 0x5A5A);
            match self.judge(&vf, &sf) {
                SybilVerdict::Accepted => accepted += 1,
                SybilVerdict::Rejected => rejected += 1,
            }
        }
        (accepted, rejected)
    }
}

/// Grafts a sybil region onto `graph` via [`SocialGraph::with_appended`]:
/// `count` fake identities densely connected among themselves (a ring plus
/// chords at distances 1..=3), attached to the honest region through
/// `attack_edges` edges from seeded-random honest vertices to
/// `n + (e % count)`. The sybils occupy vertex ids `n..n + count`, returned
/// as a range beside the grown graph.
pub fn inject_sybil_region_csr(
    graph: &SocialGraph,
    count: usize,
    attack_edges: usize,
    seed: u64,
) -> (SocialGraph, Range<u32>) {
    let n = graph.nodes() as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    // Dense internal structure (ring + chords).
    for i in 0..count {
        for d in [1usize, 2, 3] {
            if count > d {
                let j = (i + d) % count;
                if i != j {
                    edges.push((n + i as u32, n + j as u32));
                }
            }
        }
    }
    // Few attack edges into the honest region.
    for e in 0..attack_edges {
        let h = rng.random_range(0..n);
        let s = n + (e % count) as u32;
        edges.push((h, s));
    }
    let grown = graph.with_appended(count, &edges);
    (grown, n..n + count as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosn_overlay::social::SocialGraphConfig;

    const SEED: u64 = 0xB41D6E;

    fn honest_graph() -> SocialGraph {
        SocialGraph::generate(&SocialGraphConfig::new(600, SEED))
    }

    /// The honest graph plus a grafted 40-sybil region behind `edges`
    /// attack edges, as the campaign scenario builds them.
    fn attacked_graph(edges: usize) -> (SocialGraph, Range<u32>) {
        inject_sybil_region_csr(&honest_graph(), 40, edges, SEED ^ 0x5B11)
    }

    #[test]
    fn honest_nodes_mostly_accepted() {
        let graph = honest_graph();
        let suspects: Vec<u32> = (1..600).step_by(37).collect();
        let (accepted, rejected) = SybilDetector::default().sweep(&graph, 0, &suspects);
        assert!(
            accepted as f64 / (accepted + rejected) as f64 >= 0.8,
            "honest acceptance too low: {accepted}/{}",
            accepted + rejected
        );
    }

    #[test]
    fn sybil_region_mostly_rejected() {
        let (graph, sybils) = attacked_graph(3);
        let suspects: Vec<u32> = sybils.collect();
        let (accepted, rejected) = SybilDetector::default().sweep(&graph, 0, &suspects);
        assert!(
            rejected > accepted,
            "sybils slipped through: accepted {accepted}, rejected {rejected}"
        );
    }

    #[test]
    fn sweep_renders_the_per_suspect_verdicts() {
        // A spread of honest vertices plus the whole sybil region: the sweep's
        // shared verifier footprint must not change a single verdict.
        let (graph, sybils) = attacked_graph(3);
        let detector = SybilDetector::default();
        let mut suspects: Vec<u32> = (0..600).step_by(37).collect();
        suspects.extend(sybils);
        let accepted = suspects
            .iter()
            .filter(|&&s| detector.verify(&graph, 0, s) == SybilVerdict::Accepted)
            .count();
        let swept = detector.sweep(&graph, 0, &suspects);
        assert_eq!(swept, (accepted, suspects.len() - accepted));
    }

    #[test]
    fn more_attack_edges_weaken_detection() {
        let detector = SybilDetector::default();
        let run = |edges: usize| {
            let (graph, sybils) = attacked_graph(edges);
            let suspects: Vec<u32> = sybils.collect();
            detector.sweep(&graph, 0, &suspects).0
        };
        let tight = run(1);
        let porous = run(60);
        assert!(
            porous > tight,
            "more attack edges must let more sybils through ({tight} vs {porous})"
        );
    }

    #[test]
    fn isolated_suspect_rejected() {
        let graph = honest_graph().with_appended(1, &[]);
        let loner = graph.nodes() as u32 - 1;
        assert_eq!(graph.degree(loner), 0);
        let detector = SybilDetector::default();
        assert_eq!(detector.verify(&graph, 0, loner), SybilVerdict::Rejected);
    }

    #[test]
    fn verifier_accepts_itself_and_neighbors() {
        let graph = honest_graph();
        let detector = SybilDetector::default();
        assert_eq!(detector.verify(&graph, 0, 0), SybilVerdict::Accepted);
        let friend = graph.friends(0)[0];
        assert_eq!(detector.verify(&graph, 0, friend), SybilVerdict::Accepted);
    }

    #[test]
    fn injection_shape() {
        let graph = honest_graph();
        let (grown, sybils) = inject_sybil_region_csr(&graph, 10, 3, 1);
        assert_eq!(grown.nodes(), graph.nodes() + 10);
        assert_eq!(sybils, 600..610);
        assert_eq!(grown.communities(), graph.communities() + 1);
        // Sybils are densely interlinked: ring + chords at distances 1..=3.
        for s in sybils {
            assert!(grown.degree(s) >= 6, "sybil {s}");
        }
    }
}
