//! Seeded scale-free social-graph generator (workload layer, ROADMAP
//! item 1).
//!
//! The survey's overlay taxonomy (§II) only differentiates at social-
//! network scale, and socially-aware DHT placement (Nasir et al.,
//! arXiv:1508.05591) pays off precisely when the *workload* follows the
//! social graph. This module generates that workload substrate: a
//! power-law (configurable exponent) friendship graph with planted
//! community structure, deterministic under seed, stored as CSR adjacency
//! so a million vertices cost tens of bytes each.
//!
//! Generation is Chung–Lu style: each vertex draws a target degree from a
//! truncated Pareto tail, then edge endpoints are sampled proportionally
//! to target degree. A community bias redirects a configurable fraction of
//! edges to endpoints inside the source's community block. A union-find
//! stitching pass (intra-community chains, then an inter-community ring)
//! guarantees the final graph is connected.
//!
//! The same graph type is the input of the survey's §V searches and §VI
//! anonymization. Those analyses run on the two standard small synthetic
//! topologies, [`SocialGraph::small_world`] (Watts–Strogatz) and
//! [`SocialGraph::preferential_attachment`] (Barabási–Albert), whose edges
//! carry a trust weight in `[0, 1]`. Trust is an array held beside the
//! graph, aligned with its adjacency ([`SocialGraph::weighted`]), so a graph
//! that carries none pays nothing for it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Parameters for [`SocialGraph::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct SocialGraphConfig {
    /// Vertex count.
    pub nodes: usize,
    /// Power-law exponent γ of the degree tail: P(deg ≥ x) ∝ x^−(γ−1).
    /// Real social networks sit in 2.0‥3.5.
    pub exponent: f64,
    /// Smallest target degree (Pareto scale parameter).
    pub min_degree: usize,
    /// Degree cap (keeps hubs bounded; also capped at `nodes − 1`).
    pub max_degree: usize,
    /// Number of planted communities (contiguous vertex blocks).
    pub communities: usize,
    /// Probability an edge's far endpoint is drawn from the source's own
    /// community instead of globally.
    pub intra_prob: f64,
    /// RNG seed; equal configs generate byte-identical graphs.
    pub seed: u64,
}

impl SocialGraphConfig {
    /// Sensible defaults for `n` vertices: γ = 2.5, degrees 4‥256,
    /// √n-sized communities, 80 % intra-community edges.
    pub fn new(nodes: usize, seed: u64) -> Self {
        let communities = ((nodes as f64).sqrt() as usize).clamp(1, nodes.max(1));
        SocialGraphConfig {
            nodes,
            exponent: 2.5,
            min_degree: 4,
            max_degree: 256,
            communities,
            intra_prob: 0.8,
            seed,
        }
    }
}

/// A generated friendship graph in compressed-sparse-row form.
///
/// ```
/// use dosn_overlay::social::{SocialGraph, SocialGraphConfig};
///
/// let g = SocialGraph::generate(&SocialGraphConfig::new(1_000, 42));
/// assert_eq!(g.nodes(), 1_000);
/// assert!(g.is_connected());
/// let v = 17u32;
/// for &f in g.friends(v) {
///     assert!(g.are_friends(v, f) && g.are_friends(f, v));
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SocialGraph {
    /// CSR row offsets, length `nodes + 1`.
    offsets: Vec<u64>,
    /// Concatenated sorted neighbor lists, length `2 · edge_count`.
    adj: Vec<u32>,
    /// Community block boundaries, length `communities + 1`.
    comm_start: Vec<u32>,
    config: SocialGraphConfig,
}

impl SocialGraph {
    /// A graph with `n` vertices and zero edges (every vertex its own
    /// community-of-one is collapsed into a single block). Used by the
    /// placement layer's hash-fallback equivalence tests, and as the base
    /// that [`SocialGraph::weighted`] grafts its edges onto.
    pub fn empty(n: usize) -> Self {
        SocialGraph {
            offsets: vec![0; n + 1],
            adj: Vec::new(),
            comm_start: vec![0, n as u32],
            config: SocialGraphConfig {
                nodes: n,
                exponent: 2.5,
                min_degree: 0,
                max_degree: 0,
                communities: 1,
                intra_prob: 0.0,
                seed: 0,
            },
        }
    }

    /// Generates a graph from `config`, deterministically under
    /// `config.seed`.
    ///
    /// # Panics
    ///
    /// Panics when `nodes == 0`, `communities == 0`, or `exponent <= 1`.
    pub fn generate(config: &SocialGraphConfig) -> Self {
        let n = config.nodes;
        assert!(n > 0, "graph needs at least one vertex");
        assert!(config.communities > 0, "need at least one community");
        assert!(config.exponent > 1.0, "power-law exponent must exceed 1");
        let communities = config.communities.min(n);
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Community blocks: contiguous vertex ranges.
        let mut comm_start: Vec<u32> = (0..=communities)
            .map(|c| ((c * n) / communities) as u32)
            .collect();
        comm_start.dedup();
        let communities = comm_start.len() - 1;

        // Target degrees: truncated Pareto via inverse CDF.
        let deg_cap = config.max_degree.min(n.saturating_sub(1));
        let alpha = config.exponent - 1.0;
        let degrees: Vec<u64> = (0..n)
            .map(|_| {
                if config.min_degree == 0 || deg_cap == 0 {
                    return 0;
                }
                let u: f64 = rng.random();
                let d = config.min_degree as f64 * (1.0 - u).powf(-1.0 / alpha);
                (d as u64).min(deg_cap as u64)
            })
            .collect();

        // Exclusive prefix sums for degree-weighted endpoint sampling;
        // community blocks are contiguous, so a community's weight is just
        // a sub-range of the same array.
        let mut cum: Vec<u64> = Vec::with_capacity(n + 1);
        cum.push(0);
        for &d in &degrees {
            cum.push(cum.last().unwrap() + d);
        }
        let total = *cum.last().unwrap();

        let sample_range = |rng: &mut StdRng, lo: usize, hi: usize| -> Option<u32> {
            let (wlo, whi) = (cum[lo], cum[hi]);
            if whi == wlo {
                return None;
            }
            let t = rng.random_range(wlo..whi);
            // First vertex whose cumulative weight exceeds t.
            let v = cum.partition_point(|&c| c <= t) - 1;
            Some(v as u32)
        };

        // Chung–Lu edge sampling with community bias.
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity((total / 2) as usize);
        for _ in 0..total / 2 {
            let Some(a) = sample_range(&mut rng, 0, n) else {
                break;
            };
            let c = comm_start.partition_point(|&s| s <= a) - 1;
            let (clo, chi) = (comm_start[c] as usize, comm_start[c + 1] as usize);
            let intra = rng.random::<f64>() < config.intra_prob;
            let b = if intra {
                sample_range(&mut rng, clo, chi)
            } else {
                sample_range(&mut rng, 0, n)
            };
            let Some(b) = b else { continue };
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
        }
        edges.sort_unstable();
        edges.dedup();

        // Stitching: guarantee connectivity without disturbing zero-edge
        // graphs. Intra-community chains first, then a ring of community
        // representatives.
        if !edges.is_empty() {
            let mut uf = UnionFind::new(n);
            for &(a, b) in &edges {
                uf.union(a as usize, b as usize);
            }
            let mut stitched: Vec<(u32, u32)> = Vec::new();
            for c in 0..communities {
                let (lo, hi) = (comm_start[c] as usize, comm_start[c + 1] as usize);
                for m in lo + 1..hi {
                    if uf.union(m - 1, m) {
                        stitched.push(((m - 1) as u32, m as u32));
                    }
                }
            }
            for c in 1..communities {
                let (p, q) = (comm_start[c - 1] as usize, comm_start[c] as usize);
                if uf.union(p, q) {
                    stitched.push((p as u32, q as u32));
                }
            }
            if !stitched.is_empty() {
                edges.extend(stitched);
                edges.sort_unstable();
                edges.dedup();
            }
        }

        let (offsets, adj) = csr(n, &edges);
        SocialGraph {
            offsets,
            adj,
            comm_start,
            config: SocialGraphConfig {
                communities,
                ..config.clone()
            },
        }
    }

    /// An `n`-vertex graph from weighted undirected edges, with the weight
    /// array aligned with its adjacency: `v`'s friend `friends(v)[i]` has
    /// weight `weights[row(v).start + i]`. A repeated edge keeps its last
    /// weight; self-loops are dropped.
    ///
    /// ```
    /// use dosn_overlay::social::SocialGraph;
    ///
    /// let (g, trust) = SocialGraph::weighted(3, &[(0, 1, 0.9), (1, 2, 0.8), (1, 0, 0.7)]);
    /// assert_eq!(g.friends(1), &[0, 2]);
    /// assert_eq!(&trust[g.row(1)], &[0.7, 0.8]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when an edge endpoint is out of range.
    pub fn weighted(n: usize, edges: &[(u32, u32, f64)]) -> (SocialGraph, Vec<f64>) {
        let mut weight: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for &(a, b, w) in edges {
            weight.insert((a.min(b), a.max(b)), w);
        }
        let pairs: Vec<(u32, u32)> = weight.keys().copied().collect();
        let graph = SocialGraph::empty(n).with_appended(0, &pairs);
        let weights = (0..n as u32)
            .flat_map(|v| graph.friends(v).iter().map(move |&f| (v.min(f), v.max(f))))
            .map(|edge| weight[&edge])
            .collect();
        (graph, weights)
    }

    /// Watts–Strogatz small world: `n` vertices on a ring, each linked to
    /// its `k` nearest neighbours per side, each link rewired to a random
    /// vertex with probability `beta`. Returns the graph and its trust
    /// array ([`SocialGraph::weighted`]), weights drawn from `[0.5, 1.0)`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2 * k + 1` or `beta` is outside `[0, 1]`.
    pub fn small_world(n: usize, k: usize, beta: f64, seed: u64) -> (SocialGraph, Vec<f64>) {
        assert!(n > 2 * k, "ring too small for k");
        assert!((0.0..=1.0).contains(&beta), "beta in [0,1]");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
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
                edges.push((i as u32, target as u32, rng.random_range(0.5..1.0)));
            }
        }
        SocialGraph::weighted(n, &edges)
    }

    /// Barabási–Albert preferential attachment: `n` vertices, each newcomer
    /// attaching to `m` earlier ones with probability proportional to
    /// degree — the heavy-tailed degree distribution real OSNs exhibit
    /// (survey ref \[1\], Mislove et al.). Returns the graph and its trust
    /// array ([`SocialGraph::weighted`]), weights drawn from `[0.5, 1.0)`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `n <= m`.
    pub fn preferential_attachment(n: usize, m: usize, seed: u64) -> (SocialGraph, Vec<f64>) {
        assert!(m >= 1, "m >= 1");
        assert!(n > m, "need more vertices than attachment count");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        // Degree-weighted urn: a vertex appears once per incident edge.
        let mut urn: Vec<usize> = Vec::new();
        // Seed clique of m+1 vertices.
        for i in 0..=m {
            for j in 0..i {
                edges.push((i as u32, j as u32, rng.random_range(0.5..1.0)));
                urn.push(i);
                urn.push(j);
            }
        }
        for i in (m + 1)..n {
            let mut targets = BTreeSet::new();
            while targets.len() < m {
                let pick = urn[rng.random_range(0..urn.len())];
                if pick != i {
                    targets.insert(pick);
                }
            }
            for t in targets {
                edges.push((i as u32, t as u32, rng.random_range(0.5..1.0)));
                urn.push(i);
                urn.push(t);
            }
        }
        SocialGraph::weighted(n, &edges)
    }

    /// Vertex count.
    pub fn nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Undirected edge count.
    pub fn edge_count(&self) -> usize {
        self.adj.len() / 2
    }

    /// `v`'s friend count.
    pub fn degree(&self, v: u32) -> usize {
        self.row(v).len()
    }

    /// Where `v`'s friends sit in the adjacency array — the slice of `v`
    /// in any per-edge array held beside the graph, such as the trust array
    /// of [`SocialGraph::weighted`].
    pub fn row(&self, v: u32) -> Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// `v`'s sorted friend list.
    pub fn friends(&self, v: u32) -> &[u32] {
        &self.adj[self.row(v)]
    }

    /// Whether an edge `{a, b}` exists.
    pub fn are_friends(&self, a: u32, b: u32) -> bool {
        self.friends(a).binary_search(&b).is_ok()
    }

    /// Number of planted communities.
    pub fn communities(&self) -> usize {
        self.comm_start.len() - 1
    }

    /// The community block containing `v`.
    pub fn community_of(&self, v: u32) -> usize {
        self.comm_start.partition_point(|&s| s <= v) - 1
    }

    /// The vertex range of community `c`.
    pub fn community_range(&self, c: usize) -> std::ops::Range<u32> {
        self.comm_start[c]..self.comm_start[c + 1]
    }

    /// The generation parameters (with `communities` clamped to the count
    /// actually planted).
    pub fn config(&self) -> &SocialGraphConfig {
        &self.config
    }

    /// Whether every vertex is reachable from vertex 0 (trivially true for
    /// a single vertex).
    pub fn is_connected(&self) -> bool {
        let n = self.nodes();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut visited = 1usize;
        while let Some(v) = stack.pop() {
            for &f in self.friends(v) {
                if !seen[f as usize] {
                    seen[f as usize] = true;
                    visited += 1;
                    stack.push(f);
                }
            }
        }
        visited == n
    }

    /// A new graph with `extra` vertices appended as one additional
    /// community block (`nodes()..nodes()+extra`) and `edges` grafted on —
    /// the adversary hook for planting a Sybil region onto a generated
    /// graph without regenerating it. Edge endpoints may reference both old
    /// and new vertices; duplicates and self-loops are dropped; the CSR
    /// invariants (sorted neighbor lists, symmetry) are rebuilt.
    ///
    /// # Panics
    ///
    /// Panics when an edge endpoint is out of range.
    pub fn with_appended(&self, extra: usize, edges: &[(u32, u32)]) -> SocialGraph {
        let n = self.nodes();
        let n2 = n + extra;
        let mut all: Vec<(u32, u32)> = Vec::with_capacity(self.adj.len() / 2 + edges.len());
        for v in 0..n as u32 {
            for &f in self.friends(v) {
                if f > v {
                    all.push((v, f));
                }
            }
        }
        for &(a, b) in edges {
            assert!(
                (a as usize) < n2 && (b as usize) < n2,
                "edge ({a}, {b}) outside the appended graph of {n2} vertices"
            );
            if a != b {
                all.push((a.min(b), a.max(b)));
            }
        }
        all.sort_unstable();
        all.dedup();
        let (offsets, adj) = csr(n2, &all);

        let mut comm_start = self.comm_start.clone();
        if extra > 0 {
            comm_start.push(n2 as u32);
        }
        SocialGraph {
            offsets,
            adj,
            comm_start,
            config: SocialGraphConfig {
                nodes: n2,
                communities: self.communities() + usize::from(extra > 0),
                ..self.config.clone()
            },
        }
    }

    /// Resident bytes of the CSR arrays — the E15 memory accounting.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.capacity() * 8
            + self.adj.capacity() * 4
            + self.comm_start.capacity() * 4
            + std::mem::size_of::<Self>()
    }
}

/// The CSR arrays of an `n`-vertex graph from its undirected edge list:
/// per-vertex counts, then row offsets (length `n + 1`, allocated exactly —
/// E15 reports their capacity), then each edge filled into both rows, then
/// every row sorted.
fn csr(n: usize, edges: &[(u32, u32)]) -> (Vec<u64>, Vec<u32>) {
    let mut counts = vec![0u64; n];
    for &(a, b) in edges {
        counts[a as usize] += 1;
        counts[b as usize] += 1;
    }
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u64);
    for &c in &counts {
        offsets.push(offsets.last().unwrap() + c);
    }
    let mut adj = vec![0u32; *offsets.last().unwrap() as usize];
    let mut fill = offsets.clone();
    for &(a, b) in edges {
        adj[fill[a as usize] as usize] = b;
        fill[a as usize] += 1;
        adj[fill[b as usize] as usize] = a;
        fill[b as usize] += 1;
    }
    for v in 0..n {
        adj[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
    }
    (offsets, adj)
}

/// Path-compressing union-find for the stitching pass.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let gp = self.parent[self.parent[x] as usize];
            self.parent[x] = gp;
            x = gp as usize;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns true when they were
    /// previously disjoint.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra] = rb as u32;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic() {
        let cfg = SocialGraphConfig::new(2_000, 99);
        let a = SocialGraph::generate(&cfg);
        let b = SocialGraph::generate(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SocialGraph::generate(&SocialGraphConfig::new(2_000, 1));
        let b = SocialGraph::generate(&SocialGraphConfig::new(2_000, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn connected_and_symmetric() {
        let g = SocialGraph::generate(&SocialGraphConfig::new(3_000, 5));
        assert!(g.is_connected());
        for v in 0..g.nodes() as u32 {
            for &f in g.friends(v) {
                assert!(g.are_friends(f, v), "edge {v}-{f} must be symmetric");
                assert_ne!(f, v, "no self-loops");
            }
        }
    }

    #[test]
    fn communities_partition_the_vertices() {
        let g = SocialGraph::generate(&SocialGraphConfig::new(1_000, 3));
        let mut covered = 0u32;
        for c in 0..g.communities() {
            let r = g.community_range(c);
            assert_eq!(r.start, covered);
            for v in r.clone() {
                assert_eq!(g.community_of(v), c);
            }
            covered = r.end;
        }
        assert_eq!(covered as usize, g.nodes());
    }

    #[test]
    fn community_bias_concentrates_edges() {
        let mut cfg = SocialGraphConfig::new(4_000, 11);
        cfg.intra_prob = 0.9;
        let g = SocialGraph::generate(&cfg);
        let mut intra = 0usize;
        let mut total = 0usize;
        for v in 0..g.nodes() as u32 {
            let c = g.community_of(v);
            for &f in g.friends(v) {
                total += 1;
                if g.community_of(f) == c {
                    intra += 1;
                }
            }
        }
        // Uniform placement would give ~1/communities ≈ 1.6 % intra.
        assert!(
            intra * 2 > total,
            "expected majority intra-community edges, got {intra}/{total}"
        );
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = SocialGraph::empty(64);
        assert_eq!(g.nodes(), 64);
        assert_eq!(g.edge_count(), 0);
        for v in 0..64 {
            assert_eq!(g.degree(v), 0);
        }
        assert!(!g.is_connected());
    }

    #[test]
    fn appended_region_keeps_csr_invariants() {
        let g = SocialGraph::generate(&SocialGraphConfig::new(500, 21));
        let n = g.nodes() as u32;
        // A 10-vertex appended ring plus two attack edges into the base.
        let mut edges: Vec<(u32, u32)> = (0..10).map(|i| (n + i, n + (i + 1) % 10)).collect();
        edges.push((3, n));
        edges.push((7, n + 5));
        let g2 = g.with_appended(10, &edges);
        assert_eq!(g2.nodes(), 510);
        assert_eq!(g2.communities(), g.communities() + 1);
        assert_eq!(g2.community_of(n), g2.communities() - 1);
        // Old adjacency preserved, new edges present and symmetric.
        for v in 0..n {
            let mut old: Vec<u32> = g.friends(v).to_vec();
            if v == 3 {
                old.push(n);
                old.sort_unstable();
            }
            if v == 7 {
                old.push(n + 5);
                old.sort_unstable();
            }
            assert_eq!(g2.friends(v), old.as_slice(), "vertex {v}");
        }
        for v in 0..g2.nodes() as u32 {
            for &f in g2.friends(v) {
                assert!(g2.are_friends(f, v));
                assert_ne!(f, v);
            }
        }
        assert!(g2.are_friends(3, n) && g2.are_friends(n, n + 1));
    }

    #[test]
    fn appending_nothing_rebuilds_the_same_graph() {
        let g = SocialGraph::generate(&SocialGraphConfig::new(2_000, 13));
        assert_eq!(g.with_appended(0, &[]), g);
    }

    /// SHA-256 over the sorted `(i, j, trust.to_bits())` list of the edges
    /// `i < j`, each field big-endian.
    fn edge_digest((g, trust): &(SocialGraph, Vec<f64>)) -> String {
        let mut bytes = Vec::new();
        for v in 0..g.nodes() as u32 {
            for (&f, t) in g.friends(v).iter().zip(&trust[g.row(v)]) {
                if v < f {
                    bytes.extend_from_slice(&v.to_be_bytes());
                    bytes.extend_from_slice(&f.to_be_bytes());
                    bytes.extend_from_slice(&t.to_bits().to_be_bytes());
                }
            }
        }
        dosn_crypto::sha256::sha256(&bytes)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    /// The four generator calls the E7 experiment and the search tests use.
    /// The digests were captured from the name-keyed analysis graph these
    /// generators used to build (vertex `i` was the user `user{i}`), so the
    /// CSR build keeps every edge, every weight bit and the last-write-wins
    /// weight of a repeated edge.
    #[test]
    fn generators_reproduce_the_pinned_graphs() {
        let pinned = [
            (
                SocialGraph::small_world(512, 3, 0.1, 11),
                "0f10db2be0ca1873a29a010e975b91fee7820383012be2ccb95d7e52b881b61c",
            ),
            (
                SocialGraph::small_world(120, 3, 0.15, 31),
                "49b2c7892e5051a6b0fad609c091a2b2abd8ab3b16d261c336ce158923566f73",
            ),
            (
                SocialGraph::preferential_attachment(300, 2, 21),
                "f1a499adceccdb45161d5154464789ff63f77af4554495209233ede8c58c0f09",
            ),
            (
                SocialGraph::preferential_attachment(200, 2, 17),
                "11e73e16bd340a8491fbb18e1dab545e3c1ba67b141b39f3d0355bb812ab7e2c",
            ),
        ];
        for (weighted, digest) in &pinned {
            assert_eq!(edge_digest(weighted), *digest);
        }
    }

    #[test]
    fn small_world_generator_shape() {
        let (g, trust) = SocialGraph::small_world(100, 3, 0.1, 5);
        assert_eq!(g.nodes(), 100);
        let avg_degree = 2.0 * g.edge_count() as f64 / 100.0;
        assert!(avg_degree >= 5.0, "avg degree {avg_degree}");
        // Connectivity (beta small, ring base): any two nodes reachable.
        assert!(g.is_connected());
        assert!(trust.iter().all(|t| (0.5..1.0).contains(t)));
    }

    #[test]
    fn preferential_attachment_has_hubs() {
        let (g, _) = SocialGraph::preferential_attachment(300, 2, 6);
        assert_eq!(g.nodes(), 300);
        let mut degrees: Vec<usize> = (0..300).map(|v| g.degree(v)).collect();
        degrees.sort_unstable();
        let max = *degrees.last().unwrap();
        let median = degrees[degrees.len() / 2];
        assert!(
            max >= median * 4,
            "expected heavy tail: max {max}, median {median}"
        );
    }

    #[test]
    fn memory_is_compact() {
        let g = SocialGraph::generate(&SocialGraphConfig::new(50_000, 7));
        let per_node = g.memory_bytes() / g.nodes();
        // offsets (8 B) + ~2·avg-degree·4 B; avg degree ≈ 7 for γ=2.5.
        assert!(per_node < 160, "{per_node} bytes/vertex");
    }
}
