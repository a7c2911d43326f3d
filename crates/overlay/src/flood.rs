//! Unstructured overlay: flooding and gossip (survey §II-B, "unstructured").
//!
//! "No user in the system stores any index, and operations … are simply done
//! by the use of flooding or gossip-based communication" — with "almost zero
//! overhead" for maintenance, paid for at query time. This module provides:
//!
//! * a random k-regular-ish peer topology ([`UnstructuredOverlay`]);
//! * TTL-bounded flooding search with full message accounting — the
//!   O(n)-messages contrast to Chord's O(log n) hops in experiment E5;
//! * a push **gossip** rumor-spreading actor ([`GossipActor`]) running on the
//!   event simulator, used by the hybrid overlay's cache layer and by the
//!   fork-consistency experiment (E4).

use crate::fault::LinkFaults;
use crate::id::{Key, NodeId};
use crate::metrics::Metrics;
use crate::sim::{Actor, Context, LatencyModel};
use dosn_obs::names;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};

/// An unstructured peer-to-peer overlay with random neighbor links.
///
/// ```
/// use dosn_overlay::flood::UnstructuredOverlay;
/// use dosn_overlay::id::{Key, NodeId};
/// use dosn_overlay::metrics::Metrics;
///
/// let mut net = UnstructuredOverlay::build(100, 4, 11);
/// net.publish(NodeId(3), Key::hash(b"song.mp3"));
/// let mut m = Metrics::new();
/// let found = net.flood_search(NodeId(90), Key::hash(b"song.mp3"), 8, &mut m);
/// assert!(found.is_some());
/// assert!(m.messages > 0);
/// ```
pub struct UnstructuredOverlay {
    neighbors: Vec<Vec<NodeId>>,
    content: HashMap<u64, HashSet<NodeId>>,
    online: Vec<bool>,
    rng: StdRng,
}

impl std::fmt::Debug for UnstructuredOverlay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "UnstructuredOverlay({} nodes)", self.neighbors.len())
    }
}

impl UnstructuredOverlay {
    /// Builds `n` nodes, each with `degree` random neighbors (links are
    /// symmetric, so effective degree is ≈ 2 × `degree`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `degree == 0`.
    pub fn build(n: usize, degree: usize, seed: u64) -> Self {
        assert!(n >= 2, "need at least two nodes");
        assert!(degree >= 1, "need at least one link per node");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut neighbors: Vec<HashSet<usize>> = vec![HashSet::new(); n];
        for i in 0..n {
            while neighbors[i].len() < degree {
                let j = rng.random_range(0..n);
                if j != i {
                    neighbors[i].insert(j);
                    neighbors[j].insert(i);
                }
            }
        }
        UnstructuredOverlay {
            neighbors: neighbors
                .into_iter()
                .map(|s| {
                    let mut v: Vec<NodeId> = s.into_iter().map(|i| NodeId(i as u64)).collect();
                    v.sort();
                    v
                })
                .collect(),
            content: HashMap::new(),
            online: vec![true; n],
            rng,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether the overlay is empty.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// The neighbor list of `node` (empty for a node the overlay does not
    /// have).
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        self.neighbors
            .get(node.0 as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Marks a node online/offline (a no-op for a node the overlay does
    /// not have).
    pub fn set_online(&mut self, node: NodeId, online: bool) {
        if let Some(slot) = self.online.get_mut(node.0 as usize) {
            *slot = online;
        }
    }

    /// Registers that `holder` stores the content named by `key`.
    pub fn publish(&mut self, holder: NodeId, key: Key) {
        self.content.entry(key.0).or_default().insert(holder);
    }

    /// TTL-bounded flooding search: BFS from `from`, each hop forwarding to all
    /// neighbors, until a holder of `key` is found or the TTL is exhausted.
    /// Every forwarded copy is counted in `metrics` (the unstructured cost).
    ///
    /// Returns the first holder found and the hop distance, or `None`
    /// (also when `from` is unknown or offline).
    pub fn flood_search(
        &mut self,
        from: NodeId,
        key: Key,
        ttl: u32,
        metrics: &mut Metrics,
    ) -> Option<(NodeId, u32)> {
        self.flood(from, key, ttl, metrics, None)
    }

    /// [`UnstructuredOverlay::flood_search`] over lossy links: every forwarded
    /// query copy is a transmission that `faults` may fail, retried up to
    /// `retries` extra times (counted as `flood.retry`). A lost copy prunes
    /// that branch of the flood; the protocol's redundancy (every neighbor
    /// gets its own copy) usually routes around the loss.
    pub fn flood_search_with_faults(
        &mut self,
        from: NodeId,
        key: Key,
        ttl: u32,
        metrics: &mut Metrics,
        faults: &mut LinkFaults,
        retries: u32,
    ) -> Option<(NodeId, u32)> {
        self.flood(from, key, ttl, metrics, Some((faults, retries)))
    }

    /// The overlay's one flooding loop, behind both entry points above.
    /// With `link == None` every copy delivers and no `LinkFaults` exists.
    fn flood(
        &mut self,
        from: NodeId,
        key: Key,
        ttl: u32,
        metrics: &mut Metrics,
        mut link: Option<(&mut LinkFaults, u32)>,
    ) -> Option<(NodeId, u32)> {
        if !self.online.get(from.0 as usize).is_some_and(|&up| up) {
            return None;
        }
        let holders = self.content.get(&key.0).cloned().unwrap_or_default();
        if holders.contains(&from) {
            return Some((from, 0));
        }
        let mut visited = HashSet::from([from]);
        let mut frontier = VecDeque::from([(from, 0u32)]);
        let mut latency_per_hop = Vec::new();
        let mut found: Option<(NodeId, u32)> = None;
        while let Some((node, depth)) = frontier.pop_front() {
            if depth >= ttl {
                continue;
            }
            if latency_per_hop.len() <= depth as usize {
                latency_per_hop.push(LatencyModel::default().draw(&mut self.rng));
            }
            for &nb in &self.neighbors[node.0 as usize] {
                if !visited.insert(nb) {
                    continue;
                }
                // A query copy is sent regardless of target liveness.
                metrics.record_offpath(names::FLOOD_QUERY, 32);
                if !LinkFaults::hop(&mut link, node, nb, metrics, names::FLOOD_RETRY, 32)
                    || !self.online[nb.0 as usize]
                {
                    // The copy never arrived (or arrived at a dead peer):
                    // this branch is pruned, but nb stays `visited` because
                    // a real flood would not re-query a peer it believes it
                    // already reached.
                    continue;
                }
                if holders.contains(&nb) && found.is_none() {
                    found = Some((nb, depth + 1));
                }
                frontier.push_back((nb, depth + 1));
            }
            // Flooding proceeds level-parallel: critical-path latency is the
            // per-level max, approximated by one draw per level.
            if found.is_some_and(|(_, hops)| depth + 1 >= hops) {
                break;
            }
        }
        let levels = found.map_or(latency_per_hop.len(), |(_, hops)| hops as usize);
        for l in latency_per_hop.iter().take(levels) {
            metrics.add_latency(*l);
        }
        found
    }
}

/// Messages exchanged by the gossip protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GossipMsg {
    /// A rumor: (rumor id, payload).
    Rumor(u64, Vec<u8>),
}

/// Push-gossip rumor spreading: on hearing a new rumor, forward it to
/// `fanout` random neighbors each round for `rounds_to_live` rounds.
#[derive(Debug, Clone)]
pub struct GossipActor {
    neighbors: Vec<NodeId>,
    fanout: usize,
    rounds_to_live: u32,
    round_ms: u64,
    /// rumor id -> payload for everything this node has heard.
    pub heard: HashMap<u64, Vec<u8>>,
    active: Vec<(u64, u32)>,
}

impl GossipActor {
    /// Creates a gossip node with the given static neighbor view.
    pub fn new(neighbors: Vec<NodeId>, fanout: usize, rounds_to_live: u32) -> Self {
        GossipActor {
            neighbors,
            fanout,
            rounds_to_live,
            round_ms: 200,
            heard: HashMap::new(),
            active: Vec::new(),
        }
    }

    /// Seeds a rumor at this node (call before running the simulation, then
    /// [`crate::sim::Simulation::start`]).
    pub fn seed_rumor(&mut self, id: u64, payload: Vec<u8>) {
        self.heard.insert(id, payload);
        self.active.push((id, 0));
    }

    fn spread(&mut self, ctx: &mut Context<'_, GossipMsg>) {
        if self.neighbors.is_empty() {
            return;
        }
        let mut next_active = Vec::new();
        let actives = std::mem::take(&mut self.active);
        for (id, age) in actives {
            if age >= self.rounds_to_live {
                continue;
            }
            let payload = self.heard[&id].clone();
            for _ in 0..self.fanout {
                let idx = (ctx.rng().next_u64() as usize) % self.neighbors.len();
                let target = self.neighbors[idx];
                if target != ctx.self_id() {
                    ctx.send(target, GossipMsg::Rumor(id, payload.clone()));
                }
            }
            next_active.push((id, age + 1));
        }
        self.active = next_active;
        if !self.active.is_empty() {
            ctx.set_timer(self.round_ms, 0);
        }
    }
}

impl Actor for GossipActor {
    type Msg = GossipMsg;

    fn on_message(&mut self, ctx: &mut Context<'_, GossipMsg>, _from: NodeId, msg: GossipMsg) {
        let GossipMsg::Rumor(id, payload) = msg;
        if self.heard.contains_key(&id) {
            return;
        }
        self.heard.insert(id, payload);
        self.active.push((id, 0));
        ctx.set_timer(self.round_ms, 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, GossipMsg>, _tag: u64) {
        self.spread(ctx);
    }

    fn on_online(&mut self, ctx: &mut Context<'_, GossipMsg>) {
        if !self.active.is_empty() {
            ctx.set_timer(self.round_ms, 0);
        }
    }
}

/// Builds a gossip simulation over a random topology; returns it ready to
/// [`crate::sim::Simulation::start`].
pub fn gossip_network(
    n: usize,
    degree: usize,
    fanout: usize,
    rounds_to_live: u32,
    seed: u64,
) -> crate::sim::Simulation<GossipActor> {
    let topo = UnstructuredOverlay::build(n, degree, seed);
    let actors = (0..n)
        .map(|i| {
            GossipActor::new(
                topo.neighbors(NodeId(i as u64)).to_vec(),
                fanout,
                rounds_to_live,
            )
        })
        .collect();
    crate::sim::Simulation::new(actors, seed ^ 0x9e37_79b9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_topology_is_connectedish() {
        let net = UnstructuredOverlay::build(50, 3, 1);
        assert_eq!(net.len(), 50);
        for i in 0..50 {
            assert!(net.neighbors(NodeId(i)).len() >= 3);
        }
    }

    #[test]
    fn flood_finds_published_content() {
        let mut net = UnstructuredOverlay::build(200, 4, 2);
        let key = Key::hash(b"content");
        net.publish(NodeId(150), key);
        let mut m = Metrics::new();
        let found = net.flood_search(NodeId(0), key, 10, &mut m);
        assert!(found.is_some());
        let (holder, hops) = found.unwrap();
        assert_eq!(holder, NodeId(150));
        assert!((1..=10).contains(&hops));
        assert!(m.count("flood.query") > 0);
    }

    #[test]
    fn flood_at_source() {
        let mut net = UnstructuredOverlay::build(10, 2, 3);
        let key = Key::hash(b"local");
        net.publish(NodeId(4), key);
        let mut m = Metrics::new();
        assert_eq!(
            net.flood_search(NodeId(4), key, 5, &mut m),
            Some((NodeId(4), 0))
        );
        assert_eq!(m.messages, 0, "local hit costs nothing");
    }

    #[test]
    fn ttl_limits_reach() {
        let mut net = UnstructuredOverlay::build(500, 2, 4);
        let key = Key::hash(b"far away");
        // Publish nowhere: full flood to TTL, then miss.
        let mut m_small = Metrics::new();
        assert!(net.flood_search(NodeId(0), key, 2, &mut m_small).is_none());
        let mut m_large = Metrics::new();
        assert!(net.flood_search(NodeId(0), key, 6, &mut m_large).is_none());
        assert!(
            m_large.count("flood.query") > m_small.count("flood.query"),
            "larger TTL floods further"
        );
    }

    #[test]
    fn flooding_cost_scales_with_network() {
        let mut small = UnstructuredOverlay::build(64, 4, 5);
        let mut large = UnstructuredOverlay::build(512, 4, 5);
        let key = Key::hash(b"absent");
        let mut ms = Metrics::new();
        let mut ml = Metrics::new();
        small.flood_search(NodeId(0), key, 16, &mut ms);
        large.flood_search(NodeId(0), key, 16, &mut ml);
        assert!(ml.count("flood.query") > ms.count("flood.query") * 4);
    }

    #[test]
    fn offline_nodes_do_not_respond() {
        let mut net = UnstructuredOverlay::build(20, 3, 6);
        let key = Key::hash(b"hidden");
        net.publish(NodeId(10), key);
        net.set_online(NodeId(10), false);
        let mut m = Metrics::new();
        assert!(net.flood_search(NodeId(0), key, 10, &mut m).is_none());
        // Offline searcher cannot search.
        net.set_online(NodeId(0), false);
        assert!(net.flood_search(NodeId(0), key, 10, &mut m).is_none());
    }

    #[test]
    fn gossip_reaches_most_nodes() {
        let mut sim = gossip_network(100, 4, 3, 6, 42);
        sim.actor_mut(NodeId(0)).seed_rumor(1, b"hot take".to_vec());
        sim.start();
        sim.run_until(60_000);
        let heard = (0..100)
            .filter(|&i| sim.actor(NodeId(i)).heard.contains_key(&1))
            .count();
        assert!(heard >= 90, "only {heard}/100 heard the rumor");
    }

    #[test]
    fn gossip_rumors_do_not_mix() {
        let mut sim = gossip_network(50, 4, 3, 6, 43);
        sim.actor_mut(NodeId(0)).seed_rumor(1, b"a".to_vec());
        sim.actor_mut(NodeId(25)).seed_rumor(2, b"b".to_vec());
        sim.start();
        sim.run_until(60_000);
        let a_heard = (0..50)
            .filter(|&i| sim.actor(NodeId(i)).heard.get(&1) == Some(&b"a".to_vec()))
            .count();
        let b_heard = (0..50)
            .filter(|&i| sim.actor(NodeId(i)).heard.get(&2) == Some(&b"b".to_vec()))
            .count();
        assert!(a_heard >= 40 && b_heard >= 40);
    }

    #[test]
    fn gossip_offline_nodes_miss_rumor() {
        let mut sim = gossip_network(60, 4, 3, 6, 44);
        for i in 40..60 {
            sim.schedule_churn(0, NodeId(i), false);
        }
        sim.actor_mut(NodeId(0)).seed_rumor(7, b"x".to_vec());
        sim.start();
        sim.run_until(60_000);
        let offline_heard = (40..60)
            .filter(|&i| sim.actor(NodeId(i)).heard.contains_key(&7))
            .count();
        assert_eq!(offline_heard, 0);
    }
}
