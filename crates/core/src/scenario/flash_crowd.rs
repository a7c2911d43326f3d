//! Scenario 1 — **viral flash crowd**: one author, a crowd of followers,
//! every follower refreshing the author's wall at once. This is not an
//! adversary with a keyboard but the availability threat the survey's §IV
//! ranks first for P2P OSNs: correlated read load on one user's partition.
//! The scenario stresses the cache hierarchy (`FeedCache` slices, storage
//! hot cache) and socially-aware placement: the celebrity's wall keys are
//! pinned to their own community via [`SocialPlacement::assign_owner`], so
//! the crowd converges on the replica set the placement chose.
//!
//! Deterministic outputs: availability (items served / items expected),
//! read/served counts, cache hit accounting. Wall-clock latency
//! percentiles are measured too but live only on the outcome struct — the
//! [`RunReport`] stays byte-identical per seed.

use super::ScenarioConfig;
use crate::engine::wall_key;
use crate::engine::{Engine, OpBatch};
use crate::network::{
    ChordPlane, ReplicatedStore, SocialGraphConfig, SocialPlacement, SocialPlane, WorkloadGraph,
};
use dosn_obs::{names, Registry, RunReport, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// What the flash crowd left behind.
#[derive(Debug, Clone)]
pub struct FlashCrowdOutcome {
    /// Social-graph size the crowd was drawn from.
    pub nodes: usize,
    /// CSR vertex of the celebrity (the max-degree vertex).
    pub celebrity_vertex: u32,
    /// Followers who refreshed their feed.
    pub readers: usize,
    /// Posts on the celebrity's wall.
    pub posts: u64,
    /// Feed-read calls issued (cold sweep + warm passes).
    pub feed_reads: u64,
    /// Items the crowd should have seen in total.
    pub expected_items: u64,
    /// Items actually served.
    pub served_items: u64,
    /// `served / expected` — the headline the bench gates.
    pub availability: f64,
    /// Cache hits across both cache layers (feed slices + hot envelopes).
    pub cache_hits: u64,
    /// Reads that fell through to a quorum fetch.
    pub cache_misses: u64,
    /// Reads the engine refused to answer (fail-closed path) — expected 0
    /// here: no adversary is armed in this scenario.
    pub fail_closed: u64,
    /// Measured p50 of warm `read_feed` calls, µs (not in the report).
    pub warm_p50_us: u64,
    /// Measured p95 of warm `read_feed` calls, µs (not in the report).
    pub warm_p95_us: u64,
    /// Whether the shrunk workload ran.
    pub fast: bool,
}

impl FlashCrowdOutcome {
    /// The deterministic report for this run (no wall-clock values).
    pub fn report(&self) -> RunReport {
        let mut run = RunReport::new("e17.flash_crowd", self.fast);
        run.set_headline("flash_availability", self.availability, true, 0.01);
        let reg = Registry::new();
        reg.counter(names::SCENARIO_FLASH_READS)
            .add(self.feed_reads);
        reg.counter(names::CACHE_HITS).add(self.cache_hits);
        reg.counter(names::CACHE_MISSES).add(self.cache_misses);
        reg.set_gauge(names::SIM_NODES, self.nodes as f64);
        run.record_registry(&reg);
        let mut row = BTreeMap::new();
        row.insert(
            "celebrity_vertex".into(),
            Value::from(self.celebrity_vertex as u64),
        );
        row.insert("readers".into(), Value::from(self.readers));
        row.insert("posts".into(), Value::from(self.posts));
        row.insert("expected_items".into(), Value::from(self.expected_items));
        row.insert("served_items".into(), Value::from(self.served_items));
        row.insert("fail_closed".into(), Value::from(self.fail_closed));
        run.add_row(row);
        run
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn fan(i: usize) -> String {
    format!("fan{i:05}")
}

/// Runs the flash crowd: build the scale-free graph, crown its max-degree
/// vertex, pin the celebrity's wall into their community, then stampede.
pub fn run(cfg: &ScenarioConfig) -> FlashCrowdOutcome {
    let (nodes, ring, max_readers, posts) = if cfg.fast {
        (5_000, 64, 48, 4u64)
    } else {
        (100_000, 256, 192, 5u64)
    };
    let graph = WorkloadGraph::generate(&SocialGraphConfig::new(nodes, cfg.seed));
    let celebrity_vertex = (0..nodes as u32)
        .max_by_key(|&v| (graph.degree(v), std::cmp::Reverse(v)))
        .unwrap_or(0);
    // The crowd: an even sample of the celebrity's followers.
    let followers = graph.friends(celebrity_vertex).to_vec();
    let stride = (followers.len() / max_readers).max(1);
    let crowd: Vec<u32> = followers
        .iter()
        .copied()
        .step_by(stride)
        .take(max_readers)
        .collect();

    let plane = ChordPlane::build(ring, cfg.seed);
    let node_ids = {
        use dosn_overlay::storage::StoragePlane;
        plane.node_ids()
    };
    let placement = SocialPlacement::new(graph, &node_ids);
    let store = ReplicatedStore::new(SocialPlane::new(plane, placement), 3);
    let mut engine = Engine::new(store, cfg.seed);
    engine.enable_feed_cache(1 << 14);
    engine.enable_hot_cache(1 << 14);

    // Pin the wall keys to the celebrity's community *before* the posts
    // are committed, so placement routes the crowd there.
    for seq in 0..posts {
        engine
            .storage_mut()
            .plane_mut()
            .placement_mut()
            .assign_owner(wall_key("celeb", seq), celebrity_vertex);
    }

    let mut batch = OpBatch::new().register("celeb");
    for &f in &crowd {
        batch = batch.register(&fan(f as usize));
    }
    for &f in &crowd {
        batch = batch.befriend(&fan(f as usize), "celeb", 0.8);
    }
    let report = engine.execute(batch);
    assert!(
        report.results.iter().all(|r| r.is_ok()),
        "flash-crowd setup failed"
    );
    let mut wall = OpBatch::new();
    for seq in 0..posts {
        wall = wall.post(
            "celeb",
            &format!("going viral #{seq} (seed {:x})", cfg.seed),
        );
    }
    let report = engine.execute(wall);
    assert!(
        report.results.iter().all(|r| r.is_ok()),
        "celebrity posts failed"
    );

    // Cold sweep: every fan's first refresh fills the caches.
    let mut served = 0u64;
    let mut feed_reads = 0u64;
    for &f in &crowd {
        let items = engine
            .read_feed(&fan(f as usize), posts as usize)
            .expect("fan feed read");
        served += items.len() as u64;
        feed_reads += 1;
    }
    // Warm passes: the stampede proper, measured.
    let mut warm_us: Vec<u64> = Vec::with_capacity(crowd.len() * 2);
    for _pass in 0..2 {
        for &f in &crowd {
            let t = Instant::now();
            let items = engine
                .read_feed(&fan(f as usize), posts as usize)
                .expect("fan feed read");
            warm_us.push(t.elapsed().as_micros() as u64);
            served += items.len() as u64;
            feed_reads += 1;
        }
    }
    warm_us.sort_unstable();

    let expected = feed_reads * posts;
    let counter_of = |name: &str| engine.obs().counter(name).get();
    FlashCrowdOutcome {
        nodes,
        celebrity_vertex,
        readers: crowd.len(),
        posts,
        feed_reads,
        expected_items: expected,
        served_items: served,
        availability: served as f64 / expected.max(1) as f64,
        cache_hits: counter_of(names::CACHE_HITS),
        cache_misses: counter_of(names::CACHE_MISSES),
        fail_closed: counter_of(names::ENGINE_READ_FAIL_CLOSED),
        warm_p50_us: percentile(&warm_us, 50.0),
        warm_p95_us: percentile(&warm_us, 95.0),
        fast: cfg.fast,
    }
}
