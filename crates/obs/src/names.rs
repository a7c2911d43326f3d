//! The single declaration point for every metric-name string in the
//! workspace.
//!
//! All instruments are addressed by hierarchical dotted labels
//! (`plane.component.operation`). Declaring the strings here — and only
//! here — means a typo'd name fails the workspace `metric_names` test
//! instead of silently creating a dead counter that no dashboard or gate
//! ever reads. Overlay message kinds recorded through
//! `Metrics::record(kind, ..)` use the same constants.

// ---- overlay: chord DHT ----

/// Per-hop routing step in a Chord lookup.
pub const CHORD_HOP: &str = "chord.hop";
/// Retried Chord RPC after a link fault.
pub const CHORD_RETRY: &str = "chord.retry";
/// Lookup rerouted around a failed successor.
pub const CHORD_REROUTE: &str = "chord.reroute";
/// Successor-list repair action.
pub const CHORD_REPAIR: &str = "chord.repair";
/// Store request placed on the responsible node.
pub const CHORD_STORE: &str = "chord.store";
/// Fetch served from the responsible node.
pub const CHORD_FETCH: &str = "chord.fetch";

// ---- overlay: kademlia ----

/// FIND_NODE iteration step.
pub const KAD_FIND_NODE: &str = "kad.find_node";
/// Retried Kademlia RPC after a link fault.
pub const KAD_RETRY: &str = "kad.retry";
/// STORE on a k-closest node.
pub const KAD_STORE: &str = "kad.store";
/// Value fetch from a k-closest node.
pub const KAD_FETCH: &str = "kad.fetch";

// ---- overlay: flooding / gossip ----

/// Flood query forwarded one hop.
pub const FLOOD_QUERY: &str = "flood.query";
/// Retried flood edge after a link fault.
pub const FLOOD_RETRY: &str = "flood.retry";

// ---- overlay: super-peer ----

/// Query submitted to a super-peer.
pub const SUPER_QUERY: &str = "super.query";
/// Query forwarded between super-peers.
pub const SUPER_FORWARD: &str = "super.forward";
/// Answer returned by a super-peer.
pub const SUPER_ANSWER: &str = "super.answer";
/// Retried super-peer RPC after a link fault.
pub const SUPER_RETRY: &str = "super.retry";
/// Object stored at a super-peer.
pub const SUPER_STORE: &str = "super.store";
/// Index publish to a super-peer.
pub const SUPER_PUBLISH: &str = "super.publish";
/// Object fetched from a super-peer.
pub const SUPER_FETCH: &str = "super.fetch";

// ---- overlay: federation ----

/// Client request to its home server.
pub const FED_CLIENT_REQUEST: &str = "fed.client_request";
/// Server-to-server relay.
pub const FED_SERVER_RELAY: &str = "fed.server_relay";
/// Object stored on a federation server.
pub const FED_STORE: &str = "fed.store";
/// Object fetched from a federation server.
pub const FED_FETCH: &str = "fed.fetch";

// ---- overlay: hybrid ----

/// Contact-list fetch in the hybrid organization.
pub const HYBRID_CONTACT_FETCH: &str = "hybrid.contact_fetch";

// ---- replicated storage ----

/// Replica copies written by a `put` (counter).
pub const STORE_REPLICAS_WRITTEN: &str = "store.replicas_written";
/// Responders reached by a quorum read (counter).
pub const GET_QUORUM_SIZE: &str = "get.quorum_size";
/// Read-repair writes issued after a divergent quorum (counter).
pub const GET_REPAIRS: &str = "get.repairs";
/// End-to-end replicated `put` latency, µs (histogram).
pub const STORE_PUT: &str = "store.put";
/// Quorum-read latency including verification, µs (histogram).
pub const STORE_GET_QUORUM: &str = "store.get.quorum";
/// Read-repair pass latency, µs (histogram).
pub const STORE_GET_REPAIR: &str = "store.get.repair";

// ---- end-to-end operations (timed by the engine) ----

/// End-to-end `post` latency: encrypt, seal, replicated put, µs (histogram).
pub const NET_POST: &str = "net.post";
/// End-to-end `read_post` latency: quorum read, verify, decrypt, µs (histogram).
pub const NET_READ_POST_QUORUM: &str = "net.read_post.quorum";
/// User registration latency: keygen and directory publish, µs (histogram).
pub const NET_REGISTER: &str = "net.register";
/// Key-dissemination (befriend) latency, µs (histogram).
pub const NET_KEY_DISSEMINATION: &str = "net.key_dissemination";

// ---- request engine (batched prepare/commit/finish) ----

/// Batch plan phase: read validation and the feed-cache (L1) probe, µs
/// (histogram).
pub const ENGINE_PLAN: &str = "engine.plan";
/// Batch prepare phase: keygen, befriend links, encrypt + sign, comment
/// attach, µs (histogram).
pub const ENGINE_PREPARE: &str = "engine.prepare";
/// Batch commit phase: the replicated puts of the sealed records, in op
/// order, µs (histogram).
pub const ENGINE_COMMIT: &str = "engine.commit";
/// Batch finish phase: quorum reads, verify, decrypt, µs (histogram).
pub const ENGINE_FINISH: &str = "engine.finish";
/// Operations accepted by the engine (counter).
pub const ENGINE_OPS: &str = "engine.ops";
/// Retired: batches run one after the other, so nothing feeds this counter
/// and it reads 0. The constant stays only because the `e18` benchmark
/// imports it for its `engine.pipeline_overlaps` row; it is not in [`ALL`].
pub const ENGINE_PIPELINE_OVERLAP: &str = "engine.pipeline.overlap";

// ---- crypto ----

/// Schnorr envelope-signature verification latency, µs (histogram): one
/// sample per combined check — all of a finish phase's staked reads, or
/// the other values of one read with a tied plurality or a failed stake
/// (every read, with batch verification off).
pub const CRYPTO_SCHNORR_VERIFY: &str = "crypto.schnorr.verify";
/// Exponentiations of a group's generator, served from its fixed-base
/// table — the only table a group holds (counter).
pub const CRYPTO_GROUP_TABLE_HIT: &str = "crypto.group.pow.table_hit";
/// Exponentiations of any other base, run as windowed pows (counter).
pub const CRYPTO_GROUP_TABLE_MISS: &str = "crypto.group.pow.table_miss";

// ---- bigint ----

/// `ModContext` pows taken on the division path (counter).
pub const BIGINT_POW_DIVISION: &str = "bigint.modctx.pow.division";
/// `ModContext` pows taken on the Montgomery path (counter).
pub const BIGINT_POW_MONTGOMERY: &str = "bigint.modctx.pow.montgomery";

// ---- socially-aware placement ----

/// Replica candidates served from the owner's friend/community set
/// (counter).
pub const PLACEMENT_SOCIAL_HITS: &str = "placement.social_hits";
/// Placements that fell back (fully or partially) to hash placement
/// (counter).
pub const PLACEMENT_FALLBACKS: &str = "placement.fallbacks";

// ---- simulator scale ----

/// Simulated node count of the current run (gauge).
pub const SIM_NODES: &str = "sim.nodes";
/// Resident overlay + workload bytes per simulated node (gauge).
pub const SIM_BYTES_PER_NODE: &str = "sim.bytes_per_node";

// ---- feed & caching plane ----

/// `read_feed` aggregation calls served by the engine (counter).
pub const FEED_READS: &str = "feed.reads";
/// Friends aggregated per `read_feed` call — the fan-in width (histogram).
pub const FEED_FANIN: &str = "feed.fanin";

// The `cache.*` names count in two systems until the caches share one
// registry: L1 feed-cache slices in the engine's registry, L2 hot sealed
// envelopes (bumped by `ReplicatedStore`) in the overlay's `Metrics`.

/// Cache hits: an L1 slice whose witness is on the author's live chain, or
/// an L2 envelope served from the plane's hot cache (counter).
pub const CACHE_HITS: &str = "cache.hits";
/// Cache misses: reads a cache level could not serve (counter).
pub const CACHE_MISSES: &str = "cache.misses";
/// Cache entries dropped as untrustworthy: an L1 slice whose author's chain
/// forked or rolled back (an append carries it), or an L2 envelope that
/// failed verification (counter).
pub const CACHE_INVALIDATIONS: &str = "cache.invalidations";
/// Cache entries evicted by capacity pressure (LRU victims) (counter).
pub const CACHE_EVICTIONS: &str = "cache.evictions";

// ---- adversary plane & attack scenarios (E17) ----

/// Reads served with seeded-corrupted bytes by compromised holders
/// (counter, mirrored from `AdversaryStats`).
pub const ADVERSARY_TAMPERED: &str = "adversary.tampered";
/// Reads answered "not found" by compromised holders that do hold the copy
/// (counter, mirrored from `AdversaryStats`).
pub const ADVERSARY_WITHHELD: &str = "adversary.withheld";
/// Reads served a forked alternate version by equivocating holders
/// (counter, mirrored from `AdversaryStats`).
pub const ADVERSARY_EQUIVOCATED: &str = "adversary.equivocated";
/// Distinct keys observed (stored or fetched) by compromised nodes — the
/// leakage surface of a compromised pod (gauge).
pub const ADVERSARY_OBSERVED_KEYS: &str = "adversary.observed_keys";
/// Quorum reads the engine refused for integrity or availability (integrity
/// violation, malformed envelope, content unavailable) instead of returning
/// unverified bytes — the fail-closed path under adversarial replicas. An
/// unauthorized or unknown reader's refusal is not counted (counter).
pub const ENGINE_READ_FAIL_CLOSED: &str = "engine.read.fail_closed";
/// Feed reads issued by the viral flash-crowd scenario (counter).
pub const SCENARIO_FLASH_READS: &str = "scenario.flash.reads";
/// Suspects swept by the Sybil campaign scenario (counter).
pub const SCENARIO_SYBIL_SUSPECTS: &str = "scenario.sybil.suspects";
/// Verified reads attempted by the dishonest-quorum sweep (counter).
pub const SCENARIO_QUORUM_READS: &str = "scenario.quorum.reads";
/// Keys written through the compromised-pod scenario (counter).
pub const SCENARIO_POD_KEYS: &str = "scenario.pod.keys";

// ---- aggregate overlay roll-ups ----

/// Total overlay messages across a run (gauge/counter in reports).
pub const OVERLAY_MESSAGES: &str = "overlay.messages";
/// Total overlay payload bytes across a run.
pub const OVERLAY_BYTES: &str = "overlay.bytes";
/// Per-message overlay latency distribution, sim ms (histogram).
pub const OVERLAY_MSG_LATENCY: &str = "overlay.msg.latency_ms";

/// Every declared metric name, for the registry-names test and for
/// exhaustive registration in smoke benches.
pub const ALL: &[&str] = &[
    CHORD_HOP,
    CHORD_RETRY,
    CHORD_REROUTE,
    CHORD_REPAIR,
    CHORD_STORE,
    CHORD_FETCH,
    KAD_FIND_NODE,
    KAD_RETRY,
    KAD_STORE,
    KAD_FETCH,
    FLOOD_QUERY,
    FLOOD_RETRY,
    SUPER_QUERY,
    SUPER_FORWARD,
    SUPER_ANSWER,
    SUPER_RETRY,
    SUPER_STORE,
    SUPER_PUBLISH,
    SUPER_FETCH,
    FED_CLIENT_REQUEST,
    FED_SERVER_RELAY,
    FED_STORE,
    FED_FETCH,
    HYBRID_CONTACT_FETCH,
    STORE_REPLICAS_WRITTEN,
    GET_QUORUM_SIZE,
    GET_REPAIRS,
    STORE_PUT,
    STORE_GET_QUORUM,
    STORE_GET_REPAIR,
    NET_POST,
    NET_READ_POST_QUORUM,
    NET_REGISTER,
    NET_KEY_DISSEMINATION,
    ENGINE_PLAN,
    ENGINE_PREPARE,
    ENGINE_COMMIT,
    ENGINE_FINISH,
    ENGINE_OPS,
    CRYPTO_SCHNORR_VERIFY,
    CRYPTO_GROUP_TABLE_HIT,
    CRYPTO_GROUP_TABLE_MISS,
    BIGINT_POW_DIVISION,
    BIGINT_POW_MONTGOMERY,
    PLACEMENT_SOCIAL_HITS,
    PLACEMENT_FALLBACKS,
    FEED_READS,
    FEED_FANIN,
    CACHE_HITS,
    CACHE_MISSES,
    CACHE_INVALIDATIONS,
    CACHE_EVICTIONS,
    SIM_NODES,
    SIM_BYTES_PER_NODE,
    ADVERSARY_TAMPERED,
    ADVERSARY_WITHHELD,
    ADVERSARY_EQUIVOCATED,
    ADVERSARY_OBSERVED_KEYS,
    ENGINE_READ_FAIL_CLOSED,
    SCENARIO_FLASH_READS,
    SCENARIO_SYBIL_SUSPECTS,
    SCENARIO_QUORUM_READS,
    SCENARIO_POD_KEYS,
    OVERLAY_MESSAGES,
    OVERLAY_BYTES,
    OVERLAY_MSG_LATENCY,
];

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(!name.is_empty());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "metric name {name} must be lowercase dotted_snake"
            );
            assert!(!name.starts_with('.') && !name.ends_with('.'));
        }
    }
}
