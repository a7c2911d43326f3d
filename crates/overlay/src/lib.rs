//! Simulated P2P substrates for the `dosn` reproduction of *"Security and
//! Privacy of Distributed Online Social Networks"* (ICDCS 2015).
//!
//! The survey's §II-B classifies DOSN organizations into five families;
//! this crate implements all of them in one process, seeded and
//! deterministic (the substitution for a real planet-scale deployment —
//! see DESIGN.md). The families are closed-form walks over their routing
//! state (a flood is a breadth-first sweep), with no event queue:
//!
//! | §II-B family | Exemplars in the survey | Module |
//! |---|---|---|
//! | Structured | PrPl, PeerSoN, Safebook, Cachet | [`chord`] |
//! | Unstructured | flooding/gossip micropublishing | [`flood`] |
//! | Semi-structured | Supernova super-peers | [`superpeer`] |
//! | Hybrid | Cachet DHT + gossip cache, Cuckoo | [`hybrid`] |
//! | Server federation | Diaspora pods | [`federation`] |
//!
//! The storing families — Chord, [`kademlia`], super-peers and the
//! federation — are each one type that also implements
//! [`storage::StoragePlane`], the placement + access trait that
//! [`replication::ReplicatedStore`] and the request engine run over.
//!
//! Every family runs on one network model, in [`fault`]: a routed hop's
//! latency is one uniform draw from [`fault::HOP_MS_MIN`] to
//! [`fault::HOP_MS_MAX`] ms, a lost transmission is decided hop by hop by [`fault::LinkFaults`] (its
//! loss probability, and any partition), and a node is down when a
//! [`fault::FaultPlan`]'s crash schedule says so
//! ([`replication::apply_crash_schedule`]).
//!
//! Supporting infrastructure: [`fault`] (the network model, fault plans
//! and trace digests), [`churn`] (session-level availability, E6),
//! [`metrics`] (message/hop accounting used by every experiment), [`id`]
//! (ring identifiers).
//!
//! # Example: comparing lookup costs across organizations
//!
//! ```
//! use dosn_overlay::{chord::ChordPlane, superpeer::SuperPeerPlane,
//!                    fault::{HOP_MS_MAX, HOP_MS_MIN, LinkFaults}, id::{Key, NodeId}, metrics::Metrics,
//!                    replication::ReplicatedStore, storage::StoragePlane};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let key = Key::hash(b"profile:carol");
//!
//! // Copies are the replication layer's business: a 3-way store over the
//! // ring routes one lookup per placement and writes each live candidate.
//! let mut store = ReplicatedStore::new(ChordPlane::build(256, 1), 3);
//! let mut m_dht = Metrics::new();
//! let holders = store.put(key, b"data".to_vec(), &mut m_dht)?;
//! store.get(key, &mut m_dht)?;
//!
//! let mut sp = SuperPeerPlane::build(256, 16, 1);
//! sp.publish(NodeId(9), key);
//! let mut m_sp = Metrics::new();
//! sp.search(NodeId(200), key, &mut m_sp);
//!
//! // Structured costs O(log n) hops; super-peer a small constant.
//! assert!(m_sp.messages <= 3);
//! assert!(m_dht.count("chord.hop") >= 1);
//!
//! // Each family has one routing loop with link faults as its optional
//! // argument: `*_with_faults` walks the same route, retrying lost hops.
//! let dht = store.plane_mut();
//! let from = dht.random_node(2).ok_or("no online node")?;
//! let mut m_route = Metrics::new();
//! let owner = dht.lookup(from, key, &mut m_route)?;
//! // Every hop of the route drew its latency from the one model.
//! let hops = m_route.count("chord.hop");
//! assert!((hops * HOP_MS_MIN..=hops * HOP_MS_MAX).contains(&m_route.latency_ms));
//! let mut lossy = LinkFaults::new(7, 0.2);
//! assert_eq!(dht.lookup_with_faults(from, key, &mut m_dht, &mut lossy, 8)?, owner);
//! assert_eq!(m_dht.count("chord.retry"), lossy.failures);
//!
//! // The same ring is the storage plane under the store: its placement
//! // put the first copy at the key's owner, and one holder answers alone.
//! assert_eq!(holders[0], owner);
//! assert_eq!(dht.replica_candidates(key, 3, &mut m_dht)?, holders);
//! assert_eq!(dht.fetch_from(owner, key, &mut m_dht)?.as_deref(), Some(&b"data"[..]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod adversary;
pub mod arena;
pub mod chord;
pub mod churn;
pub mod fault;
pub mod federation;
pub mod flood;
pub mod hotcache;
pub mod hybrid;
pub mod id;
pub mod kademlia;
pub mod metrics;
pub mod placement;
pub mod replication;
pub mod social;
pub mod storage;
pub mod superpeer;
