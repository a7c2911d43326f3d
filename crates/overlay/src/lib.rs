//! Simulated P2P substrates for the `dosn` reproduction of *"Security and
//! Privacy of Distributed Online Social Networks"* (ICDCS 2015).
//!
//! The survey's §II-B classifies DOSN organizations into five families;
//! this crate implements all of them over a common deterministic
//! discrete-event simulator (the substitution for a real planet-scale
//! deployment — see DESIGN.md):
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
//! Every family runs on one network model: a routed hop's latency is a
//! draw from [`sim::LatencyModel`]'s default, and a lost transmission is
//! decided by [`fault::FaultPlan`]'s one loss/partition rule, in the event
//! queue of [`sim::Simulation`] and hop by hop through [`fault::LinkFaults`].
//!
//! Supporting infrastructure: [`sim`] (event-driven engine with churn),
//! [`fault`] (fault plans and trace digests), [`churn`] (availability
//! experiments, E6), [`metrics`] (message/hop accounting used by every
//! experiment), [`id`] (ring identifiers).
//!
//! # Example: comparing lookup costs across organizations
//!
//! ```
//! use dosn_overlay::{chord::ChordPlane, superpeer::SuperPeerPlane, sim::LatencyModel,
//!                    fault::LinkFaults, id::{Key, NodeId}, metrics::Metrics,
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
//! let (hops, hop) = (m_route.count("chord.hop"), LatencyModel::default());
//! assert!((hops * hop.min_ms..=hops * hop.max_ms).contains(&m_route.latency_ms));
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
pub mod sim;
pub mod social;
pub mod storage;
pub mod superpeer;
