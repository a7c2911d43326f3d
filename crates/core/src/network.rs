//! What an assembled DOSN is built from, under one path: the four §II-B
//! overlay families (each one type that is also its storage plane), the
//! wrappers that compose over them (social placement, the adversary), the
//! replicated store, and the feed types of the layers above. The system
//! itself is [`crate::engine::Engine`], built as
//! `Engine::new(ReplicatedStore::new(plane, replicas), seed)`; its privacy
//! layer is one [`crate::privacy::AccessScheme`] per user, with no wrapper
//! type around it.

pub use dosn_overlay::adversary::{reader_parity, AdversaryConfig, AdversaryMode, AdversaryPlane};
pub use dosn_overlay::chord::ChordPlane;
pub use dosn_overlay::federation::FederationPlane;
pub use dosn_overlay::kademlia::KademliaPlane;
pub use dosn_overlay::placement::{SocialPlacement, SocialPlane};
pub use dosn_overlay::replication::{apply_crash_schedule, QuorumOutcome, ReplicatedStore};
// The overlay's CSR social graph, the one graph of the workspace: placement,
// the E15/E18 workloads, the Sybil detector and the §V/§VI analyses all run
// on it. The alias is the name the E18 benchmark imports it under.
pub use dosn_overlay::social::{SocialGraph as WorkloadGraph, SocialGraphConfig};
pub use dosn_overlay::storage::{StorageError, StoragePlane};
pub use dosn_overlay::superpeer::SuperPeerPlane;

pub use crate::feed::{FeedCache, FeedItem};
