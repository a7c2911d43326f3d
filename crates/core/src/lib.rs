//! The DOSN social layer: data privacy, data integrity, and secure social
//! search over simulated P2P overlays — the core of the `dosn` reproduction
//! of *"Security and Privacy of Distributed Online Social Networks"*
//! (ICDCS 2015).
//!
//! The crate mirrors the survey's structure:
//!
//! * [`privacy`] — §III: information substitution, symmetric / public-key /
//!   attribute-based / identity-based-broadcast / hybrid encryption, with a
//!   uniform [`privacy::AccessScheme`] trait for cost comparisons.
//! * [`integrity`] — §IV: signed envelopes (owner + content), hash-chained
//!   and entangled timelines, fork-consistent object history trees, and
//!   per-post comment keys (data relations).
//! * [`search`] — §V: blind-signature subscriptions, proxy aliases,
//!   trusted-friends routing, ZKP-gated resource handlers, and trust-ranked
//!   results, with a leakage accountant quantifying who learned what.
//! * [`identity`], [`content`] — users and content types.
//! * [`graph`] — the named, trust-weighted graph (with synthetic
//!   generators) that the §V searches and §VI anonymization analyse. It is
//!   not the system's record of friendship: the engine keeps that once, as
//!   each user's friends-group roster.
//! * [`sybil`] — §VI random-walk Sybil detection over the overlay's CSR
//!   social graph ([`network::WorkloadGraph`]), the graph placement routes
//!   on.
//! * [`taxonomy`] — the paper's Table I as a queryable registry.
//! * [`engine`] — the assembled DOSN and its one entry point: the batched
//!   parallel request engine (prepare / commit / finish execution of op
//!   batches over sharded per-user state; single ops are batches of one).
//! * [`feed`] — reader-side materialized timelines whose staleness is
//!   decided by the authors' timeline hash-chain heads, so cache hits can
//!   never serve tampered or forked content.
//! * [`network`] — re-exports: the storage planes an engine is built over.

pub mod anonymize;
pub mod content;
pub mod engine;
pub mod error;
pub mod feed;
pub mod graph;
pub mod identity;
pub mod integrity;
pub mod network;
pub mod privacy;
pub mod scenario;
pub mod search;
pub mod sybil;
pub mod taxonomy;

pub use error::DosnError;
pub use identity::UserId;
