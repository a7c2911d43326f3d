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
//! * [`anonymize`], [`sybil`] — §VI graph anonymization vs
//!   de-anonymization, and random-walk Sybil detection.
//!
//!   The §V searches and both §VI analyses run on the overlay's CSR social
//!   graph ([`network::WorkloadGraph`]), the graph placement routes on, with
//!   `u32` vertices; trust is an array held beside it. It is not the
//!   system's record of friendship: the engine keeps that once, as each
//!   user's friends-group roster.
//! * [`taxonomy`] — the paper's Table I as a queryable registry.
//! * [`engine`] — the assembled DOSN and its one entry point: the batched
//!   request engine (prepare / commit / finish execution of op batches
//!   over one record per user; single ops are batches of one).
//! * [`feed`] — reader-side materialized timelines whose staleness is
//!   decided by the authors' timeline hash-chain heads, so cache hits can
//!   never serve tampered or forked content.
//! * [`network`] — re-exports: the storage planes an engine is built over.

#![forbid(unsafe_code)]

pub mod anonymize;
pub mod content;
pub mod engine;
pub mod error;
pub mod feed;
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
