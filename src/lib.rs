//! # dosn — Distributed Online Social Network security framework
//!
//! Umbrella crate for the `dosn` workspace, a reproduction of *"Security and
//! Privacy of Distributed Online Social Networks"* (ICDCS 2015). It
//! re-exports the four layers of the stack:
//!
//! * [`obs`] — zero-dependency observability: typed metric instruments,
//!   scoped timers, and schema-versioned machine-readable run reports.
//! * [`bigint`] — arbitrary-precision arithmetic substrate.
//! * [`crypto`] — from-scratch cryptography: hashing, symmetric and
//!   public-key encryption, signatures (plain and blind), OPRF, ZK proofs,
//!   identity-based and attribute-based encryption.
//! * [`overlay`] — seeded, deterministic in-process P2P substrates on one
//!   network model (hop latency, loss, partitions, crash schedules), with
//!   the five DOSN organizations from the paper's §II: structured (Chord DHT),
//!   unstructured (flood/gossip), semi-structured (super-peers), hybrid, and
//!   server federation.
//! * [`core`] — the social network itself: identities, the social graph,
//!   the data-privacy layer (§III), the data-integrity layer (§IV), and the
//!   secure-social-search layer (§V).
//!
//! # Quickstart
//!
//! ```
//! use dosn::core::privacy::{AccessScheme, SymmetricGroupScheme};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut scheme = SymmetricGroupScheme::new([7u8; 32]);
//! let group = scheme.create_group(&["alice".into(), "bob".into()])?;
//! let ct = scheme.encrypt(&group, b"party at my place on friday")?;
//! let pt = scheme.decrypt_as(&group, "bob", &ct)?;
//! assert_eq!(pt, b"party at my place on friday");
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for end-to-end scenarios and `DESIGN.md` for the system
//! inventory and per-experiment index.

pub use dosn_bigint as bigint;
pub use dosn_core as core;
pub use dosn_crypto as crypto;
pub use dosn_obs as obs;
pub use dosn_overlay as overlay;
