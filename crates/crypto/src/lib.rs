//! From-scratch cryptography for the `dosn` reproduction of *"Security and
//! Privacy of Distributed Online Social Networks"* (ICDCS 2015).
//!
//! Every mechanism the survey catalogs is implemented here on top of
//! [`dosn_bigint`] — no external cryptography crates:
//!
//! | Survey section | Mechanism | Module |
//! |---|---|---|
//! | §III-B | Symmetric key encryption (ChaCha20 + HMAC, encrypt-then-MAC) | [`aead`] |
//! | §III-C | Public key encryption (ElGamal, hybrid KEM/DEM) | [`elgamal`] |
//! | §III-D | Attribute-based encryption (CP-ABE via secret-sharing trees) | [`abe`] |
//! | §III-E | Identity-based encryption (Cocks) and broadcast IBBE | [`ibe`], [`ibbe`] |
//! | §III-F | PRF + OPRF (Hummingbird key dissemination) | [`hmac`], [`oprf`] |
//! | §III-F, §IV-B | Authenticated dictionary over one Merkle tree (RFC 9162 shape) | [`pad`], [`merkle`] |
//! | §IV | Digital signatures, hashing | [`schnorr`], [`sha256`] |
//! | §IV | Batch signature verification (random linear combination) | [`batch`] |
//! | §IV-A | Key distribution / PKI with provenance | [`keys`] |
//! | §V-A | Blind signatures | [`blind`] |
//! | §V-B | Zero-knowledge proofs | [`zkp`] |
//!
//! Shared infrastructure: [`group`] (Schnorr groups over safe primes),
//! [`shamir`] (threshold secret sharing), [`chacha`] (stream cipher +
//! deterministic CSPRNG), [`error`].
//!
//! # Example: three ways to protect a post
//!
//! ```
//! use dosn_crypto::{aead::SymmetricKey, chacha::SecureRng,
//!                   abe::{AbeAuthority, Policy}, ibe::CocksPkg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = SecureRng::seed_from_u64(1);
//!
//! // §III-B: a shared group key.
//! let group_key = SymmetricKey::generate(&mut rng);
//! let ct = group_key.seal(b"post", b"", &mut rng);
//! assert_eq!(group_key.open(&ct, b"")?, b"post");
//!
//! // §III-D: attribute-based (Persona-style, owner as authority).
//! let mut authority = AbeAuthority::new([1u8; 32]);
//! let friend_key = authority.issue_key("bob", &["friend".into()]);
//! let ct = authority.encrypt(&Policy::parse("friend")?, b"post", &mut rng)?;
//! assert_eq!(friend_key.decrypt(&ct)?, b"post");
//!
//! // §III-E: identity-based — encrypt to a username, no key exchange.
//! let pkg = CocksPkg::setup(256, &mut rng);
//! let ct = pkg.public_params().encrypt_hybrid(b"carol", b"post", &mut rng);
//! assert_eq!(pkg.extract(b"carol").decrypt_hybrid(&ct)?, b"post");
//! # Ok(())
//! # }
//! ```

// One `unsafe` block in the crate: `sha256`'s call into the SHA-extension
// kernel, behind its run-time CPU check.
#![deny(unsafe_code)]

pub mod abe;
pub mod aead;
pub mod batch;
pub mod blind;
pub mod chacha;
pub mod elgamal;
pub mod error;
pub mod group;
pub mod hmac;
pub mod ibbe;
pub mod ibe;
pub mod keys;
pub mod merkle;
pub mod oprf;
pub mod pad;
pub mod schnorr;
pub mod sha256;
pub mod shamir;
pub mod zkp;

pub use error::CryptoError;
