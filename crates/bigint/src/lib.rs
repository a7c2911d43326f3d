//! Arbitrary-precision unsigned integer arithmetic for the `dosn` stack.
//!
//! This crate is the numeric substrate beneath `dosn-crypto`: every
//! public-key primitive in the reproduction (ElGamal, Schnorr signatures,
//! blind signatures, the OPRF, Cocks identity-based encryption) is built on
//! the [`BigUint`] type defined here. No external big-integer or cryptography
//! crates are used anywhere in the workspace.
//!
//! # What is provided
//!
//! * [`BigUint`] — little-endian `u64`-limb unsigned integers with the full
//!   arithmetic operator set (`+`, `-`, `*`, `/`, `%`, shifts, comparisons)
//!   implemented via schoolbook multiplication and Knuth Algorithm D
//!   division.
//! * Modular arithmetic ([`BigUint::modpow`], [`BigUint::modinv`],
//!   [`BigUint::gcd`], [`BigUint::jacobi`]) used by the crypto layer.
//! * An exponentiation engine for hot paths: [`ModContext`] picks a
//!   reduction backend per modulus (Montgomery CIOS for odd 2+-limb moduli,
//!   Knuth division for everything else), exponentiates with sliding windows
//!   over fixed-width rows of limbs (no allocation per product), evaluates
//!   products `∏ bᵢ^eᵢ` over one shared squaring chain (an interleaved
//!   Straus kernel for any number of bases), and builds [`FixedBaseTable`]
//!   precomputations for repeated bases.
//! * Probabilistic primality testing and random prime generation
//!   ([`BigUint::is_probable_prime`], [`gen_prime`], [`gen_safe_prime`]).
//!
//! # Example
//!
//! ```
//! use dosn_bigint::BigUint;
//!
//! let p = BigUint::from(101u64);
//! let g = BigUint::from(2u64);
//! let x = BigUint::from(17u64);
//! let y = g.modpow(&x, &p);
//! assert_eq!(y, BigUint::from(75u64));
//! // modular inverse: g * g^{-1} == 1 (mod p)
//! let inv = g.modinv(&p).expect("101 is prime so 2 is invertible");
//! assert_eq!((&g * &inv) % &p, BigUint::from(1u64));
//! ```

#![forbid(unsafe_code)]

mod arith;
mod fixed_base;
mod modular;
mod montgomery;
mod prime;
mod uint;
mod window;

pub use fixed_base::FixedBaseTable;
pub use modular::{ExpStats, ModContext};
pub use montgomery::MontgomeryContext;
pub use prime::{gen_prime, gen_safe_prime, random_below, SMALL_PRIMES};
pub use uint::{BigUint, ParseBigUintError};
