//! Shamir secret sharing over the Mersenne-prime field `GF(2^61 − 1)`.
//!
//! This is the threshold-gate engine beneath the [CP-ABE
//! emulation](crate::abe): every AND / OR / k-of-n gate in an access policy
//! tree is realized by splitting the parent secret with the scheme here.
//!
//! Secrets are arbitrary byte strings: they are chunked into 7-byte blocks,
//! each block shared with an independent random polynomial of degree
//! `threshold − 1`, and recombined by Lagrange interpolation at `x = 0`.

use crate::error::CryptoError;
use rand::RngCore;

/// The field modulus: the Mersenne prime `2^61 − 1`.
const FIELD_PRIME: u64 = (1u64 << 61) - 1;

const CHUNK: usize = 7;

#[inline]
fn fadd(a: u64, b: u64) -> u64 {
    let s = a as u128 + b as u128;
    (s % FIELD_PRIME as u128) as u64
}

#[inline]
fn fsub(a: u64, b: u64) -> u64 {
    let s = a as u128 + FIELD_PRIME as u128 - b as u128;
    (s % FIELD_PRIME as u128) as u64
}

#[inline]
fn fmul(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) % FIELD_PRIME as u128) as u64
}

fn fpow(mut base: u64, mut exp: u64) -> u64 {
    let mut acc = 1u64;
    base %= FIELD_PRIME;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = fmul(acc, base);
        }
        base = fmul(base, base);
        exp >>= 1;
    }
    acc
}

/// Multiplicative inverse in the field (Fermat's little theorem).
///
/// # Panics
///
/// Panics if `a == 0`.
fn finv(a: u64) -> u64 {
    assert!(!a.is_multiple_of(FIELD_PRIME), "zero has no inverse");
    fpow(a, FIELD_PRIME - 2)
}

/// One participant's share of a secret.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Share {
    /// Evaluation point (non-zero).
    x: u64,
    /// One field element per 7-byte chunk of the padded secret.
    values: Vec<u64>,
    /// Original secret length in bytes.
    secret_len: usize,
}

impl Share {
    /// This share's evaluation point.
    pub fn index(&self) -> u64 {
        self.x
    }

    /// Serializes the share payload (without the index) for embedding in an
    /// enclosing structure that tracks indices positionally — the ABE
    /// ciphertext tree does this.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.values.len() * 8);
        out.extend_from_slice(&(self.secret_len as u64).to_be_bytes());
        for v in &self.values {
            out.extend_from_slice(&v.to_be_bytes());
        }
        out
    }

    /// Parses a payload produced by [`Share::encode`], reattaching the
    /// evaluation point `x`. Returns `None` for malformed input.
    pub fn decode(x: u64, bytes: &[u8]) -> Option<Share> {
        if x == 0 || bytes.len() < 8 || !(bytes.len() - 8).is_multiple_of(8) {
            return None;
        }
        let secret_len = u64::from_be_bytes(bytes[..8].try_into().ok()?) as usize;
        let values: Vec<u64> = bytes[8..]
            .chunks_exact(8)
            .map(|c| u64::from_be_bytes(c.try_into().expect("chunk of 8")))
            .collect();
        let expected_chunks = if secret_len == 0 {
            1
        } else {
            secret_len.div_ceil(CHUNK)
        };
        if values.len() != expected_chunks || values.iter().any(|&v| v >= FIELD_PRIME) {
            return None;
        }
        Some(Share {
            x,
            values,
            secret_len,
        })
    }
}

/// Splits `secret` into `count` shares, any `threshold` of which reconstruct
/// it (and fewer than `threshold` of which reveal nothing).
///
/// Shares are issued at x-coordinates `1..=count`.
///
/// ```
/// use dosn_crypto::shamir::{split, reconstruct};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rng();
/// let shares = split(b"the group key", 2, 3, &mut rng)?;
/// let secret = reconstruct(&shares[1..3])?;
/// assert_eq!(secret, b"the group key");
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`CryptoError::Protocol`] when `threshold` is zero, exceeds
/// `count`, or `count` is absurd (≥ the field size).
pub fn split<R: RngCore + ?Sized>(
    secret: &[u8],
    threshold: usize,
    count: usize,
    rng: &mut R,
) -> Result<Vec<Share>, CryptoError> {
    if threshold == 0 || threshold > count {
        return Err(CryptoError::Protocol(format!(
            "invalid threshold {threshold} of {count}"
        )));
    }
    if count as u64 >= FIELD_PRIME {
        return Err(CryptoError::Protocol("too many shares".into()));
    }
    let chunks = chunk_secret(secret);
    let mut shares: Vec<Share> = (1..=count as u64)
        .map(|x| Share {
            x,
            values: Vec::with_capacity(chunks.len()),
            secret_len: secret.len(),
        })
        .collect();
    for &chunk in &chunks {
        // Random polynomial with constant term = chunk.
        let mut coeffs = vec![chunk];
        for _ in 1..threshold {
            coeffs.push(random_field_element(rng));
        }
        for share in &mut shares {
            share.values.push(eval_poly(&coeffs, share.x));
        }
    }
    Ok(shares)
}

/// Reconstructs the secret from at least `threshold` shares.
///
/// # Errors
///
/// Returns [`CryptoError::ShareReconstruction`] when shares are empty,
/// inconsistent in shape, or contain duplicate x-coordinates. (With *wrong
/// but well-formed* shares, reconstruction yields garbage, as information
/// theory dictates — callers verify via the authenticated layer above.)
pub fn reconstruct(shares: &[Share]) -> Result<Vec<u8>, CryptoError> {
    let first = shares
        .first()
        .ok_or_else(|| CryptoError::ShareReconstruction("no shares given".into()))?;
    let n_chunks = first.values.len();
    let secret_len = first.secret_len;
    for s in shares {
        if s.values.len() != n_chunks || s.secret_len != secret_len {
            return Err(CryptoError::ShareReconstruction(
                "shares have mismatched shapes".into(),
            ));
        }
    }
    let mut seen = std::collections::HashSet::new();
    for s in shares {
        if !seen.insert(s.x) {
            return Err(CryptoError::ShareReconstruction(format!(
                "duplicate share index {}",
                s.x
            )));
        }
    }
    // Lagrange basis at x = 0.
    let lambdas: Vec<u64> = shares
        .iter()
        .map(|si| {
            let mut num = 1u64;
            let mut den = 1u64;
            for sj in shares {
                if sj.x != si.x {
                    num = fmul(num, sj.x % FIELD_PRIME);
                    den = fmul(den, fsub(sj.x % FIELD_PRIME, si.x % FIELD_PRIME));
                }
            }
            fmul(num, finv(den))
        })
        .collect();
    let mut chunks = Vec::with_capacity(n_chunks);
    for c in 0..n_chunks {
        let mut acc = 0u64;
        for (share, lambda) in shares.iter().zip(&lambdas) {
            acc = fadd(acc, fmul(share.values[c], *lambda));
        }
        chunks.push(acc);
    }
    unchunk_secret(&chunks, secret_len)
}

fn random_field_element<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
    loop {
        let v = rng.next_u64() >> 3; // 61 bits
        if v < FIELD_PRIME {
            return v;
        }
    }
}

fn eval_poly(coeffs: &[u64], x: u64) -> u64 {
    // Horner's rule, highest coefficient first.
    let mut acc = 0u64;
    for &c in coeffs.iter().rev() {
        acc = fadd(fmul(acc, x), c);
    }
    acc
}

fn chunk_secret(secret: &[u8]) -> Vec<u64> {
    if secret.is_empty() {
        return vec![0];
    }
    secret
        .chunks(CHUNK)
        .map(|c| {
            let mut v = 0u64;
            for &b in c {
                v = (v << 8) | u64::from(b);
            }
            // Left-align short final chunks so length info is not needed per
            // chunk (overall length is stored once).
            v << (8 * (CHUNK - c.len()))
        })
        .collect()
}

fn unchunk_secret(chunks: &[u64], secret_len: usize) -> Result<Vec<u8>, CryptoError> {
    let expected_chunks = if secret_len == 0 {
        1
    } else {
        secret_len.div_ceil(CHUNK)
    };
    if chunks.len() != expected_chunks {
        return Err(CryptoError::ShareReconstruction(
            "chunk count does not match secret length".into(),
        ));
    }
    let mut out = Vec::with_capacity(secret_len);
    for (i, &chunk) in chunks.iter().enumerate() {
        let remaining = secret_len - i * CHUNK;
        let take = remaining.min(CHUNK);
        let bytes = chunk.to_be_bytes();
        // Chunk occupies the top 7 bytes (value < 2^56), left-aligned.
        out.extend_from_slice(&bytes[1..1 + take]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha::SecureRng;
    use proptest::prelude::*;

    fn rng() -> SecureRng {
        SecureRng::seed_from_u64(31)
    }

    #[test]
    fn roundtrip_exact_threshold() {
        let mut r = rng();
        let shares = split(b"attack at dawn", 3, 5, &mut r).unwrap();
        assert_eq!(reconstruct(&shares[..3]).unwrap(), b"attack at dawn");
        assert_eq!(reconstruct(&shares[2..]).unwrap(), b"attack at dawn");
    }

    #[test]
    fn roundtrip_all_shares() {
        let mut r = rng();
        let shares = split(b"k", 2, 4, &mut r).unwrap();
        assert_eq!(reconstruct(&shares).unwrap(), b"k");
    }

    #[test]
    fn below_threshold_reconstructs_garbage() {
        let mut r = rng();
        let secret = b"thirty-two byte secret material!";
        let shares = split(secret, 3, 5, &mut r).unwrap();
        let wrong = reconstruct(&shares[..2]).unwrap();
        assert_ne!(wrong, secret.to_vec());
    }

    #[test]
    fn empty_and_boundary_lengths() {
        let mut r = rng();
        for len in [0usize, 1, 6, 7, 8, 13, 14, 15, 70] {
            let secret: Vec<u8> = (0..len).map(|i| (i * 13 % 256) as u8).collect();
            let shares = split(&secret, 2, 3, &mut r).unwrap();
            assert_eq!(reconstruct(&shares[..2]).unwrap(), secret, "len {len}");
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut r = rng();
        assert!(split(b"s", 0, 3, &mut r).is_err());
        assert!(split(b"s", 4, 3, &mut r).is_err());
    }

    #[test]
    fn duplicate_share_rejected() {
        let mut r = rng();
        let shares = split(b"s", 2, 3, &mut r).unwrap();
        let dup = vec![shares[0].clone(), shares[0].clone()];
        assert!(reconstruct(&dup).is_err());
    }

    #[test]
    fn mismatched_shapes_rejected() {
        let mut r = rng();
        let a = split(b"short", 2, 3, &mut r).unwrap();
        let b = split(b"a much longer secret here", 2, 3, &mut r).unwrap();
        let mixed = vec![a[0].clone(), b[1].clone()];
        assert!(reconstruct(&mixed).is_err());
        assert!(reconstruct(&[]).is_err());
    }

    #[test]
    fn one_of_one_sharing() {
        let mut r = rng();
        let shares = split(b"solo", 1, 1, &mut r).unwrap();
        assert_eq!(reconstruct(&shares).unwrap(), b"solo");
    }

    #[test]
    fn field_ops_sane() {
        assert_eq!(fadd(FIELD_PRIME - 1, 2), 1);
        assert_eq!(fsub(0, 1), FIELD_PRIME - 1);
        assert_eq!(fmul(finv(12345), 12345), 1);
        assert_eq!(fpow(3, 0), 1);
    }

    proptest! {
        #[test]
        fn prop_any_threshold_subset_reconstructs(
            secret in proptest::collection::vec(any::<u8>(), 0..40),
            k in 1usize..5,
            extra in 0usize..4,
            seed in any::<u64>(),
        ) {
            let n = k + extra;
            let mut r = SecureRng::seed_from_u64(seed);
            let shares = split(&secret, k, n, &mut r).unwrap();
            // Take the *last* k shares (arbitrary subset).
            let subset = &shares[n - k..];
            prop_assert_eq!(reconstruct(subset).unwrap(), secret);
        }

        #[test]
        fn prop_field_inverse(a in 1u64..FIELD_PRIME) {
            prop_assert_eq!(fmul(a, finv(a)), 1);
        }
    }
}
