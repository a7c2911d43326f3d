//! The [`BigUint`] type: representation, construction, and conversion.

use std::cmp::Ordering;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian `u64` limbs with the invariant that the most
/// significant limb is non-zero (zero is the empty limb vector). All
/// arithmetic is implemented in this crate from scratch; see the crate-level
/// documentation for an overview.
///
/// # Example
///
/// ```
/// use dosn_bigint::BigUint;
///
/// let a = BigUint::from(10u64);
/// let b = BigUint::from(3u64);
/// assert_eq!((&a / &b), BigUint::from(3u64));
/// assert_eq!((&a % &b), BigUint::from(1u64));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs; no trailing (most-significant) zero limbs.
    pub(crate) limbs: Vec<u64>,
}

impl BigUint {
    /// The value `0`.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// The value `2`.
    pub fn two() -> Self {
        BigUint { limbs: vec![2] }
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns `true` if the value is even. Zero is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Returns `true` if the value is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Creates a value from little-endian limbs, normalizing trailing zeros.
    pub(crate) fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Internal access to the limb slice (little-endian).
    pub(crate) fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Number of significant bits (`0` for zero).
    ///
    /// ```
    /// use dosn_bigint::BigUint;
    /// assert_eq!(BigUint::from(255u64).bits(), 8);
    /// assert_eq!(BigUint::zero().bits(), 0);
    /// ```
    pub fn bits(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u64) * 64 - u64::from(top.leading_zeros()),
        }
    }

    /// Returns bit `i` (little-endian bit order), `false` beyond the top bit.
    pub fn bit(&self, i: u64) -> bool {
        let limb = (i / 64) as usize;
        match self.limbs.get(limb) {
            Some(&l) => (l >> (i % 64)) & 1 == 1,
            None => false,
        }
    }

    /// Returns the low 64 bits of the value.
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Parses a big-endian byte slice.
    ///
    /// ```
    /// use dosn_bigint::BigUint;
    /// assert_eq!(BigUint::from_bytes_be(&[1, 0]), BigUint::from(256u64));
    /// ```
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | u64::from(b);
            }
            limbs.push(limb);
        }
        Self::from_limbs(limbs)
    }

    /// Serializes to big-endian bytes with no leading zeros (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let first_nonzero = out.iter().position(|&b| b != 0).unwrap_or(out.len());
        out.drain(..first_nonzero);
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padded with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_fixed_bytes_be(&self, len: usize) -> Vec<u8> {
        let needed = (self.bits() as usize).div_ceil(8);
        assert!(
            needed <= len,
            "value needs {needed} bytes, only {len} available"
        );
        // One allocation: the limbs' low-order bytes are written from the
        // end, and whatever lies above the value stays zero.
        let mut out = vec![0u8; len];
        let bytes = self.limbs.iter().flat_map(|limb| limb.to_le_bytes());
        for (slot, byte) in out.iter_mut().rev().zip(bytes.take(needed)) {
            *slot = byte;
        }
        out
    }

    /// Parses a hexadecimal string (no `0x` prefix, case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`ParseBigUintError`] if the string is empty or contains a
    /// non-hexadecimal character.
    pub fn from_hex(s: &str) -> Result<Self, ParseBigUintError> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        if s.is_empty() {
            return Err(ParseBigUintError::Empty);
        }
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let chars: Vec<char> = s.chars().collect();
        let mut idx = 0;
        // Odd-length strings have an implicit leading nibble.
        if chars.len() % 2 == 1 {
            let hi = chars[0]
                .to_digit(16)
                .ok_or(ParseBigUintError::InvalidDigit(chars[0]))?;
            bytes.push(hi as u8);
            idx = 1;
        }
        while idx < chars.len() {
            let hi = chars[idx]
                .to_digit(16)
                .ok_or(ParseBigUintError::InvalidDigit(chars[idx]))?;
            let lo = chars[idx + 1]
                .to_digit(16)
                .ok_or(ParseBigUintError::InvalidDigit(chars[idx + 1]))?;
            bytes.push(((hi << 4) | lo) as u8);
            idx += 2;
        }
        Ok(Self::from_bytes_be(&bytes))
    }

    /// Formats the value as lowercase hexadecimal (no leading zeros).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut s = String::new();
        for (i, &limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        Self::from(u64::from(v))
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        Self::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl TryFrom<&BigUint> for u64 {
    type Error = ParseBigUintError;

    fn try_from(v: &BigUint) -> Result<Self, Self::Error> {
        match v.limbs.len() {
            0 => Ok(0),
            1 => Ok(v.limbs[0]),
            _ => Err(ParseBigUintError::Overflow),
        }
    }
}

impl TryFrom<&BigUint> for u128 {
    type Error = ParseBigUintError;

    fn try_from(v: &BigUint) -> Result<Self, Self::Error> {
        match v.limbs.len() {
            0 => Ok(0),
            1 => Ok(u128::from(v.limbs[0])),
            2 => Ok(u128::from(v.limbs[0]) | (u128::from(v.limbs[1]) << 64)),
            _ => Err(ParseBigUintError::Overflow),
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        non_eq => return non_eq,
                    }
                }
                Ordering::Equal
            }
            non_eq => non_eq,
        }
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        // Repeated division by 10^19 (largest power of ten in a u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut digits: Vec<String> = Vec::new();
        let mut cur = self.clone();
        let chunk = BigUint::from(CHUNK);
        while !cur.is_zero() {
            let (q, r) = cur.div_rem(&chunk);
            digits.push(r.low_u64().to_string());
            cur = q;
        }
        let mut s = String::new();
        for (i, d) in digits.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(d);
            } else {
                s.push_str(&format!("{:0>19}", d));
            }
        }
        f.write_str(&s)
    }
}

impl fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl FromStr for BigUint {
    type Err = ParseBigUintError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(ParseBigUintError::Empty);
        }
        let mut acc = BigUint::zero();
        let ten = BigUint::from(10u64);
        for c in s.chars() {
            let d = c.to_digit(10).ok_or(ParseBigUintError::InvalidDigit(c))?;
            acc = &(&acc * &ten) + &BigUint::from(u64::from(d));
        }
        Ok(acc)
    }
}

/// Error parsing or converting a [`BigUint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseBigUintError {
    /// The input string was empty.
    Empty,
    /// The input contained a character that is not a valid digit.
    InvalidDigit(char),
    /// The value does not fit in the requested primitive type.
    Overflow,
}

impl fmt::Display for ParseBigUintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBigUintError::Empty => f.write_str("empty string"),
            ParseBigUintError::InvalidDigit(c) => write!(f, "invalid digit {c:?}"),
            ParseBigUintError::Overflow => f.write_str("value too large for target type"),
        }
    }
}

impl Error for ParseBigUintError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_identities() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(!BigUint::one().is_zero());
        assert!(BigUint::zero().is_even());
        assert!(BigUint::one().is_odd());
        assert_eq!(BigUint::default(), BigUint::zero());
    }

    #[test]
    fn from_u64_roundtrip() {
        for v in [0u64, 1, 2, 255, u64::MAX] {
            assert_eq!(u64::try_from(&BigUint::from(v)).unwrap(), v);
        }
    }

    #[test]
    fn from_u128_roundtrip() {
        for v in [0u128, 1, u128::from(u64::MAX) + 1, u128::MAX] {
            assert_eq!(u128::try_from(&BigUint::from(v)).unwrap(), v);
        }
    }

    #[test]
    fn bytes_be_roundtrip() {
        let v = BigUint::from(0x0102_0304_0506_0708_u64);
        assert_eq!(v.to_bytes_be(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be()), v);
        // Leading zeros in input are ignored.
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 1]), BigUint::one());
        assert_eq!(BigUint::zero().to_bytes_be(), Vec::<u8>::new());
    }

    #[test]
    fn fixed_bytes_pads_left() {
        let v = BigUint::from(258u64);
        assert_eq!(v.to_fixed_bytes_be(4), vec![0, 0, 1, 2]);
        // Zero at any width, exact fits, and values over several limbs are
        // the minimal encoding, left-padded.
        assert_eq!(BigUint::zero().to_fixed_bytes_be(0), Vec::<u8>::new());
        assert_eq!(BigUint::zero().to_fixed_bytes_be(3), vec![0; 3]);
        for hex in [
            "ff",
            "0100",
            "ffffffffffffffff",
            "010000000000000000",
            "abcdef0123456789abcdef0123",
        ] {
            let v = BigUint::from_hex(hex).unwrap();
            let min = v.to_bytes_be();
            for extra in 0..10 {
                let mut want = vec![0; extra];
                want.extend_from_slice(&min);
                assert_eq!(
                    v.to_fixed_bytes_be(min.len() + extra),
                    want,
                    "{hex} +{extra}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "value needs")]
    fn fixed_bytes_too_small_panics() {
        BigUint::from(1u128 << 80).to_fixed_bytes_be(4);
    }

    #[test]
    fn hex_roundtrip() {
        let v = BigUint::from_hex("deadBEEF00112233445566778899aabb").unwrap();
        assert_eq!(v.to_hex(), "deadbeef00112233445566778899aabb");
        assert_eq!(BigUint::from_hex("0").unwrap(), BigUint::zero());
        assert_eq!(BigUint::from_hex("f").unwrap(), BigUint::from(15u64));
        assert!(BigUint::from_hex("").is_err());
        assert!(BigUint::from_hex("xyz").is_err());
    }

    #[test]
    fn decimal_display_and_parse() {
        let cases = [
            "0",
            "1",
            "18446744073709551616",
            "340282366920938463463374607431768211455",
            "99999999999999999999999999999999999999999999",
        ];
        for c in cases {
            let v: BigUint = c.parse().unwrap();
            assert_eq!(v.to_string(), c);
        }
        assert!("".parse::<BigUint>().is_err());
        assert!("12a".parse::<BigUint>().is_err());
    }

    #[test]
    fn ordering() {
        let a = BigUint::from(5u64);
        let b = BigUint::from(7u64);
        let c = BigUint::from(u128::MAX);
        assert!(a < b);
        assert!(b < c);
        assert!(c > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn bits_and_bit() {
        let v = BigUint::from(0b1010u64);
        assert_eq!(v.bits(), 4);
        assert!(!v.bit(0));
        assert!(v.bit(1));
        assert!(!v.bit(2));
        assert!(v.bit(3));
        assert!(!v.bit(100));
        let big = BigUint::from(u128::from(u64::MAX) + 1);
        assert_eq!(big.bits(), 65);
        assert!(big.bit(64));
    }

    #[test]
    fn debug_is_nonempty() {
        assert_eq!(format!("{:?}", BigUint::zero()), "BigUint(0x0)");
    }
}
