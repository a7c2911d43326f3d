//! ChaCha20 stream cipher (RFC 8439) and a deterministic CSPRNG built on it.

use rand::{CryptoRng, RngCore};

/// ChaCha20 key length in bytes.
pub const KEY_LEN: usize = 32;
/// ChaCha20 nonce length in bytes.
pub const NONCE_LEN: usize = 12;

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

fn chacha20_block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; 64] {
    let mut state = [0u32; 16];
    state[0] = 0x6170_7865;
    state[1] = 0x3320_646e;
    state[2] = 0x7962_2d32;
    state[3] = 0x6b20_6574;
    for i in 0..8 {
        state[4 + i] = u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().unwrap());
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes(nonce[i * 4..i * 4 + 4].try_into().unwrap());
    }
    let initial = state;
    for _ in 0..10 {
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = state[i].wrapping_add(initial[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// XORs `data` in place with the ChaCha20 keystream for (`key`, `nonce`),
/// starting at block `counter`. Encryption and decryption are the same
/// operation.
///
/// ```
/// use dosn_crypto::chacha::chacha20_xor;
/// let key = [7u8; 32];
/// let nonce = [9u8; 12];
/// let mut buf = b"attack at dawn".to_vec();
/// chacha20_xor(&key, &nonce, 1, &mut buf);
/// assert_ne!(&buf, b"attack at dawn");
/// chacha20_xor(&key, &nonce, 1, &mut buf);
/// assert_eq!(&buf, b"attack at dawn");
/// ```
///
/// # Panics
///
/// Panics when the keystream would be exhausted: RFC 8439's block counter is
/// 32 bits, so `counter + ceil(data.len() / 64) - 1` must fit in `u32`
/// (256 GiB of keystream from counter 0). Wrapping would silently reuse
/// keystream blocks, which breaks confidentiality.
pub fn chacha20_xor(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32, data: &mut [u8]) {
    let nblocks = data.len().div_ceil(64) as u64;
    assert!(
        u64::from(counter) + nblocks <= 1u64 << 32,
        "chacha20 keystream exhausted: encrypting {} block(s) from counter {} \
         would wrap the 32-bit block counter and reuse keystream",
        nblocks,
        counter,
    );
    for (block_idx, chunk) in data.chunks_mut(64).enumerate() {
        let ks = chacha20_block(key, counter + block_idx as u32, nonce);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
}

/// A deterministic cryptographically strong RNG: the ChaCha20 keystream under
/// a seed key.
///
/// Used throughout the workspace so that every experiment and test is
/// reproducible from a seed.
///
/// ```
/// use dosn_crypto::chacha::SecureRng;
/// use rand::RngCore;
/// let mut a = SecureRng::from_seed([1u8; 32]);
/// let mut b = SecureRng::from_seed([1u8; 32]);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct SecureRng {
    key: [u8; KEY_LEN],
    counter: u64,
    buffer: [u8; 64],
    offset: usize,
}

impl SecureRng {
    /// Creates a deterministic RNG from a 32-byte seed.
    pub fn from_seed(seed: [u8; KEY_LEN]) -> Self {
        SecureRng {
            key: seed,
            counter: 0,
            buffer: [0; 64],
            offset: 64,
        }
    }

    /// Creates a deterministic RNG from a `u64` seed (convenience for tests
    /// and experiment harnesses).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut s = [0u8; KEY_LEN];
        s[..8].copy_from_slice(&seed.to_le_bytes());
        s[8..16].copy_from_slice(&seed.to_be_bytes());
        Self::from_seed(crate::sha256::sha256(&s))
    }

    fn refill(&mut self) {
        // Nonce encodes the block counter; key stays fixed.
        let mut nonce = [0u8; NONCE_LEN];
        nonce[..8].copy_from_slice(&self.counter.to_le_bytes());
        self.buffer = chacha20_block(&self.key, 0, &nonce);
        self.counter = self.counter.wrapping_add(1);
        self.offset = 0;
    }

    /// Returns a fresh 32-byte key from the stream.
    pub fn gen_key(&mut self) -> [u8; 32] {
        let mut k = [0u8; 32];
        self.fill_bytes(&mut k);
        k
    }

    /// Returns a fresh 12-byte nonce from the stream.
    pub fn gen_nonce(&mut self) -> [u8; NONCE_LEN] {
        let mut n = [0u8; NONCE_LEN];
        self.fill_bytes(&mut n);
        n
    }
}

impl RngCore for SecureRng {
    fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill_bytes(&mut b);
        u32::from_le_bytes(b)
    }

    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut written = 0;
        while written < dest.len() {
            if self.offset == 64 {
                self.refill();
            }
            let take = (64 - self.offset).min(dest.len() - written);
            dest[written..written + take]
                .copy_from_slice(&self.buffer[self.offset..self.offset + take]);
            self.offset += take;
            written += take;
        }
    }
}

impl CryptoRng for SecureRng {}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    #[test]
    fn xor_at_last_valid_block_succeeds() {
        // counter = u32::MAX with one block of data touches exactly the last
        // valid keystream block; it must encrypt, not panic, and must agree
        // with the tail of a two-block run that starts one counter earlier.
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let mut last = [0u8; 64];
        chacha20_xor(&key, &nonce, u32::MAX, &mut last);
        let mut two = [0u8; 128];
        chacha20_xor(&key, &nonce, u32::MAX - 1, &mut two);
        assert_eq!(&two[64..], &last[..]);
        // Shorter-than-a-block tails at the boundary are fine too.
        let mut tail = [0u8; 5];
        chacha20_xor(&key, &nonce, u32::MAX, &mut tail);
        assert_eq!(tail, last[..5]);
    }

    #[test]
    #[should_panic(expected = "keystream exhausted")]
    fn xor_past_last_block_panics() {
        // One byte past the last block would wrap the counter to 0 and reuse
        // the first keystream block.
        let mut buf = [0u8; 65];
        chacha20_xor(&[0u8; 32], &[0u8; 12], u32::MAX, &mut buf);
    }

    #[test]
    fn rfc8439_block_test_vector() {
        // RFC 8439 §2.3.2
        let mut key = [0u8; 32];
        for (i, k) in key.iter_mut().enumerate() {
            *k = i as u8;
        }
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let block = chacha20_block(&key, 1, &nonce);
        assert_eq!(
            hex(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_encryption_test_vector() {
        // RFC 8439 §2.4.2
        let mut key = [0u8; 32];
        for (i, k) in key.iter_mut().enumerate() {
            *k = i as u8;
        }
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it."
            .to_vec();
        chacha20_xor(&key, &nonce, 1, &mut data);
        assert_eq!(
            hex(&data[..64]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
        );
    }

    #[test]
    fn xor_roundtrip_various_lengths() {
        let key = [3u8; 32];
        let nonce = [5u8; 12];
        for len in [0usize, 1, 63, 64, 65, 128, 1000] {
            let original: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
            let mut buf = original.clone();
            chacha20_xor(&key, &nonce, 0, &mut buf);
            if len > 0 {
                assert_ne!(buf, original, "len {len}");
            }
            chacha20_xor(&key, &nonce, 0, &mut buf);
            assert_eq!(buf, original, "len {len}");
        }
    }

    #[test]
    fn rng_determinism_and_divergence() {
        let mut a = SecureRng::seed_from_u64(7);
        let mut b = SecureRng::seed_from_u64(7);
        let mut c = SecureRng::seed_from_u64(8);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn rng_fill_crosses_block_boundaries() {
        let mut r = SecureRng::seed_from_u64(1);
        let mut big = vec![0u8; 200];
        r.fill_bytes(&mut big);
        let mut r2 = SecureRng::seed_from_u64(1);
        let mut parts = vec![0u8; 200];
        for chunk in parts.chunks_mut(7) {
            r2.fill_bytes(chunk);
        }
        assert_eq!(big, parts);
    }

    #[test]
    fn rng_bytes_look_uniform() {
        // Cheap sanity check: no byte value absent across 64 KiB.
        let mut r = SecureRng::seed_from_u64(99);
        let mut counts = [0u32; 256];
        let mut buf = vec![0u8; 65536];
        r.fill_bytes(&mut buf);
        for b in buf {
            counts[b as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 128));
    }
}
