//! SHA-256 per FIPS 180-4.
//!
//! Two compression functions sit under one hasher: the from-scratch
//! portable one, and on x86_64 CPUs with the SHA extensions a hardware one
//! (`sha` + `ssse3` + `sse4.1`), picked at run time. They produce the same
//! bytes; the test module holds the hardware path to the portable one.

use std::cell::Cell;

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes (used by HMAC).
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

thread_local! {
    static COMPRESSIONS: Cell<u64> = const { Cell::new(0) };
}

/// The SHA-256 compressions (64-byte blocks) run on the calling thread so
/// far, by every hasher on either path: a cost counter, read as the
/// difference across the code being counted.
///
/// ```
/// use dosn_crypto::sha256::{compressions, sha256};
///
/// let before = compressions();
/// sha256(&[0u8; 100]); // 100 bytes + padding = two blocks
/// assert_eq!(compressions() - before, 2);
/// ```
pub fn compressions() -> u64 {
    COMPRESSIONS.with(Cell::get)
}

/// Incremental SHA-256 hasher.
///
/// ```
/// use dosn_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), dosn_crypto::sha256::sha256(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == BLOCK_LEN {
                compress_blocks(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }
        // Every whole block left goes to the compression in one call.
        let (blocks, rest) = data.split_at(data.len() - data.len() % BLOCK_LEN);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffer_len = rest.len();
        }
    }

    /// Consumes the hasher, returning the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // `update` never leaves the buffer full, so the 0x80 always fits;
        // with no room left for the length it goes into a block of its own.
        let mut tail = [0u8; 2 * BLOCK_LEN];
        tail[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        tail[self.buffer_len] = 0x80;
        let end = if self.buffer_len < BLOCK_LEN - 8 {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        tail[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress_blocks(&mut self.state, &tail[..end]);
        digest_bytes(&self.state)
    }
}

fn digest_bytes(state: &[u32; 8]) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Compresses `blocks`, a whole number of 64-byte blocks, into `state`: on
/// the SHA extensions when the CPU has them, with [`compress`] otherwise.
#[allow(unsafe_code)]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    COMPRESSIONS.with(|n| n.set(n.get() + (blocks.len() / BLOCK_LEN) as u64));
    #[cfg(target_arch = "x86_64")]
    if sha_ni::available() {
        // SAFETY: the kernel is compiled for `sha`, `ssse3` and `sse4.1`,
        // and `available()` has just confirmed at run time that this CPU
        // has all three. Its body is safe code and reads `blocks` in
        // bounds-checked whole chunks.
        unsafe { sha_ni::compress_blocks(state, blocks) };
        return;
    }
    for block in blocks.chunks_exact(BLOCK_LEN) {
        compress(state, block);
    }
}

/// The portable compression of one 64-byte `block` into `state`, the
/// reference every other path is checked against.
fn compress(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (w, word) in w.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The compression on the x86 SHA extensions: `sha256rnds2` runs two
/// rounds, `sha256msg1` / `sha256msg2` extend the message schedule four
/// words at a time.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::{BLOCK_LEN, K};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_setr_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// Whether this CPU has every feature the kernel is compiled for.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Four big-endian words of `bytes` (16 bytes), the first in lane 0.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn words(bytes: &[u8]) -> __m128i {
        let w = |i: usize| i32::from_be_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
        _mm_setr_epi32(w(0), w(4), w(8), w(12))
    }

    /// Round constants `4j .. 4j + 4`, the first in lane 0.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn round_constants(j: usize) -> __m128i {
        let k = |i: usize| K[4 * j + i] as i32;
        _mm_setr_epi32(k(0), k(1), k(2), k(3))
    }

    /// [`super::compress`] over each 64-byte block of `blocks` in turn.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        let s = state.map(|word| word as i32);
        // `sha256rnds2` keeps the working variables as ABEF and CDGH,
        // each with its first letter in the top lane.
        let mut abef = _mm_set_epi32(s[0], s[1], s[4], s[5]);
        let mut cdgh = _mm_set_epi32(s[2], s[3], s[6], s[7]);
        for block in blocks.chunks_exact(BLOCK_LEN) {
            let (abef_save, cdgh_save) = (abef, cdgh);
            // As quad j (rounds 4j .. 4j + 4) starts, `w` holds schedule
            // words 4j .. 4j + 16, four to a vector.
            let mut w = [
                words(&block[..16]),
                words(&block[16..32]),
                words(&block[32..48]),
                words(&block[48..]),
            ];
            for j in 0..16 {
                let wk = _mm_add_epi32(w[0], round_constants(j));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
                // Words 4j + 16 .. 4j + 20; the last four quads need none.
                let next = if j < 12 {
                    let sigma0 = _mm_sha256msg1_epu32(w[0], w[1]);
                    let minus7 = _mm_alignr_epi8::<4>(w[3], w[2]);
                    _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, minus7), w[3])
                } else {
                    w[0]
                };
                w = [w[1], w[2], w[3], next];
            }
            abef = _mm_add_epi32(abef, abef_save);
            cdgh = _mm_add_epi32(cdgh, cdgh_save);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|word| word as u32);
    }
}

/// One-shot SHA-256.
///
/// ```
/// let d = dosn_crypto::sha256::sha256(b"abc");
/// assert_eq!(d[..4], [0xba, 0x78, 0x16, 0xbf]);
/// ```
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 over the concatenation of several segments, without allocating.
pub fn sha256_concat(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// SHA-256 by the portable compression alone, padded in one piece: the
    /// reference the hasher is held to whichever path the CPU picks.
    fn portable_sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_LEN != BLOCK_LEN - 8 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(BLOCK_LEN) {
            compress(&mut state, block);
        }
        digest_bytes(&state)
    }

    /// Whether `compress_blocks` runs the hardware kernel on this CPU; a
    /// test that compares the two paths skips, and says so, when it cannot.
    fn hardware_present() -> bool {
        #[cfg(target_arch = "x86_64")]
        if sha_ni::available() {
            return true;
        }
        eprintln!("note: this CPU has no SHA extensions; the hardware-vs-portable leg is skipped");
        false
    }

    #[test]
    fn nist_vectors() {
        // FIPS 180-4 / NIST CAVP known-answer tests.
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(hex(&sha256(input)), *expect);
            assert_eq!(hex(&portable_sha256(input)), *expect);
        }
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn update_at_every_split_point_matches_the_portable_hash() {
        let data: Vec<u8> = (0..300u16).map(|i| (i * 7 % 251) as u8).collect();
        for len in 0..=data.len() {
            let expect = portable_sha256(&data[..len]);
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..len]);
                assert_eq!(h.finalize(), expect, "len {len}, split at {split}");
            }
        }
    }

    #[test]
    fn lengths_around_block_boundary() {
        // Exercise padding logic at 55/56/57/63/64/65 bytes.
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 127, 128] {
            let data = vec![0x5au8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        fn kernel_matches_portable_compress(
            state in proptest::collection::vec(any::<u32>(), 8..9),
            blocks in 1usize..17,
            bytes in proptest::collection::vec(any::<u8>(), 16 * BLOCK_LEN..16 * BLOCK_LEN + 1),
        ) {
            let start: [u32; 8] = std::array::from_fn(|i| state[i]);
            let run = &bytes[..blocks * BLOCK_LEN];
            let mut hardware = start;
            compress_blocks(&mut hardware, run);
            let mut portable = start;
            for block in run.chunks_exact(BLOCK_LEN) {
                compress(&mut portable, block);
            }
            prop_assert_eq!(hardware, portable, "{} blocks", blocks);
        }
    }

    #[test]
    fn hardware_kernel_matches_portable_compress() {
        if hardware_present() {
            kernel_matches_portable_compress();
        }
    }

    #[test]
    fn every_block_is_counted_once() {
        let before = compressions();
        let mut h = Sha256::new();
        h.update(&[1; 10]);
        h.update(&[2; 200]); // fills the buffer, then two whole blocks
        assert_eq!(compressions() - before, 3);
        h.finalize(); // 18 bytes left: one padded block
        assert_eq!(compressions() - before, 4);
        sha256(&[0; 56]); // no room for the length: two blocks
        assert_eq!(compressions() - before, 6);
    }

    #[test]
    fn concat_helper_equals_concatenation() {
        let a = b"foo";
        let b = b"bar baz";
        let direct = sha256(b"foobar baz");
        assert_eq!(sha256_concat(&[a, b]), direct);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
        assert_ne!(sha256(b""), sha256(b"\0"));
    }
}
