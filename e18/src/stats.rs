//! Small numeric helpers shared by the generator, the runner and the
//! layer section: percentiles, medians, a zipf sampler and the
//! deterministic post-body generator.

use rand::rngs::StdRng;
use rand::Rng;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` of the samples at or below it. `p` in `(0, 1]`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Zipf(1.0) sampler over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "zipf over an empty population");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / (r + 1) as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Probability mass of rank `r`.
    #[cfg(test)]
    pub fn mass(&self, r: usize) -> f64 {
        self.cdf[r] - if r == 0 { 0.0 } else { self.cdf[r - 1] }
    }
}

/// Fisher–Yates shuffle driven by the workload RNG.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Lower-case text of `min..=max` bytes, a pure function of `key`.
fn text(key: u64, min: usize, max: usize) -> String {
    const ALPHABET: &[u8; 32] = b"abcdefghijklmnopqrstuvwxyz  eatn";
    let mut state = key;
    let len = min + (splitmix(&mut state) % (max - min + 1) as u64) as usize;
    let mut out = String::with_capacity(len);
    let mut word = 0u64;
    for i in 0..len {
        if i % 12 == 0 {
            word = splitmix(&mut state);
        }
        out.push(ALPHABET[(word & 31) as usize] as char);
        word >>= 5;
    }
    out
}

/// The body of `author`'s post `seq`: 200–300 bytes derived from
/// `(author, seq, seed)`, so the harness knows every expected plaintext.
pub fn post_body(seed: u64, author: u32, seq: u32) -> String {
    let key = seed ^ (u64::from(author) << 32 | u64::from(seq)).wrapping_mul(0xa076_1d64_78bd_642f);
    text(key, 200, 300)
}

/// A comment body (40–80 bytes), a pure function of its position in the
/// op stream.
pub fn comment_body(seed: u64, index: u64) -> String {
    text(
        seed ^ index.wrapping_mul(0xe703_7ed1_a0b4_28db) ^ 0xc0,
        40,
        80,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn percentile_on_known_vectors() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.5), 5);
        assert_eq!(percentile(&v, 0.9), 9);
        assert_eq!(percentile(&v, 0.99), 10);
        assert_eq!(percentile(&v, 1.0), 10);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.51), 3);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn zipf_rank_one_mass_matches_theory() {
        let n = 2_000;
        let zipf = Zipf::new(n);
        let harmonic: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let theory = 1.0 / harmonic;
        assert!((zipf.mass(0) - theory).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(18);
        let draws = 400_000;
        let hits = (0..draws).filter(|_| zipf.sample(&mut rng) == 0).count();
        let observed = hits as f64 / draws as f64;
        assert!(
            (observed - theory).abs() / theory < 0.02,
            "rank-1 mass {observed:.5} vs theory {theory:.5}"
        );
    }

    #[test]
    fn bodies_are_deterministic_and_sized() {
        for (a, s) in [(0u32, 0u32), (7, 3), (1999, 40)] {
            let b = post_body(42, a, s);
            assert_eq!(b, post_body(42, a, s));
            assert!((200..=300).contains(&b.len()), "{}", b.len());
        }
        assert_ne!(post_body(42, 1, 2), post_body(42, 2, 1));
        assert_ne!(post_body(42, 1, 2), post_body(43, 1, 2));
    }
}
