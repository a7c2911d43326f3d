//! Windowed exponentiation kernels shared by every reduction backend.
//!
//! A bit-at-a-time loop costs one squaring per bit plus a multiplication
//! per set bit, ~1.5 products per bit. The sliding-window form here keeps
//! the squaring chain but batches multiplications: with a width-`w` window
//! it performs one multiplication per ~`w` bits plus a `2^{w-1}`-entry
//! odd-power table, cutting total products by ~25–30% at the 512–2048-bit
//! exponents the crypto layer uses. The kernels are generic over [`Arith`],
//! so the Montgomery and division backends share one copy of each walk (and
//! one set of tests), and they work on rows of limbs in one buffer allocated
//! up front: a walk allocates nothing itself, whatever the exponent's
//! length, and under the Montgomery arithmetic neither does a product (the
//! division arithmetic builds a `BigUint` product and remainder each time).

use crate::BigUint;

/// The arithmetic a kernel runs in. A residue is a row of [`Arith::limbs`]
/// limbs, reduced, in whatever form the arithmetic multiplies in; `scratch`
/// is `2 · limbs` limbs the caller owns. Two implementors: Montgomery
/// (`MontgomeryContext`) and division (`modular::Division`).
pub(crate) trait Arith {
    /// Limbs per residue.
    fn limbs(&self) -> usize;
    /// Writes the residue of `x` (any size; reduced here) to `out`.
    fn enter(&self, out: &mut [u64], x: &BigUint, scratch: &mut [u64]);
    /// `out ← a · b`.
    fn mul(&self, out: &mut [u64], a: &[u64], b: &[u64]);
    /// `out ← a²`.
    fn sqr(&self, out: &mut [u64], a: &[u64], scratch: &mut [u64]);
    /// The plain value of the residue `x`.
    fn leave(&self, x: &[u64], scratch: &mut [u64]) -> BigUint;
}

/// Limbs a kernel run over a `rows`-row table needs: the table, the two
/// buffers of the running value, and the arithmetic's scratch.
pub(crate) fn workspace<A: Arith>(arith: &A, rows: usize) -> Vec<u64> {
    vec![0u64; (rows + 4) * arith.limbs()]
}

/// The running value of one kernel run. It ping-pongs between two rows —
/// each product reads `cur` and writes `nxt` — and is the identity, with
/// nothing to square, until the first factor arrives.
pub(crate) struct Acc<'a, A> {
    arith: &'a A,
    cur: &'a mut [u64],
    nxt: &'a mut [u64],
    scratch: &'a mut [u64],
    started: bool,
}

impl<'a, A: Arith> Acc<'a, A> {
    /// Splits a [`workspace`] into its table and the running value.
    pub(crate) fn carve(arith: &'a A, buf: &'a mut [u64], rows: usize) -> (&'a mut [u64], Self) {
        let k = arith.limbs();
        let (table, rest) = buf.split_at_mut(rows * k);
        let (cur, rest) = rest.split_at_mut(k);
        let (nxt, scratch) = rest.split_at_mut(k);
        let acc = Acc {
            arith,
            cur,
            nxt,
            scratch,
            started: false,
        };
        (table, acc)
    }

    fn sqr(&mut self) {
        if self.started {
            self.arith.sqr(self.nxt, self.cur, self.scratch);
            std::mem::swap(&mut self.cur, &mut self.nxt);
        }
    }

    pub(crate) fn mul(&mut self, factor: &[u64]) {
        if self.started {
            self.arith.mul(self.nxt, self.cur, factor);
            std::mem::swap(&mut self.cur, &mut self.nxt);
        } else {
            self.cur.copy_from_slice(factor);
            self.started = true;
        }
    }

    /// The value, or `None` if no factor ever arrived.
    pub(crate) fn finish(self) -> Option<BigUint> {
        self.started
            .then(|| self.arith.leave(self.cur, self.scratch))
    }
}

/// Sliding-window width for an exponent of `exp_bits` bits.
///
/// Chosen so the odd-power table (`2^{w-1}` entries) amortizes: the table
/// costs `2^{w-1}` multiplications and saves roughly
/// `exp_bits · (1/2 − 1/(w+1))` of them.
pub(crate) fn window_width(exp_bits: u64) -> u32 {
    match exp_bits {
        0..=24 => 1,
        25..=80 => 3,
        81..=240 => 4,
        241..=768 => 5,
        _ => 6,
    }
}

/// The sliding-window decomposition of `exp`, top down: calls
/// `f(low, entry)` for each maximal window of width ≤ `w` whose lowest bit
/// (bit `low` of `exp`) is set, so its digit is odd and is power
/// `2·entry + 1` of the base — row `entry` of an odd-power table. All but
/// the last window span `w` bits with the zeros below them, so there are at
/// most `⌈bits / w⌉`.
fn for_each_window(exp: &BigUint, w: u32, mut f: impl FnMut(usize, usize)) {
    let w = i64::from(w);
    let mut i = exp.bits() as i64 - 1;
    while i >= 0 {
        if !exp.bit(i as u64) {
            i -= 1;
            continue;
        }
        let mut j = (i - w + 1).max(0);
        while !exp.bit(j as u64) {
            j += 1;
        }
        let mut digit = 0usize;
        for b in (j..=i).rev() {
            digit = (digit << 1) | usize::from(exp.bit(b as u64));
        }
        f(j as usize, digit / 2);
        i = j - 1;
    }
}

/// Fills an odd-power table whose row 0 holds `base`: row `i` becomes
/// `base^(2i+1)`. `base²` is parked in the idle half of `acc`.
fn odd_powers<A: Arith>(table: &mut [u64], acc: &mut Acc<'_, A>) {
    let k = acc.arith.limbs();
    if table.len() > k {
        acc.arith.sqr(acc.nxt, &table[..k], acc.scratch);
    }
    for i in 1..table.len() / k {
        let (done, rest) = table.split_at_mut(i * k);
        acc.arith.mul(&mut rest[..k], &done[(i - 1) * k..], acc.nxt);
    }
}

/// Left-to-right sliding-window exponentiation: `base^exp`.
///
/// Contract: `exp` is non-zero and the modulus is greater than one
/// (callers own those edge cases).
pub(crate) fn pow_sliding<A: Arith>(arith: &A, base: &BigUint, exp: &BigUint) -> BigUint {
    debug_assert!(!exp.is_zero(), "pow_sliding requires a non-zero exponent");
    let k = arith.limbs();
    let w = window_width(exp.bits());
    let rows = 1usize << (w - 1);
    let mut buf = workspace(arith, rows);
    let (odd, mut acc) = Acc::carve(arith, &mut buf, rows);
    arith.enter(&mut odd[..k], base, acc.scratch);
    odd_powers(odd, &mut acc);

    // Bit position the running value is aligned to.
    let mut at = exp.bits() as usize;
    for_each_window(exp, w, |low, entry| {
        for _ in low..at {
            acc.sqr();
        }
        acc.mul(&odd[entry * k..][..k]);
        at = low;
    });
    for _ in 0..at {
        acc.sqr();
    }
    acc.finish()
        .expect("non-zero exponent has at least one set bit")
}

/// `∏ bᵢ^eᵢ` over one shared squaring chain. `None` when every exponent is
/// zero (the caller supplies the reduced identity). Contract: modulus > 1.
pub(crate) fn pow_multi<A: Arith>(arith: &A, pairs: &[(&BigUint, &BigUint)]) -> Option<BigUint> {
    match pairs {
        // One pair is a plain power: the sliding-window kernel.
        [(base, exp)] if !exp.is_zero() => Some(pow_sliding(arith, base, exp)),
        _ => pow_interleaved(arith, pairs),
    }
}

/// Interleaved (Straus) multi-exponentiation for arbitrarily many bases.
///
/// Keeps a per-base odd-power table and decomposes each exponent offline
/// into sliding-window terms `digit · 2^shift`; the joint top-down pass
/// squares once per bit position of the longest exponent and multiplies each
/// term in at its shift. Cost is `max_bits` squarings shared across all
/// bases plus roughly `bits/(w+1) + 2^{w−1}` multiplications per base — the
/// kernel behind batch Schnorr verification, where dozens of
/// 128-bit-exponent terms ride one chain.
pub(crate) fn pow_interleaved<A: Arith>(
    arith: &A,
    pairs: &[(&BigUint, &BigUint)],
) -> Option<BigUint> {
    let max_bits = pairs.iter().map(|(_, e)| e.bits()).max().unwrap_or(0);
    if max_bits == 0 {
        return None;
    }
    let k = arith.limbs();
    // Upper bounds, so the buffers below are allocated once.
    let (mut rows, mut windows) = (0usize, 0usize);
    for (_, e) in pairs.iter().filter(|(_, e)| !e.is_zero()) {
        let w = window_width(e.bits());
        rows += 1 << (w - 1);
        windows += e.bits().div_ceil(u64::from(w)) as usize;
    }
    let mut buf = workspace(arith, rows);
    let (tables, mut acc) = Acc::carve(arith, &mut buf, rows);

    // The terms to multiply in at each shift, as one linked list per shift:
    // `head[s]` is the last term filed under shift `s`, and a term is
    // (the term filed there before it, the table row it multiplies by).
    const END: u32 = u32::MAX;
    let mut head = vec![END; max_bits as usize];
    let mut terms: Vec<(u32, u32)> = Vec::with_capacity(windows);
    let mut first = 0usize;
    for (base, exp) in pairs.iter().filter(|(_, e)| !e.is_zero()) {
        let mut top_entry = 0usize;
        for_each_window(exp, window_width(exp.bits()), |low, entry| {
            top_entry = top_entry.max(entry);
            terms.push((head[low], (first + entry) as u32));
            head[low] = (terms.len() - 1) as u32;
        });
        // Odd powers only as far as this exponent's largest digit reaches.
        let table = &mut tables[first * k..][..(top_entry + 1) * k];
        arith.enter(&mut table[..k], base, acc.scratch);
        odd_powers(table, &mut acc);
        first += top_entry + 1;
    }

    for s in (0..max_bits as usize).rev() {
        acc.sqr();
        let mut t = head[s];
        while t != END {
            let (before, row) = terms[t as usize];
            acc.mul(&tables[row as usize * k..][..k]);
            t = before;
        }
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::Division;

    fn pairs<'a>(bases: &'a [BigUint], exps: &'a [BigUint]) -> Vec<(&'a BigUint, &'a BigUint)> {
        bases.iter().zip(exps).collect()
    }

    fn naive_pow(base: &BigUint, exp: u64, m: &BigUint) -> BigUint {
        let mut r = &BigUint::one() % m;
        for _ in 0..exp {
            r = &(&r * base) % m;
        }
        r
    }

    #[test]
    fn sliding_matches_naive_small() {
        let m = BigUint::from(1_000_003u64);
        for base in [0u64, 1, 2, 7, 1_000_002] {
            for exp in [1u64, 2, 3, 15, 16, 17, 64, 255, 1000] {
                let b = &BigUint::from(base) % &m;
                let got = pow_sliding(&Division(&m), &b, &BigUint::from(exp));
                assert_eq!(got, naive_pow(&b, exp, &m), "base={base} exp={exp}");
            }
        }
    }

    #[test]
    fn interleaved_matches_product_of_naive_many_bases() {
        let m = BigUint::from(999_999_937u64);
        let mut bases = Vec::new();
        let mut exps = Vec::new();
        // 12 bases with a spread of exponent sizes including zero.
        for k in 0..12u64 {
            bases.push(&BigUint::from(3 + 17 * k * k) % &m);
            exps.push(match k % 4 {
                0 => 0u64,
                1 => k + 1,
                2 => 0xdead + k,
                _ => 1_048_575 + k * 7,
            });
        }
        let exp_big: Vec<BigUint> = exps.iter().map(|&e| BigUint::from(e)).collect();
        let got = pow_interleaved(&Division(&m), &pairs(&bases, &exp_big)).unwrap();
        let mut expect = BigUint::one();
        for (b, &e) in bases.iter().zip(exps.iter()) {
            expect = &(&expect * &naive_pow(b, e, &m)) % &m;
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn interleaved_all_zero_exponents_is_none() {
        let m = BigUint::from(97u64);
        let z = BigUint::zero();
        let bases = [BigUint::from(3u64), BigUint::from(5u64)];
        assert!(pow_interleaved(&Division(&m), &[(&bases[0], &z), (&bases[1], &z)]).is_none());
    }

    #[test]
    fn window_width_is_monotone() {
        let mut prev = 0;
        for bits in [1u64, 24, 25, 80, 81, 240, 241, 768, 769, 4096] {
            let w = window_width(bits);
            assert!(w >= prev, "width must not shrink with exponent size");
            prev = w;
        }
    }
}
