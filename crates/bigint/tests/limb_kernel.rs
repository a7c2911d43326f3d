//! The limb kernel under every exponentiation: the Montgomery arithmetic
//! allocates nothing per product, and it is right at every limb count.
//!
//! `MontgomeryContext::mul` is a pad → kernel → trim wrapper around the one
//! CIOS body, and `ModContext::pow(a, 2)` is one call of the one squaring
//! body, so the public API reaches both bodies at whichever instantiation
//! the modulus selects: fixed-size at 4, 8, 16 and 32 limbs, slices at every
//! other count. The sweep below stands on both sides of each of those.
//!
//! The allocation counter is a `#[global_allocator]` of this test binary
//! only; it counts per thread, so the tests here can run in parallel.

use dosn_bigint::{BigUint, ModContext, MontgomeryContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count() {
        // `try_with`: an allocation during thread teardown is not ours.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a `Cell` in
// const-initialised thread-local storage, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // this `layout`; all three are passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations (and reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    let made = ALLOCATIONS.with(Cell::get) - before;
    drop(result);
    made
}

/// xorshift64: the operands only have to be dense and repeatable.
struct Rng(u64);

impl Rng {
    fn limb(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn uint(&mut self, limbs: usize) -> BigUint {
        let bytes: Vec<u8> = (0..limbs).flat_map(|_| self.limb().to_be_bytes()).collect();
        BigUint::from_bytes_be(&bytes)
    }

    /// A dense odd modulus of exactly `limbs` limbs.
    fn modulus(&mut self, limbs: usize) -> BigUint {
        let top = BigUint::one() << (64 * limbs as u64 - 1);
        let m = &(&self.uint(limbs) % &top) + &top;
        if m.is_even() {
            &m + &BigUint::one()
        } else {
            m
        }
    }
}

/// Bit-at-a-time square-and-multiply with plain division: shares nothing
/// with the kernel.
fn naive_modpow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    let mut result = BigUint::one();
    let base = base % m;
    for i in (0..exp.bits()).rev() {
        result = &(&result * &result) % m;
        if exp.bit(i) {
            result = &(&result * &base) % m;
        }
    }
    result
}

#[test]
fn allocation_count_does_not_depend_on_exponent_length() {
    let mut rng = Rng(0x11b_0a11c);
    for limbs in [4usize, 32] {
        let m = rng.modulus(limbs);
        let ctx = ModContext::new(&m);
        let bases: Vec<BigUint> = (0..9).map(|_| &rng.uint(limbs) % &m).collect();
        let table = ctx.precompute(&bases[0], m.bits());
        let short = BigUint::from(0xbeefu64);
        let full = &m - &BigUint::two();
        assert_eq!((short.bits(), full.bits()), (16, m.bits()));

        // What each call allocates under the Montgomery arithmetic (these
        // moduli are odd) for bases already below the modulus, whatever the
        // exponent: `pow` and the table its workspace (window table, running
        // value and scratch in one buffer) and the result; the interleaved
        // kernel behind 2 and 9 pairs those two plus its term list and the
        // list's per-shift heads. A 256-bit exponent is ≈ 300 products and a
        // 2048-bit one ≈ 2,500, so a count that small and that flat has none
        // inside the loop. A base `≥ n` is divided once on the way in: more
        // allocations, as many for either exponent.
        let wide = &(&m * &bases[1]) + &bases[2];
        let mut counts = Vec::new();
        let mut unreduced = Vec::new();
        for exp in [&short, &full] {
            let pairs: Vec<(&BigUint, &BigUint)> = bases.iter().map(|b| (b, exp)).collect();
            counts.push([
                allocations(|| ctx.pow(&bases[0], exp)),
                allocations(|| ctx.pow_multi(&pairs[..1])),
                allocations(|| ctx.pow_multi(&pairs[..2])),
                allocations(|| ctx.pow_multi(&pairs)),
                allocations(|| table.pow(exp)),
            ]);
            unreduced.push(allocations(|| ctx.pow(&wide, exp)));
        }
        println!("{limbs} limbs: allocations per call, 16-bit | full-width exponent: {counts:?}");
        println!("{limbs} limbs: `pow` of a base ≥ n: {unreduced:?}");
        assert_eq!(counts[0], counts[1], "{limbs} limbs");
        assert_eq!(counts[0], [2, 2, 4, 4, 2], "{limbs} limbs");
        assert_eq!(unreduced[0], unreduced[1], "{limbs} limbs");
        assert!(unreduced[0] > counts[0][0], "{limbs} limbs");
    }
}

/// Limb counts on both sides of each specialised width.
const LIMB_COUNTS: [usize; 14] = [2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33];

/// Two moduli per limb count: a dense one, and `2^(64k) − c`, under which
/// operands near `n` carry out of limb `k` of the running value and end on
/// the final subtract.
fn moduli(rng: &mut Rng, limbs: usize) -> [BigUint; 2] {
    let r = BigUint::one() << (64 * limbs as u64);
    [rng.modulus(limbs), &r - &BigUint::from(59u64)]
}

/// Edge residues, operands that are out of range on purpose (`R − 1`, all
/// limbs ones, is `≥ n`; `R·n + 5` is a limb wider than `n`), and dense ones.
fn operands(rng: &mut Rng, limbs: usize, n: &BigUint) -> Vec<BigUint> {
    let r = BigUint::one() << (64 * limbs as u64);
    vec![
        BigUint::zero(),
        BigUint::one(),
        n - &BigUint::one(),
        n - &BigUint::two(),
        &r - &BigUint::one(),
        &(&r * n) + &BigUint::from(5u64),
        rng.uint(limbs),
        rng.uint(limbs + 1),
        rng.uint(limbs - 1),
    ]
}

#[test]
fn products_and_squares_match_division_at_every_limb_count() {
    let mut rng = Rng(0x5eed_cafe);
    let two = BigUint::two();
    for limbs in LIMB_COUNTS {
        for n in moduli(&mut rng, limbs) {
            let mont = MontgomeryContext::new(&n).expect("odd modulus");
            let ctx = ModContext::new(&n);
            let xs = operands(&mut rng, limbs, &n);
            for a in &xs {
                let am = mont.to_mont(a);
                assert!(am < n, "{limbs} limbs: residues stay reduced");
                assert_eq!(mont.from_mont(&am), a % &n, "{limbs} limbs: round trip");
                // The squaring body against the CIOS body against division.
                let square = mont.from_mont(&mont.mul(&am, &am));
                assert_eq!(ctx.pow(a, &two), square, "{limbs} limbs: a² of {a:?}");
                for b in &xs {
                    let got = mont.from_mont(&mont.mul(&am, &mont.to_mont(b)));
                    assert_eq!(got, &(a * b) % &n, "{limbs} limbs: {a:?} · {b:?}");
                }
            }
        }
    }
}

#[test]
fn out_of_range_operands_are_reduced_not_truncated() {
    // The public Montgomery API used to guard `a, b < n` with a
    // `debug_assert!` only: a release build read the low `k` limbs of a wider
    // operand and returned a wrong residue.
    let mut rng = Rng(0x0dd_ba11);
    for limbs in [2usize, 4, 5] {
        let n = rng.modulus(limbs);
        let mont = MontgomeryContext::new(&n).expect("odd modulus");
        let b = &rng.uint(limbs) % &n;
        let wide = rng.uint(limbs + 1);
        let r = BigUint::one() << (64 * limbs as u64);
        let between = &(&rng.uint(limbs) % &(&r - &n)) + &n;
        for a in [wide, between] {
            assert!(a >= n);
            let reduced = &a % &n;
            assert_eq!(mont.mul(&a, &b), mont.mul(&reduced, &b));
            assert_eq!(mont.mul(&b, &a), mont.mul(&b, &reduced));
            assert_eq!(mont.to_mont(&a), mont.to_mont(&reduced));
            assert_eq!(mont.from_mont(&a), mont.from_mont(&reduced));
            let product = mont.from_mont(&mont.mul(&mont.to_mont(&a), &mont.to_mont(&b)));
            assert_eq!(product, &(&a * &b) % &n);
        }
    }
}

#[test]
fn every_exponentiation_matches_the_reference_at_every_limb_count() {
    let mut rng = Rng(0xe4_9e27);
    for limbs in LIMB_COUNTS {
        for n in moduli(&mut rng, limbs) {
            let ctx = ModContext::new(&n);
            let xs = operands(&mut rng, limbs, &n);
            // A few words of exponent everywhere; full width where the
            // reference is cheap enough to run under a debug build.
            let mut exps = vec![rng.uint(1), rng.uint(3), BigUint::one()];
            if limbs <= 9 {
                exps.push(&n - &BigUint::two());
            }
            for (i, base) in xs.iter().enumerate() {
                let exp = &exps[i % exps.len()];
                let expect = naive_modpow(base, exp, &n);
                assert_eq!(ctx.pow(base, exp), expect, "{limbs} limbs: pow");
                let table = ctx.precompute(base, exp.bits());
                assert_eq!(table.pow(exp), expect, "{limbs} limbs: fixed-base");
            }
            // Both kernels `pow_multi` chooses between: sliding at 1 pair,
            // interleaved at every other count.
            let owned: Vec<(&BigUint, BigUint)> = xs.iter().map(|b| (b, rng.uint(2))).collect();
            let pairs: Vec<(&BigUint, &BigUint)> = owned.iter().map(|(b, e)| (*b, e)).collect();
            for width in [1usize, 2, 3, 9] {
                let mut expect = BigUint::one();
                for (b, e) in &pairs[..width] {
                    expect = &(&expect * &naive_modpow(b, e, &n)) % &n;
                }
                assert_eq!(
                    ctx.pow_multi(&pairs[..width]),
                    expect,
                    "{limbs} limbs: {width} pairs"
                );
            }
        }
    }
}
