//! Quick-mode E9 exponentiation-engine ablation.
//!
//! A self-timed (no Criterion) version of the `e9_ablations` modpow sweep
//! that finishes in seconds and writes machine-readable results to
//! `BENCH_2.json`, so CI can track the perf trajectory as an artifact.
//!
//! Usage: `cargo run --release -p dosn-bench --bin e9_quick [--fast] [OUT]`
//!
//! `--fast` cuts iteration counts for CI; `OUT` overrides the output path
//! (default `BENCH_2.json` in the working directory).

use dosn_bench::{table_header, table_row};
use dosn_bigint::{BigUint, ModContext};
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::{GroupSize, SchnorrGroup};
use dosn_obs::{Registry, RunReport, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Median-of-runs wall time per op in nanoseconds.
fn time_ns<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    // One warmup call keeps lazy initialization out of the measurement.
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

struct Row {
    bits: u64,
    path: &'static str,
    ns_per_op: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_2.json".to_string());

    let mut rows: Vec<Row> = Vec::new();

    // --- Raw engine paths on the real group moduli -------------------------
    // Dense, full-width operands: a sparse exponent (mostly zero bits) or a
    // modulus of the form 2^k − c would flatter some paths (fixed-base skips
    // zero digits; division by 2^k − c is nearly free) and skew the ablation.
    for (size, bits) in [
        (GroupSize::Demo, 512u64),
        (GroupSize::Legacy, 1024),
        (GroupSize::Standard, 2048),
    ] {
        let iters = match (bits, fast) {
            (512, false) => 40,
            (512, true) => 10,
            (1024, false) => 12,
            (1024, true) => 4,
            (_, false) => 4,
            (_, true) => 2,
        };
        let m = SchnorrGroup::with_size(size).modulus().clone();
        let base = &m / &BigUint::from(3u64);
        let e = &m / &BigUint::from(7u64);
        let ctx = ModContext::new(&m);
        let table = ctx.precompute(&base, bits);
        let base2 = &m / &BigUint::from(5u64);
        let e2 = &m / &BigUint::from(11u64);

        type Path<'a> = (&'static str, Box<dyn FnMut() + 'a>);
        let paths: Vec<Path<'_>> = vec![
            (
                "binary_division",
                Box::new(|| {
                    // The pre-engine baseline: bit-at-a-time with division.
                    let mut r = BigUint::one();
                    for i in (0..e.bits()).rev() {
                        r = &(&r * &r) % &m;
                        if e.bit(i) {
                            r = &(&r * &base) % &m;
                        }
                    }
                    black_box(r);
                }),
            ),
            (
                "windowed_division",
                Box::new(|| {
                    black_box(base.modpow_plain(&e, &m));
                }),
            ),
            (
                "ctx_windowed",
                Box::new(|| {
                    black_box(ctx.pow(&base, &e));
                }),
            ),
            (
                "fixed_base",
                Box::new(|| {
                    black_box(table.pow(&e));
                }),
            ),
            (
                "two_pows",
                Box::new(|| {
                    black_box(ctx.mul(&ctx.pow(&base, &e), &ctx.pow(&base2, &e2)));
                }),
            ),
            (
                "multi_exp",
                Box::new(|| {
                    black_box(ctx.pow_multi(&[(&base, &e), (&base2, &e2)]));
                }),
            ),
        ];
        for (path, mut f) in paths {
            rows.push(Row {
                bits,
                path,
                ns_per_op: time_ns(iters, &mut f),
            });
        }
    }

    // --- End-to-end pow_g through SchnorrGroup ----------------------------
    // The acceptance headline: repeated same-group g^x at each size, cached
    // engine (group context + fixed-base table) vs a one-shot
    // `BigUint::modpow`, which builds its context per call.
    let obs = Registry::new();
    let mut powg_rows: Vec<Row> = Vec::new();
    for (size, bits) in [
        (GroupSize::Demo, 512u64),
        (GroupSize::Legacy, 1024),
        (GroupSize::Standard, 2048),
    ] {
        let iters = match (bits, fast) {
            (512, false) => 40,
            (512, true) => 10,
            (1024, false) => 12,
            (1024, true) => 4,
            (_, false) => 4,
            (_, true) => 2,
        };
        let group = SchnorrGroup::with_size(size);
        let mut rng = SecureRng::seed_from_u64(0xE9);
        let x = group.random_scalar(&mut rng);
        powg_rows.push(Row {
            bits,
            path: "pow_g_percall",
            ns_per_op: time_ns(iters, || {
                black_box(group.generator().modpow(&x, group.modulus()));
            }),
        });
        powg_rows.push(Row {
            bits,
            path: "pow_g_cached_engine",
            ns_per_op: time_ns(iters, || {
                black_box(group.pow_g(&x));
            }),
        });
        // Publish the group's pow-cache hit/miss counters; each size
        // re-registers, so the report carries the last (2048-bit) group's
        // tallies as representative cache behaviour.
        group.register_obs(&obs);
    }

    // --- Report -----------------------------------------------------------
    table_header(
        "E9: exponentiation-engine ablation (quick mode)",
        &["bits", "path", "ns/op", "vs binary_division"],
    );
    for bits in [512u64, 1024, 2048] {
        let baseline = rows
            .iter()
            .find(|r| r.bits == bits && r.path == "binary_division")
            .map(|r| r.ns_per_op)
            .unwrap_or(f64::NAN);
        for r in rows.iter().filter(|r| r.bits == bits) {
            table_row(&[
                r.bits.to_string(),
                r.path.to_string(),
                format!("{:.0}", r.ns_per_op),
                format!("{:.2}x", baseline / r.ns_per_op),
            ]);
        }
    }
    table_header(
        "E9: repeated same-group pow_g (cached engine vs one-shot modpow)",
        &["bits", "path", "ns/op"],
    );
    for r in &powg_rows {
        table_row(&[
            r.bits.to_string(),
            r.path.to_string(),
            format!("{:.0}", r.ns_per_op),
        ]);
    }

    let speedup_1024 = {
        let percall = powg_rows
            .iter()
            .find(|r| r.bits == 1024 && r.path == "pow_g_percall")
            .map(|r| r.ns_per_op)
            .unwrap_or(f64::NAN);
        let cached = powg_rows
            .iter()
            .find(|r| r.bits == 1024 && r.path == "pow_g_cached_engine")
            .map(|r| r.ns_per_op)
            .unwrap_or(f64::NAN);
        percall / cached
    };
    println!("\nheadline: pow_g@1024 cached-engine speedup = {speedup_1024:.2}x (target >= 2x)");

    // --- BENCH_2.json: schema-versioned RunReport --------------------------
    // The gate (bench_gate) compares the headline against the committed
    // baseline using the tolerance declared here: a >30% drop in the cached
    // engine's speedup fails CI.
    let mut report = RunReport::new("E9-quick exponentiation engine ablation", fast);
    report.set_headline("powg_1024_speedup", speedup_1024, true, 0.30);
    report.record_registry(&obs);
    for r in rows.iter().chain(powg_rows.iter()) {
        let mut row = BTreeMap::new();
        row.insert("bits".to_string(), Value::from(r.bits));
        row.insert("path".to_string(), Value::from(r.path));
        row.insert("ns_per_op".to_string(), Value::from(r.ns_per_op));
        report.add_row(row);
    }
    report
        .save(Path::new(&out_path))
        .expect("write bench report");
    println!("wrote {out_path}");

    if speedup_1024 < 2.0 {
        eprintln!("WARNING: pow_g@1024 speedup below the 2x acceptance target");
    }
}
