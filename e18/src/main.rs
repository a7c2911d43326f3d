//! E18 — the repository's macro-benchmark.
//!
//! Five seeded workloads through the full stack
//! (`Engine → FeedCache/HotCache → ReplicatedStore → SocialPlane<ChordPlane>
//! → envelope crypto → bigint`) on real threads, seven end-to-end metrics
//! per workload and, in a separate traced run, a per-layer time budget.
//! See `README.md` beside this package for the workload table, the metric
//! map and the recorded baseline.
//!
//! ```text
//! e18 --workload W --seed N --seconds S --trace 0|1   one timed run (what BENCHMARK.json's command runs)
//! e18 --workload W --seed N [--scale F] --trace 0|1   one fixed-op-count run (counts repeat exactly)
//! e18 all --seed N [--scale F]                        every workload, one child process each
//! e18 trace W --seed N [--scale F]                    the traced run of one workload
//! e18 check-repeat --seed N [--scale F]               every workload twice; counts exact, timings within bounds
//! e18 list [--json]                                   workloads and metrics; fails if BENCHMARK.json differs
//! ```

mod bench;
mod layers;
mod runner;
mod spec;
mod stack;
mod stats;
mod trace;
mod workload;

use bench::{Options, Outcome};
use serde::Value;
use spec::{Better, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use workload::Kind;

/// Command-line arguments: positional words and `--flag value` pairs.
struct Args {
    words: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut words = Vec::new();
        let mut flags = BTreeMap::new();
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some("json") => {
                    flags.insert("json".to_owned(), "1".to_owned());
                }
                Some(flag) => {
                    let value = raw.next().ok_or(format!("--{flag} needs a value"))?;
                    flags.insert(flag.to_owned(), value);
                }
                None => words.push(arg),
            }
        }
        Ok(Args { words, flags })
    }

    fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.flags
            .get(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{flag}: cannot read {v:?}"))
            })
            .transpose()
    }

    fn seed(&self) -> Result<u64, String> {
        self.get("seed")?.ok_or("--seed is required".to_owned())
    }
}

fn parse_kind(name: &str) -> Result<Kind, String> {
    Kind::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })
}

/// Options of a single run, from `--workload/--seed/--seconds/--trace/--scale`.
fn run_options(args: &Args, kind: Kind, trace: bool) -> Result<Options, String> {
    let seconds = args.get::<f64>("seconds")?.filter(|s| *s > 0.0);
    let scale = match args.get::<f64>("scale")? {
        Some(s) if s > 0.0 => s,
        Some(s) => return Err(format!("--scale must be positive, got {s}")),
        None if seconds.is_some() => bench::TIMED_SCALE,
        None => 1.0,
    };
    Ok(Options {
        kind,
        seed: args.seed()?,
        scale,
        seconds,
        trace,
        workers: stack::default_workers(),
    })
}

fn json_line(outcome: &Outcome, units: &BTreeMap<&str, &str>) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                units[name]
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.violations.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Runs one workload in this process and prints its report; the last
/// stdout line is the result object.
fn run_one(opts: &Options) -> Result<bool, String> {
    println!(
        "e18 {} seed {} scale {} {} trace {} workers {} (available_parallelism {})",
        opts.kind.name(),
        opts.seed,
        opts.scale,
        opts.seconds
            .map_or("fixed op count".to_owned(), |s| format!("{s} s")),
        u8::from(opts.trace),
        opts.workers,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let outcome = if opts.trace {
        bench::run_traced(opts)?
    } else {
        bench::run_untraced(opts)?
    };
    let mut units = BTreeMap::new();
    if opts.trace {
        for m in PER_LAYER {
            units.insert(m.name, m.unit);
            println!(
                "{:<44} {:>16.4} {:<8} better {}",
                m.name,
                outcome.metrics[m.name],
                m.unit,
                m.better.as_str()
            );
        }
    } else {
        for m in END_TO_END {
            units.insert(m.name, m.unit);
            println!(
                "{:<24} {:>16.4} {:<8} better {:<6} bound {:.0}%",
                m.name,
                outcome.metrics[m.name],
                m.unit,
                m.better.as_str(),
                m.bound * 100.0
            );
        }
    }
    println!("ops_attempted: {}", outcome.attempted);
    println!("ops_failed: {}", outcome.failed);
    println!("run_digest: {}", outcome.run_digest);
    for v in &outcome.violations {
        println!("VIOLATION: {v}");
    }
    for (name, value) in &outcome.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a number"));
        }
    }
    println!("{}", json_line(&outcome, &units));
    Ok(outcome.violations.is_empty())
}

/// What a parent command keeps of a child run.
struct ChildReport {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    run_digest: String,
}

/// Runs one workload in a child process of its own, so that peak RSS and
/// allocator state never leak between workloads.
fn run_child(kind: Kind, seed: u64, scale: f64, trace: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--scale", &scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        return Err(format!(
            "the {} run failed ({})",
            kind.name(),
            output.status
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let doc = serde_json::parse(last).map_err(|e| format!("bad result line: {e}"))?;
    let uint = |key: &str| match doc.get(key) {
        Some(Value::UInt(n)) => Ok(*n),
        other => Err(format!("result line: {key} is {other:?}")),
    };
    let mut metrics = BTreeMap::new();
    if let Some(Value::Object(fields)) = doc.get("metrics") {
        for (name, entry) in fields {
            let value = match entry.get("value") {
                Some(Value::Float(x)) => *x,
                Some(Value::UInt(n)) => *n as f64,
                Some(Value::Int(n)) => *n as f64,
                other => return Err(format!("metric {name} has value {other:?}")),
            };
            metrics.insert(name.clone(), value);
        }
    }
    let run_digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("run_digest: "))
        .ok_or("child printed no run_digest")?
        .to_owned();
    Ok(ChildReport {
        metrics,
        attempted: uint("attempted")?,
        failed: uint("failed")?,
        run_digest,
    })
}

fn scale_or_default(args: &Args) -> Result<f64, String> {
    Ok(args.get::<f64>("scale")?.unwrap_or(1.0))
}

/// `e18 all`: each workload's untraced run, one child at a time.
fn run_all(args: &Args) -> Result<bool, String> {
    let (seed, scale) = (args.seed()?, scale_or_default(args)?);
    let mut reports = Vec::new();
    for kind in Kind::ALL {
        reports.push((kind, run_child(kind, seed, scale, false)?));
    }
    println!("\nE18 seed {seed} scale {scale}");
    print!("{:<24}", "metric");
    for (kind, _) in &reports {
        print!(" {:>16}", kind.name());
    }
    println!();
    for m in END_TO_END {
        print!("{:<24}", format!("{} [{}]", m.name, m.unit));
        for (_, r) in &reports {
            print!(" {:>16.3}", r.metrics[m.name]);
        }
        println!();
    }
    Ok(reports.iter().all(|(_, r)| r.failed == 0))
}

/// `e18 check-repeat`: every workload twice (untraced and traced, fixed op
/// counts); exact metrics must match exactly, timed end-to-end metrics
/// within their bound (two out of three runs when the first two disagree).
fn check_repeat(args: &Args) -> Result<bool, String> {
    let (seed, scale) = (args.seed()?, scale_or_default(args)?);
    let mut rows: Vec<String> = Vec::new();
    let mut ok = true;
    let mut row = |kind: Kind, name: &str, a: String, b: String, gap: f64, pass: bool| {
        rows.push(format!(
            "{:<16} {:<44} {:>20} {:>20} {:>9.4}% {}",
            kind.name(),
            name,
            a,
            b,
            gap * 100.0,
            if pass { "ok" } else { "FAIL" }
        ));
        pass
    };
    for kind in Kind::ALL {
        let first = (
            run_child(kind, seed, scale, false)?,
            run_child(kind, seed, scale, true)?,
        );
        let second = (
            run_child(kind, seed, scale, false)?,
            run_child(kind, seed, scale, true)?,
        );
        for (name, a, b) in [
            ("ops_attempted", first.0.attempted, second.0.attempted),
            ("ops_failed", first.0.failed, second.0.failed),
        ] {
            ok &= row(kind, name, a.to_string(), b.to_string(), 0.0, a == b);
        }
        for (name, a, b) in [
            ("run_digest", &first.0.run_digest, &second.0.run_digest),
            (
                "run_digest (traced)",
                &first.1.run_digest,
                &second.1.run_digest,
            ),
        ] {
            ok &= row(
                kind,
                name,
                a[..16].to_owned(),
                b[..16].to_owned(),
                0.0,
                a == b,
            );
        }
        ok &= row(
            kind,
            "run_digest (untraced = traced)",
            first.0.run_digest[..16].to_owned(),
            first.1.run_digest[..16].to_owned(),
            0.0,
            first.0.run_digest == first.1.run_digest,
        );
        // How much worse `b` is than `a`, as a share of `a`.
        let worse = |m: &spec::EndToEnd, a: f64, b: f64| match m.better {
            Better::Lower => (b - a) / a,
            Better::Higher => (a - b) / a,
        };
        let timed_agree = |a: &ChildReport, b: &ChildReport| {
            END_TO_END
                .iter()
                .filter(|m| !m.exact)
                .all(|m| worse(m, a.metrics[m.name], b.metrics[m.name]).abs() <= m.bound)
        };
        // The host changes speed for tens of seconds at a time. When the
        // two timed readings disagree, a third run decides: it must agree
        // with one of them on every timed metric.
        let mut tiebreak_ok = true;
        if !timed_agree(&first.0, &second.0) {
            let third = run_child(kind, seed, scale, false)?;
            tiebreak_ok = timed_agree(&first.0, &third) || timed_agree(&second.0, &third);
            ok &= row(
                kind,
                "third run agrees with the first or second",
                third.metrics["ops_per_s"].to_string(),
                String::new(),
                0.0,
                tiebreak_ok,
            );
        }
        for m in END_TO_END {
            let (a, b) = (first.0.metrics[m.name], second.0.metrics[m.name]);
            let gap = worse(m, a, b);
            let pass = if m.exact {
                a == b
            } else {
                gap.abs() <= m.bound || tiebreak_ok
            };
            ok &= row(
                kind,
                m.name,
                format!("{a:.4}"),
                format!("{b:.4}"),
                gap,
                pass,
            );
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (a, b) = (first.1.metrics[m.name], second.1.metrics[m.name]);
            ok &= row(
                kind,
                m.name,
                format!("{a:.4}"),
                format!("{b:.4}"),
                0.0,
                a == b,
            );
        }
    }
    println!(
        "\n{:<16} {:<44} {:>20} {:>20} {:>10} verdict",
        "workload", "metric", "first", "second", "worse by"
    );
    for r in rows {
        println!("{r}");
    }
    println!(
        "check-repeat seed {seed} scale {scale}: {}",
        if ok { "PASS" } else { "FAIL" }
    );
    Ok(ok)
}

/// `e18 list`: the vocabulary, checked against `BENCHMARK.json`.
fn list(args: &Args) -> Result<bool, String> {
    if args.flags.contains_key("json") {
        print!("{}", spec::benchmark_json());
        return Ok(true);
    }
    print!("{}", spec::render());
    let json = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the current directory: {e}"))?;
    spec::check_against(&json)?;
    println!("BENCHMARK.json matches");
    Ok(true)
}

fn dispatch(args: &Args) -> Result<bool, String> {
    match args.words.first().map(String::as_str) {
        None => {
            let name: String = args
                .get("workload")?
                .ok_or("--workload or a command (all, trace, check-repeat, list) is required")?;
            let trace = args.get::<u8>("trace")?.unwrap_or(0) != 0;
            run_one(&run_options(args, parse_kind(&name)?, trace)?)
        }
        Some("all") => run_all(args),
        Some("trace") => {
            let name = args.words.get(1).ok_or("trace needs a workload name")?;
            run_one(&run_options(args, parse_kind(name)?, true)?)
        }
        Some("check-repeat") => check_repeat(args),
        Some("list") => list(args),
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| dispatch(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("e18: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_social_smoke_finishes_with_no_failed_op() {
        let mut session = runner::set_up(Kind::MixedSocial, 18, 0.01, stack::default_workers())
            .expect("smoke set-up");
        // 0.01 x 40,000 ops: four pipelined groups and their feed reads.
        let calls = 4 * (1 + workload::FEEDS_PER_GROUP as u64);
        let phase = runner::measure(&mut session, runner::Limit::Calls(calls), None, None);
        assert_eq!(phase.ops_failed, 0, "{:?}", phase.first_failure);
        assert!(phase.ops_attempted >= 4 * 128);
        assert_eq!(phase.calls, calls);
    }
}
