//! The CI bench-regression gate: compares a fresh [`RunReport`] against a
//! committed baseline and fails on regressions beyond each headline's own
//! tolerance band.
//!
//! ```text
//! dosn-bench gate CURRENT.json BASELINE.json    # exit 0 iff no regression
//! dosn-bench gate --self-test BASELINE.json     # prove the gate catches a 2x slowdown
//! ```
//!
//! The gate logic is deliberately generic: a report's headlines carry their
//! own direction (`higher_is_better`) and tolerance, so adding a new gated
//! metric to an experiment needs no gate change — commit a baseline that
//! declares it and the gate picks it up. Every headline declared by the
//! *baseline* must be present in the current run; a bench that silently
//! stops reporting a metric fails the gate rather than passing by omission.
//!
//! `--self-test` guards the guard: it degrades the baseline's headlines by
//! 2x and verifies the gate *fails* that run. When `$GITHUB_STEP_SUMMARY`
//! is set (it is, in GitHub Actions), a normal run also appends a
//! per-headline markdown table to that file.

use dosn_obs::RunReport;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

/// One headline comparison.
#[derive(Debug, Clone)]
pub struct Check {
    /// Headline name.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value (`None` when the current run omitted the headline).
    pub current: Option<f64>,
    /// `true` if larger is better (from the baseline's declaration).
    pub higher_is_better: bool,
    /// Allowed relative regression (0.30 = 30%), from the baseline.
    pub tolerance: f64,
    /// Whether this headline passed.
    pub passed: bool,
}

impl Check {
    /// The pass/fail threshold implied by baseline, direction, and
    /// tolerance.
    pub fn limit(&self) -> f64 {
        if self.higher_is_better {
            self.baseline * (1.0 - self.tolerance)
        } else {
            self.baseline * (1.0 + self.tolerance)
        }
    }
}

/// The gate's verdict over every baseline headline.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// One entry per baseline headline, in name order.
    pub checks: Vec<Check>,
    /// Non-headline problems (schema/workload mismatches).
    pub errors: Vec<String>,
}

impl GateOutcome {
    /// `true` when every check passed and no structural error occurred.
    pub fn passed(&self) -> bool {
        self.errors.is_empty() && self.checks.iter().all(|c| c.passed)
    }

    /// The verdict as a markdown table — what the command prints and what
    /// it appends to the GitHub Actions step summary: one row per headline,
    /// plus a row per structural error.
    pub fn describe(&self, experiment: &str) -> String {
        let mut md = format!(
            "### {experiment} — {}\n\n| headline | current | baseline | limit | tolerance | result |\n|---|---|---|---|---|---|\n",
            if self.passed() { "✅ pass" } else { "❌ FAIL" },
        );
        for c in &self.checks {
            let current = c
                .current
                .map_or_else(|| "missing".to_string(), |v| format!("{v:.4}"));
            let dir = if c.higher_is_better { "≥" } else { "≤" };
            md.push_str(&format!(
                "| `{}` | {} | {:.4} | {dir} {:.4} | {:.0}% | {} |\n",
                c.name,
                current,
                c.baseline,
                c.limit(),
                c.tolerance * 100.0,
                if c.passed { "pass" } else { "**FAIL**" },
            ));
        }
        for e in &self.errors {
            md.push_str(&format!("| _error_ | {e} | | | | **FAIL** |\n"));
        }
        md
    }
}

/// Compares `current` against `baseline`. Direction and tolerance come from
/// the baseline's headline declarations; a headline missing from `current`
/// fails. Headlines `current` adds beyond the baseline are ignored (they
/// gate once a baseline declaring them is committed).
#[must_use]
pub fn check(current: &RunReport, baseline: &RunReport) -> GateOutcome {
    let mut out = GateOutcome::default();
    if current.experiment != baseline.experiment {
        out.errors.push(format!(
            "experiment mismatch: current \"{}\" vs baseline \"{}\"",
            current.experiment, baseline.experiment
        ));
    }
    if current.fast_mode != baseline.fast_mode {
        out.errors.push(format!(
            "workload mismatch: current fast_mode={} vs baseline fast_mode={} \
             (fast and full runs are not comparable)",
            current.fast_mode, baseline.fast_mode
        ));
    }
    for (name, base) in &baseline.headlines {
        let mut c = Check {
            name: name.clone(),
            baseline: base.value,
            current: current.headlines.get(name).map(|h| h.value),
            higher_is_better: base.higher_is_better,
            tolerance: base.tolerance,
            passed: false,
        };
        c.passed = c.current.is_some_and(|cur| match c.higher_is_better {
            true => cur >= c.limit(),
            false => cur <= c.limit(),
        });
        out.checks.push(c);
    }
    out
}

/// Returns a copy of `report` with every headline worsened by `factor`
/// (divided when higher is better, multiplied when lower is): the injected
/// regression used by `bench_gate --self-test` and the gate's own tests.
#[must_use]
pub fn degrade(report: &RunReport, factor: f64) -> RunReport {
    let mut worse = report.clone();
    for h in worse.headlines.values_mut() {
        if h.higher_is_better {
            h.value /= factor;
        } else {
            h.value *= factor;
        }
    }
    worse
}

fn load(path: &str) -> Result<RunReport, String> {
    RunReport::load(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

/// Appends the table to `$GITHUB_STEP_SUMMARY` when the variable is set;
/// a write failure is reported but never fails the gate itself.
fn publish_summary(table: &str) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{table}"));
    if let Err(e) = appended {
        eprintln!("gate: could not append step summary to {path}: {e}");
    }
}

/// `dosn-bench gate …` (see the module docs).
pub(crate) fn cli(args: &[&str]) -> ExitCode {
    let verdict = match args {
        ["--self-test", baseline_path] => load(baseline_path).and_then(|baseline| {
            let outcome = check(&degrade(&baseline, 2.0), &baseline);
            println!("{}", outcome.describe(&baseline.experiment));
            if outcome.passed() {
                return Err(format!(
                    "SELF-TEST FAILED — a 2x regression on every headline of \
                     {baseline_path} passed the gate"
                ));
            }
            println!("self-test ok: gate rejects a 2x slowdown against {baseline_path}");
            Ok(())
        }),
        [current_path, baseline_path] => load(current_path)
            .and_then(|c| Ok((c, load(baseline_path)?)))
            .and_then(|(current, baseline)| {
                let outcome = check(&current, &baseline);
                let table = outcome.describe(&baseline.experiment);
                println!("gate: {current_path} vs baseline {baseline_path}\n{table}");
                publish_summary(&table);
                if !outcome.passed() {
                    return Err("regression detected (see FAIL rows above)".to_string());
                }
                println!("gate: no regression beyond tolerance");
                Ok(())
            }),
        _ => Err(crate::USAGE.to_string()),
    };
    match verdict {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gate: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> RunReport {
        let mut r = RunReport::new("gate-test", true);
        r.set_headline("throughput", 1000.0, true, 0.30);
        r.set_headline("latency_us", 50.0, false, 0.30);
        r
    }

    #[test]
    fn identical_run_passes() {
        let b = baseline();
        let out = check(&b.clone(), &b);
        assert!(out.passed(), "{}", out.describe("t"));
        assert_eq!(out.checks.len(), 2);
    }

    #[test]
    fn two_x_slowdown_fails_both_directions() {
        let b = baseline();
        let out = check(&degrade(&b, 2.0), &b);
        assert!(!out.passed());
        assert!(
            out.checks.iter().all(|c| !c.passed),
            "{}",
            out.describe("t")
        );
    }

    #[test]
    fn regression_within_tolerance_passes() {
        let b = baseline();
        let mut cur = b.clone();
        cur.set_headline("throughput", 750.0, true, 0.30); // -25% < 30%
        cur.set_headline("latency_us", 60.0, false, 0.30); // +20% < 30%
        assert!(check(&cur, &b).passed());
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let b = baseline();
        let mut cur = b.clone();
        cur.set_headline("throughput", 650.0, true, 0.30); // -35% > 30%
        let out = check(&cur, &b);
        assert!(!out.passed());
        let failed: Vec<_> = out.checks.iter().filter(|c| !c.passed).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].name, "throughput");
    }

    #[test]
    fn improvement_always_passes() {
        let b = baseline();
        let mut cur = b.clone();
        cur.set_headline("throughput", 5000.0, true, 0.30);
        cur.set_headline("latency_us", 1.0, false, 0.30);
        assert!(check(&cur, &b).passed());
    }

    #[test]
    fn missing_headline_fails() {
        let b = baseline();
        let mut cur = RunReport::new("gate-test", true);
        cur.set_headline("throughput", 1000.0, true, 0.30);
        // latency_us omitted.
        let out = check(&cur, &b);
        assert!(!out.passed());
        assert!(out.describe("t").contains("| missing |"));
    }

    #[test]
    fn extra_current_headline_is_ignored() {
        let b = baseline();
        let mut cur = b.clone();
        cur.set_headline("brand_new_metric", 1.0, true, 0.1);
        let out = check(&cur, &b);
        assert!(out.passed());
        assert_eq!(out.checks.len(), 2);
    }

    #[test]
    fn workload_mismatch_is_an_error() {
        let b = baseline();
        let mut cur = b.clone();
        cur.fast_mode = false;
        let out = check(&cur, &b);
        assert!(!out.passed());
        assert!(out.describe("t").contains("workload mismatch"));
    }

    #[test]
    fn degrade_moves_every_headline_the_bad_way() {
        let worse = degrade(&baseline(), 2.0);
        assert_eq!(worse.headlines["throughput"].value, 500.0);
        assert_eq!(worse.headlines["latency_us"].value, 100.0);
    }

    /// A NaN or infinite headline serialises as `0` (`RunReport` JSON has
    /// no non-finite numbers) and `0` clears any lower-is-better gate, so
    /// `Run::headline` refuses it and the run ends without a report.
    #[test]
    fn a_non_finite_headline_fails_the_run_instead_of_reading_zero() {
        use crate::experiments::Experiment;
        static EXP: Experiment = Experiment {
            id: "gate-test",
            title: "gate-test",
            baseline: None,
            headlines: &[("latency_us", false, 0.30)],
            run: |_| {},
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut run = crate::Run::new(&EXP, true);
            run.headline("latency_us", bad);
            let err = run.finish().expect_err("refused");
            assert!(err.contains("latency_us"), "{err}");
        }
        let mut run = crate::Run::new(&EXP, true);
        run.headline("latency_us", 50.0);
        assert_eq!(run.finish().unwrap().headlines["latency_us"].value, 50.0);
    }
}
