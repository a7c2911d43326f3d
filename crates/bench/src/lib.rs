//! The one bench harness: every experiment in EXPERIMENTS.md is a plain
//! `fn(&mut Run)` listed in `experiments::EXPERIMENTS` and driven by
//! the single `dosn-bench` binary:
//!
//! ```text
//! dosn-bench <id>|all [--fast] [OUT]      # run, print tables, write RunReport JSON
//! dosn-bench gate CURRENT.json BASELINE.json
//! dosn-bench gate --self-test BASELINE.json
//! ```
//!
//! A `Run` owns the experiment's `RunReport`, the `--fast` flag and a
//! `Registry`. `Run::row` prints a markdown table row *and* records it
//! as a JSON row in one call, `Run::time_ns` is the only timing loop,
//! and `Run::headline` is the only place a gated number is reported (its
//! direction and tolerance are the registry's).
//!
//! `OUT` is a file for one id; for `all` it is a directory that receives
//! one `BENCH_n.json` per gated experiment. Without `OUT` nothing is
//! written.

pub mod gate;

mod experiments;

use dosn_obs::{Registry, RunReport, Value};
use experiments::{Experiment, EXPERIMENTS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// One table cell: the text the markdown row prints and the value the
/// JSON row records.
pub(crate) struct Cell {
    text: String,
    value: Value,
    /// Wall-clock cells differ from run to run; everything else must not.
    wall_clock: bool,
}

impl<T: Into<Value> + ToString> From<T> for Cell {
    fn from(v: T) -> Cell {
        Cell {
            text: v.to_string(),
            value: v.into(),
            wall_clock: false,
        }
    }
}

/// A seeded (reproducible) number printed with `decimals` places; the
/// JSON row keeps the unrounded value.
pub(crate) fn num(v: f64, decimals: usize) -> Cell {
    Cell {
        text: format!("{v:.decimals$}"),
        ..Cell::from(v)
    }
}

/// A wall-clock measurement: printed and recorded like [`num`], and its
/// column marked in [`Run::wall_clock`].
pub(crate) fn wall(v: f64, decimals: usize) -> Cell {
    Cell {
        wall_clock: true,
        ..num(v, decimals)
    }
}

/// Wall time of one call in nanoseconds, with what the call returned —
/// for phases that change the system under test and cannot be repeated.
pub(crate) fn once_ns<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64)
}

/// One experiment run (see the crate docs).
pub(crate) struct Run {
    exp: &'static Experiment,
    report: RunReport,
    obs: Registry,
    table: String,
    columns: Vec<String>,
    /// The `(table, column)` pairs that hold wall-clock cells; every other
    /// cell of `report.rows` must repeat in a second run.
    wall_clock: Vec<(Value, String)>,
    /// Headlines that were refused (non-finite values).
    refused: Vec<String>,
}

impl Run {
    fn new(exp: &'static Experiment, fast: bool) -> Run {
        Run {
            exp,
            report: RunReport::new(exp.title, fast),
            obs: Registry::new(),
            table: String::new(),
            columns: Vec::new(),
            wall_clock: Vec::new(),
            refused: Vec::new(),
        }
    }

    /// `full`, or `fast` under `--fast`: every workload size goes
    /// through here.
    pub(crate) fn pick<T>(&self, full: T, fast: T) -> T {
        if self.report.fast_mode {
            fast
        } else {
            full
        }
    }

    /// The run's registry; every instrument in it lands in the report.
    pub(crate) fn obs(&self) -> &Registry {
        &self.obs
    }

    /// Starts a table. `header` is the markdown header row without its
    /// outer bars (`"scheme | n=1 | n=4"`); later rows are recorded under
    /// these column names.
    pub(crate) fn table(&mut self, title: &str, header: &str) {
        self.table = title.to_string();
        self.columns = header.split(" | ").map(String::from).collect();
        println!("\n### {title}\n| {header} |");
        println!("|{}|", vec!["---"; self.columns.len()].join("|"));
    }

    /// Prints one markdown row of the current table and records it as one
    /// JSON row (`table` → title, column name → value).
    pub(crate) fn row(&mut self, cells: &[Cell]) {
        assert_eq!(cells.len(), self.columns.len(), "row width: {}", self.table);
        let texts: Vec<&str> = cells.iter().map(|c| c.text.as_str()).collect();
        println!("| {} |", texts.join(" | "));
        let table = Value::from(self.table.as_str());
        let mut row = BTreeMap::new();
        for (column, cell) in self.columns.iter().zip(cells) {
            let mark = (table.clone(), column.clone());
            if cell.wall_clock && !self.wall_clock.contains(&mark) {
                self.wall_clock.push(mark);
            }
            row.insert(column.clone(), cell.value.clone());
        }
        row.insert("table".to_string(), table);
        self.report.add_row(row);
    }

    /// Mean wall time per call of `f` in nanoseconds: one untimed warm-up
    /// call (keeps lazy initialisation out of the number), then `iters`
    /// timed calls — a third of that, rounded up, under `--fast`.
    pub(crate) fn time_ns(&self, iters: u32, mut f: impl FnMut()) -> f64 {
        let iters = self.pick(iters, iters.div_ceil(3));
        f();
        let ((), ns) = once_ns(|| (0..iters).for_each(|_| f()));
        ns / f64::from(iters)
    }

    /// Reports the value of a gated headline. Direction and tolerance are
    /// the registry's and travel with the report (see `gate.rs`). A
    /// non-finite value is refused and fails the run: serialised it would
    /// read `0`, which clears any lower-is-better gate.
    pub(crate) fn headline(&mut self, name: &str, value: f64) {
        let declared = self.exp.headlines.iter().find(|h| h.0 == name);
        let &(_, higher_is_better, tol) =
            declared.unwrap_or_else(|| panic!("{}: undeclared headline {name}", self.exp.id));
        let dir = if higher_is_better { "higher" } else { "lower" };
        println!(
            "headline: {name} = {value:.4} ({dir} is better, tolerance {:.0}%)",
            tol * 100.0
        );
        if value.is_finite() {
            self.report.set_headline(name, value, higher_is_better, tol);
        } else {
            self.refused.push(format!("{name} = {value}"));
        }
    }

    /// Closes the run: folds the registry into the report, and refuses a
    /// report with a non-finite headline. (A headline the experiment never
    /// reported is the gate's to catch: its row reads `missing`.)
    fn finish(mut self) -> Result<RunReport, String> {
        if !self.refused.is_empty() {
            return Err(format!("non-finite headline: {}", self.refused.join(", ")));
        }
        self.report.record_registry(&self.obs);
        Ok(self.report)
    }
}

/// Runs `exp` and writes its report to `out` (if any).
fn run_one(exp: &'static Experiment, fast: bool, out: Option<PathBuf>) -> Result<(), String> {
    println!("\n## {} — {}", exp.id, exp.title);
    let mut run = Run::new(exp, fast);
    (exp.run)(&mut run);
    let report = run.finish().map_err(|e| format!("{}: {e}", exp.id))?;
    if let Some(path) = out {
        path.parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| report.save(&path))
            .map_err(|e| format!("{}: cannot write {}: {e}", exp.id, path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

const USAGE: &str = "usage: dosn-bench <id>|all [--fast] [OUT]\n       \
                     dosn-bench gate CURRENT.json BASELINE.json\n       \
                     dosn-bench gate --self-test BASELINE.json";

/// The `dosn-bench` command line (arguments without the program name).
pub fn main(args: impl Iterator<Item = String>) -> ExitCode {
    let args: Vec<String> = args.collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let Some((&what, rest)) = args.split_first() else {
        eprintln!("{USAGE}\nexperiments:");
        for e in EXPERIMENTS {
            eprintln!("  {:<10} {} {}", e.id, e.title, e.baseline.unwrap_or(""));
        }
        return ExitCode::FAILURE;
    };
    if what == "gate" {
        return gate::cli(rest);
    }
    let fast = rest.contains(&"--fast");
    let positional: Vec<&str> = rest.iter().copied().filter(|a| *a != "--fast").collect();
    let out = match positional.as_slice() {
        [] => None,
        [out] if !out.starts_with('-') => Some(Path::new(out)),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let all = what == "all";
    let selected: Vec<&'static Experiment> =
        EXPERIMENTS.iter().filter(|e| all || e.id == what).collect();
    if selected.is_empty() {
        eprintln!("dosn-bench: unknown experiment {what:?}\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let result = selected.into_iter().try_for_each(|e| {
        let file = match (out, e.baseline) {
            (Some(dir), Some(baseline)) if all => Some(dir.join(baseline)),
            (Some(file), _) if !all => Some(file.to_path_buf()),
            _ => None,
        };
        run_one(e, fast, file)
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dosn-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
