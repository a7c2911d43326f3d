//! Experiment T1: regenerate the paper's Table I from the taxonomy
//! registry, proving every row maps to an implemented module.

use crate::Run;
use dosn_core::taxonomy::table1;

pub(super) fn run(run: &mut Run) {
    let rows = table1();
    run.table(
        "TABLE I: Classification of security aspects and solutions in OSNs",
        "category | aspect / solution | implemented by | experiment",
    );
    let mut last = None;
    for r in &rows {
        // As the paper prints it: a category is named on its first row.
        let category = if last == Some(r.category) {
            ""
        } else {
            r.category.display()
        };
        last = Some(r.category);
        run.row(&[
            category.into(),
            r.aspect.into(),
            r.implemented_by.into(),
            r.experiment.into(),
        ]);
    }
    println!(
        "\nrows: {} (paper: 13 — 6 privacy, 3 integrity, 4 search)",
        rows.len()
    );
}
