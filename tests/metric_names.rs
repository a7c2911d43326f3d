//! Guards the metric-name vocabulary: every dotted metric-name string
//! literal passed to an instrument call anywhere in non-test source must be
//! declared as a constant in `dosn_obs::names::ALL`. Declaration sites use
//! the constants directly (compile-checked); this test catches the other
//! drift direction — a read site or a new call spelling out a name the
//! `names` module never declared.

use dosn::obs::names;
use std::fs;
use std::path::{Path, PathBuf};

/// Methods whose first string argument is a metric name.
const INSTRUMENT_CALLS: &[&str] = &[
    "record(\"",
    "record_offpath(\"",
    "bump(\"",
    "count(\"",
    "counter(\"",
    "register_counter(\"",
    "gauge(\"",
    "set_gauge(\"",
    "histogram(\"",
    "merge_histogram(\"",
    "timer(\"",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The file's source with test modules stripped: everything from the first
/// `#[cfg(test)]` on is ignored (test modules sit at the end of each file
/// in this workspace, and their literals are deliberate independent
/// cross-checks of the constants).
fn non_test_source(path: &Path) -> String {
    let text = fs::read_to_string(path).unwrap_or_default();
    match text.find("#[cfg(test)]") {
        Some(idx) => text[..idx].to_string(),
        None => text,
    }
}

fn literal_after(text: &str, call: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(call) {
        let tail = &rest[pos + call.len()..];
        if let Some(end) = tail.find('"') {
            found.push(tail[..end].to_string());
        }
        rest = &rest[pos + call.len()..];
    }
    found
}

#[test]
fn every_metric_name_literal_is_declared_in_names() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in [
        "crates/overlay/src",
        "crates/core/src/engine",
        "crates/core/src/network",
        "crates/bench/src",
        "crates/bench/benches",
        "examples",
        "src",
    ] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(
        files.len() >= 10,
        "scanner found only {} files — wrong directory layout?",
        files.len()
    );

    let mut undeclared: Vec<String> = Vec::new();
    for file in &files {
        let source = non_test_source(file);
        for call in INSTRUMENT_CALLS {
            for name in literal_after(&source, call) {
                // Only dotted lowercase names are metric names; other string
                // arguments (user names, file paths) don't match this shape.
                let is_metric_shape = name.contains('.')
                    && name.chars().all(|c| {
                        c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'
                    });
                if is_metric_shape && !names::ALL.contains(&name.as_str()) {
                    undeclared.push(format!("{}: {name}", file.display()));
                }
            }
        }
    }
    assert!(
        undeclared.is_empty(),
        "metric name literals not declared in dosn_obs::names::ALL:\n{}",
        undeclared.join("\n")
    );
}

#[test]
fn declared_names_are_actually_used_somewhere() {
    // The reverse guard: a constant nobody references is dead vocabulary.
    // Usage sites reference the constant identifier (`names::CHORD_HOP`),
    // so parse (identifier, value) pairs out of names.rs and scan all
    // workspace source (tests included — several names are only asserted
    // on) for either the identifier or the literal value.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let names_src = fs::read_to_string(root.join("crates/obs/src/names.rs")).expect("names.rs");
    let mut constants: Vec<(String, String)> = Vec::new();
    for line in names_src.lines() {
        let Some(rest) = line.trim().strip_prefix("pub const ") else {
            continue;
        };
        let Some((ident, tail)) = rest.split_once(':') else {
            continue;
        };
        // Retired: fed by nothing and deliberately not in `ALL`; declared
        // only because the `e18` benchmark package imports it.
        if ident.trim() == "ENGINE_PIPELINE_OVERLAP" {
            assert!(!names::ALL.contains(&names::ENGINE_PIPELINE_OVERLAP));
            continue;
        }
        if let Some(value) = tail.split('"').nth(1) {
            constants.push((ident.trim().to_string(), value.to_string()));
        }
    }
    assert_eq!(
        constants.len(),
        names::ALL.len(),
        "names.rs parse out of sync with names::ALL"
    );

    let mut files = Vec::new();
    for dir in ["crates", "examples", "src", "tests"] {
        rust_files(&root.join(dir), &mut files);
    }
    let corpus: String = files
        .iter()
        .filter(|p| !p.ends_with("names.rs") && !p.ends_with("metric_names.rs"))
        .map(|p| fs::read_to_string(p).unwrap_or_default())
        .collect();
    let unused: Vec<&str> = constants
        .iter()
        .filter(|(ident, value)| {
            !corpus.contains(&format!("names::{ident}"))
                && !corpus.contains(&format!("\"{value}\""))
        })
        .map(|(ident, _)| ident.as_str())
        .collect();
    assert!(
        unused.is_empty(),
        "names::ALL constants never used anywhere: {unused:?}"
    );
}
