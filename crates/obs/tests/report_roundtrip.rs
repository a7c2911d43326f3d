//! Property tests for `RunReport` JSON stability: serialization is
//! deterministic (the same report always produces the same bytes), a
//! parse → re-serialize cycle is byte-identical, and the typed content
//! survives the round trip exactly — across randomized metric names,
//! counter magnitudes (including > 2^53, where an eager f64 conversion
//! would corrupt), float values, and string rows with escapes. The gate
//! reads these files from disk, so the parser must also survive anything:
//! arbitrary bytes and damaged reports return `Ok` or `Err`, never panic.

use std::collections::BTreeMap;

use dosn_obs::{Histogram, Registry, ReportError, RunReport, Summary, Value};
use proptest::prelude::*;

fn name_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..36, 1..12).prop_map(|parts| {
        parts
            .iter()
            .map(|p| {
                if *p < 26 {
                    (b'a' + p) as char
                } else if *p < 35 {
                    (b'0' + (p - 26)) as char
                } else {
                    '.'
                }
            })
            .collect::<String>()
            .trim_matches('.')
            .to_string()
    })
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i32>().prop_map(|v| Value::Num(v as f64)),
        any::<bool>().prop_map(Value::Bool),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(|bytes| {
            // Arbitrary printable-and-escape-heavy strings.
            Value::Str(
                bytes
                    .iter()
                    .map(|b| match b % 8 {
                        0 => '"',
                        1 => '\\',
                        2 => '\n',
                        3 => '\t',
                        4 => 'é',
                        _ => (b'a' + (b % 26)) as char,
                    })
                    .collect(),
            )
        }),
    ]
}

fn report_strategy() -> impl Strategy<Value = RunReport> {
    (
        (name_strategy(), any::<bool>()),
        proptest::collection::vec((name_strategy(), any::<i32>(), any::<bool>()), 0..4),
        proptest::collection::vec((name_strategy(), any::<u64>()), 0..6),
        proptest::collection::vec((name_strategy(), any::<i64>()), 0..4),
        proptest::collection::vec(
            (name_strategy(), any::<u64>(), any::<u64>(), any::<u64>()),
            0..4,
        ),
        proptest::collection::vec(
            proptest::collection::vec((name_strategy(), value_strategy()), 0..4),
            0..3,
        ),
    )
        .prop_map(
            |((experiment, fast), headlines, counters, gauges, hists, rows)| {
                let mut r = RunReport::new(&experiment, fast);
                for (name, v, dir) in headlines {
                    // Tolerances and values from a grid of exact decimals.
                    r.set_headline(&name, v as f64 / 8.0, dir, 0.25);
                }
                for (name, v) in counters {
                    r.counters.insert(name, v);
                }
                for (name, v) in gauges {
                    r.gauges.insert(name, v as f64 / 4.0);
                }
                for (name, p50, count, max) in hists {
                    r.histograms.insert(
                        name,
                        Summary {
                            count,
                            mean: (count as f64) / 2.0,
                            p50,
                            p95: p50.saturating_add(1),
                            p99: p50.saturating_add(2),
                            max,
                        },
                    );
                }
                for row in rows {
                    r.add_row(row.into_iter().collect::<BTreeMap<_, _>>());
                }
                r
            },
        )
}

proptest! {
    #[test]
    fn serialization_is_deterministic(r in report_strategy()) {
        prop_assert_eq!(r.to_json(), r.clone().to_json());
    }

    #[test]
    fn round_trip_is_byte_identical(r in report_strategy()) {
        let json = r.to_json();
        let back = RunReport::from_json(&json)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}\n{json}")))?;
        prop_assert_eq!(&back, &r, "typed content must survive");
        prop_assert_eq!(back.to_json(), json, "bytes must survive");
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = RunReport::from_json(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn a_damaged_report_never_panics(
        r in report_strategy(),
        at in any::<u32>(),
        byte in any::<u8>(),
        truncate in any::<bool>(),
    ) {
        let mut bytes = r.to_json().into_bytes();
        let at = at as usize % bytes.len();
        if truncate {
            bytes.truncate(at);
        } else {
            bytes[at] = byte;
        }
        let _ = RunReport::from_json(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn big_counters_survive_exactly(v in any::<u64>()) {
        let mut r = RunReport::new("counters", false);
        r.counters.insert("big".into(), v);
        let back = RunReport::from_json(&r.to_json()).unwrap();
        prop_assert_eq!(back.counters["big"], v);
    }
}

/// End-to-end determinism: two registries fed the identical sample stream
/// produce byte-identical reports.
#[test]
fn same_run_same_bytes() {
    let build = || {
        let reg = Registry::new();
        reg.counter("chord.hop").add(17);
        reg.set_gauge("availability", 0.97);
        let mut lat = Histogram::new();
        for v in [120u64, 340, 95, 2048, 77] {
            lat.record(v);
        }
        reg.merge_histogram("net.post", &lat);
        let mut r = RunReport::new("E13 determinism", true);
        r.set_headline("posts_per_sec", 4096.0, true, 0.30);
        r.record_registry(&reg);
        let mut row = BTreeMap::new();
        row.insert("overlay".to_string(), Value::from("chord"));
        row.insert("r".to_string(), Value::from(3u64));
        r.add_row(row);
        r.to_json()
    };
    assert_eq!(build(), build());
}

fn parse_error(json: &str) -> String {
    match RunReport::from_json(json) {
        Err(ReportError::Parse(msg)) => msg,
        other => panic!("expected a parse error, got {other:?}"),
    }
}

/// Regression: `value → array → value` recursed without a bound, so this
/// input overflowed the stack and aborted the process.
#[test]
fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
    assert!(parse_error(&"[".repeat(200_000)).contains("nesting deeper"));
    assert!(parse_error(&"{\"a\":".repeat(200_000)).contains("nesting deeper"));
    // Nesting as deep as the schema's own still parses.
    let mut r = RunReport::new("depth", true);
    r.set_headline("h", 1.0, true, 0.1);
    assert!(RunReport::from_json(&r.to_json()).is_ok());
}

/// Regression: `\u` took whatever `from_str_radix` takes (a sign), and a
/// number token could parse to infinity.
#[test]
fn lone_escapes_and_infinite_numbers_are_parse_errors() {
    let with_name = |name: &str| RunReport::new("x", false).to_json().replace("\"x\"", name);
    assert!(RunReport::from_json(&with_name("\"\\u0041\"")).is_ok());
    for bad in [
        "\"\\u+123\"",
        "\"\\u-123\"",
        "\"\\u12\"",
        "\"\\ud800\"",
        "\"\\q\"",
    ] {
        parse_error(&with_name(bad));
    }
    let with_gauge = |tok: &str| {
        RunReport::new("x", false)
            .to_json()
            .replace("\"gauges\": {}", &format!("\"gauges\": {{\"g\": {tok}}}"))
    };
    assert!(RunReport::from_json(&with_gauge("1e300")).is_ok());
    assert!(parse_error(&with_gauge("1e999")).contains("invalid number"));
    assert!(parse_error(&with_gauge("-1e999")).contains("invalid number"));
}

/// Regression: every character of a string re-validated the whole rest of
/// the input as UTF-8 — quadratic; 2 MB of string took minutes.
#[test]
fn a_long_string_parses_in_one_pass() {
    let r = RunReport::new(&"é\"x".repeat(500_000), false);
    assert_eq!(RunReport::from_json(&r.to_json()).unwrap(), r);
}
