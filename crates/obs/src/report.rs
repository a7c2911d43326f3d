//! Schema-versioned, machine-readable run reports.
//!
//! Every bench experiment ends by emitting a [`RunReport`]: the experiment's
//! headline metrics (each tagged with a comparison direction and tolerance
//! so the CI gate needs no out-of-band configuration), plus a full dump of
//! the run's registry (counters, gauges, histogram summaries) and optional
//! per-cell result rows.
//!
//! The JSON encoding is deterministic — `BTreeMap` key order, a fixed
//! top-level field order, and canonical shortest-round-trip float
//! formatting — so the same run produces a byte-identical report and CI
//! diffs of `BENCH_*.json` are meaningful. Serialization is hand-rolled
//! (this crate is a std-only leaf); the parser is a small
//! recursive-descent JSON reader that keeps number tokens as text until a
//! typed field asks for `u64` or `f64`, so 64-bit counters survive the
//! round trip exactly.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use crate::hist::Summary;
use crate::registry::Registry;

/// Current report schema identifier. Consumers (the bench gate) must
/// reject reports whose `schema` field differs.
pub const SCHEMA: &str = "dosn.run-report.v1";

/// A gate-checked headline metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Headline {
    /// Measured value.
    pub value: f64,
    /// `true` if larger is better (throughput, availability); `false` if
    /// smaller is better (latency).
    pub higher_is_better: bool,
    /// Allowed relative regression before the gate fails (0.30 = 30%).
    pub tolerance: f64,
}

/// A cell in a report row: one result-table entry.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Numeric cell.
    Num(f64),
    /// Text cell.
    Str(String),
    /// Boolean cell.
    Bool(bool),
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Num(v as f64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Num(v as f64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Machine-readable record of one bench run (see module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Experiment label, e.g. `"E12 replicated storage"`.
    pub experiment: String,
    /// Whether the run used the reduced `--fast` workload.
    pub fast_mode: bool,
    /// Gate-checked headline metrics by name.
    pub headlines: BTreeMap<String, Headline>,
    /// Counter values by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram digests by metric name.
    pub histograms: BTreeMap<String, Summary>,
    /// Per-cell result rows (free-form columns).
    pub rows: Vec<BTreeMap<String, Value>>,
}

impl RunReport {
    /// Creates an empty report for `experiment`.
    pub fn new(experiment: &str, fast_mode: bool) -> Self {
        RunReport {
            experiment: experiment.to_string(),
            fast_mode,
            ..Default::default()
        }
    }

    /// Declares a headline metric the CI gate will check.
    pub fn set_headline(&mut self, name: &str, value: f64, higher_is_better: bool, tolerance: f64) {
        self.headlines.insert(
            name.to_string(),
            Headline {
                value,
                higher_is_better,
                tolerance,
            },
        );
    }

    /// Copies every instrument of `reg` into the report. Empty histograms
    /// are skipped (an instrument that never fired carries no information).
    pub fn record_registry(&mut self, reg: &Registry) {
        let snap = reg.snapshot();
        self.counters.extend(snap.counters);
        self.gauges.extend(snap.gauges);
        for (name, h) in snap.histograms {
            if !h.is_empty() {
                self.histograms.insert(name, h.summary());
            }
        }
    }

    /// Appends a result row.
    pub fn add_row(&mut self, row: BTreeMap<String, Value>) {
        self.rows.push(row);
    }

    /// Serializes to deterministic JSON (see module docs).
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.open_obj();
        w.key("schema");
        w.str(SCHEMA);
        w.key("experiment");
        w.str(&self.experiment);
        w.key("fast_mode");
        w.raw(if self.fast_mode { "true" } else { "false" });
        w.key("headlines");
        w.open_obj();
        for (name, h) in &self.headlines {
            w.key(name);
            w.open_obj();
            w.key("value");
            w.f64(h.value);
            w.key("higher_is_better");
            w.raw(if h.higher_is_better { "true" } else { "false" });
            w.key("tolerance");
            w.f64(h.tolerance);
            w.close_obj();
        }
        w.close_obj();
        w.key("counters");
        w.open_obj();
        for (name, v) in &self.counters {
            w.key(name);
            w.raw(&v.to_string());
        }
        w.close_obj();
        w.key("gauges");
        w.open_obj();
        for (name, v) in &self.gauges {
            w.key(name);
            w.f64(*v);
        }
        w.close_obj();
        w.key("histograms");
        w.open_obj();
        for (name, s) in &self.histograms {
            w.key(name);
            w.open_obj();
            w.key("count");
            w.raw(&s.count.to_string());
            w.key("mean");
            w.f64(s.mean);
            w.key("p50");
            w.raw(&s.p50.to_string());
            w.key("p95");
            w.raw(&s.p95.to_string());
            w.key("p99");
            w.raw(&s.p99.to_string());
            w.key("max");
            w.raw(&s.max.to_string());
            w.close_obj();
        }
        w.close_obj();
        w.key("rows");
        w.open_arr();
        for row in &self.rows {
            w.arr_item();
            w.open_obj();
            for (name, v) in row {
                w.key(name);
                match v {
                    Value::Num(x) => w.f64(*x),
                    Value::Str(s) => w.str(s),
                    Value::Bool(b) => w.raw(if *b { "true" } else { "false" }),
                }
            }
            w.close_obj();
        }
        w.close_arr();
        w.close_obj();
        w.finish()
    }

    /// Parses a report, rejecting unknown schemas.
    pub fn from_json(text: &str) -> Result<RunReport, ReportError> {
        let j = Parser::new(text).parse()?;
        let top = j.as_obj("top level")?;
        let schema = top.get_str("schema")?;
        if schema != SCHEMA {
            return Err(ReportError::Schema(schema.to_string()));
        }
        let mut report = RunReport::new(top.get_str("experiment")?, top.get_bool("fast_mode")?);
        for (name, v) in &top.get_obj("headlines")?.0 {
            let h = v.as_obj("headline")?;
            report.headlines.insert(
                name.clone(),
                Headline {
                    value: h.get_f64("value")?,
                    higher_is_better: h.get_bool("higher_is_better")?,
                    tolerance: h.get_f64("tolerance")?,
                },
            );
        }
        for (name, v) in &top.get_obj("counters")?.0 {
            report.counters.insert(name.clone(), v.as_u64("counter")?);
        }
        for (name, v) in &top.get_obj("gauges")?.0 {
            report.gauges.insert(name.clone(), v.as_f64("gauge")?);
        }
        for (name, v) in &top.get_obj("histograms")?.0 {
            let h = v.as_obj("histogram")?;
            report.histograms.insert(
                name.clone(),
                Summary {
                    count: h.get_u64("count")?,
                    mean: h.get_f64("mean")?,
                    p50: h.get_u64("p50")?,
                    p95: h.get_u64("p95")?,
                    p99: h.get_u64("p99")?,
                    max: h.get_u64("max")?,
                },
            );
        }
        match top.0.get("rows") {
            Some(J::Arr(rows)) => {
                for row in rows {
                    let obj = row.as_obj("row")?;
                    let mut out = BTreeMap::new();
                    for (name, v) in &obj.0 {
                        let cell = match v {
                            J::Num(_) => Value::Num(v.as_f64("row cell")?),
                            J::Str(s) => Value::Str(s.clone()),
                            J::Bool(b) => Value::Bool(*b),
                            _ => return Err(ReportError::Shape("row cell type".into())),
                        };
                        out.insert(name.clone(), cell);
                    }
                    report.rows.push(out);
                }
            }
            Some(_) => return Err(ReportError::Shape("rows must be an array".into())),
            None => return Err(ReportError::Shape("missing field rows".into())),
        }
        Ok(report)
    }

    /// Writes the JSON encoding to `path` (with a trailing newline).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }

    /// Reads and parses a report from `path`.
    pub fn load(path: &Path) -> Result<RunReport, ReportError> {
        let text =
            std::fs::read_to_string(path).map_err(|e| ReportError::Io(format!("{path:?}: {e}")))?;
        RunReport::from_json(&text)
    }
}

/// Why a report failed to load.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportError {
    /// The text is not valid JSON.
    Parse(String),
    /// The JSON is valid but its schema field is not [`SCHEMA`].
    Schema(String),
    /// The JSON is valid but a field is missing or mistyped.
    Shape(String),
    /// The file could not be read.
    Io(String),
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Parse(m) => write!(f, "invalid JSON: {m}"),
            ReportError::Schema(s) => {
                write!(f, "unsupported report schema {s:?} (expected {SCHEMA:?})")
            }
            ReportError::Shape(m) => write!(f, "malformed report: {m}"),
            ReportError::Io(m) => write!(f, "cannot read report: {m}"),
        }
    }
}

impl std::error::Error for ReportError {}

/// Canonical float formatting: Rust's shortest round-trip `Display`, with
/// an explicit integer check so whole numbers never grow a fraction and
/// non-finite values (which JSON cannot carry) collapse to 0.
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = v.to_string();
    // f64::Display never emits exponent notation, so the token is already
    // valid JSON.
    debug_assert!(
        !s.contains('e') && !s.contains('E'),
        "unexpected float repr {s}"
    );
    s
}

// ---- deterministic writer ----

struct Writer {
    out: String,
    // Tracks whether the current container already has an element, per
    // nesting level.
    stack: Vec<bool>,
}

impl Writer {
    fn new() -> Self {
        Writer {
            out: String::new(),
            stack: Vec::new(),
        }
    }

    fn indent(&mut self) {
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }

    fn comma(&mut self) {
        if let Some(has) = self.stack.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
            self.out.push('\n');
            self.indent();
        }
    }

    fn open_obj(&mut self) {
        self.out.push('{');
        self.stack.push(false);
    }

    fn close_obj(&mut self) {
        let had = self.stack.pop().unwrap_or(false);
        if had {
            self.out.push('\n');
            self.indent();
        }
        self.out.push('}');
    }

    fn open_arr(&mut self) {
        self.out.push('[');
        self.stack.push(false);
    }

    fn close_arr(&mut self) {
        let had = self.stack.pop().unwrap_or(false);
        if had {
            self.out.push('\n');
            self.indent();
        }
        self.out.push(']');
    }

    fn key(&mut self, name: &str) {
        self.comma();
        self.push_string(name);
        self.out.push_str(": ");
    }

    fn arr_item(&mut self) {
        self.comma();
    }

    fn str(&mut self, s: &str) {
        self.push_string(s);
    }

    fn raw(&mut self, token: &str) {
        self.out.push_str(token);
    }

    fn f64(&mut self, v: f64) {
        self.out.push_str(&fmt_f64(v));
    }

    fn push_string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    fn finish(self) -> String {
        self.out
    }
}

// ---- recursive-descent parser ----

/// Parsed JSON value. Numbers keep their source token so integer fields
/// can be recovered exactly (a `u64` above 2^53 would be mangled by an
/// eager `f64` conversion).
#[derive(Debug, Clone, PartialEq)]
enum J {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<J>),
    Obj(Obj),
}

#[derive(Debug, Clone, PartialEq)]
struct Obj(BTreeMap<String, J>);

impl J {
    fn as_obj(&self, what: &str) -> Result<&Obj, ReportError> {
        match self {
            J::Obj(o) => Ok(o),
            _ => Err(ReportError::Shape(format!("{what} must be an object"))),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, ReportError> {
        match self {
            J::Num(tok) => tok
                .parse()
                .map_err(|_| ReportError::Shape(format!("{what} must be a u64, got {tok}"))),
            _ => Err(ReportError::Shape(format!("{what} must be a number"))),
        }
    }

    fn as_f64(&self, what: &str) -> Result<f64, ReportError> {
        match self {
            J::Num(tok) => tok
                .parse()
                .map_err(|_| ReportError::Shape(format!("{what} must be a number, got {tok}"))),
            _ => Err(ReportError::Shape(format!("{what} must be a number"))),
        }
    }
}

impl Obj {
    fn get(&self, name: &str) -> Result<&J, ReportError> {
        self.0
            .get(name)
            .ok_or_else(|| ReportError::Shape(format!("missing field {name}")))
    }

    fn get_str(&self, name: &str) -> Result<&str, ReportError> {
        match self.get(name)? {
            J::Str(s) => Ok(s),
            _ => Err(ReportError::Shape(format!("field {name} must be a string"))),
        }
    }

    fn get_bool(&self, name: &str) -> Result<bool, ReportError> {
        match self.get(name)? {
            J::Bool(b) => Ok(*b),
            _ => Err(ReportError::Shape(format!("field {name} must be a bool"))),
        }
    }

    fn get_u64(&self, name: &str) -> Result<u64, ReportError> {
        self.get(name)?.as_u64(name)
    }

    fn get_f64(&self, name: &str) -> Result<f64, ReportError> {
        self.get(name)?.as_f64(name)
    }

    fn get_obj(&self, name: &str) -> Result<&Obj, ReportError> {
        self.get(name)?.as_obj(name)
    }
}

/// Deepest container nesting the parser follows. The schema nests four
/// deep (report → headlines → one headline → its fields); the bound keeps
/// a hostile `[[[[…` from overflowing the stack.
const MAX_DEPTH: usize = 16;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn parse(mut self) -> Result<J, ReportError> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes().len() {
            return Err(self.err("trailing data"));
        }
        Ok(v)
    }

    fn err(&self, msg: &str) -> ReportError {
        ReportError::Parse(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), ReportError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<J, ReportError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(J::Str(self.string()?)),
            Some(b't') if self.eat_word("true") => Ok(J::Bool(true)),
            Some(b'f') if self.eat_word("false") => Ok(J::Bool(false)),
            Some(b'n') if self.eat_word("null") => Ok(J::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<J, ReportError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(J::Obj(Obj(map)));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(J::Obj(Obj(map)));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<J, ReportError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(J::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(J::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ReportError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if !self.eat_word("\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one step. Both are ASCII, so the run starts and ends
                    // on character boundaries of the `&str` input.
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ReportError> {
        let slice = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        // Exactly four hex digits: `from_str_radix` alone would take "+123".
        let v = slice.iter().try_fold(0u32, |v, b| {
            let digit = (*b as char).to_digit(16)?;
            Some(v * 16 + digit)
        });
        let v = v.ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<J, ReportError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let tok = std::str::from_utf8(&self.bytes()[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        // Validate the token parses as a finite float (`1e999` parses to ∞)
        // even though we keep the text.
        match tok.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(J::Num(tok.to_string())),
            _ => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut r = RunReport::new("E13 smoke", true);
        r.set_headline("posts_per_sec", 1234.5, true, 0.30);
        r.set_headline("min_r3_avail", 1.0, true, 0.02);
        r.counters.insert("chord.hop".into(), 42);
        r.counters.insert("get.repairs".into(), u64::MAX);
        r.gauges.insert("availability".into(), 0.97);
        r.histograms.insert(
            "net.post".into(),
            Summary {
                count: 10,
                mean: 812.4,
                p50: 800,
                p95: 1500,
                p99: 1600,
                max: 1700,
            },
        );
        let mut row = BTreeMap::new();
        row.insert("overlay".into(), Value::from("chord"));
        row.insert("r".into(), Value::from(3u64));
        row.insert("crashed".into(), Value::from(false));
        r.add_row(row);
        r
    }

    #[test]
    fn to_json_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn round_trip_preserves_report_and_bytes() {
        let r = sample();
        let json = r.to_json();
        let back = RunReport::from_json(&json).expect("parse");
        assert_eq!(back, r);
        assert_eq!(
            back.to_json(),
            json,
            "re-serialization must be byte-identical"
        );
    }

    #[test]
    fn u64_counters_survive_exactly() {
        let json = sample().to_json();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back.counters["get.repairs"], u64::MAX);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let json = sample().to_json().replace(SCHEMA, "dosn.run-report.v0");
        match RunReport::from_json(&json) {
            Err(ReportError::Schema(s)) => assert_eq!(s, "dosn.run-report.v0"),
            other => panic!("expected schema error, got {other:?}"),
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(matches!(
            RunReport::from_json("not json"),
            Err(ReportError::Parse(_))
        ));
        assert!(matches!(
            RunReport::from_json("{\"schema\": \"dosn.run-report.v1\"}"),
            Err(ReportError::Shape(_))
        ));
        assert!(matches!(
            RunReport::from_json("{} trailing"),
            Err(ReportError::Parse(_))
        ));
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut r = RunReport::new("quote \" slash \\ newline \n tab \t unicode é", false);
        let mut row = BTreeMap::new();
        row.insert("note".into(), Value::from("ctrl \u{0001} char"));
        r.add_row(row);
        let json = r.to_json();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn non_finite_floats_collapse_to_zero() {
        let mut r = RunReport::new("nan", false);
        r.gauges.insert("bad".into(), f64::NAN);
        r.gauges.insert("inf".into(), f64::INFINITY);
        let back = RunReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.gauges["bad"], 0.0);
        assert_eq!(back.gauges["inf"], 0.0);
    }

    #[test]
    fn record_registry_skips_empty_histograms() {
        let reg = Registry::new();
        reg.counter("c").add(5);
        reg.set_gauge("g", 2.5);
        reg.histogram("empty");
        reg.histogram("full").record(100);
        let mut r = RunReport::new("reg", false);
        r.record_registry(&reg);
        assert_eq!(r.counters["c"], 5);
        assert_eq!(r.gauges["g"], 2.5);
        assert!(r.histograms.contains_key("full"));
        assert!(!r.histograms.contains_key("empty"));
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join("dosn_obs_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let r = sample();
        r.save(&path).unwrap();
        assert_eq!(RunReport::load(&path).unwrap(), r);
        std::fs::remove_file(&path).ok();
    }
}
