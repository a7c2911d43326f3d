//! In-memory spans for the traced run: one root span per call into the
//! engine and, in the layer section, one child span per layer measurement
//! under a `layers` root. Spans are recorded from the harness, around the
//! calls into each layer's public functions; they are written out as JSON
//! lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u32>,
    pub name: String,
    /// Engine ops (root call spans) or iterations (layer spans) covered.
    pub ops: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        parent: Option<u32>,
        name: &str,
        ops: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_owned(),
            ops,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span whose end is filled in by [`Tracer::close`].
    pub fn open(&mut self, parent: Option<u32>, name: &str) -> u32 {
        let now = self.now_ns();
        self.record(parent, name, 0, now, now)
    }

    pub fn close(&mut self, id: u32, ops: u64) {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.ops = ops;
        span.end_ns = now;
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"ops\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.ops, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (overlapping children are not counted twice).
pub fn self_time_ns(spans: &[Span], id: u32) -> u64 {
    let span = &spans[id as usize];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let mut t = Tracer::new();
        let root = t.record(None, "root", 0, 100, 1_100);
        t.record(Some(root), "a", 0, 200, 400);
        // Overlaps `a` by 100 ns: only 200 ns of new cover.
        let b = t.record(Some(root), "b", 0, 300, 600);
        t.record(Some(root), "c", 0, 900, 1_000);
        // A grandchild covers its parent, not the root.
        t.record(Some(b), "b.inner", 0, 350, 450);
        // Another root is no child of `root`.
        t.record(None, "other", 0, 0, 5_000);
        assert_eq!(self_time_ns(&t.spans, root), 1_000 - (200 + 200 + 100));
        assert_eq!(self_time_ns(&t.spans, b), 300 - 100);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let mut t = Tracer::new();
        let root = t.record(None, "root", 0, 100, 200);
        t.record(Some(root), "early", 0, 50, 120);
        t.record(Some(root), "late", 0, 190, 400);
        assert_eq!(self_time_ns(&t.spans, root), 100 - 20 - 10);
    }
}
