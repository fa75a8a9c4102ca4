//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent)` plus the allocation calls made
//! while it was open. Spans live in memory while the benchmark runs and
//! are written out once, at exit. A span's *self time* is its duration
//! minus the durations of its direct children; a layer's per-layer
//! figure is the self time (or allocation count) of the spans named
//! after it, summed within each root span and taken as the median over
//! the roots that contain it.
//!
//! A disabled tracer records nothing: `open` and `close` return at once.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::alloc;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    /// Layer-qualified name, e.g. `records.parse`.
    name: &'static str,
    /// Nanoseconds since the tracer's origin.
    start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Allocation calls this thread made while the span was open.
    allocs: u64,
}

/// Handle returned by [`Tracer::open`]; pass it back to [`Tracer::close`].
#[must_use]
pub struct SpanId(Option<usize>);

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            allocs: alloc::allocs(),
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Close a span; spans close in the reverse order they opened.
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.allocs = alloc::allocs() - span.allocs;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Self time of every span, in nanoseconds.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// For each root that contains a span named `name`: the summed self
    /// seconds and summed allocation calls of those spans, in root order.
    pub fn per_root(&self, name: &str) -> Vec<(f64, u64)> {
        let own = self.self_ns();
        let mut root_of = Vec::with_capacity(self.spans.len());
        let mut sums: Vec<Option<(u64, u64)>> = vec![None; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            // Parents open before their children, so they are already mapped.
            let root = s.parent.map_or(i, |p| root_of[p]);
            root_of.push(root);
            if s.name == name {
                let (ns, allocs) = sums[root].get_or_insert((0, 0));
                *ns += own[i];
                *allocs += s.allocs;
            }
        }
        sums.into_iter()
            .flatten()
            .map(|(ns, allocs)| (ns as f64 * 1e-9, allocs))
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"allocs\":{}}}",
                s.name, s.start_ns, s.end_ns, s.allocs
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_groups_by_root() {
        let mut t = Tracer::new(true, Instant::now());
        for _ in 0..2 {
            let root = t.open("op");
            let a = t.open("layer.a");
            let b = t.open("layer.b");
            std::thread::sleep(std::time::Duration::from_millis(5));
            t.close(b);
            t.close(a);
            t.close(root);
        }
        let a = t.per_root("layer.a");
        let b = t.per_root("layer.b");
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        for (sa, sb) in a.iter().zip(&b) {
            assert!(sb.0 >= 0.005, "child keeps its own time: {}", sb.0);
            assert!(sa.0 < sb.0, "parent self time excludes the child");
        }
        assert!(t.per_root("layer.c").is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.open("op");
        t.close(s);
        assert!(t.per_root("op").is_empty());
    }
}
