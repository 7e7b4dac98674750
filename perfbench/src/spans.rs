//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call into a layer in [`Tracer::span`]. A
//! disabled tracer only runs the closure; an enabled one records the
//! span's name, start, end and parent (the innermost open span) and keeps
//! everything in memory until [`Tracer::write_jsonl`] at exit. A span's
//! *self time* is its duration minus the time its direct children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span (times in nanoseconds since the tracer's origin).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Nanoseconds covered by direct children.
    pub child_ns: u64,
}

impl Span {
    /// Duration minus the time covered by direct children.
    pub fn self_s(&self) -> f64 {
        (self.end_ns - self.start_ns).saturating_sub(self.child_ns) as f64 * 1e-9
    }
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            child_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.end_ns = end;
        let dur = end - span.start_ns;
        if let Some(p) = span.parent {
            self.spans[p].child_ns += dur;
        }
        out
    }

    /// Number of spans recorded so far (a cursor for [`Tracer::since`]).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Spans recorded since `mark`.
    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }

    /// All spans as JSON lines: `{"id","name","start_ns","end_ns","parent","self_ns"}`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                (s.end_ns - s.start_ns).saturating_sub(s.child_ns)
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Sum of self times of the spans named `name` in `spans`.
pub fn self_total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::self_s)
        .fold(0.0, |a, b| a + b)
}

/// Self times of every span named `name` in `spans`, in record order.
pub fn self_times(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::self_s)
        .collect()
}
