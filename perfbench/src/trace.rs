//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer's public functions (nothing inside the program is instrumented).
//! They stay in memory and are written out once the run ends.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index of a span within its run, used as a parent link.
pub type SpanId = u32;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, such as `gk-core.filter_stream`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Operation this span belongs to; spans of one request share it.
    pub request: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A shareable span sink: clones record into the same buffer, so a backend
/// wrapper on a server thread and the load generator share one trace.
#[derive(Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Arc::new(Mutex::new(Vec::with_capacity(1 << 16))),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        (spans.len() - 1) as SpanId
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let value = f();
        self.record(name, start, self.now_ns(), parent, request);
        value
    }

    /// Reserves a span id for a parent whose end is not known yet; finish it
    /// with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now_ns();
        self.record(name, now, now, parent, request)
    }

    /// Sets the end of a span opened with [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        let end = self.now_ns();
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        spans[id as usize].end_ns = end;
    }

    /// Every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer lock poisoned"))
    }
}

/// Summed duration in seconds of the spans named `name`, and their count.
pub fn total(spans: &[Span], name: &str) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, n), s| (t + s.seconds(), n + 1))
}

/// Spans as JSON lines: `{"id", "name", "start_ns", "end_ns", "parent", "request"}`.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
            s.name, s.start_ns, s.end_ns, s.request
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_spans_by_name() {
        let spans = [
            Span {
                name: "op",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                request: 1,
            },
            Span {
                name: "call",
                start_ns: 10,
                end_ns: 70,
                parent: Some(0),
                request: 1,
            },
        ];
        let (seconds, count) = total(&spans, "call");
        assert_eq!(count, 1);
        assert!((seconds - 60e-9).abs() < 1e-15);
    }
}
