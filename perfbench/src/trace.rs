//! In-memory spans for the traced run: name, start, end, parent and run
//! id, written out once when the benchmark ends. Step and deliver times
//! are summed into their round span as attributes rather than getting a
//! span per call.

use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an open or closed span.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    run: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
    attrs: Vec<(&'static str, f64)>,
}

/// The span recorder. A disabled tracer records nothing and costs a
/// branch per call, so untraced code paths can share it.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    run: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, t0: Instant::now(), run: 0, spans: Vec::new() }
    }

    /// Spans opened from now on carry this run id (one per measured unit).
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            run: self.run,
            parent,
            start_ns,
            end_ns: start_ns,
            attrs: Vec::new(),
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Attaches a summed quantity (e.g. step time inside a round).
    pub fn attr(&mut self, id: Option<SpanId>, key: &'static str, value: f64) {
        if let Some(id) = id {
            self.spans[id].attrs.push((key, value));
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON document.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"run\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}",
                s.name, s.run, s.start_ns, s.end_ns
            );
            for (k, v) in &s.attrs {
                let _ = write!(out, ", \"{k}\": {v}");
            }
            out.push_str(if i + 1 < self.spans.len() { "},\n" } else { "}\n" });
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}
