//! Wall-clock spans recorded around the benchmark's own calls into each layer.
//!
//! The clock is read through `doctagger::timing::Stopwatch`, the library's
//! audited wall-clock boundary, so this package needs no lint exemption.
//! Spans are kept in memory and written out once, after the run; with
//! tracing off only the durations the caller asks for are measured and no
//! span is stored.

use doctagger::timing::Stopwatch;
use std::fmt::Write as _;

/// One closed span: seconds since the run started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
}

/// Run clock plus (when enabled) the span log.
pub struct Tracer {
    origin: Stopwatch,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Stopwatch::start(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Seconds since the run started.
    pub fn now(&self) -> f64 {
        self.origin.elapsed_secs()
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// elapsed seconds. Spans opened inside `f` record this one as parent.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = self.now();
        let slot = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent: self.open.last().copied(),
            });
            self.spans.len() - 1
        });
        if let Some(i) = slot {
            self.open.push(i);
        }
        let out = f(self);
        let end = self.now();
        if let Some(i) = slot {
            self.open.pop();
            self.spans[i].end = end;
        }
        (out, end - start)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span log as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \"parent\": {parent}}}",
                s.name, s.start, s.end
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}
