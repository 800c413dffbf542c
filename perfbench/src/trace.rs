//! The benchmark's own spans: recorded in memory around the calls it
//! makes into each layer, written out once when a traced run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` is 0 for a root; `request` is 0 for spans
/// that belong to no single request.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub request: u64,
}

/// An in-memory span log. Disabled logs record nothing, so untraced runs
/// pay one branch per call.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Microseconds from the log's epoch to `at`.
    pub fn micros(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a span over `[start_us, end_us]` and returns its id (0 when
    /// disabled).
    pub fn record(
        &mut self,
        name: &str,
        parent: u64,
        request: u64,
        start_us: f64,
        end_us: f64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_us,
            end_us,
            request,
        });
        id
    }

    /// Opens a span starting now; [`close`](Self::close) ends it.
    pub fn open(&mut self, name: &str, parent: u64) -> u64 {
        let now = self.micros(Instant::now());
        self.record(name, parent, 0, now, now)
    }

    /// Ends a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: u64) {
        let now = self.micros(Instant::now());
        if let Some(span) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            span.end_us = now;
        }
    }

    /// Records a span from `start` to now.
    pub fn since(&mut self, name: &str, parent: u64, start: Instant) -> u64 {
        let (s, e) = (self.micros(start), self.micros(Instant::now()));
        self.record(name, parent, 0, s, e)
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, parent: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.since(name, parent, start);
        out
    }

    /// Writes the spans (and, verbatim, the runtime tracer's Chrome trace
    /// array) as one JSON document.
    pub fn write(&self, path: &std::path::Path, runtime_trace: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \"request\": {}}}",
                s.id, s.parent, s.name, s.start_us, s.end_us, s.request
            );
        }
        out.push_str("\n],\n\"runtime_trace\": ");
        out.push_str(if runtime_trace.trim().is_empty() {
            "[]"
        } else {
            runtime_trace
        });
        out.push_str("\n}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
