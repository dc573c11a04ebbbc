//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer's public API (or around a child process), never inside the
//! program crates. A span is a name and a duration; the per-layer
//! metrics are read from them. Untraced runs use the same
//! [`Tracer::span`] calls as plain timers and record nothing.

use std::sync::Mutex;
use std::time::Instant;

/// The recorder. Cheap to share by reference across client threads.
pub struct Tracer {
    on: bool,
    spans: Mutex<Vec<(String, f64)>>,
}

/// An open span; [`Span::end`] closes it and returns its duration.
pub struct Span<'a> {
    tracer: &'a Tracer,
    name: String,
    start: Instant,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open a span named `<layer>.<what>`.
    pub fn span(&self, name: &str) -> Span<'_> {
        Span {
            tracer: self,
            name: if self.on {
                name.to_string()
            } else {
                String::new()
            },
            start: Instant::now(),
        }
    }

    /// Record an interval measured elsewhere (e.g. a request from its
    /// due time to its completion).
    pub fn record(&self, name: &str, start: Instant, end: Instant) {
        if self.on {
            let secs = end.saturating_duration_since(start).as_secs_f64();
            self.spans
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push((name.to_string(), secs));
        }
    }

    /// Durations (seconds) of every span named `name`.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .filter(|(n, _)| n == name)
            .map(|&(_, s)| s)
            .collect()
    }

    /// Median duration (seconds) of the spans named `name`.
    ///
    /// # Panics
    ///
    /// Panics when no such span was recorded: a layer metric must come
    /// from a span the traced run actually produced.
    pub fn median_secs(&self, name: &str) -> f64 {
        let secs = self.secs(name);
        assert!(!secs.is_empty(), "no span named {name} was recorded");
        crate::stats::median(&secs)
    }
}

impl Span<'_> {
    /// Close the span; returns its duration in seconds either way.
    pub fn end(self) -> f64 {
        let end = Instant::now();
        self.tracer.record(&self.name, self.start, end);
        (end - self.start).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_spans_time_but_record_nothing() {
        let t = Tracer::new(false);
        assert!(t.span("x").end() >= 0.0);
        assert!(t.secs("x").is_empty());
    }

    #[test]
    fn traced_spans_are_kept_by_name() {
        let t = Tracer::new(true);
        let a = t.span("a").end();
        t.span("b").end();
        t.span("a").end();
        assert_eq!(t.secs("a").len(), 2);
        assert_eq!(t.secs("a")[0], a);
        assert_eq!(t.secs("b").len(), 1);
    }
}
