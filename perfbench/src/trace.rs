//! In-memory spans recorded by the harness around its calls into each
//! crate's public API. Nothing inside the crates is instrumented: a span
//! is the wall time of one call as seen from outside.
//!
//! Spans are kept in memory while the workload runs and written out as
//! JSON lines when it ends. The per-layer metrics are aggregated from
//! the same spans, so the written trace is exactly what they summarize.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request id: spans of one request (or one traced walk of a graph)
    /// share it.
    pub req: u64,
    /// The crate the call went into (`models`, `compiler`, `kernels`,
    /// `nn`, `serve`).
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// The model the call served.
    pub model: &'static str,
    /// Graph node id for per-node calls, batch size for `run_batch`.
    pub arg: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.dur_ns as f64 / 1e6
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        req: u64,
        layer: &'static str,
        name: &'static str,
        model: &'static str,
        arg: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(req, layer, name, model, arg, start, end);
        out
    }

    /// Records a span whose ends the caller measured.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        req: u64,
        layer: &'static str,
        name: &'static str,
        model: &'static str,
        arg: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            req,
            layer,
            name,
            model,
            arg,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        });
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of the spans matching `layer`/`name`, and `model`
    /// unless it is `None`.
    pub fn ms(&self, layer: &str, name: &str, model: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name && model.is_none_or(|m| s.model == m))
            .map(Span::ms)
            .collect()
    }

    /// Writes the spans as JSON lines to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 120);
        for s in &self.spans {
            let arg = s.arg.map_or_else(|| "null".to_string(), |a| a.to_string());
            writeln!(
                out,
                r#"{{"req":{},"layer":"{}","name":"{}","model":"{}","arg":{},"start_ns":{},"dur_ns":{}}}"#,
                s.req, s.layer, s.name, s.model, arg, s.start_ns, s.dur_ns
            )
            .expect("writing to a String cannot fail");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_filtered_by_layer_name_and_model() {
        let mut t = Tracer::default();
        let v = t.time(1, "compiler", "run", "a", None, || 5);
        assert_eq!(v, 5);
        t.time(1, "kernels", "conv", "a", Some(3), || ());
        t.time(2, "compiler", "run", "b", None, || ());
        assert_eq!(t.ms("compiler", "run", None).len(), 2);
        assert_eq!(t.ms("compiler", "run", Some("b")).len(), 1);
        assert_eq!(t.ms("kernels", "conv", Some("a")).len(), 1);
        assert!(t.spans().iter().all(|s| s.ms() >= 0.0));
    }
}
