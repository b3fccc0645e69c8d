//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer (`choosing-metrics` §4): name, start, end, the span
//! that was open when it began, and the repetition it belongs to. Nothing
//! is written until the run ends. A disabled tracer never reads the
//! clock, so the untraced run pays one branch per call site.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

const OFF: usize = usize::MAX;

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every span begun from now on with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(OFF);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(idx);
        SpanId(idx)
    }

    pub fn end(&mut self, id: SpanId) {
        if id.0 == OFF {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = end_ns;
    }

    /// Sum over spans called `name` of (duration − time covered by child
    /// spans), in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let ns: u64 = self
            .spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
            .sum();
        ns as f64 / 1e9
    }

    /// Sum of the durations (children included) of spans called `name`,
    /// in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete event per span; `args` carries the parent index and the
    /// repetition id so the tree survives the export.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"workload\":\"{workload}\",\"rep\":{}}}}}",
                s.name,
                s.rep,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.rep,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let a = t.begin("outer");
        let b = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(b);
        t.end(a);
        assert!(t.total_s("outer") >= t.total_s("inner"));
        let sum = t.self_s("outer") + t.self_s("inner");
        assert!((sum - t.total_s("outer")).abs() < 1e-9);
        assert_eq!(t.spans[1].parent, Some(0));

        let mut off = Tracer::new(false);
        let s = off.begin("x");
        off.end(s);
        assert_eq!(off.len(), 0);
    }
}
