//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own thread, around the calls
//! it makes into each layer of the program (engine build, image, fixpoint,
//! codec, pool submission, ...). Each span has a name, start, end, parent
//! and job id; they stay in memory and are written out as JSON when the
//! run ends. A disabled recorder (the untraced run) keeps nothing and
//! costs one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags the spans opened from now on with a job id.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, span: SpanId) {
        if let Some(id) = span.0 {
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index of the first span recorded from now on — pass it to
    /// [`Tracer::self_ms`] to restrict the totals to later spans.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name over the spans from `from` on, in ms: each
    /// span's duration minus the durations of its direct children.
    pub fn self_ms(&self, from: usize) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans[from..] {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(from) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// All spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                s,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"job\": {}}}{}",
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.job,
                if i + 1 < self.spans.len() { "," } else { "" }
            )
            .expect("writing to a String cannot fail");
        }
        s.push(']');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let st = t.self_ms(0);
        let dur = |i: usize| (t.spans()[i].end_ns - t.spans()[i].start_ns) as f64 / 1e6;
        assert!((st["inner"] - dur(1)).abs() < 1e-9 && dur(1) >= 5.0);
        assert!((st["outer"] - (dur(0) - dur(1))).abs() < 1e-9 && st["outer"] >= 2.0);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", |_| ());
        assert!(t.spans().is_empty());
    }
}
