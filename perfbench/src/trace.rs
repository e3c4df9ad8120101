//! In-memory span recorder for traced runs.
//!
//! A span is `(name, start, end, parent, op)`: microseconds since the run's
//! epoch, the index of the enclosing span (or none), and the id of the
//! operation it belongs to, so every span of one request or one `Session::run`
//! shares an op id. Spans are recorded only around the benchmark's own calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. Spans stay in memory and are written out once, at exit.

use std::fmt::Write as _;
use std::time::Instant;

use crate::util::json_str;

pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// One thread's recorder. A disabled tracer records nothing and costs one
/// branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`usize::MAX` when tracing is off).
#[must_use]
pub struct SpanId(usize);

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, span: SpanId) {
        if span.0 == usize::MAX {
            return;
        }
        self.spans[span.0].end_us = self.now_us();
        if let Some(pos) = self.open.iter().rposition(|&i| i == span.0) {
            self.open.truncate(pos);
        }
    }

    /// Records `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Moves another thread's spans into this recorder (parents re-indexed;
    /// the other thread's top-level spans nest under this one's open span).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let outer = self.open.last().copied();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base).or(outer);
            self.spans.push(s);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: `(count, total ms, self ms)`, where self time is the
    /// span's duration minus the part its direct children cover.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_us - s.start_us;
            let own = (dur - child_us[i]).max(0.0);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur / 1e3;
                    r.3 += own / 1e3;
                }
                None => rows.push((s.name, 1, dur / 1e3, own / 1e3)),
            }
        }
        rows
    }

    /// Writes the spans as JSON: `{"spans":[{"id","name","start_us","end_us",
    /// "parent","op"}, …]}`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut s = String::from("{\"spans\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{i},\"name\":{},\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"op\":{}}}{}",
                json_str(sp.name),
                sp.start_us,
                sp.end_us,
                sp.op,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        s.push_str("]}\n");
        std::fs::write(path, s)
    }
}
