//! Outside-in tracing: spans are recorded by the harness around its calls
//! into each layer's public functions, kept in memory, and written as a
//! Chrome trace when the run ends. Nothing in the program is
//! instrumented; a span's name is `<layer>.<call>` with the layer being
//! the crate the call enters.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; `None` while tracing is off.
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// Spans of one operation (a training step, a request) share it.
    pub op: u64,
    /// Display row: concurrent requests are laid out on separate rows.
    pub lane: u32,
}

/// Records spans when on; when off every call is one branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, parent: SpanId, op: u64, lane: u32) -> SpanId {
        self.open_at(name, parent, op, lane, Instant::now())
    }

    /// Opens a span that started at `start` (an open-loop request is
    /// timed from when it was due, not from when it was sent).
    pub fn open_at(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        lane: u32,
        start: Instant,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        let start = self.ns(start);
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
            lane,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        self.close_at(id, Instant::now());
    }

    pub fn close_at(&mut self, id: SpanId, end: Instant) {
        if let Some(i) = id {
            self.spans[i].end = self.ns(end);
        }
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op, 0);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: how often it ran, its total and self time.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        self.summary_since(0)
    }

    /// [`summary`](Tracer::summary) of the spans recorded from index
    /// `mark` on (`spans().len()` at an earlier moment).
    pub fn summary_since(&self, mark: usize) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns).skip(mark) {
            let dur = s.end - s.start;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ms += dur as f64 * 1e-6;
            // Children lie inside their parent and, on one operation,
            // do not overlap each other, so the parent's self time is
            // what they leave uncovered.
            e.self_ms += dur.saturating_sub(children) as f64 * 1e-6;
            durations.entry(s.name).or_default().push(dur as f64 * 1e-6);
        }
        for (name, d) in durations {
            out.get_mut(name).expect("same keys").p50_ms = stats::median(&d);
        }
        out
    }

    /// Self time per layer (the part of a span's name before the dot).
    pub fn layer_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (name, s) in self.summary() {
            let layer = name.split('.').next().expect("split yields one item");
            *out.entry(layer).or_insert(0.0) += s.self_ms;
        }
        out
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(64 + self.spans.len() * 128);
        text.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().expect("split yields one item");
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                text,
                "{}{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.lane,
                s.start as f64 * 1e-3,
                (s.end - s.start) as f64 * 1e-3,
                s.op,
            );
        }
        text.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStats {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
    pub p50_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(t: &Tracer, ms: u64) -> Instant {
        t.origin + Duration::from_millis(ms)
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("graph.train_step", None, 0, 0);
        assert_eq!(id, None);
        t.close(id);
        assert_eq!(t.span("data.bind", None, 0, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        let step = t.open_at("models.step", None, 3, 0, at(&t, 0));
        let bind = t.open_at("data.bind", step, 3, 0, at(&t, 1));
        t.close_at(bind, at(&t, 3));
        let train = t.open_at("graph.train_step", step, 3, 0, at(&t, 3));
        t.close_at(train, at(&t, 9));
        t.close_at(step, at(&t, 10));

        let s = t.summary();
        assert_eq!(s["models.step"].count, 1);
        assert!((s["models.step"].total_ms - 10.0).abs() < 1e-9);
        assert!((s["models.step"].self_ms - 2.0).abs() < 1e-9);
        assert!((s["graph.train_step"].self_ms - 6.0).abs() < 1e-9);
        let layers = t.layer_self_ms();
        assert!((layers["data"] - 2.0).abs() < 1e-9);
        assert!((layers["graph"] - 6.0).abs() < 1e-9);
        assert!((layers.values().sum::<f64>() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn chrome_trace_is_json_with_parent_and_op() {
        let mut t = Tracer::new(true);
        let g = t.open_at("serve.generate", None, 42, 5, at(&t, 0));
        let f = t.open_at("serve.first_token", g, 42, 5, at(&t, 0));
        t.close_at(f, at(&t, 2));
        t.close_at(g, at(&t, 4));
        let dir = crate::out_dir().join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("t.json");
        t.write_chrome(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        let child = &events[1];
        assert_eq!(
            child.get("name").and_then(|n| n.as_str()),
            Some("serve.first_token")
        );
        assert_eq!(child.get("cat").and_then(|n| n.as_str()), Some("serve"));
        assert_eq!(child.get("tid").and_then(|n| n.as_u64()), Some(5));
        let args = child.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|n| n.as_u64()), Some(0));
        assert_eq!(args.get("op").and_then(|n| n.as_u64()), Some(42));
        assert_eq!(child.get("dur").and_then(|n| n.as_f64()), Some(2000.0));
    }
}
