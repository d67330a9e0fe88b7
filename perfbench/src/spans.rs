//! The benchmark's own span recorder.
//!
//! Spans are kept in memory and written out when the run ends. Each has a
//! name, a start and end (nanoseconds since the recorder was created), the
//! index of its parent span and an optional request id shared by the spans
//! of one request. A span's self time is its duration minus the time its
//! child spans cover; on one thread children never overlap, so that is the
//! duration minus the children's durations.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

/// A handle to an open span.
#[must_use]
pub struct Open(Option<usize>);

/// Per-thread span recorder. A disabled recorder keeps nothing and costs
/// one branch per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    fn ns_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        self.begin_req(name, None)
    }

    /// Opens a span carrying a request id.
    pub fn begin_req(&mut self, name: &'static str, req: Option<u64>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Opens a span that started at `start` (a time taken earlier).
    pub fn begin_at(&mut self, name: &'static str, start: Instant, req: Option<u64>) -> Open {
        let open = self.begin_req(name, req);
        if let Some(idx) = open.0 {
            self.spans[idx].start_ns = self.ns_at(start);
        }
        open
    }

    /// Closes a span (and any span left open inside it).
    pub fn end(&mut self, open: Open) {
        let now = Instant::now();
        self.end_at(open, now);
    }

    /// Closes a span at `end` (a time taken earlier).
    pub fn end_at(&mut self, open: Open, end: Instant) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.ns_at(end);
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end_ns;
            if top == idx {
                break;
            }
        }
    }

    /// Records an already measured interval as a closed child of the
    /// innermost open span (for times taken on another thread or by
    /// the engine itself, e.g. a request's round trip).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, req: Option<u64>) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.ns_at(start), self.ns_at(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            req,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another thread's spans into this recorder (parents are
    /// re-indexed; the other thread's roots stay roots).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Per-name totals over a set of spans.
#[derive(Default, Clone, Debug)]
pub struct Layer {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<f64>,
}

/// Aggregates spans by name: count, total and self time, durations.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let layer = out.entry(s.name).or_default();
        layer.count += 1;
        layer.total_ns += dur;
        layer.self_ns += dur.saturating_sub(child_ns[i]);
        layer.durations_ns.push(dur as f64);
    }
    out
}

/// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto).
pub fn write_chrome_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let req = s.req.map_or("null".to_owned(), |r| r.to_string());
        writeln!(
            w,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{req}}}}}{}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            if i + 1 < spans.len() { "," } else { "" }
        )?;
    }
    writeln!(w, "]")?;
    w.flush()
}
