//! In-memory spans recorded around calls into the library's public
//! functions, written out when the run ends.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::stats::covered;

/// Handle of an open or closed span.
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `solver.run_block`.
    pub name: Cow<'static, str>,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started; equal to `start` while open.
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request the span works for (`u64::MAX` when none).
    pub request: u64,
}

/// Spans per storage chunk. Spans live in fixed-size chunks that are
/// written through when allocated, so recording a span never moves the
/// others (a reallocating `Vec` would copy every span so far) and never
/// takes a page fault (which would land inside whichever span is open).
const CHUNK: usize = 4096;

const EMPTY: Span = Span {
    name: Cow::Borrowed(""),
    start: 0.0,
    end: 0.0,
    parent: None,
    request: u64::MAX,
};

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    chunks: Vec<Vec<Span>>,
    len: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Makes room for `n` more spans now, so that recording them later
    /// allocates nothing. Call it outside the spans whose closure
    /// matters.
    pub fn reserve(&mut self, n: usize) {
        while self.chunks.len() * CHUNK < self.len + n {
            self.chunks.push(vec![EMPTY; CHUNK]);
        }
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.reserve(1);
        let id = self.len;
        self.chunks[id / CHUNK][id % CHUNK] = span;
        self.len += 1;
        id
    }

    fn get_mut(&mut self, id: SpanId) -> &mut Span {
        &mut self.chunks[id / CHUNK][id % CHUNK]
    }

    /// Seconds since the tracer started.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span.
    pub fn begin(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let name = name.into();
        let t = self.now();
        self.push(Span {
            name,
            start: t,
            end: t,
            parent,
            request,
        })
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let t = self.now();
        let span = self.get_mut(id);
        span.end = t;
        t - span.start
    }

    /// Closes `open` and opens a sibling span named `name` at the same
    /// instant, so consecutive spans leave no untraced gap between them.
    /// Returns the closed span's duration and the new span.
    pub fn switch(&mut self, open: SpanId, name: &'static str) -> (f64, SpanId) {
        let t = self.now();
        let span = self.get_mut(open);
        span.end = t;
        let (closed, parent, request) = (t - span.start, span.parent, span.request);
        let next = self.push(Span {
            name: name.into(),
            start: t,
            end: t,
            parent,
            request,
        });
        (closed, next)
    }

    /// Records an already-timed interval (used where the call is timed
    /// on another thread).
    pub fn record(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        self.push(Span {
            name: name.into(),
            start,
            end,
            parent,
            request,
        })
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every span, in opening order.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.chunks.iter().flatten().take(self.len)
    }

    /// Self time of every span: its duration minus the part of it its
    /// child spans cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.len];
        for s in self.spans() {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans()
            .zip(&children)
            .map(|(s, c)| (s.end - s.start) - covered(s.start, s.end, c))
            .collect()
    }

    /// Total and self seconds per span name.
    pub fn totals_by_name(&self) -> BTreeMap<String, (usize, f64, f64)> {
        let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
        for (s, self_s) in self.spans().zip(self.self_times()) {
            let e = out.entry(s.name.to_string()).or_default();
            e.0 += 1;
            e.1 += s.end - s.start;
            e.2 += self_s;
        }
        out
    }

    /// All spans as a JSON document (name, start, end, self, parent,
    /// request), for offline analysis.
    pub fn to_json(&self) -> String {
        let self_times = self.self_times();
        let spans: Vec<Json> = self
            .spans()
            .zip(self_times)
            .map(|(s, self_s)| {
                Json::object(vec![
                    ("name", Json::Str(s.name.to_string())),
                    ("start_s", Json::Num(s.start)),
                    ("end_s", Json::Num(s.end)),
                    ("self_s", Json::Num(self_s)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    (
                        "request",
                        if s.request == u64::MAX {
                            Json::Null
                        } else {
                            Json::Num(s.request as f64)
                        },
                    ),
                ])
            })
            .collect();
        Json::object(vec![("spans", Json::Array(spans))]).to_string()
    }
}
