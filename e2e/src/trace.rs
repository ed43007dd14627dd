//! Spans for the traced run. They are recorded only from the benchmark's
//! own files, around calls into each layer's public functions, kept in
//! memory while the run lasts and written out when it ends. Tracing inside
//! the program is a later change.

use dinomo_obs::LogHistogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Buffers handed out so far: keeps span and request ids of different
/// threads and rounds apart.
static BUFFERS: AtomicU64 = AtomicU64::new(0);

/// Spans kept per thread; later ones still feed the histograms.
const SPAN_CAP: usize = 60_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Id of the span that caused this one; 0 for a request's root.
    pub parent: u64,
    /// Spans of one request share this.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer and per-name duration histograms.
#[derive(Debug)]
pub struct SpanBuf {
    epoch: Instant,
    id_base: u64,
    spans: Vec<Span>,
    next_request: u64,
    pub hists: BTreeMap<&'static str, LogHistogram>,
}

impl SpanBuf {
    /// `epoch` is shared by every buffer of a run.
    pub fn new(epoch: Instant) -> Self {
        SpanBuf {
            epoch,
            id_base: (BUFFERS.fetch_add(1, Ordering::Relaxed) + 1) << 36,
            spans: Vec::new(),
            next_request: 0,
            hists: BTreeMap::new(),
        }
    }

    pub fn new_request(&mut self) -> u64 {
        self.next_request += 1;
        self.id_base + self.next_request
    }

    /// Record span `name` over `[start, end]`; returns its id. `per` splits
    /// the duration for the histogram (a batch span divided by its ops).
    pub fn span(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
        per: u64,
    ) -> u64 {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        let id = self.id_base + (1 << 32) + self.spans.len() as u64;
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                name,
                id,
                parent,
                request,
                start_ns,
                end_ns,
            });
        }
        let per = per.max(1);
        self.hists
            .entry(name)
            .or_default()
            .record_n((end_ns - start_ns) / per, per);
        id
    }

    /// One replayed request: the calls `f` times become children of a
    /// `root` span that covers them.
    pub fn nested<T>(&mut self, root: &'static str, f: impl FnOnce(&mut Children) -> T) -> T {
        let request = self.new_request();
        let mut children = Children(Vec::new());
        let start = Instant::now();
        let out = f(&mut children);
        let id = self.span(root, 0, request, start, Instant::now(), 1);
        for (name, start, end) in children.0 {
            self.span(name, id, request, start, end, 1);
        }
        out
    }
}

/// The timed calls of one [`SpanBuf::nested`] request.
#[derive(Debug)]
pub struct Children(Vec<(&'static str, Instant, Instant)>);

impl Children {
    /// Time `f` as span `name`.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.0.push((name, start, Instant::now()));
        out
    }
}

/// Everything the traced run recorded, merged across threads.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub hists: BTreeMap<&'static str, LogHistogram>,
}

impl Trace {
    pub fn absorb(&mut self, buf: SpanBuf) {
        self.spans.extend(buf.spans);
        for (name, h) in buf.hists {
            self.hists.entry(name).or_default().merge(&h);
        }
    }

    pub fn hist(&self, name: &str) -> LogHistogram {
        self.hists.get(name).cloned().unwrap_or_default()
    }

    /// Mean duration of span `name` in ns (0 when never recorded).
    pub fn mean(&self, name: &str) -> f64 {
        self.hists
            .get(name)
            .filter(|h| !h.is_empty())
            .map_or(0.0, |h| h.mean())
    }

    /// The span file: one JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_parent_and_share_a_request() {
        let epoch = Instant::now();
        let mut buf = SpanBuf::new(epoch);
        buf.nested("request", |c| c.timed("kn", || std::hint::black_box(1 + 1)));
        let mut trace = Trace::default();
        trace.absorb(buf);
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].parent, 0);
        assert_eq!(trace.spans[1].parent, trace.spans[0].id);
        assert_eq!(trace.spans[1].request, trace.spans[0].request);
        assert_eq!(trace.hist("kn").count(), 1);
        let doc = crate::json::parse(&trace.to_json()).unwrap();
        assert_eq!(doc.as_array().unwrap().len(), 2);
    }
}
