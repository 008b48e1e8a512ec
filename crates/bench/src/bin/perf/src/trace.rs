//! Spans recorded by the benchmark itself, around its calls into each
//! layer's public functions. Kept in memory and written out when the run
//! ends; the program under test carries no instrumentation of its own.

use msl::Rule;
use oem::{ObjectStore, Symbol};
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use wrappers::{Capabilities, SchemaSummary, SourceStats, Wrapper, WrapperError, WrapperMetrics};

/// One timed call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The operation (query) the call belongs to; 0 when the calling
    /// thread was not running one of the benchmark's operations.
    pub op: u64,
    /// What was called, e.g. `exec.execute`.
    pub name: &'static str,
    /// The span that caused this one; empty at the top.
    pub parent: &'static str,
    /// Start, nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, nanoseconds since the log was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// The operation and span the current thread is inside, so that a
    /// wrapper called from deep in the executor knows what caused it.
    static CONTEXT: Cell<(u64, &'static str)> = const { Cell::new((0, "")) };
}

/// The in-memory span store of one traced run.
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` as span `name` of operation `op`, child of whatever span
    /// the thread is in; spans opened inside `f` become its children.
    pub fn span<T>(&self, op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let outer = CONTEXT.with(|c| c.replace((op, name)));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        CONTEXT.with(|c| c.set(outer));
        self.push(Span {
            op,
            name,
            parent: outer.1,
            start_ns: self.since_epoch(start),
            end_ns: self.since_epoch(end),
        });
        out
    }

    /// Record a span measured by the caller (the wire phases of a client).
    pub fn record(
        &self,
        op: u64,
        name: &'static str,
        parent: &'static str,
        from: Instant,
        to: Instant,
    ) {
        self.push(Span {
            op,
            name,
            parent,
            start_ns: self.since_epoch(from),
            end_ns: self.since_epoch(to),
        });
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span log poisoned: a recording thread panicked")
            .push(span);
    }

    /// Take every span recorded so far, leaving the log empty.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span log poisoned: a recording thread panicked"),
        )
    }
}

/// Write spans as CSV, one per line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op,name,parent,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{}",
            s.op, s.name, s.parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// A decorator that times every query a source answers. The span is named
/// after the source (`wrappers.whois`, `wrappers.cs`).
pub struct TimedWrapper {
    inner: Arc<dyn Wrapper>,
    span_name: &'static str,
    log: Arc<SpanLog>,
}

impl TimedWrapper {
    /// Decorate `inner`, recording into `log`.
    pub fn new(inner: Arc<dyn Wrapper>, log: Arc<SpanLog>) -> TimedWrapper {
        let span_name = match inner.name().as_str().as_str() {
            "whois" => "wrappers.whois",
            "cs" => "wrappers.cs",
            _ => "wrappers.other",
        };
        TimedWrapper {
            inner,
            span_name,
            log,
        }
    }
}

impl Wrapper for TimedWrapper {
    fn name(&self) -> Symbol {
        self.inner.name()
    }

    fn capabilities(&self) -> &Capabilities {
        self.inner.capabilities()
    }

    fn stats(&self) -> Option<SourceStats> {
        self.inner.stats()
    }

    fn metrics(&self) -> Option<WrapperMetrics> {
        self.inner.metrics()
    }

    fn schema_summary(&self) -> Option<SchemaSummary> {
        self.inner.schema_summary()
    }

    fn query(&self, q: &Rule) -> Result<ObjectStore, WrapperError> {
        let op = CONTEXT.with(|c| c.get().0);
        self.log.span(op, self.span_name, || self.inner.query(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_know_their_parent() {
        let log = SpanLog::new();
        log.span(7, "outer", || {
            log.span(7, "inner", || std::hint::black_box(1 + 1));
        });
        let spans = log.drain();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.name, inner.parent, inner.op), ("inner", "outer", 7));
        assert_eq!((outer.name, outer.parent), ("outer", ""));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(log.drain().is_empty());
    }

    #[test]
    fn timed_wrapper_passes_through_and_records() {
        let log = Arc::new(SpanLog::new());
        let w = TimedWrapper::new(
            Arc::new(wrappers::scenario::whois_wrapper()),
            Arc::clone(&log),
        );
        assert_eq!(w.name().as_str(), "whois");
        let q = msl::parse_query("X :- X:<person {}>@whois").unwrap();
        let answer = log.span(3, "exec.execute", || w.query(&q)).unwrap();
        assert_eq!(answer.top_level().len(), 2);
        assert_eq!(w.metrics().unwrap().queries_received, 1);
        let spans = log.drain();
        assert_eq!(spans[0].name, "wrappers.whois");
        assert_eq!((spans[0].parent, spans[0].op), ("exec.execute", 3));
    }
}
