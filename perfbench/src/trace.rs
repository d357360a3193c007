//! In-memory spans recorded by the benchmark around each call into a
//! layer.
//!
//! A span has a name, a start and an end (nanoseconds from a shared
//! origin), the index of the span that caused it, and a group id: the
//! verdict round or the transaction it belongs to. Spans stay in memory
//! until the run ends, then are written out as JSON lines. A disabled
//! tracer records nothing and reads no clock, so the untraced run pays
//! only for the calls themselves.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer call, e.g. `core.solve`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// The verdict round or transaction id the span belongs to.
    pub group: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A handle to an open span (or a no-op handle from a disabled tracer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The parent of a top-level span.
    pub const ROOT: SpanId = SpanId(None);
}

/// Records spans when enabled; otherwise every method is a no-op.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer measuring from `origin`, or a disabled one for `None`.
    pub fn new(origin: Option<Instant>) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.origin.is_some()
    }

    fn now_ns(origin: Instant) -> u64 {
        u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, group: u64) -> SpanId {
        let Some(origin) = self.origin else {
            return SpanId(None);
        };
        self.spans.push(Span {
            name,
            start_ns: Self::now_ns(origin),
            end_ns: 0,
            parent: parent.0,
            group,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let (Some(origin), Some(i)) = (self.origin, id.0) {
            self.spans[i].end_ns = Self::now_ns(origin);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, group);
        let out = f();
        self.end(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the tracer, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Appends another tracer's spans (recorded against the same origin,
    /// e.g. by a client thread), keeping their parent links intact.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Renders spans as JSON lines, one object per span with its self time.
pub fn render_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"group\":{},\"self_ns\":{own}}}",
            s.name, s.start_ns, s.end_ns, s.group
        );
    }
    out
}
