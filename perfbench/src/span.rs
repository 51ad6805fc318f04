//! In-memory span recording for the traced run. A span names one call
//! into a layer's public function: its start and end, the span that
//! caused it, the operation it belongs to, and the allocations made
//! while it was open. Spans stay in memory and are written out once, at
//! the end of the run.

use crate::alloc;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the recording.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to (one per top-level span).
    pub op: u64,
    /// Layer name, e.g. `accumulate`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's creation to the span's start.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's creation to the span's end.
    pub end_ns: u64,
    /// Allocations made while the span was open (children included).
    pub allocs: u64,
}

impl Span {
    /// Wall time of the span, nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time and allocations of one layer, summed over its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Σ (span duration − time covered by its children), nanoseconds.
    pub self_ns: u64,
    /// Σ allocations not made inside a child span.
    pub self_allocs: u64,
}

/// Records spans; nesting follows [`Tracer::span`] calls.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recording whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. A span opened with no span
    /// around it starts a new operation id.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let parent = self.stack.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        self.stack.push(id);
        let allocs_before = alloc::allocations();
        self.spans[id].start_ns = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        let allocs = alloc::allocations() - allocs_before;
        self.stack.pop();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.allocs = allocs;
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and self allocations per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
                child_allocs[p] += s.allocs;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.self_ns += s.duration_ns().saturating_sub(child_ns[s.id]);
            t.self_allocs += s.allocs.saturating_sub(child_allocs[s.id]);
        }
        out
    }

    /// Durations (nanoseconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// The recording as one JSON document: an array of spans.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.id, parent, s.op, s.name, s.start_ns, s.end_ns, s.allocs
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
    fn self_time_excludes_children_and_ops_follow_roots() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        t.span("outer", |_| {});
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, spans[1].op);
        assert_ne!(spans[0].op, spans[2].op);
        let totals = t.totals();
        assert!(totals["inner"].self_ns >= 5_000_000);
        assert!(totals["outer"].self_ns < totals["inner"].self_ns);
        assert_eq!(totals["outer"].count, 2);
        assert!(t.to_json().contains("\"name\":\"inner\""));
    }
}
