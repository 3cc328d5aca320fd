//! Host-time spans recorded around the benchmark's calls into each
//! layer.
//!
//! A span is named after the per-layer metric it feeds. Spans stay in
//! memory until the run ends; a layer's host time is the self time of its
//! spans (duration minus the part covered by child spans), so a harness
//! span wrapping a layer call never counts that call twice.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when enabled; a disabled tracer only calls through.
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            epoch: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            epoch: Some(Instant::now()),
            ..Tracer::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let Some(epoch) = self.epoch else {
            return f(self);
        };
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span of a recording, in nanoseconds, indexed by
/// span id: its duration minus the union of its direct children's
/// intervals.
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
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// The span file: one JSON object per line.
pub fn spans_jsonl(spans: &[Span], workload: &str) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
             \"end_ns\": {}, \"workload\": \"{workload}\"}}",
            s.id, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = [
            span(0, None, "bench.self_s", 0, 100),
            span(1, Some(0), "serve.run_s", 10, 40),
            // Overlaps its sibling: the union, not the sum, is covered.
            span(2, Some(0), "serve.run_s", 30, 50),
            span(3, Some(2), "index.build_s", 32, 35),
            span(4, None, "index.build_s", 200, 210),
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 17, 3, 10]);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::on();
        let v = t.span("bench.self_s", |t| t.span("serve.run_s", |_| 7));
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(spans_jsonl(s, "open-serve").contains("\"parent\": 0, \"name\": \"serve.run_s\""));

        let mut off = Tracer::off();
        assert_eq!(off.span("bench.self_s", |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
