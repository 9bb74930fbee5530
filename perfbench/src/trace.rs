//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span has a name, a start, an end and the span that was open when
//! it started (its parent). Spans are kept in memory and written out
//! once, at exit, so recording one costs two clock reads and a push.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    round: usize,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans for one traced run.
pub struct Tracer {
    origin: Instant,
    round: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-round totals of one span name under one root span.
#[derive(Clone, Copy, Default)]
pub struct Total {
    /// Summed duration, in milliseconds.
    pub ms: f64,
    /// Number of spans summed.
    pub count: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            round: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Tag the spans that follow with measurement round `round`.
    pub fn set_round(&mut self, round: usize) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            round: self.round,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let id = self.open.pop().expect("close without a matching open");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    fn root_of(&self, mut id: usize) -> usize {
        while let Some(p) = self.spans[id].parent {
            id = p;
        }
        id
    }

    /// Per round, the summed duration of every span below a root span,
    /// keyed by `(root name, span name)`; the root itself is keyed by
    /// `(root name, root name)`.
    pub fn totals(&self) -> BTreeMap<(&'static str, &'static str), BTreeMap<usize, Total>> {
        let mut out: BTreeMap<_, BTreeMap<usize, Total>> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let root = self.spans[self.root_of(id)].name;
            let t = out
                .entry((root, s.name))
                .or_default()
                .entry(s.round)
                .or_default();
            t.ms += (s.end_ns - s.start_ns) as f64 / 1e6;
            t.count += 1;
        }
        out
    }

    /// Per round, the summed duration of the direct children of each
    /// root span, keyed by root name.
    pub fn child_totals(&self) -> BTreeMap<&'static str, BTreeMap<usize, f64>> {
        let mut out: BTreeMap<&'static str, BTreeMap<usize, f64>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                if parent.parent.is_none() {
                    *out.entry(parent.name)
                        .or_default()
                        .entry(s.round)
                        .or_default() += (s.end_ns - s.start_ns) as f64 / 1e6;
                }
            }
        }
        out
    }

    /// Write every span as one JSON object per line: id, parent, round,
    /// name, start and end in microseconds from the tracer's creation,
    /// and self time (duration minus the time its children cover).
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[id]);
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"round\":{},\"name\":\"{}\",\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.round,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                own as f64 / 1e3,
            )?;
        }
        Ok(())
    }
}
