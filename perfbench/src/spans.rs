//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the simulator is
//! instrumented. A span names its layer call, the op it belongs to and
//! the span that caused it. A replayed child (a layer call repeated
//! after its parent returned, with the inputs the parent fed it) runs
//! outside its parent's interval, so self time is defined as the
//! parent's duration minus the durations of its children.

use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Self::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result with the span index.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let idx = self.begin(name, op, parent);
        let r = f();
        self.end(idx);
        (r, idx)
    }

    pub fn dur_ns(&self, idx: usize) -> u64 {
        self.spans[idx].dur_ns()
    }

    fn named<'a>(&'a self, names: &'a [&str]) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| names.contains(&s.name))
    }

    pub fn count(&self, name: &str) -> usize {
        self.named(&[name]).count()
    }

    /// Total host seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(&[name]).map(|s| s.dur_ns() as f64).sum::<f64>() / 1e9
    }

    /// Mean duration of the spans called `name`, µs (0 if none ran).
    pub fn mean_us(&self, name: &str) -> f64 {
        crate::util::ratio(self.total_s(name) * 1e6, self.count(name) as f64)
    }

    /// Mean self time (duration minus children) over the spans whose
    /// name is in `names`, µs.
    pub fn mean_self_us(&self, names: &[&str]) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let (mut total, mut n) = (0.0f64, 0usize);
        for (i, s) in self.spans.iter().enumerate() {
            if names.contains(&s.name) {
                total += s.dur_ns() as f64 - child_ns[i] as f64;
                n += 1;
            }
        }
        crate::util::ratio(total / 1e3, n as f64)
    }

    /// Writes every span as JSON: `{"spans": [{name, op, parent,
    /// start_ns, end_ns}, ...]}` with `parent` the index of the causing
    /// span in the same list.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Runs `f`, inside a span when a tracer is attached.
pub fn maybe_span<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.leaf(name, op, parent, f).0,
        None => f(),
    }
}
