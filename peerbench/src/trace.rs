//! In-memory span recorder for the traced run.
//!
//! Spans are recorded in the benchmark's own code around calls into the
//! platform's public functions; the program itself is not instrumented.
//! A span's layer is its name up to the first `.`; `phase.*` spans are
//! the benchmark's own phases, so their self time is the time no layer
//! span accounts for.

use std::io::Write;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.what`, e.g. `netsim.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; equal to `start_ns`
    /// while the span is open.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle to an open span; `None` when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

/// The span recorder. With tracing off every call is a branch and
/// nothing is stored.
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `run_id` tags every span written out.
    pub fn new(enabled: bool, run_id: u64) -> Self {
        Tracer {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Tracer::begin`]; spans close in LIFO order.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of the durations of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Sum of the durations of the direct children of span `idx`.
    pub fn children_secs(&self, idx: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::secs)
            .sum()
    }

    /// Index of the first span called `name`.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().position(|s| s.name == name)
    }

    /// Self time (duration minus direct children) summed per layer.
    pub fn self_secs_by_layer(&self) -> Vec<(String, f64)> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        let mut out: Vec<(String, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.secs() - child[i]).max(0.0);
            match out.iter_mut().find(|(l, _)| l == layer) {
                Some((_, v)) => *v += own,
                None => out.push((layer.to_string(), own)),
            }
        }
        out
    }

    /// Write every span as one tab-separated line:
    /// `run_id index parent name start_ns end_ns`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "run_id\tindex\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                self.run_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
