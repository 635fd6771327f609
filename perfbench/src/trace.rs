//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. The recorder is single-threaded: every traced path
//! runs on the thread that owns the [`Tracer`].

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: `start`/`end` are seconds since the tracer's origin.
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Request (query or ingest cycle) the span belongs to.
    pub req: u64,
}

impl Span {
    fn dur(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// The repository layer a span name belongs to; `bench` is the
/// harness's own envelope spans.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "store.read" | "store.digest" | "store.append" | "store.commit" | "store.verify"
        | "store.compact" => "tlc-store",
        "core.parse" | "core.encode" => "tlc-core",
        "sim.upload" => "tlc-gpu-sim",
        "query.fused" => "tlc-crystal",
        "ssb.dims" | "exec.merge" | "exec.partition" | "exec.query" | "gen.chunk" => "tlc-ssb",
        "serve.submit" => "tlc-serve",
        _ => "bench",
    }
}

/// Layers reported as `share.<layer>` metrics.
pub const LAYERS: [&str; 6] = [
    "tlc-store",
    "tlc-core",
    "tlc-gpu-sim",
    "tlc-crystal",
    "tlc-ssb",
    "tlc-serve",
];

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Summed duration of every span named `name`.
    pub fn busy(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .sum::<f64>()
            + 0.0 // an empty sum is -0.0
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Summed duration of the spans named `name` that belong to `req`.
    pub fn busy_req(&self, name: &str, req: u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.req == req)
            .map(Span::dur)
            .sum()
    }

    /// Each span's self time: its duration minus its direct children's.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur();
            }
        }
        own
    }

    /// Summed self time of the spans of one layer.
    pub fn layer_busy(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| layer_of(s.name) == layer)
            .map(|(_, t)| t)
            .sum::<f64>()
            + 0.0 // an empty sum is -0.0
    }

    /// Summed duration of the root spans: the traced part of the run.
    pub fn traced_wall(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur)
            .sum()
    }

    /// Write every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tlayer\tname\tstart_s\tend_s\tself_s")?;
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{:.9}\t{:.9}\t{:.9}",
                s.req,
                layer_of(s.name),
                s.name,
                s.start,
                s.end,
                own
            )?;
        }
        out.flush()
    }
}
