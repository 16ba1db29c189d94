//! Spans around the benchmark's calls into each layer.
//!
//! A span records its name, the layer it calls into, its start and end,
//! and the span that was open when it began (its parent). Spans stay in
//! memory and are written out once, when the run ends. A layer's self
//! time is the time its spans cover minus the part their child spans
//! cover. With tracing off, [`Tracer::span`] only calls the closure.

use crate::json::J;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The layers spans are attributed to: one per crate the benchmark
/// calls, plus `bench` for the benchmark's own work (input generation,
/// output checks, the root span of each repetition).
pub const LAYERS: [&str; 8] = [
    "bench",
    "experiments",
    "core",
    "des",
    "placement",
    "obs",
    "erasure",
    "osd",
];

struct Span {
    name: &'static str,
    layer: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name` in `layer`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Self time per span: its duration minus its children's durations.
    /// Children of one span run one after another on this thread, so
    /// their durations never overlap and the sum is the covered part.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Self seconds per layer, every layer of [`LAYERS`] present.
    pub fn self_secs_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut by: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *by.entry(s.layer).or_default() += ns as f64 / 1e9;
        }
        by
    }

    /// Self seconds and call count per span name, for the run's detail
    /// record.
    pub fn self_secs_by_name(&self) -> J {
        let mut by: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            let e = by.entry(s.name).or_default();
            e.0 += 1;
            e.1 += ns as f64 / 1e9;
        }
        J::obj(by.into_iter().map(|(name, (calls, secs))| {
            (
                name,
                J::obj([("calls", J::Int(calls)), ("self_s", J::Num(secs))]),
            )
        }))
    }

    /// Write every span as one JSON line: id, parent, name, layer, start
    /// and end in nanoseconds since the tracer was created.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = J::obj([
                ("id", J::Int(id as u64)),
                ("parent", s.parent.map_or(J::Null, |p| J::Int(p as u64))),
                ("name", J::str(s.name)),
                ("layer", J::str(s.layer)),
                ("start_ns", J::Int(s.start_ns)),
                ("end_ns", J::Int(s.end_ns)),
            ]);
            writeln!(out, "{}", line.line())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.span("bench", "root", |tr| {
            tr.span("core", "child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let by = tr.self_secs_by_layer();
        assert!(by["core"] >= 0.02);
        assert!(by["bench"] < by["core"]);
        assert_eq!(tr.spans[1].parent, Some(0));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("core", "x", |_| 5), 5);
        assert!(off.spans.is_empty());
    }
}
