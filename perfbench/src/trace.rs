//! In-memory spans recorded from outside the crates: each span is one
//! call (or one stage) at a layer boundary, named after the layer.
//!
//! Spans are kept in memory while the traced pass runs and written out
//! once it ends, so the file I/O never lands inside a measured span.
//! Every span of one pass carries the pass's run id.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval: `[start_ns, end_ns)` since the tracer's
/// origin, and the span that was open when it started.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A span recorder. [`Tracer::off`] records nothing and only runs the
/// wrapped work, so the untraced campaign shares the output code path
/// without paying for spans.
pub struct Tracer {
    run_id: u64,
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Self time of one layer over a pass.
pub struct LayerTime {
    /// Span name (the layer).
    pub name: &'static str,
    /// Summed span durations minus the time covered by child spans.
    pub self_s: f64,
}

impl Tracer {
    /// A recording tracer whose spans all carry `run_id`.
    pub fn new(run_id: u64) -> Self {
        Self {
            run_id,
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::new(0)
        }
    }

    /// Whether spans are being recorded.
    pub fn is_recording(&self) -> bool {
        self.enabled
    }

    /// Records one empty span for each of `layers` that has none yet.
    /// A layer the workload bypasses then reads its boundary cost (tens
    /// of nanoseconds) instead of a hard zero.
    pub fn touch(&mut self, layers: &[&'static str]) {
        for &layer in layers {
            if !self.spans.iter().any(|s| s.name == layer) {
                self.time(layer, || ());
            }
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a pass lasts under 584 years")
    }

    /// Opens a span; close it with [`Tracer::exit`] in LIFO order.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Per-layer self time, by span name.
    pub fn layer_times(&self) -> Vec<LayerTime> {
        assert!(self.open.is_empty(), "layer times need every span closed");
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(&child_ns) {
            *by_name.entry(span.name).or_insert(0) += span.end_ns - span.start_ns - child;
        }
        by_name
            .into_iter()
            .map(|(name, ns)| LayerTime {
                name,
                self_s: ns as f64 * 1e-9,
            })
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_by_name() {
        let mut tracer = Tracer::new(1);
        tracer.enter("root");
        tracer.time("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        tracer.time("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        tracer.exit();
        let times = tracer.layer_times();
        let of = |name| times.iter().find(|l| l.name == name).unwrap().self_s;
        assert!(of("leaf") >= 0.040, "both leaf spans count");
        assert!(of("root") < 0.010, "root self time excludes its children");
    }

    #[test]
    fn off_records_nothing() {
        let mut tracer = Tracer::off();
        assert_eq!(tracer.time("leaf", || 7), 7);
        tracer.touch(&["leaf"]);
        assert!(tracer.layer_times().is_empty());
    }
}
