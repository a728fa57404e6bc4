//! In-memory spans around the benchmark's calls into each layer's public
//! functions. Nothing inside the program is instrumented: a span covers
//! exactly one call made from this crate, so a layer's time is attributed
//! from outside. Spans are kept in memory and written out once, at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval. `req` is the operation the span belongs to
/// (the sample index of the workload's timed operation, or `u64::MAX`
/// during set-up); `parent` indexes the enclosing span.
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    /// Tracing was requested for this run (`--trace 1`).
    on: bool,
    /// Spans are recorded only while active; workloads switch it per
    /// operation so that traced and untraced operations interleave.
    active: bool,
    /// One operation in `stride` is traced.
    stride: usize,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            active: on,
            stride: 2,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Trace one operation in `stride` (at least 2). High-rate workloads
    /// raise it to bound the spans kept in memory.
    pub fn set_stride(&mut self, stride: usize) {
        self.stride = stride.max(2);
    }

    /// Record the spans of operation `op` when tracing is on and `op` is a
    /// multiple of the stride; the others run untraced, so the run measures
    /// its own tracing overhead. `op == usize::MAX` marks untraced set-up
    /// work. Returns whether `op` is traced.
    pub fn select(&mut self, op: usize) -> bool {
        self.active = self.on && op != usize::MAX && op.is_multiple_of(self.stride);
        self.active
    }

    /// Record every span from now on (set-up phases) when tracing is on.
    pub fn select_all(&mut self) {
        self.active = self.on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` when not recording.
    pub fn begin(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> Option<usize> {
        if !self.active {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Self time of every span in ms: its duration minus the part its
    /// children cover (children of one span never overlap here, because
    /// each is a call made in sequence by one generator thread).
    pub fn self_ms(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e6)
            .collect()
    }

    /// Self times grouped by span name, then by request.
    pub fn by_name(&self) -> BTreeMap<&'static str, Vec<(u64, f64)>> {
        let mut out: BTreeMap<&'static str, Vec<(u64, f64)>> = BTreeMap::new();
        for (s, ms) in self.spans.iter().zip(self.self_ms()) {
            out.entry(s.name).or_default().push((s.req, ms));
        }
        out
    }

    /// Write every span as one JSON line to `path`; returns the count.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, ms)) in self.spans.iter().zip(self.self_ms()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let req = if s.req == u64::MAX {
                "null".to_string()
            } else {
                s.req.to_string()
            };
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{req},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                ms * 1e3
            )?;
        }
        f.flush()?;
        Ok(self.spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_untraced_ops_record_nothing() {
        let mut t = Tracer::new(true);
        assert!(t.select(0));
        let p = t.begin("op", 0, None);
        let c = t.begin("layer", 0, p);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(c);
        t.end(p);
        assert!(!t.select(1));
        assert_eq!(t.begin("op", 1, None), None);
        let ms = t.self_ms();
        assert_eq!(ms.len(), 2);
        assert!(ms[1] >= 2.0);
        assert!(ms[0] < ms[1]);
        assert_eq!(t.by_name()["layer"][0].0, 0);
    }
}
