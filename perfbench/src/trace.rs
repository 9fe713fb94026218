//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer's public function; nothing inside the program is instrumented.
//! Each lane (one thread: the main thread, a thread-rank, a replay
//! worker) owns a [`Tracer`]; the lanes are merged into one [`Trace`]
//! when the run ends and written out as JSON lines.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use eutectica_telemetry::JsonObject;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name (`kernels.phi`, `pfio.ckpt_write`, ...).
    pub name: &'static str,
    /// Lane (thread) the span ran on.
    pub lane: usize,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span (returned by [`Tracer::open`]).
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

/// Per-lane span recorder. A tracer made with [`Tracer::off`] records
/// nothing, so traced and untraced runs share one code path.
pub struct Tracer {
    on: bool,
    lane: usize,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recording tracer for `lane`, timing against the shared `epoch`.
    pub fn new(lane: usize, epoch: Instant) -> Self {
        Self {
            on: true,
            lane,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            on: false,
            lane: 0,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            lane: self.lane,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close `span`, which must be the innermost open one.
    pub fn close(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        assert_eq!(
            self.stack.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span called `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.open(name);
        let out = f();
        self.close(s);
        out
    }
}

/// The merged spans of every lane of a run.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Append a finished lane (all its spans must be closed).
    pub fn absorb(&mut self, lane: Tracer) {
        assert!(lane.stack.is_empty(), "lane {} has open spans", lane.lane);
        let base = self.spans.len();
        self.spans.extend(lane.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that its
    /// children cover (children of one lane never overlap).
    pub fn self_secs(&self) -> Vec<f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.secs();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.secs() - c).max(0.0))
            .collect()
    }

    /// Summed self time of spans called `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_secs())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Share (in %) of root-span time that no child span covers. Spans
    /// named in `exclude` (benchmark-side probes that are not part of the
    /// workload) are removed from the root time first.
    pub fn unattributed_pct(&self, exclude: &[&str]) -> f64 {
        let selfs = self.self_secs();
        let (mut total, mut bare) = (0.0, 0.0);
        for (s, own) in self.spans.iter().zip(&selfs) {
            if s.parent.is_none() {
                total += s.secs();
                bare += own;
            } else if exclude.contains(&s.name) {
                total -= s.secs();
            }
        }
        if total > 0.0 {
            100.0 * bare / total
        } else {
            0.0
        }
    }

    /// Write one JSON object per span (name, lane, start/end in µs,
    /// parent index) to `path`, for the first `limit` spans.
    pub fn write_jsonl(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let mut o = JsonObject::new()
                .int_field("id", i as u64)
                .str_field("name", s.name)
                .int_field("lane", s.lane as u64)
                .num_field("start_us", s.start_ns as f64 * 1e-3)
                .num_field("end_us", s.end_ns as f64 * 1e-3);
            o = match s.parent {
                Some(p) => o.int_field("parent", p as u64),
                None => o.raw_field("parent", "null"),
            };
            writeln!(out, "{}", o.finish())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            lane: 0,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let t = Trace {
            spans: vec![
                span("root", 0, 1000, None),
                span("a", 100, 400, Some(0)),
                span("b", 500, 900, Some(0)),
                span("a", 600, 700, Some(2)),
            ],
        };
        let s = t.self_secs();
        assert!((s[0] - 300e-9).abs() < 1e-15);
        assert!((s[2] - 300e-9).abs() < 1e-15);
        assert!((t.secs("a") - 400e-9).abs() < 1e-15);
        assert_eq!(t.count("a"), 2);
        assert!((t.unattributed_pct(&[]) - 30.0).abs() < 1e-9);
        // Excluding a probe removes it from the root's time.
        assert!((t.unattributed_pct(&["b"]) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn lanes_merge_with_rebased_parents() {
        let epoch = Instant::now();
        let mut trace = Trace::default();
        for lane in 0..2 {
            let mut tr = Tracer::new(lane, epoch);
            let root = tr.open("root");
            tr.time("leaf", || std::hint::black_box(1 + 1));
            tr.close(root);
            trace.absorb(tr);
        }
        let spans = trace.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].lane, 1);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let s = tr.open("x");
        assert_eq!(tr.time("y", || 5), 5);
        tr.close(s);
        let mut trace = Trace::default();
        trace.absorb(tr);
        assert!(trace.spans().is_empty());
    }
}
