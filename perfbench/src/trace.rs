//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent, op)`: times are nanoseconds
//! since the tracer's epoch, `parent` indexes the span that caused it,
//! and every span of one op (one job, one sort, one fault plan) carries
//! that op's id. Spans are kept in memory and written out once, as JSON
//! lines, when the run ends. A disabled tracer records nothing and reads
//! no clock, so untraced runs pay nothing for it.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Record a span with explicit bounds (for intervals measured before
    /// the span, or its parent, could be recorded).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        op: u64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, op);
        out
    }

    /// Durations of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Per-op sums of the durations of spans named in `names`, in op order.
    pub fn per_op_sum(&self, names: &[&str]) -> Vec<Duration> {
        let mut by_op: std::collections::BTreeMap<u64, Duration> = Default::default();
        for s in self.spans.iter().filter(|s| names.contains(&s.name)) {
            *by_op.entry(s.op).or_default() += s.duration();
        }
        by_op.into_values().collect()
    }

    /// Move every span of `other` into this tracer, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.time("x", None, 0, || 7), 7);
        let now = Instant::now();
        assert!(t.record("x", now, now, None, 0).is_none());
        assert!(t.durations("x").is_empty());
    }

    #[test]
    fn spans_keep_parents_and_ops_across_absorb() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let root = a.record("op", epoch, Instant::now(), None, 1);
        a.time("child", root, 1, || ());
        let mut b = Tracer::new(true, epoch);
        let r2 = b.record("op", epoch, Instant::now(), None, 2);
        b.time("child", r2, 2, || ());
        a.absorb(b);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.per_op_sum(&["child"]).len(), 2);
        assert_eq!(a.durations("op").len(), 2);
    }
}
