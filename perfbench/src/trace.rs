//! Span recorder for the traced run. Each call into a layer gets a span
//! named after the layer's module, with its start, end, parent span and
//! op id; each op gets a root span whose own (self) time is the `other`
//! remainder no layer span covers. Spans stay in memory and are written
//! out when the run ends; self time (duration minus the child spans
//! inside it) is summed per name as spans close. A disabled recorder
//! costs one branch per call.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// Name of the root span of every op.
pub const OP: &str = "op";

/// Raw spans kept for the trace file. Later spans still count toward the
/// per-name totals but are not stored: the serving workload closes tens of
/// millions of spans a run.
const KEEP: usize = 1 << 18;

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer (or [`OP`]) name.
    pub name: &'static str,
    /// The op this span belongs to (0 = set-up).
    pub op: u64,
    /// Index of the enclosing span in the stored list.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Per-name sums over closed spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Spans closed.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the child spans inside them.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    id: Option<u32>,
    start: Instant,
    child_ns: u64,
}

/// The span recorder of one workload run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Totals>,
}

impl Tracer {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Opens the root span of the next op.
    #[inline]
    pub fn begin_op(&mut self) {
        if self.enabled {
            self.op += 1;
            self.enter(OP);
        }
    }

    /// Closes the root span of the current op.
    #[inline]
    pub fn end_op(&mut self) {
        self.exit();
    }

    /// Opens a span named `name` inside the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = (self.spans.len() < KEEP).then(|| {
            self.spans.push(Span {
                name,
                op: self.op,
                parent: self.stack.last().and_then(|o| o.id),
                start_ns: 0,
                end_ns: 0,
            });
            (self.spans.len() - 1) as u32
        });
        let start = Instant::now();
        if let Some(id) = id {
            self.spans[id as usize].start_ns = nanos(start - self.epoch);
        }
        self.stack.push(Open {
            name,
            id,
            start,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = Instant::now();
        let open = self.stack.pop().expect("every exit closes an entered span");
        let dur = nanos(end - open.start);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(id) = open.id {
            self.spans[id as usize].end_ns = nanos(end - self.epoch);
        }
        let t = self.totals.entry(open.name).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
    }

    /// Sums over the closed spans named `name`.
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Mean self time per span named `name`, in units of `unit_ns`
    /// nanoseconds (0 when none closed).
    pub fn per_call(&self, name: &str, unit_ns: f64) -> f64 {
        let t = self.totals(name);
        ratio(t.self_ns as f64, t.calls as f64 * unit_ns)
    }

    /// Share of the ops' wall time that no layer span covers.
    pub fn other_share(&self) -> f64 {
        let t = self.totals(OP);
        ratio(t.self_ns as f64, t.total_ns as f64)
    }

    /// Writes the stored spans as tab-separated lines: span index, parent
    /// index (-1 for none), op id, name, start and end in nanoseconds.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\tparent\top\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span named `name`.
#[inline]
pub fn span<R>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> R {
    tr.enter(name);
    let r = f();
    tr.exit();
    r
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.begin_op();
        span(&mut tr, "layer", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.end_op();
        let (op, layer) = (tr.totals(OP), tr.totals("layer"));
        assert_eq!((op.calls, layer.calls), (1, 1));
        assert_eq!(op.self_ns, op.total_ns - layer.total_ns);
        assert!(tr.other_share() < 0.5);
        assert_eq!(tr.spans[1].parent, Some(0));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.begin_op();
        span(&mut tr, "layer", || ());
        tr.end_op();
        assert_eq!(tr.totals("layer").calls, 0);
        assert!(tr.spans.is_empty());
    }
}
