//! In-memory spans around the calls into each layer.
//!
//! A traced run (`--trace 1`) records one span per layer call, timed
//! segment and service request; an untraced run records nothing, so
//! end-to-end metrics never pay for tracing. Spans are kept in memory
//! and written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; `0` is "no span" (tracing off).
pub type SpanId = u64;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the same boundary (e.g. nodes before → after).
    pub attrs: Vec<(&'static str, u64)>,
}

/// Collects spans from any thread. All methods are no-ops when tracing
/// is off.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closed (and recorded) by [`Tracer::end`].
#[derive(Debug)]
pub struct Open {
    id: SpanId,
    parent: SpanId,
    name: String,
    start_ns: u64,
}

impl Open {
    /// The id children name as their parent (`0` when tracing is off).
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Tracer {
    /// `epoch` is the process start, so `start_ns` of the root span
    /// shows how late the harness began.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, parent: SpanId, name: &str) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                parent: 0,
                name: String::new(),
                start_ns: 0,
            };
        }
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_string(),
            start_ns: self.now_ns(),
        }
    }

    pub fn end(&self, open: Open) {
        self.end_with(open, Vec::new());
    }

    pub fn end_with(&self, open: Open, attrs: Vec<(&'static str, u64)>) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
            attrs,
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&self, parent: SpanId, name: &str, f: impl FnOnce(SpanId) -> T) -> T {
        let open = self.begin(parent, name);
        let out = f(open.id());
        self.end(open);
        out
    }

    /// Adds spans a client thread collected locally (one lock per
    /// thread instead of one per request).
    pub fn extend(&self, spans: Vec<Span>) {
        if self.enabled {
            self.spans.lock().expect("span list poisoned").extend(spans);
        }
    }

    /// A span recorded by a client thread into its own buffer.
    pub fn local(&self, parent: SpanId, name: &str, start: Instant, end: Instant) -> Span {
        Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_string(),
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            attrs: Vec::new(),
        }
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned"))
    }
}

/// Nanoseconds of `span` not covered by any of its children: its
/// duration minus the union of the child intervals, clipped to the
/// span (children on parallel threads overlap and count once).
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut ivs: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    ivs.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (lo, hi) in ivs {
        let lo = lo.max(reach);
        if hi > lo {
            covered += hi - lo;
            reach = hi;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

/// Self time per layer (the span name up to the first `.` or `:`),
/// and the share of the root span its direct children cover.
pub struct Breakdown {
    pub layer_self_ns: BTreeMap<String, u64>,
    pub root_child_coverage: f64,
}

pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut by_parent: BTreeMap<SpanId, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_parent.entry(s.parent).or_default().push(s);
    }
    let none = Vec::new();
    let mut layer_self_ns: BTreeMap<String, u64> = BTreeMap::new();
    let mut root_child_coverage = 0.0;
    for s in spans {
        let kids = by_parent.get(&s.id).unwrap_or(&none);
        let own = self_time_ns(s, kids);
        let layer = s.name.split(['.', ':']).next().unwrap_or(&s.name);
        *layer_self_ns.entry(layer.to_string()).or_default() += own;
        if s.parent == 0 {
            let dur = (s.end_ns - s.start_ns).max(1);
            root_child_coverage = 1.0 - own as f64 / dur as f64;
        }
    }
    Breakdown {
        layer_self_ns,
        root_child_coverage,
    }
}

/// Writes the spans as one JSON array, one span per line.
pub fn write_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        write!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
        for (k, v) in &s.attrs {
            write!(out, ",\"{k}\":{v}")?;
        }
        writeln!(out, "}}{}", if i + 1 < spans.len() { "," } else { "" })?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = span(1, 0, "workload:x", 0, 100);
        let a = span(2, 1, "passes.simplify", 10, 40);
        // Overlaps `a` (a parallel client thread): counted once.
        let b = span(3, 1, "passes.inline", 30, 60);
        // Sticks out past the parent: clipped.
        let c = span(4, 1, "sim.compile", 90, 130);
        assert_eq!(self_time_ns(&root, &[&a, &b, &c]), 100 - 50 - 10);
        assert_eq!(self_time_ns(&a, &[]), 30);
    }

    #[test]
    fn breakdown_groups_by_layer_and_reports_root_coverage() {
        let spans = vec![
            span(1, 0, "workload:x", 0, 100),
            span(2, 1, "passes.simplify", 0, 50),
            span(3, 1, "passes.inline", 50, 96),
            span(4, 2, "sim.compile", 10, 20),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.layer_self_ns["passes"], 40 + 46);
        assert_eq!(b.layer_self_ns["sim"], 10);
        assert_eq!(b.layer_self_ns["workload"], 4);
        assert!((b.root_child_coverage - 0.96).abs() < 1e-9);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false, Instant::now());
        let id = t.scope(0, "x", |id| id);
        assert_eq!(id, 0);
        assert!(t.take().is_empty());
    }
}
