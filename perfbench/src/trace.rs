//! Outside-in spans: the benchmark times its own calls into each layer.
//!
//! A span has a name, a layer, start and end, its parent span and the op
//! it belongs to. Spans stay in memory and are written out as JSON lines
//! when the run ends. A span's *self time* is its duration minus the part
//! of it that its children cover; summed over one op's span tree it
//! reproduces the op's wall time exactly when children nest inside their
//! parents without overlapping, which the smoke tests check. The self time
//! of an op's root span in the `bench` layer is *glue*: time inside the op
//! that no layer span covers.
//!
//! Tracing is switched per op. An untraced op records nothing: the
//! workload times only the op itself, so the difference between traced
//! and untraced op times is the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within the run.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// The op this span belongs to.
    pub op: u32,
    /// Whether this span is the root of its op's tree.
    pub root: bool,
    /// What was timed, e.g. `core.calibrate`.
    pub name: &'static str,
    /// The layer that did the work, e.g. `core`.
    pub layer: &'static str,
    /// Start instant.
    pub start: Instant,
    /// End instant.
    pub end: Instant,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        ms_between(self.start, self.end)
    }
}

/// Milliseconds from `a` to `b` (zero if `b` precedes `a`).
pub fn ms_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// A span that has started and not yet ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// The id the span will be recorded under; children use it as parent.
    pub id: u32,
    parent: Option<u32>,
    op: u32,
    root: bool,
    name: &'static str,
    layer: &'static str,
    start: Instant,
}

impl Open {
    /// When the span started.
    pub fn start(&self) -> Instant {
        self.start
    }
}

/// The span recorder. `Sync`, so socket vehicles can record from their
/// own threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    active: AtomicBool,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An inactive recorder.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            active: AtomicBool::new(false),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switches recording on or off for the ops that follow.
    pub fn set_active(&self, on: bool) {
        self.active.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    fn open_span(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<u32>,
        op: u32,
        root: bool,
    ) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            op,
            root,
            name,
            layer,
            start: Instant::now(),
        }
    }

    /// Starts the root span of op `op`. Its duration is the op's wall
    /// time, so it is timed whether or not recording is on.
    pub fn open_op(&self, name: &'static str, layer: &'static str, op: u32) -> Open {
        self.open_span(name, layer, None, op, true)
    }

    /// Starts a child of `parent`.
    pub fn open(&self, name: &'static str, layer: &'static str, parent: &Open) -> Open {
        self.open_span(name, layer, Some(parent.id), parent.op, false)
    }

    /// Ends `open` now, records it if recording is on, and returns its
    /// duration in milliseconds.
    pub fn close(&self, open: Open) -> f64 {
        let end = Instant::now();
        if self.active() {
            self.push(Span {
                id: open.id,
                parent: open.parent,
                op: open.op,
                root: open.root,
                name: open.name,
                layer: open.layer,
                start: open.start,
                end,
            });
        }
        ms_between(open.start, end)
    }

    /// Runs `f` as a child span of `parent` when recording is on, and
    /// untimed otherwise.
    pub fn child<T>(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: &Open,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.active() {
            return f();
        }
        let span = self.open(name, layer, parent);
        let out = f();
        self.close(span);
        out
    }

    /// Records an already-timed span (e.g. from per-round callbacks or
    /// timestamps taken on another thread). Returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<u32>,
        op: u32,
        root: bool,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            op,
            root,
            name,
            layer,
            start,
            end,
        });
        id
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Writes every span as one JSON line (times in microseconds since
    /// the recorder was created).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"root\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                s.op,
                s.root,
                s.name,
                s.layer,
                us(s.start),
                us(s.end)
            )?;
        }
        out.flush()
    }
}

/// Durations in milliseconds of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Self time of every span, in milliseconds, keyed by span id: duration
/// minus the union of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, f64> {
    let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut parts: Vec<(Instant, Instant)> = children
                .get(&s.id)
                .map(|cs| {
                    cs.iter()
                        .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            parts.sort();
            let mut covered = 0.0;
            let mut cur: Option<(Instant, Instant)> = None;
            for (a, b) in parts {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += ms_between(ca, cb);
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += ms_between(ca, cb);
            }
            (s.id, s.ms() - covered)
        })
        .collect()
}

/// Times of one op's span tree.
#[derive(Debug, Default)]
pub struct OpTimes {
    /// The root span's duration.
    pub wall_ms: f64,
    /// The root's self time when the root is a `bench` span, else zero.
    pub glue_ms: f64,
    /// Layer → self time summed over the root and all its descendants.
    pub layers: BTreeMap<&'static str, f64>,
}

/// Per-op breakdown of the op trees, for every op with a root span.
#[derive(Debug, Default)]
pub struct OpBreakdown {
    /// Op id → its times.
    pub ops: BTreeMap<u32, OpTimes>,
}

impl OpBreakdown {
    /// Builds the breakdown from recorded spans.
    pub fn new(spans: &[Span]) -> Self {
        let selfs = self_times(spans);
        let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        let root_of = |s: &Span| -> Option<u32> {
            let mut s = s;
            while let Some(&p) = s.parent.and_then(|p| by_id.get(&p)) {
                s = p;
            }
            s.root.then_some(s.id)
        };
        let mut ops = BTreeMap::new();
        for s in spans.iter().filter(|s| s.root) {
            let op = OpTimes {
                wall_ms: s.ms(),
                glue_ms: if s.layer == "bench" {
                    selfs[&s.id]
                } else {
                    0.0
                },
                layers: BTreeMap::new(),
            };
            ops.insert(s.op, op);
        }
        for s in spans {
            let Some(root) = root_of(s) else { continue };
            if let Some(op) = ops.get_mut(&by_id[&root].op) {
                *op.layers.entry(s.layer).or_insert(0.0) += selfs[&s.id];
            }
        }
        OpBreakdown { ops }
    }

    /// Self time of `layer` in every op (zero where the layer is absent).
    pub fn layer_ms(&self, layer: &str) -> Vec<f64> {
        self.ops
            .values()
            .map(|op| op.layers.get(layer).copied().unwrap_or(0.0))
            .collect()
    }

    /// Glue over wall time, summed over all ops: the share of op time the
    /// layer spans leave uncovered.
    pub fn glue_share(&self) -> f64 {
        let wall: f64 = self.ops.values().map(|op| op.wall_ms).sum();
        let glue: f64 = self.ops.values().map(|op| op.glue_ms).sum();
        if wall > 0.0 {
            glue / wall
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new();
        let b = Instant::now();
        let root = t.record("op", "bench", None, 0, true, at(b, 0), at(b, 100));
        t.record("a", "core", Some(root), 0, false, at(b, 10), at(b, 40));
        // Overlaps `a`: the union, not the sum, is subtracted.
        t.record("b", "core", Some(root), 0, false, at(b, 30), at(b, 50));
        let spans = t.spans();
        let selfs = self_times(&spans);
        assert!((selfs[&root] - 60.0).abs() < 1e-9);
        let bd = OpBreakdown::new(&spans);
        assert!((bd.layer_ms("bench")[0] - 60.0).abs() < 1e-9);
        assert!((bd.layer_ms("core")[0] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn nested_spans_sum_to_the_root_wall_time() {
        let t = Tracer::new();
        let b = Instant::now();
        let root = t.record("op", "bench", None, 3, true, at(b, 0), at(b, 100));
        let mid = t.record("fl.round", "fl", Some(root), 3, false, at(b, 5), at(b, 95));
        for k in 0..4 {
            let s = 10 + 20 * k;
            t.record(
                "nn.grad",
                "nn",
                Some(mid),
                3,
                false,
                at(b, s),
                at(b, s + 15),
            );
        }
        // A span outside any op tree does not count.
        t.record(
            "storage.scan",
            "storage",
            None,
            3,
            false,
            at(b, 0),
            at(b, 500),
        );
        let bd = OpBreakdown::new(&t.spans());
        assert!((bd.glue_share() - 0.1).abs() < 1e-12);
        assert!((bd.layer_ms("nn")[0] - 60.0).abs() < 1e-9);
        assert!((bd.layer_ms("fl")[0] - 30.0).abs() < 1e-9);
        assert_eq!(bd.layer_ms("storage"), vec![0.0]);
    }

    #[test]
    fn inactive_tracer_records_nothing_but_still_times_ops() {
        let t = Tracer::new();
        let op = t.open_op("op", "bench", 0);
        let v = t.child("core.x", "core", &op, || 7);
        assert_eq!(v, 7);
        assert!(t.close(op) >= 0.0);
        assert!(t.spans().is_empty());
        t.set_active(true);
        let op = t.open_op("op", "bench", 1);
        t.child("core.x", "core", &op, || ());
        t.close(op);
        assert_eq!(t.spans().len(), 2);
    }
}
