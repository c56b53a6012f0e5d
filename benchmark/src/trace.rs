//! In-memory spans for the traced run, recorded by the benchmark's own
//! code around calls into the layers' public functions, and the per-layer
//! table (self time, waiting, counts) built from them.
//!
//! A disabled tracer records nothing and reads nothing from `/proc`, so
//! code paths shared by traced and untraced rounds pay only a branch.

use crate::host::thread_cpu_s;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Span ids and times are process-wide, so the spans of every round of a
/// run share one id space and one clock.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The farm job the span belongs to, if any.
    pub job: Option<u64>,
    /// Start and end, in seconds since the process's first span.
    pub start: f64,
    pub end: f64,
    /// CPU time of the recording thread over the span.
    pub cpu_s: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A span collector shared by every thread of one round.
pub struct Tracer {
    on: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open a span; it is recorded when the guard drops.
    pub fn span(&self, name: &'static str, parent: Option<u64>) -> Guard<'_> {
        self.job_span(name, parent, None)
    }

    pub fn job_span(&self, name: &'static str, parent: Option<u64>, job: Option<u64>) -> Guard<'_> {
        if self.on {
            EPOCH.get_or_init(Instant::now);
        }
        Guard {
            tr: self,
            id: if self.on {
                NEXT_ID.fetch_add(1, Ordering::Relaxed)
            } else {
                0
            },
            parent,
            name,
            job,
            start: Instant::now(),
            cpu0: if self.on { thread_cpu_s() } else { 0.0 },
        }
    }

    /// Time `f` as a span.
    pub fn time<R>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        let _g = self.span(name, parent);
        f()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().unwrap()
    }

    /// Summed duration of every span called `name` so far.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Durations of every span called `name` so far.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().unwrap();
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }
}

pub struct Guard<'a> {
    tr: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    job: Option<u64>,
    start: Instant,
    cpu0: f64,
}

impl Guard<'_> {
    /// This span's id, to parent spans opened inside it (`None` when the
    /// tracer is off).
    pub fn id(&self) -> Option<u64> {
        self.tr.on.then_some(self.id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if !self.tr.on {
            return;
        }
        let end = Instant::now();
        let t0 = *EPOCH.get().expect("set when the span opened");
        let cpu_s = (thread_cpu_s() - self.cpu0).max(0.0);
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            job: self.job,
            start: (self.start - t0).as_secs_f64(),
            end: (end - t0).as_secs_f64(),
            cpu_s,
        };
        self.tr.spans.lock().unwrap().push(span);
    }
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: usize,
    pub total_s: f64,
    /// Duration minus the time covered by the span's children.
    pub self_s: f64,
    /// Duration minus the recording thread's CPU time: blocked on locks,
    /// I/O, the network, other threads, or the run queue.
    pub wait_s: f64,
}

/// Aggregate spans by name, in order of first appearance.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let mut children: std::collections::HashMap<u64, Vec<(f64, f64)>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut rows: Vec<LayerRow> = Vec::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0.0, |c| covered_within(c, s.start, s.end));
        let i = match rows.iter().position(|r| r.name == s.name) {
            Some(i) => i,
            None => {
                rows.push(LayerRow {
                    name: s.name,
                    count: 0,
                    total_s: 0.0,
                    self_s: 0.0,
                    wait_s: 0.0,
                });
                rows.len() - 1
            }
        };
        let r = &mut rows[i];
        r.count += 1;
        r.total_s += s.duration();
        r.self_s += (s.duration() - covered).max(0.0);
        r.wait_s += (s.duration() - s.cpu_s).max(0.0);
    }
    rows
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_within(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut iv: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let (mut total, mut cur): (f64, Option<(f64, f64)>) = (0.0, None);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

/// One span as a JSON line, tagged with the run (and farm job) it belongs to.
pub fn span_json(run: &str, s: &Span) -> String {
    let mut o = ldsim_util::JsonObject::new();
    o.str("run", run)
        .u64("span", s.id)
        .opt_u64("parent", s.parent)
        .str("name", s.name)
        .opt_u64("job", s.job)
        .f64("start_s", s.start)
        .f64("end_s", s.end)
        .f64("cpu_s", s.cpu_s);
    o.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            job: None,
            start,
            end,
            cpu_s: end - start,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (1..3, 2..4) cover 3 s of a 10 s parent;
        // a child reaching past the parent's end is clipped.
        let spans = [
            span(1, None, "round", 0.0, 10.0),
            span(2, Some(1), "sim", 1.0, 3.0),
            span(3, Some(1), "sim", 2.0, 4.0),
            span(4, Some(1), "render", 9.0, 12.0),
        ];
        let t = layer_table(&spans);
        assert_eq!(t[0].name, "round");
        assert!((t[0].self_s - 6.0).abs() < 1e-12);
        assert_eq!((t[1].name, t[1].count), ("sim", 2));
        assert!((t[1].total_s - 4.0).abs() < 1e-12);
        assert!((t[1].self_s - 4.0).abs() < 1e-12);
    }

    #[test]
    fn waiting_is_wall_minus_cpu() {
        let mut s = span(1, None, "job", 0.0, 2.0);
        s.cpu_s = 0.5;
        assert!((layer_table(&[s])[0].wait_s - 1.5).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        let g = tr.span("x", None);
        assert_eq!(g.id(), None);
        drop(g);
        assert!(tr.into_spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents() {
        let tr = Tracer::new(true);
        {
            let outer = tr.span("outer", None);
            tr.time("inner", outer.id(), || ());
        }
        let spans = tr.into_spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start >= outer.start && inner.end <= outer.end);
    }
}
