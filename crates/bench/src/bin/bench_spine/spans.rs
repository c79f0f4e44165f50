//! In-memory span recorder for the traced repetition.
//!
//! The harness opens a span around each call into a layer's public
//! function: name, start, end, the span that caused it, and a run id shared
//! by all spans of one request (one simulator run or one served job).
//! Spans stay in memory and are written out once, when the run ends.

use crate::json::JsonWriter;
use std::time::Instant;

/// Index of a span inside its [`Recorder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(pub usize);

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub run: u64,
    /// Microseconds since the recorder's epoch.
    pub start_us: f64,
    /// Equal to `start_us` until the span is closed.
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Recorder {
    epoch: Instant,
    run: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose spans carry `run` as their request identifier.
    pub fn new(run: u64) -> Recorder {
        Recorder::with_epoch(run, Instant::now())
    }

    /// As [`Recorder::new`] but on a shared clock, so the spans of several
    /// recorders (one per client thread) can be merged into one timeline.
    pub fn with_epoch(run: u64, epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            run,
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Changes the request identifier stamped on spans opened from now on.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let t = self.now_us();
        self.spans.push(Span {
            name,
            parent,
            run: self.run,
            start_us: t,
            end_us: t,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id` and returns its duration in microseconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let t = self.now_us();
        let s = &mut self.spans[id.0];
        s.end_us = t;
        s.dur_us()
    }

    /// Closes `id` at time `end_us` on the recorder's clock, for a span whose
    /// end is only known in hindsight (a phase ends where the gate that
    /// converted began).
    pub fn end_at(&mut self, id: SpanId, end_us: f64) {
        self.spans[id.0].end_us = end_us;
    }

    /// Inserts a span named `name` over the same interval as the closed span
    /// `id`, under `parent`, and makes `id` its child.
    pub fn wrap(&mut self, id: SpanId, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let inner = self.spans[id.0].clone();
        self.spans.push(Span {
            name,
            parent,
            ..inner
        });
        let outer = SpanId(self.spans.len() - 1);
        self.spans[id.0].parent = Some(outer);
        outer
    }

    /// Times `f` under a span and returns its result with the duration in
    /// seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(name, parent);
        let r = f();
        (r, self.end(id) / 1e6)
    }

    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id.0]
    }

    /// Appends another recorder's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| SpanId(p.0 + base));
            s
        }));
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its direct children cover. Overlapping children are
    /// counted once and a child is clipped to its parent's interval.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut kids: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for c in &self.spans {
            if let Some(p) = c.parent {
                let s = &self.spans[p.0];
                let (a, b) = (c.start_us.max(s.start_us), c.end_us.min(s.end_us));
                if b > a {
                    kids[p.0].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(kids)
            .map(|(s, mut kids)| {
                kids.sort_by(|a, b| a.partial_cmp(b).expect("span times are never NaN"));
                let mut covered = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for (a, b) in kids {
                    if b > reach {
                        covered += b - a.max(reach);
                        reach = b;
                    }
                }
                s.dur_us() - covered
            })
            .collect()
    }

    /// Self time of one span (see [`Recorder::self_times_us`]).
    #[cfg(test)]
    pub fn self_time_us(&self, id: SpanId) -> f64 {
        self.self_times_us()[id.0]
    }

    /// The span file: one object per span, `parent` as an index or null.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        let self_us = self.self_times_us();
        w.begin_array();
        for (i, s) in self.spans.iter().enumerate() {
            w.begin_object();
            w.key("id").uint(i as u64);
            w.key("name").string(s.name);
            match s.parent {
                Some(p) => w.key("parent").uint(p.0 as u64),
                None => w.key("parent").null(),
            };
            w.key("run").uint(s.run);
            w.key("start_us").number(s.start_us);
            w.key("end_us").number(s.end_us);
            w.key("self_us").number(self_us[i]);
            w.end_object();
        }
        w.end_array();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: &[(&'static str, Option<usize>, f64, f64)]) -> Recorder {
        let mut r = Recorder::new(7);
        for &(name, parent, a, b) in spans {
            r.spans.push(Span {
                name,
                parent: parent.map(SpanId),
                run: 7,
                start_us: a,
                end_us: b,
            });
        }
        r
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let r = fixed(&[
            ("parent", None, 0.0, 100.0),
            ("a", Some(0), 10.0, 40.0),
            ("b", Some(0), 30.0, 60.0),  // overlaps a by 10
            ("c", Some(0), 80.0, 120.0), // clipped to the parent's end
        ]);
        // covered = [10,60] + [80,100] = 70
        assert!((r.self_time_us(SpanId(0)) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn self_time_ignores_grandchildren() {
        let r = fixed(&[
            ("run", None, 0.0, 100.0),
            ("phase", Some(0), 0.0, 90.0),
            ("gate", Some(1), 5.0, 85.0),
            ("gate", Some(1), 20.0, 30.0), // nested inside its sibling
        ]);
        assert!((r.self_time_us(SpanId(0)) - 10.0).abs() < 1e-9);
        assert!((r.self_time_us(SpanId(1)) - 10.0).abs() < 1e-9);
        assert!((r.self_time_us(SpanId(2)) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn absorb_rebases_parents_and_json_lists_every_span() {
        let mut a = fixed(&[("x", None, 0.0, 1.0)]);
        let b = fixed(&[("y", None, 0.0, 2.0), ("z", Some(0), 0.5, 1.0)]);
        a.absorb(b);
        assert_eq!(a.get(SpanId(2)).parent, Some(SpanId(1)));
        let text = a.to_json();
        assert_eq!(text.matches("\"name\"").count(), 3);
        assert!(text.contains("\"parent\":null") && text.contains("\"parent\":1"));
    }

    #[test]
    fn wrap_reparents_and_end_at_truncates() {
        let mut r = fixed(&[
            ("run", None, 0.0, 100.0),
            ("phase.dd", Some(0), 0.0, 0.0),
            ("sim.apply", Some(1), 40.0, 70.0),
        ]);
        r.end_at(SpanId(1), 40.0);
        let outer = r.wrap(SpanId(2), "gate.convert", Some(SpanId(0)));
        assert_eq!(r.get(SpanId(2)).parent, Some(outer));
        assert_eq!(r.get(outer).parent, Some(SpanId(0)));
        assert_eq!((r.get(outer).start_us, r.get(outer).end_us), (40.0, 70.0));
        // run = 100 - phase.dd [0,40] - gate.convert [40,70]
        assert!((r.self_time_us(SpanId(0)) - 30.0).abs() < 1e-9);
        assert!(r.self_time_us(outer).abs() < 1e-9);
    }

    #[test]
    fn recorded_spans_nest_in_time() {
        let mut r = Recorder::new(1);
        let outer = r.begin("outer", None);
        let ((), secs) = r.time("inner", Some(outer), || std::hint::black_box(()));
        r.end(outer);
        assert!(secs >= 0.0);
        let (o, i) = (r.get(outer), r.get(SpanId(1)));
        assert!(o.start_us <= i.start_us && i.end_us <= o.end_us);
        assert!(r.self_time_us(outer) <= o.dur_us());
    }
}
