//! The benchmark's tracer: spans around its own calls into each layer,
//! plus a [`GcEventSink`] that turns the runtime's collection, request
//! and park/resume events into spans.
//!
//! Spans stay in memory until the run ends. Every other event kind is
//! only counted, so the sink's cost stays small and fixed per event.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use tfgc::obs::{GcEvent, GcEventSink, Json, Obs};

/// Index of a span in the current repetition's span list.
pub type SpanId = usize;

/// One closed (or still open, `end_ns == 0`) interval on the timeline.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Timeline row: 0 for the benchmark's own calls, `1 + slot` for a
    /// request engine slot.
    pub row: u32,
    /// Request id (`req`) or collection number (`seq`) when the span
    /// comes from the runtime.
    pub id: Option<u64>,
}

/// Raw samples gathered by the sink, in nanoseconds.
#[derive(Debug, Default)]
pub struct Samples {
    /// Per request since the last [`Tracer::take_latency`]: dispatch to
    /// completion, as the engine stamps it.
    pub latency_ns: Vec<f64>,
    /// Per collection.
    pub pause_ns: Vec<f64>,
    /// Per park: from park to resume.
    pub park_wait_ns: Vec<f64>,
}

/// Span time per layer, summed over the repetitions folded in.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub spans: u64,
    pub total_ns: u64,
    /// Span time minus the part covered by the span's children.
    pub self_ns: u64,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    /// The span the sink's spans hang under (the engine or VM call).
    exec: Option<SpanId>,
    /// Obs epoch on the tracer's clock: sink timestamps are relative to
    /// the `Obs` they came through.
    offset_ns: u64,
    open_gc: Option<SpanId>,
    /// Per engine slot: the open request span and the open park span.
    slot_req: Vec<Option<SpanId>>,
    slot_park: Vec<Option<SpanId>>,
    samples: Samples,
    /// Events received per kind (spans included), by [`kind_index`],
    /// with the kind's name.
    counts: [(&'static str, u64); KINDS],
    layers: BTreeMap<&'static str, LayerTime>,
}

/// Number of [`GcEvent`] variants (the arms of [`kind_index`]).
const KINDS: usize = 21;

fn kind_index(ev: &GcEvent) -> usize {
    match ev {
        GcEvent::CollectionBegin { .. } => 0,
        GcEvent::CollectionEnd { .. } => 1,
        GcEvent::FrameVisit { .. } => 2,
        GcEvent::RoutineRun { .. } => 3,
        GcEvent::ObjectCopied { .. } => 4,
        GcEvent::Alloc { .. } => 5,
        GcEvent::TaskParked { .. } => 6,
        GcEvent::TaskResumed { .. } => 7,
        GcEvent::Phase { .. } => 8,
        GcEvent::VerificationEnd { .. } => 9,
        GcEvent::FaultInjected { .. } => 10,
        GcEvent::HeapGrown { .. } => 11,
        GcEvent::RequestStart { .. } => 12,
        GcEvent::RequestEnd { .. } => 13,
        GcEvent::HeapSample { .. } => 14,
        GcEvent::RequestShed { .. } => 15,
        GcEvent::DeadlineExceeded { .. } => 16,
        GcEvent::BreakerOpen { .. } => 17,
        GcEvent::BreakerHalfOpen { .. } => 18,
        GcEvent::BreakerClose { .. } => 19,
        GcEvent::BacklogSample { .. } => 20,
    }
}

impl State {
    fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        row: u32,
        id: Option<u64>,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: 0,
            row,
            id,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: SpanId, end_ns: u64) {
        self.spans[span].end_ns = end_ns;
    }

    fn slot(v: &mut Vec<Option<SpanId>>, task: u32) -> &mut Option<SpanId> {
        let i = task as usize;
        if v.len() <= i {
            v.resize(i + 1, None);
        }
        &mut v[i]
    }

    fn close_park(&mut self, task: u32, t: u64) {
        if let Some(p) = Self::slot(&mut self.slot_park, task).take() {
            self.close(p, t);
            let wait = t.saturating_sub(self.spans[p].start_ns);
            self.samples.park_wait_ns.push(wait as f64);
        }
    }

    fn record(&mut self, ev: GcEvent) {
        let count = &mut self.counts[kind_index(&ev)];
        *count = (ev.kind(), count.1 + 1);
        let offset = self.offset_ns;
        let at = |t: u64| t + offset;
        match ev {
            GcEvent::CollectionBegin { t_ns, seq, .. } => {
                let s = self.open("gc.collection", self.exec, at(t_ns), 0, Some(seq));
                self.open_gc = Some(s);
            }
            GcEvent::CollectionEnd { t_ns, pause_ns, .. } => {
                if let Some(s) = self.open_gc.take() {
                    self.close(s, at(t_ns));
                }
                self.samples.pause_ns.push(pause_ns as f64);
            }
            GcEvent::RequestStart {
                t_ns, req, task, ..
            } => {
                let s = self.open("tasking.request", self.exec, at(t_ns), task + 1, Some(req));
                *Self::slot(&mut self.slot_req, task) = Some(s);
            }
            GcEvent::RequestEnd {
                t_ns,
                task,
                latency_ns,
                ..
            } => {
                self.close_park(task, at(t_ns));
                if let Some(s) = Self::slot(&mut self.slot_req, task).take() {
                    self.close(s, at(t_ns));
                }
                self.samples.latency_ns.push(latency_ns as f64);
            }
            GcEvent::TaskParked { t_ns, task, .. } => {
                let parent = Self::slot(&mut self.slot_req, task).or(self.exec);
                let s = self.open("tasking.park", parent, at(t_ns), task + 1, None);
                *Self::slot(&mut self.slot_park, task) = Some(s);
            }
            GcEvent::TaskResumed { t_ns, task } => self.close_park(task, at(t_ns)),
            _ => {}
        }
    }

    /// Adds each span's total and self time to its layer.
    fn fold_layers(&mut self) {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let covered = covered_ns(s.start_ns, s.end_ns, kids);
            let l = self.layers.entry(s.name).or_default();
            l.spans += 1;
            l.total_ns += total;
            l.self_ns += total - covered;
        }
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// The sink handed to the runtime through [`Obs::custom`].
struct SpanSink(Rc<RefCell<State>>);

impl GcEventSink for SpanSink {
    fn record(&mut self, ev: GcEvent) {
        self.0.borrow_mut().record(ev);
    }
}

/// The benchmark-owned tracer. One per workload run.
pub struct Tracer {
    epoch: Instant,
    state: Rc<RefCell<State>>,
    /// Spans of the most recent repetition, kept for the trace file.
    last: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: Rc::default(),
            last: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span at the current time.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let t = self.now_ns();
        self.state.borrow_mut().open(name, parent, t, 0, None)
    }

    /// Closes `span` at the current time, returning its length in ns.
    pub fn close(&self, span: SpanId) -> u64 {
        let t = self.now_ns();
        let mut st = self.state.borrow_mut();
        st.close(span, t);
        t - st.spans[span].start_ns
    }

    /// Runs `f` inside a span named `name`; returns its value and the
    /// span's length in ns.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let s = self.open(name, parent);
        let v = f();
        (v, self.close(s))
    }

    /// An `Obs` whose events land in this tracer, with the runtime's
    /// spans hung under `exec`.
    pub fn obs(&self, exec: SpanId) -> Obs {
        let mut st = self.state.borrow_mut();
        st.exec = Some(exec);
        st.open_gc = None;
        st.slot_req.clear();
        st.slot_park.clear();
        st.offset_ns = self.now_ns();
        drop(st);
        Obs::custom(Box::new(SpanSink(self.state.clone())))
    }

    /// Ends a repetition: folds its spans into the per-layer totals and
    /// keeps them as the trace file's timeline.
    pub fn end_rep(&mut self) {
        let mut st = self.state.borrow_mut();
        st.fold_layers();
        self.last = std::mem::take(&mut st.spans);
    }

    /// Forgets samples, counts and layer totals (after the warm-up).
    pub fn reset(&mut self) {
        let mut st = self.state.borrow_mut();
        st.samples = Samples::default();
        st.counts = [("", 0); KINDS];
        st.layers.clear();
    }

    /// Adds one latency sample timed by the benchmark (the request
    /// engine reports its own through the sink).
    pub fn push_latency(&self, ns: u64) {
        self.state.borrow_mut().samples.latency_ns.push(ns as f64);
    }

    /// Takes the latency samples recorded since the last call.
    pub fn take_latency(&self) -> Vec<f64> {
        std::mem::take(&mut self.state.borrow_mut().samples.latency_ns)
    }

    /// Events received so far (all kinds).
    pub fn events(&self) -> u64 {
        self.state.borrow().counts.iter().map(|c| c.1).sum()
    }

    /// Runs `f` over the samples gathered so far.
    pub fn with_samples<T>(&self, f: impl FnOnce(&Samples) -> T) -> T {
        f(&self.state.borrow().samples)
    }

    /// Per-layer span time since the last [`Tracer::reset`].
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        self.state.borrow().layers.clone()
    }

    /// The trace document: the last repetition's spans in Chrome trace
    /// format, the per-layer self time and the event counts.
    pub fn to_json(&self, reps: usize) -> Json {
        let ms = |ns: u64| Json::Num(ns as f64 / 1e6);
        let st = self.state.borrow();
        let events = self.last.iter().map(|s| {
            let mut args = vec![("parent", s.parent.map_or(Json::Null, Json::from))];
            if let Some(id) = s.id {
                args.push(("id", Json::from(id)));
            }
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                (
                    "dur",
                    Json::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                ),
                ("pid", Json::from(1u32)),
                ("tid", Json::from(s.row)),
                ("args", Json::obj(args)),
            ])
        });
        let layers = st.layers.iter().map(|(name, l)| {
            (
                name.to_string(),
                Json::obj([
                    ("spans", Json::from(l.spans)),
                    ("total_ms", ms(l.total_ns)),
                    ("self_ms", ms(l.self_ns)),
                ]),
            )
        });
        let counts = st
            .counts
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(k, n)| (k.to_string(), Json::from(*n)));
        Json::obj([
            ("traceEvents", Json::arr(events)),
            ("repetitions", Json::from(reps)),
            ("layers", Json::Obj(layers.collect())),
            ("event_counts", Json::Obj(counts.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_time_merges_overlaps_and_clips() {
        let mut v = [(5, 10), (0, 3), (8, 12), (20, 30)];
        // [2, 25): 2..3, 5..12, 20..25.
        assert_eq!(covered_ns(2, 25, &mut v), 1 + 7 + 5);
        assert_eq!(covered_ns(0, 10, &mut []), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut st = State::default();
        let root = st.open("vm.run", None, 0, 0, None);
        let a = st.open("gc.collection", Some(root), 10, 0, Some(0));
        st.close(a, 30);
        let b = st.open("gc.collection", Some(root), 50, 0, Some(1));
        st.close(b, 60);
        st.close(root, 100);
        st.fold_layers();
        assert_eq!(st.layers["vm.run"].self_ns, 70);
        assert_eq!(st.layers["gc.collection"].self_ns, 30);
        assert_eq!(st.layers["gc.collection"].spans, 2);
    }

    #[test]
    fn sink_pairs_requests_parks_and_collections() {
        let mut st = State::default();
        let exec = st.open("tasking.serve", None, 0, 0, None);
        st.exec = Some(exec);
        st.record(GcEvent::RequestStart {
            t_ns: 1,
            req: 7,
            task: 2,
            kind: 0,
        });
        st.record(GcEvent::TaskParked {
            t_ns: 4,
            task: 2,
            site: 0,
        });
        st.record(GcEvent::TaskResumed { t_ns: 9, task: 2 });
        st.record(GcEvent::RequestEnd {
            t_ns: 12,
            req: 7,
            task: 2,
            latency_ns: 11,
            ok: true,
        });
        st.record(GcEvent::FrameVisit {
            seq: 0,
            fn_id: 0,
            site: 0,
        });
        assert_eq!(st.samples.latency_ns, vec![11.0]);
        assert_eq!(st.samples.park_wait_ns, vec![5.0]);
        let park = &st.spans[2];
        assert_eq!(
            (park.name, park.parent, park.row),
            ("tasking.park", Some(1), 3)
        );
        assert_eq!(st.spans[1].id, Some(7));
        assert_eq!(st.counts.iter().map(|c| c.1).sum::<u64>(), 5);
        assert_eq!(st.counts[2], ("frame_visit", 1));
    }
}
