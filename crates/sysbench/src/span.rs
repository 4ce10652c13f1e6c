//! In-memory span recorder for the traced run.
//!
//! The harness wraps every call it makes into a layer of the system
//! (param generation, `run_model_simulated_with`, `DiskStore::open`,
//! server spawn, POST → 202, each JSONL line, …) in a span: name, start,
//! end, the span that caused it, and the id of the op (pass or request)
//! it belongs to. Spans stay in memory and are written out once, at the
//! end, as the Chrome-trace JSON `stonne_core::chrome_trace_json` already
//! emits for simulated timelines. A disabled recorder records nothing,
//! which is how the untraced run is measured.
//!
//! Spans *inside* the program under test are a later change (`hostprof`
//! in ROADMAP item 1); everything here is observed from outside.

use std::time::Instant;

/// Handle to an open or closed span (`NONE` when recording is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The handle a disabled recorder hands out; also "no parent".
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position in the recorder (what children name as `parent`).
    pub id: u32,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// Op id: every span of one pass/request shares it.
    pub op: u32,
    /// Track (one per workload) the span is drawn on.
    pub track: u32,
    /// What was called.
    pub name: String,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock covered by the span, in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder: toggled on for traced ops, off for untraced ones.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    track_names: Vec<String>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that starts disabled.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            enabled: false,
            track_names: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off (open spans may still be ended).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts a new named track; later spans are drawn on it.
    pub fn start_track(&mut self, name: &str) {
        self.track_names.push(name.to_owned());
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns [`SpanId::NONE`] when recording is off.
    pub fn begin(&mut self, name: &str, parent: SpanId, op: u32) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        if self.track_names.is_empty() {
            self.start_track("harness");
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            op,
            track: self.track_names.len() as u32 - 1,
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
        });
        SpanId(id)
    }

    /// Closes a span opened by [`Recorder::begin`].
    pub fn end(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id.0 as usize) {
            span.end_ns = now;
        }
    }

    /// Records a span after the fact, from instants the caller took
    /// (the arrival of each line of a streamed response).
    pub fn push(&mut self, name: &str, parent: SpanId, op: u32, start: Instant, end: Instant) {
        let id = self.begin(name, parent, op);
        if id == SpanId::NONE {
            return;
        }
        let epoch = self.epoch;
        let since = |at: Instant| at.saturating_duration_since(epoch).as_nanos() as u64;
        let span = &mut self.spans[id.0 as usize];
        span.start_ns = since(start);
        span.end_ns = since(end);
    }

    /// Every span recorded so far, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the spans as Chrome-trace JSON (Perfetto-compatible): one
    /// `ph:"X"` event per span, one named thread track per workload,
    /// timestamps in microseconds of host wall-clock.
    pub fn chrome_trace_json(&self) -> String {
        let mut events = vec![
            "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 0, \"tid\": 0, \
             \"args\": {\"name\": \"sysbench (host time)\"}}"
                .to_owned(),
        ];
        for (tid, name) in self.track_names.iter().enumerate() {
            events.push(format!(
                "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                escape_json(name)
            ));
        }
        for s in &self.spans {
            events.push(format!(
                "{{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"host\", \"pid\": 0, \"tid\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"op\": {}}}}}",
                escape_json(&s.name),
                s.track,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.op,
            ));
        }
        format!(
            "{{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n    {}\n  ]\n}}\n",
            events.join(",\n    ")
        )
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Self time of every span, index-aligned with `spans`: the span's
/// duration minus the part of its interval that its direct children
/// cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| spans.get(p as usize)) {
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[parent.id as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Total and self time per span name, sorted by self time (largest
/// first): `(name, count, total_ns, self_ns)`.
pub fn summarize(spans: &[Span]) -> Vec<(String, usize, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut rows: Vec<(String, usize, u64, u64)> = Vec::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == span.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += span.duration_ns();
                row.3 += self_ns;
            }
            None => rows.push((span.name.clone(), 1, span.duration_ns(), self_ns)),
        }
    }
    rows.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
    rows
}

/// Smallest share, over the spans named `name`, of the span's duration
/// that its children account for (1.0 when there are no such spans).
pub fn min_child_coverage(spans: &[Span], name: &str) -> f64 {
    let selfs = self_times_ns(spans);
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name && s.duration_ns() > 0)
        .map(|(s, self_ns)| 1.0 - self_ns as f64 / s.duration_ns() as f64)
        .fold(1.0, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            track: 0,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),  // overlaps span 1 by 10
            span(3, Some(1), 15, 20),  // grandchild: charged to span 1 only
            span(4, Some(0), 90, 130), // runs past its parent: clipped
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 25, 30, 5, 40]);
    }

    #[test]
    fn coverage_is_the_worst_case_over_same_named_spans() {
        let mut spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 0, 95),
            span(2, None, 200, 300),
            span(3, Some(2), 200, 280),
        ];
        spans[0].name = "op".into();
        spans[2].name = "op".into();
        assert!((min_child_coverage(&spans, "op") - 0.8).abs() < 1e-12);
        assert_eq!(min_child_coverage(&spans, "absent"), 1.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new();
        let id = rec.begin("x", SpanId::NONE, 0);
        rec.end(id);
        assert_eq!(id, SpanId::NONE);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn recorder_links_children_and_emits_chrome_trace() {
        let mut rec = Recorder::new();
        rec.set_enabled(true);
        rec.start_track("model_uncached");
        let op = rec.begin("op", SpanId::NONE, 3);
        let child = rec.begin("run \"bert\"", op, 3);
        rec.end(child);
        rec.end(op);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let json = rec.chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("run \\\"bert\\\""));
        assert!(json.contains("\"name\": \"model_uncached\""));
        let rows = summarize(spans);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.iter().map(|r| r.1).sum::<usize>(), 2);
    }
}
