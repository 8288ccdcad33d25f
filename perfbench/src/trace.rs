//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Nothing inside the program is instrumented: a span covers one
//! call the benchmark makes (`run_for`, `checkpoint_and_wait`, …), so its
//! self time is the host time that layer's public entry point took.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are host nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Operation the span belongs to: 0 for set-up, then one id per
    /// checkpoint generation or restart.
    pub op: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Simulation events fired inside the span.
    pub events: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. When off, `begin`/`end` return at once, so the untraced
/// run pays one branch per call.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Start a new operation; spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: now,
            end_ns: now,
            events: 0,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Close the innermost open span, charging it `events` simulation
    /// events.
    pub fn end(&mut self, events: u64) {
        if !self.on {
            return;
        }
        let i = self.stack.pop().expect("end without begin");
        self.spans[i].end_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans[i].events = events;
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "unclosed span");
        self.spans
    }
}

/// Self time per span name (duration minus the part its children cover),
/// in host seconds, together with the summed duration and events.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub self_s: f64,
    pub total_s: f64,
    pub events: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.self_s += (s.dur_ns() - child_ns[i]) as f64 / 1e9;
        t.total_s += s.dur_ns() as f64 / 1e9;
        t.events += s.events;
    }
    out
}

/// Chrome trace-event JSON (load in Perfetto). `episodes` holds each
/// traced episode's spans; each episode becomes its own track.
pub fn chrome_json(episodes: &[&[Span]]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (tid, spans) in episodes.iter().enumerate() {
        for s in spans.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":{},\"events\":{}}}}}",
                s.name,
                tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
                s.parent.map_or(-1, |p| p as i64),
                s.events
            );
        }
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns: start,
            end_ns: end,
            events: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("core.restart", None, 0, 1_000),
            span("core.kill", Some(0), 0, 100),
            span("core.restart_call", Some(0), 100, 900),
        ];
        let t = totals_by_name(&spans);
        assert!((t["core.restart"].self_s - 100e-9).abs() < 1e-15);
        assert!((t["core.restart_call"].self_s - 800e-9).abs() < 1e-15);
        assert!((t["core.restart"].total_s - 1_000e-9).abs() < 1e-15);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.begin("apps.gap");
        tr.end(5);
        assert!(tr.into_spans().is_empty());
    }
}
