//! In-memory span log for the traced pass.
//!
//! A span is a named host-time interval with an id and the id of the
//! span that caused it. Spans are recorded from the benchmark's own
//! files, around the calls into each layer (spans inside the program
//! are a later change), kept in memory, and written out when the run
//! ends. A span's *self time* is its duration minus the part its child
//! spans cover.

use apm_harness::json::Json;
use std::time::Instant;

/// Identifies a span in its log; `ROOT` is "no parent".
pub type SpanId = u32;
pub const ROOT: SpanId = 0;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The log, and the one clock every timed region of a traced run reads.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    /// Whether the traced loop records op-level spans (first iteration
    /// of a run only: later ones would repeat them).
    pub sample_ops: bool,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            // Wall-clock by design: the benchmark measures host time.
            epoch: Instant::now(), // audit:allow(clock)
            spans: Vec::new(),
            sample_ops: true,
        }
    }

    /// Host nanoseconds since the log was created.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the log's creation to `at` (0 if earlier).
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn push(&mut self, name: &str, parent: SpanId, start_ns: u64, end_ns: u64) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span now; [`SpanLog::close`] ends it.
    pub fn open(&mut self, name: &str, parent: SpanId) -> SpanId {
        let now = self.now_ns();
        self.push(name, parent, now, now)
    }

    /// Ends an open span now and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        self.set_end(id, now);
        let span = &self.spans[id as usize - 1];
        span.end_ns - span.start_ns
    }

    /// Moves a span's end (op spans end when their completion is recorded).
    pub fn set_end(&mut self, id: SpanId, end_ns: u64) {
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span, in log order: duration minus direct children.
    /// Children of one parent never overlap here (one thread), so the
    /// part they cover is the sum of their durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for span in &self.spans {
            if span.parent != ROOT {
                let child = span.end_ns.saturating_sub(span.start_ns);
                let slot = &mut own[span.parent as usize - 1];
                *slot = slot.saturating_sub(child);
            }
        }
        own
    }

    /// The log as JSON: one object per span with its self time.
    pub fn to_json(&self) -> Json {
        let own = self.self_ns();
        Json::Arr(
            self.spans
                .iter()
                .zip(own)
                .map(|(s, self_ns)| {
                    Json::Obj(vec![
                        ("id".into(), Json::Num(f64::from(s.id))),
                        ("parent".into(), Json::Num(f64::from(s.parent))),
                        ("name".into(), Json::Str(s.name.clone())),
                        ("start_ns".into(), Json::Num(s.start_ns as f64)),
                        ("end_ns".into(), Json::Num(s.end_ns as f64)),
                        ("self_ns".into(), Json::Num(self_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::new();
        let root = log.push("point", ROOT, 0, 100);
        let load = log.push("load", root, 10, 40);
        log.push("drive", root, 40, 95);
        log.push("finish_load", load, 30, 40);
        assert_eq!(log.self_ns(), vec![15, 20, 55, 10]);
    }

    #[test]
    fn open_close_orders_start_and_end() {
        let mut log = SpanLog::new();
        let id = log.open("x", ROOT);
        let ns = log.close(id);
        let span = &log.spans()[0];
        assert_eq!(span.end_ns - span.start_ns, ns);
    }
}
