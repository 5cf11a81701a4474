//! Spans recorded by the benchmark around its own calls into each layer,
//! kept in memory and written out as a Chrome `trace_event` document when
//! the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans beyond this many are counted, not kept.
const MAX_SPANS: usize = 200_000;

struct Span {
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
    dur_ns: u64,
    round: u64,
}

/// An in-memory span recorder with one time origin.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Record one span of `layer`; `round` groups the spans of one closed
    /// loop round (the trace's request identifier).
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
        round: u64,
    ) {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            layer,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            round,
        });
    }

    /// The Chrome `trace_event` JSON document of every recorded span.
    pub fn chrome_json(&self, process: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{process}\"}}}}"
        );
        for s in &self.spans {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"round\":{}}}}}",
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.round
            );
        }
        let _ = write!(
            out,
            "],\"otherData\":{{\"dropped_spans\":{}}}}}",
            self.dropped
        );
        out
    }
}
