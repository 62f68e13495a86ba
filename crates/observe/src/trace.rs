//! Chrome-trace-event span export (Perfetto-loadable).
//!
//! [`TraceCollector`] records one complete (`ph:"X"`) event per profiled
//! stage call, on a per-worker track (`tid` = worker index; the serial
//! driver is worker 0). [`Telemetry::time`](crate::Telemetry::time) feeds it
//! the same measurement it charges to the stage accumulators, so the trace
//! is a faithful expansion of the aggregate stage profile.
//!
//! The collector is bounded: past [`DEFAULT_SPAN_CAP`] spans it counts
//! drops instead of growing without limit, so `--trace` on a long campaign
//! degrades to a truncated trace rather than an OOM.

use crate::profile::Stage;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Maximum retained spans (~48 bytes each → ~96 MiB of JSON at the cap).
pub const DEFAULT_SPAN_CAP: usize = 2_000_000;

#[derive(Clone, Copy)]
struct Span {
    worker: u32,
    stage: Stage,
    /// Microseconds since the collector's epoch.
    ts_us: u64,
    dur_us: u64,
}

/// Thread-safe bounded span store. One collector serves the whole campaign;
/// worker children share it through their telemetry handles.
pub struct TraceCollector {
    epoch: Instant,
    cap: usize,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl Default for TraceCollector {
    fn default() -> Self {
        Self::with_cap(DEFAULT_SPAN_CAP)
    }
}

impl TraceCollector {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_cap(cap: usize) -> Self {
        Self {
            epoch: Instant::now(),
            cap,
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Record one stage span. `start` must come from the same monotonic
    /// clock domain as the collector's construction time (it is: both are
    /// `Instant`s from this process).
    pub fn record(&self, worker: usize, stage: Stage, start: Instant, nanos: u64) {
        let ts_us = start.checked_duration_since(self.epoch).unwrap_or_default().as_micros() as u64;
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        if spans.len() >= self.cap {
            drop(spans);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(Span { worker: worker as u32, stage, ts_us, dur_us: nanos / 1_000 });
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Spans discarded after the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Serialize to Chrome trace-event JSON (the format `chrome://tracing`
    /// and Perfetto load directly): a `traceEvents` array of `ph:"M"`
    /// thread-name metadata plus `ph:"X"` complete events.
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        let mut workers: Vec<u32> = spans.iter().map(|s| s.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        let mut out = String::with_capacity(64 + spans.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, ev: String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&ev);
        };
        push(
            &mut out,
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"lego campaign\"}}"
                .to_string(),
        );
        for w in &workers {
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{w},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"worker {w}\"}}}}"
                ),
            );
        }
        for s in spans.iter() {
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                     \"name\":\"{}\",\"cat\":\"stage\"}}",
                    s.worker,
                    s.ts_us,
                    s.dur_us,
                    s.stage.name()
                ),
            );
        }
        out.push_str("]}");
        out
    }

    /// Write the trace to `path`, creating parent directories. Returns the
    /// number of spans written.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let json = self.chrome_trace_json();
        let mut f = std::fs::File::create(path)?;
        f.write_all(json.as_bytes())?;
        Ok(self.span_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_spans_on_worker_tracks() {
        let tr = TraceCollector::new();
        let t0 = Instant::now();
        tr.record(0, Stage::Execution, t0, 5_000);
        tr.record(2, Stage::Feedback, t0, 1_500_000);
        assert_eq!(tr.span_count(), 2);
        let json = tr.chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"execution\""), "{json}");
        assert!(json.contains("\"tid\":2"), "{json}");
        assert!(json.contains("\"dur\":1500"), "{json}");
        assert!(json.contains("\"args\":{\"name\":\"worker 2\"}"), "{json}");
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn cap_counts_drops_instead_of_growing() {
        let tr = TraceCollector::with_cap(2);
        let t0 = Instant::now();
        for _ in 0..5 {
            tr.record(0, Stage::Execution, t0, 1_000);
        }
        assert_eq!(tr.span_count(), 2);
        assert_eq!(tr.dropped(), 3);
    }

    #[test]
    fn writes_trace_file() {
        let dir = std::env::temp_dir().join("lego_observe_trace_test");
        let _ = std::fs::remove_dir_all(&dir);
        let tr = TraceCollector::new();
        tr.record(1, Stage::Oracle, Instant::now(), 42_000);
        let path = dir.join("trace.json");
        let n = tr.write_chrome_trace(&path).unwrap();
        assert_eq!(n, 1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"cat\":\"stage\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
