//! Chrome Trace Event Format export (the JSON `chrome://tracing` and
//! Perfetto load).
//!
//! Every span becomes a complete event (`"ph": "X"`) with microsecond `ts` /
//! `dur`. Node spans share the run span's thread id, so the viewer nests
//! them under the enclosing run by time containment.

use crate::profile::SpanRecord;
use serde::{Deserialize, Serialize};

/// One complete-duration event. Field names are the Trace Event Format's.
#[allow(non_snake_case)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct TraceEvent {
    pub(crate) name: String,
    pub(crate) cat: String,
    pub(crate) ph: String,
    pub(crate) ts: f64,
    pub(crate) dur: f64,
    pub(crate) pid: u64,
    pub(crate) tid: u64,
    pub(crate) args: TraceArgs,
}

/// The `args` payload shown in the viewer's detail pane.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct TraceArgs {
    pub(crate) op: String,
    pub(crate) scheme: String,
    pub(crate) placement: String,
    pub(crate) shape: String,
    pub(crate) bytes: u64,
    pub(crate) run: u64,
}

/// Top-level trace object (`{"traceEvents": [...]}` form).
#[allow(non_snake_case)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ChromeTrace {
    pub(crate) traceEvents: Vec<TraceEvent>,
    pub(crate) displayTimeUnit: String,
}

/// Render spans as Trace Event Format JSON.
pub(crate) fn render(spans: &[&SpanRecord]) -> String {
    let events = spans
        .iter()
        .map(|span| TraceEvent {
            name: span.name.clone(),
            cat: span.op.clone(),
            ph: "X".to_string(),
            ts: span.start_us,
            dur: span.dur_us,
            pid: 1,
            tid: 1,
            args: TraceArgs {
                op: span.op.clone(),
                scheme: span.scheme.clone(),
                placement: span.placement.clone(),
                shape: span.shape.clone(),
                bytes: span.bytes,
                run: span.run,
            },
        })
        .collect();
    render_events(events)
}

/// Render pre-built events as Trace Event Format JSON (used by the flight
/// recorder to merge request-, stage- and op-level spans).
pub(crate) fn render_events(events: Vec<TraceEvent>) -> String {
    let trace = ChromeTrace {
        traceEvents: events,
        displayTimeUnit: "ms".to_string(),
    };
    serde_json::to_string(&trace).expect("trace serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profiler;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn spin(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {
            std::hint::black_box(0u64);
        }
    }

    /// The exported trace parses as JSON, every event carries the `ph`, `ts`
    /// and `dur` fields the format requires, and node spans nest inside
    /// their run span (time containment on one tid).
    #[test]
    fn chrome_trace_is_valid_and_spans_nest() {
        let profiler = Arc::new(Profiler::new());
        let mut rec = crate::RunRecorder::begin(Some(&profiler)).unwrap();
        for name in ["conv1", "act1"] {
            let t0 = Instant::now();
            spin(Duration::from_millis(2));
            let meta = crate::OpMeta::new(name, "conv2d", "winograd", "cpu-f32", "1x8x4x4");
            rec.record(&meta, t0, 64);
        }
        rec.finish();

        let json = profiler.chrome_trace();
        let trace: ChromeTrace = serde_json::from_str(&json).expect("trace must parse");
        assert_eq!(trace.displayTimeUnit, "ms");
        assert_eq!(trace.traceEvents.len(), 3, "run span + 2 node spans");

        let run = trace
            .traceEvents
            .iter()
            .find(|e| e.name == "run")
            .expect("run span present");
        assert_eq!(run.ph, "X");
        assert!(run.dur > 0.0);
        for event in &trace.traceEvents {
            assert_eq!(event.ph, "X");
            assert!(event.ts >= 0.0);
            assert!(event.dur >= 0.0);
            if event.name != "run" {
                assert_eq!(event.tid, run.tid, "same lane so the viewer nests");
                assert!(
                    event.ts >= run.ts && event.ts + event.dur <= run.ts + run.dur + 1.0,
                    "node span [{}, {}] must nest inside run [{}, {}]",
                    event.ts,
                    event.ts + event.dur,
                    run.ts,
                    run.ts + run.dur,
                );
                assert_eq!(event.args.scheme, "winograd");
                assert_eq!(event.args.bytes, 64);
            }
        }

        // Raw-string sanity: the literal field names the format requires.
        for key in ["\"traceEvents\"", "\"ph\"", "\"ts\"", "\"dur\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
