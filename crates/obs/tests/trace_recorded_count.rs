//! `mnn_traces_recorded_total` is counted where a trace completes: inside the
//! flight recorder, once per trace, however often its owner calls `finish`.
//!
//! The counter is process-global, so this test has a binary of its own: no
//! other test can finish a trace while it reads the counter.

use mnn_obs::metrics::names;
use mnn_obs::FlightRecorder;
use std::sync::Arc;

#[test]
fn finishing_a_trace_counts_it_exactly_once() {
    let counter = mnn_obs::global().counter(
        names::TRACES_RECORDED,
        "Request traces completed by the flight recorder.",
    );
    let recorder = Arc::new(FlightRecorder::new());
    let before = counter.get();

    let trace = recorder.begin_trace(None).expect("recorder is enabled");
    trace.finish(200);
    trace.finish(500);

    assert_eq!(counter.get() - before, 1);
    assert_eq!(counter.get() - before, recorder.completed());
}
