//! Executing one micro-batch on a pooled session.
//!
//! The hot path of the serving runtime: stack the coalesced requests' inputs
//! along the batch dimension ([`Tensor::stack_batch`]), steer the session to
//! the batched geometry (`resize_input` + `resize_session`, which the
//! per-signature plan cache turns into an O(1) plan swap after first sight of
//! a batch size), run **one** inference, and scatter the outputs back to the
//! per-request response slots ([`Tensor::split_batch`]).
//!
//! Kernels compute each sample of a batch independently, so the scattered
//! outputs are bit-identical to running every request alone — the property the
//! stress test in `tests/stress.rs` locks in.

use crate::request::QueuedRequest;
use crate::stats::{RequestSample, StatsCollector};
use crate::ServeError;
use mnn_core::{CoreError, Session};
use mnn_obs::{SpanRecord, TraceContext};
use mnn_tensor::{Shape, Tensor};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Instants a batch run passes back so stages can be attributed: everything
/// before `run_start` is batch assembly (stacking, geometry), `run_start →
/// run_end` is the inference itself, and `run_end` onward is scatter.
#[derive(Default)]
struct RunMarks {
    run_start: Option<Instant>,
    run_end: Option<Instant>,
}

/// Run `batch` (1..=max_batch requests with one shared signature) on
/// `session`, fulfilling every request's response slot and recording stats.
pub(crate) fn process_batch(
    session: &mut Session,
    mut batch: Vec<QueuedRequest>,
    stats: &StatsCollector,
) {
    // The first traced member's scope wraps the run: the session executor
    // captures per-op spans into its sink, log lines carry its trace id, and
    // the profiler (if on) stamps its spans with the same id. Ops are copied
    // to the other traced members afterwards — the batch runs once, so every
    // member's waterfall shows the same kernels.
    let scope_trace = batch.iter().find_map(|request| request.trace.clone());
    let mut marks = RunMarks::default();
    // A panic anywhere in the engine (kernel asserts, layout checks) must not
    // kill the worker with the batch's slots unfulfilled — clients blocked in
    // `wait()` would hang forever. Contain it and fan out an error instead.
    // The session is safe to reuse: a run mutates only per-run state.
    let result = {
        let _scope = scope_trace.as_ref().map(|trace| trace.enter());
        if scope_trace.is_some() {
            mnn_obs::debug!("mnn-serve", "executing batch of {}", batch.len());
        }
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_batch(session, &mut batch, &mut marks)
        }))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_string());
            stats.record_worker_panic();
            mnn_obs::warn!(
                "mnn-serve",
                "worker panic contained, failing its batch: {msg}"
            );
            Err(ServeError::Inference(format!("worker panicked: {msg}")))
        })
    };
    let scatter_end = Instant::now();
    // Record stats BEFORE fulfilling any slot: a client that wakes from
    // `wait()` must already see its request in the counters.
    stats.record_batch(
        batch
            .iter()
            .map(|request| sample(request, marks.run_start, scatter_end)),
        result.is_ok(),
    );
    if let Some(head) = &scope_trace {
        attribute_stages(&batch, head, &marks, scatter_end);
    }
    let status = if result.is_ok() { 200 } else { 500 };
    match result {
        Ok(outputs) => {
            for (request, outputs) in batch.iter().zip(outputs) {
                request.slot.fulfill(Ok(outputs));
            }
        }
        Err(error) => {
            for request in &batch {
                request.slot.fulfill(Err(error.clone()));
            }
        }
    }
    // Traces the serve layer opened itself (no HTTP frontend) end here, at
    // fulfillment; frontend-owned traces are finished after the response
    // write so the waterfall covers encode + write too.
    for request in &batch {
        if let Some(trace) = &request.trace {
            if trace.finishes_on_fulfill() {
                trace.stage_since("serve", 0, trace.started());
                trace.finish(status);
            }
        }
    }
}

/// Measure one served request: end-to-end latency up to `done`, queue wait
/// up to the dequeue stamp, batch assembly from there to `run_start` (zero
/// when the batch failed before running). Exists with tracing off too.
fn sample(request: &QueuedRequest, run_start: Option<Instant>, done: Instant) -> RequestSample {
    let ms = |from: Instant, to: Instant| to.saturating_duration_since(from).as_secs_f64() * 1000.0;
    let dequeued = request.dequeued.unwrap_or(request.enqueued);
    RequestSample {
        latency_ms: ms(request.enqueued, done),
        queue_wait_ms: ms(request.enqueued, dequeued),
        batch_assembly_ms: run_start.map_or(0.0, |start| ms(dequeued, start)),
        trace_id: request.trace.as_ref().map(|trace| trace.context().trace_id),
    }
}

/// Attach queue-wait / batch-assembly / inference / scatter stage spans to
/// every traced member, link them all to one generated batch span, and copy
/// the `head`'s captured op spans into the *other* traced members (shifted
/// onto their timebases). A batch of one copies nothing.
fn attribute_stages(
    batch: &[QueuedRequest],
    head: &mnn_obs::ActiveTrace,
    marks: &RunMarks,
    scatter_end: Instant,
) {
    // One span id names this batch execution; every traced member records it
    // together with the trace ids of its co-batched peers.
    let batch_span_id = TraceContext::generate().span_id_hex();
    let members: Vec<String> = batch
        .iter()
        .filter_map(|request| request.trace.as_ref().map(|trace| trace.trace_id_hex()))
        .collect();
    let head_sink = head.ops_sink();
    for request in batch {
        let Some(trace) = &request.trace else {
            continue;
        };
        if let Some(dequeued) = request.dequeued {
            trace.add_stage("queue_wait", 1, request.enqueued, dequeued);
            if let Some(run_start) = marks.run_start {
                trace.add_stage("batch_assembly", 1, dequeued, run_start);
            }
        }
        if let (Some(run_start), Some(run_end)) = (marks.run_start, marks.run_end) {
            trace.add_stage("inference", 1, run_start, run_end);
            trace.add_stage("scatter", 1, run_end, scatter_end);
        }
        trace.set_batch(&batch_span_id, members.clone());
        let sink = trace.ops_sink();
        if Arc::ptr_eq(&sink, &head_sink) {
            continue;
        }
        // The ops were timed against the head's start; shift them onto this
        // member's timebase and restamp the trace id.
        let shift_us = match trace.started().checked_duration_since(head.started()) {
            Some(later) => -(later.as_secs_f64() * 1e6),
            None => {
                head.started()
                    .saturating_duration_since(trace.started())
                    .as_secs_f64()
                    * 1e6
            }
        };
        let trace_id = trace.trace_id_hex();
        // Both sinks are locked in address order: a caller may submit one
        // trace twice, and two workers must never wait on each other.
        let (head_ops, mut ops) = if Arc::as_ptr(&head_sink) < Arc::as_ptr(&sink) {
            let head_ops = lock(&head_sink);
            (head_ops, lock(&sink))
        } else {
            let ops = lock(&sink);
            (lock(&head_sink), ops)
        };
        ops.extend(head_ops.iter().map(|op| {
            let mut op = op.clone();
            op.start_us += shift_us;
            op.trace_id = trace_id.clone();
            op
        }));
    }
}

fn lock(sink: &Mutex<Vec<SpanRecord>>) -> MutexGuard<'_, Vec<SpanRecord>> {
    sink.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The batched inference itself: returns per-request outputs in graph-output
/// order. Any failure fails the whole batch (the caller fans the error out).
fn run_batch(
    session: &mut Session,
    batch: &mut [QueuedRequest],
    marks: &mut RunMarks,
) -> Result<Vec<Vec<Tensor>>, ServeError> {
    let k = batch.len();
    debug_assert!(k > 0, "next_batch never returns an empty batch");

    // Take ownership of every request's tensors so stacking copies each input
    // buffer at most once.
    let mut taken: Vec<Vec<(String, Tensor)>> = batch
        .iter_mut()
        .map(|request| std::mem::take(&mut request.inputs))
        .collect();

    let stacked: Vec<(String, Tensor)> = if k == 1 {
        taken.pop().expect("k == 1")
    } else {
        let arity = taken[0].len();
        let mut stacked = Vec::with_capacity(arity);
        for position in (0..arity).rev() {
            // Pop from the back so each request's Vec shrinks without shifts.
            let mut column = Vec::with_capacity(k);
            let mut name = String::new();
            for inputs in taken.iter_mut() {
                let (n, tensor) = inputs.remove(position);
                name = n;
                column.push(tensor);
            }
            stacked.push((name, Tensor::stack_batch(&column)?));
        }
        stacked.reverse();
        stacked
    };

    ensure_geometry(session, &stacked)?;
    let refs: Vec<(&str, &Tensor)> = stacked
        .iter()
        .map(|(name, tensor)| (name.as_str(), tensor))
        .collect();
    marks.run_start = Some(Instant::now());
    let outputs = session.run_with(&refs)?;
    marks.run_end = Some(Instant::now());

    if k == 1 {
        return Ok(vec![outputs]);
    }
    // Scatter: split every output along the batch dimension and transpose to
    // per-request lists.
    let mut per_request: Vec<Vec<Tensor>> =
        (0..k).map(|_| Vec::with_capacity(outputs.len())).collect();
    for output in outputs {
        let parts = output.split_batch(k)?;
        for (request, part) in per_request.iter_mut().zip(parts) {
            request.push(part);
        }
    }
    Ok(per_request)
}

/// Resize the session's inputs to the batched geometry if it is not already
/// there. After the first batch of a given size this is a plan-cache hit.
fn ensure_geometry(session: &mut Session, inputs: &[(String, Tensor)]) -> Result<(), CoreError> {
    let mut dirty = false;
    for (name, tensor) in inputs {
        let current = current_input_shape(session, name)?;
        if current.as_ref() != Some(tensor.shape()) {
            session.resize_input(name, tensor.shape().clone())?;
            dirty = true;
        }
    }
    if dirty {
        session.resize_session()?;
    }
    Ok(())
}

fn current_input_shape(session: &Session, name: &str) -> Result<Option<Shape>, CoreError> {
    let graph = session.graph();
    let id = graph
        .input_named(name)
        .ok_or_else(|| CoreError::InvalidInput(format!("unknown input '{name}'")))?;
    Ok(graph.tensor_info(id)?.shape.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ResponseSlot, Signature};
    use mnn_obs::{FlightRecorder, SloConfig};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    struct Counting;

    // SAFETY: defers every request to `System` unchanged; the counter is a
    // thread-local `Cell<u64>` with a const initializer, so touching it
    // neither allocates nor runs a destructor.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static ALLOCATOR: Counting = Counting;

    #[test]
    fn recording_a_traced_batch_allocates_nothing() {
        let recorder = Arc::new(FlightRecorder::new());
        let batch: Vec<QueuedRequest> = (0..8)
            .map(|_| {
                let inputs = vec![("data".to_string(), Tensor::zeros(Shape::nchw(1, 3, 4, 4)))];
                let enqueued = Instant::now();
                QueuedRequest {
                    signature: Signature::of(&inputs),
                    inputs,
                    batchable: true,
                    slot: ResponseSlot::new(),
                    enqueued,
                    dequeued: Some(Instant::now()),
                    trace: recorder.begin_owned_trace_at(None, enqueued),
                }
            })
            .collect();
        let stats = StatsCollector::new(8, Some(SloConfig::default()));
        let run_start = Instant::now();

        let before = ALLOCATIONS.with(Cell::get);
        let done = Instant::now();
        stats.record_batch(
            batch
                .iter()
                .map(|request| sample(request, Some(run_start), done)),
            true,
        );
        let allocations = ALLOCATIONS.with(Cell::get) - before;

        assert_eq!(allocations, 0);
        let snap = stats.snapshot(0, 1, None);
        assert_eq!(snap.completed, 8);
        assert_eq!(snap.batch_histogram, vec![(8, 1)]);
        assert_eq!(snap.slo.map(|slo| slo.requests), Some(8));
    }
}
