//! Regression test: the `mnn_queue_depth` gauge must return to its baseline
//! after a deadline-bounded shutdown, whether queued requests were served or
//! evicted.
//!
//! The gauge is decremented at every removal site *under the queue lock*
//! (head pop, batch drain, eviction), so it mirrors the deque exactly. An
//! earlier audit found decrements happening outside the lock, which let a
//! racing snapshot observe depths that never existed. This test keeps the
//! whole lifecycle honest end to end.
//!
//! Kept in its own integration-test binary: the gauge is process-global, so
//! concurrent server tests in the same process would perturb it. For the same
//! reason the two tests here take turns (`GAUGE_LOCK`).

use mnn_models::{build, ModelKind};
use mnn_serve::Server;
use mnn_tensor::{Shape, Tensor};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

static GAUGE_LOCK: Mutex<()> = Mutex::new(());

/// The gauge, and the turn to move it: held for the whole test.
fn queue_depth_gauge() -> (mnn_obs::Gauge, MutexGuard<'static, ()>) {
    let turn = GAUGE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let gauge = mnn_obs::global().gauge(
        mnn_obs::metrics::names::QUEUE_DEPTH,
        "Requests currently queued across serve queues.",
    );
    (gauge, turn)
}

#[test]
fn queue_gauge_returns_to_zero_after_deadline_shutdown() {
    let (gauge, _turn) = queue_depth_gauge();
    let baseline = gauge.get();

    // One slow worker and a deep queue guarantee requests are still queued
    // when the drain deadline (zero) expires, exercising the eviction path.
    let server = Server::builder()
        .workers(1)
        .max_batch(2)
        .queue_capacity(64)
        .build(build(ModelKind::TinyCnn, 1, 32))
        .expect("server builds");
    let input = Tensor::zeros(Shape::nchw(1, 3, 32, 32));
    let handles: Vec<_> = (0..16)
        .map(|_| server.submit(&[("data", &input)]).expect("queue has room"))
        .collect();

    let report = server.shutdown_with_deadline(Duration::ZERO);
    // Every waiter resolves: served or failed, never hung.
    let mut served = 0usize;
    let mut evicted = 0usize;
    for handle in handles {
        match handle.wait() {
            Ok(_) => served += 1,
            Err(mnn_serve::ServeError::ShuttingDown) => evicted += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(served + evicted, 16);
    assert_eq!(evicted, report.aborted, "report matches waiter outcomes");

    assert_eq!(
        gauge.get(),
        baseline,
        "queue gauge must return to baseline after shutdown \
         ({served} served, {evicted} evicted)"
    );
}

#[test]
fn queue_gauge_returns_to_zero_after_full_drain() {
    let (gauge, _turn) = queue_depth_gauge();
    let baseline = gauge.get();

    let server = Server::builder()
        .workers(2)
        .max_batch(4)
        .build(build(ModelKind::TinyCnn, 1, 16))
        .expect("server builds");
    let input = Tensor::zeros(Shape::nchw(1, 3, 16, 16));
    let handles: Vec<_> = (0..12)
        .map(|_| server.submit(&[("data", &input)]).expect("queue has room"))
        .collect();
    for handle in handles {
        handle.wait().expect("request served");
    }

    let report = server.shutdown_with_deadline(Duration::from_secs(10));
    assert!(report.drained, "nothing should be evicted: {report:?}");
    assert_eq!(report.aborted, 0);
    assert_eq!(gauge.get(), baseline);
}
