//! The bounded MPMC request queue and the micro-batch collection policy.
//!
//! Producers push through [`RequestQueue::try_push`], which applies
//! **backpressure**: when the queue holds `capacity` requests the push fails
//! with [`ServeError::QueueFull`] instead of blocking or buffering without
//! bound. Workers pull through [`RequestQueue::next_batch`], which implements
//! **dynamic micro-batching**: after taking one request it keeps draining
//! *compatible* requests (same [`Signature`](crate::request::Signature), batchable) —
//! waiting up to the batch window for more to arrive — until the batch is full
//! or the deadline passes.

use crate::request::{QueuedRequest, Signature};
use crate::ServeError;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct QueueState {
    deque: VecDeque<QueuedRequest>,
    closed: bool,
}

/// Bounded multi-producer/multi-consumer queue of pending requests.
pub(crate) struct RequestQueue {
    state: Mutex<QueueState>,
    /// Signaled on push and on close.
    nonempty: Condvar,
    capacity: usize,
    /// Process-wide `mnn_queue_depth` gauge. Updated with add/sub (not `set`)
    /// so the queues of several model servers compose into one total.
    depth_gauge: mnn_obs::Gauge,
}

impl RequestQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        RequestQueue {
            state: Mutex::new(QueueState {
                deque: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
            }),
            nonempty: Condvar::new(),
            capacity,
            depth_gauge: mnn_obs::global().gauge(
                mnn_obs::metrics::names::QUEUE_DEPTH,
                "Requests currently waiting in serve queues.",
            ),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueue a request, failing fast when the server is stopping or the
    /// queue is at capacity.
    pub(crate) fn try_push(&self, request: QueuedRequest) -> Result<(), ServeError> {
        let mut state = self.lock();
        if state.closed {
            return Err(ServeError::ShuttingDown);
        }
        if state.deque.len() >= self.capacity {
            return Err(ServeError::QueueFull {
                capacity: self.capacity,
            });
        }
        state.deque.push_back(request);
        // Gauge updates happen under the queue lock (here and at every
        // removal site) so `mnn_queue_depth` tracks the deque exactly: no
        // interleaving can leave it transiently negative or non-zero after a
        // drain. A relaxed atomic under a held mutex costs nothing.
        self.depth_gauge.add(1.0);
        drop(state);
        // notify_all, not notify_one: a worker coalescing a batch waits on this
        // same condvar, and waking only *it* for an incompatible request would
        // leave an idle worker asleep while the request sits queued.
        self.nonempty.notify_all();
        Ok(())
    }

    /// Cheap pre-admission check so `submit` can reject on backpressure before
    /// paying to clone the request's tensors. Racy by design — `try_push` makes
    /// the authoritative decision under the same lock.
    pub(crate) fn check_admission(&self) -> Result<(), ServeError> {
        let state = self.lock();
        if state.closed {
            return Err(ServeError::ShuttingDown);
        }
        if state.deque.len() >= self.capacity {
            return Err(ServeError::QueueFull {
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Number of requests currently waiting.
    pub(crate) fn depth(&self) -> usize {
        self.lock().deque.len()
    }

    /// Close the queue: wake every worker; pending requests are still drained
    /// and served before workers exit.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.nonempty.notify_all();
    }

    /// Close the queue AND evict every request still waiting, returning them so
    /// the caller can fail their response slots. Workers that already pulled a
    /// batch finish it; nothing else will be executed.
    pub(crate) fn abort(&self) -> Vec<QueuedRequest> {
        let mut state = self.lock();
        state.closed = true;
        let abandoned: Vec<QueuedRequest> = state.deque.drain(..).collect();
        self.depth_gauge.sub(abandoned.len() as f64);
        drop(state);
        self.nonempty.notify_all();
        abandoned
    }

    /// Take the next micro-batch, blocking while the queue is empty and open.
    ///
    /// Returns `None` once the queue is closed *and* empty (worker shutdown).
    /// Otherwise the batch holds 1..=`max_batch` requests sharing one
    /// signature. A non-batchable head request (or `max_batch == 1`) is
    /// returned alone; a batchable head opens a window of `batch_window` in
    /// which compatible requests are coalesced as they arrive, skipping over
    /// incompatible ones (those stay queued for other workers).
    ///
    /// Once a head request is taken, the worker's `health` slot (if any) is
    /// stamped *batching* (and heartbeaten) so the watchdog can tell a worker
    /// coalescing a window from one idling on an empty queue.
    pub(crate) fn next_batch(
        &self,
        max_batch: usize,
        batch_window: Duration,
        health: Option<&crate::health::WorkerSlot>,
    ) -> Option<Vec<QueuedRequest>> {
        let mut state = self.lock();
        let first = loop {
            if let Some(mut request) = state.deque.pop_front() {
                // Depth decrements happen at the removal site, under the
                // lock, so the gauge mirrors the deque exactly (see
                // `try_push`).
                self.depth_gauge.sub(1.0);
                request.dequeued = Some(Instant::now());
                break request;
            }
            if state.closed {
                return None;
            }
            state = self
                .nonempty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        };
        if let Some(slot) = health {
            slot.beat(crate::health::WorkerState::Batching);
        }

        let mut batch = vec![first];
        if max_batch <= 1 || !batch[0].batchable {
            return Some(batch);
        }
        let signature = batch[0].signature.clone();
        let deadline = Instant::now() + batch_window;
        loop {
            let before = batch.len();
            drain_compatible(&mut state.deque, &signature, max_batch, &mut batch);
            self.depth_gauge.sub((batch.len() - before) as f64);
            if batch.len() >= max_batch || state.closed {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (next, timeout) = self
                .nonempty
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
            if timeout.timed_out() {
                let before = batch.len();
                drain_compatible(&mut state.deque, &signature, max_batch, &mut batch);
                self.depth_gauge.sub((batch.len() - before) as f64);
                break;
            }
        }
        Some(batch)
    }
}

/// Move every queued request compatible with `signature` into `batch`, up to
/// `max_batch` total, preserving arrival order of the rest.
fn drain_compatible(
    deque: &mut VecDeque<QueuedRequest>,
    signature: &Signature,
    max_batch: usize,
    batch: &mut Vec<QueuedRequest>,
) {
    let mut index = 0;
    while index < deque.len() && batch.len() < max_batch {
        let compatible = deque[index].batchable && &deque[index].signature == signature;
        if compatible {
            // `remove` keeps the relative order of the remaining requests.
            let mut request = deque.remove(index).expect("index bounded by len");
            request.dequeued = Some(Instant::now());
            batch.push(request);
        } else {
            index += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ResponseSlot;
    use mnn_tensor::{Shape, Tensor};

    fn request(size: usize, batchable: bool) -> QueuedRequest {
        let shape = if batchable {
            Shape::nchw(1, 3, size, size)
        } else {
            Shape::matrix(size, size)
        };
        let inputs = vec![("x".to_string(), Tensor::zeros(shape))];
        let signature = Signature::of(&inputs);
        QueuedRequest {
            inputs,
            signature,
            batchable,
            slot: ResponseSlot::new(),
            enqueued: Instant::now(),
            dequeued: None,
            trace: None,
        }
    }

    #[test]
    fn next_batch_stamps_dequeue_time_on_every_member() {
        let queue = RequestQueue::new(16);
        for _ in 0..3 {
            queue.try_push(request(8, true)).unwrap();
        }
        let batch = queue.next_batch(4, Duration::from_millis(1), None).unwrap();
        assert_eq!(batch.len(), 3);
        for member in &batch {
            let dequeued = member.dequeued.expect("queue stamps dequeue time");
            assert!(dequeued >= member.enqueued);
        }
    }

    #[test]
    fn push_applies_backpressure_at_capacity() {
        let queue = RequestQueue::new(2);
        queue.try_push(request(8, true)).unwrap();
        queue.try_push(request(8, true)).unwrap();
        assert_eq!(
            queue.try_push(request(8, true)),
            Err(ServeError::QueueFull { capacity: 2 })
        );
        assert_eq!(queue.depth(), 2);
    }

    #[test]
    fn push_after_close_is_rejected() {
        let queue = RequestQueue::new(4);
        queue.close();
        assert_eq!(
            queue.try_push(request(8, true)),
            Err(ServeError::ShuttingDown)
        );
    }

    #[test]
    fn next_batch_coalesces_compatible_requests() {
        let queue = RequestQueue::new(16);
        for _ in 0..3 {
            queue.try_push(request(8, true)).unwrap();
        }
        let batch = queue
            .next_batch(4, Duration::from_millis(1), None)
            .expect("queue open");
        assert_eq!(batch.len(), 3);
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn next_batch_respects_max_batch() {
        let queue = RequestQueue::new(16);
        for _ in 0..6 {
            queue.try_push(request(8, true)).unwrap();
        }
        let batch = queue.next_batch(4, Duration::ZERO, None).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(queue.depth(), 2);
    }

    #[test]
    fn incompatible_requests_stay_queued() {
        let queue = RequestQueue::new(16);
        queue.try_push(request(8, true)).unwrap();
        queue.try_push(request(16, true)).unwrap(); // different geometry
        queue.try_push(request(8, true)).unwrap(); // compatible with head
        let batch = queue.next_batch(4, Duration::ZERO, None).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(queue.depth(), 1); // the 16x16 request waits its turn
        let next = queue.next_batch(4, Duration::ZERO, None).unwrap();
        assert_eq!(next[0].signature, Signature::of(&next[0].inputs));
        assert_eq!(next.len(), 1);
    }

    #[test]
    fn non_batchable_head_is_served_alone() {
        let queue = RequestQueue::new(16);
        queue.try_push(request(4, false)).unwrap();
        queue.try_push(request(4, false)).unwrap();
        let batch = queue.next_batch(4, Duration::from_millis(5), None).unwrap();
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn abort_evicts_queued_requests_and_closes() {
        let queue = RequestQueue::new(8);
        queue.try_push(request(8, true)).unwrap();
        queue.try_push(request(8, true)).unwrap();
        let abandoned = queue.abort();
        assert_eq!(abandoned.len(), 2);
        assert_eq!(queue.depth(), 0);
        assert!(queue.next_batch(4, Duration::ZERO, None).is_none());
        assert_eq!(
            queue.try_push(request(8, true)),
            Err(ServeError::ShuttingDown)
        );
    }

    #[test]
    fn closed_empty_queue_releases_workers() {
        let queue = RequestQueue::new(4);
        queue.close();
        assert!(queue.next_batch(4, Duration::ZERO, None).is_none());
    }

    #[test]
    fn batch_window_picks_up_late_arrivals() {
        let queue = std::sync::Arc::new(RequestQueue::new(16));
        queue.try_push(request(8, true)).unwrap();
        let late = {
            let queue = std::sync::Arc::clone(&queue);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                queue.try_push(request(8, true)).unwrap();
            })
        };
        let batch = queue
            .next_batch(2, Duration::from_millis(250), None)
            .unwrap();
        late.join().unwrap();
        // The second request arrived inside the window and filled the batch.
        assert_eq!(batch.len(), 2);
    }
}
