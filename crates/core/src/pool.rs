//! A pool of pre-warmed, checked-out/checked-in [`Session`]s.
//!
//! Pre-inference (scheme selection, hybrid scheduling, the memory plan and
//! execution creation) is the expensive part of session construction — exactly
//! what a server must not pay per request. A [`SessionPool`] builds `size`
//! sessions up front from one [`Interpreter`] (all sharing the interpreter's
//! graph and weights through an `Arc`), then hands them out one at a time:
//! [`SessionPool::acquire`] blocks until a session is idle and returns a
//! [`PooledSession`] guard that checks the session back in on drop. Each
//! pooled session keeps its own per-geometry plan cache warm across checkouts,
//! so a server alternating between batch sizes re-plans only on first sight of
//! a geometry.
//!
//! With auto-tuning enabled
//! ([`SessionConfig::builder().tuning(...)`](crate::SessionConfig::builder)),
//! the pool's sessions share the process-wide device-keyed tuning cache: the
//! first session measures, the remaining `size - 1` find every signature
//! already tuned — pre-warm cost stays one tuning pass regardless of pool
//! size.

use crate::{CoreError, Interpreter, Session, SessionConfig};
use mnn_graph::Graph;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Shared pool state: idle sessions plus the condition variable that wakes
/// blocked acquirers.
struct PoolShared {
    idle: Mutex<Vec<Session>>,
    available: Condvar,
    /// Process-wide `mnn_session_pool_acquires_total` counter, registered once
    /// at pool construction so checkouts stay allocation-free.
    acquires: mnn_obs::Counter,
}

impl PoolShared {
    fn idle_sessions(&self) -> std::sync::MutexGuard<'_, Vec<Session>> {
        // A panic while a session is checked out only loses that session's
        // guard, never the pool invariants; recover from poisoning.
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A fixed-size pool of pre-warmed sessions sharing one model.
///
/// Cloning the pool is cheap and yields another handle to the same sessions,
/// so producer threads can each own a handle.
///
/// ```
/// use mnn_core::{SessionConfig, SessionPool};
/// use mnn_graph::{Conv2dAttrs, GraphBuilder};
/// use mnn_tensor::{Shape, Tensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new("demo");
/// let x = b.input("x", Shape::nchw(1, 3, 8, 8));
/// let y = b.conv2d_auto("conv", x, Conv2dAttrs::same_3x3(3, 4), true);
/// let pool = SessionPool::from_graph(b.build(vec![y]), SessionConfig::cpu(1), 2)?;
///
/// let mut session = pool.acquire();
/// let out = session.run_with(&[("x", &Tensor::zeros(Shape::nchw(1, 3, 8, 8)))])?;
/// assert_eq!(out[0].shape().dims(), &[1, 4, 8, 8]);
/// drop(session); // checked back in for the next acquirer
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct SessionPool {
    shared: Arc<PoolShared>,
    size: usize,
}

impl SessionPool {
    /// Build a pool of `size` pre-warmed sessions from an interpreter.
    ///
    /// Every session runs full pre-inference here, so `acquire` never pays a
    /// cold start.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `size` is 0 and propagates any
    /// session-creation failure.
    pub fn new(
        interpreter: &Interpreter,
        config: SessionConfig,
        size: usize,
    ) -> Result<Self, CoreError> {
        if size == 0 {
            return Err(CoreError::InvalidConfig(
                "session pool size must be >= 1".into(),
            ));
        }
        let mut sessions = Vec::with_capacity(size);
        for _ in 0..size {
            sessions.push(interpreter.create_session(config.clone())?);
        }
        Ok(SessionPool {
            shared: Arc::new(PoolShared {
                idle: Mutex::new(sessions),
                available: Condvar::new(),
                acquires: mnn_obs::global().counter(
                    mnn_obs::metrics::names::POOL_ACQUIRES,
                    "Session-pool checkouts.",
                ),
            }),
            size,
        })
    }

    /// Convenience: validate `graph`, infer shapes, and build a pool from it.
    ///
    /// # Errors
    ///
    /// Propagates graph validation and session-creation failures, and rejects
    /// `size == 0` like [`SessionPool::new`].
    pub fn from_graph(graph: Graph, config: SessionConfig, size: usize) -> Result<Self, CoreError> {
        let interpreter = Interpreter::from_graph(graph)?;
        Self::new(&interpreter, config, size)
    }

    /// Total number of sessions owned by the pool.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of sessions currently checked in (idle).
    pub fn available(&self) -> usize {
        self.shared.idle_sessions().len()
    }

    /// Check out a session, blocking until one is idle.
    pub fn acquire(&self) -> PooledSession {
        self.shared.acquires.inc();
        let mut idle = self.shared.idle_sessions();
        loop {
            if let Some(session) = idle.pop() {
                return PooledSession {
                    session: Some(session),
                    shared: Arc::clone(&self.shared),
                };
            }
            idle = self
                .shared
                .available
                .wait(idle)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl std::fmt::Debug for SessionPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionPool")
            .field("size", &self.size)
            .field("available", &self.available())
            .finish()
    }
}

/// RAII guard over a checked-out [`Session`]; derefs to the session and checks
/// it back into the pool on drop.
pub struct PooledSession {
    session: Option<Session>,
    shared: Arc<PoolShared>,
}

impl Deref for PooledSession {
    type Target = Session;

    fn deref(&self) -> &Session {
        self.session.as_ref().expect("session present until drop")
    }
}

impl DerefMut for PooledSession {
    fn deref_mut(&mut self) -> &mut Session {
        self.session.as_mut().expect("session present until drop")
    }
}

impl Drop for PooledSession {
    fn drop(&mut self) {
        if let Some(session) = self.session.take() {
            self.shared.idle_sessions().push(session);
            self.shared.available.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnn_graph::{Conv2dAttrs, GraphBuilder};
    use mnn_tensor::{Shape, Tensor};
    use std::thread;
    use std::time::Duration;

    fn small_graph() -> Graph {
        let mut b = GraphBuilder::new("pool-test");
        let x = b.input("x", Shape::nchw(1, 3, 8, 8));
        let y = b.conv2d_auto("conv", x, Conv2dAttrs::same_3x3(3, 4), true);
        b.build(vec![y])
    }

    #[test]
    fn rejects_empty_pool() {
        assert!(matches!(
            SessionPool::from_graph(small_graph(), SessionConfig::cpu(1), 0),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn acquire_and_release_cycle() {
        let pool = SessionPool::from_graph(small_graph(), SessionConfig::cpu(1), 2).unwrap();
        assert_eq!(pool.size(), 2);
        assert_eq!(pool.available(), 2);

        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(pool.available(), 0);

        drop(a);
        assert_eq!(pool.available(), 1);
        drop(b);
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn pooled_sessions_run_inference() {
        let pool = SessionPool::from_graph(small_graph(), SessionConfig::cpu(1), 1).unwrap();
        let mut session = pool.acquire();
        let out = session
            .run_with(&[("x", &Tensor::full(Shape::nchw(1, 3, 8, 8), 0.5))])
            .unwrap();
        assert_eq!(out[0].shape().dims(), &[1, 4, 8, 8]);
    }

    #[test]
    fn blocked_acquire_wakes_on_release() {
        let pool = SessionPool::from_graph(small_graph(), SessionConfig::cpu(1), 1).unwrap();
        let held = pool.acquire();
        let contender = {
            let pool = pool.clone();
            thread::spawn(move || {
                let session = pool.acquire();
                session.input_names().len()
            })
        };
        // Give the contender time to block, then release.
        thread::sleep(Duration::from_millis(20));
        drop(held);
        assert_eq!(contender.join().unwrap(), 1);
        assert_eq!(pool.available(), 1);
    }

    #[test]
    fn pool_handles_are_send_and_cheap_to_clone() {
        fn assert_send<T: Send>() {}
        assert_send::<SessionPool>();
        assert_send::<PooledSession>();
    }
}
