//! Request-scoped trace context: W3C `traceparent` ids, an ambient
//! per-thread scope, and op-span capture for the layer that runs kernels.
//!
//! A [`TraceContext`] is the wire identity of one request — a 128-bit trace
//! id plus a 64-bit span id, formatted and parsed as a W3C Trace Context
//! `traceparent` header. The serving stack creates (or adopts) one per
//! request at the HTTP frontend and carries it through queueing, batching
//! and inference.
//!
//! The *ambient* half of this module lets layers that never see the request
//! object participate in the trace. A worker thread enters a
//! [`scope`] around a session run; while the guard lives:
//!
//! * [`current`] returns the active context (used by the log facade to tag
//!   lines with `trace_id=`, and by the profiler to stamp spans),
//! * [`RunRecorder::begin`](crate::RunRecorder::begin) finds the scope's op
//!   sink, so the session executor's per-op spans also land in the request
//!   trace, on the *request's* timebase.
//!
//! When no scope is active anywhere in the process, every entry point here
//! is a single relaxed atomic load — the same disabled-path contract the
//! profiler proves in CI.

use crate::profile::SpanRecord;
use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// The identity of one request: W3C Trace Context ids plus flags.
///
/// Ids are never zero (the W3C spec reserves all-zero ids as invalid), so
/// `TraceContext` values always denote a real trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// 128-bit trace id shared by every span of the request.
    pub trace_id: u128,
    /// 64-bit id of the current span within the trace.
    pub span_id: u64,
    /// W3C trace flags (bit 0 = sampled).
    pub flags: u8,
}

impl TraceContext {
    /// A freshly generated root context (new trace id, new span id,
    /// sampled).
    pub fn generate() -> Self {
        TraceContext {
            trace_id: nonzero_u128(),
            span_id: nonzero_u64(),
            flags: 0x01,
        }
    }

    /// A child context: same trace id, fresh span id.
    pub fn child(&self) -> Self {
        TraceContext {
            trace_id: self.trace_id,
            span_id: nonzero_u64(),
            flags: self.flags,
        }
    }

    /// Parse a W3C `traceparent` header value
    /// (`00-<32 hex>-<16 hex>-<2 hex>`). Returns `None` for malformed
    /// values, unknown lengths, the reserved version `ff`, or all-zero ids.
    pub fn parse_traceparent(value: &str) -> Option<Self> {
        let value = value.trim();
        let mut parts = value.split('-');
        let version = parts.next()?;
        let trace_id = parts.next()?;
        let span_id = parts.next()?;
        let flags = parts.next()?;
        if version.len() != 2 || !is_lower_hex(version) || version == "ff" {
            return None;
        }
        // Future versions may append fields; version 00 must have exactly 4.
        if version == "00" && parts.next().is_some() {
            return None;
        }
        if trace_id.len() != 32 || !is_lower_hex(trace_id) {
            return None;
        }
        if span_id.len() != 16 || !is_lower_hex(span_id) {
            return None;
        }
        if flags.len() != 2 || !is_lower_hex(flags) {
            return None;
        }
        let trace_id = u128::from_str_radix(trace_id, 16).ok()?;
        let span_id = u64::from_str_radix(span_id, 16).ok()?;
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(TraceContext {
            trace_id,
            span_id,
            flags: u8::from_str_radix(flags, 16).ok()?,
        })
    }

    /// Format as a W3C `traceparent` header value.
    pub fn traceparent(&self) -> String {
        format!(
            "00-{:032x}-{:016x}-{:02x}",
            self.trace_id, self.span_id, self.flags
        )
    }

    /// The 32-hex-digit trace id.
    pub fn trace_id_hex(&self) -> String {
        format!("{:032x}", self.trace_id)
    }

    /// The 16-hex-digit span id.
    pub fn span_id_hex(&self) -> String {
        format!("{:016x}", self.span_id)
    }
}

impl fmt::Display for TraceContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.traceparent())
    }
}

fn is_lower_hex(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// splitmix64 finalizer: cheap, well-mixed ids without a rand dependency.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn raw_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let count = COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_nanos() as u64;
    mix64(nanos ^ mix64(count) ^ (std::process::id() as u64) << 32)
}

fn nonzero_u64() -> u64 {
    loop {
        let id = raw_id();
        if id != 0 {
            return id;
        }
    }
}

fn nonzero_u128() -> u128 {
    loop {
        let id = ((raw_id() as u128) << 64) | raw_id() as u128;
        if id != 0 {
            return id;
        }
    }
}

/// Count of live [`TraceScope`] guards across all threads. Zero means no
/// trace is active anywhere, so the ambient entry points can bail after one
/// relaxed load.
static ACTIVE_SCOPES: AtomicUsize = AtomicUsize::new(0);

#[derive(Clone)]
struct ScopeData {
    ctx: TraceContext,
    epoch: Instant,
    ops: Option<Arc<Mutex<Vec<SpanRecord>>>>,
}

thread_local! {
    static CURRENT: RefCell<Vec<ScopeData>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard returned by [`scope`]; leaving the scope (drop) deactivates
/// the context on this thread. Not `Send`: a scope belongs to the thread
/// that opened it.
pub struct TraceScope {
    _not_send: PhantomData<*const ()>,
}

/// Activate `ctx` on the current thread until the returned guard drops.
///
/// `epoch` is the request's start instant: spans captured inside the scope
/// (see [`RunRecorder`](crate::RunRecorder)) are timed relative to it, so op
/// spans land on the request's waterfall timebase. `ops`, when given,
/// receives those captured spans.
pub fn scope(
    ctx: TraceContext,
    epoch: Instant,
    ops: Option<Arc<Mutex<Vec<SpanRecord>>>>,
) -> TraceScope {
    CURRENT.with(|current| {
        current.borrow_mut().push(ScopeData { ctx, epoch, ops });
    });
    ACTIVE_SCOPES.fetch_add(1, Ordering::Relaxed);
    TraceScope {
        _not_send: PhantomData,
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        ACTIVE_SCOPES.fetch_sub(1, Ordering::Relaxed);
        CURRENT.with(|current| {
            current.borrow_mut().pop();
        });
    }
}

/// The context active on this thread, if any. One relaxed atomic load when
/// no trace is active anywhere in the process.
#[inline]
pub fn current() -> Option<TraceContext> {
    if ACTIVE_SCOPES.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CURRENT.with(|current| current.borrow().last().map(|scope| scope.ctx))
}

/// The active trace id as 32 hex digits, if a scope is active on this
/// thread. Same disabled-path cost as [`current`].
#[inline]
pub fn current_trace_id_hex() -> Option<String> {
    current().map(|ctx| ctx.trace_id_hex())
}

/// Where the op spans of a run inside a trace scope go: the request's span
/// list and the instant its waterfall counts from.
pub(crate) struct OpSink {
    pub(crate) epoch: Instant,
    pub(crate) ops: Arc<Mutex<Vec<SpanRecord>>>,
}

/// The op sink of the scope active on this thread, if it has one. One
/// relaxed atomic load when tracing is inactive process-wide.
#[inline]
pub(crate) fn op_sink() -> Option<OpSink> {
    if ACTIVE_SCOPES.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CURRENT.with(|current| {
        let current = current.borrow();
        let scope = current.last()?;
        Some(OpSink {
            epoch: scope.epoch,
            ops: Arc::clone(scope.ops.as_ref()?),
        })
    })
}

/// Whether the `MNN_TRACE` environment variable leaves tracing enabled
/// (anything but `off` / `0` / `false` does). Serving layers use this as
/// the *default*; explicit configuration always wins.
pub fn env_tracing_enabled() -> bool {
    match std::env::var("MNN_TRACE") {
        Ok(value) => {
            let value = value.trim().to_ascii_lowercase();
            !matches!(value.as_str(), "off" | "0" | "false")
        }
        Err(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpMeta, RunRecorder};

    #[test]
    fn generated_contexts_are_distinct_and_nonzero() {
        let a = TraceContext::generate();
        let b = TraceContext::generate();
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.span_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
        assert_ne!(a.span_id, b.span_id);
        let child = a.child();
        assert_eq!(child.trace_id, a.trace_id);
        assert_ne!(child.span_id, a.span_id);
    }

    #[test]
    fn traceparent_round_trips() {
        let ctx = TraceContext::generate();
        let header = ctx.traceparent();
        assert_eq!(header.len(), 55);
        let back = TraceContext::parse_traceparent(&header).expect("round trip");
        assert_eq!(back, ctx);

        let fixed = TraceContext::parse_traceparent(
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
        )
        .expect("spec example parses");
        assert_eq!(fixed.trace_id, 0x0af7651916cd43dd8448eb211c80319c);
        assert_eq!(fixed.span_id, 0xb7ad6b7169203331);
        assert_eq!(fixed.flags, 1);
        assert_eq!(
            fixed.traceparent(),
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
        );
    }

    #[test]
    fn malformed_traceparents_are_rejected() {
        for bad in [
            "",
            "00",
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331", // missing flags
            "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // reserved version
            "00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace id
            "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span id
            "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", // uppercase
            "00-0af7651916cd43dd8448eb211c8031-b7ad6b7169203331-01", // short trace id
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra", // v00 extras
        ] {
            assert!(
                TraceContext::parse_traceparent(bad).is_none(),
                "{bad:?} must not parse"
            );
        }
    }

    #[test]
    fn ambient_scope_exposes_context_and_captures_ops() {
        assert!(current().is_none(), "no ambient context outside a scope");
        assert!(RunRecorder::begin(None).is_none());

        let ctx = TraceContext::generate();
        let epoch = Instant::now();
        let ops = Arc::new(Mutex::new(Vec::new()));
        {
            let _guard = scope(ctx, epoch, Some(Arc::clone(&ops)));
            assert_eq!(current(), Some(ctx));
            assert_eq!(current_trace_id_hex(), Some(ctx.trace_id_hex()));

            let mut capture = RunRecorder::begin(None).expect("sink is attached");
            let t0 = Instant::now();
            let meta = OpMeta::new("conv1", "conv2d", "direct", "cpu-f32", "1x8x4x4");
            capture.record(&meta, t0, 64);
            drop(capture);

            // Nested scope shadows, then restores.
            let inner_ctx = TraceContext::generate();
            {
                let _inner = scope(inner_ctx, Instant::now(), None);
                assert_eq!(current(), Some(inner_ctx));
                assert!(
                    RunRecorder::begin(None).is_none(),
                    "inner scope has no sink"
                );
            }
            assert_eq!(current(), Some(ctx));
        }
        assert!(current().is_none(), "scope deactivates on drop");

        let recorded = ops.lock().unwrap();
        assert_eq!(recorded.len(), 1);
        assert_eq!(recorded[0].name, "conv1");
        assert_eq!(recorded[0].trace_id, ctx.trace_id_hex());
        assert!(recorded[0].start_us >= 0.0);
    }

    #[test]
    fn scopes_are_thread_local() {
        let ctx = TraceContext::generate();
        let _guard = scope(ctx, Instant::now(), None);
        let seen = std::thread::spawn(current).join().unwrap();
        assert!(seen.is_none(), "other threads must not observe the scope");
    }
}
