//! Leveled structured logging with an `MNN_LOG` environment filter and an
//! injectable sink.
//!
//! The facade is deliberately tiny: a level check (one relaxed atomic load,
//! so disabled levels cost nothing and format no arguments), then a dynamic
//! sink call. The default sink writes `[LEVEL target] message` lines to
//! stderr; servers and tests can swap it ([`set_sink`]) to capture records
//! as data.
//!
//! ```
//! mnn_obs::info!("my-app", "loaded {} model(s)", 3);
//! mnn_obs::warn!("my-app", "tuning cache not persisted");
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Level {
    /// The operation failed; someone should look.
    Error = 1,
    /// Something degraded but the process carries on (e.g. a cache persist
    /// failure falling back to re-tuning).
    Warn = 2,
    /// Lifecycle milestones: models loaded, server listening, drain started.
    Info = 3,
    /// Per-request / per-plan detail.
    Debug = 4,
    /// Everything, including hot-path detail.
    Trace = 5,
}

impl Level {
    /// Uppercase name, fixed width 5 (`ERROR`, `WARN `, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }

    fn from_env_str(s: &str) -> Option<u8> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => Some(0),
            "error" => Some(Level::Error as u8),
            "warn" | "warning" => Some(Level::Warn as u8),
            "info" => Some(Level::Info as u8),
            "debug" => Some(Level::Debug as u8),
            "trace" => Some(Level::Trace as u8),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where log records go. Implementations must be cheap and non-blocking-ish:
/// they run inline at the call site.
pub trait LogSink: Send + Sync {
    /// Consume one record. `message` is already formatted.
    fn log(&self, level: Level, target: &str, message: &str);
}

/// The default sink: `[LEVEL target] message` lines on stderr.
#[derive(Debug, Default)]
pub struct StderrSink;

impl LogSink for StderrSink {
    fn log(&self, level: Level, target: &str, message: &str) {
        eprintln!("[{} {target}] {message}", level.as_str());
    }
}

/// 0 = off, 1..=5 = max enabled level, u8::MAX = "not yet initialized from
/// the environment".
static MAX_LEVEL: AtomicU8 = AtomicU8::new(u8::MAX);

fn sink_slot() -> &'static RwLock<Arc<dyn LogSink>> {
    static SINK: OnceLock<RwLock<Arc<dyn LogSink>>> = OnceLock::new();
    SINK.get_or_init(|| RwLock::new(Arc::new(StderrSink)))
}

/// Default maximum level when `MNN_LOG` is unset or unparseable.
pub const DEFAULT_LEVEL: Level = Level::Info;

#[cold]
fn init_from_env() -> u8 {
    let level = std::env::var("MNN_LOG")
        .ok()
        .and_then(|v| Level::from_env_str(&v))
        .unwrap_or(DEFAULT_LEVEL as u8);
    MAX_LEVEL.store(level, Ordering::Relaxed);
    level
}

/// Whether records at `level` are currently emitted. The check the
/// [`log!`](crate::log!) macro performs before formatting anything.
#[inline]
pub fn enabled(level: Level) -> bool {
    let mut max = MAX_LEVEL.load(Ordering::Relaxed);
    if max == u8::MAX {
        max = init_from_env();
    }
    level as u8 <= max
}

/// Override the maximum emitted level (wins over `MNN_LOG`). `None` disables
/// logging entirely.
pub fn set_max_level(level: Option<Level>) {
    MAX_LEVEL.store(level.map(|l| l as u8).unwrap_or(0), Ordering::Relaxed);
}

/// Replace the global sink, returning the previous one. Applies process-wide
/// and immediately.
pub fn set_sink(sink: Arc<dyn LogSink>) -> Arc<dyn LogSink> {
    let slot = sink_slot();
    let mut guard = slot.write().unwrap_or_else(|e| e.into_inner());
    std::mem::replace(&mut *guard, sink)
}

/// Deliver one pre-checked record to the sink. Call through
/// [`log!`](crate::log!) (which performs the level check) rather than directly.
///
/// When a request trace scope is active on the calling thread (see
/// [`crate::context::scope`]), the message is suffixed with
/// ` trace_id=<32 hex>` so log lines correlate with the flight recorder.
/// Outside any scope that check is one relaxed atomic load.
pub fn emit(level: Level, target: &str, args: fmt::Arguments<'_>) {
    let sink = {
        let guard = sink_slot().read().unwrap_or_else(|e| e.into_inner());
        Arc::clone(&*guard)
    };
    let mut message = args.to_string();
    if let Some(trace_id) = crate::context::current_trace_id_hex() {
        message.push_str(" trace_id=");
        message.push_str(&trace_id);
    }
    sink.log(level, target, &message);
}

/// Log at an explicit [`Level`]: `log!(Level::Info, "target", "fmt {}", x)`.
///
/// Arguments are not formatted (or even evaluated) when the level is
/// disabled.
#[macro_export]
macro_rules! log {
    ($level:expr, $target:expr, $($arg:tt)+) => {
        if $crate::log::enabled($level) {
            $crate::log::emit($level, $target, format_args!($($arg)+));
        }
    };
}

/// Log at [`Level::Error`](crate::Level::Error).
#[macro_export]
macro_rules! error {
    ($target:expr, $($arg:tt)+) => { $crate::log!($crate::Level::Error, $target, $($arg)+) };
}

/// Log at [`Level::Warn`](crate::Level::Warn).
#[macro_export]
macro_rules! warn {
    ($target:expr, $($arg:tt)+) => { $crate::log!($crate::Level::Warn, $target, $($arg)+) };
}

/// Log at [`Level::Info`](crate::Level::Info).
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)+) => { $crate::log!($crate::Level::Info, $target, $($arg)+) };
}

/// Log at [`Level::Debug`](crate::Level::Debug).
#[macro_export]
macro_rules! debug {
    ($target:expr, $($arg:tt)+) => { $crate::log!($crate::Level::Debug, $target, $($arg)+) };
}

/// Log at [`Level::Trace`](crate::Level::Trace).
#[macro_export]
macro_rules! trace {
    ($target:expr, $($arg:tt)+) => { $crate::log!($crate::Level::Trace, $target, $($arg)+) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    struct CaptureSink {
        records: Mutex<Vec<(Level, String, String)>>,
    }

    impl LogSink for CaptureSink {
        fn log(&self, level: Level, target: &str, message: &str) {
            self.records
                .lock()
                .unwrap()
                .push((level, target.to_string(), message.to_string()));
        }
    }

    /// One test covers every global-state behavior (level filter, sink swap,
    /// lazy-argument guarantee): the sink and level are process-wide, so
    /// splitting these into parallel #[test]s would race.
    #[test]
    fn facade_filters_formats_and_routes() {
        let capture = Arc::new(CaptureSink {
            records: Mutex::new(Vec::new()),
        });
        let previous = set_sink(capture.clone());
        set_max_level(Some(Level::Info));

        assert!(enabled(Level::Error));
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));

        crate::info!("test-target", "answer is {}", 42);
        let mut evaluated = false;
        crate::debug!("test-target", "{}", {
            evaluated = true;
            "dropped"
        });
        assert!(!evaluated, "disabled levels must not evaluate arguments");

        set_max_level(None);
        crate::error!("test-target", "suppressed");
        assert!(!enabled(Level::Error));

        set_max_level(Some(Level::Trace));
        crate::trace!("test-target", "fine-grained");

        // Lines emitted inside a trace scope carry trace_id=.
        let ctx = crate::context::TraceContext::generate();
        {
            let _scope = crate::context::scope(ctx, std::time::Instant::now(), None);
            crate::info!("test-target", "traced line");
        }
        crate::info!("test-target", "untagged again");

        let records = capture.records.lock().unwrap().clone();
        set_sink(previous);
        set_max_level(Some(DEFAULT_LEVEL));

        assert_eq!(records.len(), 4);
        assert_eq!(records[0].0, Level::Info);
        assert_eq!(records[0].1, "test-target");
        assert_eq!(records[0].2, "answer is 42");
        assert_eq!(records[1].0, Level::Trace);
        assert_eq!(records[1].2, "fine-grained");
        assert_eq!(
            records[2].2,
            format!("traced line trace_id={}", ctx.trace_id_hex())
        );
        assert_eq!(records[3].2, "untagged again");
    }

    #[test]
    fn env_values_parse() {
        assert_eq!(Level::from_env_str("off"), Some(0));
        assert_eq!(Level::from_env_str("ERROR"), Some(1));
        assert_eq!(Level::from_env_str(" warn "), Some(2));
        assert_eq!(Level::from_env_str("Info"), Some(3));
        assert_eq!(Level::from_env_str("debug"), Some(4));
        assert_eq!(Level::from_env_str("trace"), Some(5));
        assert_eq!(Level::from_env_str("verbose"), None);
    }

    #[test]
    fn levels_order_and_display() {
        assert!(Level::Error < Level::Trace);
        assert_eq!(Level::Warn.to_string(), "WARN");
    }
}
