//! The HTTP server: listener, connection threads, admission control and
//! graceful drain.
//!
//! Built directly on `std::net` (no async runtime): an accept loop (blocking
//! until the drain starts, polling through it) hands each connection to its
//! own thread, which reads with a short timeout so it can notice drain
//! requests while idle. Admission control is
//! two-layered — a connection cap here (`503` + `Retry-After` at accept
//! time) and the per-model bounded queue underneath (`429` + `Retry-After`
//! from the router).

use crate::handler::{route_traced, Routed};
use crate::parser::{HttpRequest, ParseOutcome, RequestParser};
use crate::registry::ModelRegistry;
use crate::response::HttpResponse;
use crate::HttpError;
use mnn_obs::metrics::names;
use mnn_obs::{ActiveTrace, FlightRecorder, TraceContext};
use mnn_serve::DrainReport;
use std::io::Read;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often idle connections poll for drain requests, and how long the
/// accept loop backs off after a failed `accept`.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How often the accept loop looks, during a drain, for the last in-flight
/// connection to finish or the deadline to pass. A drain is short and ends
/// the loop, so polling it finely costs nothing that lasts.
const DRAIN_POLL_INTERVAL: Duration = Duration::from_millis(1);

/// Tunables for the HTTP frontend.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Maximum concurrently served connections; further accepts get `503`
    /// with `Retry-After` (default 64).
    pub max_connections: usize,
    /// Time allowed for graceful drain: in-flight and queued requests get
    /// this long to finish before being failed with `503` (default 10 s).
    pub drain_deadline: Duration,
    /// Bound on a request's header section, bytes (default 16 KiB).
    pub max_header_bytes: usize,
    /// Bound on a request body, bytes (default 64 MiB).
    pub max_body_bytes: usize,
    /// Whether to record request traces into the flight recorder served at
    /// `GET /v1/traces`. `None` (the default) follows the `MNN_TRACE`
    /// environment variable, which is on unless set to `off`/`0`/`false`.
    pub tracing: Option<bool>,
    /// Requests slower than this are retained in the flight recorder's
    /// always-kept slow reservoir (default 250 ms).
    pub slow_trace_threshold: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            max_connections: 64,
            drain_deadline: Duration::from_secs(10),
            max_header_bytes: crate::parser::DEFAULT_MAX_HEADER_BYTES,
            max_body_bytes: crate::parser::DEFAULT_MAX_BODY_BYTES,
            tracing: None,
            slow_trace_threshold: Duration::from_millis(250),
        }
    }
}

/// Outcome of a graceful shutdown.
#[derive(Debug)]
pub struct DrainSummary {
    /// Whether every model drained fully within the deadline.
    pub drained: bool,
    /// Requests that were failed with `ShuttingDown` instead of served.
    pub aborted_requests: usize,
    /// Per-model drain reports, in name order.
    pub models: Vec<(String, DrainReport)>,
}

/// State shared between the accept loop, connection threads and the owner.
struct Shared {
    registry: RwLock<ModelRegistry>,
    config: HttpConfig,
    draining: AtomicBool,
    drain_deadline_at: Mutex<Option<Instant>>,
    active_connections: AtomicUsize,
    connections_gauge: mnn_obs::Gauge,
    recorder: Arc<FlightRecorder>,
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
}

/// Count one written response in `mnn_http_responses_total{code=...}`.
/// Each status code's series is looked up in the registry once per process,
/// so a response costs one atomic increment. `status` is one of the server's
/// own three-digit codes.
fn count_response(status: u16) {
    static RESPONSES: [OnceLock<mnn_obs::Counter>; 600] = [const { OnceLock::new() }; 600];
    RESPONSES[usize::from(status)]
        .get_or_init(|| {
            mnn_obs::global().counter_with(
                names::HTTP_RESPONSES,
                "HTTP responses written, labeled by status code.",
                &[("code", &status.to_string())],
            )
        })
        .inc();
}

impl Shared {
    /// Wake anyone blocked in [`HttpServer::wait_shutdown_requested`].
    fn request_shutdown(&self) {
        let mut requested = self
            .shutdown_requested
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *requested = true;
        self.shutdown_cv.notify_all();
    }

    /// Whether the drain deadline (if any) has passed.
    fn past_drain_deadline(&self) -> bool {
        self.drain_deadline_at
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some_and(|at| Instant::now() >= at)
    }
}

/// A running HTTP serving frontend (see the [module docs](self)).
pub struct HttpServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl HttpServer {
    /// Bind `addr` (port `0` picks an ephemeral port) and start accepting
    /// connections against `registry`.
    ///
    /// # Errors
    ///
    /// Returns bind/configuration I/O errors.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: ModelRegistry,
        config: HttpConfig,
    ) -> Result<HttpServer, HttpError> {
        if config.max_connections == 0 {
            return Err(HttpError::Config(
                "max_connections must be at least 1".into(),
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;

        // Pre-register the full metric schema so the first `/metrics` scrape
        // already lists every well-known series.
        mnn_obs::metrics::register_defaults();
        let recorder = Arc::new(FlightRecorder::new());
        recorder.set_enabled(
            config
                .tracing
                .unwrap_or_else(mnn_obs::context::env_tracing_enabled),
        );
        recorder.set_slow_threshold(config.slow_trace_threshold);
        let shared = Arc::new(Shared {
            registry: RwLock::new(registry),
            config,
            draining: AtomicBool::new(false),
            drain_deadline_at: Mutex::new(None),
            active_connections: AtomicUsize::new(0),
            connections_gauge: mnn_obs::global().gauge(
                names::HTTP_CONNECTIONS,
                "HTTP connections currently being served.",
            ),
            recorder,
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
        });
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_shared = Arc::clone(&shared);
        let accept_connections = Arc::clone(&connections);
        let accept_thread = std::thread::Builder::new()
            .name("mnn-http-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, accept_connections))
            .map_err(HttpError::Io)?;

        Ok(HttpServer {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            connections,
        })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.shared.active_connections.load(Ordering::SeqCst)
    }

    /// The flight recorder behind `GET /v1/traces`: the retained ring of
    /// recent request traces plus the slow-request reservoir.
    pub fn trace_recorder(&self) -> &Arc<FlightRecorder> {
        &self.shared.recorder
    }

    /// Ask the owner blocked in [`HttpServer::wait_shutdown_requested`] to
    /// shut the server down. Also triggered by `POST /admin/shutdown`.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Block until someone calls [`HttpServer::request_shutdown`] or a client
    /// hits `POST /admin/shutdown`.
    pub fn wait_shutdown_requested(&self) {
        let mut requested = self
            .shared
            .shutdown_requested
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        while !*requested {
            requested = self
                .shared
                .shutdown_cv
                .wait(requested)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Gracefully shut down: stop accepting, let connection threads finish
    /// the requests they hold, then drain every model's queue within the
    /// configured deadline. Every accepted request is answered — served if it
    /// finishes in time, failed with `503` otherwise; none are abandoned.
    pub fn shutdown(mut self) -> DrainSummary {
        let deadline = self.shared.config.drain_deadline;
        *self
            .shared
            .drain_deadline_at
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(Instant::now() + deadline);
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.request_shutdown();
        // The accept thread blocks in `accept` until the drain starts: a
        // connection from here is what tells it. (It is served like any other:
        // it reads end-of-stream and closes.)
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let woken = TcpStream::connect_timeout(&wake, POLL_INTERVAL).is_ok();

        if let Some(handle) = self.accept_thread.take() {
            // A thread that could not be told is left to find out at its next
            // connection, not waited for.
            if woken {
                let _ = handle.join();
            }
        }
        // Connection threads observe `draining` within one poll interval,
        // finish their buffered requests and exit.
        loop {
            let drained: Vec<JoinHandle<()>> = {
                let mut connections = self.connections.lock().unwrap_or_else(|e| e.into_inner());
                std::mem::take(&mut *connections)
            };
            if drained.is_empty() {
                break;
            }
            for handle in drained {
                let _ = handle.join();
            }
        }

        // No connection threads remain, so nothing holds the registry lock.
        let registry = {
            let mut guard = self
                .shared
                .registry
                .write()
                .unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *guard)
        };
        let remaining = self
            .shared
            .drain_deadline_at
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map(|at| at.saturating_duration_since(Instant::now()))
            .unwrap_or(deadline);
        let models = registry.drain_with_deadline(remaining);
        DrainSummary {
            drained: models.iter().all(|(_, report)| report.drained),
            aborted_requests: models.iter().map(|(_, report)| report.aborted).sum(),
            models,
        }
    }
}

/// Accept connections until drain completes; enforce the connection cap.
///
/// Until the drain starts the thread blocks in `accept`, so a connection is
/// picked up when it arrives ([`HttpServer::shutdown`] connects once to end the
/// wait); from then on it polls, because it must also notice the last
/// in-flight connection finishing and the drain deadline passing.
///
/// Draining does not stop accepting immediately: while in-flight connections
/// are still finishing (and the drain deadline has not passed), new
/// connections are accepted and served — each gets exactly one response with
/// `Connection: close`. This keeps `/readyz` and `/healthz` answering
/// (`503`/`draining`) during the drain window, so load balancers observe the
/// flip instead of connection refusals.
fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let drained = || {
        shared.draining.load(Ordering::SeqCst)
            && (shared.active_connections.load(Ordering::SeqCst) == 0
                || shared.past_drain_deadline())
    };
    let mut polling = false;
    loop {
        if drained() {
            return;
        }
        if shared.draining.load(Ordering::SeqCst) && !polling {
            if listener.set_nonblocking(true).is_err() {
                return;
            }
            polling = true;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // The connection that ended the blocking wait, if nothing is
                // in flight: what the check above would have seen a moment on.
                if drained() {
                    return;
                }
                // Responses go out in one write, but a pipelined second small
                // response would still wait behind Nagle for the first one's
                // ACK. Best effort: failing only costs latency.
                let _ = stream.set_nodelay(true);
                if shared.active_connections.load(Ordering::SeqCst) >= shared.config.max_connections
                {
                    reject_over_capacity(stream);
                    continue;
                }
                shared.active_connections.fetch_add(1, Ordering::SeqCst);
                shared.connections_gauge.add(1.0);
                let conn_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("mnn-http-conn".into())
                    .spawn(move || {
                        serve_connection(stream, &conn_shared);
                        conn_shared
                            .active_connections
                            .fetch_sub(1, Ordering::SeqCst);
                        conn_shared.connections_gauge.sub(1.0);
                    });
                match spawned {
                    Ok(handle) => {
                        let mut held = connections.lock().unwrap_or_else(|e| e.into_inner());
                        held.retain(|h| !h.is_finished());
                        held.push(handle);
                    }
                    Err(_) => {
                        shared.active_connections.fetch_sub(1, Ordering::SeqCst);
                        shared.connections_gauge.sub(1.0);
                    }
                }
            }
            // Only the drain's nonblocking listener says this.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(DRAIN_POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Answer an over-capacity connection with `503` and close it. No request
/// bytes were read, so the response carries a freshly generated
/// `X-Request-Id` for the client to quote when reporting the rejection.
fn reject_over_capacity(mut stream: TcpStream) {
    let response = HttpResponse::error(503, "connection limit reached")
        .with_header("retry-after", "1")
        .with_header("x-request-id", TraceContext::generate().trace_id_hex());
    count_response(response.status);
    let _ = response.write_to(&mut stream, false);
}

/// Open a trace for one parsed request, adopting the client's `traceparent`
/// context when present and valid. `started` is the instant the request's
/// first byte arrived (the waterfall's time zero). Costs one relaxed atomic
/// load when the recorder is disabled.
fn begin_request_trace(
    shared: &Shared,
    request: &HttpRequest,
    started: Instant,
) -> Option<ActiveTrace> {
    if !shared.recorder.is_enabled() {
        return None;
    }
    let parent = request
        .header("traceparent")
        .and_then(TraceContext::parse_traceparent);
    let trace = shared.recorder.begin_trace_at(parent, started)?;
    trace.add_stage("parse", 0, started, Instant::now());
    Some(trace)
}

/// Stamp response identity headers: `x-request-id` (the client's own id when
/// supplied, else the trace id, else freshly generated) and `traceparent`
/// (the client's header echoed byte-exact when it was valid, else this
/// trace's own context). Every response path carries these — success,
/// rejection and drain alike.
fn stamp_trace_headers(
    response: HttpResponse,
    request: &HttpRequest,
    trace: Option<&ActiveTrace>,
) -> HttpResponse {
    let request_id = request
        .header("x-request-id")
        .map(str::to_string)
        .or_else(|| trace.map(ActiveTrace::trace_id_hex))
        .unwrap_or_else(|| TraceContext::generate().trace_id_hex());
    let mut response = response.with_header("x-request-id", request_id);
    let client_parent = request
        .header("traceparent")
        .filter(|value| TraceContext::parse_traceparent(value).is_some());
    if let Some(raw) = client_parent {
        response = response.with_header("traceparent", raw);
    } else if let Some(trace) = trace {
        response = response.with_header("traceparent", trace.traceparent());
    }
    response
}

/// Serve one connection until it closes, errors, or the server drains.
fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let mut parser =
        RequestParser::with_limits(shared.config.max_header_bytes, shared.config.max_body_bytes);
    let mut buf = [0u8; 8 * 1024];
    // The instant the in-progress request's first byte arrived; the traced
    // waterfall's time zero. Reset once that request has been answered.
    let mut request_started: Option<Instant> = None;
    // Whether this connection has been answered at least once; drain closes
    // idle *answered* connections immediately but lets a fresh connection
    // (e.g. a health probe racing the drain) deliver its first request.
    let mut responded = false;
    loop {
        // Serve everything already buffered (pipelining) before reading more.
        loop {
            match parser.next_request() {
                ParseOutcome::Request(request) => {
                    let started = request_started.take().unwrap_or_else(Instant::now);
                    let trace = begin_request_trace(shared, &request, started);
                    let draining = shared.draining.load(Ordering::SeqCst);
                    let routed = {
                        let registry = shared.registry.read().unwrap_or_else(|e| e.into_inner());
                        route_traced(
                            &request,
                            &registry,
                            draining,
                            Some(&shared.recorder),
                            trace.as_ref(),
                        )
                    };
                    let (response, is_shutdown) = match routed {
                        Routed::Response(response) => (response, false),
                        Routed::Shutdown(response) => (response, true),
                    };
                    let keep_alive = request.keep_alive && !draining && !is_shutdown;
                    let response = stamp_trace_headers(response, &request, trace.as_ref());
                    count_response(response.status);
                    let status = response.status;
                    let write_start = Instant::now();
                    let write_ok = response.write_to(&mut stream, keep_alive).is_ok();
                    if let Some(trace) = &trace {
                        trace.add_stage("write", 0, write_start, Instant::now());
                        trace.finish(u64::from(status));
                    }
                    responded = true;
                    if !write_ok {
                        return;
                    }
                    if is_shutdown {
                        shared.request_shutdown();
                    }
                    if !keep_alive {
                        return;
                    }
                }
                ParseOutcome::Error(error) => {
                    // The request never parsed, so there is nothing to adopt;
                    // the rejection still carries a fresh id to report.
                    let response = HttpResponse::error(error.status, error.message)
                        .with_header("x-request-id", TraceContext::generate().trace_id_hex());
                    count_response(response.status);
                    let _ = response.write_to(&mut stream, false);
                    return;
                }
                ParseOutcome::NeedMore => break,
            }
        }

        if shared.draining.load(Ordering::SeqCst)
            && ((responded && !parser.has_partial()) || shared.past_drain_deadline())
        {
            // An answered, idle connection closes at drain; one whose request
            // bytes are still arriving — or that connected during the drain
            // and has not been answered yet — gets until the drain deadline.
            return;
        }

        match stream.read(&mut buf) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                if request_started.is_none() {
                    request_started = Some(Instant::now());
                }
                parser.feed(&buf[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Read timeout: loop to re-check the drain flag.
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}
