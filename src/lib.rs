//! # MNN-rs — a Rust reproduction of *MNN: A Universal and Efficient Inference Engine* (MLSys 2020)
//!
//! This facade crate re-exports the whole workspace so applications can depend on a
//! single crate:
//!
//! * [`tensor`] — tensors, shapes, and the NC4HW4 data layout.
//! * [`kernels`] — CPU compute kernels: GEMM, Strassen, the Winograd generator and
//!   convolution, pooling, activations, quantized ops.
//! * [`graph`] — the computational-graph IR and builder.
//! * [`converter`] — offline conversion: model format, graph optimizer, quantizer.
//! * [`backend`] — the `Backend` abstraction, static memory planner, CPU backend and
//!   simulated GPU backends.
//! * [`core`] — pre-inference (scheme selection, backend cost evaluation, memory
//!   planning), the `Interpreter`/`Session` API and hybrid scheduling.
//! * [`models`] — the model zoo (MobileNet, SqueezeNet, ResNet, Inception-v3).
//! * [`serve`] — the concurrent serving runtime: session pooling, a bounded request
//!   queue with backpressure, and dynamic micro-batching.
//! * [`http`] — the network serving frontend: a hand-rolled HTTP/1.1 server with a
//!   multi-model registry, JSON tensor codec, admission control and graceful drain.
//! * [`obs`] — the observability layer: an opt-in per-op runtime profiler, the
//!   process-wide metrics registry behind `GET /metrics`, and the leveled log
//!   facade every crate routes diagnostics through.
//!
//! # The session flow
//!
//! An [`Interpreter`] validates a graph, infers its shapes and holds it behind an
//! `Arc`. [`Interpreter::create_session`] runs **pre-inference** (paper Fig. 2) —
//! per-convolution scheme selection, hybrid backend scheduling and the static
//! memory plan — and lowers the result once into a dense step list: each step
//! owns its prepared execution, knows where in the session's arena its inputs
//! and its output live (the memory plan's assignment, every region on a 64-byte
//! boundary) and carries the metadata a profiler span needs. The session
//! allocates that arena, and one scratch area sized for the hungriest step,
//! here. A run is then a straight loop in which step *i* writes its planned
//! region; it looks nothing up, formats nothing and allocates nothing. The call
//! returns an **owned** [`Session`]: it shares the weights with
//! the interpreter, may outlive it, and is `Send`, so worker threads can each own
//! one. Configure sessions with the [`SessionConfig::builder`]; address tensors by
//! name; resize inputs dynamically with `resize_input` + `resize_session`:
//!
//! ```
//! use mnn::{ForwardType, Interpreter, SessionConfig};
//! use mnn::models::{build, ModelKind};
//! use mnn::tensor::{Shape, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = build(ModelKind::TinyCnn, 1, 32);
//! let interpreter = Interpreter::from_graph(graph)?;
//!
//! // Builder-style configuration (new knobs never break this call).
//! let config = SessionConfig::builder()
//!     .threads(2)
//!     .forward(ForwardType::Cpu)
//!     .build();
//! let mut session = interpreter.create_session(config)?;
//!
//! // Named I/O: fill the staged input, run, read the named output.
//! *session.input_mut("data")? = Tensor::zeros(Shape::nchw(1, 3, 32, 32));
//! session.run_session()?;
//! assert_eq!(session.output("prob")?.shape().dims(), &[1, 10]);
//!
//! // One-shot named runs work too:
//! let outputs = session.run_with(&[("data", &Tensor::zeros(Shape::nchw(1, 3, 32, 32)))])?;
//! assert_eq!(outputs[0].shape().dims(), &[1, 10]);
//! # Ok(())
//! # }
//! ```
//!
//! ## Dynamic input resizing
//!
//! Pre-inference is a function of the input geometry. When input shapes change,
//! stage the new shapes and re-plan — plans are cached per shape signature, so
//! alternating between known geometries never re-plans:
//!
//! ```
//! use mnn::{Interpreter, SessionConfig};
//! use mnn::graph::{Conv2dAttrs, GraphBuilder};
//! use mnn::tensor::{Shape, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new("fcn");
//! let x = b.input("x", Shape::nchw(1, 3, 32, 32));
//! let y = b.conv2d_auto("conv", x, Conv2dAttrs::same_3x3(3, 8), true);
//! let interpreter = Interpreter::from_graph(b.build(vec![y]))?;
//! let mut session = interpreter.create_session(SessionConfig::cpu(2))?;
//!
//! session.resize_input("x", Shape::nchw(1, 3, 64, 64))?;
//! session.resize_session()?; // re-runs shape inference, schemes, memory plan
//! let out = session.run_with(&[("x", &Tensor::zeros(Shape::nchw(1, 3, 64, 64)))])?;
//! assert_eq!(out[0].shape().dims(), &[1, 8, 64, 64]);
//!
//! session.resize_input("x", Shape::nchw(1, 3, 32, 32))?;
//! session.resize_session()?; // previously-seen shape: served from the plan cache
//! assert_eq!(session.plan_cache_hits(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! The positional [`Session::run`] path (`session.run(&[tensor])`) is kept as a
//! thin compatibility wrapper over the named flow and is considered deprecated:
//! prefer [`Session::run_with`] or [`Session::input_mut`] +
//! [`Session::run_session`], which stay stable when a model's input order
//! changes.
//!
//! ## Quantization
//!
//! The model compressor quantizes convolution and fully-connected weights to
//! symmetric int8 with **per-output-channel** scales, stores them as real `i8`
//! constants (≈4× smaller weights), and rewrites the nodes to quantized
//! operator variants. The runtime then executes those layers on **integer
//! kernels**: pre-inference selects the `quantized-gemm` scheme (visible in the
//! [`PreInferenceReport`]), activations are quantized on the fly — per sample,
//! so micro-batched serving stays bit-identical to unbatched runs — and
//! accumulation is exact in `i32` with an `f32` rescale at each layer output.
//!
//! Run [`converter::optimize`] *before*
//! [`converter::quantize_weights`] so BN
//! folding and activation fusion happen on the float graph; the fused
//! activation is carried into the quantized node. Depthwise convolutions are
//! the deliberate exception: they stay on the f32 depthwise kernel (their
//! weights are dequantized once at preparation time) because one input channel
//! per group leaves no integer-GEMM reuse to exploit. Everything
//! else — dynamic resizing, the per-signature plan cache, [`SessionPool`] and
//! `mnn-serve` micro-batching — composes with quantized graphs unchanged.
//!
//! Expected accuracy: symmetric per-channel int8 keeps each quantized operand
//! within 1/254 relative error; the conformance suite
//! (`tests/quant_conformance.rs`) checks top-1 agreement with the float model
//! across the zoo. Size/speed: ~3.9–4.0× smaller weights, and the int8
//! im2col+GEMM path outruns the float schemes on GEMM-dominated models (see
//! the `table_quant` bench bin).
//!
//! ```
//! use mnn::converter::{optimize, quantize_weights, OptimizerOptions};
//! use mnn::models::{build, ModelKind};
//! use mnn::tensor::{Shape, Tensor};
//! use mnn::{ConvScheme, Interpreter, SessionConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut graph = build(ModelKind::TinyCnn, 1, 16);
//! optimize(&mut graph, OptimizerOptions::default());
//! let report = quantize_weights(&mut graph);
//! assert!(report.compression_ratio() > 3.5); // i8 payload + per-channel scales
//!
//! let interpreter = Interpreter::from_graph(graph)?;
//! let mut session = interpreter.create_session(SessionConfig::cpu(2))?;
//! // Conv/FC layers run the integer kernel:
//! assert!(session
//!     .report()
//!     .placements
//!     .iter()
//!     .any(|p| p.scheme == Some(ConvScheme::QuantizedGemm)));
//! let out = session.run_with(&[("data", &Tensor::zeros(Shape::nchw(1, 3, 16, 16)))])?;
//! assert_eq!(out[0].shape().dims(), &[1, 10]);
//! # Ok(())
//! # }
//! ```
//!
//! ## SIMD kernels
//!
//! Kernels run on the detected ISA; `MNN_SIMD=scalar` is the only override;
//! pre-inference chooses the algorithm.
//!
//! The hot kernels — f32 GEMM (under im2col, Winograd's per-position
//! products, Strassen's base case and fully-connected layers), int8 GEMM and
//! the depthwise convolution — have explicit `std::arch` implementations:
//! AVX2+FMA on x86_64 and NEON on aarch64, with the portable scalar kernels
//! as the fallback.
//! [`kernels::simd::KernelBackend::active`](mnn_kernels::simd::KernelBackend)
//! resolves the kernel set once per process, the CPU backend captures it, and
//! every execution it creates dispatches to it — whether the plan came from
//! the cost model or from measurements. A [`ConvScheme`] therefore names an
//! algorithm only. `MNN_SIMD=scalar` (or `off`/`0`) pins the process to the
//! scalar kernels; the forced-scalar CI job and the conformance references
//! use it.
//!
//! The kernel set (`scalar` / `avx2fma` / `neon`) is what `/v1/status` and
//! `mnn_build_info` report, and it is part of the tuning-cache device
//! fingerprint, so measurements taken with one kernel set are never installed
//! under another. The conformance contract — int8 paths bit-identical to
//! scalar, f32 paths within a documented tolerance — is locked by
//! `crates/kernels/tests/simd_conformance.rs`.
//!
//! ```
//! use mnn::kernels::simd::{active_kernel_set, KernelBackend};
//!
//! let kb = KernelBackend::active(); // detected once per process
//! assert!(kb.hw_supported());
//! assert_eq!(active_kernel_set(), kb.name()); // "scalar" | "avx2fma" | "neon"
//! ```
//!
//! ## Auto-tuning
//!
//! Scheme selection normally comes from the closed-form cost model (Eq. 2–3).
//! With **auto-tuning** the engine instead *measures*: at session preparation
//! time each convolution's viable kernels (sliding-window, im2col, every
//! Winograd tile, Strassen-1×1, the int8 GEMM for quantized layers) are
//! micro-benchmarked on the node's real geometry through the real backend, and
//! the fastest wins — the paper's semi-automated-search idea taken from
//! "estimate" to "measure", without TVM-style offline tuning loops.
//!
//! Results land in a **device-keyed cache** (architecture + SIMD features +
//! thread count + backend + active kernel set): all sessions of a process
//! share it — a
//! [`SessionPool`] or [`serve::Server`] pre-warms N workers with **one**
//! tuning pass — and with a cache path
//! ([`SessionConfigBuilder::tune_cache_path`](SessionConfig) or the
//! `MNN_TUNE_CACHE` environment variable) it persists, so the *next process*
//! prepares sessions with **zero** measurements. Stale, corrupt or
//! foreign-device files are ignored (re-tuned), never fatal. Modes:
//! [`TuningMode::Off`] (cost model only, the default), [`TuningMode::Cached`]
//! (use cached measurements, never measure) and [`TuningMode::Full`]
//! (measure on miss). [`PreInferenceReport`] shows measured-vs-estimated cost
//! per layer, and [`Session::tuning_stats`] exposes the cache counters.
//!
//! ```
//! use mnn::models::{build, ModelKind};
//! use mnn::{Interpreter, SessionConfig, TuningMode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let interpreter = Interpreter::from_graph(build(ModelKind::TinyCnn, 1, 16))?;
//! let session = interpreter.create_session(
//!     SessionConfig::builder()
//!         .threads(1)
//!         .tuning(TuningMode::Full) // add .tune_cache_path(...) to persist
//!         .build(),
//! )?;
//! let report = session.report();
//! assert!(report.tuned_nodes > 0);
//! // Per-layer measured-vs-estimated table:
//! println!("{report}");
//! println!("{}", session.tuning_stats().unwrap());
//! # Ok(())
//! # }
//! ```
//!
//! The cost model itself is calibrated from the same harness
//! ([`tune::calibrate`]): the int8-vs-float discount shipped as
//! [`core::scheme::INT8_COST_FACTOR`] is a
//! measured value, and [`CostModel`] lets a session override any constant
//! (e.g. with a re-calibration for its device, or pinned values in tests).
//!
//! ## Serving
//!
//! One owned session serves one request at a time; a [`Server`] serves many
//! concurrently. It pre-warms one session per worker thread from a shared graph
//! (a [`SessionPool`]), accepts requests through a **bounded** queue —
//! [`Server::submit`] fails fast with `QueueFull` instead of buffering without
//! bound — and **micro-batches** compatible requests: up to `max_batch`
//! same-signature requests arriving within the batch window are stacked along
//! the batch dimension ([`Tensor::stack_batch`](tensor::Tensor::stack_batch)),
//! run as a single inference, and scattered back to per-request handles. Each
//! batch size is one input geometry, so the per-signature plan cache makes the
//! batched resize an O(1) plan swap after first sight. Responses are
//! bit-identical to unbatched inference — samples are computed independently.
//!
//! ```
//! use mnn::serve::Server;
//! use mnn::models::{build, ModelKind};
//! use mnn::tensor::{Shape, Tensor};
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = Server::builder()
//!     .workers(2)
//!     .max_batch(4)
//!     .batch_window(Duration::from_millis(1))
//!     .build(build(ModelKind::TinyCnn, 1, 16))?;
//!
//! // Blocking call:
//! let input = Tensor::zeros(Shape::nchw(1, 3, 16, 16));
//! let outputs = server.infer(&[("data", &input)])?;
//! assert_eq!(outputs[0].shape().dims(), &[1, 10]);
//!
//! // Handle-based: submit a burst, await later; compatible requests coalesce.
//! let handles: Vec<_> = (0..8)
//!     .map(|_| server.submit(&[("data", &input)]))
//!     .collect::<Result<_, _>>()?;
//! for handle in handles {
//!     handle.wait()?;
//! }
//! println!("{}", server.stats()); // throughput, p50/p99, batch histogram
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/serve_throughput.rs` for a full closed-loop load comparing
//! `max_batch = 1` against micro-batching, and the `table_serving` benchmark
//! binary for the measured speedup.
//!
//! ## Serving over HTTP
//!
//! The [`http`] crate puts a network face on the serving runtime: an
//! [`HttpServer`](mnn_http::HttpServer) owns a
//! [`ModelRegistry`](mnn_http::ModelRegistry) — one [`serve::Server`] per
//! registered model, loaded from a manifest, a directory of `.mnnr` files, or
//! the zoo — and speaks HTTP/1.1 over `std::net` (no async runtime, no
//! external HTTP dependency). Tensors travel as JSON and round-trip f32
//! values bit-exactly, so wire responses match in-process inference.
//!
//! Routes: `GET /healthz`, `GET /readyz`, `GET /v1/status`, `GET /v1/models`,
//! `GET /v1/models/{name}/stats`, `POST /v1/models/{name}/infer`,
//! `GET /v1/traces`, `POST /admin/shutdown`. Admission control
//! is layered: a connection cap answers excess connections with `503`, and
//! the per-model bounded queue surfaces as `429` — both with `Retry-After`.
//! Graceful shutdown drains every accepted request within a deadline; none
//! are abandoned.
//!
//! ```
//! use mnn::http::{HttpConfig, HttpServer, ModelRegistry, ServeOptions};
//! use std::io::{Read, Write};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut registry = ModelRegistry::new();
//! registry.register_zoo(
//!     mnn::models::ModelKind::TinyCnn,
//!     16,
//!     &ServeOptions { workers: 1, ..ServeOptions::default() },
//! )?;
//! let server = HttpServer::bind("127.0.0.1:0", registry, HttpConfig::default())?;
//!
//! let mut client = std::net::TcpStream::connect(server.local_addr())?;
//! client.write_all(b"GET /v1/models HTTP/1.1\r\nConnection: close\r\n\r\n")?;
//! let mut reply = String::new();
//! client.read_to_string(&mut reply)?;
//! assert!(reply.contains(r#""name":"tiny-cnn""#));
//!
//! assert!(server.shutdown().drained);
//! # Ok(())
//! # }
//! ```
//!
//! The same server ships as the `mnn_http` binary
//! (`cargo run --release --bin mnn_http -- --zoo squeezenet=64`); see
//! `examples/http_client.rs` for a raw-socket client session and the
//! `table_http` benchmark binary for socket-level throughput numbers.
//!
//! ## Observability
//!
//! The [`obs`] crate is the engine's telemetry layer, in three parts that the
//! rest of the workspace is already instrumented with:
//!
//! * **Per-op runtime profiling** — attach a
//!   [`Profiler`](mnn_obs::Profiler) via
//!   [`SessionConfigBuilder::profiling`](SessionConfig) and every session run
//!   records one span per executed node (op, kernel scheme, placement, shape,
//!   wall time, bytes moved). When no profiler is attached — the default —
//!   the execution loop skips all timestamping; when attached but disabled,
//!   the cost is one atomic load per run. [`Profiler::report`](mnn_obs::Profiler::report) aggregates
//!   into a per-op-type table with hottest nodes and a coverage figure
//!   (how much of the measured wall time the spans account for), and
//!   [`Profiler::chrome_trace`](mnn_obs::Profiler::chrome_trace) exports the raw spans as chrome://tracing
//!   JSON.
//! * **Process-wide metrics** — lock-free counters, gauges and histograms
//!   under stable `mnn_*` names ([`obs::metrics::names`]),
//!   written by session preparation, the plan cache, the tuner, the serving
//!   queue/batcher/workers and the HTTP frontend, and rendered in Prometheus
//!   text exposition format — `GET /metrics` on `mnn_http` serves exactly
//!   [`obs::metrics::render_global`].
//! * **A log facade** — leveled `error!`/`warn!`/`info!`/`debug!`/`trace!`
//!   macros with an `MNN_LOG` environment filter and a replaceable sink, so
//!   embedded uses can capture engine diagnostics instead of losing them to
//!   stderr.
//!
//! ```
//! use mnn::models::{build, ModelKind};
//! use mnn::obs::Profiler;
//! use mnn::tensor::{Shape, Tensor};
//! use mnn::{Interpreter, SessionConfig};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let profiler = Arc::new(Profiler::new());
//! profiler.set_enabled(true);
//! let interpreter = Interpreter::from_graph(build(ModelKind::TinyCnn, 1, 16))?;
//! let mut session = interpreter.create_session(
//!     SessionConfig::builder()
//!         .threads(1)
//!         .profiling(Arc::clone(&profiler))
//!         .build(),
//! )?;
//! session.run_with(&[("data", &Tensor::zeros(Shape::nchw(1, 3, 16, 16)))])?;
//!
//! let report = profiler.report();
//! assert_eq!(report.runs, 1);
//! assert!(report.ops.iter().any(|op| op.op.starts_with("Conv2d")));
//! println!("{report}"); // per-op table, hottest nodes first
//! assert!(profiler.chrome_trace().contains("traceEvents"));
//!
//! // Process-wide metrics render as Prometheus text (what GET /metrics serves):
//! let text = mnn::obs::metrics::render_global();
//! assert!(text.contains("mnn_session_prepare_total"));
//! assert!(text.contains("mnn_uptime_seconds"));
//! # Ok(())
//! # }
//! ```
//!
//! In the HTTP frontend the same profiler sits behind
//! `GET /v1/models/{name}/profile` (enable with `--profiling` or
//! [`ServeOptions::profiling`](mnn_http::ServeOptions)); append
//! `?format=trace` for the chrome://tracing export. See
//! `examples/profiled_inference.rs` for the profile table on a zoo model.
//!
//! ## Request tracing
//!
//! Profiling answers "where does *this model* spend time on average"; request
//! tracing answers "where did *this request* spend time". Every layer of the
//! serving stack participates: the HTTP frontend opens a trace per request
//! (adopting the client's W3C `traceparent` context when one is sent, so the
//! engine slots into an existing distributed trace), the queue stamps queue
//! wait, the micro-batcher attributes batch assembly / inference / scatter
//! and links the requests it coalesced under one batch span, and per-op
//! kernel spans nest under the inference stage. Completed waterfalls land in
//! a bounded [`FlightRecorder`] — a ring of recent
//! traces plus an always-kept slow-request reservoir — and every response
//! echoes `X-Request-Id` and `traceparent`, including rejections. With
//! tracing disabled (`MNN_TRACE=off`) the request path pays one relaxed
//! atomic load.
//!
//! ```
//! use mnn::models::{build, ModelKind};
//! use mnn::serve::{FlightRecorder, Server, TraceContext};
//! use mnn::tensor::{Shape, Tensor};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let recorder = Arc::new(FlightRecorder::new());
//! let server = Server::builder()
//!     .workers(1)
//!     .trace_recorder(Arc::clone(&recorder))
//!     .build(build(ModelKind::TinyCnn, 1, 16))?;
//! let input = Tensor::zeros(Shape::nchw(1, 3, 16, 16));
//! server.infer(&[("data", &input)])?;
//!
//! // The trace is sealed a beat after the response; wait for it.
//! while recorder.completed() < 1 {
//!     std::thread::sleep(std::time::Duration::from_millis(1));
//! }
//! let trace = &recorder.recent()[0];
//! assert_eq!(trace.status, 200);
//! for stage in ["queue_wait", "batch_assembly", "inference", "scatter"] {
//!     assert!(trace.stages.iter().any(|s| s.name == stage));
//! }
//! assert!(!trace.ops.is_empty()); // kernel spans, stamped with the trace id
//! assert!(trace.coverage > 0.9);  // top-level stages tile the request
//!
//! // W3C trace-context round trip — what the HTTP frontend does per request:
//! let parent =
//!     TraceContext::parse_traceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
//!         .expect("valid traceparent");
//! assert_eq!(parent.trace_id_hex(), "0af7651916cd43dd8448eb211c80319c");
//! assert_eq!(parent.child().trace_id_hex(), parent.trace_id_hex());
//! # Ok(())
//! # }
//! ```
//!
//! Over HTTP the recorder is on by default (`--tracing off` or `MNN_TRACE=off`
//! disables it): `GET /v1/traces` lists retained waterfalls as JSON,
//! `?id=<trace id>` fetches one — the id to use comes off a response's
//! `X-Request-Id` header or a latency-histogram exemplar in `/metrics` —
//! and `?format=trace` exports chrome://tracing JSON. See
//! `examples/traced_request.rs` for an end-to-end session.
//!
//! ## Resource observability
//!
//! Where does the memory go, are the workers alive, and is the service
//! meeting its objective? Three pieces answer those, all surfaced at
//! `GET /v1/status` (and `/metrics`):
//!
//! * **The resource ledger** ([`obs::resources`]) — every
//!   allocation class charges bytes to a `(scope, component)` account:
//!   sessions account the arena and scratch they actually hold
//!   ([`Session::activation_bytes`]; parked plan-cache plans hold none and
//!   charge nothing), the registry accounts each model's constants, the tuner
//!   its cache. Scopes default to the graph name, so `/v1/status` attributes
//!   resident bytes to the model a client addresses — `arena`, `constants` —
//!   next to the OS's own view (`VmRSS`, threads) for capacity planning.
//! * **The worker watchdog** — serve workers heartbeat at batch boundaries
//!   (idle / batching / running); a watchdog thread flags any non-idle worker
//!   silent past [`ServerBuilder::watchdog_deadline`](mnn_serve::ServerBuilder)
//!   (default 30 s). A stalled worker fails `GET /readyz` — the *readiness*
//!   probe load balancers poll, distinct from `/healthz` liveness — with a
//!   machine-readable reason, and clears on the next heartbeat.
//! * **SLO tracking** ([`obs::SloTracker`]) — give a
//!   model a latency/availability objective
//!   ([`ServeOptions::slo`](mnn_http::ServeOptions)) and a ring of one-minute
//!   buckets tracks p99-vs-objective compliance, availability, and the error
//!   burn rate over the window.
//!
//! ```
//! use mnn::obs::resources::{account, scope_snapshot};
//! use mnn::obs::{SloConfig, SloTracker};
//!
//! // The ledger: components charge bytes under a scope; snapshots roll up.
//! let arena = account("facade-doc-model", "arena");
//! arena.set(4096);
//! let scope = scope_snapshot("facade-doc-model");
//! assert_eq!(scope.resident_bytes, 4096);
//! assert_eq!(scope.components[0].component, "arena");
//!
//! // The SLO tracker: sliding one-minute buckets, compliance + burn rate.
//! let slo = SloTracker::new(SloConfig { latency_p99_ms: 250.0, availability: 0.999 });
//! for _ in 0..100 {
//!     slo.record(3.0, true);
//! }
//! let snapshot = slo.snapshot();
//! assert_eq!(snapshot.requests, 100);
//! assert!(snapshot.latency_compliant && snapshot.availability_compliant);
//! assert_eq!(snapshot.availability_burn_rate, 0.0);
//! arena.set(0); // release the doc's charge
//! ```
//!
//! See `examples/status_dashboard.rs` for the full loop over HTTP: the
//! per-model status table, a deliberately induced stall, and `/readyz`
//! flipping `200 → 503 → 200` as the watchdog flags and clears it.

#![deny(missing_docs)]

/// Tensors, shapes, data types and layouts (re-export of `mnn-tensor`).
pub use mnn_tensor as tensor;

/// CPU compute kernels (re-export of `mnn-kernels`).
pub use mnn_kernels as kernels;

/// Computational-graph IR (re-export of `mnn-graph`).
pub use mnn_graph as graph;

/// Offline conversion, optimization and quantization (re-export of `mnn-converter`).
pub use mnn_converter as converter;

/// Backend abstraction and implementations (re-export of `mnn-backend`).
pub use mnn_backend as backend;

/// Engine core: pre-inference and sessions (re-export of `mnn-core`).
pub use mnn_core as core;

/// Model zoo (re-export of `mnn-models`).
pub use mnn_models as models;

/// Concurrent serving runtime (re-export of `mnn-serve`).
pub use mnn_serve as serve;

/// HTTP serving frontend: registry, admission control, drain (re-export of `mnn-http`).
pub use mnn_http as http;

/// Kernel auto-tuning: device-keyed measurement cache (re-export of `mnn-tune`).
pub use mnn_tune as tune;

/// Observability: profiler, metrics registry, log facade (re-export of `mnn-obs`).
pub use mnn_obs as obs;

pub use mnn_backend::{ConvScheme, ForwardType, GpuProfile};
pub use mnn_core::{
    CostModel, Interpreter, PooledSession, PreInferenceReport, RunStats, Session, SessionConfig,
    SessionConfigBuilder, SessionPool, TuningMode, TuningStats,
};
pub use mnn_graph::{Graph, GraphBuilder};
pub use mnn_serve::{
    ActiveTrace, FlightRecorder, RequestTrace, ServeError, Server, ServerBuilder, ServerStats,
    TraceContext,
};
pub use mnn_tensor::{Shape, Tensor};
