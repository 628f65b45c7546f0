//! The MNN-rs engine core: pre-inference, hybrid scheduling and sessions.
//!
//! This crate implements the paper's primary contribution — the **semi-automated
//! search** architecture:
//!
//! * [`scheme`] — computation scheme selection (paper Section 3.2, Eq. 2–3): per
//!   convolution, the cost model picks sliding-window, Winograd `F(n̂×n̂, k×k)` with
//!   the optimal tile size, or the Strassen-backed 1×1 path.
//! * [`cost`] — backend cost evaluation (Eq. 4–5) and hybrid scheduling: each
//!   operator is placed on the backend with the lowest estimated cost, falling back
//!   to the CPU when a GPU-style backend lacks the operator.
//! * [`memory_plan`] — preparation–execution decoupling (Fig. 3): the whole graph is
//!   virtually walked at session-creation time to compute a reusable memory plan.
//! * `session` — the user-facing [`Interpreter`] / [`Session`] API: create an
//!   interpreter from a graph, create a session (which runs pre-inference once), then
//!   run inferences repeatedly against pre-selected schemes, backends and memory.
//!
//! Scheme selection can additionally be **measured** instead of modelled: with
//! `SessionConfig::builder().tuning(TuningMode::Full)` pre-inference
//! micro-benchmarks every viable kernel per convolution via `mnn-tune` and
//! records the winners in a process-shared, device-keyed cache (persistable to
//! disk), with the cost model as fallback.
//!
//! # Quickstart
//!
//! ```
//! use mnn_core::{Interpreter, SessionConfig};
//! use mnn_graph::{Conv2dAttrs, GraphBuilder};
//! use mnn_tensor::{Shape, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new("demo");
//! let x = b.input("x", Shape::nchw(1, 3, 32, 32));
//! let y = b.conv2d_auto("conv", x, Conv2dAttrs::same_3x3(3, 8), true);
//! let graph = b.build(vec![y]);
//!
//! let interpreter = Interpreter::from_graph(graph)?;
//! let mut session = interpreter.create_session(SessionConfig::default())?;
//! let input = Tensor::zeros(Shape::nchw(1, 3, 32, 32));
//! let outputs = session.run(&[input])?;
//! assert_eq!(outputs[0].shape().dims(), &[1, 8, 32, 32]);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod cost;
mod error;
pub mod memory_plan;
mod pool;
pub mod scheme;
mod session;

pub use cost::GraphCost;
pub use error::CoreError;
pub use memory_plan::MemoryPlan;
pub use mnn_tune::{TuningMode, TuningStats};
pub use pool::{PooledSession, SessionPool};
pub use scheme::{CostModel, SchemeChoice, SchemeDecision};
pub use session::{
    Interpreter, NodePlacement, PreInferenceReport, RunStats, Session, SessionConfig,
    SessionConfigBuilder, DEFAULT_PLAN_CACHE_CAPACITY,
};
