//! Backend abstraction for the MNN-rs inference engine.
//!
//! The paper's backend abstraction module (Section 3.4, Fig. 5) encapsulates every
//! hardware platform / software standard behind a uniform `Backend` class so that
//! resource management, memory allocation and scheduling are decoupled from operator
//! implementations. This crate provides the Rust equivalent:
//!
//! * [`Backend`] — the trait mirroring Fig. 5's `onCreate`, which makes an
//!   [`Execution`] per node. Fig. 5's buffer, copy and begin/end hooks have no
//!   counterpart: activation memory is planned per session, not acquired per
//!   backend, and an execution is lent its inputs, output region and scratch
//!   for the length of one `run`.
//! * [`CpuBackend`] — the real CPU backend executing `mnn-kernels` with a
//!   configurable thread count.
//! * [`SimGpuBackend`] — simulated Metal / OpenCL / OpenGL / Vulkan backends: they
//!   run the same kernels on the CPU for bit-exact outputs, while a virtual clock
//!   charges the analytic GPU cost (`MUL / FLOPS + t_schedule`, paper Eq. 5 and
//!   Appendix C). This substitutes for physical mobile GPUs; see `DESIGN.md`.
//! * [`memory`] — the static memory planner behind the paper's
//!   preparation–execution decoupling (Fig. 3).
//! * [`capability`] — per-backend operator support and the Table 4 statistics.
//! * [`timing`] — wall-clock micro-benchmarking, the measurement primitive
//!   used by the `mnn-tune` auto-tuner.

#![deny(missing_docs)]

pub mod capability;
mod cpu;
mod error;
pub mod memory;
mod sim_gpu;
pub mod timing;
mod traits;

pub use cpu::CpuBackend;
pub use error::BackendError;
pub use sim_gpu::{GpuProfile, SimGpuBackend};
pub use traits::{
    Backend, BackendDescriptor, ConvScheme, Execution, ForwardType, Inputs, SchemeHint,
};
