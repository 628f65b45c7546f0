//! Tensor containers, data types, shapes and data layouts for the MNN-rs inference engine.
//!
//! This crate is the lowest layer of the MNN-rs reproduction of
//! *MNN: A Universal and Efficient Inference Engine* (MLSys 2020). It provides:
//!
//! * [`DataType`] — element types supported by the engine (`f32`, `i8`, `i32`, `u8`).
//! * [`Shape`] — a dimension vector with stride/element-count helpers.
//! * [`DataLayout`] — the memory layouts used by the engine: the canonical `NCHW`,
//!   the interleaved `NHWC`, and MNN's SIMD-friendly **`NC4HW4`** layout in which the
//!   channel dimension is split into blocks of 4 contiguous elements (Section 3.3.1
//!   of the paper).
//! * [`Tensor`] — an owned, dense tensor with conversion routines between layouts.
//!
//! # Example
//!
//! ```
//! use mnn_tensor::{Tensor, Shape, DataLayout};
//!
//! // A 1x3x4x4 activation in NCHW...
//! let t = Tensor::from_vec(Shape::nchw(1, 3, 4, 4), (0..48).map(|v| v as f32).collect());
//! // ...repacked into NC4HW4 (channels padded up to a multiple of 4)...
//! let packed = t.to_layout(DataLayout::Nc4hw4);
//! // ...and back, losslessly.
//! let back = packed.to_layout(DataLayout::Nchw);
//! assert_eq!(t.data_f32(), back.data_f32());
//! ```

#![deny(missing_docs)]

mod batch;
mod dtype;
mod error;
mod layout;
mod shape;
mod tensor;

pub use dtype::DataType;
pub use error::TensorError;
pub use layout::{convert_layout_f32, nc4hw4_offset, nchw_offset, nhwc_offset, DataLayout};
pub use shape::Shape;
pub use tensor::{Tensor, TensorData, TensorView};

/// Number of elements packed together in the NC4HW4 layout.
///
/// MNN splits out `V = 4` channel elements as a unit so a single SIMD register can
/// process 4 values at once (paper, Section 3.3.1, "Hadamard product optimization").
pub const PACK: usize = 4;

/// Round `value` up to the next multiple of [`PACK`].
///
/// ```
/// assert_eq!(mnn_tensor::round_up_pack(3), 4);
/// assert_eq!(mnn_tensor::round_up_pack(4), 4);
/// assert_eq!(mnn_tensor::round_up_pack(5), 8);
/// assert_eq!(mnn_tensor::round_up_pack(0), 0);
/// ```
pub const fn round_up_pack(value: usize) -> usize {
    value.div_ceil(PACK) * PACK
}

/// Round `value` up to the next multiple of `to`.
///
/// # Panics
///
/// Panics if `to == 0`.
///
/// ```
/// assert_eq!(mnn_tensor::round_up(10, 8), 16);
/// ```
pub const fn round_up(value: usize, to: usize) -> usize {
    value.div_ceil(to) * to
}
