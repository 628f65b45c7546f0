//! Owned dense tensors.

use crate::layout::convert_layout_f32;
use crate::{DataLayout, DataType, Shape, TensorError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Backing storage of a [`Tensor`], one variant per supported [`DataType`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TensorData {
    /// 32-bit float storage.
    F32(Vec<f32>),
    /// Signed 8-bit storage (quantized).
    I8(Vec<i8>),
    /// Unsigned 8-bit storage (quantized).
    U8(Vec<u8>),
    /// 32-bit integer storage.
    I32(Vec<i32>),
}

impl TensorData {
    /// The [`DataType`] of this storage.
    pub fn data_type(&self) -> DataType {
        match self {
            TensorData::F32(_) => DataType::F32,
            TensorData::I8(_) => DataType::I8,
            TensorData::U8(_) => DataType::U8,
            TensorData::I32(_) => DataType::I32,
        }
    }

    /// Number of elements stored.
    pub fn len(&self) -> usize {
        match self {
            TensorData::F32(v) => v.len(),
            TensorData::I8(v) => v.len(),
            TensorData::U8(v) => v.len(),
            TensorData::I32(v) => v.len(),
        }
    }

    /// Whether the storage holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An owned dense tensor: shape + layout + typed storage.
///
/// The *logical* shape is always expressed as if the tensor were `NCHW` (for 4-D
/// tensors); the physical arrangement of the buffer is described by
/// [`Tensor::layout`]. Weight tensors and 1-D/2-D tensors always use
/// [`DataLayout::Nchw`] (i.e. plain row-major storage).
///
/// ```
/// use mnn_tensor::{Tensor, Shape};
/// let zeros = Tensor::zeros(Shape::nchw(1, 3, 8, 8));
/// assert_eq!(zeros.shape().num_elements(), 192);
/// assert!(zeros.data_f32().iter().all(|&v| v == 0.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    layout: DataLayout,
    data: TensorData,
}

impl Tensor {
    /// Create an all-zero `f32` tensor in NCHW layout.
    pub fn zeros(shape: Shape) -> Self {
        let n = shape.num_elements();
        Tensor {
            shape,
            layout: DataLayout::Nchw,
            data: TensorData::F32(vec![0.0; n]),
        }
    }

    /// Create an `f32` tensor filled with `value` in NCHW layout.
    pub fn full(shape: Shape, value: f32) -> Self {
        let n = shape.num_elements();
        Tensor {
            shape,
            layout: DataLayout::Nchw,
            data: TensorData::F32(vec![value; n]),
        }
    }

    /// Create an `f32` tensor from a flat row-major (NCHW) buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.num_elements()`. Use [`Tensor::try_from_vec`]
    /// for a fallible variant.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Self {
        Self::try_from_vec(shape, data).expect("buffer length must match shape")
    }

    /// Fallible variant of [`Tensor::from_vec`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the buffer length does not match
    /// the number of elements implied by the shape.
    pub fn try_from_vec(shape: Shape, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != shape.num_elements() {
            return Err(TensorError::LengthMismatch {
                expected: shape.num_elements(),
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape,
            layout: DataLayout::Nchw,
            data: TensorData::F32(data),
        })
    }

    /// Create an `i8` tensor from a flat row-major buffer (used for quantized weights).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the buffer length does not match
    /// the shape.
    pub fn try_from_i8(shape: Shape, data: Vec<i8>) -> Result<Self, TensorError> {
        if data.len() != shape.num_elements() {
            return Err(TensorError::LengthMismatch {
                expected: shape.num_elements(),
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape,
            layout: DataLayout::Nchw,
            data: TensorData::I8(data),
        })
    }

    /// Create an `i32` tensor from a flat buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the buffer length does not match
    /// the shape.
    pub fn try_from_i32(shape: Shape, data: Vec<i32>) -> Result<Self, TensorError> {
        if data.len() != shape.num_elements() {
            return Err(TensorError::LengthMismatch {
                expected: shape.num_elements(),
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape,
            layout: DataLayout::Nchw,
            data: TensorData::I32(data),
        })
    }

    /// Build a tensor from raw parts without validation beyond a length check.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal the
    /// physical element count of `shape` in `layout`.
    pub fn from_parts(
        shape: Shape,
        layout: DataLayout,
        data: TensorData,
    ) -> Result<Self, TensorError> {
        let expected = if shape.is_4d() {
            layout.physical_elements(&shape)
        } else {
            shape.num_elements()
        };
        if data.len() != expected {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape,
            layout,
            data,
        })
    }

    /// The logical shape of the tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The physical memory layout of the buffer.
    pub fn layout(&self) -> DataLayout {
        self.layout
    }

    /// The element data type.
    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// The raw storage.
    pub fn data(&self) -> &TensorData {
        &self.data
    }

    /// Number of bytes occupied by the buffer.
    pub fn byte_size(&self) -> usize {
        self.data.len() * self.data_type().size_of()
    }

    /// Borrow the buffer as `f32`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `f32`; use [`Tensor::try_data_f32`] otherwise.
    pub fn data_f32(&self) -> &[f32] {
        self.try_data_f32().expect("tensor is not f32")
    }

    /// Borrow an NCHW `f32` tensor as a [`TensorView`].
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `f32` or is not in NCHW layout.
    pub fn view(&self) -> TensorView<'_> {
        assert_eq!(self.layout, DataLayout::Nchw, "views are row-major");
        TensorView::new(&self.shape, self.data_f32())
    }

    /// Mutably borrow the buffer as `f32`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `f32`.
    pub fn data_f32_mut(&mut self) -> &mut [f32] {
        match &mut self.data {
            TensorData::F32(v) => v,
            _ => panic!("tensor is not f32"),
        }
    }

    /// Borrow the buffer as `f32`, failing on type mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataTypeMismatch`] if the tensor is not `f32`.
    pub fn try_data_f32(&self) -> Result<&[f32], TensorError> {
        match &self.data {
            TensorData::F32(v) => Ok(v),
            other => Err(TensorError::DataTypeMismatch {
                expected: DataType::F32,
                actual: other.data_type(),
            }),
        }
    }

    /// Borrow the buffer as `i8`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataTypeMismatch`] if the tensor is not `i8`.
    pub fn try_data_i8(&self) -> Result<&[i8], TensorError> {
        match &self.data {
            TensorData::I8(v) => Ok(v),
            other => Err(TensorError::DataTypeMismatch {
                expected: DataType::I8,
                actual: other.data_type(),
            }),
        }
    }

    /// Borrow the buffer as `i32`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataTypeMismatch`] if the tensor is not `i32`.
    pub fn try_data_i32(&self) -> Result<&[i32], TensorError> {
        match &self.data {
            TensorData::I32(v) => Ok(v),
            other => Err(TensorError::DataTypeMismatch {
                expected: DataType::I32,
                actual: other.data_type(),
            }),
        }
    }

    /// Consume the tensor and return the `f32` buffer.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `f32`.
    pub fn into_vec_f32(self) -> Vec<f32> {
        match self.data {
            TensorData::F32(v) => v,
            other => panic!("tensor is not f32 (found {})", other.data_type()),
        }
    }

    /// Element access for a 4-D `f32` tensor by logical `(n, c, h, w)` coordinates,
    /// regardless of physical layout.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-D `f32` or the index is out of bounds.
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        assert!(self.shape.is_4d(), "at() requires a 4-D tensor");
        let (cc, hh, ww) = (
            self.shape.channels(),
            self.shape.height(),
            self.shape.width(),
        );
        let off = match self.layout {
            DataLayout::Nchw => crate::nchw_offset(n, c, h, w, cc, hh, ww),
            DataLayout::Nhwc => crate::nhwc_offset(n, c, h, w, cc, hh, ww),
            DataLayout::Nc4hw4 => crate::nc4hw4_offset(n, c, h, w, cc, hh, ww),
        };
        self.data_f32()[off]
    }

    /// Return a copy of this tensor converted to the requested physical layout.
    ///
    /// Non-4-D tensors are returned unchanged (their layout is always row-major).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `f32` (layout conversion is only defined for the
    /// float compute path).
    pub fn to_layout(&self, layout: DataLayout) -> Tensor {
        if !self.shape.is_4d() || layout == self.layout {
            return self.clone();
        }
        let converted = convert_layout_f32(self.data_f32(), &self.shape, self.layout, layout);
        Tensor {
            shape: self.shape.clone(),
            layout,
            data: TensorData::F32(converted),
        }
    }

    /// Reshape the tensor in place to a new logical shape with the same number of
    /// elements. Only valid for NCHW/row-major tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ, or
    /// [`TensorError::ShapeMismatch`] if the tensor is packed (NC4HW4).
    pub fn reshape(&mut self, shape: Shape) -> Result<(), TensorError> {
        if self.layout == DataLayout::Nc4hw4 {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.clone(),
                actual: shape,
            });
        }
        if shape.num_elements() != self.shape.num_elements() {
            return Err(TensorError::LengthMismatch {
                expected: self.shape.num_elements(),
                actual: shape.num_elements(),
            });
        }
        self.shape = shape;
        Ok(())
    }

    /// Maximum absolute element-wise difference between two `f32` tensors of the same
    /// logical shape (layouts may differ). Useful for numerical comparisons in tests.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ or either tensor is not `f32`.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in max_abs_diff");
        let a = self.to_layout(DataLayout::Nchw);
        let b = other.to_layout(DataLayout::Nchw);
        a.data_f32()
            .iter()
            .zip(b.data_f32())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max)
    }
}

/// A borrowed `f32` activation: a logical shape over row-major (NCHW) data
/// that lives elsewhere — a staged input tensor or a region of a session's
/// planned arena. This is what an operator reads at run time.
#[derive(Debug, Clone, Copy)]
pub struct TensorView<'a> {
    shape: &'a Shape,
    data: &'a [f32],
}

impl<'a> TensorView<'a> {
    /// View `data` as a tensor of `shape`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.num_elements()`.
    pub fn new(shape: &'a Shape, data: &'a [f32]) -> Self {
        assert_eq!(
            data.len(),
            shape.num_elements(),
            "view of {shape} over {} elements",
            data.len()
        );
        TensorView { shape, data }
    }

    /// The logical shape.
    pub fn shape(&self) -> &'a Shape {
        self.shape
    }

    /// The elements, row-major.
    pub fn data(&self) -> &'a [f32] {
        self.data
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor<{}>{} ({})",
            self.data_type(),
            self.shape,
            self.layout
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(Shape::nchw(1, 2, 2, 2));
        assert!(z.data_f32().iter().all(|&v| v == 0.0));
        let f = Tensor::full(Shape::vector(5), 3.5);
        assert!(f.data_f32().iter().all(|&v| v == 3.5));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::try_from_vec(Shape::vector(3), vec![1.0, 2.0]).is_err());
        assert!(Tensor::try_from_vec(Shape::vector(2), vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn typed_accessors_enforce_type() {
        let t = Tensor::zeros(Shape::vector(4));
        assert!(t.try_data_f32().is_ok());
        assert!(t.try_data_i8().is_err());
        assert!(t.try_data_i32().is_err());
    }

    #[test]
    fn at_reads_logical_coordinates_in_any_layout() {
        let shape = Shape::nchw(1, 3, 2, 2);
        let data: Vec<f32> = (0..12).map(|v| v as f32).collect();
        let t = Tensor::from_vec(shape, data);
        let packed = t.to_layout(DataLayout::Nc4hw4);
        let nhwc = t.to_layout(DataLayout::Nhwc);
        for c in 0..3 {
            for h in 0..2 {
                for w in 0..2 {
                    assert_eq!(t.at(0, c, h, w), packed.at(0, c, h, w));
                    assert_eq!(t.at(0, c, h, w), nhwc.at(0, c, h, w));
                }
            }
        }
    }

    #[test]
    fn reshape_preserves_elements() {
        let mut t = Tensor::from_vec(Shape::matrix(2, 6), (0..12).map(|v| v as f32).collect());
        t.reshape(Shape::nchw(1, 3, 2, 2)).unwrap();
        assert_eq!(t.shape(), &Shape::nchw(1, 3, 2, 2));
        assert!(t.reshape(Shape::vector(5)).is_err());
    }

    #[test]
    fn reshape_rejects_packed_layout() {
        let t = Tensor::from_vec(Shape::nchw(1, 3, 2, 2), (0..12).map(|v| v as f32).collect());
        let mut packed = t.to_layout(DataLayout::Nc4hw4);
        assert!(packed.reshape(Shape::vector(12)).is_err());
    }

    #[test]
    fn byte_size_counts_padding() {
        let t = Tensor::from_vec(Shape::nchw(1, 3, 2, 2), vec![0.0; 12]);
        assert_eq!(t.byte_size(), 48);
        let packed = t.to_layout(DataLayout::Nc4hw4);
        assert_eq!(packed.byte_size(), 64);
    }

    #[test]
    fn max_abs_diff_across_layouts() {
        let a = Tensor::from_vec(Shape::nchw(1, 3, 2, 2), (0..12).map(|v| v as f32).collect());
        let b = a.to_layout(DataLayout::Nc4hw4);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn display_mentions_type_shape_layout() {
        let t = Tensor::zeros(Shape::nchw(1, 1, 1, 1));
        let s = t.to_string();
        assert!(s.contains("f32"));
        assert!(s.contains("NCHW"));
    }

    #[test]
    fn from_parts_checks_physical_size() {
        let shape = Shape::nchw(1, 3, 1, 1);
        // NC4HW4 physical size is 4, not 3.
        assert!(Tensor::from_parts(
            shape.clone(),
            DataLayout::Nc4hw4,
            TensorData::F32(vec![0.0; 3])
        )
        .is_err());
        assert!(
            Tensor::from_parts(shape, DataLayout::Nc4hw4, TensorData::F32(vec![0.0; 4])).is_ok()
        );
    }

    #[test]
    fn serde_roundtrip() {
        let t = Tensor::from_vec(Shape::nchw(1, 2, 2, 2), (0..8).map(|v| v as f32).collect());
        let json = serde_json::to_string(&t).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    proptest! {
        #[test]
        fn prop_layout_roundtrip_via_tensor(
            n in 1usize..3, c in 1usize..9, h in 1usize..5, w in 1usize..5
        ) {
            let shape = Shape::nchw(n, c, h, w);
            let data: Vec<f32> = (0..shape.num_elements()).map(|v| v as f32).collect();
            let t = Tensor::from_vec(shape, data);
            for layout in [DataLayout::Nhwc, DataLayout::Nc4hw4] {
                let converted = t.to_layout(layout);
                let back = converted.to_layout(DataLayout::Nchw);
                prop_assert_eq!(t.data_f32(), back.data_f32());
            }
        }
    }
}
