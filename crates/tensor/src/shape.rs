//! Tensor shapes and stride helpers.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The dimensions of a tensor.
///
/// A [`Shape`] is an ordered list of dimension sizes. For 4-D activation tensors the
/// convention throughout the engine is `(N, C, H, W)` regardless of the physical
/// memory layout (which is tracked separately by
/// [`DataLayout`](crate::DataLayout)).
///
/// ```
/// use mnn_tensor::Shape;
/// let s = Shape::nchw(1, 64, 56, 56);
/// assert_eq!(s.num_elements(), 64 * 56 * 56);
/// assert_eq!(s.channels(), 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Create a shape from an arbitrary dimension list.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    /// Create a 4-D `(N, C, H, W)` shape.
    pub fn nchw(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape(vec![n, c, h, w])
    }

    /// Create a 2-D `(rows, cols)` shape, used for matrices / fully-connected layers.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape(vec![rows, cols])
    }

    /// Create a 1-D shape of `len` elements.
    pub fn vector(len: usize) -> Self {
        Shape(vec![len])
    }

    /// Create a scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of all dimensions; 1 for a scalar).
    pub fn num_elements(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major (C-contiguous) strides for this shape.
    ///
    /// ```
    /// use mnn_tensor::Shape;
    /// assert_eq!(Shape::nchw(1, 2, 3, 4).strides(), vec![24, 12, 4, 1]);
    /// ```
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Batch dimension of a 4-D shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is not 4-D.
    pub fn batch(&self) -> usize {
        assert_eq!(self.rank(), 4, "batch() requires a 4-D shape, got {self}");
        self.0[0]
    }

    /// Channel dimension of a 4-D shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is not 4-D.
    pub fn channels(&self) -> usize {
        assert_eq!(
            self.rank(),
            4,
            "channels() requires a 4-D shape, got {self}"
        );
        self.0[1]
    }

    /// Height dimension of a 4-D shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is not 4-D.
    pub fn height(&self) -> usize {
        assert_eq!(self.rank(), 4, "height() requires a 4-D shape, got {self}");
        self.0[2]
    }

    /// Width dimension of a 4-D shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is not 4-D.
    pub fn width(&self) -> usize {
        assert_eq!(self.rank(), 4, "width() requires a 4-D shape, got {self}");
        self.0[3]
    }

    /// Whether the shape is 4-dimensional.
    pub fn is_4d(&self) -> bool {
        self.rank() == 4
    }

    /// Flat row-major index of the multi-dimensional `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index.len() != self.rank()` or any coordinate is out of bounds
    /// (debug builds only for the bounds check).
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.rank(), "index rank mismatch");
        let strides = self.strides();
        index
            .iter()
            .zip(strides.iter())
            .zip(self.0.iter())
            .map(|((&i, &s), &d)| {
                debug_assert!(i < d, "index {i} out of bounds for dimension of size {d}");
                i * s
            })
            .sum()
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

impl AsRef<[usize]> for Shape {
    fn as_ref(&self) -> &[usize] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nchw_accessors() {
        let s = Shape::nchw(2, 3, 5, 7);
        assert_eq!(s.batch(), 2);
        assert_eq!(s.channels(), 3);
        assert_eq!(s.height(), 5);
        assert_eq!(s.width(), 7);
        assert_eq!(s.num_elements(), 2 * 3 * 5 * 7);
        assert!(s.is_4d());
    }

    #[test]
    fn scalar_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.num_elements(), 1);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::matrix(3, 4).strides(), vec![4, 1]);
        assert_eq!(Shape::vector(10).strides(), vec![1]);
        assert_eq!(Shape::nchw(2, 3, 4, 5).strides(), vec![60, 20, 5, 1]);
    }

    #[test]
    fn offset_matches_manual_computation() {
        let s = Shape::nchw(2, 3, 4, 5);
        assert_eq!(s.offset(&[0, 0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3, 4]), 60 + 40 + 15 + 4);
    }

    #[test]
    #[should_panic(expected = "requires a 4-D shape")]
    fn channels_panics_on_matrix() {
        Shape::matrix(2, 2).channels();
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::nchw(1, 2, 3, 4).to_string(), "[1, 2, 3, 4]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }

    #[test]
    fn conversions_from_arrays_and_vecs() {
        let a: Shape = [1, 2, 3].into();
        let b: Shape = vec![1, 2, 3].into();
        assert_eq!(a, b);
        assert_eq!(a.as_ref(), &[1, 2, 3]);
    }

    proptest! {
        #[test]
        fn prop_offset_is_bijective_within_bounds(
            n in 1usize..3, c in 1usize..5, h in 1usize..6, w in 1usize..6
        ) {
            let s = Shape::nchw(n, c, h, w);
            let mut seen = std::collections::HashSet::new();
            for bn in 0..n { for bc in 0..c { for bh in 0..h { for bw in 0..w {
                let off = s.offset(&[bn, bc, bh, bw]);
                prop_assert!(off < s.num_elements());
                prop_assert!(seen.insert(off), "offset {} duplicated", off);
            }}}}
            prop_assert_eq!(seen.len(), s.num_elements());
        }

        #[test]
        fn prop_strides_product_consistency(dims in proptest::collection::vec(1usize..6, 1..5)) {
            let s = Shape::new(dims.clone());
            let strides = s.strides();
            // stride[0] * dims[0] == num_elements for row-major layout
            prop_assert_eq!(strides[0] * dims[0], s.num_elements());
        }
    }
}
