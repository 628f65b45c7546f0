//! Scratch memory for kernels that need more than their output.
//!
//! A kernel writes into a caller-provided `&mut [f32]` and borrows its
//! temporaries — an unfolded im2col matrix, Winograd tiles, quantized
//! activations, `i32` accumulators — from a [`Scratch`]. How much it needs is a
//! pure function of the geometry (`*_scratch` beside each kernel), so a session
//! sizes one `Scratch` for its largest step and no kernel call allocates.

/// Element counts of the three typed buffers of a [`Scratch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchLen {
    /// `f32` elements.
    pub f32: usize,
    /// `i8` elements.
    pub i8: usize,
    /// `i32` elements.
    pub i32: usize,
}

impl ScratchLen {
    /// A need of `len` `f32` elements and nothing else.
    pub const fn f32(len: usize) -> Self {
        ScratchLen {
            f32: len,
            i8: 0,
            i32: 0,
        }
    }

    /// The need that covers both `self` and `other` (calls run one at a time,
    /// so needs combine by maximum, not by sum).
    pub fn max(self, other: ScratchLen) -> ScratchLen {
        ScratchLen {
            f32: self.f32.max(other.f32),
            i8: self.i8.max(other.i8),
            i32: self.i32.max(other.i32),
        }
    }
}

/// Typed scratch buffers lent to one kernel call at a time. Contents are
/// unspecified between calls: a kernel initialises what it reads.
#[derive(Debug, Default)]
pub struct Scratch {
    /// `f32` temporaries.
    pub f32: Vec<f32>,
    /// `i8` temporaries.
    pub i8: Vec<i8>,
    /// `i32` temporaries.
    pub i32: Vec<i32>,
}

impl Scratch {
    /// Buffers of exactly `len` elements each.
    pub fn new(len: ScratchLen) -> Self {
        let mut scratch = Scratch::default();
        scratch.grow(len);
        scratch
    }

    /// Grow each buffer that is shorter than `len` asks; never shrinks.
    pub fn grow(&mut self, len: ScratchLen) {
        fn grow<T: Clone + Default>(buffer: &mut Vec<T>, len: usize) {
            if buffer.len() < len {
                // Contents are not kept, so the old buffer is freed first.
                *buffer = Vec::new();
                *buffer = vec![T::default(); len];
            }
        }
        grow(&mut self.f32, len.f32);
        grow(&mut self.i8, len.i8);
        grow(&mut self.i32, len.i32);
    }

    /// Bytes the three buffers hold (their capacities).
    pub fn capacity_bytes(&self) -> usize {
        self.f32.capacity() * std::mem::size_of::<f32>()
            + self.i8.capacity()
            + self.i32.capacity() * std::mem::size_of::<i32>()
    }

    /// Run `kernel` on a fresh output of `output_len` elements and a fresh
    /// scratch of `need`, and return the output: the allocating convenience
    /// for tests and one-off callers.
    pub fn collect(
        output_len: usize,
        need: ScratchLen,
        kernel: impl FnOnce(&mut [f32], &mut Scratch),
    ) -> Vec<f32> {
        // NaN, not zero: a kernel that accumulates into an output it never
        // cleared must not pass by luck.
        let mut output = vec![f32::NAN; output_len];
        kernel(&mut output, &mut Scratch::new(need));
        output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_combine_by_maximum() {
        let a = ScratchLen {
            f32: 10,
            i8: 0,
            i32: 7,
        };
        let b = ScratchLen {
            f32: 4,
            i8: 9,
            i32: 7,
        };
        let both = a.max(b);
        assert_eq!((both.f32, both.i8, both.i32), (10, 9, 7));
    }

    #[test]
    fn grow_never_shrinks_and_reports_its_bytes() {
        let mut scratch = Scratch::new(ScratchLen::f32(8));
        scratch.grow(ScratchLen {
            f32: 2,
            i8: 5,
            i32: 3,
        });
        assert_eq!(
            (scratch.f32.len(), scratch.i8.len(), scratch.i32.len()),
            (8, 5, 3)
        );
        assert_eq!(scratch.capacity_bytes(), 8 * 4 + 5 + 3 * 4);
    }
}
