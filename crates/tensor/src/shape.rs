//! Tensor shapes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The shape (dimension sizes) of a tensor.
///
/// A `Shape` is an ordered list of dimension extents. Rank 0 (`Shape::scalar`)
/// denotes a scalar with one element. Shapes are cheap to clone and are used
/// pervasively as map keys and in error messages.
///
/// # Example
///
/// ```
/// use echo_tensor::Shape;
///
/// let s = Shape::d3(4, 10, 512); // [B, T, H]
/// assert_eq!(s.num_elements(), 4 * 10 * 512);
/// assert_eq!(s.dim(1), 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a list of dimension extents.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    /// The scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Convenience constructor for a rank-1 shape.
    pub fn d1(a: usize) -> Self {
        Shape(vec![a])
    }

    /// Convenience constructor for a rank-2 shape.
    pub fn d2(a: usize, b: usize) -> Self {
        Shape(vec![a, b])
    }

    /// Convenience constructor for a rank-3 shape.
    pub fn d3(a: usize, b: usize, c: usize) -> Self {
        Shape(vec![a, b, c])
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Extent of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// The dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Total number of elements (product of all extents; 1 for scalars).
    pub fn num_elements(&self) -> usize {
        self.0.iter().product()
    }

    /// Number of bytes an `f32` tensor of this shape occupies.
    pub fn num_bytes(&self) -> usize {
        self.num_elements() * std::mem::size_of::<f32>()
    }

    /// Row-major strides for this shape.
    ///
    /// ```
    /// use echo_tensor::Shape;
    /// assert_eq!(Shape::d3(2, 3, 4).strides(), vec![12, 4, 1]);
    /// ```
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Flattens a multi-dimensional index to a linear row-major offset, or
    /// `None` if out of bounds or of the wrong rank.
    pub fn linear_index(&self, index: &[usize]) -> Option<usize> {
        if index.len() != self.0.len() {
            return None;
        }
        let mut off = 0usize;
        let strides = self.strides();
        for ((&i, &d), &s) in index.iter().zip(&self.0).zip(&strides) {
            if i >= d {
                return None;
            }
            off += i * s;
        }
        Some(off)
    }

    /// Returns a new shape with `axis` removed.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn without_axis(&self, axis: usize) -> Shape {
        let mut dims = self.0.clone();
        dims.remove(axis);
        Shape(dims)
    }

    /// Interprets the shape as a 2-D matrix by flattening all leading axes
    /// into rows and keeping the last axis as columns.
    ///
    /// A rank-1 shape `[n]` is viewed as `(1, n)`; a scalar as `(1, 1)`.
    pub fn as_matrix(&self) -> (usize, usize) {
        match self.0.len() {
            0 => (1, 1),
            1 => (1, self.0[0]),
            _ => {
                let cols = *self.0.last().expect("rank >= 2");
                (self.num_elements() / cols.max(1), cols)
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_elements_and_bytes() {
        let s = Shape::d3(2, 3, 4);
        assert_eq!(s.num_elements(), 24);
        assert_eq!(s.num_bytes(), 96);
        assert_eq!(Shape::scalar().num_elements(), 1);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::d2(3, 5).strides(), vec![5, 1]);
        assert_eq!(Shape::d1(7).strides(), vec![1]);
        assert!(Shape::scalar().strides().is_empty());
    }

    #[test]
    fn linear_index_bounds() {
        let s = Shape::d2(2, 3);
        assert_eq!(s.linear_index(&[1, 2]), Some(5));
        assert_eq!(s.linear_index(&[2, 0]), None);
        assert_eq!(s.linear_index(&[0]), None);
    }

    #[test]
    fn as_matrix_flattens_leading() {
        assert_eq!(Shape::d3(2, 3, 4).as_matrix(), (6, 4));
        assert_eq!(Shape::d1(5).as_matrix(), (1, 5));
        assert_eq!(Shape::scalar().as_matrix(), (1, 1));
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::d3(1, 2, 3).to_string(), "[1, 2, 3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }

    #[test]
    fn without_axis() {
        assert_eq!(Shape::d3(2, 3, 4).without_axis(1), Shape::d2(2, 4));
    }
}
