//! Borrowed 2-D matrix views over linear `f32` storage.
//!
//! GEMM kernels operate on these views so the same buffer can be interpreted
//! under either [`MatrixLayout`] without copying.

use crate::layout::MatrixLayout;

/// An immutable 2-D view: `rows x cols` over a borrowed slice.
///
/// The view is *layout-explicit*: `layout` determines how `(row, col)` maps
/// to a linear offset. Views are how the paper's two GEMM formulations
/// (`Y = XWᵀ` vs `Yᵀ = WXᵀ`) read the same weights and inputs.
#[derive(Debug, Clone, Copy)]
pub struct MatView<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    layout: MatrixLayout,
}

impl<'a> MatView<'a> {
    /// Creates a view.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`; a view must cover its backing
    /// storage exactly.
    pub fn new(data: &'a [f32], rows: usize, cols: usize, layout: MatrixLayout) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix view {rows}x{cols} over {} elements",
            data.len()
        );
        MatView {
            data,
            rows,
            cols,
            layout,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The view's layout.
    pub fn layout(&self) -> MatrixLayout {
        self.layout
    }

    /// The underlying storage.
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// Element at `(row, col)`.
    #[inline(always)]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        self.data[self.layout.offset(row, col, self.rows, self.cols)]
    }

    /// Reinterprets the same storage as the transposed matrix (free: only the
    /// layout flag and extents flip).
    #[must_use]
    pub fn t(&self) -> MatView<'a> {
        MatView {
            data: self.data,
            rows: self.cols,
            cols: self.rows,
            layout: self.layout.flip(),
        }
    }

    /// Copies the view into a new row-major `Vec`.
    pub fn to_row_major(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.push(self.get(r, c));
            }
        }
        out
    }
}

/// A mutable 2-D view: `rows x cols` over a borrowed mutable slice.
#[derive(Debug)]
pub struct MatViewMut<'a> {
    data: &'a mut [f32],
    rows: usize,
    cols: usize,
    layout: MatrixLayout,
}

impl<'a> MatViewMut<'a> {
    /// Creates a mutable view.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(data: &'a mut [f32], rows: usize, cols: usize, layout: MatrixLayout) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix view {rows}x{cols} over {} elements",
            data.len()
        );
        MatViewMut {
            data,
            rows,
            cols,
            layout,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The view's layout.
    pub fn layout(&self) -> MatrixLayout {
        self.layout
    }

    /// Element at `(row, col)`.
    #[inline(always)]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        self.data[self.layout.offset(row, col, self.rows, self.cols)]
    }

    /// Writes element `(row, col)`.
    #[inline(always)]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        self.data[self.layout.offset(row, col, self.rows, self.cols)] = value;
    }

    /// The underlying storage, mutably.
    ///
    /// Kernels that write linearly (GEMM) index this buffer directly via the
    /// layout's strides.
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.data
    }

    /// Scales every element by `beta` (used by GEMM's `beta` parameter; a
    /// `beta` of zero overwrites, matching BLAS semantics).
    pub fn scale(&mut self, beta: f32) {
        if beta == 0.0 {
            self.data.fill(0.0);
        } else if beta != 1.0 {
            for v in self.data.iter_mut() {
                *v *= beta;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_indexing() {
        let data = vec![1., 2., 3., 4., 5., 6.];
        let m = MatView::new(&data, 2, 3, MatrixLayout::RowMajor);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 2), 6.0);
    }

    #[test]
    fn col_major_indexing() {
        // Column-major [2x3]: columns are (1,2), (3,4), (5,6).
        let data = vec![1., 2., 3., 4., 5., 6.];
        let m = MatView::new(&data, 2, 3, MatrixLayout::ColMajor);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.get(0, 2), 5.0);
    }

    #[test]
    fn transpose_is_free_and_consistent() {
        let data: Vec<f32> = (0..12).map(|v| v as f32).collect();
        let m = MatView::new(&data, 3, 4, MatrixLayout::RowMajor);
        let t = m.t();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 3);
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(m.get(r, c), t.get(c, r));
            }
        }
    }

    #[test]
    fn to_row_major_round_trip() {
        let data = vec![1., 4., 2., 5., 3., 6.]; // col-major 2x3
        let m = MatView::new(&data, 2, 3, MatrixLayout::ColMajor);
        assert_eq!(m.to_row_major(), vec![1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    fn mutable_set_and_scale() {
        let mut data = vec![1.0f32; 6];
        let mut m = MatViewMut::new(&mut data, 2, 3, MatrixLayout::RowMajor);
        m.set(1, 1, 7.0);
        m.scale(2.0);
        assert_eq!(m.get(1, 1), 14.0);
        assert_eq!(m.get(0, 0), 2.0);
        m.scale(0.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "matrix view")]
    fn wrong_length_panics() {
        let data = vec![0.0f32; 5];
        let _ = MatView::new(&data, 2, 3, MatrixLayout::RowMajor);
    }
}
