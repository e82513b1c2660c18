//! General matrix multiply (GEMM) kernels.
//!
//! The paper's data layout optimization compares two formulations of the
//! fully-connected layer `Y = XWᵀ + b`:
//!
//! * the *row-major* form `Y = XWᵀ` (MXNet/cuDNN default), and
//! * the *column-major* form `Yᵀ = WXᵀ`,
//!
//! which perform identical arithmetic but stream memory differently. With
//! layout-explicit [`MatView`]s both are a single [`gemm`] call, so the exact
//! numeric kernel is shared and only the access pattern differs — the same
//! property the paper exploits on GPUs.

use crate::error::TensorError;
use crate::layout::MatrixLayout;
use crate::matrix::{MatView, MatViewMut};
use crate::Result;

/// Whether a GEMM operand is used transposed.
///
/// Transposition of a [`MatView`] is free (see [`MatView::t`]); this enum
/// exists for call sites that want to express BLAS-style signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Transpose {
    /// Use the operand as stored.
    #[default]
    No,
    /// Use the transposed operand.
    Yes,
}

impl Transpose {
    /// Applies this flag to a view.
    pub fn apply<'a>(self, m: MatView<'a>) -> MatView<'a> {
        match self {
            Transpose::No => m,
            Transpose::Yes => m.t(),
        }
    }
}

fn strides(layout: MatrixLayout, rows: usize, cols: usize) -> (usize, usize) {
    (layout.row_stride(rows, cols), layout.col_stride(rows, cols))
}

/// `C = alpha * A * B + beta * C`.
///
/// Dimensions must satisfy `A: [m x k]`, `B: [k x n]`, `C: [m x n]` (after
/// any caller-side transposition via [`MatView::t`]).
///
/// # Errors
///
/// Returns [`TensorError::GemmDimension`] when the operand shapes do not
/// line up.
///
/// # Example
///
/// ```
/// use echo_tensor::{gemm, MatView, MatViewMut, MatrixLayout};
///
/// let a = [1., 2., 3., 4.]; // 2x2 row-major
/// let b = [5., 6., 7., 8.];
/// let mut c = [0.0f32; 4];
/// gemm(
///     1.0,
///     MatView::new(&a, 2, 2, MatrixLayout::RowMajor),
///     MatView::new(&b, 2, 2, MatrixLayout::RowMajor),
///     0.0,
///     &mut MatViewMut::new(&mut c, 2, 2, MatrixLayout::RowMajor),
/// )?;
/// assert_eq!(c, [19., 22., 43., 50.]);
/// # Ok::<(), echo_tensor::TensorError>(())
/// ```
pub fn gemm(
    alpha: f32,
    a: MatView<'_>,
    b: MatView<'_>,
    beta: f32,
    c: &mut MatViewMut<'_>,
) -> Result<()> {
    check_dims(&a, &b, c)?;
    c.scale(beta);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (ars, acs) = strides(a.layout(), m, k);
    let (brs, bcs) = strides(b.layout(), k, n);
    let (crs, ccs) = strides(c.layout(), m, n);
    let ad = a.data();
    let bd = b.data();

    let cd = c.data_mut();

    // i-k-j loop order with a scalar hoisted out of the innermost loop; this
    // streams B and C along their column strides, which is contiguous in the
    // common row-major case. There is deliberately no `aval == 0` skip: it
    // would drop `0 × NaN` / `0 × ∞` products, producing finite outputs
    // where IEEE propagation yields NaN (and it would also break the
    // bit-exactness contract between this kernel and the packed backend).
    for i in 0..m {
        for p in 0..k {
            let aval = alpha * ad[i * ars + p * acs];
            let brow = p * brs;
            let crow = i * crs;
            for j in 0..n {
                cd[crow + j * ccs] += aval * bd[brow + j * bcs];
            }
        }
    }
    Ok(())
}

pub(crate) fn check_dims(a: &MatView<'_>, b: &MatView<'_>, c: &MatViewMut<'_>) -> Result<()> {
    if a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols() {
        return Err(TensorError::GemmDimension {
            a: (a.rows(), a.cols()),
            b: (b.rows(), b.cols()),
            c: (c.rows(), c.cols()),
        });
    }
    Ok(())
}

/// Reference triple-loop GEMM used to validate the optimized kernels.
///
/// # Errors
///
/// Returns [`TensorError::GemmDimension`] when the operand shapes do not
/// line up.
pub fn gemm_reference(
    alpha: f32,
    a: MatView<'_>,
    b: MatView<'_>,
    beta: f32,
    c: &mut MatViewMut<'_>,
) -> Result<()> {
    check_dims(&a, &b, c)?;
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f64;
            for p in 0..a.cols() {
                acc += f64::from(a.get(i, p)) * f64::from(b.get(p, j));
            }
            // beta == 0 overwrites (BLAS semantics, and what `MatViewMut::scale`
            // does for every kernel): a NaN/∞ already in C must not survive.
            let prior = if beta == 0.0 { 0.0 } else { beta * c.get(i, j) };
            c.set(i, j, alpha * acc as f32 + prior);
        }
    }
    Ok(())
}

/// The paper's row-major fully-connected product: `Y = X · Wᵀ`.
///
/// `x` is `[B x H]`, `w` is `[O x H]` (both row-major), and `y` is the
/// `[B x O]` row-major output. This mirrors MXNet's `FullyConnected`.
///
/// # Errors
///
/// Returns [`TensorError::GemmDimension`] when the shapes do not agree.
pub fn fc_row_major(x: MatView<'_>, w: MatView<'_>, y: &mut MatViewMut<'_>) -> Result<()> {
    gemm(1.0, x, w.t(), 0.0, y)
}

/// The paper's column-major fully-connected product: `Yᵀ = W · Xᵀ`.
///
/// `x` is the `[B x H]` input viewed column-major (i.e. physically `[H x B]`,
/// as produced by the `[T, H, B]` sequence layout), `w` is `[O x H]`
/// row-major, and `yt` is the `[O x B]` output whose transpose is `Y`.
///
/// # Errors
///
/// Returns [`TensorError::GemmDimension`] when the shapes do not agree.
pub fn fc_col_major(w: MatView<'_>, x: MatView<'_>, yt: &mut MatViewMut<'_>) -> Result<()> {
    gemm(1.0, w, x.t(), 0.0, yt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm_packed::gemm_packed;
    use crate::layout::MatrixLayout::{ColMajor, RowMajor};

    fn rm<'a>(d: &'a [f32], r: usize, c: usize) -> MatView<'a> {
        MatView::new(d, r, c, RowMajor)
    }

    #[test]
    fn gemm_matches_reference_all_layout_combos() {
        let (m, k, n) = (3, 4, 5);
        let a_data: Vec<f32> = (0..m * k).map(|v| v as f32 * 0.5 - 2.0).collect();
        let b_data: Vec<f32> = (0..k * n).map(|v| (v as f32).sin()).collect();
        for la in [RowMajor, ColMajor] {
            for lb in [RowMajor, ColMajor] {
                for lc in [RowMajor, ColMajor] {
                    let a = MatView::new(&a_data, m, k, la);
                    let b = MatView::new(&b_data, k, n, lb);
                    let mut c1 = vec![0.5f32; m * n];
                    let mut c2 = c1.clone();
                    gemm(2.0, a, b, 0.5, &mut MatViewMut::new(&mut c1, m, n, lc)).unwrap();
                    gemm_reference(2.0, a, b, 0.5, &mut MatViewMut::new(&mut c2, m, n, lc))
                        .unwrap();
                    for (x, y) in c1.iter().zip(&c2) {
                        assert!((x - y).abs() < 1e-4, "layouts {la:?} {lb:?} {lc:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_times_nan_propagates_nan() {
        // A zero in A must not short-circuit past a NaN (or ∞) in B:
        // IEEE 754 says 0 × NaN = NaN and 0 × ∞ = NaN.
        let a_data = vec![0.0f32, 0.0, 1.0, 2.0]; // row 0 is all zeros
        let b_data = vec![f32::NAN, 1.0, f32::INFINITY, 2.0];
        for kernel in [gemm, gemm_packed] {
            let mut c = vec![0.0f32; 4];
            kernel(
                1.0,
                rm(&a_data, 2, 2),
                rm(&b_data, 2, 2),
                0.0,
                &mut MatViewMut::new(&mut c, 2, 2, RowMajor),
            )
            .unwrap();
            // Column 0 holds the specials: 0·NaN + 0·∞ → NaN, not 0.
            assert!(c[0].is_nan(), "0·NaN + 0·∞ must be NaN");
            assert!(c[2].is_nan(), "1·NaN + 2·∞ must be NaN");
            // Column 1 is finite everywhere.
            assert_eq!(c[1], 0.0);
            assert_eq!(c[3], 1.0 * 1.0 + 2.0 * 2.0);
        }
    }

    #[test]
    fn beta_zero_overwrites_nan_in_c() {
        // BLAS: beta == 0 means C is write-only, so a NaN/∞ left in the
        // output buffer must not leak into the product — in the oracle
        // exactly as in the kernels it validates.
        let a_data = vec![1.0f32, 2.0, 3.0, 4.0];
        let b_data = vec![1.0f32, 0.0, 0.0, 1.0];
        for kernel in [gemm_reference, gemm, gemm_packed] {
            let mut c = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
            kernel(
                1.0,
                rm(&a_data, 2, 2),
                rm(&b_data, 2, 2),
                0.0,
                &mut MatViewMut::new(&mut c, 2, 2, RowMajor),
            )
            .unwrap();
            assert_eq!(c, a_data);
        }
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a_data = vec![0.0f32; 6];
        let b_data = vec![0.0f32; 6];
        let mut c_data = vec![0.0f32; 4];
        let err = gemm(
            1.0,
            rm(&a_data, 2, 3),
            rm(&b_data, 2, 3),
            0.0,
            &mut MatViewMut::new(&mut c_data, 2, 2, RowMajor),
        )
        .unwrap_err();
        assert!(matches!(err, TensorError::GemmDimension { .. }));
    }

    #[test]
    fn fc_row_and_col_major_agree() {
        // X: [B x H] = [2 x 3], W: [O x H] = [4 x 3].
        let x_rm = vec![1., 2., 3., 4., 5., 6.];
        let w = vec![
            1., 0., 0., //
            0., 1., 0., //
            0., 0., 1., //
            1., 1., 1.,
        ];
        let mut y = vec![0.0f32; 8];
        fc_row_major(
            rm(&x_rm, 2, 3),
            rm(&w, 4, 3),
            &mut MatViewMut::new(&mut y, 2, 4, RowMajor),
        )
        .unwrap();
        assert_eq!(y, vec![1., 2., 3., 6., 4., 5., 6., 15.]);

        // Same X stored column-major (physically [H x B]).
        let x_cm = vec![1., 4., 2., 5., 3., 6.];
        let mut yt = vec![0.0f32; 8];
        fc_col_major(
            rm(&w, 4, 3),
            MatView::new(&x_cm, 2, 3, ColMajor),
            &mut MatViewMut::new(&mut yt, 4, 2, RowMajor),
        )
        .unwrap();
        // yt is [O x B]; its transpose must equal y.
        let yt_view = MatView::new(&yt, 4, 2, RowMajor);
        let y_view = MatView::new(&y, 2, 4, RowMajor);
        for b in 0..2 {
            for o in 0..4 {
                assert_eq!(yt_view.get(o, b), y_view.get(b, o));
            }
        }
    }

    #[test]
    fn transpose_flag_applies() {
        let d = vec![1., 2., 3., 4., 5., 6.];
        let v = rm(&d, 2, 3);
        let t = Transpose::Yes.apply(v);
        assert_eq!((t.rows(), t.cols()), (3, 2));
        assert_eq!(Transpose::No.apply(v).rows(), 2);
    }
}
