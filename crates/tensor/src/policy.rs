//! GEMM dispatch: one rule, two kernels.
//!
//! Every matmul in the training stack funnels through [`dispatch_gemm`].
//! The crate has two kernels — the naive strided [`gemm`] (also the
//! bit-exact oracle and the paper's two layout formulations) and the
//! packed register-blocked kernel — and the choice between them is
//! computed from the operands, not measured:
//!
//! * `m == 1`, or a column-major `C` → naive. A single output row cannot
//!   amortise packing `B` (the packed kernel fills one of its `MR = 4`
//!   tile rows and is ~2× slower there), and the packed kernel only
//!   writes row-major outputs.
//! * everything else → packed, row-banded on the worker pool only at or
//!   above 2²² FLOPs (`PARALLEL_FLOPS`); below that the call stays on the
//!   calling thread and never touches the pool.
//!
//! Because both kernels are bit-identical (see
//! [`gemm_packed`](crate::gemm_packed)), the rule is numerically
//! transparent: losses and gradients do not depend on it, on the
//! [`MatmulPolicy`] override, or on the worker count — a property the
//! policy-determinism integration test enforces end to end.
//! [`set_matmul_policy`] pins one kernel for every shape; it exists so
//! that test (and the kernel benchmark) can hold the kernel fixed.

use crate::gemm::gemm;
use crate::gemm_packed::{
    active_micro_kernel, gemm_packed_parallel, MicroKernel, DEFAULT_KC, DEFAULT_MC,
};
use crate::layout::MatrixLayout;
use crate::matrix::{MatView, MatViewMut};
use crate::pool;
use crate::Result;
use std::sync::atomic::{AtomicU8, Ordering};

/// A concrete GEMM kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatmulBackend {
    /// Scalar i-k-j triple loop (`gemm`).
    Naive,
    /// Packed register-blocked kernel, row-banded on the worker pool
    /// (`gemm_packed_parallel`).
    PackedParallel,
}

impl MatmulBackend {
    /// Stable lowercase name (benchmark JSON, reports).
    pub fn name(self) -> &'static str {
        match self {
            MatmulBackend::Naive => "naive",
            MatmulBackend::PackedParallel => "packed",
        }
    }
}

/// How [`dispatch_gemm`] chooses its backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MatmulPolicy {
    /// The shape rule in the module docs.
    #[default]
    Auto,
    /// The given backend for every shape, banded at every size (packed
    /// still hands a column-major `C` to naive, which is bit-identical).
    Fixed(MatmulBackend),
}

impl MatmulPolicy {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            MatmulPolicy::Auto => "auto",
            MatmulPolicy::Fixed(b) => b.name(),
        }
    }
}

/// At or above this flop count (2·m·k·n) a packed GEMM is row-banded on
/// the worker pool; below it a pool round-trip costs more than it saves.
const PARALLEL_FLOPS: usize = 1 << 22; // e.g. 64×128×256

/// Process-wide policy, encoded by [`encode`].
static POLICY: AtomicU8 = AtomicU8::new(0);

fn encode(p: MatmulPolicy) -> u8 {
    match p {
        MatmulPolicy::Auto => 0,
        MatmulPolicy::Fixed(MatmulBackend::Naive) => 1,
        MatmulPolicy::Fixed(MatmulBackend::PackedParallel) => 2,
    }
}

fn decode(v: u8) -> MatmulPolicy {
    match v {
        1 => MatmulPolicy::Fixed(MatmulBackend::Naive),
        2 => MatmulPolicy::Fixed(MatmulBackend::PackedParallel),
        _ => MatmulPolicy::Auto,
    }
}

/// The policy [`dispatch_gemm`] currently applies.
pub fn matmul_policy() -> MatmulPolicy {
    decode(POLICY.load(Ordering::Relaxed))
}

/// Overrides the process-wide matmul policy (tests, benchmarks).
pub fn set_matmul_policy(policy: MatmulPolicy) {
    POLICY.store(encode(policy), Ordering::Relaxed);
}

/// What `bench/` prints as the process's GEMM configuration.
#[derive(Debug, Clone, Copy)]
pub struct AutotuneOutcome {
    /// Always [`MatmulBackend::PackedParallel`].
    pub chosen: MatmulBackend,
    /// The micro-kernel in effect ([`active_micro_kernel`]).
    pub kernel: MicroKernel,
    /// The constant `(KC, MC)` tiles.
    pub tiles: (usize, usize),
    /// Always `false`: nothing is measured.
    pub tiles_measured: bool,
}

/// A static description of the GEMM configuration: packed, the detected
/// micro-kernel, the constant tiles. Nothing is tuned at run time any
/// more; the function, its `Option` and its name survive only because
/// `bench/` compiles against them. A follow-up `benchmark` PR drops it
/// and re-measures `bench/BASELINE.json`.
pub fn autotune_outcome() -> Option<AutotuneOutcome> {
    Some(AutotuneOutcome {
        chosen: MatmulBackend::PackedParallel,
        kernel: active_micro_kernel(),
        tiles: (DEFAULT_KC, DEFAULT_MC),
        tiles_measured: false,
    })
}

/// The backend [`dispatch_gemm`] uses for an `m × k × n` product into a
/// row-major `C` under the current policy. Only `m` enters the rule; the
/// signature takes the whole shape so callers name the product they mean.
pub fn backend_for(m: usize, _k: usize, _n: usize) -> MatmulBackend {
    match matmul_policy() {
        MatmulPolicy::Fixed(b) => b,
        MatmulPolicy::Auto if m == 1 => MatmulBackend::Naive,
        MatmulPolicy::Auto => MatmulBackend::PackedParallel,
    }
}

/// Policy-routed GEMM: `C = alpha*A*B + beta*C`.
///
/// This is the single entry point the training stack uses
/// ([`Tensor::matmul`](crate::Tensor::matmul) and everything above it);
/// the module docs give the rule.
///
/// # Errors
///
/// Returns [`TensorError::GemmDimension`](crate::TensorError::GemmDimension)
/// when the operand shapes do not line up.
pub fn dispatch_gemm(
    alpha: f32,
    a: MatView<'_>,
    b: MatView<'_>,
    beta: f32,
    c: &mut MatViewMut<'_>,
) -> Result<()> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if backend_for(m, k, n) == MatmulBackend::Naive || c.layout() != MatrixLayout::RowMajor {
        return gemm(alpha, a, b, beta, c);
    }
    let flops = 2usize.saturating_mul(m).saturating_mul(k).saturating_mul(n);
    let ways = if flops >= PARALLEL_FLOPS || matmul_policy() != MatmulPolicy::Auto {
        pool::global().num_threads()
    } else {
        1
    };
    gemm_packed_parallel(alpha, a, b, beta, c, ways)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::MatrixLayout::{ColMajor, RowMajor};

    #[test]
    fn policy_encoding_round_trips() {
        for p in [
            MatmulPolicy::Auto,
            MatmulPolicy::Fixed(MatmulBackend::Naive),
            MatmulPolicy::Fixed(MatmulBackend::PackedParallel),
        ] {
            assert_eq!(decode(encode(p)), p);
        }
    }

    // One test, not several: the policy override is process-global state
    // and the harness runs #[test]s concurrently.
    #[test]
    fn policy_tiers_and_overrides() {
        set_matmul_policy(MatmulPolicy::Auto);
        // One output row → naive at any size; two or more → packed from
        // the smallest shape to the largest.
        assert_eq!(backend_for(1, 1, 1), MatmulBackend::Naive);
        assert_eq!(backend_for(1, 256, 10_000), MatmulBackend::Naive);
        assert_eq!(backend_for(2, 1, 16), MatmulBackend::PackedParallel);
        assert_eq!(backend_for(64, 512, 2048), MatmulBackend::PackedParallel);

        // A column-major C goes to the naive kernel, bit for bit.
        let (m, k, n) = (5, 7, 9);
        let a: Vec<f32> = (0..m * k).map(|v| v as f32 * 0.25 - 3.0).collect();
        let b: Vec<f32> = (0..k * n).map(|v| (v as f32).sin()).collect();
        let av = MatView::new(&a, m, k, RowMajor);
        let bv = MatView::new(&b, k, n, RowMajor);
        let mut expect = vec![0.5f32; m * n];
        gemm(
            1.5,
            av,
            bv,
            0.5,
            &mut MatViewMut::new(&mut expect, m, n, ColMajor),
        )
        .unwrap();
        for policy in [
            MatmulPolicy::Auto,
            MatmulPolicy::Fixed(MatmulBackend::PackedParallel),
        ] {
            set_matmul_policy(policy);
            let mut c = vec![0.5f32; m * n];
            dispatch_gemm(
                1.5,
                av,
                bv,
                0.5,
                &mut MatViewMut::new(&mut c, m, n, ColMajor),
            )
            .unwrap();
            assert_eq!(
                c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{policy:?}"
            );
        }

        for b in [MatmulBackend::Naive, MatmulBackend::PackedParallel] {
            set_matmul_policy(MatmulPolicy::Fixed(b));
            assert_eq!(backend_for(1, 1, 1), b);
            assert_eq!(backend_for(999, 999, 999), b);
        }
        set_matmul_policy(MatmulPolicy::Auto);
    }
}
