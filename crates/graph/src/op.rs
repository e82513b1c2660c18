//! The operator interface.

use crate::Result;
use echo_cachesim::TiledGemmSpec;
use echo_device::{KernelCategory, KernelCost};
use echo_tensor::{Shape, Tensor};
use std::fmt;

/// What an operator needs the executor to keep alive for its backward pass.
///
/// This mirrors MXNet's `OperatorProperty` declarations (paper Figure 10):
/// a tanh declares `output: true` (its derivative is `1 − y²`), a
/// fully-connected layer declares `inputs: true` (it needs `X` and `W`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StashNeeds {
    /// Backward reads the forward inputs.
    pub inputs: bool,
    /// Backward reads the forward output.
    pub output: bool,
}

impl StashNeeds {
    /// Backward needs neither inputs nor output (e.g. plain addition).
    pub const NONE: StashNeeds = StashNeeds {
        inputs: false,
        output: false,
    };
    /// Backward needs the inputs only.
    pub const INPUTS: StashNeeds = StashNeeds {
        inputs: true,
        output: false,
    };
    /// Backward needs the output only.
    pub const OUTPUT: StashNeeds = StashNeeds {
        inputs: false,
        output: true,
    };
    /// Backward needs both.
    pub const BOTH: StashNeeds = StashNeeds {
        inputs: true,
        output: true,
    };
}

/// How a kernel's cost is described to the device simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchSpec {
    /// A fixed roofline cost.
    Kernel(KernelCost),
    /// A GEMM whose memory behaviour the cache simulator derives from the
    /// problem geometry and operand layouts.
    Gemm(TiledGemmSpec),
}

/// One GPU kernel an operator would launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelLaunch {
    /// Kernel name for the trace.
    pub name: String,
    /// Category for breakdown figures.
    pub category: KernelCategory,
    /// Cost description.
    pub spec: LaunchSpec,
}

impl KernelLaunch {
    /// A roofline kernel.
    pub fn kernel(name: impl Into<String>, category: KernelCategory, cost: KernelCost) -> Self {
        KernelLaunch {
            name: name.into(),
            category,
            spec: LaunchSpec::Kernel(cost),
        }
    }

    /// A GEMM kernel.
    pub fn gemm(name: impl Into<String>, spec: TiledGemmSpec) -> Self {
        KernelLaunch {
            name: name.into(),
            category: KernelCategory::FullyConnected,
            spec: LaunchSpec::Gemm(spec),
        }
    }
}

/// Values produced by `forward` that only the same operator's `backward`
/// reads — cuDNN's "reserved space" (gates of a fused LSTM, softmax
/// probabilities, layer-norm statistics).
pub type Saved = Vec<Tensor>;

/// A single-output differentiable operator.
///
/// Operators are pure: all state lives in the tensors. The executor owns
/// scheduling, stashing and memory; the operator describes computation
/// (numeric plane) and kernel costs (device plane).
pub trait Operator: fmt::Debug {
    /// Short name used in traces and errors (e.g. `"fully_connected"`).
    fn name(&self) -> &str;

    /// Trace category for the operator's kernels.
    fn category(&self) -> KernelCategory;

    /// Output shape from input shapes.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shapes are unacceptable.
    fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape>;

    /// Numeric forward pass: output plus operator-private saved tensors.
    ///
    /// # Errors
    ///
    /// Returns an error when the inputs are numerically unacceptable.
    fn forward(&self, inputs: &[&Tensor]) -> Result<(Tensor, Saved)>;

    /// Numeric backward pass: gradient w.r.t. each input (`None` for
    /// non-differentiable inputs such as integer id tensors).
    ///
    /// `inputs`/`output` are only populated when [`Operator::stash`]
    /// requested them; `saved` is whatever `forward` returned.
    ///
    /// # Errors
    ///
    /// Returns an error when shapes are inconsistent.
    fn backward(
        &self,
        inputs: &[Option<&Tensor>],
        output: Option<&Tensor>,
        saved: &[Tensor],
        dy: &Tensor,
    ) -> Result<Vec<Option<Tensor>>>;

    /// What the executor must keep alive for [`Operator::backward`].
    fn stash(&self) -> StashNeeds;

    /// Kernels launched by the forward pass, for the device plane.
    fn forward_launches(&self, inputs: &[&Shape], output: &Shape) -> Vec<KernelLaunch>;

    /// Kernels launched by the backward pass, for the device plane.
    fn backward_launches(&self, inputs: &[&Shape], output: &Shape) -> Vec<KernelLaunch>;

    /// Bytes of operator-private saved state per forward call, for plan
    /// accounting and projections (must match what `forward` actually
    /// saves).
    fn saved_bytes(&self, inputs: &[&Shape], output: &Shape) -> u64 {
        let _ = (inputs, output);
        0
    }

    /// Whether each input is differentiable (defaults to all-true).
    fn input_differentiable(&self, index: usize) -> bool {
        let _ = index;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stash_constants() {
        let cases = [
            (StashNeeds::BOTH, true, true),
            (StashNeeds::NONE, false, false),
            (StashNeeds::INPUTS, true, false),
            (StashNeeds::OUTPUT, false, true),
        ];
        for (needs, inputs, output) in cases {
            assert_eq!(needs.inputs, inputs);
            assert_eq!(needs.output, output);
        }
    }

    #[test]
    fn launch_constructors() {
        let k = KernelLaunch::kernel(
            "k",
            KernelCategory::Elementwise,
            KernelCost::elementwise(10, 2),
        );
        assert!(matches!(k.spec, LaunchSpec::Kernel(_)));
        let g = KernelLaunch::gemm("g", TiledGemmSpec::new(4, 4, 4));
        assert_eq!(g.category, KernelCategory::FullyConnected);
    }
}
