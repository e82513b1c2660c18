//! The generic fused-group operator.
//!
//! A [`FusedGroup`] hosts a single-escape subgraph — a set of elementwise
//! constituents whose only externally visible value is the group's last
//! (host) output — behind the ordinary [`Operator`] interface, so plan
//! lowering and the executor treat it as one node launching one forward
//! kernel.
//!
//! **Forward only.** Forward runs the constituents in their original
//! ascending node-id order with the same input tensors the unfused graph
//! would pass, so every value is bit-identical by construction. Interior
//! values live only inside the call. There is no backward: a training
//! step over a fused graph fails with a typed [`GraphError`] at the first
//! group it reaches, rather than producing gradients.

use crate::op::{KernelLaunch, Operator, Saved, StashNeeds};
use crate::{GraphError, Result};
use echo_device::{KernelCategory, KernelCost};
use echo_tensor::{Shape, Tensor};
use std::sync::Arc;

/// Where one constituent input comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedInput {
    /// The group's `k`-th external input.
    External(usize),
    /// The output of constituent step `j` (an interior value).
    Interior(usize),
}

/// One constituent of a fused group, in original topological position.
#[derive(Debug, Clone)]
pub struct FusedStep {
    /// The original operator.
    pub op: Arc<dyn Operator + Send + Sync>,
    /// Where each of its inputs comes from.
    pub inputs: Vec<FusedInput>,
    /// The original node name (for traces).
    pub name: String,
}

/// A fused single-escape group of elementwise operators. See the module
/// docs for the construction and forward-only contract.
#[derive(Debug, Clone)]
pub struct FusedGroup {
    name: String,
    steps: Vec<FusedStep>,
}

impl FusedGroup {
    /// Assembles a fused group from constituents listed in ascending
    /// original-id order; the last step is the host whose output escapes.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty or an interior reference points at or
    /// past its own step — programming errors in the fusion pass.
    pub fn new(name: impl Into<String>, steps: Vec<FusedStep>, n_inputs: usize) -> Self {
        assert!(!steps.is_empty(), "fused group needs at least one step");
        for (j, step) in steps.iter().enumerate() {
            for input in &step.inputs {
                match *input {
                    FusedInput::External(k) => assert!(k < n_inputs, "external {k} out of range"),
                    FusedInput::Interior(i) => assert!(i < j, "interior {i} not before step {j}"),
                }
            }
        }
        FusedGroup {
            name: name.into(),
            steps,
        }
    }

    /// Shapes of every step output, computed from the external input
    /// shapes.
    fn step_shapes(&self, inputs: &[&Shape]) -> Result<Vec<Shape>> {
        let mut shapes: Vec<Shape> = Vec::with_capacity(self.steps.len());
        for step in &self.steps {
            let in_shapes: Vec<&Shape> = step
                .inputs
                .iter()
                .map(|i| match *i {
                    FusedInput::External(k) => inputs[k],
                    FusedInput::Interior(j) => &shapes[j],
                })
                .collect();
            shapes.push(step.op.infer_shape(&in_shapes)?);
        }
        Ok(shapes)
    }

    /// The constituents' forward launches, rolled into one fused kernel
    /// that reads the group inputs once and writes the host output once.
    fn fused_cost(&self, inputs: &[&Shape]) -> KernelCost {
        let shapes = match self.step_shapes(inputs) {
            Ok(s) => s,
            Err(_) => return KernelCost::elementwise(0, 1),
        };
        let mut flops: u64 = 0;
        let mut parallelism: usize = 1;
        for (j, step) in self.steps.iter().enumerate() {
            let in_shapes: Vec<&Shape> = step
                .inputs
                .iter()
                .map(|i| match *i {
                    FusedInput::External(k) => inputs[k],
                    FusedInput::Interior(jj) => &shapes[jj],
                })
                .collect();
            for launch in step.op.forward_launches(&in_shapes, &shapes[j]) {
                flops += crate::plan::launch_flops(std::slice::from_ref(&launch));
                if let crate::op::LaunchSpec::Kernel(c) = &launch.spec {
                    parallelism = parallelism.max(c.parallelism);
                }
            }
        }
        let in_bytes: u64 = inputs.iter().map(|s| s.num_bytes() as u64).sum();
        let out_bytes = shapes.last().map_or(0, |s| s.num_bytes() as u64);
        KernelCost {
            flops,
            dram_bytes: in_bytes + out_bytes,
            l2_bytes: 0,
            parallelism,
            bandwidth_efficiency: 0.85,
        }
    }
}

impl Operator for FusedGroup {
    fn name(&self) -> &str {
        &self.name
    }

    fn category(&self) -> KernelCategory {
        KernelCategory::Elementwise
    }

    fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        Ok(self
            .step_shapes(inputs)?
            .pop()
            .expect("fused group is non-empty"))
    }

    fn forward(&self, inputs: &[&Tensor]) -> Result<(Tensor, Saved)> {
        let mut values: Vec<Tensor> = Vec::with_capacity(self.steps.len());
        for step in &self.steps {
            let refs: Vec<&Tensor> = step
                .inputs
                .iter()
                .map(|i| match *i {
                    FusedInput::External(k) => inputs[k],
                    FusedInput::Interior(j) => &values[j],
                })
                .collect();
            values.push(step.op.forward(&refs)?.0);
        }
        let output = values.pop().expect("fused group is non-empty");
        Ok((output, Vec::new()))
    }

    fn backward(
        &self,
        _inputs: &[Option<&Tensor>],
        _output: Option<&Tensor>,
        _saved: &[Tensor],
        _dy: &Tensor,
    ) -> Result<Vec<Option<Tensor>>> {
        Err(GraphError::Operator {
            op: self.name.clone(),
            message: "fused groups are forward-only; train the unfused graph".to_string(),
        })
    }

    fn stash(&self) -> StashNeeds {
        StashNeeds::NONE
    }

    fn forward_launches(&self, inputs: &[&Shape], _output: &Shape) -> Vec<KernelLaunch> {
        vec![KernelLaunch::kernel(
            format!("{}_fwd", self.name),
            KernelCategory::Elementwise,
            self.fused_cost(inputs),
        )]
    }

    fn backward_launches(&self, _inputs: &[&Shape], _output: &Shape) -> Vec<KernelLaunch> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tiny constituent: y = a * b (stashes inputs, like `Mul`).
    #[derive(Debug)]
    struct TestMul;
    impl Operator for TestMul {
        fn name(&self) -> &str {
            "mul"
        }
        fn category(&self) -> KernelCategory {
            KernelCategory::Elementwise
        }
        fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
            Ok(inputs[0].clone())
        }
        fn forward(&self, inputs: &[&Tensor]) -> Result<(Tensor, Saved)> {
            let mut y = inputs[0].clone();
            for (v, b) in y.data_mut().iter_mut().zip(inputs[1].data()) {
                *v *= *b;
            }
            Ok((y, Vec::new()))
        }
        fn backward(
            &self,
            inputs: &[Option<&Tensor>],
            _output: Option<&Tensor>,
            _saved: &[Tensor],
            dy: &Tensor,
        ) -> Result<Vec<Option<Tensor>>> {
            let a = inputs[0].expect("stashes inputs");
            let b = inputs[1].expect("stashes inputs");
            let mut da = dy.clone();
            for (v, x) in da.data_mut().iter_mut().zip(b.data()) {
                *v *= *x;
            }
            let mut db = dy.clone();
            for (v, x) in db.data_mut().iter_mut().zip(a.data()) {
                *v *= *x;
            }
            Ok(vec![Some(da), Some(db)])
        }
        fn stash(&self) -> StashNeeds {
            StashNeeds::INPUTS
        }
        fn forward_launches(&self, _i: &[&Shape], o: &Shape) -> Vec<KernelLaunch> {
            vec![KernelLaunch::kernel(
                "mul",
                KernelCategory::Elementwise,
                KernelCost::elementwise(o.num_elements(), 3),
            )]
        }
        fn backward_launches(&self, i: &[&Shape], o: &Shape) -> Vec<KernelLaunch> {
            self.forward_launches(i, o)
        }
    }

    /// y = (a*b) * a — interior (a*b), host mul; `a` feeds both steps.
    fn chain() -> FusedGroup {
        FusedGroup::new(
            "fused_test",
            vec![
                FusedStep {
                    op: Arc::new(TestMul),
                    inputs: vec![FusedInput::External(0), FusedInput::External(1)],
                    name: "ab".to_string(),
                },
                FusedStep {
                    op: Arc::new(TestMul),
                    inputs: vec![FusedInput::Interior(0), FusedInput::External(0)],
                    name: "y".to_string(),
                },
            ],
            2,
        )
    }

    #[test]
    fn fused_chain_matches_serial_bits() {
        let group = chain();
        let a = Tensor::from_fn(Shape::d1(4), |i| 0.3 + i as f32 * 0.7);
        let b = Tensor::from_fn(Shape::d1(4), |i| 1.1 - i as f32 * 0.2);
        let (y, saved) = group.forward(&[&a, &b]).unwrap();
        assert!(saved.is_empty(), "interiors never outlive the call");
        // Serial reference.
        let (ab, _) = TestMul.forward(&[&a, &b]).unwrap();
        let (y_ref, _) = TestMul.forward(&[&ab, &a]).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y), bits(&y_ref));

        // No backward: a typed error, never zero gradients.
        let dy = Tensor::from_fn(Shape::d1(4), |i| 0.9 - i as f32 * 0.1);
        let err = group
            .backward(&[Some(&a), Some(&b)], Some(&y), &saved, &dy)
            .unwrap_err();
        assert!(matches!(err, GraphError::Operator { .. }), "{err}");
    }

    #[test]
    fn fused_group_declares_one_forward_launch() {
        let group = chain();
        let s = Shape::d1(4);
        assert_eq!(group.forward_launches(&[&s, &s], &s).len(), 1);
        assert!(group.backward_launches(&[&s, &s], &s).is_empty());
        assert_eq!(group.saved_bytes(&[&s, &s], &s), 0);
        assert_eq!(group.stash(), StashNeeds::NONE);
    }
}
