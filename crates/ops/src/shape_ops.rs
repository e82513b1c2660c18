//! Shape-manipulation operators: slicing, stacking, concatenation and axis
//! permutation.
//!
//! These are the small glue kernels the MXNet "Default" LSTM implementation
//! is built from — the swarm of tiny launches that makes it launch-bound
//! (paper Figure 7a).

use echo_device::{KernelCategory, KernelCost};
use echo_graph::{GraphError, KernelLaunch, Operator, Result, StashNeeds};
use echo_tensor::{Shape, Tensor};

fn op_err(op: &str, message: String) -> GraphError {
    GraphError::Operator {
        op: op.to_string(),
        message,
    }
}

/// Slices `[start, end)` of the last dimension — how the 4 LSTM gates are
/// split out of the `[B x 4H]` pre-activation.
#[derive(Debug, Clone, Copy)]
pub struct SliceLastDim {
    /// First column (inclusive).
    pub start: usize,
    /// Last column (exclusive).
    pub end: usize,
}

impl SliceLastDim {
    /// Creates a slice over `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end`.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start < end, "empty slice [{start}, {end})");
        SliceLastDim { start, end }
    }

    fn width(&self) -> usize {
        self.end - self.start
    }
}

impl Operator for SliceLastDim {
    fn name(&self) -> &str {
        "slice_last_dim"
    }
    fn category(&self) -> KernelCategory {
        KernelCategory::Elementwise
    }
    fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        let s = inputs[0];
        let last = *s
            .dims()
            .last()
            .ok_or_else(|| op_err("slice_last_dim", "cannot slice a scalar".to_string()))?;
        if self.end > last {
            return Err(op_err(
                "slice_last_dim",
                format!(
                    "slice [{}, {}) exceeds last dim {last}",
                    self.start, self.end
                ),
            ));
        }
        let mut dims = s.dims().to_vec();
        *dims.last_mut().expect("rank >= 1") = self.width();
        Ok(Shape::new(dims))
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<(Tensor, Vec<Tensor>)> {
        let x = inputs[0];
        let out_shape = self.infer_shape(&[x.shape()])?;
        let (rows, cols) = x.shape().as_matrix();
        let w = self.width();
        let mut out = Tensor::zeros(out_shape);
        for r in 0..rows {
            let src = &x.data()[r * cols + self.start..r * cols + self.end];
            out.data_mut()[r * w..(r + 1) * w].copy_from_slice(src);
        }
        Ok((out, Vec::new()))
    }
    fn backward(
        &self,
        inputs: &[Option<&Tensor>],
        _output: Option<&Tensor>,
        _saved: &[Tensor],
        dy: &Tensor,
    ) -> Result<Vec<Option<Tensor>>> {
        let x = inputs[0].expect("slice stashes inputs for its shape");
        let (rows, cols) = x.shape().as_matrix();
        let w = self.width();
        let mut dx = Tensor::zeros(x.shape().clone());
        for r in 0..rows {
            let src = &dy.data()[r * w..(r + 1) * w];
            dx.data_mut()[r * cols + self.start..r * cols + self.end].copy_from_slice(src);
        }
        Ok(vec![Some(dx)])
    }
    fn stash(&self) -> StashNeeds {
        StashNeeds::INPUTS
    }
    fn forward_launches(&self, _i: &[&Shape], o: &Shape) -> Vec<KernelLaunch> {
        vec![KernelLaunch::kernel(
            "slice_fwd",
            KernelCategory::Elementwise,
            KernelCost::elementwise(o.num_elements(), 2),
        )]
    }
    fn backward_launches(&self, i: &[&Shape], _o: &Shape) -> Vec<KernelLaunch> {
        vec![KernelLaunch::kernel(
            "slice_bwd",
            KernelCategory::Elementwise,
            KernelCost::elementwise(i[0].num_elements(), 2),
        )]
    }
}

/// Concatenates two tensors along the last dimension — how `[query;
/// context]` forms the attention hidden state.
#[derive(Debug, Clone, Copy, Default)]
pub struct Concat2LastDim;

impl Operator for Concat2LastDim {
    fn name(&self) -> &str {
        "concat2"
    }
    fn category(&self) -> KernelCategory {
        KernelCategory::Elementwise
    }
    fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        let (a, b) = (inputs[0], inputs[1]);
        if a.rank() != b.rank()
            || a.rank() == 0
            || a.dims()[..a.rank() - 1] != b.dims()[..b.rank() - 1]
        {
            return Err(op_err(
                "concat2",
                format!("incompatible shapes {a} and {b}"),
            ));
        }
        let mut dims = a.dims().to_vec();
        *dims.last_mut().expect("rank >= 1") += b.dims().last().expect("rank >= 1");
        Ok(Shape::new(dims))
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<(Tensor, Vec<Tensor>)> {
        let (a, b) = (inputs[0], inputs[1]);
        let out_shape = self.infer_shape(&[a.shape(), b.shape()])?;
        let (rows, ca) = a.shape().as_matrix();
        let (_, cb) = b.shape().as_matrix();
        let mut out = Tensor::zeros(out_shape);
        let cw = ca + cb;
        for r in 0..rows {
            out.data_mut()[r * cw..r * cw + ca].copy_from_slice(&a.data()[r * ca..(r + 1) * ca]);
            out.data_mut()[r * cw + ca..(r + 1) * cw]
                .copy_from_slice(&b.data()[r * cb..(r + 1) * cb]);
        }
        Ok((out, Vec::new()))
    }
    fn backward(
        &self,
        inputs: &[Option<&Tensor>],
        _output: Option<&Tensor>,
        _saved: &[Tensor],
        dy: &Tensor,
    ) -> Result<Vec<Option<Tensor>>> {
        let a = inputs[0].expect("concat stashes inputs for shapes");
        let b = inputs[1].expect("concat stashes inputs for shapes");
        let (rows, ca) = a.shape().as_matrix();
        let (_, cb) = b.shape().as_matrix();
        let cw = ca + cb;
        let mut da = Tensor::zeros(a.shape().clone());
        let mut db = Tensor::zeros(b.shape().clone());
        for r in 0..rows {
            da.data_mut()[r * ca..(r + 1) * ca].copy_from_slice(&dy.data()[r * cw..r * cw + ca]);
            db.data_mut()[r * cb..(r + 1) * cb]
                .copy_from_slice(&dy.data()[r * cw + ca..(r + 1) * cw]);
        }
        Ok(vec![Some(da), Some(db)])
    }
    fn stash(&self) -> StashNeeds {
        StashNeeds::INPUTS
    }
    fn forward_launches(&self, _i: &[&Shape], o: &Shape) -> Vec<KernelLaunch> {
        vec![KernelLaunch::kernel(
            "concat_fwd",
            KernelCategory::Elementwise,
            KernelCost::elementwise(o.num_elements(), 3),
        )]
    }
    fn backward_launches(&self, _i: &[&Shape], o: &Shape) -> Vec<KernelLaunch> {
        vec![KernelLaunch::kernel(
            "concat_bwd",
            KernelCategory::Elementwise,
            KernelCost::elementwise(o.num_elements(), 3),
        )]
    }
}

/// Extracts slice `index` along axis 0 — one time step of a `[T, B, H]`
/// sequence.
#[derive(Debug, Clone, Copy)]
pub struct SliceAxis0 {
    /// The time step to extract.
    pub index: usize,
}

impl Operator for SliceAxis0 {
    fn name(&self) -> &str {
        "slice_axis0"
    }
    fn category(&self) -> KernelCategory {
        KernelCategory::Elementwise
    }
    fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        let s = inputs[0];
        if s.rank() == 0 || self.index >= s.dim(0) {
            return Err(op_err(
                "slice_axis0",
                format!("index {} out of bounds for {s}", self.index),
            ));
        }
        Ok(Shape::new(s.dims()[1..].to_vec()))
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<(Tensor, Vec<Tensor>)> {
        Ok((inputs[0].index_axis0(self.index)?, Vec::new()))
    }
    fn backward(
        &self,
        inputs: &[Option<&Tensor>],
        _output: Option<&Tensor>,
        _saved: &[Tensor],
        dy: &Tensor,
    ) -> Result<Vec<Option<Tensor>>> {
        let x = inputs[0].expect("slice stashes inputs for its shape");
        let mut dx = Tensor::zeros(x.shape().clone());
        dx.set_axis0(self.index, dy)?;
        Ok(vec![Some(dx)])
    }
    fn stash(&self) -> StashNeeds {
        StashNeeds::INPUTS
    }
    fn forward_launches(&self, _i: &[&Shape], o: &Shape) -> Vec<KernelLaunch> {
        vec![KernelLaunch::kernel(
            "slice_t_fwd",
            KernelCategory::Elementwise,
            KernelCost::elementwise(o.num_elements(), 2),
        )]
    }
    fn backward_launches(&self, _i: &[&Shape], o: &Shape) -> Vec<KernelLaunch> {
        vec![KernelLaunch::kernel(
            "slice_t_bwd",
            KernelCategory::Elementwise,
            KernelCost::elementwise(o.num_elements(), 2),
        )]
    }
}

/// Stacks `k` same-shaped inputs along a new axis 0 — collecting per-step
/// hidden states into the `[T, B, H]` sequence.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackAxis0;

impl Operator for StackAxis0 {
    fn name(&self) -> &str {
        "stack_axis0"
    }
    fn category(&self) -> KernelCategory {
        KernelCategory::Elementwise
    }
    fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        let first = inputs
            .first()
            .ok_or_else(|| op_err("stack_axis0", "needs at least one input".to_string()))?;
        for s in inputs {
            if s != first {
                return Err(op_err(
                    "stack_axis0",
                    format!("ragged inputs: {first} vs {s}"),
                ));
            }
        }
        let mut dims = vec![inputs.len()];
        dims.extend_from_slice(first.dims());
        Ok(Shape::new(dims))
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<(Tensor, Vec<Tensor>)> {
        let shapes: Vec<&Shape> = inputs.iter().map(|t| t.shape()).collect();
        let out_shape = self.infer_shape(&shapes)?;
        let mut out = Tensor::zeros(out_shape);
        for (i, t) in inputs.iter().enumerate() {
            out.set_axis0(i, t)?;
        }
        Ok((out, Vec::new()))
    }
    fn backward(
        &self,
        inputs: &[Option<&Tensor>],
        _output: Option<&Tensor>,
        _saved: &[Tensor],
        dy: &Tensor,
    ) -> Result<Vec<Option<Tensor>>> {
        (0..inputs.len())
            .map(|i| Ok(Some(dy.index_axis0(i)?)))
            .collect()
    }
    fn stash(&self) -> StashNeeds {
        StashNeeds::NONE
    }
    fn forward_launches(&self, _i: &[&Shape], o: &Shape) -> Vec<KernelLaunch> {
        vec![KernelLaunch::kernel(
            "stack_fwd",
            KernelCategory::Elementwise,
            KernelCost::elementwise(o.num_elements(), 2),
        )]
    }
    fn backward_launches(&self, _i: &[&Shape], o: &Shape) -> Vec<KernelLaunch> {
        vec![KernelLaunch::kernel(
            "stack_bwd",
            KernelCategory::Elementwise,
            KernelCost::elementwise(o.num_elements(), 2),
        )]
    }
}

/// Permutes the axes of a rank-3 tensor — the `[T, B, H] → [T, H, B]`
/// layout conversion at the heart of the EcoRNN input layout (§5.3).
#[derive(Debug, Clone, Copy)]
pub struct Permute3 {
    /// Output-axis → input-axis mapping.
    pub perm: [usize; 3],
}

impl Permute3 {
    /// The inverse permutation.
    fn inverse(&self) -> [usize; 3] {
        let mut inv = [0usize; 3];
        for (out_axis, &in_axis) in self.perm.iter().enumerate() {
            inv[in_axis] = out_axis;
        }
        inv
    }
}

impl Operator for Permute3 {
    fn name(&self) -> &str {
        "permute3"
    }
    fn category(&self) -> KernelCategory {
        KernelCategory::Transpose
    }
    fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        let s = inputs[0];
        if s.rank() != 3 {
            return Err(op_err("permute3", format!("needs rank 3, got {s}")));
        }
        let d = s.dims();
        Ok(Shape::d3(d[self.perm[0]], d[self.perm[1]], d[self.perm[2]]))
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<(Tensor, Vec<Tensor>)> {
        Ok((inputs[0].permute3(self.perm)?, Vec::new()))
    }
    fn backward(
        &self,
        _inputs: &[Option<&Tensor>],
        _output: Option<&Tensor>,
        _saved: &[Tensor],
        dy: &Tensor,
    ) -> Result<Vec<Option<Tensor>>> {
        Ok(vec![Some(dy.permute3(self.inverse())?)])
    }
    fn stash(&self) -> StashNeeds {
        StashNeeds::NONE
    }
    fn forward_launches(&self, _i: &[&Shape], o: &Shape) -> Vec<KernelLaunch> {
        vec![KernelLaunch::kernel(
            "permute3_fwd",
            KernelCategory::Transpose,
            KernelCost::elementwise(o.num_elements(), 2),
        )]
    }
    fn backward_launches(&self, _i: &[&Shape], o: &Shape) -> Vec<KernelLaunch> {
        vec![KernelLaunch::kernel(
            "permute3_bwd",
            KernelCategory::Transpose,
            KernelCost::elementwise(o.num_elements(), 2),
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_last_dim_round_trip() {
        let x = Tensor::from_fn(Shape::d2(2, 6), |i| i as f32);
        let op = SliceLastDim::new(2, 5);
        let (y, _) = op.forward(&[&x]).unwrap();
        assert_eq!(y.shape(), &Shape::d2(2, 3));
        assert_eq!(y.data(), &[2., 3., 4., 8., 9., 10.]);
        let dy = Tensor::full(Shape::d2(2, 3), 1.0);
        let dx = op.backward(&[Some(&x)], None, &[], &dy).unwrap();
        let dx = dx[0].as_ref().unwrap();
        assert_eq!(dx.get(&[0, 0]).unwrap(), 0.0);
        assert_eq!(dx.get(&[0, 3]).unwrap(), 1.0);
        assert_eq!(dx.get(&[1, 5]).unwrap(), 0.0);
        assert!(SliceLastDim::new(2, 7).infer_shape(&[x.shape()]).is_err());
    }

    #[test]
    fn concat2_round_trip() {
        let a = Tensor::from_fn(Shape::d2(2, 2), |i| i as f32);
        let b = Tensor::from_fn(Shape::d2(2, 3), |i| 10.0 + i as f32);
        let (y, _) = Concat2LastDim.forward(&[&a, &b]).unwrap();
        assert_eq!(y.shape(), &Shape::d2(2, 5));
        assert_eq!(y.data(), &[0., 1., 10., 11., 12., 2., 3., 13., 14., 15.]);
        let grads = Concat2LastDim
            .backward(&[Some(&a), Some(&b)], None, &[], &y)
            .unwrap();
        assert_eq!(grads[0].as_ref().unwrap().data(), a.data());
        assert_eq!(grads[1].as_ref().unwrap().data(), b.data());
    }

    #[test]
    fn slice_axis0_and_stack_are_inverse() {
        let x = Tensor::from_fn(Shape::d3(3, 2, 2), |i| i as f32);
        let steps: Vec<Tensor> = (0..3)
            .map(|t| SliceAxis0 { index: t }.forward(&[&x]).unwrap().0)
            .collect();
        let refs: Vec<&Tensor> = steps.iter().collect();
        let (restacked, _) = StackAxis0.forward(&refs).unwrap();
        assert_eq!(restacked, x);
    }

    #[test]
    fn slice_axis0_backward_pads() {
        let x = Tensor::zeros(Shape::d3(3, 2, 2));
        let dy = Tensor::full(Shape::d2(2, 2), 2.0);
        let dx = SliceAxis0 { index: 1 }
            .backward(&[Some(&x)], None, &[], &dy)
            .unwrap();
        let dx = dx[0].as_ref().unwrap();
        assert_eq!(dx.index_axis0(0).unwrap().sum(), 0.0);
        assert_eq!(dx.index_axis0(1).unwrap().sum(), 8.0);
    }

    #[test]
    fn stack_rejects_ragged() {
        let a = Shape::d2(2, 2);
        let b = Shape::d2(2, 3);
        assert!(StackAxis0.infer_shape(&[&a, &b]).is_err());
        assert!(StackAxis0.infer_shape(&[]).is_err());
    }

    #[test]
    fn permute3_backward_is_inverse() {
        let x = Tensor::from_fn(Shape::d3(2, 3, 4), |i| i as f32);
        let op = Permute3 { perm: [2, 0, 1] };
        let (y, _) = op.forward(&[&x]).unwrap();
        assert_eq!(y.shape(), &Shape::d3(4, 2, 3));
        let dx = op.backward(&[None], None, &[], &y).unwrap();
        assert_eq!(dx[0].as_ref().unwrap(), &x);
    }
}
