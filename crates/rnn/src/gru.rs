//! A fused GRU step — the paper's §4.2 generalization target: the data
//! layout optimization applies to any cell whose fully-connected layers
//! are skewed, and Figure 9(b) demonstrates it on GRU-shaped GEMMs
//! (`W [3H x H]`, 3 gates instead of 4).
//!
//! Gate order follows cuDNN: reset `r`, update `z`, candidate `n`:
//!
//! ```text
//! r = σ(x·Wxᵣ + h·Whᵣ + bᵣ)
//! z = σ(x·Wx_z + h·Wh_z + b_z)
//! n = tanh(x·Wxₙ + r ⊙ (h·Whₙ + bₙ))
//! h' = (1 − z) ⊙ n + z ⊙ h
//! ```

use echo_cachesim::TiledGemmSpec;
use echo_device::{KernelCategory, KernelCost};
use echo_graph::{GraphError, KernelLaunch, Operator, Result, StashNeeds};
use echo_tensor::{kernels, reduce, MatrixLayout, Shape, Tensor};

/// One fused GRU step.
///
/// Inputs: `x [B x In], h_prev [B x H], Wx [3H x In], Wh [3H x H],
/// b [6H]` (the input-side biases in `b[0..3H]`, the hidden-side biases in
/// `b[3H..6H]`, matching cuDNN's double-bias layout). Output: the new
/// hidden state `[B x H]`.
#[derive(Debug, Clone)]
pub struct GruStep {
    hidden: usize,
    layout: MatrixLayout,
}

impl GruStep {
    /// A GRU step with the framework-default row-major GEMMs.
    pub fn new(hidden: usize) -> Self {
        GruStep {
            hidden,
            layout: MatrixLayout::RowMajor,
        }
    }

    /// Uses the EcoRNN column-major GEMM formulation (builder style).
    #[must_use]
    pub fn with_layout(mut self, layout: MatrixLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Hidden dimension.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    fn dims(&self, inputs: &[&Shape]) -> Result<(usize, usize)> {
        if inputs.len() != 5 {
            return Err(GraphError::Operator {
                op: "gru_step".to_string(),
                message: format!("expected 5 inputs, got {}", inputs.len()),
            });
        }
        let (b, in_dim) = inputs[0].as_matrix();
        let (bh, h) = inputs[1].as_matrix();
        if bh != b || h != self.hidden || inputs[4].num_elements() != 6 * self.hidden {
            return Err(GraphError::Operator {
                op: "gru_step".to_string(),
                message: format!(
                    "inconsistent shapes: x {}, h {}, b {}",
                    inputs[0], inputs[1], inputs[4]
                ),
            });
        }
        Ok((b, in_dim))
    }

    /// Numeric forward; returns `(h_new, saved)` where `saved` packs
    /// `[r, z, n, hh_n]` (`hh_n` = the pre-reset hidden contribution of
    /// the candidate gate, needed by backward).
    fn step(
        &self,
        x: &Tensor,
        h_prev: &Tensor,
        wx: &Tensor,
        wh: &Tensor,
        bias: &Tensor,
    ) -> Result<(Tensor, Tensor)> {
        let h = self.hidden;
        let batch = x.shape().as_matrix().0;
        let mut gx = x.matmul(wx, false, true)?; // [B x 3H]
        let mut gh = h_prev.matmul(wh, false, true)?; // [B x 3H]
        let bx = Tensor::from_vec(Shape::d1(3 * h), bias.data()[..3 * h].to_vec())?;
        let bh = Tensor::from_vec(Shape::d1(3 * h), bias.data()[3 * h..].to_vec())?;
        reduce::add_bias_rows(&mut gx, &bx)?;
        reduce::add_bias_rows(&mut gh, &bh)?;

        let mut h_new = Tensor::zeros(Shape::d2(batch, h));
        let mut saved = Tensor::zeros(Shape::d3(4, batch, h));
        for bi in 0..batch {
            for hi in 0..h {
                let row = bi * 3 * h;
                let r = kernels::sigmoid(gx.data()[row + hi] + gh.data()[row + hi]);
                let z = kernels::sigmoid(gx.data()[row + h + hi] + gh.data()[row + h + hi]);
                let hh_n = gh.data()[row + 2 * h + hi];
                let n = (gx.data()[row + 2 * h + hi] + r * hh_n).tanh();
                let hp = h_prev.data()[bi * h + hi];
                h_new.data_mut()[bi * h + hi] = (1.0 - z) * n + z * hp;
                let base = bi * h + hi;
                saved.data_mut()[base] = r;
                saved.data_mut()[batch * h + base] = z;
                saved.data_mut()[2 * batch * h + base] = n;
                saved.data_mut()[3 * batch * h + base] = hh_n;
            }
        }
        Ok((h_new, saved))
    }
}

impl Operator for GruStep {
    fn name(&self) -> &str {
        "gru_step"
    }
    fn category(&self) -> KernelCategory {
        KernelCategory::FullyConnected
    }
    fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        let (b, _) = self.dims(inputs)?;
        Ok(Shape::d2(b, self.hidden))
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<(Tensor, Vec<Tensor>)> {
        let (h_new, saved) = self.step(inputs[0], inputs[1], inputs[2], inputs[3], inputs[4])?;
        Ok((h_new, vec![saved]))
    }
    fn backward(
        &self,
        inputs: &[Option<&Tensor>],
        _output: Option<&Tensor>,
        saved: &[Tensor],
        dy: &Tensor,
    ) -> Result<Vec<Option<Tensor>>> {
        let x = inputs[0].expect("gru stashes inputs");
        let h_prev = inputs[1].expect("gru stashes inputs");
        let wx = inputs[2].expect("gru stashes inputs");
        let wh = inputs[3].expect("gru stashes inputs");
        let h = self.hidden;
        let batch = x.shape().as_matrix().0;
        let s = &saved[0];
        let at = |g: usize, bi: usize, hi: usize| s.data()[g * batch * h + bi * h + hi];

        // Gradients w.r.t. the two pre-activation triples.
        let mut dgx = Tensor::zeros(Shape::d2(batch, 3 * h));
        let mut dgh = Tensor::zeros(Shape::d2(batch, 3 * h));
        let mut dh_prev = Tensor::zeros(Shape::d2(batch, h));
        for bi in 0..batch {
            for hi in 0..h {
                let (r, z, n, hh_n) = (at(0, bi, hi), at(1, bi, hi), at(2, bi, hi), at(3, bi, hi));
                let g = dy.data()[bi * h + hi];
                let hp = h_prev.data()[bi * h + hi];
                let dn = g * (1.0 - z);
                let dz = g * (hp - n);
                let dpre_n = dn * kernels::tanh_grad_from_output(n);
                let dr = dpre_n * hh_n;
                let dpre_r = dr * kernels::sigmoid_grad_from_output(r);
                let dpre_z = dz * kernels::sigmoid_grad_from_output(z);
                let row = bi * 3 * h;
                dgx.data_mut()[row + hi] = dpre_r;
                dgx.data_mut()[row + h + hi] = dpre_z;
                dgx.data_mut()[row + 2 * h + hi] = dpre_n;
                dgh.data_mut()[row + hi] = dpre_r;
                dgh.data_mut()[row + h + hi] = dpre_z;
                dgh.data_mut()[row + 2 * h + hi] = dpre_n * r;
                dh_prev.data_mut()[bi * h + hi] = g * z;
            }
        }
        let dx = dgx.matmul(wx, false, false)?;
        dh_prev.axpy(1.0, &dgh.matmul(wh, false, false)?)?;
        let dwx = dgx.matmul(x, true, false)?;
        let dwh = dgh.matmul(h_prev, true, false)?;
        let dbx = reduce::sum_rows(&dgx);
        let dbh = reduce::sum_rows(&dgh);
        let db = Tensor::concat_axis0(&[&dbx, &dbh])?.reshape(Shape::d1(6 * h))?;
        Ok(vec![
            Some(dx),
            Some(dh_prev),
            Some(dwx),
            Some(dwh),
            Some(db),
        ])
    }
    fn stash(&self) -> StashNeeds {
        StashNeeds::INPUTS
    }
    fn saved_bytes(&self, inputs: &[&Shape], _output: &Shape) -> u64 {
        let Ok((b, _)) = self.dims(inputs) else {
            return 0;
        };
        (4 * b * self.hidden * 4) as u64
    }
    fn forward_launches(&self, inputs: &[&Shape], _output: &Shape) -> Vec<KernelLaunch> {
        let Ok((b, in_dim)) = self.dims(inputs) else {
            return Vec::new();
        };
        let gemm = |rows: usize, k: usize| match self.layout {
            MatrixLayout::RowMajor => TiledGemmSpec::fc_row_major(rows, k, 3 * self.hidden),
            MatrixLayout::ColMajor => TiledGemmSpec::fc_col_major(rows, k, 3 * self.hidden),
        };
        vec![
            KernelLaunch::gemm("sgemm_gru_input", gemm(b, in_dim)),
            KernelLaunch::gemm("sgemm_gru_recurrent", gemm(b, self.hidden)),
            KernelLaunch::kernel(
                "gru_pointwise",
                KernelCategory::Elementwise,
                KernelCost::elementwise(b * 3 * self.hidden, 3),
            ),
        ]
    }
    fn backward_launches(&self, inputs: &[&Shape], _output: &Shape) -> Vec<KernelLaunch> {
        let Ok((b, in_dim)) = self.dims(inputs) else {
            return Vec::new();
        };
        vec![
            KernelLaunch::kernel(
                "gru_pointwise_bwd",
                KernelCategory::Elementwise,
                KernelCost::elementwise(b * 3 * self.hidden, 4),
            ),
            KernelLaunch::gemm(
                "sgemm_gru_dx",
                TiledGemmSpec::new(b, in_dim, 3 * self.hidden),
            ),
            KernelLaunch::gemm(
                "sgemm_gru_dh",
                TiledGemmSpec::new(b, self.hidden, 3 * self.hidden),
            ),
            KernelLaunch::gemm(
                "sgemm_gru_dw",
                TiledGemmSpec::new(3 * self.hidden, in_dim + self.hidden, b),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_tensor::init::{seeded_rng, uniform};

    fn setup(b: usize, h: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = seeded_rng(seed);
        vec![
            uniform(Shape::d2(b, h), 1.0, &mut rng),     // x
            uniform(Shape::d2(b, h), 1.0, &mut rng),     // h_prev
            uniform(Shape::d2(3 * h, h), 0.6, &mut rng), // wx
            uniform(Shape::d2(3 * h, h), 0.6, &mut rng), // wh
            uniform(Shape::d1(6 * h), 0.2, &mut rng),    // b
        ]
    }

    #[test]
    fn update_gate_interpolates() {
        // With z -> 1 (huge update bias on both sides), h' ≈ h_prev.
        let (b, h) = (2, 3);
        let mut ins = setup(b, h, 1);
        for hi in 0..h {
            ins[4].data_mut()[h + hi] = 30.0; // input-side z bias
            ins[4].data_mut()[4 * h + hi] = 30.0; // hidden-side z bias
        }
        let refs: Vec<&Tensor> = ins.iter().collect();
        let (h_new, _) = GruStep::new(h).forward(&refs).unwrap();
        assert!(h_new.approx_eq(&ins[1], 1e-4).unwrap());
    }

    #[test]
    fn output_is_bounded_interpolation() {
        let ins = setup(3, 4, 2);
        let refs: Vec<&Tensor> = ins.iter().collect();
        let (h_new, saved) = GruStep::new(4).forward(&refs).unwrap();
        assert_eq!(saved[0].shape(), &Shape::d3(4, 3, 4));
        // h' is an interpolation of n in (-1,1) and h_prev.
        for (v, &hp) in h_new.data().iter().zip(ins[1].data()) {
            assert!(v.abs() <= hp.abs().max(1.0) + 1e-5);
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let (b, h) = (2, 2);
        let ins = setup(b, h, 3);
        let op = GruStep::new(h);
        let refs: Vec<&Tensor> = ins.iter().collect();
        let (out, saved) = op.forward(&refs).unwrap();
        let dy = Tensor::full(out.shape().clone(), 1.0);
        let opt: Vec<Option<&Tensor>> = ins.iter().map(Some).collect();
        let grads = op.backward(&opt, Some(&out), &saved, &dy).unwrap();
        let loss = |ins: &[Tensor]| {
            let refs: Vec<&Tensor> = ins.iter().collect();
            op.forward(&refs).unwrap().0.sum() as f32
        };
        let eps = 1e-3;
        for slot in 0..ins.len() {
            let g = grads[slot].as_ref().unwrap();
            for idx in 0..ins[slot].len() {
                let mut plus = ins.to_vec();
                plus[slot].data_mut()[idx] += eps;
                let mut minus = ins.to_vec();
                minus[slot].data_mut()[idx] -= eps;
                let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
                assert!(
                    (g.data()[idx] - fd).abs() < 2e-2,
                    "slot {slot} idx {idx}: {} vs {fd}",
                    g.data()[idx]
                );
            }
        }
    }

    #[test]
    fn layout_changes_launches_only() {
        let ins = setup(2, 3, 4);
        let shapes: Vec<&Shape> = ins.iter().map(|t| t.shape()).collect();
        let row = GruStep::new(3);
        let col = GruStep::new(3).with_layout(MatrixLayout::ColMajor);
        let out = row.infer_shape(&shapes).unwrap();
        assert_ne!(
            row.forward_launches(&shapes, &out),
            col.forward_launches(&shapes, &out)
        );
        let refs: Vec<&Tensor> = ins.iter().collect();
        assert_eq!(row.forward(&refs).unwrap().0, col.forward(&refs).unwrap().0);
    }
}
