//! Fused full-sequence LSTM operators: the cuDNN-mirroring stack and the
//! EcoRNN layout-optimized layer.

use crate::cell::{lstm_step_backward, lstm_step_forward};
use echo_cachesim::{MatLayout, TiledGemmSpec};
use echo_device::{KernelCategory, KernelCost};
use echo_graph::{GraphError, KernelLaunch, Operator, Result, StashNeeds};
use echo_tensor::{Shape, Tensor};

fn op_err(op: &str, message: String) -> GraphError {
    GraphError::Operator {
        op: op.to_string(),
        message,
    }
}

/// Extra reserved f32 elements per `T·B·H` cell cuDNN's RNN path
/// allocates beyond the mathematically required gates+cells (algorithm
/// workspace, dropout state, weight/IO repacking — cuDNN sizes these
/// conservatively). Calibrated so the NMT-level memory comparison
/// reproduces Figure 15's sign (cuDNN ≈ +7% over Default); see
/// EXPERIMENTS.md for the calibration note.
pub const CUDNN_EXTRA_RESERVE_ELEMS: usize = 40;

fn gemm_input(rows: usize, in_dim: usize, hidden: usize, eco: bool) -> TiledGemmSpec {
    if eco {
        TiledGemmSpec::fc_col_major(rows, in_dim, 4 * hidden)
    } else {
        TiledGemmSpec::fc_row_major(rows, in_dim, 4 * hidden)
    }
}

fn gemm_recurrent(batch: usize, hidden: usize, eco: bool) -> TiledGemmSpec {
    gemm_input(batch, hidden, hidden, eco)
}

/// Per-step `dh_prev = dpre · Wh`: an NN GEMM in both layouts (the
/// backward pointwise kernel is free to emit `dpre` row-major).
fn gemm_dx_step(batch: usize, hidden: usize, eco: bool) -> TiledGemmSpec {
    let _ = eco;
    TiledGemmSpec::new(batch, hidden, 4 * hidden)
}

/// Batched `dX = dpre · Wx` over the whole sequence: NN in both layouts.
fn gemm_dx(rows: usize, in_dim: usize, hidden: usize, eco: bool) -> TiledGemmSpec {
    let _ = eco;
    TiledGemmSpec::new(rows, in_dim, 4 * hidden)
}

/// Weight gradient: `dW = dpreᵀ · X`. This is where the `[T, H, B]` layout
/// pays off in the backward pass: `X` is already stored transposed, so
/// `dWᵀ = Xᵀ · dpre` streams every operand contiguously (NN), while the
/// framework-default layout is stuck with a TN GEMM that scans `dpreᵀ`
/// against its storage order.
fn gemm_dw(rows: usize, in_dim: usize, hidden: usize, eco: bool) -> TiledGemmSpec {
    if eco {
        TiledGemmSpec::new(in_dim, 4 * hidden, rows)
    } else {
        TiledGemmSpec {
            layout_a: MatLayout::ColMajor,
            ..TiledGemmSpec::new(4 * hidden, in_dim, rows)
        }
    }
}

/// Numeric forward over a whole sequence for one layer. Returns
/// `(h_seq, gates_seq, cells_seq)`.
fn layer_forward(
    x_seq: &Tensor,
    wx: &Tensor,
    wh: &Tensor,
    b: &Tensor,
    hidden: usize,
) -> Result<(Tensor, Tensor, Tensor)> {
    let t = x_seq.shape().dim(0);
    let batch = x_seq.shape().dim(1);
    let mut h_seq = Tensor::zeros(Shape::d3(t, batch, hidden));
    let mut gates_seq = Tensor::zeros(Shape::d3(t, batch, 4 * hidden));
    let mut cells_seq = Tensor::zeros(Shape::d3(t, batch, hidden));
    let mut h = Tensor::zeros(Shape::d2(batch, hidden));
    let mut c = Tensor::zeros(Shape::d2(batch, hidden));
    for ti in 0..t {
        let x_t = x_seq.index_axis0(ti)?;
        let (h_new, c_new, gates) = lstm_step_forward(&x_t, &h, &c, wx, wh, b)?;
        h_seq.set_axis0(ti, &h_new)?;
        gates_seq.set_axis0(ti, &gates)?;
        cells_seq.set_axis0(ti, &c_new)?;
        h = h_new;
        c = c_new;
    }
    Ok((h_seq, gates_seq, cells_seq))
}

/// Numeric BPTT over a whole sequence for one layer. Returns
/// `(dx_seq, dwx, dwh, db)`.
#[allow(clippy::too_many_arguments)] // mirrors the BPTT math; grouping would add noise
fn layer_backward(
    x_seq: &Tensor,
    h_seq: &Tensor,
    gates_seq: &Tensor,
    cells_seq: &Tensor,
    wx: &Tensor,
    wh: &Tensor,
    dy: &Tensor,
    hidden: usize,
) -> Result<(Tensor, Tensor, Tensor, Tensor)> {
    let t = x_seq.shape().dim(0);
    let batch = x_seq.shape().dim(1);
    let mut dx_seq = Tensor::zeros(x_seq.shape().clone());
    let mut dwx = Tensor::zeros(wx.shape().clone());
    let mut dwh = Tensor::zeros(wh.shape().clone());
    let mut db = Tensor::zeros(Shape::d1(4 * hidden));
    let zeros_bh = Tensor::zeros(Shape::d2(batch, hidden));
    let mut carry_dh = Tensor::zeros(Shape::d2(batch, hidden));
    let mut carry_dc = Tensor::zeros(Shape::d2(batch, hidden));
    for ti in (0..t).rev() {
        let x_t = x_seq.index_axis0(ti)?;
        let h_prev = if ti > 0 {
            h_seq.index_axis0(ti - 1)?
        } else {
            zeros_bh.clone()
        };
        let c_prev = if ti > 0 {
            cells_seq.index_axis0(ti - 1)?
        } else {
            zeros_bh.clone()
        };
        let gates = gates_seq.index_axis0(ti)?;
        let c_new = cells_seq.index_axis0(ti)?;
        let mut dh = dy.index_axis0(ti)?;
        dh.axpy(1.0, &carry_dh)?;
        let grads = lstm_step_backward(
            &x_t, &h_prev, &c_prev, wx, wh, &gates, &c_new, &dh, &carry_dc,
        )?;
        dx_seq.set_axis0(ti, &grads.dx)?;
        dwx.axpy(1.0, &grads.dwx)?;
        dwh.axpy(1.0, &grads.dwh)?;
        db.axpy(1.0, &grads.db)?;
        carry_dh = grads.dh_prev;
        carry_dc = grads.dc_prev;
    }
    Ok((dx_seq, dwx, dwh, db))
}

/// One fused LSTM layer: `[T, B, In] → [T, B, H]` as a single graph node,
/// with EcoRNN's `[T, H, B]` data layout optionally applied to its GEMMs.
///
/// Inputs: `x_seq, Wx [4H x In], Wh [4H x H], b [4H]`. The forward pass
/// launches one batched input GEMM, then one recurrent GEMM and one fused
/// pointwise kernel per step — the structure cuDNN's (and Appleyard's)
/// fused LSTM uses, which eliminates the Default backend's launch storm.
#[derive(Debug, Clone)]
pub struct FusedLstmLayer {
    hidden: usize,
    eco_layout: bool,
}

impl FusedLstmLayer {
    /// A fused layer using the framework-default row-major layout.
    pub fn new(hidden: usize) -> Self {
        FusedLstmLayer {
            hidden,
            eco_layout: false,
        }
    }

    /// A fused layer using EcoRNN's `[T, H, B]` layout (builder style).
    #[must_use]
    pub fn with_eco_layout(mut self) -> Self {
        self.eco_layout = true;
        self
    }

    /// Hidden dimension.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    fn seq_dims(&self, x: &Shape) -> Result<(usize, usize, usize)> {
        if x.rank() != 3 {
            return Err(op_err("fused_lstm", format!("x must be [T,B,In], got {x}")));
        }
        Ok((x.dim(0), x.dim(1), x.dim(2)))
    }
}

impl Operator for FusedLstmLayer {
    fn name(&self) -> &str {
        if self.eco_layout {
            "ecornn_lstm_layer"
        } else {
            "fused_lstm_layer"
        }
    }
    fn category(&self) -> KernelCategory {
        KernelCategory::FullyConnected
    }
    fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        let (t, b, in_dim) = self.seq_dims(inputs[0])?;
        let (o, win) = inputs[1].as_matrix();
        if o != 4 * self.hidden || win != in_dim {
            return Err(op_err(
                "fused_lstm",
                format!("Wx {} incompatible with input {}", inputs[1], inputs[0]),
            ));
        }
        Ok(Shape::d3(t, b, self.hidden))
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<(Tensor, Vec<Tensor>)> {
        let (h_seq, gates, cells) =
            layer_forward(inputs[0], inputs[1], inputs[2], inputs[3], self.hidden)?;
        Ok((h_seq, vec![gates, cells]))
    }
    fn backward(
        &self,
        inputs: &[Option<&Tensor>],
        output: Option<&Tensor>,
        saved: &[Tensor],
        dy: &Tensor,
    ) -> Result<Vec<Option<Tensor>>> {
        let x_seq = inputs[0].expect("fused lstm stashes inputs");
        let wx = inputs[1].expect("fused lstm stashes inputs");
        let wh = inputs[2].expect("fused lstm stashes inputs");
        let h_seq = output.expect("fused lstm stashes its output");
        let (dx, dwx, dwh, db) =
            layer_backward(x_seq, h_seq, &saved[0], &saved[1], wx, wh, dy, self.hidden)?;
        Ok(vec![Some(dx), Some(dwx), Some(dwh), Some(db)])
    }
    fn stash(&self) -> StashNeeds {
        StashNeeds::BOTH
    }
    fn saved_bytes(&self, inputs: &[&Shape], _output: &Shape) -> u64 {
        let Ok((t, b, _)) = self.seq_dims(inputs[0]) else {
            return 0;
        };
        // gates [T,B,4H] + cells [T,B,H]
        (t * b * 5 * self.hidden * 4) as u64
    }
    fn forward_launches(&self, inputs: &[&Shape], _output: &Shape) -> Vec<KernelLaunch> {
        let Ok((t, b, in_dim)) = self.seq_dims(inputs[0]) else {
            return Vec::new();
        };
        let mut launches = Vec::new();
        if self.eco_layout {
            launches.push(KernelLaunch::kernel(
                "lstm_layout_tbh_to_thb",
                KernelCategory::Transpose,
                KernelCost::elementwise(t * b * in_dim, 2),
            ));
        }
        launches.push(KernelLaunch::gemm(
            "sgemm_lstm_input",
            gemm_input(t * b, in_dim, self.hidden, self.eco_layout),
        ));
        for _ in 0..t {
            launches.push(KernelLaunch::gemm(
                "sgemm_lstm_recurrent",
                gemm_recurrent(b, self.hidden, self.eco_layout),
            ));
            launches.push(KernelLaunch::kernel(
                "lstm_pointwise_fused",
                KernelCategory::Elementwise,
                KernelCost::elementwise(b * 4 * self.hidden, 3),
            ));
        }
        launches
    }
    fn backward_launches(&self, inputs: &[&Shape], _output: &Shape) -> Vec<KernelLaunch> {
        let Ok((t, b, in_dim)) = self.seq_dims(inputs[0]) else {
            return Vec::new();
        };
        let mut launches = Vec::new();
        for _ in 0..t {
            launches.push(KernelLaunch::kernel(
                "lstm_pointwise_fused_bwd",
                KernelCategory::Elementwise,
                KernelCost::elementwise(b * 4 * self.hidden, 4),
            ));
            launches.push(KernelLaunch::gemm(
                "sgemm_lstm_dh",
                gemm_dx_step(b, self.hidden, self.eco_layout),
            ));
        }
        // Batched over the whole sequence.
        launches.push(KernelLaunch::gemm(
            "sgemm_lstm_dx",
            gemm_dx(t * b, in_dim, self.hidden, self.eco_layout),
        ));
        launches.push(KernelLaunch::gemm(
            "sgemm_lstm_dwx",
            gemm_dw(t * b, in_dim, self.hidden, self.eco_layout),
        ));
        launches.push(KernelLaunch::gemm(
            "sgemm_lstm_dwh",
            gemm_dw(t * b, self.hidden, self.hidden, self.eco_layout),
        ));
        launches
    }
}

/// A multi-layer cuDNN-style LSTM stack as a single graph node, with
/// Appleyard-style wavefront overlap across layers.
///
/// Inputs: `x_seq, (Wx, Wh, b) × layers`. Output: the last layer's hidden
/// sequence. On the device plane the stack executes `T + L − 1` wavefronts;
/// each wavefront fuses the recurrent GEMMs of all active layers into one
/// larger GEMM — fewer, bigger launches, which is how cuDNN stays
/// competitive at 4 layers (Figure 20) despite its row-major layout.
#[derive(Debug, Clone)]
pub struct CudnnLstmStack {
    hidden: usize,
    layers: usize,
}

impl CudnnLstmStack {
    /// A cuDNN-style stack of `layers` LSTM layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0`.
    pub fn new(hidden: usize, layers: usize) -> Self {
        assert!(layers > 0, "stack needs at least one layer");
        CudnnLstmStack { hidden, layers }
    }

    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.layers
    }

    fn seq_dims(&self, x: &Shape) -> Result<(usize, usize, usize)> {
        if x.rank() != 3 {
            return Err(op_err("cudnn_lstm", format!("x must be [T,B,In], got {x}")));
        }
        Ok((x.dim(0), x.dim(1), x.dim(2)))
    }
}

impl Operator for CudnnLstmStack {
    fn name(&self) -> &str {
        "cudnn_lstm_stack"
    }
    fn category(&self) -> KernelCategory {
        KernelCategory::FullyConnected
    }
    fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        if inputs.len() != 1 + 3 * self.layers {
            return Err(op_err(
                "cudnn_lstm",
                format!(
                    "expected {} inputs (x + 3 per layer), got {}",
                    1 + 3 * self.layers,
                    inputs.len()
                ),
            ));
        }
        let (t, b, _) = self.seq_dims(inputs[0])?;
        Ok(Shape::d3(t, b, self.hidden))
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<(Tensor, Vec<Tensor>)> {
        let mut saved = Vec::new();
        let mut x = inputs[0].clone();
        for l in 0..self.layers {
            let (h_seq, gates, cells) = layer_forward(
                &x,
                inputs[1 + 3 * l],
                inputs[2 + 3 * l],
                inputs[3 + 3 * l],
                self.hidden,
            )?;
            saved.push(gates);
            saved.push(cells);
            if l + 1 < self.layers {
                // Inter-layer activations are part of cuDNN's reserve.
                saved.push(h_seq.clone());
            }
            x = h_seq;
        }
        Ok((x, saved))
    }
    fn backward(
        &self,
        inputs: &[Option<&Tensor>],
        output: Option<&Tensor>,
        saved: &[Tensor],
        dy: &Tensor,
    ) -> Result<Vec<Option<Tensor>>> {
        let x0 = inputs[0].expect("cudnn lstm stashes inputs");
        let mut grads: Vec<Option<Tensor>> = vec![None; 1 + 3 * self.layers];
        let mut dy = dy.clone();
        for l in (0..self.layers).rev() {
            let gates = &saved[idx_gates(l, self.layers)];
            let cells = &saved[idx_cells(l, self.layers)];
            let h_seq_owned;
            let h_seq: &Tensor = if l + 1 < self.layers {
                &saved[idx_hidden(l, self.layers)]
            } else {
                h_seq_owned = output.expect("cudnn lstm stashes output").clone();
                &h_seq_owned
            };
            let x_l_owned;
            let x_l: &Tensor = if l == 0 {
                x0
            } else {
                x_l_owned = saved[idx_hidden(l - 1, self.layers)].clone();
                &x_l_owned
            };
            let wx = inputs[1 + 3 * l].expect("stash inputs");
            let wh = inputs[2 + 3 * l].expect("stash inputs");
            let (dx, dwx, dwh, db) =
                layer_backward(x_l, h_seq, gates, cells, wx, wh, &dy, self.hidden)?;
            grads[1 + 3 * l] = Some(dwx);
            grads[2 + 3 * l] = Some(dwh);
            grads[3 + 3 * l] = Some(db);
            dy = dx;
        }
        grads[0] = Some(dy);
        Ok(grads)
    }
    fn stash(&self) -> StashNeeds {
        StashNeeds::BOTH
    }
    fn saved_bytes(&self, inputs: &[&Shape], _output: &Shape) -> u64 {
        let Ok((t, b, _)) = self.seq_dims(inputs[0]) else {
            return 0;
        };
        let per_layer_math = t * b * 5 * self.hidden; // gates + cells
        let inter = t * b * self.hidden * (self.layers - 1);
        let extra = t * b * self.hidden * CUDNN_EXTRA_RESERVE_ELEMS * self.layers;
        ((per_layer_math * self.layers + inter + extra) * 4) as u64
    }
    fn forward_launches(&self, inputs: &[&Shape], _output: &Shape) -> Vec<KernelLaunch> {
        let Ok((t, b, in_dim)) = self.seq_dims(inputs[0]) else {
            return Vec::new();
        };
        let mut launches = vec![KernelLaunch::gemm(
            "sgemm_cudnn_input",
            gemm_input(t * b, in_dim, self.hidden, false),
        )];
        // Wavefront schedule: at wavefront w the active layers are those
        // with 0 <= w - l < t; their recurrent GEMMs fuse into one call.
        for w in 0..(t + self.layers - 1) {
            let active = (0..self.layers).filter(|&l| w >= l && w - l < t).count();
            if active == 0 {
                continue;
            }
            launches.push(KernelLaunch::gemm(
                "sgemm_cudnn_recurrent_wave",
                gemm_recurrent(b * active, self.hidden, false),
            ));
            launches.push(KernelLaunch::kernel(
                "cudnn_lstm_pointwise",
                KernelCategory::Elementwise,
                KernelCost::elementwise(b * active * 4 * self.hidden, 3),
            ));
        }
        launches
    }
    fn backward_launches(&self, inputs: &[&Shape], _output: &Shape) -> Vec<KernelLaunch> {
        let Ok((t, b, in_dim)) = self.seq_dims(inputs[0]) else {
            return Vec::new();
        };
        let mut launches = Vec::new();
        for w in 0..(t + self.layers - 1) {
            let active = (0..self.layers).filter(|&l| w >= l && w - l < t).count();
            if active == 0 {
                continue;
            }
            launches.push(KernelLaunch::kernel(
                "cudnn_lstm_pointwise_bwd",
                KernelCategory::Elementwise,
                KernelCost::elementwise(b * active * 4 * self.hidden, 4),
            ));
            launches.push(KernelLaunch::gemm(
                "sgemm_cudnn_dh_wave",
                gemm_dx_step(b * active, self.hidden, false),
            ));
        }
        launches.push(KernelLaunch::gemm(
            "sgemm_cudnn_dx",
            gemm_dx(t * b, in_dim, self.hidden, false),
        ));
        for l in 0..self.layers {
            let dim = if l == 0 { in_dim } else { self.hidden };
            launches.push(KernelLaunch::gemm(
                "sgemm_cudnn_dwx",
                gemm_dw(t * b, dim, self.hidden, false),
            ));
            launches.push(KernelLaunch::gemm(
                "sgemm_cudnn_dwh",
                gemm_dw(t * b, self.hidden, self.hidden, false),
            ));
        }
        launches
    }
}

fn idx_gates(layer: usize, layers: usize) -> usize {
    // Layers below the last contribute 3 saved tensors, the last 2.
    let _ = layers;
    layer * 3
}

fn idx_cells(layer: usize, layers: usize) -> usize {
    let _ = layers;
    layer * 3 + 1
}

fn idx_hidden(layer: usize, layers: usize) -> usize {
    debug_assert!(layer + 1 < layers);
    layer * 3 + 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_tensor::init::{seeded_rng, uniform};

    fn layer_inputs(t: usize, b: usize, h: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = seeded_rng(seed);
        vec![
            uniform(Shape::d3(t, b, h), 1.0, &mut rng),
            uniform(Shape::d2(4 * h, h), 0.5, &mut rng),
            uniform(Shape::d2(4 * h, h), 0.5, &mut rng),
            uniform(Shape::d1(4 * h), 0.2, &mut rng),
        ]
    }

    #[test]
    fn fused_layer_matches_step_by_step() {
        let (t, b, h) = (4, 2, 3);
        let ins = layer_inputs(t, b, h, 1);
        let refs: Vec<&Tensor> = ins.iter().collect();
        let layer = FusedLstmLayer::new(h);
        let (h_seq, saved) = layer.forward(&refs).unwrap();
        assert_eq!(h_seq.shape(), &Shape::d3(t, b, h));
        assert_eq!(saved.len(), 2);

        // Manual per-step recomputation must agree.
        let mut hh = Tensor::zeros(Shape::d2(b, h));
        let mut cc = Tensor::zeros(Shape::d2(b, h));
        for ti in 0..t {
            let x_t = ins[0].index_axis0(ti).unwrap();
            let (h_new, c_new, _) =
                lstm_step_forward(&x_t, &hh, &cc, &ins[1], &ins[2], &ins[3]).unwrap();
            assert_eq!(h_seq.index_axis0(ti).unwrap(), h_new);
            hh = h_new;
            cc = c_new;
        }
    }

    #[test]
    fn fused_layer_backward_matches_finite_difference() {
        let (t, b, h) = (3, 2, 2);
        let ins = layer_inputs(t, b, h, 2);
        let refs: Vec<&Tensor> = ins.iter().collect();
        let layer = FusedLstmLayer::new(h);
        let (h_seq, saved) = layer.forward(&refs).unwrap();
        let dy = Tensor::full(h_seq.shape().clone(), 1.0);
        let opt_refs: Vec<Option<&Tensor>> = ins.iter().map(Some).collect();
        let grads = layer
            .backward(&opt_refs, Some(&h_seq), &saved, &dy)
            .unwrap();
        let loss = |ins: &[Tensor]| {
            let refs: Vec<&Tensor> = ins.iter().collect();
            layer.forward(&refs).unwrap().0.sum() as f32
        };
        let eps = 1e-3;
        for (slot, label) in [(1usize, "dwx"), (2, "dwh"), (3, "db"), (0, "dx")] {
            let g = grads[slot].as_ref().unwrap();
            for idx in (0..ins[slot].len()).step_by(3) {
                let mut plus = ins.to_vec();
                plus[slot].data_mut()[idx] += eps;
                let mut minus = ins.to_vec();
                minus[slot].data_mut()[idx] -= eps;
                let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
                assert!(
                    (g.data()[idx] - fd).abs() < 3e-2,
                    "{label}[{idx}]: {} vs {fd}",
                    g.data()[idx]
                );
            }
        }
    }

    #[test]
    fn eco_layout_changes_launches_only() {
        let (t, b, h) = (4, 2, 3);
        let ins = layer_inputs(t, b, h, 3);
        let refs: Vec<&Tensor> = ins.iter().collect();
        let plain = FusedLstmLayer::new(h);
        let eco = FusedLstmLayer::new(h).with_eco_layout();
        assert_eq!(
            plain.forward(&refs).unwrap().0,
            eco.forward(&refs).unwrap().0
        );
        let shapes: Vec<&Shape> = ins.iter().map(|t| t.shape()).collect();
        let out = plain.infer_shape(&shapes).unwrap();
        assert_ne!(
            plain.forward_launches(&shapes, &out),
            eco.forward_launches(&shapes, &out)
        );
    }

    #[test]
    fn cudnn_stack_matches_chained_fused_layers() {
        let (t, b, h, layers) = (3, 2, 3, 2);
        let mut rng = seeded_rng(4);
        let x = uniform(Shape::d3(t, b, h), 1.0, &mut rng);
        let mut params = Vec::new();
        for _ in 0..layers {
            params.push(uniform(Shape::d2(4 * h, h), 0.5, &mut rng));
            params.push(uniform(Shape::d2(4 * h, h), 0.5, &mut rng));
            params.push(uniform(Shape::d1(4 * h), 0.2, &mut rng));
        }
        let mut stack_inputs: Vec<&Tensor> = vec![&x];
        stack_inputs.extend(params.iter());
        let stack = CudnnLstmStack::new(h, layers);
        let (out_stack, saved) = stack.forward(&stack_inputs).unwrap();
        assert_eq!(saved.len(), 3 * layers - 1);

        // Chain of single fused layers.
        let layer = FusedLstmLayer::new(h);
        let (h0, _) = layer
            .forward(&[&x, &params[0], &params[1], &params[2]])
            .unwrap();
        let (h1, _) = layer
            .forward(&[&h0, &params[3], &params[4], &params[5]])
            .unwrap();
        assert!(out_stack.approx_eq(&h1, 1e-6).unwrap());
    }

    #[test]
    fn cudnn_stack_backward_matches_finite_difference() {
        let (t, b, h, layers) = (2, 1, 2, 2);
        let mut rng = seeded_rng(5);
        let x = uniform(Shape::d3(t, b, h), 1.0, &mut rng);
        let mut all: Vec<Tensor> = vec![x];
        for _ in 0..layers {
            all.push(uniform(Shape::d2(4 * h, h), 0.6, &mut rng));
            all.push(uniform(Shape::d2(4 * h, h), 0.6, &mut rng));
            all.push(uniform(Shape::d1(4 * h), 0.2, &mut rng));
        }
        let stack = CudnnLstmStack::new(h, layers);
        let refs: Vec<&Tensor> = all.iter().collect();
        let (out, saved) = stack.forward(&refs).unwrap();
        let dy = Tensor::full(out.shape().clone(), 1.0);
        let opt: Vec<Option<&Tensor>> = all.iter().map(Some).collect();
        let grads = stack.backward(&opt, Some(&out), &saved, &dy).unwrap();
        let loss = |all: &[Tensor]| {
            let refs: Vec<&Tensor> = all.iter().collect();
            stack.forward(&refs).unwrap().0.sum() as f32
        };
        let eps = 1e-3;
        for slot in 0..all.len() {
            let g = grads[slot].as_ref().unwrap();
            for idx in (0..all[slot].len()).step_by(2) {
                let mut plus = all.to_vec();
                plus[slot].data_mut()[idx] += eps;
                let mut minus = all.to_vec();
                minus[slot].data_mut()[idx] -= eps;
                let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
                assert!(
                    (g.data()[idx] - fd).abs() < 3e-2,
                    "slot {slot} idx {idx}: {} vs {fd}",
                    g.data()[idx]
                );
            }
        }
    }

    #[test]
    fn wavefront_reduces_launch_count() {
        let (t, b, h, layers) = (50, 32, 256, 4);
        let x = Shape::d3(t, b, h);
        let w = Shape::d2(4 * h, h);
        let bias = Shape::d1(4 * h);
        let mut shapes: Vec<&Shape> = vec![&x];
        for _ in 0..layers {
            shapes.push(&w);
            shapes.push(&w);
            shapes.push(&bias);
        }
        let stack = CudnnLstmStack::new(h, layers);
        let out = stack.infer_shape(&shapes).unwrap();
        let stack_launches = stack.forward_launches(&shapes, &out).len();
        // Four chained single layers would launch 4 * (1 + 2T) kernels.
        let per_layer = FusedLstmLayer::new(h)
            .forward_launches(&[&x, &w, &w, &bias], &out)
            .len();
        assert!(
            stack_launches < layers * per_layer * 2 / 3,
            "wavefront {stack_launches} vs chained {}",
            layers * per_layer
        );
    }
}
