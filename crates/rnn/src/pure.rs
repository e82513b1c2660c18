//! Pure-LSTM benchmark driver: forward/backward simulated runtimes for one
//! backend and hyperparameter point — the engine behind Figure 20 and the
//! autotuner.

use crate::backend::{LstmBackend, LstmStack};
use echo_device::{DeviceSim, DeviceSpec};
use echo_graph::{Executor, Graph, Result, StashPlan};
use echo_memory::{DeviceMemory, LayerKind};
use echo_ops::MeanAll;
use echo_tensor::{Shape, Tensor};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-op dispatch cost of MXNet's C++ engine (scheduling, dependency
/// tracking) — applies to every executed operator regardless of frontend.
pub const CPP_OP_OVERHEAD_NS: u64 = 4_000;

/// One pure-LSTM configuration (paper §6.3: the Cartesian product of
/// batch, hidden, layers with `T = 50`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PureLstmConfig {
    /// Backend under test.
    pub backend: LstmBackend,
    /// Batch size.
    pub batch: usize,
    /// Hidden dimension (also used as the input dimension).
    pub hidden: usize,
    /// Number of stacked layers.
    pub layers: usize,
    /// Sequence length.
    pub seq_len: usize,
}

impl PureLstmConfig {
    /// A configuration with the paper's fixed `T = 50`.
    pub fn new(backend: LstmBackend, batch: usize, hidden: usize, layers: usize) -> Self {
        PureLstmConfig {
            backend,
            batch,
            hidden,
            layers,
            seq_len: 50,
        }
    }
}

/// Simulated `(forward_ns, backward_ns)` for one configuration on `spec`.
///
/// The model is a bare LSTM stack with a trivial scalar loss (no
/// embedding/attention/output layers), matching the paper's §6.3
/// microbenchmark. Nothing is computed: each pass is a projection of its
/// plan onto the simulated device, so a full sweep runs in milliseconds.
///
/// # Errors
///
/// Propagates graph-execution errors.
pub fn pure_lstm_times(cfg: &PureLstmConfig, spec: &DeviceSpec) -> Result<(u64, u64)> {
    let mut g = Graph::new();
    let x = g.input("x", LayerKind::Rnn);
    let stack = LstmStack::build(
        &mut g,
        cfg.backend,
        x,
        cfg.seq_len,
        cfg.hidden,
        cfg.hidden,
        cfg.layers,
        "rnn",
        LayerKind::Rnn,
    );
    let loss = g.apply("loss", Arc::new(MeanAll), &[stack.output], LayerKind::Other);
    let graph = Arc::new(g);

    let mut bindings = HashMap::new();
    bindings.insert(
        x,
        Tensor::zeros(Shape::d3(cfg.seq_len, cfg.batch, cfg.hidden)),
    );
    stack.add_zero_state_bindings(cfg.batch, &mut bindings);

    let mem = DeviceMemory::with_overhead_model(64 << 30, 0, 0.0);
    let mut exec = Executor::new(graph, StashPlan::stash_all(), mem);
    stack.bind_param_shapes(&mut exec)?;
    let mut sim = DeviceSim::new(spec.clone());
    sim.set_record_trace(false);
    sim.set_op_overhead_ns(CPP_OP_OVERHEAD_NS);
    // Forward-only pass, then a full training iteration on a reset clock.
    exec.project(&bindings, &[stack.output], None, Some(&mut sim))?;
    sim.synchronize();
    let fwd_ns = sim.elapsed_ns();
    sim.reset();
    exec.project(&bindings, &[loss], Some(loss), Some(&mut sim))?;
    sim.synchronize();
    let total_ns = sim.elapsed_ns();

    Ok((fwd_ns, total_ns.saturating_sub(fwd_ns)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(backend: LstmBackend, b: usize, h: usize, l: usize) -> (u64, u64) {
        let mut cfg = PureLstmConfig::new(backend, b, h, l);
        cfg.seq_len = 20; // keep tests fast
        pure_lstm_times(&cfg, &DeviceSpec::titan_xp()).unwrap()
    }

    /// `(forward_ns, backward_ns)` of the two configurations below, frozen
    /// at the last commit that walked the interpreter without values to
    /// drive the simulator; the plan projection must reproduce them.
    const WALKED_DEFAULT_TIMES: (u64, u64) = (2_279_263, 2_774_345);
    const WALKED_ECORNN_TIMES: (u64, u64) = (801_282, 1_455_959);

    #[test]
    fn ecornn_beats_default_substantially() {
        // Paper: up to 3x over Default on pure LSTM.
        let (d_fwd, d_bwd) = times(LstmBackend::Default, 64, 512, 1);
        let (e_fwd, e_bwd) = times(LstmBackend::EcoRnn, 64, 512, 1);
        assert_eq!((d_fwd, d_bwd), WALKED_DEFAULT_TIMES);
        assert_eq!((e_fwd, e_bwd), WALKED_ECORNN_TIMES);
        let speedup = (d_fwd + d_bwd) as f64 / (e_fwd + e_bwd) as f64;
        assert!(
            speedup > 1.5,
            "EcoRNN speedup over Default only {speedup:.2}x"
        );
    }

    #[test]
    fn ecornn_beats_cudnn_at_one_layer() {
        // Paper: ~1.5x over cuDNN on single-layer pure LSTM.
        let (c_fwd, c_bwd) = times(LstmBackend::CuDnn, 64, 512, 1);
        let (e_fwd, e_bwd) = times(LstmBackend::EcoRnn, 64, 512, 1);
        let speedup = (c_fwd + c_bwd) as f64 / (e_fwd + e_bwd) as f64;
        assert!(
            speedup > 1.05,
            "EcoRNN speedup over CuDNN only {speedup:.2}x"
        );
    }

    #[test]
    fn cudnn_catches_up_at_four_layers() {
        // Paper: in a few multi-layer cases cuDNN is within 20% or better.
        let ratio = |l: usize| {
            let (c_fwd, c_bwd) = times(LstmBackend::CuDnn, 32, 256, l);
            let (e_fwd, e_bwd) = times(LstmBackend::EcoRnn, 32, 256, l);
            (c_fwd + c_bwd) as f64 / (e_fwd + e_bwd) as f64
        };
        let r1 = ratio(1);
        let r4 = ratio(4);
        assert!(
            r4 < r1,
            "cuDNN's relative position must improve with layers: L1 {r1:.2} L4 {r4:.2}"
        );
    }

    #[test]
    fn backward_costs_more_than_forward() {
        let (fwd, bwd) = times(LstmBackend::CuDnn, 64, 512, 1);
        assert!(bwd > fwd / 2, "bwd {bwd} vs fwd {fwd}");
    }
}
