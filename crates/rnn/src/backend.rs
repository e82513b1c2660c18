//! Backend selection and the LSTM stack builder.

use crate::fused::{CudnnLstmStack, FusedLstmLayer};
use crate::unfused::build_unfused_lstm_layer;
use echo_graph::{Executor, Graph, NodeId, Result};
use echo_memory::LayerKind;
use echo_tensor::init::lstm_uniform;
use echo_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The three LSTM implementations the paper compares (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LstmBackend {
    /// MXNet's unfused per-step implementation.
    Default,
    /// The cuDNN-mirroring fused stack.
    CuDnn,
    /// The paper's fused, layout-optimized implementation.
    EcoRnn,
}

impl LstmBackend {
    /// All backends, in the paper's comparison order.
    pub const ALL: [LstmBackend; 3] = [
        LstmBackend::Default,
        LstmBackend::CuDnn,
        LstmBackend::EcoRnn,
    ];
}

impl fmt::Display for LstmBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LstmBackend::Default => write!(f, "Default"),
            LstmBackend::CuDnn => write!(f, "CuDNN"),
            LstmBackend::EcoRnn => write!(f, "EcoRNN"),
        }
    }
}

/// Parameter node ids for one LSTM layer.
#[derive(Debug, Clone, Copy)]
pub struct LstmParams {
    /// Input-projection weight (`[4H x In]`).
    pub wx: NodeId,
    /// Recurrent weight (`[4H x H]`).
    pub wh: NodeId,
    /// Bias (`[4H]`).
    pub b: NodeId,
    /// Input feature dimension of this layer.
    pub in_dim: usize,
}

/// One layer's recurrent-state interface: the `[B x H]` input nodes the
/// initial hidden/cell state binds to and the nodes carrying the final
/// state out of the unrolled graph. A stateful decoder feeds step t's
/// `h_last`/`c_last` values back in as step t+1's `h0`/`c0` bindings.
#[derive(Debug, Clone, Copy)]
pub struct LstmStateIo {
    /// Initial hidden state input node.
    pub h0: NodeId,
    /// Initial cell state input node.
    pub c0: NodeId,
    /// Final hidden state node (h at t = T-1).
    pub h_last: NodeId,
    /// Final cell state node (c at t = T-1).
    pub c_last: NodeId,
}

/// A built LSTM stack: output node, per-layer parameters, and any
/// zero-state input nodes the backend requires.
#[derive(Debug, Clone)]
pub struct LstmStack {
    /// Backend used to build the stack.
    pub backend: LstmBackend,
    /// `[T, B, H]` output node (last layer's hidden sequence).
    pub output: NodeId,
    /// Per-layer parameter nodes.
    pub params: Vec<LstmParams>,
    /// Initial-state input nodes (Default backend only) to bind to zeros
    /// `[B x H]`.
    pub zero_states: Vec<NodeId>,
    /// Per-layer recurrent-state nodes (Default backend only; the fused
    /// backends bake zero initial states into their kernels and expose no
    /// state I/O, so they cannot drive a stateful decoder).
    pub state_io: Vec<LstmStateIo>,
    /// Hidden dimension.
    pub hidden: usize,
}

impl LstmStack {
    /// Builds a stack of `layers` LSTM layers over `x_seq` (`[T, B,
    /// in_dim]`) using `backend`.
    #[allow(clippy::too_many_arguments)] // a builder struct would obscure the one-call construction sites
    pub fn build(
        g: &mut Graph,
        backend: LstmBackend,
        x_seq: NodeId,
        seq_len: usize,
        in_dim: usize,
        hidden: usize,
        layers: usize,
        prefix: &str,
        layer_kind: LayerKind,
    ) -> LstmStack {
        match backend {
            LstmBackend::Default => {
                let mut x = x_seq;
                let mut params = Vec::new();
                let mut zero_states = Vec::new();
                let mut state_io = Vec::new();
                let mut dim = in_dim;
                for l in 0..layers {
                    let built = build_unfused_lstm_layer(
                        g,
                        x,
                        seq_len,
                        hidden,
                        &format!("{prefix}_l{l}"),
                        layer_kind,
                    );
                    params.push(LstmParams {
                        wx: built.wx,
                        wh: built.wh,
                        b: built.b,
                        in_dim: dim,
                    });
                    zero_states.push(built.h0);
                    zero_states.push(built.c0);
                    state_io.push(LstmStateIo {
                        h0: built.h0,
                        c0: built.c0,
                        h_last: built.h_last,
                        c_last: built.c_last,
                    });
                    x = built.output;
                    dim = hidden;
                }
                LstmStack {
                    backend,
                    output: x,
                    params,
                    zero_states,
                    state_io,
                    hidden,
                }
            }
            LstmBackend::CuDnn => {
                let mut params = Vec::new();
                let mut inputs = vec![x_seq];
                let mut dim = in_dim;
                for l in 0..layers {
                    let wx = g.param(format!("{prefix}_l{l}_wx"), layer_kind);
                    let wh = g.param(format!("{prefix}_l{l}_wh"), layer_kind);
                    let b = g.param(format!("{prefix}_l{l}_b"), layer_kind);
                    inputs.extend([wx, wh, b]);
                    params.push(LstmParams {
                        wx,
                        wh,
                        b,
                        in_dim: dim,
                    });
                    dim = hidden;
                }
                let output = g.apply(
                    format!("{prefix}_cudnn"),
                    Arc::new(CudnnLstmStack::new(hidden, layers)),
                    &inputs,
                    layer_kind,
                );
                LstmStack {
                    backend,
                    output,
                    params,
                    zero_states: Vec::new(),
                    state_io: Vec::new(),
                    hidden,
                }
            }
            LstmBackend::EcoRnn => {
                let mut x = x_seq;
                let mut params = Vec::new();
                let mut dim = in_dim;
                for l in 0..layers {
                    let wx = g.param(format!("{prefix}_l{l}_wx"), layer_kind);
                    let wh = g.param(format!("{prefix}_l{l}_wh"), layer_kind);
                    let b = g.param(format!("{prefix}_l{l}_b"), layer_kind);
                    x = g.apply(
                        format!("{prefix}_eco_l{l}"),
                        Arc::new(FusedLstmLayer::new(hidden).with_eco_layout()),
                        &[x, wx, wh, b],
                        layer_kind,
                    );
                    params.push(LstmParams {
                        wx,
                        wh,
                        b,
                        in_dim: dim,
                    });
                    dim = hidden;
                }
                LstmStack {
                    backend,
                    output: x,
                    params,
                    zero_states: Vec::new(),
                    state_io: Vec::new(),
                    hidden,
                }
            }
        }
    }

    /// Binds freshly initialized parameter values (numeric plane).
    ///
    /// # Errors
    ///
    /// Propagates binding errors (e.g. device OOM).
    pub fn bind_params(&self, exec: &mut Executor, rng: &mut StdRng) -> Result<()> {
        for p in &self.params {
            exec.bind_param(
                p.wx,
                lstm_uniform(Shape::d2(4 * self.hidden, p.in_dim), self.hidden, rng),
            )?;
            exec.bind_param(
                p.wh,
                lstm_uniform(Shape::d2(4 * self.hidden, self.hidden), self.hidden, rng),
            )?;
            exec.bind_param(p.b, Tensor::zeros(Shape::d1(4 * self.hidden)))?;
        }
        Ok(())
    }

    /// Binds only parameter shapes, for
    /// [`Executor::project`](echo_graph::Executor::project).
    ///
    /// # Errors
    ///
    /// Propagates binding errors (e.g. device OOM).
    pub fn bind_param_shapes(&self, exec: &mut Executor) -> Result<()> {
        for p in &self.params {
            exec.bind_param_shape(p.wx, Shape::d2(4 * self.hidden, p.in_dim))?;
            exec.bind_param_shape(p.wh, Shape::d2(4 * self.hidden, self.hidden))?;
            exec.bind_param_shape(p.b, Shape::d1(4 * self.hidden))?;
        }
        Ok(())
    }

    /// Shapes of every parameter node in the stack.
    pub fn param_shapes(&self) -> Vec<(NodeId, Shape)> {
        let mut out = Vec::new();
        for p in &self.params {
            out.push((p.wx, Shape::d2(4 * self.hidden, p.in_dim)));
            out.push((p.wh, Shape::d2(4 * self.hidden, self.hidden)));
            out.push((p.b, Shape::d1(4 * self.hidden)));
        }
        out
    }

    /// Adds the zero initial-state bindings this stack needs for batch
    /// size `batch`.
    pub fn add_zero_state_bindings(&self, batch: usize, bindings: &mut HashMap<NodeId, Tensor>) {
        for &node in &self.zero_states {
            bindings.insert(node, Tensor::zeros(Shape::d2(batch, self.hidden)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_graph::StashPlan;
    use echo_memory::DeviceMemory;
    use echo_tensor::init::seeded_rng;

    fn run_backend(backend: LstmBackend, seed: u64) -> Tensor {
        let (t, b, h, layers) = (3usize, 2usize, 3usize, 2usize);
        let mut g = Graph::new();
        let x = g.input("x", LayerKind::Rnn);
        let stack = LstmStack::build(&mut g, backend, x, t, h, h, layers, "rnn", LayerKind::Rnn);
        let graph = Arc::new(g);
        let mem = DeviceMemory::with_overhead_model(1 << 30, 0, 0.0);
        let mut exec = Executor::new(graph, StashPlan::stash_all(), mem);
        let mut rng = seeded_rng(seed);
        stack.bind_params(&mut exec, &mut rng).unwrap();
        let mut bindings = HashMap::new();
        let mut data_rng = seeded_rng(999);
        bindings.insert(
            x,
            echo_tensor::init::uniform(Shape::d3(t, b, h), 1.0, &mut data_rng),
        );
        stack.add_zero_state_bindings(b, &mut bindings);
        exec.forward(&bindings, stack.output, Default::default(), None)
            .unwrap()
    }

    #[test]
    fn all_backends_agree_numerically() {
        // Same seed → same parameter initialization order per layer.
        let d = run_backend(LstmBackend::Default, 7);
        let c = run_backend(LstmBackend::CuDnn, 7);
        let e = run_backend(LstmBackend::EcoRnn, 7);
        assert!(d.approx_eq(&c, 1e-5).unwrap(), "Default vs CuDNN");
        assert!(c.approx_eq(&e, 1e-5).unwrap(), "CuDNN vs EcoRNN");
    }

    #[test]
    fn node_counts_reflect_fusion() {
        let count_nodes = |backend| {
            let mut g = Graph::new();
            let x = g.input("x", LayerKind::Rnn);
            LstmStack::build(&mut g, backend, x, 10, 8, 8, 1, "rnn", LayerKind::Rnn);
            g.len()
        };
        let default_nodes = count_nodes(LstmBackend::Default);
        let cudnn_nodes = count_nodes(LstmBackend::CuDnn);
        let eco_nodes = count_nodes(LstmBackend::EcoRnn);
        assert!(default_nodes > cudnn_nodes * 10);
        assert!(eco_nodes <= cudnn_nodes + 2);
    }

    #[test]
    fn display_names() {
        assert_eq!(LstmBackend::EcoRnn.to_string(), "EcoRNN");
        assert_eq!(LstmBackend::ALL.len(), 3);
    }
}
