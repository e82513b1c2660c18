//! Stateful single-step inference ("decode") graphs over the planned path.
//!
//! Training unrolls the LSTM over `seq_len` time steps because BPTT needs
//! the whole window; serving does not. A [`WordLmDecoder`] is the same
//! word-LM architecture rebuilt at `T = 1` with the recurrent state made
//! explicit: each layer's `h0`/`c0` are input nodes the caller binds, and
//! the matching `h_last`/`c_last` nodes come back as outputs next to the
//! logits. One [`infer_step`](WordLmDecoder::infer_step) therefore
//! advances any number of independent sessions by one token, and a
//! serving engine carries each session's [`LmState`] between calls.
//!
//! **Batch invariance.** Every operator on the decode path (embedding
//! lookup, fully-connected with rows-only GEMM splits, elementwise gates,
//! last-dim slices, axis-0 stacking) computes row `b` of its output from
//! row `b` of its inputs with a fixed per-element floating-point sequence
//! — the bit-exactness contract the GEMM backends already guarantee for
//! training. Stacking B requests into one `[1, B]` step is therefore
//! bit-identical, lane for lane, to B separate `[1, 1]` steps. The serve
//! crate's integration tests assert this for every matmul policy.
//!
//! **Forward-only fusion.** [`WordLmDecoder::fused_graph`] is the decode
//! graph with its LSTM cells and elementwise chains fused
//! ([`echo_graph::gir::fuse_forward`]): same node ids, same bits, fewer
//! launches per step. Serving always runs it. Nothing trains it: a
//! training step over a fused graph is a typed error.

use crate::word_lm::WordLmHyper;
use echo_graph::gir::{fuse_forward, Gir};
use echo_graph::{ExecOptions, ExecPlan, Executor, Graph, NodeId, Result};
use echo_memory::LayerKind;
use echo_ops::{Embedding, FullyConnected};
use echo_rnn::{LstmBackend, LstmStack, LstmStateIo};
use echo_tensor::init::{lstm_uniform, seeded_rng, uniform};
use echo_tensor::{Shape, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

/// One session's recurrent state: per-layer hidden and cell rows of
/// length `hidden`. Plain host vectors so a session cache can hold
/// thousands of these cheaply and compare them bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct LmState {
    /// Hidden state per layer, each of length `hidden`.
    pub h: Vec<Vec<f32>>,
    /// Cell state per layer, each of length `hidden`.
    pub c: Vec<Vec<f32>>,
}

impl LmState {
    /// The all-zero state every session starts from.
    pub fn zero(layers: usize, hidden: usize) -> LmState {
        LmState {
            h: vec![vec![0.0; hidden]; layers],
            c: vec![vec![0.0; hidden]; layers],
        }
    }

    /// Number of layers this state spans.
    pub fn layers(&self) -> usize {
        self.h.len()
    }
}

/// The word-LM rebuilt as a single-step, explicit-state decode graph.
///
/// Always uses the `Default` (unfused) LSTM backend: it is the only one
/// whose per-layer initial states are graph inputs rather than zeros baked
/// into a fused kernel, which is what makes state threading possible. The
/// parameter draw order of [`bind_params`](WordLmDecoder::bind_params) is
/// identical to [`WordLm`](crate::WordLm)'s, so the same seed yields
/// bit-identical weights to a freshly built training model.
#[derive(Debug, Clone)]
pub struct WordLmDecoder {
    /// The decode graph (`T = 1`).
    pub graph: Arc<Graph>,
    /// Hyperparameters, with `seq_len` forced to 1 and `backend` to
    /// `Default`.
    pub hyper: WordLmHyper,
    /// `[1, B]` token-id input node.
    pub ids: NodeId,
    /// `[1, B, V]` logits node (first entry of [`outputs`](Self::outputs)).
    pub logits: NodeId,
    /// Per-layer recurrent-state nodes.
    pub state_io: Vec<LstmStateIo>,
    embed_table: NodeId,
    out_w: NodeId,
    out_b: NodeId,
    stack: LstmStack,
    /// Logits followed by each layer's `h_last`, `c_last` — the output
    /// set an inference plan is built over.
    outputs: Vec<NodeId>,
}

impl WordLmDecoder {
    /// Builds the decode graph for `hyper`'s architecture.
    pub fn build(hyper: WordLmHyper) -> WordLmDecoder {
        let hyper = WordLmHyper {
            seq_len: 1,
            backend: LstmBackend::Default,
            ..hyper
        };
        let mut g = Graph::new();
        let ids = g.input("ids", LayerKind::Embedding);
        let embed_table = g.param("embed_table", LayerKind::Embedding);
        let out_w = g.param("out_w", LayerKind::Output);
        let out_b = g.param("out_b", LayerKind::Output);

        let embedded = g.apply(
            "embedded",
            Arc::new(Embedding),
            &[ids, embed_table],
            LayerKind::Embedding,
        );
        let stack = LstmStack::build(
            &mut g,
            hyper.backend,
            embedded,
            hyper.seq_len,
            hyper.embed,
            hyper.hidden,
            hyper.layers,
            "rnn",
            LayerKind::Rnn,
        );
        let logits = g.apply(
            "logits",
            Arc::new(FullyConnected::new(hyper.vocab)),
            &[stack.output, out_w, out_b],
            LayerKind::Output,
        );
        let state_io = stack.state_io.clone();
        let mut outputs = vec![logits];
        for io in &state_io {
            outputs.push(io.h_last);
            outputs.push(io.c_last);
        }
        WordLmDecoder {
            graph: Arc::new(g),
            hyper,
            ids,
            logits,
            state_io,
            embed_table,
            out_w,
            out_b,
            stack,
            outputs,
        }
    }

    /// The output set (logits, then each layer's final h and c) a step
    /// produces — what inference plans are built over.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Binds freshly initialized parameters with the exact draw order of
    /// `WordLm::bind_params`: the same seed gives weights bit-identical
    /// to the training model's.
    ///
    /// # Errors
    ///
    /// Propagates binding errors (e.g. device OOM).
    pub fn bind_params(&self, exec: &mut Executor, seed: u64) -> Result<()> {
        let h = self.hyper;
        let mut rng = seeded_rng(seed);
        exec.bind_param(
            self.embed_table,
            uniform(Shape::d2(h.vocab, h.embed), 0.1, &mut rng),
        )?;
        self.stack.bind_params(exec, &mut rng)?;
        exec.bind_param(
            self.out_w,
            lstm_uniform(Shape::d2(h.vocab, h.hidden), h.hidden, &mut rng),
        )?;
        exec.bind_param(self.out_b, Tensor::zeros(Shape::d1(h.vocab)))?;
        Ok(())
    }

    /// Shape-only bindings for one decode step at batch size `batch`.
    pub fn symbolic_bindings(&self, batch: usize) -> HashMap<NodeId, Tensor> {
        let mut bindings = HashMap::new();
        bindings.insert(self.ids, Tensor::zeros(Shape::d2(1, batch)));
        for io in &self.state_io {
            bindings.insert(io.h0, Tensor::zeros(Shape::d2(batch, self.hyper.hidden)));
            bindings.insert(io.c0, Tensor::zeros(Shape::d2(batch, self.hyper.hidden)));
        }
        bindings
    }

    /// Shapes of every parameter node — what lifting the decode graph
    /// into the GIR needs, without binding parameter values.
    pub fn param_shapes(&self) -> HashMap<NodeId, Shape> {
        let h = self.hyper;
        let mut out = HashMap::new();
        out.insert(self.embed_table, Shape::d2(h.vocab, h.embed));
        out.insert(self.out_w, Shape::d2(h.vocab, h.hidden));
        out.insert(self.out_b, Shape::d1(h.vocab));
        for (id, shape) in self.stack.param_shapes() {
            out.insert(id, shape);
        }
        out
    }

    /// The decode graph with LSTM cells and elementwise chains fused for
    /// forward-only execution — the graph the serving engine runs.
    ///
    /// Node ids survive the rewrite, so [`symbolic_bindings`]
    /// (Self::symbolic_bindings), [`bind_params`](Self::bind_params),
    /// [`outputs`](Self::outputs) and the session-state node ids all
    /// transfer unchanged, and fused execution is bit-identical to the
    /// original graph. Decode batch size does not affect which groups
    /// form, so one fused graph serves every batch size.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference or rewrite failures from fusion.
    pub fn fused_graph(&self) -> Result<Arc<Graph>> {
        let binding_shapes: HashMap<NodeId, Shape> = self
            .symbolic_bindings(1)
            .iter()
            .map(|(&id, t)| (id, t.shape().clone()))
            .collect();
        let mut gir = Gir::from_graph(
            Arc::clone(&self.graph),
            &binding_shapes,
            &self.param_shapes(),
            &self.outputs,
        )?;
        fuse_forward(&mut gir)?;
        Ok(Arc::clone(gir.graph()))
    }

    /// Compiles and installs an inference-mode execution plan for decode
    /// steps with exactly `batch` lanes. A step at any other batch size
    /// is planned by the executor on first sight and memoized (observable
    /// via [`echo_graph::plan_fallbacks`]), bit-identically. Returns the
    /// shared plan.
    ///
    /// # Errors
    ///
    /// Propagates planning failures (e.g. parameters not bound yet).
    pub fn install_inference_plan(
        &self,
        exec: &mut Executor,
        batch: usize,
    ) -> Result<Arc<ExecPlan>> {
        let plan = exec.plan_for_inference(&self.symbolic_bindings(batch), &self.outputs)?;
        exec.set_exec_plan(Arc::clone(&plan))?;
        Ok(plan)
    }

    /// Advances `tokens.len()` independent sessions by one token in a
    /// single batched forward. Lane `b` consumes `tokens[b]` from state
    /// `states[b]`; the returned vectors are per-lane next-token logits
    /// (`vocab` long) and per-lane successor states, in lane order.
    ///
    /// Batched execution is bit-identical per lane to unbatched (see the
    /// module docs), so a scheduler is free to coalesce whatever requests
    /// arrive together.
    ///
    /// # Errors
    ///
    /// Propagates execution errors; `tokens` and `states` must have equal
    /// nonzero length and states must match the model's layer count.
    pub fn infer_step(
        &self,
        exec: &mut Executor,
        tokens: &[u32],
        states: &[LmState],
    ) -> Result<(Vec<Vec<f32>>, Vec<LmState>)> {
        let b = tokens.len();
        if b == 0 || states.len() != b {
            return Err(echo_graph::GraphError::Operator {
                op: "infer_step".to_string(),
                message: format!("{} tokens vs {} states", b, states.len()),
            });
        }
        let hidden = self.hyper.hidden;
        let layers = self.hyper.layers;
        for s in states {
            if s.layers() != layers {
                return Err(echo_graph::GraphError::Operator {
                    op: "infer_step".to_string(),
                    message: format!("state has {} layers, model has {layers}", s.layers()),
                });
            }
        }

        // Binding storage comes from the executor's step-persistent
        // tensor pool and goes back after the step: a serving loop's
        // per-request `[1,B]`/`[B,H]` buffers recycle instead of
        // reallocating (visible in `Executor::tensor_pool_stats`).
        let mut bindings = HashMap::new();
        let mut id_data = exec.pool_take(b);
        id_data.clear();
        id_data.extend(tokens.iter().map(|&t| t as f32));
        bindings.insert(self.ids, Tensor::from_vec(Shape::d2(1, b), id_data)?);
        for (l, io) in self.state_io.iter().enumerate() {
            let mut h = exec.pool_take(b * hidden);
            let mut c = exec.pool_take(b * hidden);
            h.clear();
            c.clear();
            for s in states {
                h.extend_from_slice(&s.h[l]);
                c.extend_from_slice(&s.c[l]);
            }
            bindings.insert(io.h0, Tensor::from_vec(Shape::d2(b, hidden), h)?);
            bindings.insert(io.c0, Tensor::from_vec(Shape::d2(b, hidden), c)?);
        }

        let opts = ExecOptions { training: false };
        let results = exec.forward_many(&bindings, &self.outputs, opts, None);
        for (_, t) in bindings.drain() {
            exec.pool_recycle(t);
        }
        let results = results?;

        // Split [1, B, V] logits and [B, H] states back into lanes.
        let vocab = self.hyper.vocab;
        let logit_rows = results[0].data();
        let logits: Vec<Vec<f32>> = (0..b)
            .map(|lane| logit_rows[lane * vocab..(lane + 1) * vocab].to_vec())
            .collect();
        let mut next = vec![LmState::zero(layers, hidden); b];
        for l in 0..layers {
            let h_rows = results[1 + 2 * l].data();
            let c_rows = results[2 + 2 * l].data();
            for (lane, s) in next.iter_mut().enumerate() {
                s.h[l].copy_from_slice(&h_rows[lane * hidden..(lane + 1) * hidden]);
                s.c[l].copy_from_slice(&c_rows[lane * hidden..(lane + 1) * hidden]);
            }
        }
        Ok((logits, next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_graph::StashPlan;
    use echo_memory::DeviceMemory;

    fn mem() -> DeviceMemory {
        DeviceMemory::with_overhead_model(4 << 30, 0, 0.0)
    }

    fn decoder_exec(vocab: usize, seed: u64) -> (WordLmDecoder, Executor) {
        let dec = WordLmDecoder::build(WordLmHyper::tiny(vocab, LstmBackend::Default));
        let mut exec = Executor::new(Arc::clone(&dec.graph), StashPlan::stash_all(), mem());
        dec.bind_params(&mut exec, seed).unwrap();
        (dec, exec)
    }

    #[test]
    fn stateful_stepping_matches_unrolled_forward() {
        // Feeding tokens one at a time through the T=1 decoder, threading
        // state, must match the T=8 training graph's logits for the same
        // prefix (same seed => bit-identical weights by draw order).
        let vocab = 23;
        let (dec, mut dexec) = decoder_exec(vocab, 11);
        let lm = crate::WordLm::build(WordLmHyper::tiny(vocab, LstmBackend::Default));
        let mut lexec = Executor::new(Arc::clone(&lm.graph), StashPlan::stash_all(), mem());
        lm.bind_params(&mut lexec, 11).unwrap();

        let prefix: Vec<u32> = vec![3, 17, 9, 1, 20, 5, 12, 8];
        let t = prefix.len();
        let mut bindings = HashMap::new();
        let ids: Vec<f32> = prefix.iter().map(|&x| x as f32).collect();
        bindings.insert(lm.ids, Tensor::from_vec(Shape::d2(t, 1), ids).unwrap());
        for io in &lm_state_nodes(&lm) {
            bindings.insert(*io, Tensor::zeros(Shape::d2(1, lm.hyper.hidden)));
        }
        let opts = ExecOptions { training: false };
        let unrolled = lexec.forward(&bindings, lm.logits, opts, None).unwrap();

        let mut state = LmState::zero(dec.hyper.layers, dec.hyper.hidden);
        let mut last_logits = Vec::new();
        for &tok in &prefix {
            let (l, s) = dec
                .infer_step(&mut dexec, &[tok], std::slice::from_ref(&state))
                .unwrap();
            last_logits = l.into_iter().next().unwrap();
            state = s.into_iter().next().unwrap();
        }
        // The unrolled graph's logits for the final position, lane 0.
        let row = &unrolled.data()[(t - 1) * vocab..t * vocab];
        assert_eq!(row, &last_logits[..], "stepped logits must be bit-exact");
    }

    fn lm_state_nodes(lm: &crate::WordLm) -> Vec<echo_graph::NodeId> {
        // The training model's zero-state inputs, via its bindings helper.
        lm.symbolic_bindings(1)
            .keys()
            .copied()
            .filter(|id| *id != lm.ids && *id != lm.targets)
            .collect()
    }

    /// A decoder reads each weight as `Wᵀ` only, packs it on the first
    /// step, and never again: 50 decode steps at lane counts cycling
    /// through 1..=8 pack nothing and hold the same panels.
    #[test]
    fn decode_steps_after_warm_up_pack_nothing() {
        let vocab = 29;
        let hyper = WordLmHyper {
            layers: 2,
            ..WordLmHyper::tiny(vocab, LstmBackend::CuDnn)
        };
        let dec = WordLmDecoder::build(hyper);
        let mut exec = Executor::new(Arc::clone(&dec.graph), StashPlan::stash_all(), mem());
        dec.bind_params(&mut exec, 8).unwrap();
        let zero = LmState::zero(hyper.layers, hyper.hidden);
        dec.infer_step(&mut exec, &[1], std::slice::from_ref(&zero))
            .unwrap();
        let warm = exec.panel_stats();
        assert_eq!(warm.panels, 2 * hyper.layers + 1);
        assert_eq!(warm.packs, warm.panels as u64);
        for step in 0..50 {
            let lanes = 1 + step % 8;
            let tokens: Vec<u32> = (0..lanes).map(|l| ((step + l) % vocab) as u32).collect();
            dec.infer_step(&mut exec, &tokens, &vec![zero.clone(); lanes])
                .unwrap();
        }
        assert_eq!(exec.panel_stats(), warm);
    }

    #[test]
    fn batched_step_is_bit_identical_per_lane() {
        let vocab = 31;
        let (dec, mut exec) = decoder_exec(vocab, 5);
        dec.install_inference_plan(&mut exec, 4).unwrap();
        // Distinct per-lane histories first (unplanned B=1 warmup steps).
        let mut states = Vec::new();
        for lane in 0..4u32 {
            let mut s = LmState::zero(dec.hyper.layers, dec.hyper.hidden);
            let (_, ns) = dec
                .infer_step(&mut exec, &[lane * 7 % vocab as u32], &[s.clone()])
                .unwrap();
            s = ns.into_iter().next().unwrap();
            states.push(s);
        }
        let tokens: Vec<u32> = vec![1, 9, 2, 30];
        let (batched_logits, batched_states) = dec.infer_step(&mut exec, &tokens, &states).unwrap();
        for lane in 0..4 {
            let (l, s) = dec
                .infer_step(&mut exec, &tokens[lane..=lane], &states[lane..=lane])
                .unwrap();
            assert_eq!(l[0], batched_logits[lane], "lane {lane} logits");
            assert_eq!(s[0], batched_states[lane], "lane {lane} state");
        }
    }

    #[test]
    fn inference_plan_drives_identical_bits() {
        let vocab = 19;
        let (dec, mut planned) = decoder_exec(vocab, 2);
        let (_, mut on_demand) = decoder_exec(vocab, 2);
        let plan = dec.install_inference_plan(&mut planned, 2).unwrap();
        assert!(!plan.training());
        let states = vec![LmState::zero(dec.hyper.layers, dec.hyper.hidden); 2];
        let tokens = [4u32, 11];
        let (pl, ps) = dec.infer_step(&mut planned, &tokens, &states).unwrap();
        let (ll, ls) = dec.infer_step(&mut on_demand, &tokens, &states).unwrap();
        assert_eq!(pl, ll, "installed and on-demand plans must agree bitwise");
        assert_eq!(ps, ls, "installed and on-demand plans must agree bitwise");
    }
}
