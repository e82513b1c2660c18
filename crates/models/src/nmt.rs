//! The NMT model (paper §2.2, Figure 3): bidirectional-style encoder with
//! source reversal, an LSTM decoder stepped one word at a time with input
//! feeding, and the MLP attention whose scoring function is the O-shape
//! memory bottleneck.

use crate::metrics::bleu;
use echo_data::{NmtBatch, SentencePair, EOS, PAD};
use echo_graph::{ExecOptions, ExecPlan, Executor, Graph, NodeId, Result};
use echo_memory::LayerKind;
use echo_ops::{
    Activation, BroadcastAddQuery, Concat2LastDim, Embedding, FullyConnected, LayerNorm,
    ScoreReduce, SequenceReverse, SliceAxis0, SoftmaxCrossEntropy, SoftmaxRows, StackAxis0,
    WeightedSum,
};
use echo_rnn::{LstmBackend, LstmStack, LstmStep};
use echo_tensor::init::{lstm_uniform, seeded_rng, uniform};
use echo_tensor::{reduce, Shape, Tensor};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// NMT hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NmtHyper {
    /// Source vocabulary size.
    pub src_vocab: usize,
    /// Target vocabulary size.
    pub tgt_vocab: usize,
    /// Embedding size.
    pub embed: usize,
    /// LSTM hidden size.
    pub hidden: usize,
    /// Encoder LSTM layers.
    pub enc_layers: usize,
    /// Decoder LSTM layers.
    pub dec_layers: usize,
    /// (Padded) source length the graph is unrolled to.
    pub src_len: usize,
    /// (Padded) target length the graph is unrolled to.
    pub tgt_len: usize,
    /// Encoder LSTM backend.
    pub backend: LstmBackend,
    /// Use the parallelized `SequenceReverse` (the paper's `par_rev`).
    pub parallel_reverse: bool,
    /// Apply layer normalization inside the attention scoring function
    /// (Sockeye's optional `--layer-normalization`; the paper's "Best"
    /// setting uses it, the Zhu et al. setting does not).
    pub attention_layer_norm: bool,
}

impl NmtHyper {
    /// The Zhu et al. setting the paper's main experiments use:
    /// `B = 128, T = 100, H = 512` (batch size is chosen at run time).
    pub fn zhu(backend: LstmBackend) -> Self {
        NmtHyper {
            src_vocab: 17_000,
            tgt_vocab: 7_700,
            embed: 512,
            hidden: 512,
            enc_layers: 1,
            dec_layers: 1,
            src_len: 100,
            tgt_len: 100,
            backend,
            parallel_reverse: true,
            attention_layer_norm: false,
        }
    }

    /// Hieber et al.'s "Groundhog" setting (1000 hidden, 620-d embeddings,
    /// single layer) — approximated per DESIGN.md.
    pub fn groundhog(backend: LstmBackend) -> Self {
        NmtHyper {
            embed: 620,
            hidden: 1000,
            ..NmtHyper::zhu(backend)
        }
    }

    /// Hieber et al.'s "Best" setting (2-layer, 512 hidden, layer-norm
    /// attention) — approximated per DESIGN.md.
    pub fn best(backend: LstmBackend) -> Self {
        NmtHyper {
            embed: 512,
            hidden: 512,
            enc_layers: 2,
            dec_layers: 2,
            attention_layer_norm: true,
            ..NmtHyper::zhu(backend)
        }
    }

    /// A tiny numerically-trainable setting for training-curve
    /// experiments and tests.
    pub fn tiny(src_vocab: usize, tgt_vocab: usize) -> Self {
        NmtHyper {
            src_vocab,
            tgt_vocab,
            embed: 24,
            hidden: 32,
            enc_layers: 1,
            dec_layers: 1,
            src_len: 16,
            tgt_len: 17,
            backend: LstmBackend::CuDnn,
            parallel_reverse: true,
            attention_layer_norm: true,
        }
    }

    /// Number of decoder time steps.
    pub fn decoder_steps(&self) -> usize {
        self.tgt_len
    }
}

/// A built NMT graph plus the node handles experiments need.
#[derive(Debug)]
pub struct NmtModel {
    /// The model graph.
    pub graph: Arc<Graph>,
    /// Hyperparameters it was built with.
    pub hyper: NmtHyper,
    /// `[T_src, B]` source-id input.
    pub src_ids: NodeId,
    /// `[T_tgt, B]` decoder-input ids.
    pub tgt_in: NodeId,
    /// `T_tgt·B` target ids.
    pub targets: NodeId,
    /// Scalar loss node.
    pub loss: NodeId,
    /// `[T_tgt, B, V_tgt]` logits node.
    pub logits: NodeId,
    /// Per-decoder-step attention-scoring interior nodes — the O-shape
    /// segments the Echo pass recomputes.
    pub attention_segments: Vec<Vec<NodeId>>,
    /// Zero-state inputs to bind to `[B x H]` zeros.
    pub zero_state_inputs: Vec<NodeId>,
    /// The input-feeding initial attention state (`[B x H]` zeros).
    pub attn_init: NodeId,
    params: Vec<(NodeId, Shape)>,
    embed_params: Vec<(NodeId, Shape)>,
    encoder_stack: LstmStack,
}

impl NmtModel {
    /// Builds the unrolled training graph.
    pub fn build(hyper: NmtHyper) -> NmtModel {
        let mut g = Graph::new();
        let h = hyper.hidden;
        let src_ids = g.input("src_ids", LayerKind::Embedding);
        let tgt_in = g.input("tgt_in", LayerKind::Embedding);
        let targets = g.input("targets", LayerKind::Output);

        let mut params: Vec<(NodeId, Shape)> = Vec::new();
        let mut embed_params: Vec<(NodeId, Shape)> = Vec::new();
        let mut param = |g: &mut Graph, name: &str, layer, shape: Shape| {
            let id = g.param(name, layer);
            params.push((id, shape));
            id
        };

        // --- Encoder ---
        let src_embed = g.param("src_embed", LayerKind::Embedding);
        embed_params.push((src_embed, Shape::d2(hyper.src_vocab, hyper.embed)));
        let src_emb = g.apply(
            "src_emb",
            Arc::new(Embedding),
            &[src_ids, src_embed],
            LayerKind::Embedding,
        );
        let reverse: Arc<dyn echo_graph::Operator + Send + Sync> = if hyper.parallel_reverse {
            Arc::new(SequenceReverse::parallel())
        } else {
            Arc::new(SequenceReverse::sequential())
        };
        let src_rev = g.apply("src_rev", reverse, &[src_emb], LayerKind::Rnn);
        let encoder_stack = LstmStack::build(
            &mut g,
            hyper.backend,
            src_rev,
            hyper.src_len,
            hyper.embed,
            h,
            hyper.enc_layers,
            "enc",
            LayerKind::Rnn,
        );
        let hs = encoder_stack.output; // [T_s, B, H]

        // Projected keys, computed once and shared by every decoder step.
        let w_keys = param(&mut g, "w_keys", LayerKind::Attention, Shape::d2(h, h));
        let keys = g.apply(
            "keys",
            Arc::new(FullyConnected::new(h).without_bias()),
            &[hs, w_keys],
            LayerKind::Attention,
        );

        // --- Attention parameters ---
        let w_query = param(&mut g, "w_query", LayerKind::Attention, Shape::d2(h, h));
        let ln_params = if hyper.attention_layer_norm {
            let gamma = param(&mut g, "ln_gamma", LayerKind::Attention, Shape::d1(h));
            let beta = param(&mut g, "ln_beta", LayerKind::Attention, Shape::d1(h));
            Some((gamma, beta))
        } else {
            None
        };
        let v_score = param(&mut g, "v_score", LayerKind::Attention, Shape::d1(h));
        let w_attn = param(&mut g, "w_attn", LayerKind::Attention, Shape::d2(h, 2 * h));
        let b_attn = param(&mut g, "b_attn", LayerKind::Attention, Shape::d1(h));

        // --- Decoder parameters ---
        let tgt_embed = g.param("tgt_embed", LayerKind::Embedding);
        embed_params.push((tgt_embed, Shape::d2(hyper.tgt_vocab, hyper.embed)));
        let mut dec_params = Vec::new();
        for l in 0..hyper.dec_layers {
            let in_dim = if l == 0 { hyper.embed + h } else { h };
            let wx = param(
                &mut g,
                &format!("dec_l{l}_wx"),
                LayerKind::Rnn,
                Shape::d2(4 * h, in_dim),
            );
            let wh = param(
                &mut g,
                &format!("dec_l{l}_wh"),
                LayerKind::Rnn,
                Shape::d2(4 * h, h),
            );
            let bias = param(
                &mut g,
                &format!("dec_l{l}_b"),
                LayerKind::Rnn,
                Shape::d1(4 * h),
            );
            dec_params.push((wx, wh, bias, in_dim));
        }
        let out_w = param(
            &mut g,
            "out_w",
            LayerKind::Output,
            Shape::d2(hyper.tgt_vocab, h),
        );
        let out_b = param(
            &mut g,
            "out_b",
            LayerKind::Output,
            Shape::d1(hyper.tgt_vocab),
        );

        // --- Decoder unroll ---
        let tgt_emb = g.apply(
            "tgt_emb",
            Arc::new(Embedding),
            &[tgt_in, tgt_embed],
            LayerKind::Embedding,
        );
        let attn_init = g.input("attn_init", LayerKind::Attention);
        let mut zero_state_inputs = encoder_stack.zero_states.clone();
        let mut h_prev = Vec::new();
        let mut c_prev = Vec::new();
        for l in 0..hyper.dec_layers {
            let h0 = g.input(format!("dec_l{l}_h0"), LayerKind::Rnn);
            let c0 = g.input(format!("dec_l{l}_c0"), LayerKind::Rnn);
            zero_state_inputs.push(h0);
            zero_state_inputs.push(c0);
            h_prev.push(h0);
            c_prev.push(c0);
        }

        let mut attn_prev = attn_init;
        let mut attention_segments = Vec::new();
        let mut step_outputs = Vec::new();
        for t in 0..hyper.decoder_steps() {
            let x_t = g.apply(
                format!("dec_x{t}"),
                Arc::new(SliceAxis0 { index: t }),
                &[tgt_emb],
                LayerKind::Embedding,
            );
            // Input feeding: concatenate the previous attention state.
            let mut cell_in = g.apply(
                format!("dec_in{t}"),
                Arc::new(Concat2LastDim),
                &[x_t, attn_prev],
                LayerKind::Rnn,
            );
            for (l, &(wx, wh, bias, _)) in dec_params.iter().enumerate() {
                let packed = g.apply(
                    format!("dec_l{l}_cell{t}"),
                    Arc::new(LstmStep::new(h)),
                    &[cell_in, h_prev[l], c_prev[l], wx, wh, bias],
                    LayerKind::Rnn,
                );
                let h_t = g.apply(
                    format!("dec_l{l}_h{t}"),
                    Arc::new(SliceAxis0 { index: 0 }),
                    &[packed],
                    LayerKind::Rnn,
                );
                let c_t = g.apply(
                    format!("dec_l{l}_c{t}"),
                    Arc::new(SliceAxis0 { index: 1 }),
                    &[packed],
                    LayerKind::Rnn,
                );
                h_prev[l] = h_t;
                c_prev[l] = c_t;
                cell_in = h_t;
            }
            let query_h = *h_prev.last().expect("at least one decoder layer");

            // --- Attention scoring function: the O-shape subgraph ---
            let query = g.apply(
                format!("attn_q{t}"),
                Arc::new(FullyConnected::new(h).without_bias()),
                &[query_h, w_query],
                LayerKind::Attention,
            );
            let e = g.apply(
                format!("attn_e{t}"),
                Arc::new(BroadcastAddQuery),
                &[keys, query],
                LayerKind::Attention,
            );
            let mut interior = vec![e];
            let pre_tanh = if let Some((gamma, beta)) = ln_params {
                let ln = g.apply(
                    format!("attn_ln{t}"),
                    Arc::new(LayerNorm::default()),
                    &[e, gamma, beta],
                    LayerKind::Attention,
                );
                interior.push(ln);
                ln
            } else {
                e
            };
            let th = g.apply(
                format!("attn_tanh{t}"),
                Arc::new(Activation::tanh()),
                &[pre_tanh],
                LayerKind::Attention,
            );
            interior.push(th);
            let score = g.apply(
                format!("attn_score{t}"),
                Arc::new(ScoreReduce),
                &[th, v_score],
                LayerKind::Attention,
            );
            interior.push(score);
            attention_segments.push(interior);

            let alpha = g.apply(
                format!("attn_alpha{t}"),
                Arc::new(SoftmaxRows),
                &[score],
                LayerKind::Attention,
            );
            let ctx = g.apply(
                format!("attn_ctx{t}"),
                Arc::new(WeightedSum),
                &[alpha, hs],
                LayerKind::Attention,
            );
            let cat = g.apply(
                format!("attn_cat{t}"),
                Arc::new(Concat2LastDim),
                &[query_h, ctx],
                LayerKind::Attention,
            );
            let proj = g.apply(
                format!("attn_proj{t}"),
                Arc::new(FullyConnected::new(h)),
                &[cat, w_attn, b_attn],
                LayerKind::Attention,
            );
            let attn_hidden = g.apply(
                format!("attn_h{t}"),
                Arc::new(Activation::tanh()),
                &[proj],
                LayerKind::Attention,
            );
            attn_prev = attn_hidden;
            step_outputs.push(attn_hidden);
        }

        let stacked = g.apply(
            "dec_states",
            Arc::new(StackAxis0),
            &step_outputs,
            LayerKind::Output,
        );
        let logits = g.apply(
            "logits",
            Arc::new(FullyConnected::new(hyper.tgt_vocab)),
            &[stacked, out_w, out_b],
            LayerKind::Output,
        );
        let loss = g.apply(
            "loss",
            Arc::new(SoftmaxCrossEntropy::with_ignore(PAD)),
            &[logits, targets],
            LayerKind::Output,
        );

        NmtModel {
            graph: Arc::new(g),
            hyper,
            src_ids,
            tgt_in,
            targets,
            loss,
            logits,
            attention_segments,
            zero_state_inputs,
            attn_init,
            params,
            embed_params,
            encoder_stack,
        }
    }

    /// Binds freshly initialized parameters (numeric plane).
    ///
    /// # Errors
    ///
    /// Propagates binding errors (e.g. device OOM).
    pub fn bind_params(&self, exec: &mut Executor, seed: u64) -> Result<()> {
        let mut rng = seeded_rng(seed);
        for &(id, ref shape) in &self.embed_params {
            exec.bind_param(id, uniform(shape.clone(), 0.1, &mut rng))?;
        }
        self.encoder_stack.bind_params(exec, &mut rng)?;
        for &(id, ref shape) in &self.params {
            let name_is_gamma = self.graph.node(id)?.name == "ln_gamma";
            let value = if name_is_gamma {
                Tensor::full(shape.clone(), 1.0)
            } else if shape.rank() == 1 && self.graph.node(id)?.name.ends_with("_b") {
                Tensor::zeros(shape.clone())
            } else {
                lstm_uniform(shape.clone(), self.hyper.hidden, &mut rng)
            };
            exec.bind_param(id, value)?;
        }
        Ok(())
    }

    /// Binds parameter shapes only, for [`Executor::project`].
    ///
    /// # Errors
    ///
    /// Propagates binding errors (e.g. device OOM).
    pub fn bind_param_shapes(&self, exec: &mut Executor) -> Result<()> {
        for &(id, ref shape) in &self.embed_params {
            exec.bind_param_shape(id, shape.clone())?;
        }
        self.encoder_stack.bind_param_shapes(exec)?;
        for &(id, ref shape) in &self.params {
            exec.bind_param_shape(id, shape.clone())?;
        }
        Ok(())
    }

    /// Shapes of every parameter node (for the Echo pass's shape
    /// inference).
    pub fn param_shapes(&self) -> HashMap<NodeId, Shape> {
        let mut out = HashMap::new();
        for &(id, ref shape) in self.embed_params.iter().chain(&self.params) {
            out.insert(id, shape.clone());
        }
        for (id, shape) in self.encoder_stack.param_shapes() {
            out.insert(id, shape);
        }
        out
    }

    /// Builds input bindings for a batch, padding/truncating to the
    /// graph's unrolled lengths.
    pub fn bindings(&self, batch: &NmtBatch) -> HashMap<NodeId, Tensor> {
        let b = batch.batch;
        let src = fit_time_major(&batch.source, self.hyper.src_len, b);
        let tgt_in = fit_time_major(&batch.target_input, self.hyper.tgt_len, b);
        let tgt_out = fit_flat(&batch.target_output, batch.tgt_len, self.hyper.tgt_len, b);
        let mut bindings = HashMap::new();
        bindings.insert(self.src_ids, src);
        bindings.insert(self.tgt_in, tgt_in);
        bindings.insert(self.targets, tgt_out);
        bindings.insert(
            self.attn_init,
            Tensor::zeros(Shape::d2(b, self.hyper.hidden)),
        );
        for &node in &self.zero_state_inputs {
            bindings.insert(node, Tensor::zeros(Shape::d2(b, self.hyper.hidden)));
        }
        bindings
    }

    /// Shape-only bindings for a given batch size (zero-filled inputs), for
    /// [`Executor::project`].
    pub fn symbolic_bindings(&self, batch: usize) -> HashMap<NodeId, Tensor> {
        let mut bindings = HashMap::new();
        bindings.insert(
            self.src_ids,
            Tensor::zeros(Shape::d2(self.hyper.src_len, batch)),
        );
        bindings.insert(
            self.tgt_in,
            Tensor::zeros(Shape::d2(self.hyper.tgt_len, batch)),
        );
        bindings.insert(
            self.targets,
            Tensor::zeros(Shape::d1(self.hyper.tgt_len * batch)),
        );
        bindings.insert(
            self.attn_init,
            Tensor::zeros(Shape::d2(batch, self.hyper.hidden)),
        );
        for &node in &self.zero_state_inputs {
            bindings.insert(node, Tensor::zeros(Shape::d2(batch, self.hyper.hidden)));
        }
        bindings
    }

    /// Compiles and installs an ahead-of-time execution plan for training
    /// steps with `batch` lanes (the graph's fixed bucket lengths), using
    /// the executor's current stash plan and bound parameter shapes.
    /// A batch of any other shape is planned by the executor on first
    /// sight, memoized, and counted by [`echo_graph::plan_fallbacks`].
    /// Returns the shared plan.
    ///
    /// # Errors
    ///
    /// Propagates planning failures (e.g. parameters not bound yet).
    pub fn install_exec_plan(&self, exec: &mut Executor, batch: usize) -> Result<Arc<ExecPlan>> {
        let plan = exec.plan_for(
            &self.symbolic_bindings(batch),
            self.loss,
            ExecOptions::default(),
        )?;
        exec.set_exec_plan(Arc::clone(&plan))?;
        Ok(plan)
    }

    /// Compiles and installs an **inference-mode** execution plan for
    /// forward-only runs to the logits at `batch` lanes: no backward
    /// schedule, no stash table, a strictly smaller slot arena than the
    /// training plan's. [`predict_teacher_forced`] and
    /// [`infer_step`](NmtModel::infer_step) then run this plan whenever
    /// the batch matches; any other shape is planned by the executor on
    /// first sight and runs bit-identically.
    ///
    /// [`predict_teacher_forced`]: NmtModel::predict_teacher_forced
    ///
    /// # Errors
    ///
    /// Propagates planning failures (e.g. parameters not bound yet).
    pub fn install_inference_plan(
        &self,
        exec: &mut Executor,
        batch: usize,
    ) -> Result<Arc<ExecPlan>> {
        let plan = exec.plan_for_inference(&self.symbolic_bindings(batch), &[self.logits])?;
        exec.set_exec_plan(Arc::clone(&plan))?;
        Ok(plan)
    }

    /// One serving step: teacher-forced argmax predictions for a batch,
    /// over the planned path when an inference plan is installed. NMT
    /// serving is stateless per request (the whole source sentence plus
    /// target prefix arrives at once), so unlike the word-LM decoder there
    /// is no recurrent state to thread.
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn infer_step(&self, exec: &mut Executor, batch: &NmtBatch) -> Result<Vec<Vec<usize>>> {
        self.predict_teacher_forced(exec, batch)
    }

    /// Teacher-forced predictions: the argmax token at every target
    /// position given the gold prefix. Standing in for beam decoding when
    /// scoring BLEU (see DESIGN.md substitutions).
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn predict_teacher_forced(
        &self,
        exec: &mut Executor,
        batch: &NmtBatch,
    ) -> Result<Vec<Vec<usize>>> {
        let bindings = self.bindings(batch);
        let logits = exec.forward(
            &bindings,
            self.logits,
            ExecOptions { training: false },
            None,
        )?;
        let ids = reduce::argmax_rows(&logits)?; // T_tgt * B rows
        let b = batch.batch;
        let mut out = vec![Vec::new(); b];
        'batch: for bi in 0..b {
            for t in 0..self.hyper.tgt_len {
                let tok = ids[t * b + bi];
                if tok == EOS {
                    continue 'batch;
                }
                out[bi].push(tok);
            }
        }
        Ok(out)
    }

    /// Corpus BLEU of teacher-forced predictions against references.
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn validation_bleu(
        &self,
        exec: &mut Executor,
        pairs: &[SentencePair],
        batch_size: usize,
    ) -> Result<f64> {
        let mut hyps = Vec::new();
        let mut refs = Vec::new();
        for chunk in pairs.chunks(batch_size) {
            if chunk.len() < batch_size {
                break;
            }
            let chunk_refs: Vec<&SentencePair> = chunk.iter().collect();
            let batch = NmtBatch::from_pairs(&chunk_refs);
            let preds = self.predict_teacher_forced(exec, &batch)?;
            for (p, pair) in preds.into_iter().zip(chunk) {
                let limit = pair.target.len();
                hyps.push(p.into_iter().take(limit.max(1)).collect());
                refs.push(pair.target.clone());
            }
        }
        Ok(bleu(&hyps, &refs))
    }
}

/// Pads/truncates a `[T, B]` time-major tensor to `target_len` rows.
fn fit_time_major(t: &Tensor, target_len: usize, batch: usize) -> Tensor {
    let cur_len = t.shape().dim(0);
    let mut out = Tensor::full(Shape::d2(target_len, batch), PAD as f32);
    let copy = cur_len.min(target_len);
    out.data_mut()[..copy * batch].copy_from_slice(&t.data()[..copy * batch]);
    out
}

/// Pads/truncates a flattened `T·B` target tensor.
fn fit_flat(t: &Tensor, cur_len: usize, target_len: usize, batch: usize) -> Tensor {
    let mut out = Tensor::full(Shape::d1(target_len * batch), PAD as f32);
    let copy = cur_len.min(target_len);
    out.data_mut()[..copy * batch].copy_from_slice(&t.data()[..copy * batch]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_data::ParallelCorpus;
    use echo_graph::StashPlan;
    use echo_memory::DeviceMemory;

    fn mem() -> DeviceMemory {
        DeviceMemory::with_overhead_model(8 << 30, 0, 0.0)
    }

    fn tiny_model() -> (NmtModel, ParallelCorpus) {
        let corpus = ParallelCorpus::iwslt_like(0.002, 5);
        let model = NmtModel::build(NmtHyper::tiny(
            corpus.src_vocab().size(),
            corpus.tgt_vocab().size(),
        ));
        (model, corpus)
    }

    #[test]
    fn builds_and_runs_one_step() {
        let (model, corpus) = tiny_model();
        let mut exec = Executor::new(Arc::clone(&model.graph), StashPlan::stash_all(), mem());
        model.bind_params(&mut exec, 1).unwrap();
        let batches = NmtBatch::bucketed(corpus.pairs(), 8);
        let stats = exec
            .train_step(
                &model.bindings(&batches[0]),
                model.loss,
                ExecOptions::default(),
                None,
            )
            .unwrap();
        let loss = stats.loss.unwrap();
        let uniform_nats = (model.hyper.tgt_vocab as f32).ln();
        assert!(
            loss > 0.0 && (loss - uniform_nats).abs() < 1.5,
            "loss {loss}"
        );
        assert_eq!(model.attention_segments.len(), model.hyper.decoder_steps());
    }

    #[test]
    fn attention_feature_maps_dominate_memory() {
        // The paper's core observation (Figure 5): with a long source
        // sequence the attention layers' feature maps dominate.
        let (model, _corpus) = tiny_model();
        let m = mem();
        let mut exec = Executor::new(Arc::clone(&model.graph), StashPlan::stash_all(), m.clone());
        model.bind_param_shapes(&mut exec).unwrap();
        let bindings = model.symbolic_bindings(32);
        exec.project(&bindings, &[model.loss], Some(model.loss), None)
            .unwrap();
        let breakdown = echo_memory::MemoryBreakdown::at_peak(&m);
        let attn = breakdown.layer_fraction(echo_memory::LayerKind::Attention);
        assert!(attn > 0.3, "attention share {attn}");
    }

    #[test]
    fn training_reduces_loss() {
        // A quick, debug-friendly budget; full convergence (loss < 0.3,
        // BLEU > 50) is exercised by the Figure 12 reproduction binary.
        let corpus = echo_data::ParallelCorpus::synthetic(
            echo_data::Vocab::new(60),
            echo_data::Vocab::new(50),
            400,
            3..=8,
            5,
        );
        let mut hyper = NmtHyper::tiny(corpus.src_vocab().size(), corpus.tgt_vocab().size());
        hyper.hidden = 48;
        hyper.embed = 32;
        hyper.src_len = 8;
        hyper.tgt_len = 9;
        let model = NmtModel::build(hyper);
        let mut exec = Executor::new(Arc::clone(&model.graph), StashPlan::stash_all(), mem());
        model.bind_params(&mut exec, 2).unwrap();
        let (train, valid) = corpus.split_validation(16);
        let batches = NmtBatch::bucketed(train, 8);
        let mut sgd = crate::trainer::Sgd::new(1.0).with_clip_norm(5.0);
        let mut first = None;
        let mut last = 0.0;
        // Five epochs: enough budget that the "markedly" threshold below
        // holds with margin for any reasonable seeded init stream, not
        // just one specific RNG implementation's output.
        for _epoch in 0..5 {
            for batch in &batches {
                let stats = exec
                    .train_step(
                        &model.bindings(batch),
                        model.loss,
                        ExecOptions::default(),
                        None,
                    )
                    .unwrap();
                last = stats.loss.unwrap();
                first.get_or_insert(last);
                sgd.step(&mut exec);
            }
        }
        let first = first.unwrap();
        assert!(
            last < first * 0.85,
            "loss must fall markedly: {first} -> {last}"
        );
        // BLEU machinery runs end-to-end (score may still be ~0 this early).
        let score = model.validation_bleu(&mut exec, valid, 8).unwrap();
        assert!((0.0..=100.0).contains(&score));
    }

    #[test]
    fn multi_layer_decoder_trains_and_stays_bit_exact_under_echo() {
        let corpus = echo_data::ParallelCorpus::synthetic(
            echo_data::Vocab::new(60),
            echo_data::Vocab::new(50),
            24,
            3..=6,
            21,
        );
        let mut hyper = NmtHyper::tiny(60, 50);
        hyper.enc_layers = 2;
        hyper.dec_layers = 2;
        hyper.src_len = 6;
        hyper.tgt_len = 7;
        let model = NmtModel::build(hyper);
        let batch = NmtBatch::bucketed(corpus.pairs(), 8).remove(0);
        let bindings = model.bindings(&batch);
        let plan = {
            use echo_graph::{SegmentId, StashPolicy};
            let mut plan = StashPlan::stash_all();
            for (s, seg) in model.attention_segments.iter().enumerate() {
                for &n in seg {
                    plan.set(n, StashPolicy::Recompute(SegmentId { id: s, pool: 0 }));
                }
            }
            plan
        };
        let run = |plan: StashPlan| {
            let m = mem();
            let mut exec = Executor::new(Arc::clone(&model.graph), plan, m.clone());
            model.bind_params(&mut exec, 6).unwrap();
            let stats = exec
                .train_step(&bindings, model.loss, ExecOptions::default(), None)
                .unwrap();
            (stats.loss.unwrap(), m.peak_bytes())
        };
        let (l_base, p_base) = run(StashPlan::stash_all());
        let (l_echo, p_echo) = run(plan);
        assert_eq!(l_base, l_echo);
        assert!(p_echo < p_base);
    }

    #[test]
    fn echo_plan_is_bit_exact_on_nmt() {
        let (model, corpus) = tiny_model();
        let batches = NmtBatch::bucketed(corpus.pairs(), 8);

        let run = |plan: StashPlan| {
            let m = mem();
            let mut exec = Executor::new(Arc::clone(&model.graph), plan, m.clone());
            model.bind_params(&mut exec, 3).unwrap();
            let stats = exec
                .train_step(
                    &model.bindings(&batches[0]),
                    model.loss,
                    ExecOptions::default(),
                    None,
                )
                .unwrap();
            (stats, m.peak_bytes())
        };

        let (base, peak_base) = run(StashPlan::stash_all());
        let mut plan = StashPlan::stash_all();
        for (s, seg) in model.attention_segments.iter().enumerate() {
            for &n in seg {
                plan.set(
                    n,
                    echo_graph::StashPolicy::Recompute(echo_graph::SegmentId { id: s, pool: 0 }),
                );
            }
        }
        let (echo, peak_echo) = run(plan);
        assert_eq!(base.loss, echo.loss, "loss must be bit-exact");
        assert_eq!(echo.replays as usize, model.hyper.decoder_steps());
        assert!(
            peak_echo < peak_base,
            "echo peak {peak_echo} >= baseline {peak_base}"
        );
    }
}
