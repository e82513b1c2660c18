//! The word-level language model (paper §2.1, Figure 2): Embedding →
//! LSTM stack → Output projection → perplexity loss.

use echo_data::{LmBatch, PAD};
use echo_graph::{
    partition_stages, ExecOptions, ExecPlan, Executor, Gir, Graph, NodeId, Result, StagePartition,
};
use echo_memory::LayerKind;
use echo_ops::{Embedding, FullyConnected, SoftmaxCrossEntropy};
use echo_rnn::{LstmBackend, LstmStack};
use echo_tensor::init::{lstm_uniform, seeded_rng, uniform};
use echo_tensor::{Shape, Tensor};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Hyperparameters of the word-level LM (MXNet `word_language_model`
/// example defaults use tied embed/hidden sizes of 200/650/1500).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WordLmHyper {
    /// Vocabulary size.
    pub vocab: usize,
    /// Embedding size.
    pub embed: usize,
    /// LSTM hidden size.
    pub hidden: usize,
    /// Number of LSTM layers.
    pub layers: usize,
    /// BPTT unroll length.
    pub seq_len: usize,
    /// LSTM backend.
    pub backend: LstmBackend,
}

impl WordLmHyper {
    /// The MXNet example's medium setting (650/650, 2 layers, T=35).
    pub fn mxnet_example(vocab: usize, hidden: usize, backend: LstmBackend) -> Self {
        WordLmHyper {
            vocab,
            embed: hidden,
            hidden,
            layers: 2,
            seq_len: 35,
            backend,
        }
    }

    /// A tiny numerically-trainable setting for tests.
    pub fn tiny(vocab: usize, backend: LstmBackend) -> Self {
        WordLmHyper {
            vocab,
            embed: 16,
            hidden: 16,
            layers: 1,
            seq_len: 8,
            backend,
        }
    }
}

/// A built word-level LM graph plus node handles.
#[derive(Debug, Clone)]
pub struct WordLm {
    /// The model graph.
    pub graph: Arc<Graph>,
    /// Hyperparameters it was built with.
    pub hyper: WordLmHyper,
    /// `[T, B]` token-id input node.
    pub ids: NodeId,
    /// `T·B` target-id input node.
    pub targets: NodeId,
    /// Scalar loss node.
    pub loss: NodeId,
    /// `[T, B, V]` logits node (for prediction).
    pub logits: NodeId,
    embed_table: NodeId,
    out_w: NodeId,
    out_b: NodeId,
    stack: LstmStack,
}

impl WordLm {
    /// Builds the model graph.
    pub fn build(hyper: WordLmHyper) -> WordLm {
        let mut g = Graph::new();
        let ids = g.input("ids", LayerKind::Embedding);
        let targets = g.input("targets", LayerKind::Output);
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
        let loss = g.apply(
            "loss",
            Arc::new(SoftmaxCrossEntropy::with_ignore(PAD)),
            &[logits, targets],
            LayerKind::Output,
        );
        WordLm {
            graph: Arc::new(g),
            hyper,
            ids,
            targets,
            loss,
            logits,
            embed_table,
            out_w,
            out_b,
            stack,
        }
    }

    /// Binds freshly initialized parameters (numeric plane).
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

    /// Binds parameter shapes only, for [`Executor::project`].
    ///
    /// # Errors
    ///
    /// Propagates binding errors (e.g. device OOM).
    pub fn bind_param_shapes(&self, exec: &mut Executor) -> Result<()> {
        let h = self.hyper;
        exec.bind_param_shape(self.embed_table, Shape::d2(h.vocab, h.embed))?;
        self.stack.bind_param_shapes(exec)?;
        exec.bind_param_shape(self.out_w, Shape::d2(h.vocab, h.hidden))?;
        exec.bind_param_shape(self.out_b, Shape::d1(h.vocab))?;
        Ok(())
    }

    /// Shapes of every parameter node (for the Echo pass's shape
    /// inference).
    pub fn param_shapes(&self) -> HashMap<NodeId, echo_tensor::Shape> {
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

    /// Builds the input bindings for one batch.
    pub fn bindings(&self, batch: &LmBatch) -> HashMap<NodeId, Tensor> {
        let mut bindings = HashMap::new();
        bindings.insert(self.ids, batch.input.clone());
        bindings.insert(self.targets, batch.targets.clone());
        self.stack
            .add_zero_state_bindings(batch.batch, &mut bindings);
        bindings
    }

    /// Compiles and installs an ahead-of-time execution plan for training
    /// steps with `batch` lanes, using the executor's current stash plan
    /// and bound parameter shapes. Returns the shared plan so callers can
    /// install the same one on replicas (see
    /// [`Executor::clone_replica`], which shares it automatically).
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

    /// Cuts the training graph, at `batch` lanes per micro-batch, into
    /// `stages` stages for [`crate::PipelineTrainer`]. One stage is data
    /// parallelism: every replica runs the whole graph.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference and partitioning failures.
    pub fn partition(&self, batch: usize, stages: usize) -> Result<StagePartition> {
        let binding_shapes = self
            .symbolic_bindings(batch)
            .iter()
            .map(|(&id, t)| (id, t.shape().clone()))
            .collect();
        let gir = Gir::from_graph(
            Arc::clone(&self.graph),
            &binding_shapes,
            &self.param_shapes(),
            &[self.loss],
        )?;
        partition_stages(&gir, stages)
    }

    /// Builds shape-only bindings for a given batch size (zero-filled
    /// inputs), for [`Executor::project`].
    pub fn symbolic_bindings(&self, batch: usize) -> HashMap<NodeId, Tensor> {
        let mut bindings = HashMap::new();
        bindings.insert(
            self.ids,
            Tensor::zeros(Shape::d2(self.hyper.seq_len, batch)),
        );
        bindings.insert(
            self.targets,
            Tensor::zeros(Shape::d1(self.hyper.seq_len * batch)),
        );
        self.stack.add_zero_state_bindings(batch, &mut bindings);
        bindings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_data::{BpttBatches, LmCorpus, Vocab};
    use echo_graph::{ExecOptions, StashPlan};
    use echo_memory::DeviceMemory;
    use echo_models_test_util::*;

    mod echo_models_test_util {
        pub use crate::metrics::perplexity;
        pub use crate::trainer::Sgd;
    }

    fn mem() -> DeviceMemory {
        DeviceMemory::with_overhead_model(4 << 30, 0, 0.0)
    }

    #[test]
    fn loss_starts_near_uniform() {
        let vocab = 50usize;
        let lm = WordLm::build(WordLmHyper::tiny(vocab, LstmBackend::CuDnn));
        let mut exec = Executor::new(Arc::clone(&lm.graph), StashPlan::stash_all(), mem());
        lm.bind_params(&mut exec, 1).unwrap();
        let corpus = LmCorpus::synthetic(Vocab::new(vocab), 2000, 0.8, 2);
        let mut batches = BpttBatches::new(corpus.tokens(), 4, lm.hyper.seq_len);
        let batch = batches.next().unwrap();
        let stats = exec
            .train_step(&lm.bindings(&batch), lm.loss, ExecOptions::default(), None)
            .unwrap();
        let loss = stats.loss.unwrap();
        let uniform_nats = (vocab as f32).ln();
        assert!(
            (loss - uniform_nats).abs() < 1.0,
            "initial loss {loss} vs uniform {uniform_nats}"
        );
    }

    #[test]
    fn training_reduces_perplexity() {
        let vocab = 40usize;
        let lm = WordLm::build(WordLmHyper::tiny(vocab, LstmBackend::CuDnn));
        let mut exec = Executor::new(Arc::clone(&lm.graph), StashPlan::stash_all(), mem());
        lm.bind_params(&mut exec, 3).unwrap();
        let corpus = LmCorpus::synthetic(Vocab::new(vocab), 6000, 0.95, 4);
        let mut sgd = Sgd::new(0.5).with_clip_norm(5.0);
        let mut first = None;
        let mut last = 0.0f32;
        for epoch in 0..4 {
            let mut batches = BpttBatches::new(corpus.tokens(), 8, lm.hyper.seq_len);
            for batch in &mut batches {
                let stats = exec
                    .train_step(&lm.bindings(&batch), lm.loss, ExecOptions::default(), None)
                    .unwrap();
                last = stats.loss.unwrap();
                if first.is_none() {
                    first = Some(last);
                }
                sgd.step(&mut exec);
            }
            let _ = epoch;
        }
        let first = first.unwrap();
        assert!(
            perplexity(last) < perplexity(first) * 0.6,
            "perplexity must fall: {} -> {}",
            perplexity(first),
            perplexity(last)
        );
    }

    /// A training step reads each LSTM layer's `Wx` and `Wh` and the
    /// output projection as GEMM `B` operands, as `Wᵀ` forward and `W`
    /// backward: `4·layers + 2` panels. The optimizer changes every
    /// weight, so each step re-packs each panel exactly once, in place.
    #[test]
    fn training_packs_each_weight_orientation_once_per_step() {
        for backend in [LstmBackend::Default, LstmBackend::CuDnn] {
            let hyper = WordLmHyper {
                layers: 2,
                ..WordLmHyper::tiny(30, backend)
            };
            let pairs = 4 * hyper.layers + 2;
            let lm = WordLm::build(hyper);
            let mut exec = Executor::new(Arc::clone(&lm.graph), StashPlan::stash_all(), mem());
            lm.bind_params(&mut exec, 4).unwrap();
            let corpus = LmCorpus::synthetic(Vocab::new(30), 2000, 0.8, 3);
            let mut batches = BpttBatches::new(corpus.tokens(), 4, lm.hyper.seq_len);
            let mut sgd = Sgd::new(0.5).with_clip_norm(5.0);
            let mut before = exec.panel_stats();
            let mut after_step_1 = before;
            for step in 1..=5 {
                let batch = batches.next().unwrap();
                exec.train_step(&lm.bindings(&batch), lm.loss, ExecOptions::default(), None)
                    .unwrap();
                sgd.step(&mut exec);
                let now = exec.panel_stats();
                assert_eq!(
                    now.packs - before.packs,
                    pairs as u64,
                    "{backend} step {step}"
                );
                assert_eq!(now.panels, pairs, "{backend} step {step}");
                if step == 1 {
                    after_step_1 = now;
                }
                assert_eq!(
                    now.panel_bytes, after_step_1.panel_bytes,
                    "{backend} step {step}"
                );
                before = now;
            }
        }
    }

    #[test]
    fn backends_share_the_same_loss_surface() {
        let vocab = 30usize;
        let losses: Vec<f32> = LstmBackend::ALL
            .iter()
            .map(|&backend| {
                let lm = WordLm::build(WordLmHyper::tiny(vocab, backend));
                let mut exec = Executor::new(Arc::clone(&lm.graph), StashPlan::stash_all(), mem());
                lm.bind_params(&mut exec, 7).unwrap();
                let corpus = LmCorpus::synthetic(Vocab::new(vocab), 1000, 0.8, 8);
                let mut batches = BpttBatches::new(corpus.tokens(), 4, lm.hyper.seq_len);
                let batch = batches.next().unwrap();
                exec.train_step(&lm.bindings(&batch), lm.loss, ExecOptions::default(), None)
                    .unwrap()
                    .loss
                    .unwrap()
            })
            .collect();
        // Parameter initialization order differs per backend only in node
        // naming, not in draw order, so losses must agree closely.
        assert!((losses[0] - losses[1]).abs() < 1e-4, "{losses:?}");
        assert!((losses[1] - losses[2]).abs() < 1e-4, "{losses:?}");
    }

    #[test]
    fn projected_run_reports_memory_and_time() {
        let lm = WordLm::build(WordLmHyper::mxnet_example(10_000, 650, LstmBackend::CuDnn));
        let mut exec = Executor::new(Arc::clone(&lm.graph), StashPlan::stash_all(), mem());
        lm.bind_param_shapes(&mut exec).unwrap();
        let mut sim = echo_device::DeviceSim::new(echo_device::DeviceSpec::titan_xp());
        let stats = exec
            .project(
                &lm.symbolic_bindings(32),
                &[lm.loss],
                Some(lm.loss),
                Some(&mut sim),
            )
            .unwrap();
        assert!(stats.loss.is_none());
        assert!(
            exec.memory_report().peak_bytes > 100 << 20,
            "peak {}",
            exec.memory_report().peak_bytes
        );
        assert!(sim.elapsed_ns() > 0);
    }
}
