//! Optimization and training bookkeeping: SGD with momentum and gradient
//! clipping, the serial micro-batch trainer and the canonical reduction
//! tree it shares with [`crate::pipeline::PipelineTrainer`], the
//! speedometer, and training logs.

use crate::pipeline::{StageStepStats, StepReport};
use crate::word_lm::WordLm;
use echo_data::{LmBatch, MicrobatchPlan};
use echo_device::{DeviceSim, DeviceSpec};
use echo_graph::{ExecOptions, Executor, NodeId};
use echo_tensor::Tensor;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Builds executor bindings for one (micro-)batch. Shared by every
/// worker of a trainer, so it must be thread-safe.
pub type BindFn<B> = dyn Fn(&B) -> HashMap<NodeId, Tensor> + Send + Sync;

/// A parameter-update rule over an executor's accumulated gradients.
///
/// The serial training loops, [`MicrobatchTrainer`] and
/// [`crate::pipeline::PipelineTrainer`] (where the optimizer runs once
/// per step on the coordinator's template executor, after the canonical
/// gradient fold) all drive optimizers through this trait. `Send` keeps
/// every trainer that owns one movable across threads.
pub trait Optimizer: Send {
    /// Applies one update to every parameter of `exec` from its
    /// accumulated gradients. Returns the pre-clip gradient norm.
    fn apply(&mut self, exec: &mut Executor) -> f64;
}

impl Optimizer for Sgd {
    fn apply(&mut self, exec: &mut Executor) -> f64 {
        self.step(exec)
    }
}

impl Optimizer for Adam {
    fn apply(&mut self, exec: &mut Executor) -> f64 {
        self.step(exec)
    }
}

/// SGD with optional momentum and global-norm gradient clipping — the
/// optimizer used by the MXNet word-LM example and (modulo Adam) close
/// enough to Sockeye's for curve-shape purposes.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// Global gradient-norm clip (`None` disables clipping).
    pub clip_norm: Option<f64>,
    velocity: HashMap<NodeId, Tensor>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            clip_norm: None,
            velocity: HashMap::new(),
        }
    }

    /// Adds momentum (builder style).
    #[must_use]
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Adds global-norm clipping (builder style).
    #[must_use]
    pub fn with_clip_norm(mut self, clip: f64) -> Self {
        self.clip_norm = Some(clip);
        self
    }

    /// Applies one update to every parameter of `exec` from its
    /// accumulated gradients. Returns the pre-clip gradient norm.
    pub fn step(&mut self, exec: &mut Executor) -> f64 {
        // Global gradient norm, then an optional clip pass.
        let mut norm = 0.0f64;
        exec.for_each_param_grad(|_, _, g| {
            norm += g.norm_l2().powi(2);
        });
        norm = norm.sqrt();
        if let Some(clip) = self.clip_norm {
            if norm > clip && norm > 0.0 {
                let scale = (clip / norm) as f32;
                exec.for_each_param_grad(|_, _, g| g.scale_inplace(scale));
            }
        }

        let lr = self.lr;
        let momentum = self.momentum;
        let velocity = &mut self.velocity;
        exec.for_each_param_grad(|id, value, grad| {
            if momentum > 0.0 {
                let v = velocity
                    .entry(id)
                    .or_insert_with(|| Tensor::zeros(value.shape().clone()));
                v.scale_inplace(momentum);
                v.axpy(1.0, grad).expect("shapes match");
                value.axpy(-lr, v).expect("shapes match");
            } else {
                value.axpy(-lr, grad).expect("shapes match");
            }
        });
        norm
    }
}

/// Adam (Kingma & Ba) with global-norm clipping — Sockeye's optimizer.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Stability epsilon.
    pub eps: f32,
    /// Global gradient-norm clip (`None` disables clipping).
    pub clip_norm: Option<f64>,
    step: u64,
    m: HashMap<NodeId, Tensor>,
    v: HashMap<NodeId, Tensor>,
}

impl Adam {
    /// Adam with the standard (0.9, 0.999) decays.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip_norm: None,
            step: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }

    /// Adds global-norm clipping (builder style).
    #[must_use]
    pub fn with_clip_norm(mut self, clip: f64) -> Self {
        self.clip_norm = Some(clip);
        self
    }

    /// Applies one update from the executor's accumulated gradients.
    /// Returns the pre-clip gradient norm.
    pub fn step(&mut self, exec: &mut Executor) -> f64 {
        let mut norm = 0.0f64;
        exec.for_each_param_grad(|_, _, g| {
            norm += g.norm_l2().powi(2);
        });
        norm = norm.sqrt();
        if let Some(clip) = self.clip_norm {
            if norm > clip && norm > 0.0 {
                let scale = (clip / norm) as f32;
                exec.for_each_param_grad(|_, _, g| g.scale_inplace(scale));
            }
        }
        self.step += 1;
        let bias1 = 1.0 - self.beta1.powi(self.step as i32);
        let bias2 = 1.0 - self.beta2.powi(self.step as i32);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (ms, vs) = (&mut self.m, &mut self.v);
        exec.for_each_param_grad(|id, value, grad| {
            let m = ms
                .entry(id)
                .or_insert_with(|| Tensor::zeros(value.shape().clone()));
            let v = vs
                .entry(id)
                .or_insert_with(|| Tensor::zeros(value.shape().clone()));
            for i in 0..grad.len() {
                let g = grad.data()[i];
                let mi = b1 * m.data()[i] + (1.0 - b1) * g;
                let vi = b2 * v.data()[i] + (1.0 - b2) * g * g;
                m.data_mut()[i] = mi;
                v.data_mut()[i] = vi;
                let m_hat = mi / bias1;
                let v_hat = vi / bias2;
                value.data_mut()[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        });
        norm
    }
}

/// One leaf (or partial fold) of the canonical reduction tree: the
/// gradients and mean loss of a micro-batch span.
///
/// Float addition is not associative, so the gradient of a global batch
/// is *defined* as the balanced binary-tree fold of its `M` per-micro-batch
/// leaves ([`MicrobatchPlan`]), scaled by `1/M` at the root. A replica
/// owning an aligned span of leaves folds exactly a subtree, and the
/// cross-replica levels walk the rest of the same tree, so every replica
/// count associates every addition identically to the serial fold.
pub(crate) struct GradSample {
    /// `(id, grad)` sorted by id — the order [`Executor::export_grads`]
    /// guarantees.
    pub(crate) grads: Vec<(NodeId, Tensor)>,
    pub(crate) loss: f32,
}

impl GradSample {
    /// Combines `other` into `self` with `self` as the left operand —
    /// one internal node of the canonical tree.
    pub(crate) fn merge(&mut self, other: &GradSample) {
        debug_assert_eq!(self.grads.len(), other.grads.len());
        for ((id_a, grad), (id_b, incoming)) in self.grads.iter_mut().zip(&other.grads) {
            debug_assert_eq!(id_a, id_b, "replicas must agree on parameter order");
            grad.axpy(1.0, incoming)
                .expect("replica gradient shapes match");
        }
        self.loss += other.loss;
    }

    pub(crate) fn scale(&mut self, factor: f32) {
        for (_, grad) in &mut self.grads {
            grad.scale_inplace(factor);
        }
        self.loss *= factor;
    }
}

/// Folds a power-of-two number of leaves as a balanced binary tree,
/// always keeping the left operand — the single float association every
/// replica count must reproduce.
pub(crate) fn tree_fold(mut level: Vec<GradSample>) -> GradSample {
    assert!(
        !level.is_empty() && level.len().is_power_of_two(),
        "tree fold needs a power-of-two leaf count, got {}",
        level.len()
    );
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len() / 2);
        let mut pairs = level.into_iter();
        while let (Some(mut left), Some(right)) = (pairs.next(), pairs.next()) {
            left.merge(&right);
            next.push(left);
        }
        level = next;
    }
    level.pop().expect("non-empty level")
}

/// Serial reference trainer: the canonical reduction tree of
/// [`crate::pipeline::PipelineTrainer`] executed on one executor. This is
/// the oracle every `(P, K)` layout is bit-exact against, and the fair
/// serial contender for wall-clock comparisons (same micro-batching).
pub struct MicrobatchTrainer {
    exec: Executor,
    plan: MicrobatchPlan,
    opt: Box<dyn Optimizer>,
    bind: Arc<BindFn<LmBatch>>,
    loss: NodeId,
    sim: Option<DeviceSim>,
    lanes: usize,
}

impl MicrobatchTrainer {
    /// Builds a serial micro-batch trainer around an already-bound
    /// executor.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint if
    /// `micro_batches` cannot tile `lanes`.
    pub fn new(
        exec: Executor,
        lanes: usize,
        micro_batches: usize,
        opt: Box<dyn Optimizer>,
        bind: Arc<BindFn<LmBatch>>,
        loss: NodeId,
        sim_spec: Option<DeviceSpec>,
    ) -> Result<Self, String> {
        let plan = MicrobatchPlan::new(lanes, micro_batches)?;
        Ok(MicrobatchTrainer {
            exec,
            plan,
            opt,
            bind,
            loss,
            sim: sim_spec.map(DeviceSim::new),
            lanes,
        })
    }

    /// Convenience constructor for the word-level LM.
    ///
    /// # Errors
    ///
    /// Propagates [`MicrobatchTrainer::new`] errors.
    pub fn for_word_lm(
        lm: &WordLm,
        exec: Executor,
        lanes: usize,
        micro_batches: usize,
        opt: Box<dyn Optimizer>,
        sim_spec: Option<DeviceSpec>,
    ) -> Result<Self, String> {
        let model = lm.clone();
        MicrobatchTrainer::new(
            exec,
            lanes,
            micro_batches,
            opt,
            Arc::new(move |batch: &LmBatch| model.bindings(batch)),
            lm.loss,
            sim_spec,
        )
    }

    /// Runs one global step: per-micro-batch gradients, balanced tree
    /// fold, `1/M` scaling, optimizer update. The report carries one
    /// [`StageStepStats`] (stage 0, replica 0).
    ///
    /// # Errors
    ///
    /// Propagates executor failures.
    ///
    /// # Panics
    ///
    /// Panics if `batch` does not have the planned lane count.
    pub fn step(&mut self, batch: &LmBatch) -> echo_graph::Result<StepReport> {
        assert_eq!(batch.batch, self.lanes, "batch does not match plan");
        let host_start = Instant::now();
        let sim_before = self.sim.as_ref().map_or(0, DeviceSim::elapsed_ns);
        let mut samples = Vec::with_capacity(self.plan.micro());
        let mut peak_bytes = 0u64;
        let mut replays = 0u64;
        for micro in self.plan.cut(batch) {
            let bindings = (self.bind)(&micro);
            let stats = self.exec.train_step(
                &bindings,
                self.loss,
                ExecOptions::default(),
                self.sim.as_mut(),
            )?;
            peak_bytes = peak_bytes.max(stats.peak_bytes);
            replays += stats.replays;
            samples.push(GradSample {
                grads: self.exec.export_grads(),
                loss: stats.loss.expect("numeric plane produces a loss"),
            });
        }
        let compute_host_ns = host_start.elapsed().as_nanos() as u64;
        let sim_ns = self.sim.as_ref().map_or(0, DeviceSim::elapsed_ns) - sim_before;

        let mut folded = tree_fold(samples);
        folded.scale(1.0 / self.plan.micro() as f32);
        self.exec.import_grads(&folded.grads);
        let grad_norm = self.opt.apply(&mut self.exec);
        Ok(StepReport {
            loss: folded.loss,
            grad_norm,
            stages: vec![StageStepStats {
                stage: 0,
                replica: 0,
                sim_ns,
                peak_bytes,
                memory: self.exec.memory_report(),
                replays,
                compute_host_ns,
                plans_built: self.exec.plans_memoized(),
                panels: self.exec.panel_stats(),
            }],
        })
    }

    /// Snapshots the current parameters, sorted by id.
    pub fn export_params(&self) -> Vec<(NodeId, Tensor)> {
        self.exec.export_params()
    }
}

/// MXNet-speedometer-style throughput meter over *simulated* device time.
#[derive(Debug, Clone, Default)]
pub struct Speedometer {
    samples: u64,
    sim_ns: u64,
}

impl Speedometer {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Speedometer::default()
    }

    /// Records one iteration of `batch` samples taking `sim_ns` simulated
    /// nanoseconds.
    pub fn record(&mut self, batch: usize, sim_ns: u64) {
        self.samples += batch as u64;
        self.sim_ns += sim_ns;
    }

    /// Average throughput in samples per (simulated) second.
    pub fn samples_per_second(&self) -> f64 {
        if self.sim_ns == 0 {
            0.0
        } else {
            self.samples as f64 / (self.sim_ns as f64 * 1e-9)
        }
    }
}

/// A training log: `(global_step, simulated_seconds, value)` triples, used
/// to expand training curves against either axis (paper Figure 12 uses
/// both).
#[derive(Debug, Clone, Default)]
pub struct TrainLog {
    entries: Vec<(u64, f64, f64)>,
}

impl TrainLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        TrainLog::default()
    }

    /// Appends an entry.
    pub fn push(&mut self, step: u64, sim_seconds: f64, value: f64) {
        self.entries.push((step, sim_seconds, value));
    }

    /// All entries.
    pub fn entries(&self) -> &[(u64, f64, f64)] {
        &self.entries
    }

    /// The best (minimum) value seen, if any.
    pub fn min_value(&self) -> Option<f64> {
        self.entries
            .iter()
            .map(|&(_, _, v)| v)
            .min_by(|a, b| a.partial_cmp(b).expect("no NaNs in logs"))
    }

    /// The best (maximum) value seen, if any.
    pub fn max_value(&self) -> Option<f64> {
        self.entries
            .iter()
            .map(|&(_, _, v)| v)
            .max_by(|a, b| a.partial_cmp(b).expect("no NaNs in logs"))
    }

    /// Simulated time at which the log first reaches `target` going down
    /// (for "time to quality" comparisons, Figure 12b).
    pub fn time_to_reach_below(&self, target: f64) -> Option<f64> {
        self.entries
            .iter()
            .find(|&&(_, _, v)| v <= target)
            .map(|&(_, t, _)| t)
    }

    /// Simulated time at which the log first reaches `target` going up.
    pub fn time_to_reach_above(&self, target: f64) -> Option<f64> {
        self.entries
            .iter()
            .find(|&&(_, _, v)| v >= target)
            .map(|&(_, t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_graph::{Graph, StashPlan};
    use echo_memory::{DeviceMemory, LayerKind};
    use echo_tensor::Shape;
    use std::sync::Arc;

    fn executor_with_param() -> (Executor, NodeId) {
        let mut g = Graph::new();
        let w = g.param("w", LayerKind::Rnn);
        let mut exec = Executor::new(
            Arc::new(g),
            StashPlan::stash_all(),
            DeviceMemory::with_overhead_model(1 << 20, 0, 0.0),
        );
        exec.bind_param(w, Tensor::full(Shape::d1(4), 1.0)).unwrap();
        (exec, w)
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let (mut exec, w) = executor_with_param();
        exec.grad_mut(w).unwrap().map_inplace(|_| 2.0);
        let mut sgd = Sgd::new(0.1);
        let norm = sgd.step(&mut exec);
        assert!((norm - 4.0).abs() < 1e-6);
        assert!(exec
            .param(w)
            .unwrap()
            .data()
            .iter()
            .all(|&v| (v - 0.8).abs() < 1e-6));
    }

    #[test]
    fn momentum_accumulates() {
        let (mut exec, w) = executor_with_param();
        let mut sgd = Sgd::new(0.1).with_momentum(0.9);
        exec.grad_mut(w).unwrap().map_inplace(|_| 1.0);
        sgd.step(&mut exec);
        let after_one = exec.param(w).unwrap().data()[0];
        exec.grad_mut(w).unwrap().map_inplace(|_| 1.0);
        sgd.step(&mut exec);
        let after_two = exec.param(w).unwrap().data()[0];
        // Second step moves farther than the first thanks to velocity.
        assert!((after_one - after_two) > (1.0 - after_one));
    }

    #[test]
    fn clipping_bounds_update() {
        let (mut exec, w) = executor_with_param();
        exec.grad_mut(w).unwrap().map_inplace(|_| 100.0);
        let mut sgd = Sgd::new(1.0).with_clip_norm(1.0);
        let norm = sgd.step(&mut exec);
        assert!(norm > 100.0);
        // Post-clip gradient norm is 1, so the parameter moved by at most
        // lr * 1 in L2.
        let moved: f64 = exec
            .param(w)
            .unwrap()
            .data()
            .iter()
            .map(|&v| f64::from(1.0 - v).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!((moved - 1.0).abs() < 1e-4, "moved {moved}");
    }

    #[test]
    fn adam_moves_against_gradient_and_adapts() {
        let (mut exec, w) = executor_with_param();
        let mut adam = Adam::new(0.1);
        exec.grad_mut(w).unwrap().map_inplace(|_| 2.0);
        adam.step(&mut exec);
        let after_one = exec.param(w).unwrap().data()[0];
        // First Adam step moves by ~lr regardless of gradient magnitude.
        assert!(
            (1.0 - after_one - 0.1).abs() < 1e-3,
            "step size {after_one}"
        );
        // A second identical step keeps moving the same direction.
        exec.grad_mut(w).unwrap().map_inplace(|_| 2.0);
        adam.step(&mut exec);
        assert!(exec.param(w).unwrap().data()[0] < after_one);
    }

    #[test]
    fn adam_clipping_limits_norm() {
        let (mut exec, w) = executor_with_param();
        exec.grad_mut(w).unwrap().map_inplace(|_| 1000.0);
        let mut adam = Adam::new(0.1).with_clip_norm(1.0);
        let norm = adam.step(&mut exec);
        assert!(norm > 1000.0);
        // Post-clip gradient magnitude is bounded; Adam's update stays ~lr.
        let moved = 1.0 - exec.param(w).unwrap().data()[0];
        assert!(moved > 0.0 && moved < 0.11, "moved {moved}");
    }

    fn sample(v: f32) -> GradSample {
        GradSample {
            grads: vec![(NodeId::from_index(0), Tensor::full(Shape::d1(2), v))],
            loss: v,
        }
    }

    #[test]
    fn tree_fold_is_balanced_not_sequential() {
        // With exact powers of two the fold is checkable directly.
        let folded = tree_fold((0..8).map(|i| sample(i as f32)).collect());
        assert_eq!(folded.loss, 28.0);
        assert_eq!(folded.grads[0].1.data(), &[28.0, 28.0]);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn tree_fold_rejects_non_power_of_two() {
        let _ = tree_fold((0..3).map(|i| sample(i as f32)).collect());
    }

    #[test]
    fn tree_fold_matches_split_subtrees() {
        // Folding 8 leaves whole must equal folding two 4-leaf halves and
        // merging — the exact invariant the cross-replica reduce relies
        // on. Use values whose pairwise sums are inexact in f32 to make
        // association visible.
        let values: Vec<f32> = (0..8).map(|i| 0.1 + 0.7 * i as f32).collect();
        let whole = tree_fold(values.iter().map(|&v| sample(v)).collect());
        let mut left = tree_fold(values[..4].iter().map(|&v| sample(v)).collect());
        let right = tree_fold(values[4..].iter().map(|&v| sample(v)).collect());
        left.merge(&right);
        assert_eq!(whole.loss.to_bits(), left.loss.to_bits());
        assert_eq!(
            whole.grads[0].1.data()[0].to_bits(),
            left.grads[0].1.data()[0].to_bits()
        );
    }

    #[test]
    fn speedometer_averages() {
        let mut s = Speedometer::new();
        s.record(128, 1_000_000_000);
        s.record(128, 1_000_000_000);
        assert!((s.samples_per_second() - 128.0).abs() < 1e-9);
    }

    #[test]
    fn train_log_queries() {
        let mut log = TrainLog::new();
        log.push(0, 0.0, 10.0);
        log.push(1, 1.0, 5.0);
        log.push(2, 2.0, 7.0);
        assert_eq!(log.min_value(), Some(5.0));
        assert_eq!(log.time_to_reach_below(6.0), Some(1.0));
        assert_eq!(log.time_to_reach_above(9.0), Some(0.0));
        assert_eq!(log.time_to_reach_below(1.0), None);
    }
}
