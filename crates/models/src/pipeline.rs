//! The one multi-worker trainer: GPipe-style pipelining over `P` graph
//! stages, replicated `K` ways. A one-stage partition is plain data
//! parallelism — the paper's multi-GPU setting ([§6.6], Figure 17) — and
//! `K = 1` is plain pipelining.
//!
//! [`echo_graph::partition_stages`] cuts the graph into `P` contiguous
//! stages at parameter-safe boundaries. This module runs those stages on
//! `K × P` worker threads: within a replica, activations flow downstream
//! and activation-gradients flow upstream over channels in GPipe
//! fill–drain order; across replicas, each stage's per-micro-batch
//! gradient leaves join one canonical reduction tree. The coordinator
//! owns a full-graph template executor: it folds the per-stage gradients,
//! runs the optimizer once over the whole parameter set (so global
//! clip-norm sees exactly what the serial trainer sees), and broadcasts
//! the updated parameters with the next step command.
//!
//! # Bit-exactness
//!
//! Floating-point addition is not associative, so the gradient of a step
//! is fixed as one *canonical reduction tree*: the global batch is cut
//! into `M` micro-batches ([`MicrobatchPlan`], `M` a power of two), their
//! gradients are the leaves, and the step gradient is the balanced
//! binary-tree fold of the leaves, always keeping the left operand,
//! scaled by `1/M` at the root. Replica `k` of `K` (a power of two
//! dividing `M`) owns the aligned span of `M/K` leaves — exactly a
//! subtree — and folds it locally; each stage's cross-replica reduce then
//! walks the remaining `log₂ K` levels of the *same* tree. Every addition
//! therefore associates identically for every `K`, and identically to the
//! serial [`MicrobatchTrainer`](crate::MicrobatchTrainer).
//!
//! Along the stage axis, stages are contiguous original-index ranges, so
//! every consumer of an activation in a *later* stage has a larger
//! original id than any consumer in its own stage. The seeded stage step
//! ([`Executor::stage_step`]) applies the downstream partial first and
//! then accumulates in-stage contributions in descending order — the
//! exact association of the serial descending-index backward walk. By
//! induction from the ones-seed at the loss in the last stage, every
//! activation gradient, parameter gradient, and therefore the optimizer
//! update is bit-identical to serial execution, for every `(P, K)`
//! layout. At `P = 1` the stage step is literally `train_step`.
//!
//! # Recomputation
//!
//! Each stage executor runs under the stage-local slice of the
//! *normalized* stash plan ([`StagePartition::stage_plans`]): interface
//! and protected values are stashed (they must survive the cut), and no
//! recompute segment straddles a cut. A serial executor running the
//! normalized full-graph plan performs the same replays as the pipeline
//! — the determinism suite's replay-count contract.
//!
//! # One interpreter
//!
//! A stage runs the same plan-driven loops as the serial trainer. Its two
//! execution plans — the fill-phase inference forward and the seeded
//! drain-phase step ([`StagePartition::stage_exec_plans`]) — are built
//! once per stage in [`PipelineTrainer::new`] and installed on all `K`
//! replicas' executors, so stage workers get buffer reuse and plan
//! nothing at step time.
//!
//! # Fault containment
//!
//! A worker that fails — an executor error or a panic in stage code —
//! reports the failure and exits, dropping its channel endpoints. Peers
//! blocked on those channels observe the disconnect, fail in turn, and
//! exit; [`PipelineTrainer::train_step`] collects the errors and returns
//! `Err` instead of deadlocking, and the trainer stays poisoned
//! afterwards.
//!
//! [§6.6]: https://arxiv.org/abs/1805.08899

use crate::trainer::{tree_fold, BindFn, GradSample, Optimizer};
use crate::word_lm::WordLm;
use crossbeam::channel::{unbounded, Receiver, Sender};
use echo_data::{LmBatch, MicrobatchPlan};
use echo_device::{DeviceSim, DeviceSpec};
use echo_graph::{
    ExecOptions, Executor, NodeId, StageExecPlans, StagePartition, StageSpec, StashPlan,
};
use echo_memory::{DeviceMemory, MemoryReport};
use echo_tensor::{PanelStats, Shape, Tensor};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Cuts a global batch into the planned number of micro-batches.
pub type PipelineCutFn<B> = dyn Fn(&B) -> Vec<B> + Send + Sync;

/// Device-memory capacity of every stage executor.
const STAGE_MEMORY_BYTES: u64 = 1 << 30;

/// Configuration of [`PipelineTrainer`]: `K` replicas of the stage
/// pipeline over `M` micro-batch leaves.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Replica count `K`. Must be a power of two dividing
    /// `micro_batches`.
    pub replicas: usize,
    /// Micro-batches per global step `M` — both the pipeline's fill depth
    /// and the leaves of the canonical reduction tree. Must be a power of
    /// two dividing the batch lanes.
    pub micro_batches: usize,
    /// Simulated device per stage worker (`None` disables the device
    /// model and its per-worker clocks).
    pub sim_spec: Option<DeviceSpec>,
}

impl PipelineOptions {
    /// `replicas` replicas over `micro_batches` leaves, without device
    /// simulation.
    pub fn new(replicas: usize, micro_batches: usize) -> Self {
        PipelineOptions {
            replicas,
            micro_batches,
            sim_spec: None,
        }
    }

    /// Attaches a simulated device to every stage worker.
    #[must_use]
    pub fn with_sim(mut self, spec: DeviceSpec) -> Self {
        self.sim_spec = Some(spec);
        self
    }
}

/// One worker's statistics for one global step.
#[derive(Debug, Clone)]
pub struct StageStepStats {
    /// Pipeline stage index.
    pub stage: usize,
    /// Replica rank.
    pub replica: usize,
    /// Simulated device time spent by this worker.
    pub sim_ns: u64,
    /// Peak device bytes across this worker's micro-batches.
    pub peak_bytes: u64,
    /// This worker's executor memory report after the step
    /// ([`Executor::memory_report`]). Constant from step to step.
    pub memory: MemoryReport,
    /// Segment replays performed by this worker's backwards.
    pub replays: u64,
    /// Host wall-clock nanoseconds the worker spent in the step, before
    /// the cross-replica reduce.
    pub compute_host_ns: u64,
    /// Execution plans this worker's executor has had to build on demand
    /// so far (cumulative). A stage's plans are installed at
    /// construction, so this stays at zero unless a step presents a
    /// signature they do not serve; a serial executor nobody installed a
    /// plan on counts the one it built on its first step.
    pub plans_built: u64,
    /// This worker's executor's packed-panel counters after the step
    /// ([`Executor::panel_stats`]); `packs` is cumulative.
    pub panels: PanelStats,
}

/// The outcome of one global training step.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Mean loss over the global batch (tree-folded like the gradients,
    /// so it is bit-identical across layouts).
    pub loss: f32,
    /// Pre-clip global gradient norm seen by the optimizer.
    pub grad_norm: f64,
    /// Per-worker statistics, sorted by `(stage, replica)`.
    pub stages: Vec<StageStepStats>,
}

impl StepReport {
    /// Total recomputation replays across all stages and replicas.
    pub fn total_replays(&self) -> u64 {
        self.stages.iter().map(|s| s.replays).sum()
    }

    /// Peak device bytes over all stage executors.
    pub fn max_stage_peak_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.peak_bytes).max().unwrap_or(0)
    }
}

/// Post-step parameter snapshot (original ids, sorted), shared across
/// all `K × P` workers with the next step command.
type ParamSet = Arc<Vec<(NodeId, Tensor)>>;

/// Activations for one micro-batch crossing one cut, in the owning
/// stage's `send_interface` order.
struct ActMsg {
    micro: usize,
    values: Vec<Tensor>,
}

/// Activation-gradients for one micro-batch crossing one cut backwards,
/// aligned with the upstream stage's `send_interface`. `None` means no
/// gradient reached that interface value downstream.
struct GradMsg {
    micro: usize,
    grads: Vec<Option<Tensor>>,
}

/// A stage worker's report for one global step.
struct StageDone {
    stage: usize,
    replica: usize,
    stats: StageStepStats,
    /// The stage's cross-replica-folded gradient sample — present only
    /// from each stage's rank-0 worker.
    folded: Option<GradSample>,
}

/// Commands from the coordinator to a stage worker.
enum PipeCmd<B> {
    /// Run this replica's micro-batches through the stage; import
    /// `params` (if present) first.
    Step {
        micros: Vec<B>,
        params: Option<ParamSet>,
    },
    /// Panic mid-step on the next `Step` — the fault-containment
    /// regression fixture.
    #[cfg(test)]
    Sabotage,
}

/// Stage-local handles a worker needs, precomputed once per stage and
/// shared by its `K` replicas.
struct StageWiring {
    spec: Arc<StageSpec>,
    plan: StashPlan,
    /// The stage's fill and drain execution plans.
    exec_plans: StageExecPlans,
    /// `(original, local)` ids of the batch inputs this stage binds.
    batch_pairs: Vec<(NodeId, NodeId)>,
    /// `(original, local)` ids of the parameters this stage owns.
    param_pairs: Vec<(NodeId, NodeId)>,
    /// Received interface, local ids (ascending original order).
    recv_local: Vec<NodeId>,
    /// Sent interface, local ids (ascending original order).
    send_local: Vec<NodeId>,
    /// The owned subset of `send_local` — the forward outputs; the rest
    /// are pass-through inputs whose values come from the local bindings.
    send_owned: Vec<NodeId>,
    /// Local loss id and shape — last stage only.
    loss_local: Option<NodeId>,
    loss_shape: Option<Shape>,
}

impl StageWiring {
    fn build(
        spec: Arc<StageSpec>,
        plan: StashPlan,
        exec_plans: StageExecPlans,
        last: bool,
    ) -> Result<StageWiring, String> {
        let pairs = |origs: &[NodeId], what: &str| {
            origs
                .iter()
                .map(|&orig| {
                    spec.to_local(orig)
                        .map(|local| (orig, local))
                        .ok_or_else(|| format!("stage {}: unmapped {what} {orig}", spec.index))
                })
                .collect::<Result<Vec<_>, String>>()
        };
        let batch_pairs = pairs(&spec.batch_inputs, "batch input")?;
        let param_pairs = pairs(&spec.params, "parameter")?;
        // The last stage's step plan is seeded at (exactly) the loss.
        let loss_local = last.then(|| exec_plans.step.target());
        let loss_shape = loss_local.map(|local| spec.shapes[local.index()].clone());
        Ok(StageWiring {
            recv_local: spec.local_recv(),
            send_local: spec.local_send(),
            send_owned: spec.local_send_owned(),
            spec,
            plan,
            exec_plans,
            batch_pairs,
            param_pairs,
            loss_local,
            loss_shape,
        })
    }

    /// The stage-local slice of a full-graph parameter snapshot.
    fn local_params(&self, params: &[(NodeId, Tensor)]) -> Result<Vec<(NodeId, Tensor)>, String> {
        self.param_pairs
            .iter()
            .map(|&(orig, local)| {
                params
                    .binary_search_by_key(&orig, |&(id, _)| id)
                    .map(|i| (local, params[i].1.clone()))
                    .map_err(|_| format!("stage {}: no value for param {orig}", self.spec.index))
            })
            .collect()
    }
}

/// Everything one stage worker thread owns.
struct StageWorker<B> {
    stage: usize,
    replica: usize,
    exec: Executor,
    sim: Option<DeviceSim>,
    bind: Arc<BindFn<B>>,
    wiring: Arc<StageWiring>,
    cmd_rx: Receiver<PipeCmd<B>>,
    done_tx: Sender<Result<StageDone, String>>,
    /// Activations from the previous stage (`None` at stage 0).
    act_rx: Option<Receiver<ActMsg>>,
    /// Activations to the next stage (`None` at the last stage).
    act_tx: Option<Sender<ActMsg>>,
    /// Activation-gradients from the next stage (`None` at the last
    /// stage).
    grad_rx: Option<Receiver<GradMsg>>,
    /// Activation-gradients to the previous stage (`None` at stage 0).
    grad_tx: Option<Sender<GradMsg>>,
    /// Cross-replica reduce-tree inboxes for this stage,
    /// level-ascending: at level `l` this worker receives the partial
    /// fold of the subtree owned by replica `replica + 2^l`.
    down: Vec<Receiver<GradSample>>,
    /// Parent in the stage's reduce tree; `None` at replica rank 0.
    up: Option<Sender<GradSample>>,
    #[cfg(test)]
    sabotage: bool,
}

impl<B> StageWorker<B> {
    fn run(mut self) {
        while let Ok(cmd) = self.cmd_rx.recv() {
            match cmd {
                #[cfg(test)]
                PipeCmd::Sabotage => self.sabotage = true,
                PipeCmd::Step { micros, params } => {
                    let unwound = catch_unwind(AssertUnwindSafe(|| self.step(&micros, params)));
                    let result = unwound.unwrap_or_else(|payload| {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        Err(format!(
                            "stage {} replica {} worker panicked: {msg}",
                            self.stage, self.replica
                        ))
                    });
                    let failed = result.is_err();
                    let _ = self.done_tx.send(result);
                    if failed {
                        // Exit, dropping every channel endpoint: peers
                        // blocked on this worker observe the disconnect
                        // and unwind the step instead of deadlocking.
                        return;
                    }
                }
            }
        }
    }

    fn fail(&self, what: &str) -> String {
        format!("stage {} replica {}: {what}", self.stage, self.replica)
    }

    /// One global step from this worker's perspective: fill (forward all
    /// micro-batches, streaming activations downstream), drain (seeded
    /// stage backward per micro-batch, streaming gradients upstream),
    /// then the stage's cross-replica gradient fold.
    fn step(&mut self, micros: &[B], params: Option<ParamSet>) -> Result<StageDone, String> {
        if let Some(params) = params {
            let local = self.wiring.local_params(&params)?;
            self.exec.import_params(&local);
        }
        #[cfg(test)]
        if self.sabotage {
            panic!("injected stage fault");
        }
        let host_start = Instant::now();
        let sim_before = self.sim.as_ref().map_or(0, DeviceSim::elapsed_ns);

        // Fill: forward every micro-batch in order, sending interface
        // activations downstream as soon as they exist.
        let fwd_opts = ExecOptions { training: false };
        let mut stage_bindings: Vec<HashMap<NodeId, Tensor>> = Vec::with_capacity(micros.len());
        for (m, micro) in micros.iter().enumerate() {
            let full = (self.bind)(micro);
            let mut local = HashMap::new();
            for &(orig, local_id) in &self.wiring.batch_pairs {
                let value = full
                    .get(&orig)
                    .ok_or_else(|| self.fail(&format!("binding for input {orig} missing")))?;
                local.insert(local_id, value.clone());
            }
            if let Some(rx) = &self.act_rx {
                let msg = rx
                    .recv()
                    .map_err(|_| self.fail("upstream stage disconnected during fill"))?;
                if msg.micro != m {
                    return Err(self.fail(&format!(
                        "activation stream out of order: got micro {}, expected {m}",
                        msg.micro
                    )));
                }
                for (&local_id, value) in self.wiring.recv_local.iter().zip(msg.values) {
                    local.insert(local_id, value);
                }
            }
            if let Some(tx) = &self.act_tx {
                let owned = self
                    .exec
                    .forward_many(&local, &self.wiring.send_owned, fwd_opts, self.sim.as_mut())
                    .map_err(|e| {
                        format!(
                            "stage {} replica {} forward (micro {m}): {e}",
                            self.stage, self.replica
                        )
                    })?;
                let mut produced = owned.into_iter();
                let values = self
                    .wiring
                    .send_local
                    .iter()
                    .map(|local_id| match local.get(local_id) {
                        // A received activation passed through.
                        Some(value) => value.clone(),
                        None => produced.next().expect("one value per owned send node"),
                    })
                    .collect();
                tx.send(ActMsg { micro: m, values })
                    .map_err(|_| self.fail("downstream stage disconnected during fill"))?;
            }
            stage_bindings.push(local);
        }

        // Drain: seeded stage step per micro-batch, in micro order. The
        // stage forward is re-run inside `stage_step` under the
        // stage-local stash plan (re-materialization), so the fill phase
        // holds no activations across micro-batches.
        let mut samples = Vec::with_capacity(micros.len());
        let mut peak_bytes = 0u64;
        let mut replays = 0u64;
        for (m, local) in stage_bindings.iter().enumerate() {
            let seeds: Vec<(NodeId, Tensor)> = if let Some(rx) = &self.grad_rx {
                let msg = rx
                    .recv()
                    .map_err(|_| self.fail("downstream stage disconnected during drain"))?;
                if msg.micro != m {
                    return Err(self.fail(&format!(
                        "gradient stream out of order: got micro {}, expected {m}",
                        msg.micro
                    )));
                }
                self.wiring
                    .send_local
                    .iter()
                    .zip(msg.grads)
                    .filter_map(|(&local_id, grad)| grad.map(|g| (local_id, g)))
                    .collect()
            } else {
                let loss_local = self.wiring.loss_local.expect("last stage carries the loss");
                let shape = self.wiring.loss_shape.clone().expect("loss shape known");
                vec![(loss_local, Tensor::full(shape, 1.0))]
            };
            let outputs: Vec<NodeId> = match self.wiring.loss_local {
                Some(loss_local) => vec![loss_local],
                None => self.wiring.send_owned.clone(),
            };
            let out = self
                .exec
                .stage_step(
                    local,
                    &outputs,
                    &seeds,
                    &self.wiring.recv_local,
                    ExecOptions::default(),
                    self.sim.as_mut(),
                )
                .map_err(|e| {
                    format!(
                        "stage {} replica {} backward (micro {m}): {e}",
                        self.stage, self.replica
                    )
                })?;
            if let Some(tx) = &self.grad_tx {
                tx.send(GradMsg {
                    micro: m,
                    grads: out.input_grads,
                })
                .map_err(|_| self.fail("upstream stage disconnected during drain"))?;
            }
            let loss = match self.wiring.loss_local {
                Some(_) => out.outputs[0].data()[0],
                None => 0.0,
            };
            peak_bytes = peak_bytes.max(out.stats.peak_bytes);
            replays += out.stats.replays;
            let grads = self
                .exec
                .export_grads()
                .into_iter()
                .map(|(local_id, grad)| (self.wiring.spec.to_orig(local_id), grad))
                .collect();
            samples.push(GradSample { grads, loss });
        }
        let compute_host_ns = host_start.elapsed().as_nanos() as u64;
        let sim_ns = self.sim.as_ref().map_or(0, DeviceSim::elapsed_ns) - sim_before;

        // This stage's slice of the canonical reduction tree: local
        // subtree fold, then the cross-replica levels. Receivers keep
        // the left operand.
        let mut acc = tree_fold(samples);
        for rx in &self.down {
            let partial = rx
                .recv()
                .map_err(|_| self.fail("reduce-tree peer disconnected"))?;
            acc.merge(&partial);
        }
        let folded = match &self.up {
            Some(up) => {
                up.send(acc)
                    .map_err(|_| self.fail("reduce-tree parent disconnected"))?;
                None
            }
            None => Some(acc),
        };
        Ok(StageDone {
            stage: self.stage,
            replica: self.replica,
            stats: StageStepStats {
                stage: self.stage,
                replica: self.replica,
                sim_ns,
                peak_bytes,
                memory: self.exec.memory_report(),
                replays,
                compute_host_ns,
                plans_built: self.exec.plans_memoized(),
                panels: self.exec.panel_stats(),
            },
            folded,
        })
    }
}

/// Pipelined (and optionally replicated) trainer: `K × P` stage workers
/// plus a coordinator-owned full-graph template executor that runs the
/// optimizer. See the module docs for the execution model and the
/// bit-exactness contract.
pub struct PipelineTrainer<B> {
    stages: usize,
    replicas: usize,
    plan: MicrobatchPlan,
    cut: Arc<PipelineCutFn<B>>,
    template: Executor,
    opt: Box<dyn Optimizer>,
    pending_params: Option<ParamSet>,
    cmd_txs: Vec<Sender<PipeCmd<B>>>,
    done_rx: Receiver<Result<StageDone, String>>,
    handles: Vec<JoinHandle<()>>,
    poisoned: Option<String>,
}

impl<B: Clone + Send + 'static> PipelineTrainer<B> {
    /// Spawns the `K × P` worker fleet. Stage executors start from
    /// `template`'s parameters; `template` itself never executes — the
    /// coordinator keeps it as the canonical parameter/gradient store
    /// the optimizer runs on.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint: an invalid
    /// partition, a micro-batch plan that cannot tile `lanes` or align
    /// with `replicas`, a loss outside the last stage, or worker
    /// construction failure.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        template: Executor,
        partition: &StagePartition,
        stash_plan: &StashPlan,
        lanes: usize,
        options: &PipelineOptions,
        opt: Box<dyn Optimizer>,
        bind: Arc<BindFn<B>>,
        cut: Arc<PipelineCutFn<B>>,
        loss: NodeId,
    ) -> Result<Self, String> {
        partition.validate().map_err(|e| e.to_string())?;
        let stages = partition.stage_count();
        let replicas = options.replicas;
        let plan = MicrobatchPlan::new(lanes, options.micro_batches)?;
        if !plan.supports_replicas(replicas) {
            return Err(format!(
                "{replicas} replicas cannot own aligned subtrees of {} micro-batches",
                plan.micro()
            ));
        }
        let local_plans = partition.stage_plans(stash_plan);
        // One plan pair per stage, shared by its K replicas.
        let exec_plans = partition
            .stage_exec_plans(stash_plan, loss)
            .map_err(|e| format!("stage planning: {e}"))?;
        let params = template.export_params();
        let wirings: Vec<Arc<StageWiring>> = partition
            .stages()
            .iter()
            .zip(local_plans)
            .zip(exec_plans)
            .map(|((spec, local_plan), exec_plans)| {
                StageWiring::build(
                    Arc::new(spec.clone()),
                    local_plan,
                    exec_plans,
                    spec.index == stages - 1,
                )
                .map(Arc::new)
            })
            .collect::<Result<Vec<_>, String>>()?;

        // Warm the shared kernel pool off the first step's critical path.
        let _ = echo_tensor::pool::global();

        let idx = |k: usize, s: usize| k * stages + s;
        let (done_tx, done_rx) = unbounded();
        let mut cmd_txs = Vec::with_capacity(replicas * stages);
        let mut cmd_rxs = Vec::with_capacity(replicas * stages);
        for _ in 0..replicas * stages {
            let (tx, rx) = unbounded();
            cmd_txs.push(tx);
            cmd_rxs.push(rx);
        }

        // Intra-replica activation/gradient chains between consecutive
        // stages.
        let mut act_rx: Vec<Option<Receiver<ActMsg>>> =
            (0..replicas * stages).map(|_| None).collect();
        let mut act_tx: Vec<Option<Sender<ActMsg>>> =
            (0..replicas * stages).map(|_| None).collect();
        let mut grad_rx: Vec<Option<Receiver<GradMsg>>> =
            (0..replicas * stages).map(|_| None).collect();
        let mut grad_tx: Vec<Option<Sender<GradMsg>>> =
            (0..replicas * stages).map(|_| None).collect();
        for k in 0..replicas {
            for s in 0..stages.saturating_sub(1) {
                let (atx, arx) = unbounded();
                act_tx[idx(k, s)] = Some(atx);
                act_rx[idx(k, s + 1)] = Some(arx);
                let (gtx, grx) = unbounded();
                grad_tx[idx(k, s + 1)] = Some(gtx);
                grad_rx[idx(k, s)] = Some(grx);
            }
        }

        // Per-stage cross-replica reduce trees: at level l, replica r
        // (aligned to 2^(l+1)) receives from replica r + 2^l. Building
        // levels in ascending order keeps each inbox list level-ascending.
        let mut down: Vec<Vec<Receiver<GradSample>>> =
            (0..replicas * stages).map(|_| Vec::new()).collect();
        let mut up: Vec<Option<Sender<GradSample>>> =
            (0..replicas * stages).map(|_| None).collect();
        for s in 0..stages {
            let mut level_stride = 2;
            while level_stride <= replicas {
                let half = level_stride / 2;
                for receiver in (0..replicas).step_by(level_stride) {
                    let sender = receiver + half;
                    let (tx, rx) = unbounded();
                    down[idx(receiver, s)].push(rx);
                    up[idx(sender, s)] = Some(tx);
                }
                level_stride *= 2;
            }
        }

        let mut handles = Vec::with_capacity(replicas * stages);
        let mut cmd_rxs = cmd_rxs.into_iter();
        for k in 0..replicas {
            for (s, stage_wiring) in wirings.iter().enumerate() {
                let i = idx(k, s);
                let wiring = Arc::clone(stage_wiring);
                let mem = DeviceMemory::with_overhead_model(STAGE_MEMORY_BYTES, 0, 0.0);
                let mut exec =
                    Executor::new(Arc::clone(&wiring.spec.graph), wiring.plan.clone(), mem);
                for (local, value) in wiring.local_params(&params)? {
                    exec.bind_param(local, value)
                        .map_err(|e| format!("stage {s} replica {k} param bind: {e}"))?;
                }
                let StageExecPlans { fill, step } = &wiring.exec_plans;
                for plan in fill.iter().chain([step]) {
                    exec.set_exec_plan(Arc::clone(plan))
                        .map_err(|e| format!("stage {s} replica {k} plan install: {e}"))?;
                }
                let worker = StageWorker {
                    stage: s,
                    replica: k,
                    exec,
                    sim: options.sim_spec.clone().map(DeviceSim::new),
                    bind: bind.clone(),
                    wiring,
                    cmd_rx: cmd_rxs.next().expect("one command inbox per worker"),
                    done_tx: done_tx.clone(),
                    act_rx: act_rx[i].take(),
                    act_tx: act_tx[i].take(),
                    grad_rx: grad_rx[i].take(),
                    grad_tx: grad_tx[i].take(),
                    down: std::mem::take(&mut down[i]),
                    up: up[i].take(),
                    #[cfg(test)]
                    sabotage: false,
                };
                let handle = std::thread::Builder::new()
                    .name(format!("pipe-r{k}-s{s}"))
                    .spawn(move || worker.run())
                    .map_err(|e| format!("spawning stage {s} replica {k}: {e}"))?;
                handles.push(handle);
            }
        }

        Ok(PipelineTrainer {
            stages,
            replicas,
            plan,
            cut,
            template,
            opt,
            pending_params: None,
            cmd_txs,
            done_rx,
            handles,
            poisoned: None,
        })
    }

    /// Runs one global step: fill–drain over all stages and replicas,
    /// canonical gradient fold, one optimizer update on the template,
    /// and a parameter broadcast with the next step.
    ///
    /// # Errors
    ///
    /// Returns the first worker failure (executor error or stage panic).
    /// After a failure the trainer is poisoned and every further call
    /// fails immediately.
    pub fn train_step(&mut self, batch: &B) -> Result<StepReport, String> {
        if let Some(earlier) = &self.poisoned {
            return Err(format!("pipeline poisoned by earlier failure: {earlier}"));
        }
        let micros = (self.cut)(batch);
        if micros.len() != self.plan.micro() {
            return Err(format!(
                "batch cut into {} micro-batches, plan expects {}",
                micros.len(),
                self.plan.micro()
            ));
        }
        let params = self.pending_params.take();
        let mut expected = 0usize;
        let mut first_error: Option<String> = None;
        for k in 0..self.replicas {
            let span = self.plan.replica_leaves(k, self.replicas);
            let shard = micros[span].to_vec();
            for s in 0..self.stages {
                let sent = self.cmd_txs[k * self.stages + s].send(PipeCmd::Step {
                    micros: shard.clone(),
                    params: params.clone(),
                });
                match sent {
                    Ok(()) => expected += 1,
                    Err(_) => {
                        first_error.get_or_insert(format!(
                            "stage {s} replica {k} worker is gone before the step"
                        ));
                    }
                }
            }
        }

        let mut stats: Vec<Option<StageStepStats>> = vec![None; self.stages * self.replicas];
        let mut folded: Vec<Option<GradSample>> = (0..self.stages).map(|_| None).collect();
        for _ in 0..expected {
            match self.done_rx.recv() {
                Ok(Ok(done)) => {
                    stats[done.replica * self.stages + done.stage] = Some(done.stats);
                    if let Some(sample) = done.folded {
                        folded[done.stage] = Some(sample);
                    }
                }
                Ok(Err(e)) => {
                    first_error.get_or_insert(e);
                }
                Err(_) => {
                    first_error.get_or_insert("all stage workers disconnected".to_string());
                    break;
                }
            }
        }
        if first_error.is_none() && folded.iter().any(Option::is_none) {
            first_error = Some("a stage produced no folded gradients".to_string());
        }
        if let Some(e) = first_error {
            self.poisoned = Some(e.clone());
            return Err(e);
        }

        // Assemble the disjoint per-stage gradients into the template,
        // exactly as the serial trainer would: scale by 1/M, import,
        // one optimizer pass over the full parameter set.
        let scale = 1.0 / self.plan.micro() as f32;
        let mut loss = 0.0f32;
        let mut all_grads: Vec<(NodeId, Tensor)> = Vec::new();
        for (s, sample) in folded.into_iter().enumerate() {
            let mut sample = sample.expect("checked above");
            sample.scale(scale);
            if s == self.stages - 1 {
                loss = sample.loss;
            }
            all_grads.extend(sample.grads);
        }
        all_grads.sort_by_key(|&(id, _)| id);
        self.template.import_grads(&all_grads);
        let grad_norm = self.opt.apply(&mut self.template);
        self.pending_params = Some(Arc::new(self.template.export_params()));

        let mut stage_stats = Vec::with_capacity(self.stages * self.replicas);
        for k in 0..self.replicas {
            for s in 0..self.stages {
                stage_stats.push(
                    stats[k * self.stages + s]
                        .clone()
                        .expect("every commanded worker reported"),
                );
            }
        }
        stage_stats.sort_by_key(|st| (st.stage, st.replica));
        Ok(StepReport {
            loss,
            grad_norm,
            stages: stage_stats,
        })
    }

    /// Snapshots the coordinator's (authoritative) parameters, sorted by
    /// original id.
    pub fn export_params(&self) -> Vec<(NodeId, Tensor)> {
        self.template.export_params()
    }

    /// Arms the fault-containment fixture: the next step panics inside
    /// the given worker's stage code.
    #[cfg(test)]
    fn inject_panic(&self, stage: usize, replica: usize) {
        let _ = self.cmd_txs[replica * self.stages + stage].send(PipeCmd::Sabotage);
    }
}

impl PipelineTrainer<LmBatch> {
    /// Convenience constructor for the word-level LM.
    ///
    /// # Errors
    ///
    /// Propagates [`PipelineTrainer::new`] errors.
    pub fn for_word_lm(
        lm: &WordLm,
        template: Executor,
        partition: &StagePartition,
        stash_plan: &StashPlan,
        lanes: usize,
        options: &PipelineOptions,
        opt: Box<dyn Optimizer>,
    ) -> Result<Self, String> {
        let model = lm.clone();
        let plan = MicrobatchPlan::new(lanes, options.micro_batches)?;
        PipelineTrainer::new(
            template,
            partition,
            stash_plan,
            lanes,
            options,
            opt,
            Arc::new(move |batch: &LmBatch| model.bindings(batch)),
            Arc::new(move |batch: &LmBatch| plan.cut(batch)),
            lm.loss,
        )
    }
}

impl<B> Drop for PipelineTrainer<B> {
    fn drop(&mut self) {
        // Closing the command channels ends every worker's recv loop;
        // then reap the threads.
        self.cmd_txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::Sgd;
    use crate::word_lm::{WordLm, WordLmHyper};
    use echo_memory::{DataStructureKind, MemoryBreakdown};
    use echo_rnn::LstmBackend;

    const LANES: usize = 4;
    const MICRO: usize = 2;

    fn tiny_lm() -> WordLm {
        WordLm::build(WordLmHyper {
            vocab: 23,
            embed: 6,
            hidden: 8,
            layers: 2,
            seq_len: 4,
            backend: LstmBackend::Default,
        })
    }

    /// A stash-all trainer over `stages` stages and `replicas` replicas.
    fn trainer(lm: &WordLm, stages: usize, replicas: usize) -> PipelineTrainer<LmBatch> {
        let mut template = Executor::new(
            Arc::clone(&lm.graph),
            StashPlan::stash_all(),
            DeviceMemory::with_overhead_model(1 << 30, 0, 0.0),
        );
        lm.bind_params(&mut template, 11).unwrap();
        PipelineTrainer::for_word_lm(
            lm,
            template,
            &lm.partition(LANES / MICRO, stages).unwrap(),
            &StashPlan::stash_all(),
            LANES,
            &PipelineOptions::new(replicas, MICRO),
            Box::new(Sgd::new(0.1)),
        )
        .unwrap()
    }

    fn synth_batch(lm: &WordLm) -> LmBatch {
        let t = lm.hyper.seq_len;
        let ids: Vec<f32> = (0..t * LANES)
            .map(|i| ((i * 7 + 3) % lm.hyper.vocab) as f32)
            .collect();
        let targets: Vec<f32> = (0..t * LANES)
            .map(|i| ((i * 5 + 1) % lm.hyper.vocab) as f32)
            .collect();
        LmBatch {
            input: Tensor::from_vec(Shape::d2(t, LANES), ids).unwrap(),
            targets: Tensor::from_vec(Shape::d1(t * LANES), targets).unwrap(),
            batch: LANES,
            seq_len: t,
        }
    }

    /// Regression: stage workers used to re-`bind_param` every owned
    /// parameter each step, and every re-bind leaked the previous
    /// allocation (~1.3 MB of simulated device memory per step on the
    /// benchmark model). Workers now `import_params`, and a re-bind
    /// replaces its bytes — so a stage's peak and memory report are the
    /// same after step 2 and after step 20.
    #[test]
    fn stage_memory_does_not_grow_across_steps() {
        let lm = tiny_lm();
        let mut trainer = trainer(&lm, 2, 1);
        let batch = synth_batch(&lm);
        let footprint = |report: &StepReport| -> Vec<(u64, MemoryReport)> {
            report
                .stages
                .iter()
                .map(|s| (s.peak_bytes, s.memory.clone()))
                .collect()
        };
        let mut after_step_2 = Vec::new();
        for step in 1..=20 {
            let report = trainer.train_step(&batch).expect("step");
            if step == 2 {
                after_step_2 = footprint(&report);
            }
            if step == 20 {
                assert_eq!(footprint(&report), after_step_2, "stage memory drifted");
            }
        }
        assert!(after_step_2.iter().all(|(peak, memory)| {
            let weights = MemoryBreakdown::at_peak(memory).kind_bytes(DataStructureKind::Weight);
            memory.peak_bytes == *peak && 0 < weights && weights < *peak
        }));
    }

    /// Each stage executor re-packs exactly the weight panels it read the
    /// step before, once each, after `import_params` hands it the
    /// updated weights: the count is the same every step and equals the
    /// panels it holds, and panel bytes do not grow.
    #[test]
    fn stage_executors_repack_the_same_panels_every_step() {
        let lm = tiny_lm();
        let mut trainer = trainer(&lm, 2, 1);
        let batch = synth_batch(&lm);
        let mut before: Vec<PanelStats> = Vec::new();
        let mut after_step_2: Vec<PanelStats> = Vec::new();
        for step in 1..=6 {
            let report = trainer.train_step(&batch).expect("step");
            let now: Vec<PanelStats> = report.stages.iter().map(|s| s.panels).collect();
            assert_eq!(now.len(), 2);
            if step >= 2 {
                for (stage, (was, is)) in before.iter().zip(&now).enumerate() {
                    assert!(is.panels > 0, "stage {stage} holds no panels");
                    assert_eq!(
                        is.packs - was.packs,
                        is.panels as u64,
                        "stage {stage} step {step}"
                    );
                }
            }
            if step == 2 {
                after_step_2 = now.clone();
            }
            if step > 2 {
                for (was, is) in after_step_2.iter().zip(&now) {
                    assert_eq!((was.panels, was.panel_bytes), (is.panels, is.panel_bytes));
                }
            }
            before = now;
        }
    }

    /// A panicking worker must poison the trainer — `train_step` returns
    /// an error (and keeps failing), never deadlocks, and `Drop` still
    /// reaps every thread. Covered on the stage axis (P = 2, K = 1) and
    /// on the replica-only data-parallel layout (P = 1, K = 2).
    #[test]
    fn injected_stage_panic_poisons_pipeline_instead_of_deadlocking() {
        let lm = tiny_lm();
        let batch = synth_batch(&lm);
        for (stages, replicas, (stage, replica)) in [(2, 1, (1, 0)), (1, 2, (0, 1))] {
            let layout = format!("P={stages} K={replicas}");
            let mut trainer = trainer(&lm, stages, replicas);
            let report = trainer.train_step(&batch).expect("healthy step succeeds");
            assert!(report.loss.is_finite(), "{layout}");
            assert_eq!(report.stages.len(), stages * replicas, "{layout}");

            trainer.inject_panic(stage, replica);
            let err = trainer.train_step(&batch).unwrap_err();
            assert!(
                err.contains("panicked"),
                "{layout}: unexpected error: {err}"
            );
            let err2 = trainer.train_step(&batch).unwrap_err();
            assert!(
                err2.contains("poisoned"),
                "{layout}: unexpected error: {err2}"
            );
            // Every worker, the dead one included, is still owed a join;
            // dropping must reap them all without hanging.
            assert_eq!(trainer.handles.len(), stages * replicas, "{layout}");
            drop(trainer);
        }
    }
}
