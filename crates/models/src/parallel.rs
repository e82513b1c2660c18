//! Data-parallel multi-replica training with a bit-exact gradient
//! all-reduce.
//!
//! The paper's multi-GPU experiments ([§6.6], Figure 17) train one model
//! replica per GPU on a shard of the global batch and all-reduce the
//! gradients every step. This module reproduces that engine on host
//! threads: each worker owns a full [`Executor`] replica (its own
//! [`DeviceMemory`] arena and, optionally, its own [`DeviceSim`] clock),
//! computes gradients over its shard, and participates in a binary-tree
//! all-reduce over crossbeam channels. Rank 0 then applies the optimizer
//! and broadcasts the updated parameters.
//!
//! # Bit-exactness
//!
//! Floating-point addition is not associative, so a naive "sum whatever
//! arrives first" all-reduce produces different bits for different worker
//! counts. This engine instead fixes one *canonical reduction tree* per
//! global step: the global batch is cut into `M` equal micro-batches
//! (`M` a power of two, see [`MicrobatchPlan`]), per-micro-batch
//! gradients form the `M` leaves, and the gradient of the step is the
//! balanced binary-tree fold of those leaves, scaled by `1/M`.
//!
//! `K = 2^k` replicas each own a contiguous, aligned span of `M/K`
//! leaves — exactly a subtree of the canonical tree. A worker folds its
//! own subtree locally; the cross-replica reduce then walks the
//! remaining `k` upper levels of the *same* tree (receivers keep the left
//! operand, exactly as the serial fold does). Every pairwise addition
//! therefore associates identically for every supported `K`, including
//! `K = 1`, and identically to the serial [`MicrobatchTrainer`] — so the
//! trained parameters match bit for bit.
//!
//! [§6.6]: https://arxiv.org/abs/1805.08899

use crate::trainer::Optimizer;
use crate::word_lm::WordLm;
use crossbeam::channel::{unbounded, Receiver, Sender};
use echo_data::{LmBatch, MicrobatchPlan};
use echo_device::{DeviceSim, DeviceSpec};
use echo_graph::{ExecOptions, Executor, NodeId};
use echo_memory::DeviceMemory;
use echo_tensor::Tensor;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Builds executor bindings for one (micro-)batch. Shared by every
/// replica, so it must be thread-safe.
pub type BindFn = dyn Fn(&LmBatch) -> HashMap<NodeId, Tensor> + Send + Sync;

/// A post-step parameter snapshot broadcast from rank 0 to every other
/// replica, shared rather than cloned per receiver.
type ParamSet = Arc<Vec<(NodeId, Tensor)>>;

/// Configuration of the data-parallel engine.
#[derive(Debug, Clone)]
pub struct DataParallelOptions {
    /// Worker (replica) count. Must be a power of two dividing
    /// `micro_batches`.
    pub replicas: usize,
    /// Micro-batches per global step — the leaves of the canonical
    /// reduction tree. Must be a power of two dividing the batch lanes.
    pub micro_batches: usize,
    /// Per-replica device-memory capacity in bytes.
    pub memory_capacity: u64,
    /// Simulated device per replica (`None` disables the device model
    /// and its per-replica clocks).
    pub sim_spec: Option<DeviceSpec>,
}

impl DataParallelOptions {
    /// `replicas` workers over `micro_batches` leaves with a 1 GiB
    /// per-replica arena and no device simulation.
    pub fn new(replicas: usize, micro_batches: usize) -> Self {
        DataParallelOptions {
            replicas,
            micro_batches,
            memory_capacity: 1 << 30,
            sim_spec: None,
        }
    }

    /// Attaches a simulated device per replica (builder style).
    #[must_use]
    pub fn with_sim(mut self, spec: DeviceSpec) -> Self {
        self.sim_spec = Some(spec);
        self
    }

    /// Sets the per-replica memory capacity (builder style).
    #[must_use]
    pub fn with_memory_capacity(mut self, bytes: u64) -> Self {
        self.memory_capacity = bytes;
        self
    }
}

/// Configuration of the pipelined engine ([`crate::pipeline`]): `K`
/// pipeline replicas — hybrid pipeline-×-data parallelism — each running
/// every stage of the partition over its span of the `M` micro-batch
/// leaves. The gradient fold is the same canonical tree as
/// [`DataParallelOptions`]-driven training, so any `(P, K)` layout is
/// bit-identical to serial execution.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Pipeline replica count `K`. Must be a power of two dividing
    /// `micro_batches`.
    pub replicas: usize,
    /// Micro-batches per global step — both the pipeline's fill depth
    /// and the leaves of the canonical reduction tree.
    pub micro_batches: usize,
    /// Per-stage-executor device-memory capacity in bytes.
    pub memory_capacity: u64,
    /// Simulated device per stage worker (`None` disables the device
    /// model).
    pub sim_spec: Option<DeviceSpec>,
}

impl PipelineOptions {
    /// `replicas` pipeline replicas over `micro_batches` leaves with a
    /// 1 GiB per-stage arena and no device simulation.
    pub fn new(replicas: usize, micro_batches: usize) -> Self {
        PipelineOptions {
            replicas,
            micro_batches,
            memory_capacity: 1 << 30,
            sim_spec: None,
        }
    }

    /// Reuses a data-parallel configuration for the hybrid engine: same
    /// replica count, leaf count, per-worker memory and device model.
    pub fn from_data_parallel(options: &DataParallelOptions) -> Self {
        PipelineOptions {
            replicas: options.replicas,
            micro_batches: options.micro_batches,
            memory_capacity: options.memory_capacity,
            sim_spec: options.sim_spec.clone(),
        }
    }

    /// Attaches a simulated device per stage worker (builder style).
    #[must_use]
    pub fn with_sim(mut self, spec: DeviceSpec) -> Self {
        self.sim_spec = Some(spec);
        self
    }

    /// Sets the per-stage memory capacity (builder style).
    #[must_use]
    pub fn with_memory_capacity(mut self, bytes: u64) -> Self {
        self.memory_capacity = bytes;
        self
    }
}

/// Per-stage-worker statistics for one pipelined global step.
#[derive(Debug, Clone)]
pub struct StageStepStats {
    /// Pipeline stage index.
    pub stage: usize,
    /// Pipeline replica rank.
    pub replica: usize,
    /// Simulated device time spent by this worker.
    pub sim_ns: u64,
    /// Peak device bytes across this worker's micro-batches.
    pub peak_bytes: u64,
    /// Device bytes still live in this worker's executor memory after
    /// the step: its parameters, their gradients and retained workspace
    /// buffers. Constant from step to step.
    pub live_bytes: u64,
    /// Segment replays performed by this worker's stage backwards.
    pub replays: u64,
    /// Host wall-clock nanoseconds the worker spent in the step.
    pub compute_host_ns: u64,
    /// Execution plans this worker's executor has had to build on demand
    /// so far (cumulative). The stage's plans are installed at
    /// construction, so this stays at zero unless a step presents a
    /// signature they do not serve.
    pub plans_built: u64,
}

/// Per-replica statistics for one global step.
#[derive(Debug, Clone)]
pub struct ReplicaStepStats {
    /// Replica rank.
    pub replica: usize,
    /// Simulated device time spent on this replica's micro-batches.
    pub sim_ns: u64,
    /// Peak device bytes across this replica's micro-batches.
    pub peak_bytes: u64,
    /// Segment replays performed by this replica's backward passes.
    pub replays: u64,
    /// Host wall-clock nanoseconds the worker spent computing gradients
    /// (before entering the all-reduce).
    pub compute_host_ns: u64,
}

/// The outcome of one global training step.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Mean loss over the global batch (tree-folded like the gradients,
    /// so it is bit-identical across replica counts).
    pub loss: f32,
    /// Pre-clip global gradient norm seen by the optimizer on rank 0.
    pub grad_norm: f64,
    /// Per-replica statistics, indexed by rank.
    pub replicas: Vec<ReplicaStepStats>,
}

impl StepReport {
    /// The slowest replica's simulated compute time — the critical path
    /// of a synchronous data-parallel step before communication.
    pub fn max_replica_sim_ns(&self) -> u64 {
        self.replicas.iter().map(|r| r.sim_ns).max().unwrap_or(0)
    }
}

/// One leaf (or partial fold) of the canonical reduction tree: the
/// gradients and mean loss of a micro-batch span. Shared with the
/// pipeline engine, whose per-stage reduce trees fold the same leaves.
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

/// Runs micro-batches through an executor and returns the per-leaf
/// gradient samples plus aggregate statistics. Shared by the serial
/// trainer and every parallel worker so both paths execute the same code.
fn leaf_gradients(
    exec: &mut Executor,
    micros: &[LmBatch],
    bind: &BindFn,
    loss: NodeId,
    sim: Option<&mut DeviceSim>,
) -> echo_graph::Result<(Vec<GradSample>, u64, u64)> {
    let mut samples = Vec::with_capacity(micros.len());
    let mut peak_bytes = 0u64;
    let mut replays = 0u64;
    let mut sim = sim;
    for micro in micros {
        let bindings = bind(micro);
        let reborrow = sim.as_deref_mut();
        let stats = exec.train_step(&bindings, loss, ExecOptions::default(), reborrow)?;
        peak_bytes = peak_bytes.max(stats.peak_bytes);
        replays += stats.replays;
        samples.push(GradSample {
            grads: exec.export_grads(),
            loss: stats.loss.expect("numeric plane produces a loss"),
        });
    }
    Ok((samples, peak_bytes, replays))
}

/// Serial reference trainer executing the *same* canonical reduction
/// tree as [`ParallelTrainer`], on one executor. This is the baseline
/// the bit-exactness invariant is stated against, and the fair serial
/// contender for wall-clock comparisons (same micro-batching).
pub struct MicrobatchTrainer {
    exec: Executor,
    plan: MicrobatchPlan,
    opt: Box<dyn Optimizer>,
    bind: Arc<BindFn>,
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
        bind: Arc<BindFn>,
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
    /// fold, `1/M` scaling, optimizer update.
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
        let micros = self.plan.cut(batch);
        let (samples, peak_bytes, replays) = leaf_gradients(
            &mut self.exec,
            &micros,
            &*self.bind,
            self.loss,
            self.sim.as_mut(),
        )?;
        let compute_host_ns = host_start.elapsed().as_nanos() as u64;
        let sim_ns = self.sim.as_ref().map_or(0, DeviceSim::elapsed_ns) - sim_before;

        let mut folded = tree_fold(samples);
        folded.scale(1.0 / self.plan.micro() as f32);
        self.exec.import_grads(&folded.grads);
        let grad_norm = self.opt.apply(&mut self.exec);
        Ok(StepReport {
            loss: folded.loss,
            grad_norm,
            replicas: vec![ReplicaStepStats {
                replica: 0,
                sim_ns,
                peak_bytes,
                replays,
                compute_host_ns,
            }],
        })
    }

    /// Snapshots the current parameters, sorted by id.
    pub fn export_params(&self) -> Vec<(NodeId, Tensor)> {
        self.exec.export_params()
    }

    /// The underlying executor (e.g. for evaluation passes).
    pub fn executor(&self) -> &Executor {
        &self.exec
    }
}

/// A command from the coordinator to a worker.
enum Cmd {
    /// Run this replica's micro-batches and join the all-reduce.
    Step { micros: Vec<LmBatch> },
    /// Reply with a snapshot of the replica's parameters.
    Export {
        reply: Sender<Vec<(NodeId, Tensor)>>,
    },
}

/// A worker's report back to the coordinator after one step.
struct WorkerDone {
    replica: usize,
    stats: ReplicaStepStats,
    /// Present only from rank 0, which runs the optimizer.
    outcome: Option<(f32, f64)>,
}

/// Everything a worker thread owns.
struct Worker {
    replica: usize,
    exec: Executor,
    sim: Option<DeviceSim>,
    bind: Arc<BindFn>,
    loss: NodeId,
    /// Rank 0 owns the optimizer state; everyone else carries `None`.
    opt: Option<Box<dyn Optimizer>>,
    micro_total: usize,
    cmd_rx: Receiver<Cmd>,
    done_tx: Sender<WorkerDone>,
    /// Reduce-tree inboxes, level-ascending: at level `l` this worker
    /// receives the partial sum of the subtree rooted at rank
    /// `replica + 2^l`.
    down: Vec<Receiver<GradSample>>,
    /// Where to send this worker's partial sum (its parent in the tree);
    /// `None` for rank 0.
    up: Option<Sender<GradSample>>,
    /// Rank 0's broadcast fan-out to ranks `1..K`.
    param_txs: Vec<Sender<ParamSet>>,
    /// Where ranks `1..K` receive the post-step parameters.
    param_rx: Option<Receiver<ParamSet>>,
}

impl Worker {
    fn run(mut self) {
        while let Ok(cmd) = self.cmd_rx.recv() {
            match cmd {
                Cmd::Export { reply } => {
                    let _ = reply.send(self.exec.export_params());
                }
                Cmd::Step { micros } => {
                    if self.step(&micros).is_err() {
                        // The coordinator vanished; nothing left to do.
                        return;
                    }
                }
            }
        }
    }

    /// One global step from this worker's perspective. `Err` means a
    /// channel to the coordinator or a peer disconnected.
    fn step(&mut self, micros: &[LmBatch]) -> Result<(), ()> {
        let host_start = Instant::now();
        let sim_before = self.sim.as_ref().map_or(0, DeviceSim::elapsed_ns);
        let (samples, peak_bytes, replays) = leaf_gradients(
            &mut self.exec,
            micros,
            &*self.bind,
            self.loss,
            self.sim.as_mut(),
        )
        .expect("replica executor step succeeds");
        let compute_host_ns = host_start.elapsed().as_nanos() as u64;
        let sim_ns = self.sim.as_ref().map_or(0, DeviceSim::elapsed_ns) - sim_before;

        // Local subtree fold, then the cross-replica levels of the same
        // canonical tree. Receivers keep the left operand.
        let mut acc = tree_fold(samples);
        for rx in &self.down {
            let partial = rx.recv().map_err(drop)?;
            acc.merge(&partial);
        }
        let mut outcome = None;
        if let Some(up) = &self.up {
            up.send(acc).map_err(drop)?;
            let params = self
                .param_rx
                .as_ref()
                .expect("non-root workers have a param inbox")
                .recv()
                .map_err(drop)?;
            self.exec.import_params(&params);
        } else {
            // Rank 0: scale, update, broadcast.
            acc.scale(1.0 / self.micro_total as f32);
            self.exec.import_grads(&acc.grads);
            let opt = self.opt.as_mut().expect("rank 0 owns the optimizer");
            let grad_norm = opt.apply(&mut self.exec);
            let params = Arc::new(self.exec.export_params());
            for tx in &self.param_txs {
                tx.send(params.clone()).map_err(drop)?;
            }
            outcome = Some((acc.loss, grad_norm));
        }

        self.done_tx
            .send(WorkerDone {
                replica: self.replica,
                stats: ReplicaStepStats {
                    replica: self.replica,
                    sim_ns,
                    peak_bytes,
                    replays,
                    compute_host_ns,
                },
                outcome,
            })
            .map_err(drop)
    }
}

/// Data-parallel trainer: `K` worker threads, each with a full model
/// replica, synchronized every step by a tree all-reduce and a parameter
/// broadcast. See the module docs for the bit-exactness contract.
pub struct ParallelTrainer {
    replicas: usize,
    lanes: usize,
    plan: MicrobatchPlan,
    cmd_txs: Vec<Sender<Cmd>>,
    done_rx: Receiver<WorkerDone>,
    handles: Vec<JoinHandle<()>>,
}

impl ParallelTrainer {
    /// Spawns the worker fleet. Every replica starts from a deep copy of
    /// `template`'s parameters (see [`Executor::clone_replica`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint if the plan or
    /// replica count is invalid, or if replica construction fails.
    pub fn new(
        template: &Executor,
        lanes: usize,
        options: &DataParallelOptions,
        opt: Box<dyn Optimizer>,
        bind: Arc<BindFn>,
        loss: NodeId,
    ) -> Result<Self, String> {
        let plan = MicrobatchPlan::new(lanes, options.micro_batches)?;
        let replicas = options.replicas;
        if !plan.supports_replicas(replicas) {
            return Err(format!(
                "{replicas} replicas cannot own aligned subtrees of {} micro-batches \
                 (need a power of two dividing the leaf count)",
                plan.micro()
            ));
        }

        // Warm the shared kernel worker pool before spawning replicas.
        // Replica threads funnel every GEMM / element-wise kernel through
        // this one pool instead of spawning their own threads per call, so
        // K replicas contend for a fixed set of kernel lanes rather than
        // oversubscribing the host with K × cores transient spawns; doing
        // the lazy initialization here keeps it off the first step's
        // critical path.
        let _ = echo_tensor::pool::global();

        // Per-worker command channels and the shared completion channel.
        let (done_tx, done_rx) = unbounded::<WorkerDone>();
        let mut cmd_txs = Vec::with_capacity(replicas);
        let mut cmd_rxs = Vec::with_capacity(replicas);
        for _ in 0..replicas {
            let (tx, rx) = unbounded::<Cmd>();
            cmd_txs.push(tx);
            cmd_rxs.push(rx);
        }

        // Reduce-tree wiring: at level l, rank r (aligned to 2^(l+1))
        // receives from rank r + 2^l. Building levels in ascending order
        // keeps each worker's inbox list level-ascending.
        let mut down: Vec<Vec<Receiver<GradSample>>> = (0..replicas).map(|_| Vec::new()).collect();
        let mut up: Vec<Option<Sender<GradSample>>> = (0..replicas).map(|_| None).collect();
        let mut level_stride = 2;
        while level_stride <= replicas {
            let half = level_stride / 2;
            for receiver in (0..replicas).step_by(level_stride) {
                let sender = receiver + half;
                let (tx, rx) = unbounded::<GradSample>();
                down[receiver].push(rx);
                up[sender] = Some(tx);
            }
            level_stride *= 2;
        }

        // Parameter broadcast: rank 0 fans out to everyone else.
        let mut param_txs = Vec::with_capacity(replicas.saturating_sub(1));
        let mut param_rxs: Vec<Option<Receiver<ParamSet>>> = vec![None];
        for _ in 1..replicas {
            let (tx, rx) = unbounded();
            param_txs.push(tx);
            param_rxs.push(Some(rx));
        }

        let mut handles = Vec::with_capacity(replicas);
        let mut opt = Some(opt);
        // Give workers their wiring in reverse so `pop` hands out rank
        // r's channels at iteration r.
        down.reverse();
        up.reverse();
        param_rxs.reverse();
        for (replica, cmd_rx) in cmd_rxs.into_iter().enumerate() {
            let mem = DeviceMemory::with_overhead_model(options.memory_capacity, 0, 0.0);
            let exec = template
                .clone_replica(mem)
                .map_err(|e| format!("replica {replica}: {e}"))?;
            let worker = Worker {
                replica,
                exec,
                sim: options.sim_spec.clone().map(DeviceSim::new),
                bind: bind.clone(),
                loss,
                opt: if replica == 0 { opt.take() } else { None },
                micro_total: plan.micro(),
                cmd_rx,
                done_tx: done_tx.clone(),
                down: down.pop().expect("one wiring entry per replica"),
                up: up.pop().expect("one wiring entry per replica"),
                param_txs: if replica == 0 {
                    std::mem::take(&mut param_txs)
                } else {
                    Vec::new()
                },
                param_rx: param_rxs.pop().expect("one wiring entry per replica"),
            };
            let handle = std::thread::Builder::new()
                .name(format!("replica-{replica}"))
                .spawn(move || worker.run())
                .map_err(|e| format!("spawning replica {replica}: {e}"))?;
            handles.push(handle);
        }

        Ok(ParallelTrainer {
            replicas,
            lanes,
            plan,
            cmd_txs,
            done_rx,
            handles,
        })
    }

    /// Convenience constructor for the word-level LM.
    ///
    /// # Errors
    ///
    /// Propagates [`ParallelTrainer::new`] errors.
    pub fn for_word_lm(
        lm: &WordLm,
        template: &Executor,
        lanes: usize,
        options: &DataParallelOptions,
        opt: Box<dyn Optimizer>,
    ) -> Result<Self, String> {
        let model = lm.clone();
        ParallelTrainer::new(
            template,
            lanes,
            options,
            opt,
            Arc::new(move |batch: &LmBatch| model.bindings(batch)),
            lm.loss,
        )
    }

    /// Worker count.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The canonical reduction-tree plan.
    pub fn plan(&self) -> &MicrobatchPlan {
        &self.plan
    }

    /// Runs one global step across all replicas and waits for the
    /// all-reduce, optimizer update and parameter broadcast to finish.
    ///
    /// # Panics
    ///
    /// Panics if `batch` does not have the planned lane count or a
    /// worker thread died.
    pub fn step(&mut self, batch: &LmBatch) -> StepReport {
        assert_eq!(batch.batch, self.lanes, "batch does not match plan");
        let micros = self.plan.cut(batch);
        for (replica, tx) in self.cmd_txs.iter().enumerate() {
            let span = self.plan.replica_leaves(replica, self.replicas);
            tx.send(Cmd::Step {
                micros: micros[span].to_vec(),
            })
            .expect("worker alive");
        }

        let mut stats: Vec<Option<ReplicaStepStats>> = vec![None; self.replicas];
        let mut outcome = None;
        for _ in 0..self.replicas {
            let done = self.done_rx.recv().expect("worker alive");
            if done.outcome.is_some() {
                outcome = done.outcome;
            }
            stats[done.replica] = Some(done.stats);
        }
        let (loss, grad_norm) = outcome.expect("rank 0 reports the step outcome");
        StepReport {
            loss,
            grad_norm,
            replicas: stats
                .into_iter()
                .map(|s| s.expect("every replica reports"))
                .collect(),
        }
    }

    /// Snapshots the parameters of `replica` (all replicas hold
    /// identical parameters between steps).
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range or its worker died.
    pub fn export_replica_params(&self, replica: usize) -> Vec<(NodeId, Tensor)> {
        let (reply_tx, reply_rx) = unbounded();
        self.cmd_txs[replica]
            .send(Cmd::Export { reply: reply_tx })
            .expect("worker alive");
        reply_rx.recv().expect("worker alive")
    }

    /// Snapshots rank 0's parameters.
    pub fn export_params(&self) -> Vec<(NodeId, Tensor)> {
        self.export_replica_params(0)
    }
}

impl Drop for ParallelTrainer {
    fn drop(&mut self) {
        // Closing the command channels makes every worker's recv loop
        // exit; then reap the threads.
        self.cmd_txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_tensor::Shape;

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
}
