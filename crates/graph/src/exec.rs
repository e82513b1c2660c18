//! The executor: one plan-driven interpreter for forward, seeded
//! backward and recomputation replay, plus a memory report folded from
//! the plans it runs.
//!
//! Every entry point — [`Executor::forward`], [`Executor::forward_many`],
//! [`Executor::train_step`], [`Executor::stage_step`] — resolves an
//! [`ExecPlan`] for its signature (outputs, seeds, captures, training
//! flag, binding shapes) and walks that plan's tables: one forward loop
//! and one backward loop, each visiting the plan's entries in schedule
//! order on the calling thread. A training step is the seeded step with
//! ones at the loss and nothing captured; a pipeline stage seeds its send
//! interface and captures its received one. There is no other
//! interpreter: an execution no cached plan serves builds its plan first
//! and memoizes it in the executor. Thread parallelism lives inside the
//! kernels (row-banded GEMM, elementwise, softmax, layer-norm on the
//! global worker pool), never between plan entries.
//!
//! The interpreter only computes. What a step costs on a simulated device
//! is a fold over its plan ([`ExecPlan::project`]): a numeric entry point
//! given a [`DeviceSim`] projects the plan it just ran, and
//! [`Executor::project`] projects a step without computing it, so
//! configurations far too large for host compute are measured on
//! parameters bound by shape alone. Device memory is a fold too: each
//! step, forward and projection folds its plan's static peak, peak
//! breakdown and category maxima into the [`MemoryReport`]
//! ([`Executor::memory_report`]), with the weights of the parameters the
//! plan reads replaced by those of every bound parameter. That peak is
//! checked against the device capacity once, when the plan is memoized,
//! installed or inherited, and when a parameter is bound — never per
//! step.

use crate::graph::{Graph, NodeId, NodeKind};
use crate::op::{Operator, Saved};
use crate::plan::{ExecPlan, PlanKey};
use crate::policy::StashPlan;
use crate::{GraphError, Result};
use echo_device::DeviceSim;
use echo_memory::{Breakdown, DataStructureKind, DeviceMemory, MemoryReport, TensorPool};
use echo_tensor::{PanelCache, PanelStats, Shape, Tensor, WorkerPool};
use std::collections::HashMap;
use std::sync::Arc;

/// Options controlling one execution.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Training (forward + backward with stashing) vs. inference.
    pub training: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { training: true }
    }
}

/// Inert stub of the deleted wavefront scheduler's mode switch: plan
/// entries always run in schedule order, whatever value is set. It exists
/// only because `bench/` (frozen while this was removed) still names
/// `Auto` and `Pool`; the next `benchmark` PR drops it together with
/// [`Executor::set_wavefront_mode`] and the
/// `graph.wavefront_pool2_step_ms` probe.
#[derive(Debug, Clone)]
pub enum WavefrontMode {
    /// Ignored.
    Auto,
    /// Ignored; the pool is never used.
    Pool(Arc<WorkerPool>),
}

/// Statistics of one executed iteration.
#[derive(Debug, Clone, Default)]
pub struct IterationStats {
    /// Loss value of a training step (`None` for a projection).
    pub loss: Option<f32>,
    /// Peak device bytes during this iteration.
    pub peak_bytes: u64,
    /// Number of segment replays performed by the backward pass.
    pub replays: u64,
}

/// What one pipelined stage step produced (see [`Executor::stage_step`]).
#[derive(Debug)]
pub struct StageStepOutput {
    /// Values of the requested output nodes, in request order, cloned
    /// between the stage's forward and backward phases.
    pub outputs: Vec<Tensor>,
    /// Gradients that reached the captured `Input` nodes, in capture
    /// order. `None` when no gradient flowed to that input this step.
    pub input_grads: Vec<Option<Tensor>>,
    /// Memory/replay/timing accounting for the stage step; `loss` is
    /// `None` (a stage has no scalar loss — read it from `outputs`).
    pub stats: IterationStats,
}

/// Plans an executor keeps memoized, most recently used first. A trainer
/// needs two (step and evaluation forward), a pipeline stage two (fill
/// and drain), a serving worker re-installs its batch-size plan before
/// every step; the rest absorbs bucketed batch shapes.
const PLAN_CACHE_SLOTS: usize = 8;

/// Runs a [`Graph`] under a [`StashPlan`] against a simulated device.
///
/// The executor owns the parameter values and their gradient buffers. See
/// the [crate documentation](crate) for the execution disciplines it
/// maintains.
pub struct Executor {
    graph: Arc<Graph>,
    plan: StashPlan,
    mem: DeviceMemory,
    params: HashMap<NodeId, Tensor>,
    param_shapes: HashMap<NodeId, Shape>,
    grads: HashMap<NodeId, Tensor>,
    /// Device bytes of the bound parameters (value + gradient), per
    /// `(layer, Weight)` category.
    weights: Breakdown,
    /// The sum of `weights`.
    weights_total: u64,
    /// The memory report folded so far: the last step's peak — raised by
    /// any later forward or binding that went higher — the live set at
    /// it, and every category's maximum over the executor's life.
    memory: MemoryReport,
    /// Memoized execution plans, most recently used first; at most
    /// [`PLAN_CACHE_SLOTS`]. Every execution runs one of these.
    plans: Vec<Arc<ExecPlan>>,
    /// Whether the caller installed a plan since the cache was last
    /// emptied — only then is planning on demand a *fallback*.
    plan_installed: bool,
    /// Plans this executor had to build on demand.
    plans_memoized: u64,
    /// Step-persistent interpreter state.
    state: PlanState,
    /// Cumulative segment replays across every step this executor ran.
    replays_total: u64,
    /// Packed GEMM panels of the bound parameters, lent to the calling
    /// thread for the duration of each run (see [`Executor::panel_stats`]).
    panels: PanelCache,
}

/// Dense per-node tables the interpreter reuses across steps instead of
/// re-allocating `vec![None; n]` every iteration, plus the [`TensorPool`]
/// that recycles executor-controlled tensor storage (gradient seeds, freed
/// transients and gradients).
#[derive(Default)]
struct PlanState {
    values: Vec<Option<Tensor>>,
    saved: Vec<Option<Saved>>,
    grads: Vec<Option<Tensor>>,
    grad_present: Vec<bool>,
    fwd_uses: Vec<u32>,
    bwd_done: Vec<bool>,
    pool: TensorPool,
}

impl PlanState {
    /// Grows every table to `n` nodes (idempotent; no-op after the first
    /// step on a given graph).
    fn ensure_len(&mut self, n: usize) {
        if self.values.len() < n {
            self.values.resize_with(n, || None);
            self.saved.resize_with(n, || None);
            self.grads.resize_with(n, || None);
            self.grad_present.resize(n, false);
            self.fwd_uses.resize(n, 0);
            self.bwd_done.resize(n, false);
        }
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("nodes", &self.graph.len())
            .field("params", &self.params.len())
            .field("recompute_nodes", &self.plan.recompute_count())
            .finish_non_exhaustive()
    }
}

fn shapes_of(bindings: &HashMap<NodeId, Tensor>) -> HashMap<NodeId, Shape> {
    bindings
        .iter()
        .map(|(&id, t)| (id, t.shape().clone()))
        .collect()
}

impl Executor {
    /// Creates an executor for `graph` with stashing decisions `plan`,
    /// checking its plans against the device `mem`.
    pub fn new(graph: Arc<Graph>, plan: StashPlan, mem: DeviceMemory) -> Self {
        Executor {
            graph,
            plan,
            mem,
            params: HashMap::new(),
            param_shapes: HashMap::new(),
            grads: HashMap::new(),
            weights: Breakdown::new(),
            weights_total: 0,
            memory: MemoryReport::default(),
            plans: Vec::new(),
            plan_installed: false,
            plans_memoized: 0,
            state: PlanState::default(),
            replays_total: 0,
            panels: PanelCache::new(),
        }
    }

    /// Counters of the executor's packed weight panels. A GEMM whose `B`
    /// operand is a bound parameter — `W` or `Wᵀ`, one panel each — runs
    /// on a panel packed at the parameter's first use in a run and kept
    /// until a mutating path (`bind_param`, `param_mut`,
    /// `for_each_param_grad`, `import_params`) marks it stale; the next
    /// use re-packs it in place. Panels are host memory outside the
    /// plan's device accounting: they appear in no [`MemoryReport`].
    pub fn panel_stats(&self) -> PanelStats {
        self.panels.stats()
    }

    /// Runs `f` with the panel cache lent to the calling thread, every
    /// bound parameter's storage registered in it.
    fn with_panels<R>(&mut self, f: impl FnOnce(&mut Executor) -> R) -> R {
        let mut panels = std::mem::take(&mut self.panels);
        for (id, value) in &self.params {
            panels.bind(id.index() as u64, value.data());
        }
        let out = panels.lend(|| f(self));
        self.panels = panels;
        out
    }

    /// Does nothing (see [`WavefrontMode`]); dropped by the next
    /// `benchmark` PR along with the enum.
    pub fn set_wavefront_mode(&mut self, _mode: WavefrontMode) {}

    /// Cumulative segment replays across every step this executor has run
    /// — the observable face of the replay-once discipline: a recomputed
    /// node feeding several backward consumers costs one replay per step,
    /// not one per consumer.
    pub fn replays(&self) -> u64 {
        self.replays_total
    }

    /// The executor's graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The device-memory report of every step, forward, projection and
    /// binding this executor ran (see [`MemoryReport`]).
    pub fn memory_report(&self) -> MemoryReport {
        MemoryReport {
            nvidia_smi_bytes: self.mem.nvidia_smi_bytes(self.memory.peak_bytes),
            ..self.memory.clone()
        }
    }

    /// A step's peak under `plan` on this device: the plan's planned peak
    /// with the weights of the parameters it reads replaced by those of
    /// every bound parameter.
    fn device_peak(&self, plan: &ExecPlan) -> u64 {
        plan.planned_peak_bytes() - plan.accounting.param_bytes + self.weights_total
    }

    /// `phase`, one of `plan`'s static figures, as the device holds it:
    /// the plan counts the weights of the parameters it reads, the device
    /// holds every bound parameter's.
    fn on_device(&self, plan: &ExecPlan, phase: &MemoryReport) -> MemoryReport {
        let with_weights = |breakdown: &Breakdown| {
            let mut out: Breakdown = breakdown
                .iter()
                .filter(|((_, kind), _)| *kind != DataStructureKind::Weight)
                .chain(&self.weights)
                .copied()
                .collect();
            out.sort_unstable();
            out
        };
        MemoryReport {
            peak_bytes: phase.peak_bytes - plan.accounting.param_bytes + self.weights_total,
            nvidia_smi_bytes: 0,
            peak_breakdown: with_weights(&phase.peak_breakdown),
            max_breakdown: with_weights(&phase.max_breakdown),
        }
    }

    /// Counters of the step-persistent [`TensorPool`] backing the hot
    /// loop. Reuse hits climbing across repeated steps is the signal that
    /// storage is recycled rather than reallocated.
    pub fn tensor_pool_stats(&self) -> echo_memory::TensorPoolStats {
        self.state.pool.stats()
    }

    /// Takes an `elems`-long buffer from the step-persistent
    /// [`TensorPool`]. Contents are unspecified; pair with
    /// [`Executor::pool_recycle`] so repeated same-shaped steps (e.g. a
    /// serving engine's per-request bindings) stop allocating.
    pub fn pool_take(&mut self, elems: usize) -> Vec<f32> {
        self.state.pool.take(elems)
    }

    /// Returns a tensor's storage to the step-persistent [`TensorPool`].
    pub fn pool_recycle(&mut self, t: Tensor) {
        self.state.pool.put(t.into_vec());
    }

    /// Replaces the stash plan (used when re-compiling with the Echo pass).
    ///
    /// Every cached [`ExecPlan`] is dropped: they were derived from the
    /// old stashing decisions.
    pub fn set_plan(&mut self, plan: StashPlan) {
        self.plan = plan;
        self.clear_exec_plan();
    }

    /// The active stash plan.
    pub fn plan(&self) -> &StashPlan {
        &self.plan
    }

    /// Installs an ahead-of-time execution plan: it goes to the front of
    /// the executor's plan cache, and every execution it serves (same
    /// outputs, seeds, captures, training mode and binding shapes) runs it
    /// without planning. An execution no cached plan serves plans its own
    /// signature first, memoizes that plan here, and is counted by
    /// [`plan_fallbacks`](crate::plan_fallbacks) — results are
    /// bit-identical either way.
    ///
    /// # Errors
    ///
    /// Rejects a plan built for a different graph or with parameter shapes
    /// that disagree with this executor's bound parameters, and returns
    /// [`GraphError::WontFit`] when its planned peak does not fit the
    /// device.
    pub fn set_exec_plan(&mut self, plan: Arc<ExecPlan>) -> Result<()> {
        if plan.graph_len != self.graph.len() {
            return Err(GraphError::Operator {
                op: "exec_plan".to_string(),
                message: format!(
                    "plan was built for a {}-node graph, executor has {}",
                    plan.graph_len,
                    self.graph.len()
                ),
            });
        }
        for (id, shape) in plan.param_shapes() {
            if let Some(bound) = self.param_shapes.get(id) {
                if bound != shape {
                    return Err(GraphError::Operator {
                        op: "exec_plan".to_string(),
                        message: format!(
                            "plan assumed shape {shape} for `{}`, executor bound {bound}",
                            self.graph.nodes()[id.index()].name
                        ),
                    });
                }
            }
        }
        self.remember_plan(plan)?;
        self.plan_installed = true;
        Ok(())
    }

    /// The plan most recently installed or run, when the cache holds one.
    pub fn exec_plan(&self) -> Option<&Arc<ExecPlan>> {
        self.plans.first()
    }

    /// Empties the plan cache; the next execution plans its signature
    /// afresh (and is not a fallback: nothing is installed any more).
    pub fn clear_exec_plan(&mut self) {
        self.plans.clear();
        self.plan_installed = false;
    }

    /// Number of plans this executor built on demand because no cached
    /// plan served an execution. Steady-state steps leave it unchanged.
    pub fn plans_memoized(&self) -> u64 {
        self.plans_memoized
    }

    /// Moves `plan` to the front of the cache, inserting it (and dropping
    /// the least recently used entry beyond the cap) when it is new. A new
    /// plan's peak is checked against the device capacity here, once:
    /// every plan in the cache fits beside the bound parameters.
    fn remember_plan(&mut self, plan: Arc<ExecPlan>) -> Result<()> {
        match self.plans.iter().position(|p| Arc::ptr_eq(p, &plan)) {
            Some(pos) => self.plans[..=pos].rotate_right(1),
            None => {
                self.mem.check(self.device_peak(&plan))?;
                self.plans.insert(0, plan);
                self.plans.truncate(PLAN_CACHE_SLOTS);
            }
        }
        Ok(())
    }

    /// The plan that drives the execution `key` describes: a cached one
    /// when any serves it, otherwise one built for exactly this signature,
    /// checked against the device capacity and memoized.
    fn resolve_plan(
        &mut self,
        bindings: &HashMap<NodeId, Tensor>,
        key: PlanKey<'_>,
    ) -> Result<Arc<ExecPlan>> {
        let n = self.graph.len();
        if let Some(pos) = self.plans.iter().position(|p| p.serves(n, bindings, &key)) {
            self.plans[..=pos].rotate_right(1);
            return Ok(Arc::clone(&self.plans[0]));
        }
        if self.plan_installed {
            crate::plan::record_plan_fallback();
        }
        let plan = Arc::new(ExecPlan::build_keyed(
            &self.graph,
            &self.plan,
            key,
            &shapes_of(bindings),
            &self.param_shapes,
        )?);
        self.remember_plan(Arc::clone(&plan))?;
        self.plans_memoized += 1;
        Ok(plan)
    }

    /// Builds an execution plan for running `target` under `opts` with
    /// these bindings, using the executor's stash plan and bound parameter
    /// shapes. The plan is returned (shareable across replicas); call
    /// [`set_exec_plan`](Executor::set_exec_plan) to install it.
    ///
    /// # Errors
    ///
    /// Propagates planning failures (missing bindings, shape errors).
    pub fn plan_for(
        &self,
        bindings: &HashMap<NodeId, Tensor>,
        target: NodeId,
        opts: ExecOptions,
    ) -> Result<Arc<ExecPlan>> {
        Ok(Arc::new(ExecPlan::build(
            &self.graph,
            &self.plan,
            opts,
            &shapes_of(bindings),
            &self.param_shapes,
            target,
        )?))
    }

    /// Builds an inference-mode plan producing `outputs` from bindings of
    /// these shapes (see [`ExecPlan::build_inference`]); install it with
    /// [`set_exec_plan`](Executor::set_exec_plan) to drive
    /// [`forward_many`](Executor::forward_many).
    ///
    /// # Errors
    ///
    /// Propagates planning failures (missing bindings, shape errors).
    pub fn plan_for_inference(
        &self,
        bindings: &HashMap<NodeId, Tensor>,
        outputs: &[NodeId],
    ) -> Result<Arc<ExecPlan>> {
        Ok(Arc::new(ExecPlan::build_inference(
            &self.graph,
            &shapes_of(bindings),
            &self.param_shapes,
            outputs,
        )?))
    }

    /// Binds a parameter's value, holding device space for the value and
    /// its gradient (both counted as weights, matching the paper's
    /// "Weights" category which includes gradients and optimizer state).
    /// Binding an already-bound parameter replaces its value, zeroes its
    /// gradient and re-uses its device space.
    ///
    /// # Errors
    ///
    /// Returns an error for a foreign id or a non-param node, and
    /// [`GraphError::WontFit`] when the bound parameters would not fit the
    /// device beside the largest cached plan's non-parameter bytes.
    pub fn bind_param(&mut self, id: NodeId, value: Tensor) -> Result<()> {
        self.bind_param_shape(id, value.shape().clone())?;
        self.grads.insert(id, Tensor::zeros(value.shape().clone()));
        self.params.insert(id, value);
        self.panels.invalidate(id.index() as u64);
        Ok(())
    }

    /// Binds only a parameter's shape, for [`Executor::project`].
    ///
    /// # Errors
    ///
    /// As [`bind_param`](Executor::bind_param).
    pub fn bind_param_shape(&mut self, id: NodeId, shape: Shape) -> Result<()> {
        let node = self.graph.node(id)?;
        if !matches!(node.kind, NodeKind::Param) {
            return Err(GraphError::Operator {
                op: node.name.clone(),
                message: "binding a non-parameter node".to_string(),
            });
        }
        // Value + gradient. A re-bind replaces the previous shape's bytes,
        // so the parameter never occupies the device twice.
        let bytes = 2 * shape.num_bytes() as u64;
        let old_shape = self.param_shapes.get(&id);
        let old = old_shape.map_or(0, |s| 2 * s.num_bytes() as u64);
        let total = self.weights_total - old + bytes;
        // A re-shape drops the cached plans (they were specialized to the
        // old shape); any other binding must fit beside each of them.
        let reshaped = old_shape.is_some_and(|s| *s != shape);
        let largest_plan = if reshaped {
            0
        } else {
            self.plans
                .iter()
                .map(|p| p.planned_peak_bytes() - p.accounting.param_bytes)
                .max()
                .unwrap_or(0)
        };
        self.mem.check(total + largest_plan)?;
        let key = (node.layer, DataStructureKind::Weight);
        match self.weights.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.weights[i].1 = self.weights[i].1 - old + bytes,
            Err(i) => self.weights.insert(i, (key, bytes)),
        }
        self.weights_total = total;
        let bound = MemoryReport {
            peak_bytes: total,
            nvidia_smi_bytes: 0,
            peak_breakdown: self.weights.clone(),
            max_breakdown: self.weights.clone(),
        };
        self.memory.fold(&bound, false);
        self.param_shapes.insert(id, shape);
        if reshaped {
            self.clear_exec_plan();
        }
        Ok(())
    }

    /// A bound parameter's value.
    pub fn param(&self, id: NodeId) -> Option<&Tensor> {
        self.params.get(&id)
    }

    /// Mutable access to a bound parameter (for optimizer updates). Its
    /// packed panels are marked stale.
    pub fn param_mut(&mut self, id: NodeId) -> Option<&mut Tensor> {
        self.panels.invalidate(id.index() as u64);
        self.params.get_mut(&id)
    }

    /// The accumulated gradient of a parameter after a `train_step`.
    pub fn grad(&self, id: NodeId) -> Option<&Tensor> {
        self.grads.get(&id)
    }

    /// Mutable access to a parameter gradient (for clipping).
    pub fn grad_mut(&mut self, id: NodeId) -> Option<&mut Tensor> {
        self.grads.get_mut(&id)
    }

    /// Visits every `(param_id, value, grad)` triple mutably, for
    /// optimizers. Every visited parameter's packed panels are marked
    /// stale.
    ///
    /// Visit order is ascending [`NodeId`], not hash order: optimizers
    /// accumulate reductions (e.g. the clip-norm sum) while visiting, and
    /// float addition is non-associative, so a hash-ordered walk would
    /// give different executors bitwise-different updates for identical
    /// gradients. Data-parallel replicas rely on this order being fixed.
    pub fn for_each_param_grad(&mut self, mut f: impl FnMut(NodeId, &mut Tensor, &mut Tensor)) {
        let mut ids: Vec<NodeId> = self.params.keys().copied().collect();
        ids.sort_unstable();
        let grads = &mut self.grads;
        for id in ids {
            if let (Some(value), Some(grad)) = (self.params.get_mut(&id), grads.get_mut(&id)) {
                f(id, value, grad);
                self.panels.invalidate(id.index() as u64);
            }
        }
    }

    /// The bound parameter ids in ascending order.
    pub fn param_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.params.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Snapshots every bound parameter value, sorted by id.
    pub fn export_params(&self) -> Vec<(NodeId, Tensor)> {
        let mut out: Vec<(NodeId, Tensor)> =
            self.params.iter().map(|(&id, t)| (id, t.clone())).collect();
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// Overwrites bound parameter values from a snapshot (ids that are
    /// not bound here are ignored), in place when the shapes agree. Used
    /// to broadcast updated weights to data-parallel replicas and
    /// pipeline stages.
    pub fn import_params(&mut self, snapshot: &[(NodeId, Tensor)]) {
        for (id, tensor) in snapshot {
            if let Some(value) = self.params.get_mut(id) {
                if value.shape() == tensor.shape() {
                    value.data_mut().copy_from_slice(tensor.data());
                } else {
                    *value = tensor.clone();
                }
                self.panels.invalidate(id.index() as u64);
            }
        }
    }

    /// Snapshots every parameter gradient, sorted by id.
    pub fn export_grads(&self) -> Vec<(NodeId, Tensor)> {
        let mut out: Vec<(NodeId, Tensor)> =
            self.grads.iter().map(|(&id, t)| (id, t.clone())).collect();
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// Overwrites parameter gradients from a snapshot, e.g. with the
    /// result of an all-reduce before an optimizer step.
    pub fn import_grads(&mut self, snapshot: &[(NodeId, Tensor)]) {
        for (id, tensor) in snapshot {
            if let Some(grad) = self.grads.get_mut(id) {
                *grad = tensor.clone();
            }
        }
    }

    /// Clones this executor onto its own [`DeviceMemory`]: same graph
    /// (shared), same stash plan, a deep copy of every bound parameter
    /// (values and zeroed gradients) and the cached plans, and an empty
    /// panel cache. This is how data-parallel replicas are born.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::WontFit`] if `mem` cannot hold the parameter
    /// set or a step of an inherited plan beside it.
    pub fn clone_replica(&self, mem: DeviceMemory) -> Result<Executor> {
        let mut replica = Executor::new(self.graph.clone(), self.plan.clone(), mem);
        for id in self.param_ids() {
            replica.bind_param(id, self.params[&id].clone())?;
        }
        // Shape-only bindings (no value).
        let mut shape_only: Vec<NodeId> = self
            .param_shapes
            .keys()
            .filter(|id| !self.params.contains_key(id))
            .copied()
            .collect();
        shape_only.sort_unstable();
        for id in shape_only {
            replica.bind_param_shape(id, self.param_shapes[&id].clone())?;
        }
        // Execution plans are immutable and shape-derived, so replicas
        // share them: K replicas cost one planning pass.
        for plan in &self.plans {
            mem.check(replica.device_peak(plan))?;
        }
        replica.plans = self.plans.clone();
        replica.plan_installed = self.plan_installed;
        Ok(replica)
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grads(&mut self) {
        for g in self.grads.values_mut() {
            g.fill_zero();
        }
    }

    /// Runs a forward pass to `target` and returns its value. With a
    /// `device`, the plan that ran is then projected onto it.
    ///
    /// # Errors
    ///
    /// Propagates planning, operator, binding and capacity errors.
    pub fn forward(
        &mut self,
        bindings: &HashMap<NodeId, Tensor>,
        target: NodeId,
        opts: ExecOptions,
        device: Option<&mut DeviceSim>,
    ) -> Result<Tensor> {
        let mut out = self.forward_many(bindings, &[target], opts, device)?;
        Ok(out.pop().expect("one value per requested output"))
    }

    /// Runs one forward pass and returns the values of several nodes at
    /// once — the multi-output primitive stateful inference is built on
    /// (one decode step yields logits *and* every layer's new hidden and
    /// cell state) and the fill phase of a pipeline stage runs. Executes
    /// the union cone of `outputs` with every output kept alive;
    /// `outputs` must be distinct.
    ///
    /// With a `device`, the plan that ran is then projected onto it.
    ///
    /// # Errors
    ///
    /// Propagates planning, operator, binding and capacity errors.
    pub fn forward_many(
        &mut self,
        bindings: &HashMap<NodeId, Tensor>,
        outputs: &[NodeId],
        opts: ExecOptions,
        device: Option<&mut DeviceSim>,
    ) -> Result<Vec<Tensor>> {
        let key = PlanKey {
            outputs,
            backward: None,
            training: opts.training,
        };
        let plan = self.resolve_plan(bindings, key)?;
        self.memory
            .fold(&self.on_device(&plan, &plan.accounting.forward), false);
        let values = self.with_panels(|exec| {
            let mut run = Run::new(exec, bindings, Arc::clone(&plan));
            let result = run.forward().and_then(|()| run.take_outputs(outputs));
            run.finish();
            result
        })?;
        if let Some(sim) = device {
            plan.project(&self.graph, sim);
        }
        Ok(values)
    }

    /// Runs a full training iteration (forward + backward from a scalar
    /// `loss` node), leaving parameter gradients in the executor: the
    /// seeded step with ones at the loss and nothing captured. With a
    /// `device`, the plan that ran is then projected onto it.
    ///
    /// # Errors
    ///
    /// Propagates planning, operator, binding and capacity errors; rejects
    /// a non-scalar loss and inference options.
    pub fn train_step(
        &mut self,
        bindings: &HashMap<NodeId, Tensor>,
        loss: NodeId,
        opts: ExecOptions,
        device: Option<&mut DeviceSim>,
    ) -> Result<IterationStats> {
        let target = [loss];
        let key = PlanKey {
            outputs: &target,
            backward: Some((&target, &[])),
            training: opts.training,
        };
        let plan = self.resolve_plan(bindings, key)?;
        let shape = plan.shape(loss.index());
        if shape.num_elements() != 1 {
            return Err(GraphError::NonScalarLoss {
                shape: shape.to_string(),
            });
        }
        let seeds = [(loss, Tensor::full(shape.clone(), 1.0))];
        let out = self.run_step(plan, bindings, &seeds, device)?;
        Ok(IterationStats {
            loss: out.outputs.first().map(|t| t.data()[0]),
            ..out.stats
        })
    }

    /// One pipelined stage step: forward over the union cone of
    /// `outputs`, then a backward walk seeded with the downstream
    /// activation-gradients in `seeds`, capturing the gradients that
    /// reach the `Input` nodes listed in `capture` (the stage's received
    /// interface) instead of discarding them.
    ///
    /// This is [`train_step`](Executor::train_step) generalized to a
    /// subgraph, on the same plan tables and the same loops: the last
    /// pipeline stage seeds its scalar loss with a ones tensor (making
    /// `stage_step` on a single-stage partition bit-identical to
    /// `train_step`), every other stage seeds its send interface with the
    /// gradients received from the next stage. Each seed is installed
    /// before the walk, so in-walk contributions from this subgraph's
    /// consumers `axpy` onto it in descending node order — exactly the
    /// association the whole-graph walk uses when downstream consumers
    /// have larger indices. Parameter gradients accumulate into the
    /// executor exactly as in a training step.
    ///
    /// With a `device`, the plan that ran is then projected onto it.
    ///
    /// # Errors
    ///
    /// Rejects inference options and propagates planning, operator,
    /// binding and capacity errors.
    pub fn stage_step(
        &mut self,
        bindings: &HashMap<NodeId, Tensor>,
        outputs: &[NodeId],
        seeds: &[(NodeId, Tensor)],
        capture: &[NodeId],
        opts: ExecOptions,
        device: Option<&mut DeviceSim>,
    ) -> Result<StageStepOutput> {
        let seed_ids: Vec<NodeId> = seeds.iter().map(|(id, _)| *id).collect();
        let key = PlanKey {
            outputs,
            backward: Some((&seed_ids, capture)),
            training: opts.training,
        };
        let plan = self.resolve_plan(bindings, key)?;
        self.run_step(plan, bindings, seeds, device)
    }

    /// One seeded step under `plan`: no per-node device bookkeeping, the
    /// plan's static figures folded into the memory report.
    fn run_step(
        &mut self,
        plan: Arc<ExecPlan>,
        bindings: &HashMap<NodeId, Tensor>,
        seeds: &[(NodeId, Tensor)],
        device: Option<&mut DeviceSim>,
    ) -> Result<StageStepOutput> {
        self.zero_grads();
        self.memory
            .fold(&self.on_device(&plan, &plan.accounting.step), true);
        let (result, replays) = self.with_panels(|exec| {
            let mut run = Run::new(exec, bindings, Arc::clone(&plan));
            let result = run.step(seeds);
            let replays = run.replays;
            run.finish();
            (result, replays)
        });
        self.replays_total += replays;
        let (outputs, input_grads) = result?;
        if let Some(sim) = device {
            plan.project(&self.graph, sim);
        }
        Ok(StageStepOutput {
            outputs,
            input_grads,
            stats: IterationStats {
                loss: None,
                peak_bytes: self.memory.peak_bytes,
                replays,
            },
        })
    }

    /// Projects one execution without computing it: resolves the plan as
    /// [`train_step`](Executor::train_step) (with a `loss`) or
    /// [`forward_many`](Executor::forward_many) (without: an inference
    /// forward to `outputs`) would, folds the plan's static memory figures
    /// into the report as that execution does and, with a `sim`, projects
    /// the plan onto it ([`ExecPlan::project`]).
    /// Parameters may be bound by shape alone
    /// ([`bind_param_shape`](Executor::bind_param_shape)); bindings are
    /// read for their shapes only.
    ///
    /// # Errors
    ///
    /// Propagates planning failures and capacity errors.
    pub fn project(
        &mut self,
        bindings: &HashMap<NodeId, Tensor>,
        outputs: &[NodeId],
        loss: Option<NodeId>,
        sim: Option<&mut DeviceSim>,
    ) -> Result<IterationStats> {
        let seeds = loss.as_slice();
        let key = PlanKey {
            outputs,
            backward: loss.map(|_| (seeds, &[][..])),
            training: loss.is_some(),
        };
        let plan = self.resolve_plan(bindings, key)?;
        let mut replays = 0;
        if loss.is_some() {
            self.memory
                .fold(&self.on_device(&plan, &plan.accounting.step), true);
            replays = plan.planned_replays();
            self.replays_total += replays;
        } else {
            self.memory
                .fold(&self.on_device(&plan, &plan.accounting.forward), false);
        }
        if let Some(sim) = sim {
            plan.project(&self.graph, sim);
        }
        Ok(IterationStats {
            loss: None,
            peak_bytes: self.memory.peak_bytes,
            replays,
        })
    }
}

/// One in-flight execution of a plan.
struct Run<'e> {
    exec: &'e mut Executor,
    bindings: &'e HashMap<NodeId, Tensor>,
    plan: Arc<ExecPlan>,
    /// Tensor-storage recycler (taken from the executor for the duration
    /// of the run, like the dense tables below).
    pool: TensorPool,
    /// Per-node values.
    values: Vec<Option<Tensor>>,
    /// Per-node operator-private saved tensors.
    saved: Vec<Option<Saved>>,
    /// Remaining forward uses, for transient freeing.
    fwd_uses: Vec<u32>,
    /// Gradient per node during backward.
    grads: Vec<Option<Tensor>>,
    /// Whether a gradient reached the node.
    grad_present: Vec<bool>,
    /// Per-node "backward entry processed" mask — the basis of the
    /// scratch-reader refcounts.
    bwd_done: Vec<bool>,
    /// Replay scratch per segment id.
    scratch: HashMap<usize, SegmentScratch>,
    /// Segments mid-replay (guards mutually-referencing segments).
    replaying: Vec<usize>,
    replays: u64,
}

struct SegmentScratch {
    values: HashMap<NodeId, Tensor>,
    saved: HashMap<NodeId, Saved>,
    /// Workspace pool this scratch occupies. Exclusive access is the
    /// sharing contract; a new same-pool replay evicts this scratch first.
    pool: usize,
    /// Backward entries that will still read this scratch (burn-autodiff's
    /// `n_required` refcount idiom): counted at replay time over the
    /// plan's reader table minus the entries already processed,
    /// decremented as each reader finishes — skipped or not — and the
    /// scratch is retired at zero.
    n_required: usize,
}

/// A read-only view of everything a kernel call may touch, built per op
/// by the forward, backward and replay loops: mutation (replay, commit)
/// happens on the run, the kernel call in between only borrows its tables.
struct RunView<'a> {
    plan: &'a ExecPlan,
    graph: &'a Graph,
    values: &'a [Option<Tensor>],
    grads: &'a [Option<Tensor>],
    saved: &'a [Option<Saved>],
    scratch: &'a HashMap<usize, SegmentScratch>,
    params: &'a HashMap<NodeId, Tensor>,
    bindings: &'a HashMap<NodeId, Tensor>,
}

impl RunView<'_> {
    /// `id`'s value: computed this step, a bound parameter, a caller
    /// binding, or — for a node forward dropped — its segment's scratch.
    fn value(&self, id: NodeId) -> Result<&Tensor> {
        let scratch_value = || {
            let seg = self.plan.seg_of.get(id.index()).copied().flatten()?;
            self.scratch.get(&(seg as usize))?.values.get(&id)
        };
        self.values[id.index()]
            .as_ref()
            .or_else(|| self.params.get(&id))
            .or_else(|| self.bindings.get(&id))
            .or_else(scratch_value)
            .ok_or_else(|| GraphError::MissingBinding {
                name: self.graph.nodes()[id.index()].name.clone(),
            })
    }

    fn op(&self, idx: usize) -> (&(dyn Operator + Send + Sync), &[NodeId]) {
        match &self.graph.nodes()[idx].kind {
            NodeKind::Op { op, inputs } => (op.as_ref(), inputs),
            _ => unreachable!("kernel calls are issued for op nodes only"),
        }
    }

    fn forward(&self, idx: usize) -> Result<(Tensor, Saved)> {
        let (op, inputs) = self.op(idx);
        let in_values: Vec<&Tensor> = inputs
            .iter()
            .map(|&i| self.value(i))
            .collect::<Result<_>>()?;
        op.forward(&in_values)
    }

    /// Runs op `idx`'s backward kernel over borrowed views — no tensor is
    /// cloned. Only called once everything the op reads is replayed.
    fn backward(&self, idx: usize) -> Result<Vec<Option<Tensor>>> {
        let (op, inputs) = self.op(idx);
        let id = NodeId(idx);
        let needs = self.plan.ops[idx].as_ref().expect("op tables").needs;
        let input_refs: Vec<Option<&Tensor>> = if needs.inputs {
            inputs
                .iter()
                .map(|&i| self.value(i).map(Some))
                .collect::<Result<_>>()?
        } else {
            vec![None; inputs.len()]
        };
        let output_ref = if needs.output {
            Some(self.value(id)?)
        } else {
            None
        };
        let scratch_saved = || {
            let seg = self.plan.seg_of[idx]?;
            self.scratch.get(&(seg as usize))?.saved.get(&id)
        };
        let saved_ref: &[Tensor] = match &self.saved[idx] {
            Some(s) => s,
            None => scratch_saved().map_or(&[], |s| s.as_slice()),
        };
        let dy = self.grads[idx].as_ref().expect("grad present");
        let input_grads = op.backward(&input_refs, output_ref, saved_ref, dy)?;
        if input_grads.len() != inputs.len() {
            return Err(GraphError::Operator {
                op: op.name().to_string(),
                message: format!(
                    "backward returned {} gradients for {} inputs",
                    input_grads.len(),
                    inputs.len()
                ),
            });
        }
        Ok(input_grads)
    }
}

impl<'e> Run<'e> {
    /// Builds a run over `plan`, taking the executor's step-persistent
    /// tables instead of allocating fresh ones.
    fn new(
        exec: &'e mut Executor,
        bindings: &'e HashMap<NodeId, Tensor>,
        plan: Arc<ExecPlan>,
    ) -> Self {
        exec.state.ensure_len(plan.graph_len);
        let mut state = std::mem::take(&mut exec.state);
        // Use counts reset from the plan's static table (memcpy into
        // retained storage, no allocation).
        state.fwd_uses[..plan.graph_len].copy_from_slice(&plan.fwd_uses);
        state.bwd_done[..plan.graph_len].fill(false);
        Run {
            exec,
            bindings,
            plan,
            pool: state.pool,
            values: state.values,
            saved: state.saved,
            fwd_uses: state.fwd_uses,
            grads: state.grads,
            grad_present: state.grad_present,
            bwd_done: state.bwd_done,
            scratch: HashMap::new(),
            replaying: Vec::new(),
            replays: 0,
        }
    }

    /// Recycles whatever the step left behind (stashed values whose
    /// gradients never materialized, retained values, the outputs) and
    /// hands the tables back to the executor for the next step.
    fn finish(mut self) {
        for &id in &self.plan.schedule {
            let idx = id.index();
            if let Some(t) = self.values[idx].take() {
                self.pool.put(t.into_vec());
            }
            self.saved[idx] = None;
            if let Some(g) = self.grads[idx].take() {
                self.pool.put(g.into_vec());
            }
            self.grad_present[idx] = false;
        }
        self.exec.state = PlanState {
            values: self.values,
            saved: self.saved,
            grads: self.grads,
            grad_present: self.grad_present,
            fwd_uses: self.fwd_uses,
            bwd_done: self.bwd_done,
            pool: self.pool,
        };
    }

    fn graph(&self) -> Arc<Graph> {
        Arc::clone(&self.exec.graph)
    }

    fn view(&self) -> RunView<'_> {
        RunView {
            plan: &self.plan,
            graph: &self.exec.graph,
            values: &self.values,
            grads: &self.grads,
            saved: &self.saved,
            scratch: &self.scratch,
            params: &self.exec.params,
            bindings: self.bindings,
        }
    }

    /// Returns a freed tensor's storage to the step-persistent pool.
    fn recycle(&mut self, t: Tensor) {
        self.pool.put(t.into_vec());
    }

    /// Hands the requested output values to the caller: computed ones are
    /// taken (the storage would otherwise be recycled by `finish`), a
    /// bound parameter or caller binding is cloned.
    fn take_outputs(&mut self, outputs: &[NodeId]) -> Result<Vec<Tensor>> {
        outputs
            .iter()
            .map(|&id| match self.values[id.index()].take() {
                Some(value) => Ok(value),
                None => self.view().value(id).cloned(),
            })
            .collect()
    }

    /// One seeded training iteration: forward, output snapshot, backward.
    fn step(&mut self, seeds: &[(NodeId, Tensor)]) -> Result<(Vec<Tensor>, Vec<Option<Tensor>>)> {
        self.forward()?;
        let view = self.view();
        let outputs = self
            .plan
            .outputs
            .iter()
            .map(|&id| view.value(id).cloned())
            .collect::<Result<_>>()?;
        let captured = self.backward(seeds)?;
        Ok((outputs, captured))
    }

    // ------------------------------------------------------------------
    // Forward: one loop, one commit.
    // ------------------------------------------------------------------

    fn forward(&mut self) -> Result<()> {
        let plan = Arc::clone(&self.plan);
        let graph = self.graph();
        for &id in &plan.schedule {
            let idx = id.index();
            // Inputs are borrowed from the caller's map on demand; params
            // from the executor. Nothing to do at their steps.
            if plan.ops[idx].is_none() {
                continue;
            }
            let computed = self.view().forward(idx)?;
            self.commit_forward(&plan, &graph, idx, computed);
        }
        Ok(())
    }

    /// Stores op `idx`'s result and frees every input this was the last
    /// forward use of.
    fn commit_forward(
        &mut self,
        plan: &ExecPlan,
        graph: &Graph,
        idx: usize,
        (out, saved): (Tensor, Saved),
    ) {
        self.values[idx] = Some(out);
        self.saved[idx] = Some(saved).filter(|s| plan.keep_saved[idx] && !s.is_empty());
        for &input in graph.nodes()[idx].inputs() {
            let iidx = input.index();
            self.fwd_uses[iidx] -= 1;
            if self.fwd_uses[iidx] == 0 && plan.dropped(iidx) {
                // Recompute-policy values are dropped in training too —
                // that is the entire point of partial forward propagation.
                if let Some(t) = self.values[iidx].take() {
                    self.recycle(t);
                }
                self.saved[iidx] = None;
            }
        }
    }

    // ------------------------------------------------------------------
    // Backward: seeds, one loop, one commit.
    // ------------------------------------------------------------------

    /// The seeded backward walk. Each `(node, grad)` seed is installed
    /// *before* the walk — copied into pooled storage when no gradient
    /// exists yet, accumulated otherwise. Returns the gradients that
    /// reached the plan's captured `Input` nodes, in capture order.
    fn backward(&mut self, seeds: &[(NodeId, Tensor)]) -> Result<Vec<Option<Tensor>>> {
        let plan = Arc::clone(&self.plan);
        let graph = self.graph();
        for &id in &plan.seeds {
            self.grad_present[id.index()] = true;
        }
        for (id, seed) in seeds {
            let idx = id.index();
            if seed.shape() != plan.shape(idx) {
                return Err(GraphError::Operator {
                    op: graph.nodes()[idx].name.clone(),
                    message: format!(
                        "gradient seed has shape {}, node has {}",
                        seed.shape(),
                        plan.shape(idx)
                    ),
                });
            }
            match &mut self.grads[idx] {
                Some(acc) => acc.axpy(1.0, seed).map_err(GraphError::from)?,
                slot @ None => {
                    let mut buf = self.pool.take(seed.len());
                    buf.copy_from_slice(seed.data());
                    *slot = Some(
                        Tensor::from_vec(seed.shape().clone(), buf).map_err(GraphError::from)?,
                    );
                }
            }
        }
        let mut captured: Vec<Option<Tensor>> = vec![None; plan.capture.len()];
        for &id in &plan.bwd_schedule {
            let idx = id.index();
            // The static schedule is a superset of the runtime gradient
            // flow (an op may emit no gradient for a differentiable
            // input): entries no gradient reached only retire scratches.
            if self.grad_present[idx] {
                if plan.ops[idx].is_some() {
                    // Mutation first — replay what this entry reads — then
                    // the read-only kernel call over borrowed views.
                    for seg in plan.required_segments(&graph, idx) {
                        self.ensure_replayed(seg)?;
                    }
                    let input_grads = self.view().backward(idx)?;
                    self.commit_backward(&plan, &graph, idx, input_grads)?;
                } else {
                    self.commit_leaf(&plan, &graph, idx, &mut captured)?;
                }
            }
            self.retire_scratches(idx);
        }
        self.scratch.clear();
        Ok(captured)
    }

    /// Propagates op `idx`'s input gradients and frees what its backward
    /// step kills: its own gradient, its saved state, and its stashed
    /// output unless a later replay re-reads it.
    fn commit_backward(
        &mut self,
        plan: &ExecPlan,
        graph: &Graph,
        idx: usize,
        mut input_grads: Vec<Option<Tensor>>,
    ) -> Result<()> {
        let NodeKind::Op { op, inputs } = &graph.nodes()[idx].kind else {
            unreachable!("backward commits are issued for op nodes only");
        };
        for (slot, &input) in inputs.iter().enumerate() {
            if !op.input_differentiable(slot) {
                continue;
            }
            let Some(g) = input_grads[slot].take() else {
                continue;
            };
            match &mut self.grads[input.index()] {
                Some(acc) => acc.axpy(1.0, &g).map_err(GraphError::from)?,
                slot_ref @ None => *slot_ref = Some(g),
            }
            self.grad_present[input.index()] = true;
        }
        if let Some(g) = self.grads[idx].take() {
            self.recycle(g);
        }
        self.grad_present[idx] = false;
        self.saved[idx] = None;
        if !plan.retain_value[idx] {
            if let Some(t) = self.values[idx].take() {
                self.recycle(t);
            }
        }
        Ok(())
    }

    /// Backward step of a parameter (accumulate into the executor's
    /// persistent gradient buffer) or an input (hand the gradient to the
    /// caller when the plan captures it — pipelined stages capture their
    /// received-interface gradients here — otherwise drop it).
    fn commit_leaf(
        &mut self,
        plan: &ExecPlan,
        graph: &Graph,
        idx: usize,
        captured: &mut [Option<Tensor>],
    ) -> Result<()> {
        self.grad_present[idx] = false;
        let Some(g) = self.grads[idx].take() else {
            return Ok(());
        };
        let id = NodeId(idx);
        if matches!(graph.nodes()[idx].kind, NodeKind::Param) {
            let acc = self
                .exec
                .grads
                .get_mut(&id)
                .expect("param grad buffer exists");
            acc.axpy(1.0, &g).map_err(GraphError::from)?;
        } else if let Some(slot) = plan.capture.iter().position(|&c| c == id) {
            captured[slot] = Some(g);
            return Ok(());
        }
        self.recycle(g);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Replay: the one recompute mechanism.
    // ------------------------------------------------------------------

    /// Replays segment `seg` unless its scratch is live: forward from
    /// stashed boundary values into a scratch on the segment's workspace
    /// pool.
    fn ensure_replayed(&mut self, seg: usize) -> Result<()> {
        if self.scratch.contains_key(&seg) || self.replaying.contains(&seg) {
            return Ok(());
        }
        let plan = Arc::clone(&self.plan);
        let Some(table) = plan.segments.get(&seg) else {
            return Ok(());
        };
        let graph = self.graph();
        let mut values: HashMap<NodeId, Tensor> = HashMap::new();
        let mut saved: HashMap<NodeId, Saved> = HashMap::new();
        // What the replay materializes: each member's output plus the
        // larger of its declared and its actual saved state.
        let mut bytes = 0u64;
        self.replaying.push(seg);
        for &member in &table.members {
            let idx = member as usize;
            let NodeKind::Op { op, inputs } = &graph.nodes()[idx].kind else {
                unreachable!("segment members are ops");
            };
            // Boundary inputs are normally stashed values/params/bindings;
            // under generic checkpointing plans (Chen et al.) a boundary
            // input may itself belong to another recompute segment, which
            // is replayed first (topological order bounds the recursion).
            // Its value is cloned out right after: two boundary segments
            // may share one exclusive workspace pool, in which case the
            // later nested replay evicts the earlier scratch — reading
            // lazily would lose the first value.
            let mut fetched: Vec<(usize, Tensor)> = Vec::new();
            for (slot, &i) in inputs.iter().enumerate() {
                let other = match plan.seg_of[i.index()] {
                    Some(other) if other as usize != seg && plan.dropped(i.index()) => {
                        other as usize
                    }
                    _ => continue,
                };
                self.ensure_replayed(other)?;
                fetched.push((slot, self.view().value(i)?.clone()));
            }
            let (out, s) = {
                let view = self.view();
                let mut refs: Vec<&Tensor> = Vec::with_capacity(inputs.len());
                for (slot, &i) in inputs.iter().enumerate() {
                    refs.push(match fetched.iter().find(|(s, _)| *s == slot) {
                        Some((_, v)) => v,
                        None => match values.get(&i) {
                            Some(v) => v,
                            None => view.value(i)?,
                        },
                    });
                }
                op.forward(&refs)?
            };
            let declared = plan.ops[idx].as_ref().map_or(0, |t| t.saved_bytes);
            let actual = s.iter().map(|t| t.num_bytes() as u64).sum();
            bytes += out.num_bytes() as u64 + declared.max(actual);
            values.insert(NodeId(idx), out);
            if !s.is_empty() {
                saved.insert(NodeId(idx), s);
            }
        }
        self.replaying.pop();
        // The plan accounts this scratch at `table.bytes`; a replay that
        // builds more would hold more than the memory report says.
        debug_assert!(
            bytes <= table.bytes,
            "segment {seg}'s replay materializes {bytes} bytes, its plan accounts {}",
            table.bytes
        );

        // Workspaces are exclusive (paper §3.2): the Echo heuristic only
        // pools segments whose replay lifetimes are disjoint, but
        // stage-normalized or externally authored plans may pool
        // segments whose reader intervals overlap. Honour the contract by
        // evicting any still-live scratch on this pool — its values are
        // re-replayable on demand, so dropping early trades
        // (deterministic, plan-accounted) extra replays for the modeled
        // single-workspace footprint instead of aborting. The exact
        // refcount cannot make this unnecessary: an overlap is a property
        // of the stash plan, not of retirement timing.
        self.scratch.retain(|_, s| s.pool != table.pool);
        self.replays += 1;
        let n_required = table
            .readers
            .iter()
            .filter(|&&r| !self.bwd_done[r as usize])
            .count();
        self.scratch.insert(
            seg,
            SegmentScratch {
                values,
                saved,
                pool: table.pool,
                n_required,
            },
        );
        Ok(())
    }

    /// Marks backward entry `idx` processed and retires every scratch no
    /// remaining entry reads.
    fn retire_scratches(&mut self, idx: usize) {
        self.bwd_done[idx] = true;
        let plan = &self.plan;
        self.scratch.retain(|seg, s| {
            let readers = &plan.segments[seg].readers;
            if readers.binary_search(&(idx as u32)).is_ok() {
                s.n_required = s.n_required.saturating_sub(1);
            }
            s.n_required > 0
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{KernelLaunch, StashNeeds};
    use crate::policy::StashPolicy;
    use echo_device::{DeviceSpec, KernelCategory, KernelCost};
    use echo_memory::LayerKind;
    use echo_tensor::kernels;

    /// y = tanh(x), stashing its output like a real framework op.
    #[derive(Debug)]
    struct Tanh;

    impl crate::op::Operator for Tanh {
        fn name(&self) -> &str {
            "tanh"
        }
        fn category(&self) -> KernelCategory {
            KernelCategory::Activation
        }
        fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
            Ok(inputs[0].clone())
        }
        fn forward(&self, inputs: &[&Tensor]) -> Result<(Tensor, Saved)> {
            Ok((kernels::tanh(inputs[0]), Vec::new()))
        }
        fn backward(
            &self,
            _inputs: &[Option<&Tensor>],
            output: Option<&Tensor>,
            _saved: &[Tensor],
            dy: &Tensor,
        ) -> Result<Vec<Option<Tensor>>> {
            let y = output.expect("tanh stashes its output");
            Ok(vec![Some(kernels::tanh_backward(y, dy)?)])
        }
        fn stash(&self) -> StashNeeds {
            StashNeeds::OUTPUT
        }
        fn forward_launches(&self, _i: &[&Shape], o: &Shape) -> Vec<KernelLaunch> {
            vec![KernelLaunch::kernel(
                "tanh_fwd",
                KernelCategory::Activation,
                KernelCost::elementwise(o.num_elements(), 2),
            )]
        }
        fn backward_launches(&self, _i: &[&Shape], o: &Shape) -> Vec<KernelLaunch> {
            vec![KernelLaunch::kernel(
                "tanh_bwd",
                KernelCategory::Activation,
                KernelCost::elementwise(o.num_elements(), 3),
            )]
        }
    }

    /// y = x * w (element-wise), with w a parameter.
    #[derive(Debug)]
    struct MulParam;

    impl crate::op::Operator for MulParam {
        fn name(&self) -> &str {
            "mul"
        }
        fn category(&self) -> KernelCategory {
            KernelCategory::Elementwise
        }
        fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
            Ok(inputs[0].clone())
        }
        fn forward(&self, inputs: &[&Tensor]) -> Result<(Tensor, Saved)> {
            Ok((inputs[0].mul(inputs[1])?, Vec::new()))
        }
        fn backward(
            &self,
            inputs: &[Option<&Tensor>],
            _output: Option<&Tensor>,
            _saved: &[Tensor],
            dy: &Tensor,
        ) -> Result<Vec<Option<Tensor>>> {
            let x = inputs[0].expect("stash inputs");
            let w = inputs[1].expect("stash inputs");
            Ok(vec![Some(dy.mul(w)?), Some(dy.mul(x)?)])
        }
        fn stash(&self) -> StashNeeds {
            StashNeeds::INPUTS
        }
        fn forward_launches(&self, _i: &[&Shape], o: &Shape) -> Vec<KernelLaunch> {
            vec![KernelLaunch::kernel(
                "mul_fwd",
                KernelCategory::Elementwise,
                KernelCost::elementwise(o.num_elements(), 3),
            )]
        }
        fn backward_launches(&self, _i: &[&Shape], o: &Shape) -> Vec<KernelLaunch> {
            vec![KernelLaunch::kernel(
                "mul_bwd",
                KernelCategory::Elementwise,
                KernelCost::elementwise(o.num_elements(), 4),
            )]
        }
    }

    /// loss = sum(x).
    #[derive(Debug)]
    struct SumAll;

    impl crate::op::Operator for SumAll {
        fn name(&self) -> &str {
            "sum"
        }
        fn category(&self) -> KernelCategory {
            KernelCategory::Reduction
        }
        fn infer_shape(&self, _inputs: &[&Shape]) -> Result<Shape> {
            Ok(Shape::scalar())
        }
        fn forward(&self, inputs: &[&Tensor]) -> Result<(Tensor, Saved)> {
            Ok((Tensor::scalar(inputs[0].sum() as f32), Vec::new()))
        }
        fn backward(
            &self,
            inputs: &[Option<&Tensor>],
            _output: Option<&Tensor>,
            _saved: &[Tensor],
            dy: &Tensor,
        ) -> Result<Vec<Option<Tensor>>> {
            let x = inputs[0].expect("stash inputs");
            Ok(vec![Some(Tensor::full(x.shape().clone(), dy.data()[0]))])
        }
        fn stash(&self) -> StashNeeds {
            StashNeeds::INPUTS
        }
        fn forward_launches(&self, i: &[&Shape], _o: &Shape) -> Vec<KernelLaunch> {
            vec![KernelLaunch::kernel(
                "sum_fwd",
                KernelCategory::Reduction,
                KernelCost::elementwise(i[0].num_elements(), 1),
            )]
        }
        fn backward_launches(&self, i: &[&Shape], _o: &Shape) -> Vec<KernelLaunch> {
            vec![KernelLaunch::kernel(
                "sum_bwd",
                KernelCategory::Reduction,
                KernelCost::elementwise(i[0].num_elements(), 1),
            )]
        }
    }

    fn chain_graph() -> (Arc<Graph>, NodeId, NodeId, NodeId, NodeId, NodeId) {
        // loss = sum(tanh(tanh(x * w)))
        let mut g = Graph::new();
        let x = g.input("x", LayerKind::Other);
        let w = g.param("w", LayerKind::Rnn);
        let m = g.apply("m", Arc::new(MulParam), &[x, w], LayerKind::Rnn);
        let t1 = g.apply("t1", Arc::new(Tanh), &[m], LayerKind::Rnn);
        let t2 = g.apply("t2", Arc::new(Tanh), &[t1], LayerKind::Rnn);
        let loss = g.apply("loss", Arc::new(SumAll), &[t2], LayerKind::Output);
        (Arc::new(g), x, w, t1, t2, loss)
    }

    fn mem() -> DeviceMemory {
        DeviceMemory::with_overhead_model(1 << 30, 0, 0.0)
    }

    #[test]
    fn forward_computes_chain() {
        let (g, x, w, _, t2, _) = chain_graph();
        let mut exec = Executor::new(g, StashPlan::stash_all(), mem());
        exec.bind_param(w, Tensor::full(Shape::d1(4), 0.5)).unwrap();
        let mut bindings = HashMap::new();
        bindings.insert(x, Tensor::full(Shape::d1(4), 1.0));
        let out = exec
            .forward(&bindings, t2, ExecOptions::default(), None)
            .unwrap();
        let expect = (0.5f32).tanh().tanh();
        assert!((out.data()[0] - expect).abs() < 1e-6);
    }

    #[test]
    fn train_step_produces_param_grads() {
        let (g, x, w, _, _, loss) = chain_graph();
        let mut exec = Executor::new(g, StashPlan::stash_all(), mem());
        exec.bind_param(w, Tensor::full(Shape::d1(4), 0.5)).unwrap();
        let mut bindings = HashMap::new();
        bindings.insert(x, Tensor::full(Shape::d1(4), 1.0));
        let stats = exec
            .train_step(&bindings, loss, ExecOptions::default(), None)
            .unwrap();
        let loss_v = stats.loss.unwrap();
        assert!((loss_v - 4.0 * (0.5f32).tanh().tanh()).abs() < 1e-5);
        let grad = exec.grad(w).unwrap().clone();
        // Finite-difference check.
        let eps = 1e-3f32;
        let loss_at = |wv: f32| 4.0 * (wv).tanh().tanh();
        let fd = (loss_at(0.5 + eps) - loss_at(0.5 - eps)) / (2.0 * eps);
        for &gv in grad.data() {
            assert!((gv - fd / 4.0 * 1.0).abs() < 1e-3, "grad {gv} vs fd {fd}");
        }
    }

    #[test]
    fn recompute_matches_stash_bitwise() {
        let (g, x, w, t1, _, loss) = chain_graph();
        let run = |plan: StashPlan| {
            let mut exec = Executor::new(Arc::clone(&g), plan, mem());
            exec.bind_param(w, Tensor::from_fn(Shape::d1(4), |i| 0.1 * i as f32 + 0.2))
                .unwrap();
            let mut bindings = HashMap::new();
            bindings.insert(x, Tensor::from_fn(Shape::d1(4), |i| 1.0 - 0.3 * i as f32));
            let stats = exec
                .train_step(&bindings, loss, ExecOptions::default(), None)
                .unwrap();
            (stats, exec.grad(w).unwrap().clone())
        };
        let (s_stash, g_stash) = run(StashPlan::stash_all());
        let mut plan = StashPlan::stash_all();
        plan.set(
            t1,
            StashPolicy::Recompute(crate::policy::SegmentId { id: 0, pool: 0 }),
        );
        let (s_rec, g_rec) = run(plan);
        assert_eq!(s_stash.loss, s_rec.loss);
        assert_eq!(g_stash.data(), g_rec.data(), "gradients must be bit-exact");
        assert_eq!(s_rec.replays, 1);
        assert_eq!(s_stash.replays, 0);
    }

    #[test]
    fn recompute_reduces_peak_memory() {
        // Larger tensors so the policy effect dominates bookkeeping.
        let (g, x, w, t1, _, loss) = chain_graph();
        let n = 64 * 1024;
        let run = |plan: StashPlan| {
            let mut exec = Executor::new(Arc::clone(&g), plan, mem());
            exec.bind_param(w, Tensor::full(Shape::d1(n), 0.5)).unwrap();
            let mut bindings = HashMap::new();
            bindings.insert(x, Tensor::full(Shape::d1(n), 1.0));
            exec.train_step(&bindings, loss, ExecOptions::default(), None)
                .unwrap();
            exec.memory_report().peak_bytes
        };
        let peak_stash = run(StashPlan::stash_all());
        let mut plan = StashPlan::stash_all();
        plan.set(
            t1,
            StashPolicy::Recompute(crate::policy::SegmentId { id: 0, pool: 0 }),
        );
        let peak_rec = run(plan);
        assert!(
            peak_rec < peak_stash,
            "recompute peak {peak_rec} must be below stash peak {peak_stash}"
        );
    }

    #[test]
    fn projection_matches_numeric_memory() {
        // A projection over shape-bound parameters reports the memory a
        // numeric step reports, replay workspace included, and launches
        // what that step projects, record for record.
        let (g, x, w, _, _, loss) = chain_graph();
        let n = 1024;
        for stash in [StashPlan::stash_all(), recompute_t1_plan()] {
            let run = |numeric: bool| {
                let mut exec = Executor::new(Arc::clone(&g), stash.clone(), mem());
                let bindings = HashMap::from([(x, Tensor::full(Shape::d1(n), 1.0))]);
                let mut sim = DeviceSim::new(DeviceSpec::titan_xp());
                sim.set_op_overhead_ns(1_000);
                let stats = if numeric {
                    exec.bind_param(w, Tensor::full(Shape::d1(n), 0.5)).unwrap();
                    exec.train_step(&bindings, loss, ExecOptions::default(), Some(&mut sim))
                } else {
                    exec.bind_param_shape(w, Shape::d1(n)).unwrap();
                    exec.project(&bindings, &[loss], Some(loss), Some(&mut sim))
                }
                .unwrap();
                (
                    exec.memory_report().peak_bytes,
                    stats.replays,
                    sim.trace_digest(),
                )
            };
            assert_eq!(run(true), run(false));
        }
    }

    #[test]
    fn forward_to_a_bound_parameter_returns_its_value() {
        let (g, x, w, _, _, _) = chain_graph();
        let mut exec = Executor::new(g, StashPlan::stash_all(), mem());
        let value = Tensor::from_fn(Shape::d1(4), |i| 0.25 * i as f32);
        exec.bind_param(w, value.clone()).unwrap();
        let bindings = HashMap::from([(x, Tensor::full(Shape::d1(4), 1.0))]);
        let opts = ExecOptions { training: false };
        let out = exec.forward(&bindings, w, opts, None).unwrap();
        assert_eq!(out.data(), value.data());
        let many = exec.forward_many(&bindings, &[w, x], opts, None).unwrap();
        assert_eq!(many[0].data(), value.data());
        assert_eq!(many[1].data(), bindings[&x].data());
    }

    #[test]
    fn device_launches_cover_forward_and_backward() {
        let (g, x, w, _, _, loss) = chain_graph();
        let mut exec = Executor::new(g, StashPlan::stash_all(), mem());
        exec.bind_param(w, Tensor::full(Shape::d1(8), 0.5)).unwrap();
        let mut bindings = HashMap::new();
        bindings.insert(x, Tensor::full(Shape::d1(8), 1.0));
        let mut sim = DeviceSim::new(DeviceSpec::titan_xp());
        exec.train_step(&bindings, loss, ExecOptions::default(), Some(&mut sim))
            .unwrap();
        sim.synchronize();
        // 4 forward + 4 backward kernels.
        assert_eq!(sim.api_stats().launch_calls, 8);
        let trace = sim.summary();
        assert!(trace.category_ns(KernelCategory::Activation) > 0);
    }

    #[test]
    fn missing_binding_is_reported() {
        let (g, _x, w, _, t2, _) = chain_graph();
        let mut exec = Executor::new(g, StashPlan::stash_all(), mem());
        exec.bind_param(w, Tensor::full(Shape::d1(4), 0.5)).unwrap();
        let err = exec
            .forward(&HashMap::new(), t2, ExecOptions::default(), None)
            .unwrap_err();
        assert!(matches!(err, GraphError::MissingBinding { .. }));
    }

    #[test]
    fn non_scalar_loss_rejected() {
        let (g, x, w, _, t2, _) = chain_graph();
        let mut exec = Executor::new(g, StashPlan::stash_all(), mem());
        exec.bind_param(w, Tensor::full(Shape::d1(4), 0.5)).unwrap();
        let mut bindings = HashMap::new();
        bindings.insert(x, Tensor::full(Shape::d1(4), 1.0));
        let err = exec
            .train_step(&bindings, t2, ExecOptions::default(), None)
            .unwrap_err();
        assert!(matches!(err, GraphError::NonScalarLoss { .. }));
    }

    fn recompute_t1_plan() -> StashPlan {
        let mut plan = StashPlan::stash_all();
        let (_, _, _, t1, _, _) = chain_graph();
        plan.set(
            t1,
            StashPolicy::Recompute(crate::policy::SegmentId { id: 0, pool: 0 }),
        );
        plan
    }

    fn chain_values() -> (Tensor, Tensor) {
        (
            Tensor::from_fn(Shape::d1(4), |i| 0.1 * i as f32 + 0.2),
            Tensor::from_fn(Shape::d1(4), |i| 1.0 - 0.3 * i as f32),
        )
    }

    /// The oracle's `(loss, dL/dw)` for the chain graph.
    fn chain_oracle() -> (f32, Tensor) {
        let (g, x, w, _, _, loss) = chain_graph();
        let (init_w, init_x) = chain_values();
        let (value, mut grads) = crate::reference::train_step(
            &g,
            &HashMap::from([(w, init_w)]),
            &HashMap::from([(x, init_x)]),
            loss,
        )
        .unwrap();
        (value, grads.remove(0).1)
    }

    /// One train step on a fresh executor — with the plan installed up
    /// front, or planned on demand — plus that plan.
    fn chain_step(stash: StashPlan, install: bool) -> (IterationStats, Tensor, Arc<ExecPlan>) {
        let (g, x, w, _, _, loss) = chain_graph();
        let (init_w, init_x) = chain_values();
        let mut exec = Executor::new(g, stash, mem());
        exec.bind_param(w, init_w).unwrap();
        let bindings = HashMap::from([(x, init_x)]);
        if install {
            let ep = exec
                .plan_for(&bindings, loss, ExecOptions::default())
                .unwrap();
            exec.set_exec_plan(ep).unwrap();
        }
        let stats = exec
            .train_step(&bindings, loss, ExecOptions::default(), None)
            .unwrap();
        let plan = Arc::clone(exec.exec_plan().expect("the step ran a plan"));
        (stats, exec.grad(w).unwrap().clone(), plan)
    }

    /// `peak_bytes` the deleted per-node allocator walk reported for one
    /// step of the chain graph — frozen at the last commit that had it.
    const LEGACY_PEAK_STASH_ALL: u64 = 128;
    const LEGACY_PEAK_RECOMPUTE_T1: u64 = 112;

    #[test]
    fn planned_step_is_bit_identical_to_oracle() {
        let (oracle_loss, oracle_grad) = chain_oracle();
        for stash in [StashPlan::stash_all(), recompute_t1_plan()] {
            for install in [true, false] {
                let (stats, grad, plan) = chain_step(stash.clone(), install);
                assert_eq!(stats.loss, Some(oracle_loss), "loss bits must match");
                assert_eq!(grad.data(), oracle_grad.data(), "gradient bits must match");
                assert_eq!(stats.replays, plan.planned_replays(), "replays as planned");
            }
        }
        assert_eq!(chain_step(recompute_t1_plan(), true).0.replays, 1);
    }

    #[test]
    fn planned_peak_equals_legacy_peak() {
        // The plan's static accounting timeline replays the memory events
        // of a step exactly, and slot packing is size-exact — so
        // the planned peak is not merely a bound on what the per-node
        // allocator walk used to report, it is the same number.
        for (stash, golden) in [
            (StashPlan::stash_all(), LEGACY_PEAK_STASH_ALL),
            (recompute_t1_plan(), LEGACY_PEAK_RECOMPUTE_T1),
        ] {
            let (stats, _, plan) = chain_step(stash, true);
            assert_eq!(stats.peak_bytes, golden, "step peaks must agree");
            assert_eq!(plan.planned_peak_bytes(), golden, "static peak must agree");
        }
    }

    #[test]
    fn planned_steps_are_stable_across_iterations() {
        // Step-persistent tables must not drift the numbers: the loss is
        // the oracle's on every step (nothing updates the parameter), one
        // replay per step, and the peak holds steady at the step-1 figure.
        let (oracle_loss, _) = chain_oracle();
        let (g, x, w, _, _, loss) = chain_graph();
        let (init_w, init_x) = chain_values();
        let mut exec = Executor::new(g, recompute_t1_plan(), mem());
        exec.bind_param(w, init_w).unwrap();
        let bindings = HashMap::from([(x, init_x)]);
        for _ in 0..3 {
            let stats = exec
                .train_step(&bindings, loss, ExecOptions::default(), None)
                .unwrap();
            assert_eq!(stats.loss, Some(oracle_loss));
            assert_eq!(stats.replays, 1);
            assert_eq!(stats.peak_bytes, LEGACY_PEAK_RECOMPUTE_T1);
        }
        assert_eq!(exec.plans_memoized(), 1, "one signature, one plan");
    }

    #[test]
    fn planned_forward_matches_legacy_forward() {
        // Name kept from the two-interpreter days; the reference is the
        // oracle now.
        let (g, x, w, _, t2, _) = chain_graph();
        let params = HashMap::from([(w, Tensor::full(Shape::d1(4), 0.5))]);
        let bindings = HashMap::from([(x, Tensor::full(Shape::d1(4), 1.0))]);
        let oracle = crate::reference::forward(&g, &params, &bindings, &[t2]).unwrap();
        for install in [false, true] {
            let mut exec = Executor::new(Arc::clone(&g), StashPlan::stash_all(), mem());
            exec.bind_param(w, params[&w].clone()).unwrap();
            if install {
                let ep = exec
                    .plan_for(&bindings, t2, ExecOptions::default())
                    .unwrap();
                exec.set_exec_plan(ep).unwrap();
            }
            let out = exec
                .forward(&bindings, t2, ExecOptions::default(), None)
                .unwrap();
            assert_eq!(out.data(), oracle[0].data());
        }
    }

    #[test]
    fn planned_device_launches_match_legacy() {
        // An installed plan and one planned on demand dispatch the same
        // kernels: 4 forward + 4 backward, plus one per replayed op.
        let (g, x, w, _, _, loss) = chain_graph();
        let launches = |plan: StashPlan, planned: bool| {
            let mut exec = Executor::new(Arc::clone(&g), plan, mem());
            exec.bind_param(w, Tensor::full(Shape::d1(8), 0.5)).unwrap();
            let mut bindings = HashMap::new();
            bindings.insert(x, Tensor::full(Shape::d1(8), 1.0));
            if planned {
                let ep = exec
                    .plan_for(&bindings, loss, ExecOptions::default())
                    .unwrap();
                exec.set_exec_plan(ep).unwrap();
            }
            let mut sim = DeviceSim::new(DeviceSpec::titan_xp());
            exec.train_step(&bindings, loss, ExecOptions::default(), Some(&mut sim))
                .unwrap();
            sim.api_stats().launch_calls
        };
        assert_eq!(launches(StashPlan::stash_all(), true), 8);
        assert_eq!(launches(recompute_t1_plan(), true), 9);
        assert_eq!(launches(recompute_t1_plan(), false), 9);
    }

    #[test]
    fn mismatched_bindings_are_replanned() {
        // A plan is specialized to its binding shapes. Presenting a batch
        // of a different shape (a real case: NMT bucketed batches) must
        // plan that shape and run it, not fail and not misuse the
        // installed plan — and both plans stay cached.
        let seen = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut g = Graph::new();
        let x = g.input("x", LayerKind::Other);
        let loss = g.apply(
            "probe",
            Arc::new(PtrProbe(Arc::clone(&seen))),
            &[x],
            LayerKind::Output,
        );
        let g = Arc::new(g);
        let mut exec = Executor::new(Arc::clone(&g), StashPlan::stash_all(), mem());
        let mut bindings = HashMap::new();
        bindings.insert(x, Tensor::full(Shape::d1(1024), 0.5));
        let ep = exec
            .plan_for(&bindings, loss, ExecOptions::default())
            .unwrap();
        exec.set_exec_plan(Arc::clone(&ep)).unwrap();
        let mut other = HashMap::new();
        other.insert(x, Tensor::full(Shape::d1(2048), 0.25));
        for _ in 0..2 {
            let stats = exec
                .train_step(&other, loss, ExecOptions::default(), None)
                .unwrap();
            assert_eq!(stats.loss, Some(0.25 * 2048.0));
        }
        assert_eq!(exec.plans_memoized(), 1, "the new shape is planned once");
        exec.train_step(&bindings, loss, ExecOptions::default(), None)
            .unwrap();
        assert_eq!(
            exec.plans_memoized(),
            1,
            "the installed plan is still cached"
        );
        assert!(Arc::ptr_eq(exec.exec_plan().unwrap(), &ep));
    }

    #[test]
    fn rebinding_a_parameter_replaces_its_allocation() {
        let (g, x, w, _, _, loss) = chain_graph();
        let mut exec = Executor::new(g, StashPlan::stash_all(), mem());
        let weights = |exec: &Executor| {
            echo_memory::MemoryBreakdown::at_category_maxima(&exec.memory_report())
                .kind_bytes(DataStructureKind::Weight)
        };
        exec.bind_param(w, Tensor::full(Shape::d1(4), 0.5)).unwrap();
        let bound = weights(&exec);
        assert_eq!(bound, 32, "value + gradient");
        for _ in 0..20 {
            exec.bind_param(w, Tensor::full(Shape::d1(4), 0.25))
                .unwrap();
        }
        assert_eq!(
            weights(&exec),
            bound,
            "a re-bind must not leak device space"
        );
        // A re-bind under a new shape drops the plans built for the old one.
        let bindings = HashMap::from([(x, Tensor::full(Shape::d1(4), 1.0))]);
        exec.train_step(&bindings, loss, ExecOptions::default(), None)
            .unwrap();
        exec.bind_param(w, Tensor::full(Shape::d1(8), 0.25))
            .unwrap();
        assert!(exec.exec_plan().is_none());
        assert_eq!(weights(&exec), 2 * bound);
    }

    #[test]
    fn memory_report_folds_steps_and_forwards() {
        // One executor runs a step, an evaluation forward at a larger
        // width, then a step under a smaller plan. The peak and the live
        // set at it come from the last step alone; each category's
        // maximum is taken over all three.
        let (g, x, w, _, t2, loss) = chain_graph();
        let mut exec = Executor::new(g, StashPlan::stash_all(), mem());
        let mut run = |n: usize, training: bool| {
            exec.bind_param(w, Tensor::full(Shape::d1(n), 0.5)).unwrap();
            let bindings = HashMap::from([(x, Tensor::full(Shape::d1(n), 1.0))]);
            if training {
                exec.train_step(&bindings, loss, ExecOptions::default(), None)
                    .unwrap();
            } else {
                let eval = ExecOptions { training: false };
                exec.forward(&bindings, t2, eval, None).unwrap();
            }
            Arc::clone(exec.exec_plan().unwrap())
        };
        let (big, forward, small) = (run(64, true), run(128, false), run(4, true));
        let report = exec.memory_report();
        let last = &small.accounting.step;
        assert_eq!(report.peak_bytes, last.peak_bytes);
        assert_eq!(report.peak_breakdown, last.peak_breakdown);
        assert!(report.peak_bytes < forward.accounting.forward.peak_bytes);
        let mut maxima = MemoryReport::default();
        for phase in [&big.accounting.step, &forward.accounting.forward, last] {
            maxima.fold(phase, false);
        }
        assert_eq!(report.max_breakdown, maxima.max_breakdown);
        assert_ne!(report.max_breakdown, big.accounting.step.max_breakdown);
        assert_ne!(
            report.max_breakdown,
            forward.accounting.forward.max_breakdown
        );
    }

    #[test]
    fn stage_step_with_loss_seed_is_train_step() {
        // P = 1: seeding the loss with ones and capturing the input's
        // gradient runs the same loops as `train_step`, bit for bit.
        let (g, x, w, _, _, loss) = chain_graph();
        let (init_w, init_x) = chain_values();
        let (oracle_loss, oracle_grad) = chain_oracle();
        for stash in [StashPlan::stash_all(), recompute_t1_plan()] {
            let mut exec = Executor::new(Arc::clone(&g), stash, mem());
            exec.bind_param(w, init_w.clone()).unwrap();
            let bindings = HashMap::from([(x, init_x.clone())]);
            let out = exec
                .stage_step(
                    &bindings,
                    &[loss],
                    &[(loss, Tensor::full(Shape::scalar(), 1.0))],
                    &[x],
                    ExecOptions::default(),
                    None,
                )
                .unwrap();
            assert_eq!(out.outputs[0].data(), &[oracle_loss]);
            assert_eq!(exec.grad(w).unwrap().data(), oracle_grad.data());
            // d loss / d x = d loss / d m * w, captured instead of dropped.
            let dx = out.input_grads[0]
                .as_ref()
                .expect("input gradient captured");
            let dw = exec.grad(w).unwrap();
            for i in 0..4 {
                let dm = dw.data()[i] / init_x.data()[i];
                assert!((dx.data()[i] - dm * init_w.data()[i]).abs() < 1e-6);
            }
            let step = exec
                .train_step(&bindings, loss, ExecOptions::default(), None)
                .unwrap();
            assert_eq!(step.loss, Some(oracle_loss));
            assert_eq!(step.replays, out.stats.replays);
            assert_eq!(step.peak_bytes, out.stats.peak_bytes);
        }
    }

    #[test]
    fn set_exec_plan_rejects_foreign_graph() {
        let (g, x, w, _, _, loss) = chain_graph();
        let mut exec = Executor::new(Arc::clone(&g), StashPlan::stash_all(), mem());
        exec.bind_param(w, Tensor::full(Shape::d1(4), 0.5)).unwrap();
        let mut bindings = HashMap::new();
        bindings.insert(x, Tensor::full(Shape::d1(4), 1.0));
        let ep = exec
            .plan_for(&bindings, loss, ExecOptions::default())
            .unwrap();

        let mut other_graph = Graph::new();
        let _ = other_graph.input("x", LayerKind::Other);
        let mut other = Executor::new(Arc::new(other_graph), StashPlan::stash_all(), mem());
        assert!(other.set_exec_plan(ep).is_err());
    }

    #[test]
    fn clone_replica_shares_exec_plan() {
        let (g, x, w, _, _, loss) = chain_graph();
        let mut exec = Executor::new(Arc::clone(&g), StashPlan::stash_all(), mem());
        exec.bind_param(w, Tensor::full(Shape::d1(4), 0.5)).unwrap();
        let mut bindings = HashMap::new();
        bindings.insert(x, Tensor::full(Shape::d1(4), 1.0));
        let ep = exec
            .plan_for(&bindings, loss, ExecOptions::default())
            .unwrap();
        exec.set_exec_plan(Arc::clone(&ep)).unwrap();
        let replica = exec.clone_replica(mem()).unwrap();
        let shared = replica.exec_plan().expect("replica inherits the plan");
        assert!(Arc::ptr_eq(shared, &ep), "no replanning per replica");
    }

    /// Records the data pointer its input tensor presented to `forward`.
    #[derive(Debug)]
    struct PtrProbe(Arc<std::sync::atomic::AtomicUsize>);

    impl crate::op::Operator for PtrProbe {
        fn name(&self) -> &str {
            "ptr_probe"
        }
        fn category(&self) -> KernelCategory {
            KernelCategory::Reduction
        }
        fn infer_shape(&self, _inputs: &[&Shape]) -> Result<Shape> {
            Ok(Shape::scalar())
        }
        fn forward(&self, inputs: &[&Tensor]) -> Result<(Tensor, Saved)> {
            self.0.store(
                inputs[0].data().as_ptr() as usize,
                std::sync::atomic::Ordering::SeqCst,
            );
            Ok((Tensor::scalar(inputs[0].sum() as f32), Vec::new()))
        }
        fn backward(
            &self,
            inputs: &[Option<&Tensor>],
            _output: Option<&Tensor>,
            _saved: &[Tensor],
            dy: &Tensor,
        ) -> Result<Vec<Option<Tensor>>> {
            let x = inputs[0].expect("stash inputs");
            Ok(vec![Some(Tensor::full(x.shape().clone(), dy.data()[0]))])
        }
        fn stash(&self) -> StashNeeds {
            StashNeeds::INPUTS
        }
        fn forward_launches(&self, i: &[&Shape], _o: &Shape) -> Vec<KernelLaunch> {
            vec![KernelLaunch::kernel(
                "probe_fwd",
                KernelCategory::Reduction,
                KernelCost::elementwise(i[0].num_elements(), 1),
            )]
        }
        fn backward_launches(&self, i: &[&Shape], _o: &Shape) -> Vec<KernelLaunch> {
            vec![KernelLaunch::kernel(
                "probe_bwd",
                KernelCategory::Reduction,
                KernelCost::elementwise(i[0].num_elements(), 1),
            )]
        }
    }

    #[test]
    fn bindings_are_borrowed_not_copied_per_step() {
        // Regression test for the former `value.clone()` of every input
        // binding into the run state: the tensor an op sees must be the
        // caller's own storage, with an installed plan or without.
        let seen = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut g = Graph::new();
        let x = g.input("embedding_input", LayerKind::Embedding);
        let loss = g.apply(
            "probe",
            Arc::new(PtrProbe(Arc::clone(&seen))),
            &[x],
            LayerKind::Output,
        );
        let g = Arc::new(g);
        for planned in [false, true] {
            let mut exec = Executor::new(Arc::clone(&g), StashPlan::stash_all(), mem());
            let mut bindings = HashMap::new();
            bindings.insert(x, Tensor::full(Shape::d1(1024), 0.5));
            if planned {
                let ep = exec
                    .plan_for(&bindings, loss, ExecOptions::default())
                    .unwrap();
                exec.set_exec_plan(ep).unwrap();
            }
            seen.store(0, std::sync::atomic::Ordering::SeqCst);
            exec.train_step(&bindings, loss, ExecOptions::default(), None)
                .unwrap();
            let caller_ptr = bindings[&x].data().as_ptr() as usize;
            assert_eq!(
                seen.load(std::sync::atomic::Ordering::SeqCst),
                caller_ptr,
                "op must see the caller's buffer, not a per-step copy (planned={planned})"
            );
        }
    }

    #[test]
    fn inference_plan_is_leaner_than_training_plan() {
        let (g, x, w, t1, t2, loss) = chain_graph();
        let exec = {
            let mut e = Executor::new(Arc::clone(&g), StashPlan::stash_all(), mem());
            e.bind_param(w, Tensor::full(Shape::d1(1024), 0.5)).unwrap();
            e
        };
        let mut bindings = HashMap::new();
        bindings.insert(x, Tensor::full(Shape::d1(1024), 1.0));
        let training = exec
            .plan_for(&bindings, loss, ExecOptions::default())
            .unwrap();
        let inference = exec.plan_for_inference(&bindings, &[t2, t1]).unwrap();
        assert!(!inference.training());
        assert_eq!(inference.outputs(), &[t2, t1]);
        assert!(
            inference.arena_bytes() < training.arena_bytes(),
            "inference arena {} must be strictly below training arena {}",
            inference.arena_bytes(),
            training.arena_bytes()
        );
        assert!(
            inference.launch_count() < training.launch_count(),
            "no backward launches in an inference plan"
        );
        assert!(inference.planned_peak_bytes() < training.planned_peak_bytes());
    }

    #[test]
    fn forward_many_planned_matches_legacy_bitwise() {
        // Name kept from the two-interpreter days; the reference is the
        // oracle now.
        let (g, x, w, t1, t2, _) = chain_graph();
        let (init_w, init_x) = chain_values();
        let params = HashMap::from([(w, init_w.clone())]);
        let bindings = HashMap::from([(x, init_x)]);
        let oracle = crate::reference::forward(&g, &params, &bindings, &[t2, t1]).unwrap();
        let opts = ExecOptions { training: false };
        for install in [false, true] {
            let mut exec = Executor::new(Arc::clone(&g), StashPlan::stash_all(), mem());
            exec.bind_param(w, init_w.clone()).unwrap();
            if install {
                let ep = exec.plan_for_inference(&bindings, &[t2, t1]).unwrap();
                exec.set_exec_plan(ep).unwrap();
            }
            let out = exec.forward_many(&bindings, &[t2, t1], opts, None).unwrap();
            assert_eq!(out.len(), 2);
            for (o, p) in oracle.iter().zip(&out) {
                assert_eq!(o.data(), p.data(), "multi-output values must be bit-exact");
            }
            // And each output individually matches a single-target forward.
            let single = exec.forward(&bindings, t2, opts, None).unwrap();
            assert_eq!(single.data(), oracle[0].data());
        }
    }

    #[test]
    fn oom_surfaces_from_execution() {
        let (g, x, w, _, _, loss) = chain_graph();
        // The chain's step plan peaks at 2048 bytes with a 64-wide input;
        // the parameter alone (value + gradient) needs 512, so it binds.
        let tiny = DeviceMemory::with_overhead_model(2000, 0, 0.0);
        let mut exec = Executor::new(g, StashPlan::stash_all(), tiny);
        exec.bind_param(w, Tensor::full(Shape::d1(64), 0.5))
            .unwrap();
        let bindings = HashMap::from([(x, Tensor::full(Shape::d1(64), 1.0))]);
        let err = exec
            .train_step(&bindings, loss, ExecOptions::default(), None)
            .unwrap_err();
        assert!(matches!(
            err,
            GraphError::WontFit(echo_memory::WontFit {
                needed: 2048,
                capacity: 2000
            })
        ));
    }

    /// y = x · wᵀ, with w a parameter: the weight is the GEMM's `B`
    /// operand, read as `Wᵀ` forward and as `W` backward.
    #[derive(Debug)]
    struct MatMulWt;

    impl crate::op::Operator for MatMulWt {
        fn name(&self) -> &str {
            "matmul_wt"
        }
        fn category(&self) -> KernelCategory {
            KernelCategory::FullyConnected
        }
        fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
            Ok(Shape::d2(inputs[0].as_matrix().0, inputs[1].as_matrix().0))
        }
        fn forward(&self, inputs: &[&Tensor]) -> Result<(Tensor, Saved)> {
            Ok((inputs[0].matmul(inputs[1], false, true)?, Vec::new()))
        }
        fn backward(
            &self,
            inputs: &[Option<&Tensor>],
            _output: Option<&Tensor>,
            _saved: &[Tensor],
            dy: &Tensor,
        ) -> Result<Vec<Option<Tensor>>> {
            let x = inputs[0].expect("stash inputs");
            let w = inputs[1].expect("stash inputs");
            Ok(vec![
                Some(dy.matmul(w, false, false)?),
                Some(dy.matmul(x, true, false)?),
            ])
        }
        fn stash(&self) -> StashNeeds {
            StashNeeds::INPUTS
        }
        fn forward_launches(&self, _i: &[&Shape], o: &Shape) -> Vec<KernelLaunch> {
            vec![KernelLaunch::kernel(
                "matmul_fwd",
                KernelCategory::FullyConnected,
                KernelCost::elementwise(o.num_elements(), 2),
            )]
        }
        fn backward_launches(&self, _i: &[&Shape], o: &Shape) -> Vec<KernelLaunch> {
            vec![KernelLaunch::kernel(
                "matmul_bwd",
                KernelCategory::FullyConnected,
                KernelCost::elementwise(o.num_elements(), 4),
            )]
        }
    }

    fn ramp(shape: Shape, scale: f32) -> Tensor {
        let n = shape.num_elements();
        let data = (0..n)
            .map(|i| ((i * 37 % 23) as f32 - 11.0) * scale)
            .collect();
        Tensor::from_vec(shape, data).unwrap()
    }

    /// Runs a forward of `tanh(x · wᵀ)`, changes `w` through `mutate`,
    /// runs it again, and checks both against the reference interpreter
    /// on the weights the executor then holds, bit for bit. The second
    /// forward must re-pack the changed weight's panel: a path that
    /// forgot to mark it stale multiplies by the old weight.
    fn check_stale_panel(mutate: impl FnOnce(&mut Executor, NodeId)) {
        let mut g = Graph::new();
        let x = g.input("x", LayerKind::Other);
        let w = g.param("w", LayerKind::Output);
        let y = g.apply("y", Arc::new(MatMulWt), &[x, w], LayerKind::Output);
        let t = g.apply("t", Arc::new(Tanh), &[y], LayerKind::Output);
        let g = Arc::new(g);
        let bindings = HashMap::from([(x, ramp(Shape::d2(3, 20), 0.05))]);
        let mut exec = Executor::new(Arc::clone(&g), StashPlan::stash_all(), mem());
        exec.bind_param(w, ramp(Shape::d2(11, 20), 0.01)).unwrap();
        let opts = ExecOptions { training: false };
        let oracle = |exec: &Executor| {
            let params = HashMap::from([(w, exec.param(w).unwrap().clone())]);
            crate::reference::forward(&g, &params, &bindings, &[t]).unwrap()
        };
        let before = exec.forward(&bindings, t, opts, None).unwrap();
        assert_eq!(before.data(), oracle(&exec)[0].data());
        mutate(&mut exec, w);
        let after = exec.forward(&bindings, t, opts, None).unwrap();
        assert_eq!(
            after.data(),
            oracle(&exec)[0].data(),
            "a stale panel was used"
        );
        assert_ne!(after.data(), before.data(), "the weight did not change");
        let stats = exec.panel_stats();
        assert_eq!((stats.panels, stats.packs), (1, 2), "{stats:?}");
    }

    #[test]
    fn bind_param_marks_panels_stale() {
        check_stale_panel(|exec, w| {
            exec.bind_param(w, ramp(Shape::d2(11, 20), -0.02)).unwrap();
        });
    }

    #[test]
    fn param_mut_marks_panels_stale() {
        check_stale_panel(|exec, w| exec.param_mut(w).unwrap().scale_inplace(-2.0));
    }

    #[test]
    fn for_each_param_grad_marks_panels_stale() {
        check_stale_panel(|exec, _| {
            exec.for_each_param_grad(|_, value, _| value.scale_inplace(3.0))
        });
    }

    #[test]
    fn import_params_marks_panels_stale() {
        check_stale_panel(|exec, w| exec.import_params(&[(w, ramp(Shape::d2(11, 20), 0.03))]));
    }

    /// A training step packs each weight once per orientation (`Wᵀ`
    /// forward, `W` backward), an unchanged weight is never re-packed,
    /// and a replica starts with no panels.
    #[test]
    fn training_packs_each_orientation_once_per_weight_value() {
        let mut g = Graph::new();
        let x = g.input("x", LayerKind::Other);
        let w = g.param("w", LayerKind::Output);
        let y = g.apply("y", Arc::new(MatMulWt), &[x, w], LayerKind::Output);
        let loss = g.apply("loss", Arc::new(SumAll), &[y], LayerKind::Output);
        let mut exec = Executor::new(Arc::new(g), StashPlan::stash_all(), mem());
        exec.bind_param(w, ramp(Shape::d2(9, 16), 0.01)).unwrap();
        let bindings = HashMap::from([(x, ramp(Shape::d2(5, 16), 0.1))]);
        for _ in 0..3 {
            exec.train_step(&bindings, loss, ExecOptions::default(), None)
                .unwrap();
        }
        let stats = exec.panel_stats();
        assert_eq!((stats.panels, stats.packs), (2, 2), "{stats:?}");
        assert_eq!(stats.panel_bytes, stats.packed_bytes);
        let replica = exec.clone_replica(mem()).unwrap();
        assert_eq!(replica.panel_stats(), PanelStats::default());
    }
}
