//! Ahead-of-time execution plans: static schedules, liveness analysis,
//! replay tables and slot-based buffer reuse.
//!
//! Everything an execution needs besides tensor data is a pure function of
//! `(Graph, StashPlan, outputs, seeds, captures, training flag, binding
//! shapes)` — exactly the inputs the Echo compiler already sees — so
//! [`ExecPlan`] computes it **once** and the executor's interpreter
//! (`exec.rs`) only walks the tables:
//!
//! * the forward topological **schedule** over the outputs' cone, with
//!   static shapes and per-node output/saved byte sizes;
//! * the backward schedule: the nodes a gradient can statically reach
//!   from the plan's **seeds**. A whole-graph training step seeds ones at
//!   the loss; a pipeline stage seeds its send interface with the
//!   gradients received from downstream and **captures** the gradients
//!   that reach its received-interface `Input` nodes. Both are the same
//!   plan shape, so both run the same interpreter loops;
//! * **liveness intervals** for every transient value (birth at its
//!   producing step, death at its last in-cone forward use) and every
//!   transient gradient (birth at its highest-index consumer's backward
//!   step — or before the walk, for a seed — death at its own);
//! * a greedy interval-packing **slot assignment** mapping those transient
//!   tensors onto a small set of reusable buffers. Packing is size-exact
//!   (a slot is reused only by a tensor of identical byte size, the rule
//!   MXNet's memory planner uses), which keeps the reported peak equal to
//!   the exact-liveness peak: a coarser best-fit packing could *inflate*
//!   the footprint it claims to measure. Stashed nodes are excluded — their
//!   lifetimes span forward-to-backward by definition of the
//!   [`StashPlan`](crate::StashPlan), so they can never share a step-local
//!   slot; recompute-policy nodes die at their last forward use, which is
//!   what makes Echo's recomputation decisions directly shrink the slot
//!   set;
//! * per-segment **replay tables** (members, workspace pool, and the
//!   backward entries that read the replayed scratch — the basis of the
//!   interpreter's exact `n_required` retirement refcount) and the
//!   stashed values a late replay re-reads. Workspace sharing across
//!   segments is exact for one backward order, the schedule's, which is
//!   the only order the interpreter runs;
//! * a static **accounting timeline** that replays the memory events of
//!   one step (input placeholders, stashed feature maps + saved state,
//!   transient placeholders, gradient placeholders, workspace-pool growth
//!   at the replay trigger points) and records the peak, its
//!   per-(layer, kind) breakdown, and every category's own high-water
//!   mark over the step. The executor checks the peak against the
//!   device's capacity once, when the plan is memoized, installed or
//!   inherited, and folds these figures into its
//!   [`MemoryReport`](echo_memory::MemoryReport) on every step, counting
//!   every bound parameter's weights where the plan counts only those it
//!   reads — nothing is allocated.
//!
//! Plans are built by `EchoCompiler::compile`/`attach`,
//! [`Executor::plan_for`](crate::Executor::plan_for),
//! [`StagePartition::stage_exec_plans`](crate::StagePartition::stage_exec_plans)
//! — or by the executor itself, on the first execution of a signature it
//! has no plan for — and shared across data-parallel replicas as
//! `Arc<ExecPlan>`: planning happens once per model configuration, not once
//! per replica or per step.

use crate::graph::{Graph, NodeId, NodeKind};
use crate::op::{KernelLaunch, LaunchSpec, StashNeeds};
use crate::policy::{StashPlan, StashPolicy};
use crate::{ExecOptions, GraphError, Result};
use echo_device::DeviceSim;
use echo_memory::{Breakdown, DataStructureKind, LayerKind, MemoryReport};
use echo_tensor::{Shape, Tensor};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of [`ExecPlan`]s built over the process lifetime.
///
/// Exists so tests can assert that constructing K data-parallel replicas
/// performs exactly one planning pass (the plan is shared, not re-derived).
static PLANS_BUILT: AtomicU64 = AtomicU64::new(0);

/// Number of execution plans built so far in this process.
pub fn plans_built() -> u64 {
    PLANS_BUILT.load(Ordering::Relaxed)
}

/// Number of executions that found every plan installed on their executor
/// inapplicable (shape, output, seed or mode mismatch) and had to plan
/// their own signature first.
///
/// Re-planning is deliberate behaviour — bucketed NMT batches present a
/// different shape every few steps, and the executor memoizes the plan it
/// builds — but it must be *observable*: a fleet that plans for batch 32
/// and serves batch 33 would otherwise pay a planning pass nobody asked
/// for without anyone noticing. One increment per unmatched execution;
/// the next execution of that signature hits the memo and does not count,
/// and an executor nobody installed a plan on never counts.
static PLAN_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Number of executions that fell off their installed plan over the
/// process lifetime.
pub fn plan_fallbacks() -> u64 {
    PLAN_FALLBACKS.load(Ordering::Relaxed)
}

/// Records one execution that no installed plan served.
pub(crate) fn record_plan_fallback() {
    PLAN_FALLBACKS.fetch_add(1, Ordering::Relaxed);
}

/// Total floating-point operations of a launch list. Roofline kernels
/// declare their flops directly; a GEMM's are derived from its geometry
/// (`2·m·n·k` multiply-adds).
pub fn launch_flops(launches: &[KernelLaunch]) -> u64 {
    launches
        .iter()
        .map(|l| match &l.spec {
            crate::op::LaunchSpec::Kernel(cost) => cost.flops,
            crate::op::LaunchSpec::Gemm(spec) => {
                2 * (spec.m as u64) * (spec.n as u64) * (spec.k as u64)
            }
        })
        .sum()
}

/// Per-op-node static tables the interpreter reads instead of re-deriving.
/// Indexed by the node's dense index.
#[derive(Debug, Clone, Default)]
pub(crate) struct OpTables {
    /// What the op's backward needs kept alive.
    pub needs: StashNeeds,
    /// Kernel launches of the forward pass, precomputed from static shapes.
    pub fwd_launches: Vec<KernelLaunch>,
    /// Kernel launches of the backward pass.
    pub bwd_launches: Vec<KernelLaunch>,
    /// Declared operator-private saved bytes.
    pub saved_bytes: u64,
}

/// Static description of one recompute segment inside a plan's cone.
#[derive(Debug, Clone, Default)]
pub(crate) struct SegmentTable {
    /// In-cone member ops, ascending (= replay order).
    pub members: Vec<u32>,
    /// Workspace pool the replayed scratch occupies.
    pub pool: usize,
    /// Backward-schedule entries that read the scratch (a member's own
    /// backward, or a consumer that declares it needs its inputs),
    /// ascending. A scratch replayed while `k` of these are still to come
    /// starts with `n_required = k` and retires when the count reaches
    /// zero.
    pub readers: Vec<u32>,
    /// Declared scratch bytes: member outputs plus their saved state.
    pub bytes: u64,
    /// Forward flops of one replay.
    pub flops: u64,
}

/// What one execution asks of a plan, binding shapes aside.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanKey<'a> {
    /// Nodes whose values the caller receives.
    pub outputs: &'a [NodeId],
    /// `(seeds, captures)` of the backward walk; `None` for a forward-only
    /// execution, which any plan with the same outputs and mode serves.
    pub backward: Option<(&'a [NodeId], &'a [NodeId])>,
    /// Training (stash for backward) vs. inference.
    pub training: bool,
}

/// An ahead-of-time execution plan for one `(graph, stash plan, outputs,
/// seeds, captures, training)` configuration and one set of binding
/// shapes.
///
/// Immutable once built; shared via `Arc` between the compiler, the
/// executor and all data-parallel replicas.
#[derive(Debug)]
pub struct ExecPlan {
    /// Every node whose value the caller receives. Whole-graph training
    /// plans keep exactly the loss; stage and inference plans may keep
    /// several (send interface; logits plus recurrent state outputs).
    pub(crate) outputs: Vec<NodeId>,
    /// Nodes whose gradient is installed before the backward walk: the
    /// loss for a training step, the send interface for a pipeline stage.
    /// Empty for forward-only plans.
    pub(crate) seeds: Vec<NodeId>,
    /// `Input` nodes whose gradient is handed to the caller instead of
    /// dropped (a stage's received interface).
    pub(crate) capture: Vec<NodeId>,
    /// Dense keep-alive mask over the graph: kept nodes are never freed
    /// during forward and never packed into a reuse slot.
    pub(crate) keep: Vec<bool>,
    pub(crate) training: bool,
    pub(crate) graph_len: usize,
    /// In-cone nodes in topological (execution) order.
    pub(crate) schedule: Vec<NodeId>,
    /// In-cone nodes a gradient statically reaches from the seeds,
    /// descending.
    pub(crate) bwd_schedule: Vec<NodeId>,
    /// In-cone forward consumer counts (for transient freeing).
    pub(crate) fwd_uses: Vec<u32>,
    /// Static output shape of every in-cone node.
    pub(crate) shapes: Vec<Option<Shape>>,
    /// Whether each node's output is dropped after its last forward use.
    pub(crate) transient: Vec<bool>,
    /// Whether forward must keep the op's saved tensors for backward.
    pub(crate) keep_saved: Vec<bool>,
    /// Per-op static tables (`None` for inputs/params/out-of-cone).
    pub(crate) ops: Vec<Option<OpTables>>,
    /// Segment id of every in-cone op backward must replay to read.
    pub(crate) seg_of: Vec<Option<u32>>,
    /// Replay tables per segment id.
    pub(crate) segments: HashMap<usize, SegmentTable>,
    /// Stashed values that outlive their own backward step because a
    /// segment replay triggered further down the walk re-reads them
    /// (scattered segments: a reader may sit below one of the segment's
    /// stashed boundary inputs).
    pub(crate) retain_value: Vec<bool>,
    /// Byte size of each slot.
    pub(crate) slot_sizes: Vec<u64>,
    /// Input binding shapes the plan was specialized to.
    pub(crate) input_shapes: Vec<(NodeId, Shape)>,
    /// Parameter shapes the plan assumed.
    pub(crate) param_shapes: Vec<(NodeId, Shape)>,
    /// What the static accounting timeline produced.
    pub(crate) accounting: Accounting,
    /// Flops of one step's scheduled forward + backward launches,
    /// excluding replays — the no-extra-recompute work a step must do
    /// under *any* stash plan for this cone.
    pub(crate) planned_step_flops: u64,
}

impl ExecPlan {
    /// Compiles `(graph, stash plan, options, binding shapes, parameter
    /// shapes, target)` into the plan of a whole-graph execution: forward
    /// to `target` and, when `opts.training`, a backward walk seeded with
    /// ones at `target`.
    ///
    /// `opts.training` is part of the plan's identity — it decides
    /// stashing, the backward schedule and gradient liveness.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingBinding`] when an in-cone input or
    /// parameter has no shape, and propagates shape-inference failures.
    pub fn build(
        graph: &Graph,
        stash: &StashPlan,
        opts: ExecOptions,
        binding_shapes: &HashMap<NodeId, Shape>,
        param_shapes: &HashMap<NodeId, Shape>,
        target: NodeId,
    ) -> Result<ExecPlan> {
        let target = [target];
        let key = PlanKey {
            outputs: &target,
            backward: opts.training.then_some((&target[..], &[][..])),
            training: opts.training,
        };
        Self::build_keyed(graph, stash, key, binding_shapes, param_shapes)
    }

    /// Compiles an **inference-mode** plan: a forward-only schedule over
    /// the union cone of `outputs`, with every one of them kept alive to
    /// the end of the step.
    ///
    /// Relative to a training plan for the same graph and shapes the
    /// inference plan carries *no* backward schedule, *no* stash table
    /// (every op output is transient and dies at its last forward use —
    /// there is no backward pass to save it for) and *no* gradient slots,
    /// so its launch table is shorter and its slot arena strictly smaller.
    /// This is what a serving engine runs per decode step.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingBinding`] when an in-cone input or
    /// parameter has no shape, and propagates shape-inference failures.
    pub fn build_inference(
        graph: &Graph,
        binding_shapes: &HashMap<NodeId, Shape>,
        param_shapes: &HashMap<NodeId, Shape>,
        outputs: &[NodeId],
    ) -> Result<ExecPlan> {
        let key = PlanKey {
            outputs,
            backward: None,
            training: false,
        };
        Self::build_keyed(
            graph,
            &StashPlan::stash_all(),
            key,
            binding_shapes,
            param_shapes,
        )
    }

    /// Compiles the plan of a **seeded** training step — what a pipeline
    /// stage runs: forward over the union cone of `outputs`, then a
    /// backward walk started from gradients installed at `seeds`, keeping
    /// the gradients that reach the `Input` nodes in `capture` for the
    /// caller. [`ExecPlan::build`] in training mode is the special case
    /// `outputs = seeds = [loss]`, no captures.
    ///
    /// # Errors
    ///
    /// As [`ExecPlan::build`].
    pub fn build_seeded(
        graph: &Graph,
        stash: &StashPlan,
        binding_shapes: &HashMap<NodeId, Shape>,
        param_shapes: &HashMap<NodeId, Shape>,
        outputs: &[NodeId],
        seeds: &[NodeId],
        capture: &[NodeId],
    ) -> Result<ExecPlan> {
        let key = PlanKey {
            outputs,
            backward: Some((seeds, capture)),
            training: true,
        };
        Self::build_keyed(graph, stash, key, binding_shapes, param_shapes)
    }

    pub(crate) fn build_keyed(
        graph: &Graph,
        stash: &StashPlan,
        key: PlanKey<'_>,
        binding_shapes: &HashMap<NodeId, Shape>,
        param_shapes: &HashMap<NodeId, Shape>,
    ) -> Result<ExecPlan> {
        let plan_err = |message: String| GraphError::Operator {
            op: "exec_plan".to_string(),
            message,
        };
        let outputs = key.outputs;
        let (seeds, capture) = key.backward.unwrap_or((&[], &[]));
        let training = key.training;
        if outputs.is_empty() {
            return Err(plan_err("a plan needs at least one output".to_string()));
        }
        if !training && !seeds.is_empty() {
            return Err(plan_err(
                "a backward pass needs a training-mode plan".to_string(),
            ));
        }
        let n = graph.len();
        let mut in_cone = vec![false; n];
        let mut keep = vec![false; n];
        for &out in outputs {
            graph.node(out)?;
            keep[out.index()] = true;
        }
        for &seed in seeds {
            graph.node(seed)?;
        }
        // Seeds join the cone: a stage may be seeded at an `Input` it only
        // passes through (an activation a later stage consumes), and that
        // gradient still has to reach the capture list.
        for &root in outputs.iter().chain(seeds) {
            for id in graph.ancestors(root) {
                in_cone[id.index()] = true;
            }
        }
        let schedule: Vec<NodeId> = graph
            .nodes()
            .iter()
            .filter(|node| in_cone[node.id.index()])
            .map(|node| node.id)
            .collect();

        // Shapes, per-op tables, forward use counts.
        let mut shapes: Vec<Option<Shape>> = vec![None; n];
        let mut ops: Vec<Option<OpTables>> = vec![None; n];
        let mut fwd_uses = vec![0u32; n];
        let mut input_shapes = Vec::new();
        let mut used_params = Vec::new();
        for &id in &schedule {
            let node = &graph.nodes()[id.index()];
            match &node.kind {
                NodeKind::Input => {
                    let shape = binding_shapes.get(&id).cloned().ok_or_else(|| {
                        GraphError::MissingBinding {
                            name: node.name.clone(),
                        }
                    })?;
                    input_shapes.push((id, shape.clone()));
                    shapes[id.index()] = Some(shape);
                }
                NodeKind::Param => {
                    let shape = param_shapes.get(&id).cloned().ok_or_else(|| {
                        GraphError::MissingBinding {
                            name: node.name.clone(),
                        }
                    })?;
                    used_params.push((id, shape.clone()));
                    shapes[id.index()] = Some(shape);
                }
                NodeKind::Op { op, inputs } => {
                    let in_shapes: Vec<&Shape> = inputs
                        .iter()
                        .map(|&i| shapes[i.index()].as_ref().expect("topological order"))
                        .collect();
                    let out_shape = op.infer_shape(&in_shapes)?;
                    ops[id.index()] = Some(OpTables {
                        needs: op.stash(),
                        fwd_launches: op.forward_launches(&in_shapes, &out_shape),
                        bwd_launches: op.backward_launches(&in_shapes, &out_shape),
                        saved_bytes: op.saved_bytes(&in_shapes, &out_shape),
                    });
                    shapes[id.index()] = Some(out_shape);
                    for &i in inputs {
                        fwd_uses[i.index()] += 1;
                    }
                }
            }
        }

        // Stashing, transience and segment membership.
        let mut transient = vec![false; n];
        let mut keep_saved = vec![false; n];
        let mut seg_of: Vec<Option<u32>> = vec![None; n];
        let mut segments: HashMap<usize, SegmentTable> = HashMap::new();
        for &id in &schedule {
            let idx = id.index();
            let Some(tables) = &ops[idx] else {
                continue;
            };
            let policy = stash.policy(id);
            let stashed = training && matches!(policy, StashPolicy::Stash);
            transient[idx] = !stashed;
            keep_saved[idx] = stashed;
            if let (true, StashPolicy::Recompute(seg)) = (training, policy) {
                seg_of[idx] = Some(seg.id as u32);
                // The pool is the first in-cone member's.
                let table = segments.entry(seg.id).or_insert_with(|| SegmentTable {
                    pool: seg.pool,
                    ..SegmentTable::default()
                });
                table.members.push(idx as u32);
                table.bytes +=
                    shapes[idx].as_ref().expect("in cone").num_bytes() as u64 + tables.saved_bytes;
                table.flops += launch_flops(&tables.fwd_launches);
            }
        }

        // Static gradient reachability from the seeds (superset of the
        // runtime flow: an operator may return no gradient for a
        // differentiable input, but never the reverse) and the backward
        // schedule.
        let mut grad_reaches = vec![false; n];
        let mut is_seed = vec![false; n];
        for &seed in seeds {
            grad_reaches[seed.index()] = true;
            is_seed[seed.index()] = true;
        }
        let mut bwd_schedule = Vec::new();
        if !seeds.is_empty() {
            for &id in schedule.iter().rev() {
                if !grad_reaches[id.index()] {
                    continue;
                }
                bwd_schedule.push(id);
                if let NodeKind::Op { op, inputs } = &graph.nodes()[id.index()].kind {
                    for (slot, &i) in inputs.iter().enumerate() {
                        if op.input_differentiable(slot) {
                            grad_reaches[i.index()] = true;
                        }
                    }
                }
            }
        }

        let bytes_of =
            |id: NodeId| shapes[id.index()].as_ref().expect("in cone").num_bytes() as u64;

        // Liveness intervals on a unified clock: forward step `i` happens
        // at time `i`, backward step `i` at time `2n - i`.
        let last_use: Vec<usize> = (0..n)
            .map(|i| {
                graph
                    .consumers(NodeId::from_index(i))
                    .iter()
                    .filter(|c| in_cone[c.index()])
                    .map(|c| c.index())
                    .max()
                    .unwrap_or(i)
            })
            .collect();
        struct Interval {
            node: usize,
            birth: usize,
            death: usize,
            bytes: u64,
        }
        let mut intervals = Vec::new();
        for &id in &schedule {
            let idx = id.index();
            if transient[idx] && !keep[idx] {
                let death = if fwd_uses[idx] > 0 {
                    last_use[idx]
                } else {
                    2 * n + 2 // never freed by forward; lives out the step
                };
                intervals.push(Interval {
                    node: idx,
                    birth: idx,
                    death,
                    bytes: bytes_of(id),
                });
            }
        }
        // Seeds are written before the walk starts, i.e. at its first step.
        let walk_start = 2 * n - bwd_schedule.first().map_or(0, |id| id.index());
        for &id in &bwd_schedule {
            let idx = id.index();
            if matches!(graph.nodes()[idx].kind, NodeKind::Param) {
                continue; // parameter gradients are persistent
            }
            let birth = if is_seed[idx] {
                walk_start
            } else {
                let highest_consumer = graph
                    .consumers(id)
                    .iter()
                    .filter(|c| grad_reaches[c.index()])
                    .map(|c| c.index())
                    .max()
                    .expect("a gradient reaches this node through a consumer");
                2 * n - highest_consumer
            };
            intervals.push(Interval {
                node: idx,
                birth,
                death: 2 * n - idx,
                bytes: bytes_of(id),
            });
        }
        intervals.sort_by_key(|iv| (iv.birth, iv.node));

        // Greedy size-exact interval packing.
        let mut slot_sizes: Vec<u64> = Vec::new();
        let mut slot_expiry: Vec<usize> = Vec::new();
        for iv in &intervals {
            let free = (0..slot_sizes.len())
                .find(|&s| slot_sizes[s] == iv.bytes && slot_expiry[s] < iv.birth);
            let slot = match free {
                Some(s) => s,
                None => {
                    slot_sizes.push(iv.bytes);
                    slot_expiry.push(0);
                    slot_sizes.len() - 1
                }
            };
            slot_expiry[slot] = iv.death;
        }

        let mut plan = ExecPlan {
            outputs: outputs.to_vec(),
            seeds: seeds.to_vec(),
            capture: capture.to_vec(),
            keep,
            training,
            graph_len: n,
            schedule,
            bwd_schedule,
            fwd_uses,
            shapes,
            transient,
            keep_saved,
            ops,
            seg_of,
            segments,
            retain_value: vec![false; n],
            slot_sizes,
            input_shapes,
            param_shapes: used_params,
            accounting: Accounting::default(),
            planned_step_flops: 0,
        };
        let fwd_flops: u64 = plan
            .schedule
            .iter()
            .filter_map(|id| plan.ops[id.index()].as_ref())
            .map(|t| launch_flops(&t.fwd_launches))
            .sum();
        let bwd_flops: u64 = plan
            .bwd_schedule
            .iter()
            .filter_map(|id| plan.ops[id.index()].as_ref())
            .map(|t| launch_flops(&t.bwd_launches))
            .sum();
        plan.planned_step_flops = fwd_flops + bwd_flops;
        plan.link_segment_readers(graph);
        plan.accounting = AccountingSim::new(graph, &plan).run();
        PLANS_BUILT.fetch_add(1, Ordering::Relaxed);
        Ok(plan)
    }

    /// Whether forward dropped op `idx`'s value, so backward can only
    /// read it out of a replayed scratch.
    pub(crate) fn dropped(&self, idx: usize) -> bool {
        // Only ops are ever transient.
        self.transient[idx] && !self.keep[idx]
    }

    /// The segments backward entry `idx` reads, in trigger order: those of
    /// the dropped inputs it declares it needs, then its own (a recomputed
    /// node's output and saved state only ever live in its scratch).
    pub(crate) fn required_segments<'a>(
        &'a self,
        graph: &'a Graph,
        idx: usize,
    ) -> impl Iterator<Item = usize> + 'a {
        let inputs = match (&graph.nodes()[idx].kind, &self.ops[idx]) {
            (NodeKind::Op { inputs, .. }, Some(t))
                if t.needs.inputs && !self.segments.is_empty() =>
            {
                inputs.as_slice()
            }
            _ => &[],
        };
        inputs
            .iter()
            .filter(|i| self.dropped(i.index()))
            .filter_map(|i| self.seg_of[i.index()])
            .chain(self.seg_of[idx])
            .map(|seg| seg as usize)
    }

    /// Fills every segment's reader list and the retained-value mask.
    fn link_segment_readers(&mut self, graph: &Graph) {
        let mut readers: HashMap<usize, Vec<u32>> = HashMap::new();
        // Descending walk, reversed below: reader lists end up ascending.
        for &id in &self.bwd_schedule {
            for seg in self.required_segments(graph, id.index()) {
                let list = readers.entry(seg).or_default();
                if list.last() != Some(&(id.index() as u32)) {
                    list.push(id.index() as u32);
                }
            }
        }
        for (seg, mut list) in readers {
            list.reverse();
            let lowest = list[0] as usize;
            let table = self.segments.get_mut(&seg).expect("segment table");
            // A stashed boundary input above the segment's lowest reader
            // may be re-read by a replay triggered after its own backward.
            for &m in &table.members {
                for &i in graph.nodes()[m as usize].inputs() {
                    let idx = i.index();
                    if self.ops[idx].is_some() && !self.transient[idx] && lowest < idx {
                        self.retain_value[idx] = true;
                    }
                }
            }
            table.readers = list;
        }
    }

    /// The first node this plan executes to (the loss, for a training
    /// plan).
    pub fn target(&self) -> NodeId {
        self.outputs[0]
    }

    /// Every node the plan keeps alive for the caller. Whole-graph
    /// training plans return exactly `[loss]`; stage and inference plans
    /// return the full output set they were built for.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// The nodes a backward walk under this plan is seeded at.
    pub fn seeds(&self) -> &[NodeId] {
        &self.seeds
    }

    /// The `Input` nodes whose gradients the plan hands to the caller.
    pub fn capture(&self) -> &[NodeId] {
        &self.capture
    }

    /// Whether a gradient can statically reach `id` from the seeds — for
    /// a captured input, whether the upstream stage should expect a seed.
    pub fn gradient_reaches(&self, id: NodeId) -> bool {
        self.bwd_schedule.contains(&id)
    }

    /// Total kernel launches in the forward (+ backward, when training)
    /// launch tables — inference plans are strictly shorter than training
    /// plans for the same cone.
    pub fn launch_count(&self) -> usize {
        self.ops
            .iter()
            .flatten()
            .map(|t| {
                t.fwd_launches.len()
                    + if self.training {
                        t.bwd_launches.len()
                    } else {
                        0
                    }
            })
            .sum()
    }

    /// Kernel launches in the forward launch table alone — the quantity
    /// fusion shrinks (the backward table shrinks with it, but the
    /// forward table is the figure the launch-overhead gate tracks).
    pub fn forward_launch_count(&self) -> usize {
        self.ops
            .iter()
            .flatten()
            .map(|t| t.fwd_launches.len())
            .sum()
    }

    /// Whether the plan stashes for (and may schedule) a backward pass.
    pub fn training(&self) -> bool {
        self.training
    }

    /// Absolute planned peak footprint of one step, the parameters it
    /// reads included — what a step of an executor with no other
    /// parameters bound reports as `peak_bytes`.
    pub fn planned_peak_bytes(&self) -> u64 {
        self.accounting.step.peak_bytes
    }

    /// Number of reusable transient buffers the plan packs values and
    /// gradients into.
    pub fn slot_count(&self) -> usize {
        self.slot_sizes.len()
    }

    /// Total bytes of the slot arena (sum of slot sizes).
    pub fn arena_bytes(&self) -> u64 {
        self.slot_sizes.iter().sum()
    }

    /// Segment replays one training step performs.
    pub fn planned_replays(&self) -> u64 {
        self.accounting.planned_replays
    }

    /// Flops of one step's scheduled forward + backward launches,
    /// excluding replays. Identical across stash plans for the same cone,
    /// which is what makes it the reference a recompute-FLOP budget is a
    /// multiplier over.
    pub fn planned_step_flops(&self) -> u64 {
        self.planned_step_flops
    }

    /// Extra forward flops one step spends replaying recompute segments —
    /// the cost side of the memory/recompute trade.
    pub fn planned_recompute_flops(&self) -> u64 {
        self.accounting.planned_recompute_flops
    }

    /// Projects one execution of this plan onto a device simulator and
    /// returns the number of segment replays in it. It is a fold over the static
    /// tables and computes nothing, so a plan built from shapes alone
    /// projects the kernels a numeric run of it executes:
    ///
    /// * forward: per op entry, one operator dispatch and its forward
    ///   launches;
    /// * backward: per op entry, one operator dispatch, the replays the
    ///   replay discipline triggers there — a nested boundary replay's
    ///   launches right before the member that reads it — and then the
    ///   entry's backward launches.
    ///
    /// Replays are priced as Chen et al. price a recompute: the forward
    /// launches of the replayed members, once per replay.
    pub fn project(&self, graph: &Graph, sim: &mut DeviceSim) -> u64 {
        fn launch_all(sim: &mut DeviceSim, launches: &[KernelLaunch]) {
            for l in launches {
                match &l.spec {
                    LaunchSpec::Kernel(cost) => {
                        sim.launch(&l.name, l.category, *cost);
                    }
                    LaunchSpec::Gemm(spec) => {
                        sim.launch_gemm(&l.name, spec);
                    }
                }
            }
        }
        let tables = |idx: usize| self.ops[idx].as_ref().expect("op tables");
        for &id in &self.schedule {
            if let Some(t) = &self.ops[id.index()] {
                sim.dispatch_op();
                launch_all(sim, &t.fwd_launches);
            }
        }
        let mut machine = ReplayMachine::new(graph, self);
        for &id in &self.bwd_schedule {
            let idx = id.index();
            if let Some(t) = &self.ops[idx] {
                sim.dispatch_op();
                for seg in self.required_segments(graph, idx) {
                    machine.ensure(seg, &mut |m| launch_all(sim, &tables(m).fwd_launches));
                }
                launch_all(sim, &t.bwd_launches);
            }
            machine.finish(idx);
        }
        machine.replayed.len() as u64
    }

    /// Parameter shapes the plan was built against.
    pub fn param_shapes(&self) -> &[(NodeId, Shape)] {
        &self.param_shapes
    }

    /// Whether this plan can drive the execution `key` asks for with the
    /// given bindings: same graph size, outputs (order-sensitive) and
    /// training mode, the same seeds and captures when a backward pass is
    /// asked for, and every input the plan was specialized to bound with
    /// an identical shape.
    pub(crate) fn serves(
        &self,
        graph_len: usize,
        bindings: &HashMap<NodeId, Tensor>,
        key: &PlanKey<'_>,
    ) -> bool {
        self.graph_len == graph_len
            && self.outputs == key.outputs
            && self.training == key.training
            && key
                .backward
                .is_none_or(|(seeds, capture)| self.seeds == seeds && self.capture == capture)
            && self
                .input_shapes
                .iter()
                .all(|(id, shape)| bindings.get(id).is_some_and(|t| t.shape() == shape))
    }

    pub(crate) fn shape(&self, idx: usize) -> &Shape {
        self.shapes[idx].as_ref().expect("in-cone node has a shape")
    }
}

/// The replay discipline of the backward pass, run over a plan's static
/// tables: which scratches are live, how many readers each still has, and
/// when a replay has to evict. The accounting timeline and the device
/// projection run it in schedule order; the interpreter in `exec.rs`
/// applies the same rules to real tensors in the same order.
struct ReplayMachine<'a> {
    graph: &'a Graph,
    plan: &'a ExecPlan,
    /// Live scratches: `(segment, readers still to come)`.
    active: Vec<(usize, usize)>,
    /// Segments mid-replay (guards mutually-referencing segments).
    replaying: Vec<usize>,
    /// Backward entries processed so far.
    done: Vec<bool>,
    /// Segments replayed since the caller last drained this, in order.
    replayed: Vec<usize>,
}

impl<'a> ReplayMachine<'a> {
    fn new(graph: &'a Graph, plan: &'a ExecPlan) -> Self {
        ReplayMachine {
            graph,
            plan,
            active: Vec::new(),
            replaying: Vec::new(),
            done: vec![false; plan.graph_len],
            replayed: Vec::new(),
        }
    }

    fn is_active(&self, seg: usize) -> bool {
        self.active.iter().any(|&(s, _)| s == seg)
    }

    /// Replays `seg` unless its scratch is live: per member, its boundary
    /// segments first (a boundary input may itself be recomputed), then
    /// `on_member` with the member's index — the interpreter's launch
    /// order — and finally evict whatever holds the pool and count the
    /// readers still to come.
    fn ensure(&mut self, seg: usize, on_member: &mut impl FnMut(usize)) {
        let plan = self.plan;
        if self.is_active(seg) || self.replaying.contains(&seg) {
            return;
        }
        let Some(table) = plan.segments.get(&seg) else {
            return;
        };
        self.replaying.push(seg);
        for &m in &table.members {
            for &i in self.graph.nodes()[m as usize].inputs() {
                let idx = i.index();
                if let Some(other) = plan.seg_of[idx] {
                    if other as usize != seg && plan.dropped(idx) {
                        self.ensure(other as usize, on_member);
                    }
                }
            }
            on_member(m as usize);
        }
        self.replaying.pop();
        self.active
            .retain(|&(s, _)| plan.segments[&s].pool != table.pool);
        let n_required = table
            .readers
            .iter()
            .filter(|&&r| !self.done[r as usize])
            .count();
        self.active.push((seg, n_required));
        self.replayed.push(seg);
    }

    /// Marks backward entry `idx` processed and retires every scratch no
    /// remaining entry reads.
    fn finish(&mut self, idx: usize) {
        self.done[idx] = true;
        let plan = self.plan;
        self.active.retain_mut(|(seg, n_required)| {
            if plan.segments[seg]
                .readers
                .binary_search(&(idx as u32))
                .is_ok()
            {
                *n_required = n_required.saturating_sub(1);
            }
            *n_required > 0
        });
    }
}

/// Replays one step's memory event sequence statically.
///
/// Every event is one accounting action of a step: input placeholder
/// allocs, op output (+ stashed saved) allocs, transient frees after the
/// last forward use, the gradient seeds, per-node gradient allocs/frees,
/// stash frees at each node's backward step, and workspace-pool growth at
/// the exact replay trigger points of the backward discipline. The slot
/// packing above never inflates the totals because it is size-exact.
struct AccountingSim<'a> {
    graph: &'a Graph,
    plan: &'a ExecPlan,
    live: u64,
    by_tag: HashMap<(LayerKind, DataStructureKind), u64>,
    peak: u64,
    peak_by_tag: HashMap<(LayerKind, DataStructureKind), u64>,
    /// Each category's own high-water mark so far.
    max_by_tag: HashMap<(LayerKind, DataStructureKind), u64>,
    machine: ReplayMachine<'a>,
    /// Pool id -> (layer at creation, high-water bytes).
    pools: HashMap<usize, (LayerKind, u64)>,
}

impl<'a> AccountingSim<'a> {
    fn new(graph: &'a Graph, plan: &'a ExecPlan) -> Self {
        AccountingSim {
            graph,
            plan,
            live: 0,
            by_tag: HashMap::new(),
            peak: 0,
            peak_by_tag: HashMap::new(),
            max_by_tag: HashMap::new(),
            machine: ReplayMachine::new(graph, plan),
            pools: HashMap::new(),
        }
    }

    fn add(&mut self, layer: LayerKind, kind: DataStructureKind, bytes: u64) {
        if bytes == 0 {
            return;
        }
        self.live += bytes;
        let tagged = self.by_tag.entry((layer, kind)).or_default();
        *tagged += bytes;
        let high = self.max_by_tag.entry((layer, kind)).or_default();
        *high = (*high).max(*tagged);
        if self.live > self.peak {
            self.peak = self.live;
            self.peak_by_tag = self.by_tag.clone();
        }
    }

    fn sub(&mut self, layer: LayerKind, kind: DataStructureKind, bytes: u64) {
        self.live -= bytes;
        if let Some(v) = self.by_tag.get_mut(&(layer, kind)) {
            *v -= bytes;
        }
    }

    fn bytes_of(&self, idx: usize) -> u64 {
        self.plan.shape(idx).num_bytes() as u64
    }

    /// Bytes a stashed op holds from forward to its backward step.
    fn stash_bytes_of(&self, idx: usize) -> u64 {
        self.bytes_of(idx) + self.plan.ops[idx].as_ref().map_or(0, |t| t.saved_bytes)
    }

    fn run(mut self) -> Accounting {
        let plan = self.plan;
        let n = plan.graph_len;
        let mut results = Accounting::default();
        // Persistent base: every parameter's value + gradient, held from
        // bind time on.
        for (id, shape) in &plan.param_shapes {
            let layer = self.graph.nodes()[id.index()].layer;
            let bytes = 2 * shape.num_bytes() as u64;
            self.add(layer, DataStructureKind::Weight, bytes);
            results.param_bytes += bytes;
        }

        // Forward.
        let mut uses = plan.fwd_uses.clone();
        for &id in &plan.schedule {
            let idx = id.index();
            let node = &self.graph.nodes()[idx];
            match &node.kind {
                NodeKind::Input => {
                    self.add(
                        node.layer,
                        DataStructureKind::Placeholder,
                        self.bytes_of(idx),
                    );
                }
                NodeKind::Param => {}
                NodeKind::Op { inputs, .. } => {
                    if plan.transient[idx] {
                        self.add(
                            node.layer,
                            DataStructureKind::Placeholder,
                            self.bytes_of(idx),
                        );
                    } else {
                        self.add(
                            node.layer,
                            DataStructureKind::FeatureMap,
                            self.stash_bytes_of(idx),
                        );
                    }
                    for &input in inputs {
                        let iidx = input.index();
                        uses[iidx] -= 1;
                        if uses[iidx] == 0 && plan.dropped(iidx) {
                            self.sub(
                                self.graph.nodes()[iidx].layer,
                                DataStructureKind::Placeholder,
                                self.bytes_of(iidx),
                            );
                        }
                    }
                }
            }
        }
        results.forward = self.phase();

        // Backward: the seeds first, then the descending walk.
        let mut grad_born = vec![false; n];
        for &seed in &plan.seeds {
            let idx = seed.index();
            let node = &self.graph.nodes()[idx];
            if !grad_born[idx] && !matches!(node.kind, NodeKind::Param) {
                self.add(
                    node.layer,
                    DataStructureKind::Placeholder,
                    self.bytes_of(idx),
                );
            }
            grad_born[idx] = true;
        }
        for &id in &plan.bwd_schedule {
            let idx = id.index();
            let node = &self.graph.nodes()[idx];
            match &node.kind {
                NodeKind::Param => {}
                NodeKind::Input => {
                    if grad_born[idx] {
                        self.sub(
                            node.layer,
                            DataStructureKind::Placeholder,
                            self.bytes_of(idx),
                        );
                    }
                }
                NodeKind::Op { op, inputs } if grad_born[idx] => {
                    // Replay triggers: workspace pools grow to the largest
                    // scratch they ever serve.
                    for seg in plan.required_segments(self.graph, idx) {
                        self.machine.ensure(seg, &mut |_| {});
                    }
                    for seg in std::mem::take(&mut self.machine.replayed) {
                        let table = &plan.segments[&seg];
                        let layer = self.graph.nodes()[table.members[0] as usize].layer;
                        let entry = self.pools.entry(table.pool).or_insert((layer, 0));
                        let (pool_layer, high) = *entry;
                        if table.bytes > high {
                            entry.1 = table.bytes;
                            self.add(pool_layer, DataStructureKind::Workspace, table.bytes - high);
                        }
                        results.planned_replays += 1;
                        results.planned_recompute_flops += table.flops;
                    }
                    // Gradient births at first propagation.
                    for (slot, &input) in inputs.iter().enumerate() {
                        let iidx = input.index();
                        let in_node = &self.graph.nodes()[iidx];
                        if !op.input_differentiable(slot)
                            || grad_born[iidx]
                            || matches!(in_node.kind, NodeKind::Param)
                        {
                            continue;
                        }
                        grad_born[iidx] = true;
                        self.add(
                            in_node.layer,
                            DataStructureKind::Placeholder,
                            self.bytes_of(iidx),
                        );
                    }
                    // Frees: this node's gradient, and its stashed output
                    // and saved state unless a later replay re-reads them.
                    self.sub(
                        node.layer,
                        DataStructureKind::Placeholder,
                        self.bytes_of(idx),
                    );
                    if !plan.transient[idx] && !plan.retain_value[idx] {
                        self.sub(
                            node.layer,
                            DataStructureKind::FeatureMap,
                            self.stash_bytes_of(idx),
                        );
                    }
                }
                NodeKind::Op { .. } => {}
            }
            self.machine.finish(idx);
        }

        results.step = self.phase();
        results
    }

    /// The figures recorded so far, as one phase.
    fn phase(&self) -> MemoryReport {
        MemoryReport {
            peak_bytes: self.peak,
            nvidia_smi_bytes: 0,
            peak_breakdown: breakdown_vec(&self.peak_by_tag),
            max_breakdown: breakdown_vec(&self.max_by_tag),
        }
    }
}

/// What the static accounting timeline produces.
#[derive(Debug, Default)]
pub(crate) struct Accounting {
    /// The whole step, the read parameters and their gradients included.
    pub step: MemoryReport,
    /// The forward pass alone.
    pub forward: MemoryReport,
    /// Weight bytes (value + gradient) of the parameters the plan reads —
    /// the part of each phase's peak an executor replaces with its own
    /// bound-parameter total.
    pub param_bytes: u64,
    /// Segment replays one training step performs.
    pub planned_replays: u64,
    /// Extra flops the step spends replaying recompute segments.
    pub planned_recompute_flops: u64,
}

fn breakdown_vec(map: &HashMap<(LayerKind, DataStructureKind), u64>) -> Breakdown {
    let mut v: Breakdown = map
        .iter()
        .filter(|(_, &bytes)| bytes > 0)
        .map(|(&k, &bytes)| (k, bytes))
        .collect();
    v.sort_unstable();
    v
}
