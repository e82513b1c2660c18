//! GPipe-style stage partitioning over the GIR.
//!
//! [`partition_stages`] cuts the live cone of a [`Gir`] into `P`
//! contiguous op-index ranges ("stages") so a pipelined trainer can run
//! each range on its own worker with activations flowing forward and
//! activation-gradients flowing backward across the cuts. Cuts are only
//! placed at *parameter-respecting* boundaries: every live parameter's
//! live consumers must fall entirely inside one stage, so each stage owns
//! a disjoint subset of the parameters and gradient all-reduce never
//! crosses a cut.
//!
//! Because the original insertion order is topological and stages are
//! contiguous index ranges, every cross-stage edge points forward: all
//! consumers of a stage-`s` node that live downstream have strictly
//! larger op indices. That is what lets the pipelined backward seed each
//! stage with the downstream partial gradient *first* and then accumulate
//! in-stage contributions in descending index order — bit-identical
//! association to the serial backward walk.

use super::Gir;
use crate::graph::{Graph, NodeId, NodeKind};
use crate::plan::ExecPlan;
use crate::policy::{SegmentId, StashPlan, StashPolicy};
use crate::{GraphError, Result};
use echo_tensor::Shape;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

fn stage_err(message: String) -> GraphError {
    GraphError::Operator {
        op: "stage-partition".to_string(),
        message,
    }
}

/// One pipeline stage: a self-contained local graph plus the maps tying
/// it back to the original graph.
///
/// The local graph is built by walking the original nodes in ascending id
/// order and emitting, for this stage: received interface activations and
/// directly-consumed batch inputs as local `Input` nodes, owned
/// parameters as local `Param` nodes, and owned ops with remapped inputs.
/// Local ids are therefore ascending in original id, so a descending
/// local backward walk visits nodes in descending *original* order.
#[derive(Debug, Clone)]
pub struct StageSpec {
    /// Stage index in `0..P`.
    pub index: usize,
    /// The stage-local graph.
    pub graph: Arc<Graph>,
    /// Inferred shape per local node, densely indexed by local id.
    pub shapes: Vec<Shape>,
    /// Original graph ids of batch `Input` nodes this stage consumes
    /// directly (ascending). The trainer binds these from the batch.
    pub batch_inputs: Vec<NodeId>,
    /// Original ids of parameters owned by this stage (ascending).
    pub params: Vec<NodeId>,
    /// Original ids of activations received from the previous stage
    /// (ascending): values produced upstream that this stage (or a later
    /// one, via pass-through) still needs.
    pub recv_interface: Vec<NodeId>,
    /// Original ids of activations sent to the next stage (ascending).
    /// Equals the next stage's `recv_interface`.
    pub send_interface: Vec<NodeId>,
    /// Local id → original id.
    to_orig: Vec<NodeId>,
    /// Original id → local id.
    to_local: HashMap<NodeId, NodeId>,
}

impl StageSpec {
    /// The local id of original node `orig`, if this stage carries it.
    pub fn to_local(&self, orig: NodeId) -> Option<NodeId> {
        self.to_local.get(&orig).copied()
    }

    /// The original id of local node `local`.
    pub fn to_orig(&self, local: NodeId) -> NodeId {
        self.to_orig[local.index()]
    }

    /// `send_interface` mapped to local ids.
    pub fn local_send(&self) -> Vec<NodeId> {
        self.send_interface
            .iter()
            .map(|&id| self.to_local[&id])
            .collect()
    }

    /// The subset of [`local_send`](Self::local_send) this stage computes
    /// itself — its forward outputs. The rest of the send interface is
    /// received activations passed through to a later stage.
    pub fn local_send_owned(&self) -> Vec<NodeId> {
        let mut owned = self.local_send();
        owned
            .retain(|&local| matches!(self.graph.nodes()[local.index()].kind, NodeKind::Op { .. }));
        owned
    }

    /// `recv_interface` mapped to local ids.
    pub fn local_recv(&self) -> Vec<NodeId> {
        self.recv_interface
            .iter()
            .map(|&id| self.to_local[&id])
            .collect()
    }

    /// Owned op count (local ops, excluding interface inputs).
    pub fn owned_ops(&self) -> usize {
        self.graph
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Op { .. }))
            .count()
    }
}

/// The two execution plans one pipeline stage runs, built once per stage
/// and shared by every replica of it.
#[derive(Debug, Clone)]
pub struct StageExecPlans {
    /// Fill phase: an inference forward to the owned send interface.
    /// `None` for the last stage, which sends nothing.
    pub fill: Option<Arc<ExecPlan>>,
    /// Drain phase: the seeded stage step — forward under the stage-local
    /// stash plan, backward from the send-interface gradients (the ones
    /// seed at the loss, in the last stage), received-interface gradients
    /// captured.
    pub step: Arc<ExecPlan>,
}

/// The result of cutting a graph into pipeline stages.
#[derive(Debug, Clone)]
pub struct StagePartition {
    specs: Vec<StageSpec>,
    /// Original op index → owning stage (live ops only).
    stage_of: Vec<Option<usize>>,
    /// Raw original index of the first op of stages `1..P`.
    boundaries: Vec<usize>,
    orig: Arc<Graph>,
    orig_shapes: Vec<Shape>,
    protected: Vec<NodeId>,
    live: Vec<bool>,
}

impl StagePartition {
    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.specs.len()
    }

    /// All stage specs, in pipeline order.
    pub fn stages(&self) -> &[StageSpec] {
        &self.specs
    }

    /// One stage spec.
    pub fn stage(&self, s: usize) -> &StageSpec {
        &self.specs[s]
    }

    /// The stage owning original node `id` (ops only; `None` for
    /// inputs, params and dead nodes).
    pub fn stage_of(&self, id: NodeId) -> Option<usize> {
        self.stage_of[id.index()]
    }

    /// Raw original indices of the chosen cut points (first op of each
    /// stage after the first).
    pub fn boundaries(&self) -> &[usize] {
        &self.boundaries
    }

    /// Activation bytes crossing each cut: entry `s` is the total output
    /// bytes of stage `s`'s send interface.
    pub fn cut_bytes(&self) -> Vec<u64> {
        self.specs
            .iter()
            .take(self.specs.len().saturating_sub(1))
            .map(|sp| {
                sp.send_interface
                    .iter()
                    .map(|&id| self.orig_shapes[id.index()].num_bytes() as u64)
                    .sum()
            })
            .collect()
    }

    /// Total live op count across all stages.
    pub fn live_op_count(&self) -> usize {
        self.stage_of.iter().filter(|s| s.is_some()).count()
    }

    /// Rewrites `plan` (over original ids) into the *normalized* plan the
    /// pipelined execution actually runs: send-interface, protected and
    /// dead recompute nodes are forced to `Stash` (their values must
    /// survive the cut or never run at all), and every surviving segment
    /// is split per stage under a fresh deterministic id so no segment
    /// straddles a cut. A serial executor running the normalized plan
    /// produces bit-identical loss/grads to the original plan (stashing
    /// more never changes values) and the *same replay counts* as the
    /// pipelined run — the determinism suite's replay contract.
    pub fn normalized_plan(&self, plan: &StashPlan) -> StashPlan {
        let send_any: BTreeSet<NodeId> = self
            .specs
            .iter()
            .flat_map(|sp| sp.send_interface.iter().copied())
            .collect();
        let mut seg_map: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        // Pools are re-keyed per (original pool, stage): workspace sharing
        // survives within a stage (the paper's identical-segment pooling),
        // but the per-stage pieces of a split segment get distinct pools —
        // exactly the physical situation in the pipeline, where each stage
        // worker owns its own executor and pools. Keeping the original
        // pool across a cut would make the serial oracle running the
        // normalized plan evict and re-replay where the pipeline, with a
        // pool per stage, does not.
        let mut pool_map: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut next = 0usize;
        let mut next_pool = 0usize;
        let mut out = StashPlan::stash_all();
        for node in self.orig.nodes() {
            let id = node.id;
            if let StashPolicy::Recompute(seg) = plan.policy(id) {
                let stage = self.stage_of[id.index()];
                let keep = match stage {
                    Some(_) => !send_any.contains(&id) && !self.protected.contains(&id),
                    None => false,
                };
                match (keep, stage) {
                    (true, Some(s)) => {
                        let nid = *seg_map.entry((seg.id, s)).or_insert_with(|| {
                            let v = next;
                            next += 1;
                            v
                        });
                        let pool = *pool_map.entry((seg.pool, s)).or_insert_with(|| {
                            let v = next_pool;
                            next_pool += 1;
                            v
                        });
                        out.set(id, StashPolicy::Recompute(SegmentId { id: nid, pool }));
                    }
                    _ => out.set(id, StashPolicy::Stash),
                }
            }
        }
        out
    }

    /// Per-stage stash plans over *local* ids, derived from
    /// [`normalized_plan`](Self::normalized_plan). Interface nodes are
    /// guaranteed `Stash`; each stage's plan only names segments whose
    /// nodes it owns.
    pub fn stage_plans(&self, plan: &StashPlan) -> Vec<StashPlan> {
        let norm = self.normalized_plan(plan);
        self.specs
            .iter()
            .map(|sp| {
                let mut p = StashPlan::stash_all();
                for (local_idx, &orig) in sp.to_orig.iter().enumerate() {
                    if self.stage_of[orig.index()] != Some(sp.index) {
                        continue;
                    }
                    if let StashPolicy::Recompute(seg) = norm.policy(orig) {
                        p.set(NodeId::from_index(local_idx), StashPolicy::Recompute(seg));
                    }
                }
                p
            })
            .collect()
    }

    /// Builds every stage's [`StageExecPlans`] under the stage-local slice
    /// of the normalized `plan`, for the shapes the partition was cut at.
    /// `loss` (an original id) must be carried by the last stage.
    ///
    /// Stages are planned last to first: a stage is seeded exactly where
    /// the next stage's plan says a gradient can reach its captured
    /// inputs. A stage worker that receives a different seed set at run
    /// time (an operator may emit no gradient for a differentiable input)
    /// still runs correctly — its executor plans that signature on demand.
    ///
    /// # Errors
    ///
    /// Fails when the last stage does not carry `loss`, and propagates
    /// planning failures.
    pub fn stage_exec_plans(&self, plan: &StashPlan, loss: NodeId) -> Result<Vec<StageExecPlans>> {
        let mut plans: Vec<StageExecPlans> = Vec::with_capacity(self.specs.len());
        for (sp, local_plan) in self.specs.iter().zip(self.stage_plans(plan)).rev() {
            let mut binding_shapes = HashMap::new();
            let mut param_shapes = HashMap::new();
            for (node, shape) in sp.graph.nodes().iter().zip(&sp.shapes) {
                match node.kind {
                    NodeKind::Input => binding_shapes.insert(node.id, shape.clone()),
                    NodeKind::Param => param_shapes.insert(node.id, shape.clone()),
                    NodeKind::Op { .. } => None,
                };
            }
            let (outputs, seeds, fill) = match plans.last() {
                // `plans` is being filled back to front: its last entry is
                // the next stage downstream.
                Some(next) => {
                    let next_spec = &self.specs[sp.index + 1];
                    let outputs = sp.local_send_owned();
                    let seeds: Vec<NodeId> = sp
                        .send_interface
                        .iter()
                        .filter(|&&orig| next.step.gradient_reaches(next_spec.to_local[&orig]))
                        .map(|orig| sp.to_local[orig])
                        .collect();
                    let fill = ExecPlan::build_inference(
                        &sp.graph,
                        &binding_shapes,
                        &param_shapes,
                        &outputs,
                    )?;
                    (outputs, seeds, Some(Arc::new(fill)))
                }
                None => {
                    let local = sp.to_local(loss).ok_or_else(|| {
                        stage_err(format!(
                            "loss {loss} is not carried by the last stage {}",
                            sp.index
                        ))
                    })?;
                    (vec![local], vec![local], None)
                }
            };
            let step = ExecPlan::build_seeded(
                &sp.graph,
                &local_plan,
                &binding_shapes,
                &param_shapes,
                &outputs,
                &seeds,
                &sp.local_recv(),
            )?;
            plans.push(StageExecPlans {
                fill,
                step: Arc::new(step),
            });
        }
        plans.reverse();
        Ok(plans)
    }

    /// Structural self-check: every live op owned by exactly one stage,
    /// parameters uniquely owned, protected shapes preserved, and the
    /// cross-stage edge set fully represented by interface chains
    /// (`recv(s+1) == send(s)`, with pass-through for edges skipping
    /// stages). The partition property tests drive this.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<()> {
        let p = self.specs.len();
        // Ops partition exactly.
        let owned: usize = self.specs.iter().map(StageSpec::owned_ops).sum();
        let live_ops = self
            .orig
            .nodes()
            .iter()
            .filter(|n| self.live[n.id.index()] && matches!(n.kind, NodeKind::Op { .. }))
            .count();
        if owned != live_ops {
            return Err(stage_err(format!(
                "stages own {owned} ops, live cone has {live_ops}"
            )));
        }
        // Params uniquely owned.
        let mut param_owner: HashMap<NodeId, usize> = HashMap::new();
        for sp in &self.specs {
            for &pid in &sp.params {
                if let Some(prev) = param_owner.insert(pid, sp.index) {
                    return Err(stage_err(format!(
                        "param {pid} owned by stages {prev} and {}",
                        sp.index
                    )));
                }
            }
        }
        // Protected shapes preserved in their owning stage.
        for &t in &self.protected {
            let Some(s) = self.stage_of[t.index()] else {
                return Err(stage_err(format!("protected node {t} not owned")));
            };
            let sp = &self.specs[s];
            let local = sp
                .to_local(t)
                .ok_or_else(|| stage_err(format!("protected node {t} missing from stage {s}")))?;
            if sp.shapes[local.index()] != self.orig_shapes[t.index()] {
                return Err(stage_err(format!(
                    "protected node {t} shape changed across partition"
                )));
            }
        }
        // Interface chains cover the cross-stage edge set.
        for node in self.orig.nodes() {
            let Some(su) = self.stage_of[node.id.index()] else {
                continue;
            };
            for &c in self.orig.consumers(node.id) {
                let Some(sc) = self.stage_of[c.index()] else {
                    continue;
                };
                if sc <= su {
                    continue;
                }
                for t in su + 1..=sc {
                    if self.specs[t]
                        .recv_interface
                        .binary_search(&node.id)
                        .is_err()
                    {
                        return Err(stage_err(format!(
                            "edge {} -> {c} crosses stages {su}->{sc} but {} not in recv({t})",
                            node.id, node.id
                        )));
                    }
                }
            }
        }
        // recv(s+1) == send(s).
        for s in 0..p.saturating_sub(1) {
            if self.specs[s].send_interface != self.specs[s + 1].recv_interface {
                return Err(stage_err(format!(
                    "send({s}) != recv({}) interface mismatch",
                    s + 1
                )));
            }
        }
        if let Some(last) = self.specs.last() {
            if !last.send_interface.is_empty() {
                return Err(stage_err("last stage has a send interface".to_string()));
            }
        }
        Ok(())
    }
}

/// Cuts the live cone of `gir` into `stages` contiguous, load-balanced
/// stages at parameter-respecting boundaries.
///
/// Per-op weight is the forward FLOP count of the op's kernel launches
/// (minimum 1), and boundaries are chosen greedily: the `k`-th cut is the
/// valid candidate whose cumulative weight is closest to `k/P` of the
/// total, subject to leaving enough candidates for the remaining cuts.
///
/// # Errors
///
/// Fails when the live cone has fewer ops than stages or too few valid
/// (parameter-respecting) cut points — e.g. a fused single-op LSTM stack
/// cannot be pipelined.
pub fn partition_stages(gir: &Gir, stages: usize) -> Result<StagePartition> {
    if stages == 0 {
        return Err(stage_err("at least one stage required".to_string()));
    }
    let graph = Arc::clone(gir.graph());
    let live = gir.live_mask();
    let live_ops: Vec<usize> = graph
        .nodes()
        .iter()
        .filter(|n| live[n.id.index()] && matches!(n.kind, NodeKind::Op { .. }))
        .map(|n| n.id.index())
        .collect();
    if live_ops.len() < stages {
        return Err(stage_err(format!(
            "{} live ops cannot fill {stages} stages",
            live_ops.len()
        )));
    }

    // Live-consumer span of every live parameter: a cut strictly inside a
    // span would split the parameter's gradient across stages.
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for node in graph.nodes() {
        if !live[node.id.index()] || !matches!(node.kind, NodeKind::Param) {
            continue;
        }
        let cons: Vec<usize> = graph
            .consumers(node.id)
            .iter()
            .filter(|c| live[c.index()])
            .map(|c| c.index())
            .collect();
        if let (Some(&mn), Some(&mx)) = (cons.iter().min(), cons.iter().max()) {
            spans.push((mn, mx));
        }
    }

    // Per-op forward FLOPs as the balance weight.
    let weights: Vec<u64> = live_ops
        .iter()
        .map(|&idx| {
            let node = &graph.nodes()[idx];
            match &node.kind {
                NodeKind::Op { op, inputs } => {
                    let in_shapes: Vec<&Shape> = inputs.iter().map(|&i| gir.shape(i)).collect();
                    let launches = op.forward_launches(&in_shapes, gir.shape(node.id));
                    crate::plan::launch_flops(&launches).max(1)
                }
                _ => 1,
            }
        })
        .collect();
    let mut cum: Vec<u64> = Vec::with_capacity(weights.len() + 1);
    cum.push(0);
    for &w in &weights {
        cum.push(cum.last().unwrap() + w);
    }
    let total = *cum.last().unwrap();

    // Candidate cuts: positions k in live-op space whose raw boundary
    // (first op of the next stage) splits no parameter span.
    let candidates: Vec<usize> = (1..live_ops.len())
        .filter(|&k| {
            let b = live_ops[k];
            !spans.iter().any(|&(mn, mx)| mn < b && b <= mx)
        })
        .collect();
    if candidates.len() < stages - 1 {
        return Err(stage_err(format!(
            "only {} valid cut points for {} cuts (parameter spans block the rest)",
            candidates.len(),
            stages - 1
        )));
    }

    // Greedy balanced selection inside the feasibility window.
    let mut chosen: Vec<usize> = Vec::with_capacity(stages - 1);
    let mut lo = 0usize;
    for j in 1..stages {
        let target = total * j as u64 / stages as u64;
        let hi = candidates.len() - (stages - 1 - j);
        let (pos, _) = candidates[lo..hi]
            .iter()
            .enumerate()
            .min_by_key(|&(_, &k)| cum[k].abs_diff(target))
            .expect("window non-empty by candidate-count check");
        chosen.push(candidates[lo + pos]);
        lo += pos + 1;
    }

    // Stage assignment per live op, then per raw index.
    let mut stage_of: Vec<Option<usize>> = vec![None; graph.len()];
    let mut s = 0usize;
    for (pos, &raw) in live_ops.iter().enumerate() {
        while s < chosen.len() && pos >= chosen[s] {
            s += 1;
        }
        stage_of[raw] = Some(s);
    }
    let boundaries: Vec<usize> = chosen.iter().map(|&k| live_ops[k]).collect();

    // Interface sets: recv(s) = live ops produced before stage s still
    // needed at or after it.
    let mut recv: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); stages];
    for node in graph.nodes() {
        let Some(su) = stage_of[node.id.index()] else {
            continue;
        };
        let max_cons = graph
            .consumers(node.id)
            .iter()
            .filter_map(|c| stage_of[c.index()])
            .max();
        if let Some(mc) = max_cons {
            for set in recv.iter_mut().take(mc + 1).skip(su + 1) {
                set.insert(node.id);
            }
        }
    }

    // Build stage-local graphs.
    let mut specs: Vec<StageSpec> = Vec::with_capacity(stages);
    for s in 0..stages {
        let mut g = Graph::new();
        let mut to_orig: Vec<NodeId> = Vec::new();
        let mut to_local: HashMap<NodeId, NodeId> = HashMap::new();
        let mut shapes: Vec<Shape> = Vec::new();
        let mut batch_inputs: Vec<NodeId> = Vec::new();
        let mut params: Vec<NodeId> = Vec::new();
        for node in graph.nodes() {
            let idx = node.id.index();
            let local = if recv[s].contains(&node.id) {
                g.input(node.name.clone(), node.layer)
            } else {
                match &node.kind {
                    NodeKind::Input
                        if live[idx]
                            && graph
                                .consumers(node.id)
                                .iter()
                                .any(|c| stage_of[c.index()] == Some(s)) =>
                    {
                        batch_inputs.push(node.id);
                        g.input(node.name.clone(), node.layer)
                    }
                    NodeKind::Param
                        if live[idx]
                            && graph
                                .consumers(node.id)
                                .iter()
                                .any(|c| stage_of[c.index()] == Some(s)) =>
                    {
                        params.push(node.id);
                        g.param(node.name.clone(), node.layer)
                    }
                    NodeKind::Op { op, inputs } if stage_of[idx] == Some(s) => {
                        let linputs: Vec<NodeId> = inputs
                            .iter()
                            .map(|i| {
                                to_local.get(i).copied().ok_or_else(|| {
                                    stage_err(format!(
                                        "stage {s} op {} consumes unmapped node {i}",
                                        node.id
                                    ))
                                })
                            })
                            .collect::<Result<_>>()?;
                        g.apply(node.name.clone(), Arc::clone(op), &linputs, node.layer)
                    }
                    _ => continue,
                }
            };
            to_local.insert(node.id, local);
            to_orig.push(node.id);
            shapes.push(gir.shape(node.id).clone());
        }
        let send_interface: Vec<NodeId> = if s + 1 < stages {
            recv[s + 1].iter().copied().collect()
        } else {
            Vec::new()
        };
        specs.push(StageSpec {
            index: s,
            graph: Arc::new(g),
            shapes,
            batch_inputs,
            params,
            recv_interface: recv[s].iter().copied().collect(),
            send_interface,
            to_orig,
            to_local,
        });
    }

    Ok(StagePartition {
        specs,
        stage_of,
        boundaries,
        orig: graph,
        orig_shapes: gir.shapes().to_vec(),
        protected: gir.protected().to_vec(),
        live,
    })
}
