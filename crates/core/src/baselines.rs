//! Baseline recomputation strategies the paper compares against (§7).
//!
//! Chen et al., *Training Deep Nets with Sublinear Memory Cost*
//! (arXiv:1604.06174), checkpoints every `k`-th activation and recomputes
//! the rest, irrespective of what the intermediates cost to regenerate.
//! The paper's criticism is that LSTM runtime is *not* evenly distributed
//! across layers: indiscriminate recomputation drags fully-connected
//! layers into the replay and loses performance, while Echo's O-shape
//! analysis recomputes only cheap subgraphs.
//!
//! This module implements that baseline over the same graph IR so the
//! comparison is apples-to-apples: [`chen_sqrt_plan`] produces a
//! [`StashPlan`] that drops every eligible activation except evenly spaced
//! checkpoints.

use crate::analysis::ShapeTable;
use echo_graph::{Graph, NodeId, NodeKind, SegmentId, StashPlan, StashPolicy};
use std::collections::HashSet;

/// Summary of a Chen-style plan.
#[derive(Debug, Clone)]
pub struct ChenReport {
    /// Nodes marked for recomputation.
    pub recomputed: usize,
    /// Checkpoint nodes kept stashed.
    pub checkpoints: usize,
    /// Feature-map bytes dropped.
    pub dropped_bytes: u64,
    /// Of the dropped bytes, how many belong to GEMM-adjacent (expensive
    /// to recompute) operators — the source of Chen et al.'s slowdown.
    pub expensive_recompute_nodes: usize,
}

/// Whether Chen-style checkpointing may drop this node (anything with a
/// recomputable op; unlike Echo it does **not** exclude expensive
/// categories).
fn droppable(graph: &Graph, id: NodeId, protected: &HashSet<NodeId>) -> bool {
    if protected.contains(&id) {
        return false;
    }
    matches!(graph.nodes()[id.index()].kind, NodeKind::Op { .. })
}

/// Builds a sublinear-memory plan: walk the op nodes in topological order
/// and keep only every `stride`-th one as a checkpoint (`stride ≈ √N` for
/// the classic bound). Dropped spans between checkpoints become
/// recomputation segments; boundary inputs that are themselves dropped are
/// handled by the executor's recursive replay.
pub fn chen_sqrt_plan(
    graph: &Graph,
    shapes: &ShapeTable,
    protected: &[NodeId],
    stride: usize,
) -> (StashPlan, ChenReport) {
    let protected: HashSet<NodeId> = protected.iter().copied().collect();
    let stride = stride.max(2);
    let mut plan = StashPlan::stash_all();
    let mut report = ChenReport {
        recomputed: 0,
        checkpoints: 0,
        dropped_bytes: 0,
        expensive_recompute_nodes: 0,
    };

    let mut segment = 0usize;
    let mut in_window = 0usize;
    for node in graph.nodes() {
        if !droppable(graph, node.id, &protected) {
            continue;
        }
        in_window += 1;
        if in_window.is_multiple_of(stride) {
            // Checkpoint: stays stashed; next window starts a new segment.
            report.checkpoints += 1;
            segment += 1;
            continue;
        }
        // Terminal consumers (nothing downstream) cannot be regenerated
        // lazily by anyone; keep them stashed too.
        if graph.consumers(node.id).is_empty() {
            report.checkpoints += 1;
            continue;
        }
        // Long-lived values (consumed far downstream) are checkpointed —
        // practical implementations of Chen et al. only drop activations
        // of the sequential backbone, since dropping a widely shared value
        // would keep its whole replay window alive for most of backward.
        let farthest = graph
            .consumers(node.id)
            .iter()
            .map(|c| c.index())
            .max()
            .unwrap_or(node.id.index());
        if farthest > node.id.index() + 2 * stride {
            report.checkpoints += 1;
            continue;
        }
        plan.set(
            node.id,
            StashPolicy::Recompute(SegmentId {
                id: segment,
                // Chen's generic scheme has no cross-step structure to
                // exploit: every segment gets its own workspace.
                pool: segment,
            }),
        );
        report.recomputed += 1;
        report.dropped_bytes += shapes.bytes(node.id);
        if let Some(op) = graph.nodes()[node.id.index()].op() {
            if matches!(op.category(), echo_device::KernelCategory::FullyConnected) {
                report.expensive_recompute_nodes += 1;
            }
        }
    }
    (plan, report)
}

/// The √N stride for a graph (Chen et al.'s canonical setting).
pub fn sqrt_stride(graph: &Graph) -> usize {
    let ops = graph.nodes().iter().filter(|n| n.op().is_some()).count();
    ((ops as f64).sqrt().ceil() as usize).max(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::infer_shapes;
    use echo_graph::{ExecOptions, Executor};
    use echo_memory::DeviceMemory;
    use echo_models::{NmtHyper, NmtModel};
    use std::sync::Arc;

    fn mem() -> DeviceMemory {
        DeviceMemory::with_overhead_model(8 << 30, 0, 0.0)
    }

    fn tiny() -> (NmtModel, echo_data::NmtBatch) {
        let corpus = echo_data::ParallelCorpus::synthetic(
            echo_data::Vocab::new(80),
            echo_data::Vocab::new(70),
            16,
            4..=8,
            3,
        );
        let model = NmtModel::build(NmtHyper::tiny(80, 70));
        let batch = echo_data::NmtBatch::bucketed(corpus.pairs(), 8).remove(0);
        (model, batch)
    }

    #[test]
    fn chen_plan_is_bit_exact_but_replays_gemms() {
        let (model, batch) = tiny();
        let bindings = model.bindings(&batch);
        let shapes = infer_shapes(&model.graph, &bindings, &model.param_shapes()).unwrap();
        let (plan, report) = chen_sqrt_plan(
            &model.graph,
            &shapes,
            &[model.loss, model.logits],
            sqrt_stride(&model.graph),
        );
        assert!(report.recomputed > report.checkpoints);
        assert!(
            report.expensive_recompute_nodes > 0,
            "Chen indiscriminately recomputes fully-connected layers"
        );

        let run = |plan: StashPlan| {
            let mut exec = Executor::new(Arc::clone(&model.graph), plan, mem());
            model.bind_params(&mut exec, 5).unwrap();
            let stats = exec
                .train_step(&bindings, model.loss, ExecOptions::default(), None)
                .unwrap();
            (stats, exec.memory_report().peak_bytes)
        };
        let (base, peak_base) = run(StashPlan::stash_all());
        let (chen, peak_chen) = run(plan);
        assert_eq!(base.loss, chen.loss, "checkpointing must stay bit-exact");
        assert!(chen.replays > 0);
        assert!(
            peak_chen < peak_base,
            "chen {peak_chen} vs baseline {peak_base}"
        );
    }

    #[test]
    fn echo_recomputes_no_gemms_unlike_chen() {
        let (model, batch) = tiny();
        let bindings = model.bindings(&batch);
        let shapes = infer_shapes(&model.graph, &bindings, &model.param_shapes()).unwrap();
        let (_, chen) = chen_sqrt_plan(
            &model.graph,
            &shapes,
            &[model.loss, model.logits],
            sqrt_stride(&model.graph),
        );
        let compiled = crate::EchoCompiler::new(crate::EchoConfig::default())
            .compile(
                &model.graph,
                &bindings,
                &model.param_shapes(),
                &[model.loss, model.logits],
            )
            .unwrap();
        // Echo's plan never touches a FullyConnected node.
        for node in model.graph.nodes() {
            if let StashPolicy::Recompute(_) = compiled.plan.policy(node.id) {
                let cat = node.op().expect("ops only").category();
                assert_ne!(cat, echo_device::KernelCategory::FullyConnected);
            }
        }
        assert!(chen.expensive_recompute_nodes > 0);
    }

    #[test]
    fn stride_controls_the_tradeoff() {
        let (model, batch) = tiny();
        let bindings = model.bindings(&batch);
        let shapes = infer_shapes(&model.graph, &bindings, &model.param_shapes()).unwrap();
        let dropped = |stride: usize| {
            chen_sqrt_plan(&model.graph, &shapes, &[model.loss], stride)
                .1
                .dropped_bytes
        };
        assert!(
            dropped(16) > dropped(2),
            "larger stride drops more activations"
        );
    }
}
