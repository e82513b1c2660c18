//! The graph-level IR (GIR) and its rewrite passes.
//!
//! Compilation runs as an explicit pass pipeline over two IR levels. The
//! **GIR** — a [`Graph`] annotated with an inferred shape per node and the
//! set of protected (externally observable) nodes — is where structural
//! optimisation happens: common-subexpression elimination, LSTM-cell and
//! elementwise-chain fusion, and layout selection are ordered rewrites,
//! each reporting what it changed as a [`PassTrace`]. The GIR then
//! **lowers** to the launch-level IR, the [`ExecPlan`](crate::ExecPlan)
//! tables (schedule, launch table, slot packing, replay tables), which the
//! executor interprets.
//!
//! Every rewrite here is **id-preserving**: the rewritten graph has the
//! same length and the same dense [`NodeId`]s as the original, so
//! bindings, parameters, stash policies and targets held by callers stay
//! valid across the whole pipeline. A fusion hosts its combined operator
//! at the group's single escaping node; the absorbed interior nodes keep
//! their original definitions but fall out of every target's dependency
//! cone (nothing consumes them), so neither executor path ever runs them.

pub mod cse;
pub mod fused;
pub mod fusion;
pub mod layout;
pub mod stage;

pub use cse::common_subexpr_elim;
pub use fused::FusedGroup;
pub use fusion::{fuse_elementwise_chains, fuse_lstm_cells};
pub use layout::select_layouts;
pub use stage::{partition_stages, StageExecPlans, StagePartition, StageSpec};

use crate::graph::{Graph, NodeId, NodeKind};
use crate::op::Operator;
use crate::{GraphError, Result};
use echo_tensor::Shape;
use std::collections::HashMap;
use std::sync::Arc;

/// One replacement a structural pass wants applied to the graph: node
/// `id` becomes an application of `op` over `inputs` (all of which must
/// have lower ids than `id`).
#[derive(Debug, Clone)]
pub struct Rewrite {
    /// The node being redefined.
    pub id: NodeId,
    /// Its new operator.
    pub op: Arc<dyn Operator + Send + Sync>,
    /// Its new inputs.
    pub inputs: Vec<NodeId>,
}

/// What one pass did, with before/after metrics over the live cone —
/// the per-pass accounting entry of the pipeline report.
#[derive(Debug, Clone)]
pub struct PassTrace {
    /// Pass name (`"cse"`, `"fuse-lstm-cell"`, …).
    pub pass: String,
    /// Number of graph rewrites the pass applied (fused groups, merged
    /// duplicates, swapped layouts).
    pub rewrites: usize,
    /// Live op-node count before the pass.
    pub live_ops_before: usize,
    /// Live op-node count after the pass.
    pub live_ops_after: usize,
    /// Forward launch-table length over the live cone before the pass.
    pub fwd_launches_before: usize,
    /// Forward launch-table length over the live cone after the pass.
    pub fwd_launches_after: usize,
    /// Forward FLOPs over the live cone before the pass.
    pub fwd_flops_before: u64,
    /// Forward FLOPs over the live cone after the pass.
    pub fwd_flops_after: u64,
    /// Output bytes of live nodes before the pass.
    pub live_bytes_before: u64,
    /// Output bytes of live nodes after the pass.
    pub live_bytes_after: u64,
    /// Wall time the pass took, in microseconds.
    pub wall_us: f64,
    /// Whether the rewrite is bit-exact by construction. A pass that
    /// cannot guarantee bit-identical loss/grads (e.g. CSE merging on a
    /// gradient path) must flag itself here.
    pub bit_exact: bool,
    /// Whether the structural equivalence check between the pre- and
    /// post-pass GIR passed.
    pub equivalence_ok: bool,
}

/// The graph-level IR: a graph plus per-node inferred shapes and the
/// protected node set structural passes must never absorb.
#[derive(Debug, Clone)]
pub struct Gir {
    graph: Arc<Graph>,
    shapes: Vec<Shape>,
    protected: Vec<NodeId>,
}

impl Gir {
    /// Builds the GIR from a graph and the shapes of its inputs and
    /// parameters, running whole-graph shape inference.
    ///
    /// `protected` nodes (loss, logits, exported states) keep their
    /// identity and value through every pass.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingBinding`] for an input or parameter
    /// with no shape, or operator errors on inconsistent shapes.
    pub fn from_graph(
        graph: Arc<Graph>,
        binding_shapes: &HashMap<NodeId, Shape>,
        param_shapes: &HashMap<NodeId, Shape>,
        protected: &[NodeId],
    ) -> Result<Gir> {
        let shapes = infer_all(&graph, binding_shapes, param_shapes)?;
        Ok(Gir {
            graph,
            shapes,
            protected: protected.to_vec(),
        })
    }

    /// The current (possibly rewritten) graph.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The inferred shape of `id`.
    pub fn shape(&self, id: NodeId) -> &Shape {
        &self.shapes[id.index()]
    }

    /// Shapes of every node, densely indexed.
    pub fn shapes(&self) -> &[Shape] {
        &self.shapes
    }

    /// The protected node set.
    pub fn protected(&self) -> &[NodeId] {
        &self.protected
    }

    /// `mask[i]` is true when node `i` lies in the dependency cone of at
    /// least one protected node — the nodes an execution actually runs.
    pub fn live_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.graph.len()];
        for &p in &self.protected {
            for id in self.graph.ancestors(p) {
                mask[id.index()] = true;
            }
        }
        mask
    }

    /// Number of live op nodes.
    pub fn live_ops(&self) -> usize {
        let mask = self.live_mask();
        self.graph
            .nodes()
            .iter()
            .filter(|n| mask[n.id.index()] && matches!(n.kind, NodeKind::Op { .. }))
            .count()
    }

    /// Forward launch-table length over the live cone: the number of
    /// kernels one forward execution of all protected targets launches.
    pub fn forward_launch_count(&self) -> usize {
        self.fold_live_launches(|launches| launches.len() as u64) as usize
    }

    /// Forward FLOPs over the live cone.
    pub fn forward_flops(&self) -> u64 {
        self.fold_live_launches(crate::plan::launch_flops)
    }

    /// Total output bytes of live nodes.
    pub fn live_bytes(&self) -> u64 {
        let mask = self.live_mask();
        self.shapes
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask[i])
            .map(|(_, s)| s.num_bytes() as u64)
            .sum()
    }

    fn fold_live_launches(&self, f: impl Fn(&[crate::op::KernelLaunch]) -> u64) -> u64 {
        let mask = self.live_mask();
        let mut total: u64 = 0;
        for node in self.graph.nodes() {
            if !mask[node.id.index()] {
                continue;
            }
            if let NodeKind::Op { op, inputs } = &node.kind {
                let in_shapes: Vec<&Shape> =
                    inputs.iter().map(|&i| &self.shapes[i.index()]).collect();
                let launches = op.forward_launches(&in_shapes, &self.shapes[node.id.index()]);
                total += f(&launches);
            }
        }
        total
    }

    /// Applies a batch of node redefinitions, rebuilding the graph with
    /// identical ids and re-running shape inference (which doubles as a
    /// well-formedness check of the rewrite).
    ///
    /// # Errors
    ///
    /// Returns an error when a rewritten node's shape no longer infers —
    /// the rewrite is rejected and the GIR is left unchanged.
    pub fn apply_rewrites(&mut self, rewrites: Vec<Rewrite>) -> Result<()> {
        if rewrites.is_empty() {
            return Ok(());
        }
        let mut by_id: HashMap<usize, Rewrite> = HashMap::new();
        for r in rewrites {
            by_id.insert(r.id.index(), r);
        }
        let mut rebuilt = Graph::new();
        for node in self.graph.nodes() {
            match (&node.kind, by_id.remove(&node.id.index())) {
                (NodeKind::Input, None) => {
                    rebuilt.input(node.name.clone(), node.layer);
                }
                (NodeKind::Param, None) => {
                    rebuilt.param(node.name.clone(), node.layer);
                }
                (NodeKind::Op { op, inputs }, None) => {
                    rebuilt.apply(node.name.clone(), Arc::clone(op), inputs, node.layer);
                }
                (NodeKind::Op { .. }, Some(r)) => {
                    rebuilt.apply(node.name.clone(), r.op, &r.inputs, node.layer);
                }
                (_, Some(r)) => {
                    return Err(GraphError::Operator {
                        op: "gir".to_string(),
                        message: format!("rewrite targets non-op node {}", r.id),
                    });
                }
            }
        }
        // Re-infer from the rewritten definitions; input/param shapes are
        // positions in the existing table (ids are preserved).
        let mut shapes: Vec<Shape> = Vec::with_capacity(rebuilt.len());
        for node in rebuilt.nodes() {
            let shape = match &node.kind {
                NodeKind::Input | NodeKind::Param => self.shapes[node.id.index()].clone(),
                NodeKind::Op { op, inputs } => {
                    let in_shapes: Vec<&Shape> =
                        inputs.iter().map(|&i| &shapes[i.index()]).collect();
                    op.infer_shape(&in_shapes)?
                }
            };
            shapes.push(shape);
        }
        self.graph = Arc::new(rebuilt);
        self.shapes = shapes;
        Ok(())
    }

    /// Pretty-prints the IR, one node per line — what `ECHO_DUMP_IR`
    /// emits before/after each pass. Dead (out-of-cone) nodes are marked.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mask = self.live_mask();
        let mut out = String::new();
        for node in self.graph.nodes() {
            let shape = &self.shapes[node.id.index()];
            let _ = match &node.kind {
                NodeKind::Input => writeln!(out, "  {} = input {:?} : {shape}", node.id, node.name),
                NodeKind::Param => writeln!(out, "  {} = param {:?} : {shape}", node.id, node.name),
                NodeKind::Op { op, inputs } => {
                    let args: Vec<String> = inputs.iter().map(|i| i.to_string()).collect();
                    let dead = if mask[node.id.index()] {
                        ""
                    } else {
                        "  // dead"
                    };
                    let prot = if self.protected.contains(&node.id) {
                        "  // protected"
                    } else {
                        ""
                    };
                    writeln!(
                        out,
                        "  {} = {}({}) : {shape}{dead}{prot}",
                        node.id,
                        op.name(),
                        args.join(", "),
                    )
                }
            };
        }
        out
    }
}

/// Structural equivalence check between two pipeline stages: the rewritten
/// GIR must preserve the external interface of the original — same node
/// count and ids, identical input/parameter nodes, and identical shapes
/// for every protected node. Passes that satisfy this plus their own
/// bit-exactness argument leave every observable bit unchanged.
///
/// # Errors
///
/// Returns [`GraphError::Operator`] describing the first violation.
pub fn check_equivalence(before: &Gir, after: &Gir) -> Result<()> {
    let fail = |message: String| {
        Err(GraphError::Operator {
            op: "gir-equivalence".to_string(),
            message,
        })
    };
    if before.graph.len() != after.graph.len() {
        return fail(format!(
            "node count changed: {} -> {}",
            before.graph.len(),
            after.graph.len()
        ));
    }
    for (b, a) in before.graph.nodes().iter().zip(after.graph.nodes()) {
        if b.name != a.name {
            return fail(format!(
                "node {} renamed {:?} -> {:?}",
                b.id, b.name, a.name
            ));
        }
        let same_kind = matches!(
            (&b.kind, &a.kind),
            (NodeKind::Input, NodeKind::Input)
                | (NodeKind::Param, NodeKind::Param)
                | (NodeKind::Op { .. }, NodeKind::Op { .. })
        );
        if !same_kind {
            return fail(format!("node {} changed kind", b.id));
        }
        if let NodeKind::Op { inputs, .. } = &a.kind {
            if inputs.iter().any(|i| *i >= a.id) {
                return fail(format!("node {} breaks topological order", a.id));
            }
        }
    }
    if before.protected != after.protected {
        return fail("protected set changed".to_string());
    }
    for &p in &before.protected {
        if before.shape(p) != after.shape(p) {
            return fail(format!(
                "protected node {p} changed shape: {} -> {}",
                before.shape(p),
                after.shape(p)
            ));
        }
    }
    Ok(())
}

fn infer_all(
    graph: &Graph,
    binding_shapes: &HashMap<NodeId, Shape>,
    param_shapes: &HashMap<NodeId, Shape>,
) -> Result<Vec<Shape>> {
    let mut shapes: Vec<Shape> = Vec::with_capacity(graph.len());
    for node in graph.nodes() {
        let shape =
            match &node.kind {
                NodeKind::Input => binding_shapes.get(&node.id).cloned().ok_or_else(|| {
                    GraphError::MissingBinding {
                        name: node.name.clone(),
                    }
                })?,
                NodeKind::Param => param_shapes.get(&node.id).cloned().ok_or_else(|| {
                    GraphError::MissingBinding {
                        name: node.name.clone(),
                    }
                })?,
                NodeKind::Op { op, inputs } => {
                    let in_shapes: Vec<&Shape> =
                        inputs.iter().map(|&i| &shapes[i.index()]).collect();
                    op.infer_shape(&in_shapes)?
                }
            };
        shapes.push(shape);
    }
    Ok(shapes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_memory::LayerKind;
    use echo_tensor::Tensor;

    // A minimal elementwise op for degenerate-graph tests.
    #[derive(Debug)]
    struct Double;
    impl Operator for Double {
        fn name(&self) -> &str {
            "double"
        }
        fn category(&self) -> echo_device::KernelCategory {
            echo_device::KernelCategory::Elementwise
        }
        fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
            Ok(inputs[0].clone())
        }
        fn forward(&self, inputs: &[&Tensor]) -> Result<(Tensor, Vec<Tensor>)> {
            let mut y = inputs[0].clone();
            for v in y.data_mut() {
                *v *= 2.0;
            }
            Ok((y, Vec::new()))
        }
        fn backward(
            &self,
            _inputs: &[Option<&Tensor>],
            _output: Option<&Tensor>,
            _saved: &[Tensor],
            dy: &Tensor,
        ) -> Result<Vec<Option<Tensor>>> {
            let mut dx = dy.clone();
            for v in dx.data_mut() {
                *v *= 2.0;
            }
            Ok(vec![Some(dx)])
        }
        fn stash(&self) -> crate::StashNeeds {
            crate::StashNeeds::NONE
        }
        fn forward_launches(&self, _i: &[&Shape], o: &Shape) -> Vec<crate::KernelLaunch> {
            vec![crate::KernelLaunch::kernel(
                "double",
                echo_device::KernelCategory::Elementwise,
                echo_device::KernelCost::elementwise(o.num_elements(), 2),
            )]
        }
        fn backward_launches(&self, _i: &[&Shape], o: &Shape) -> Vec<crate::KernelLaunch> {
            self.forward_launches(_i, o)
        }
    }

    fn single_op_gir() -> Gir {
        let mut g = Graph::new();
        let x = g.input("x", LayerKind::Other);
        let y = g.apply("y", Arc::new(Double), &[x], LayerKind::Other);
        let mut bindings = HashMap::new();
        bindings.insert(x, Shape::d2(2, 2));
        Gir::from_graph(Arc::new(g), &bindings, &HashMap::new(), &[y]).unwrap()
    }

    #[test]
    fn degenerate_single_op_graph_passes_through_untouched() {
        // Mirrors `fell_back_to_heuristic` in the stash search: a graph
        // with nothing to optimise must flow through fusion and CSE as
        // the identity, not an error.
        let mut gir = single_op_gir();
        let before = gir.clone();
        assert_eq!(fuse_lstm_cells(&mut gir).unwrap(), 0);
        assert_eq!(fuse_elementwise_chains(&mut gir).unwrap(), 0);
        assert_eq!(common_subexpr_elim(&mut gir, false).unwrap(), 0);
        assert_eq!(select_layouts(&mut gir).unwrap(), 0);
        check_equivalence(&before, &gir).unwrap();
        assert_eq!(gir.forward_launch_count(), 1);
        assert!(Arc::ptr_eq(before.graph(), gir.graph()));
    }

    #[test]
    fn degenerate_zero_interior_graph_passes_through_untouched() {
        // Inputs and params only — no op interior at all.
        let mut g = Graph::new();
        let x = g.input("x", LayerKind::Other);
        let _w = g.param("w", LayerKind::Other);
        let mut bindings = HashMap::new();
        bindings.insert(x, Shape::d1(3));
        let mut params = HashMap::new();
        params.insert(_w, Shape::d1(3));
        let mut gir = Gir::from_graph(Arc::new(g), &bindings, &params, &[x]).unwrap();
        let before = gir.clone();
        assert_eq!(fuse_lstm_cells(&mut gir).unwrap(), 0);
        assert_eq!(fuse_elementwise_chains(&mut gir).unwrap(), 0);
        assert_eq!(common_subexpr_elim(&mut gir, false).unwrap(), 0);
        check_equivalence(&before, &gir).unwrap();
        assert_eq!(gir.forward_launch_count(), 0);
        assert_eq!(gir.live_ops(), 0);
    }

    #[test]
    fn dump_lists_every_node_and_marks_dead() {
        let mut g = Graph::new();
        let x = g.input("x", LayerKind::Other);
        let y = g.apply("y", Arc::new(Double), &[x], LayerKind::Other);
        let _z = g.apply("z", Arc::new(Double), &[x], LayerKind::Other);
        let mut bindings = HashMap::new();
        bindings.insert(x, Shape::d2(2, 2));
        let gir = Gir::from_graph(Arc::new(g), &bindings, &HashMap::new(), &[y]).unwrap();
        let text = gir.dump();
        assert!(text.contains("input \"x\""));
        assert!(text.contains("double(%0)"));
        assert!(text.contains("// dead"), "{text}");
        assert!(text.contains("// protected"), "{text}");
    }

    #[test]
    fn equivalence_check_rejects_shape_and_interface_changes() {
        let gir = single_op_gir();
        // Different protected shape.
        let mut g = Graph::new();
        let x = g.input("x", LayerKind::Other);
        let y = g.apply("y", Arc::new(Double), &[x], LayerKind::Other);
        let mut bindings = HashMap::new();
        bindings.insert(x, Shape::d2(4, 4));
        let other = Gir::from_graph(Arc::new(g), &bindings, &HashMap::new(), &[y]).unwrap();
        assert!(check_equivalence(&gir, &other).is_err());
        // Different node count.
        let mut g2 = Graph::new();
        let x2 = g2.input("x", LayerKind::Other);
        let mut b2 = HashMap::new();
        b2.insert(x2, Shape::d2(2, 2));
        let shorter = Gir::from_graph(Arc::new(g2), &b2, &HashMap::new(), &[x2]).unwrap();
        assert!(check_equivalence(&gir, &shorter).is_err());
    }

    #[test]
    fn apply_rewrites_preserves_ids_and_reinfer_shapes() {
        let mut g = Graph::new();
        let x = g.input("x", LayerKind::Other);
        let a = g.apply("a", Arc::new(Double), &[x], LayerKind::Other);
        let b = g.apply("b", Arc::new(Double), &[a], LayerKind::Other);
        let mut bindings = HashMap::new();
        bindings.insert(x, Shape::d2(2, 3));
        let mut gir = Gir::from_graph(Arc::new(g), &bindings, &HashMap::new(), &[b]).unwrap();
        gir.apply_rewrites(vec![Rewrite {
            id: b,
            op: Arc::new(Double),
            inputs: vec![x],
        }])
        .unwrap();
        assert_eq!(gir.graph().len(), 3);
        assert_eq!(gir.graph().nodes()[b.index()].inputs(), &[x]);
        assert_eq!(gir.shape(b), &Shape::d2(2, 3));
        // `a` is now dead: out of b's cone.
        assert_eq!(gir.live_ops(), 1);
    }
}
