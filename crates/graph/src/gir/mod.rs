//! The graph-level IR (GIR): stage partitioning and forward-only fusion.
//!
//! Compilation works on two IR levels. The **GIR** is a [`Graph`]
//! annotated with an inferred shape per node and the set of protected
//! (externally observable) nodes. Pipeline-stage partitioning
//! ([`partition_stages`]) and forward-only fusion ([`fuse_forward`], which
//! serving runs on the decode graph) read it. Training plans **lower**
//! from the graph straight to the launch-level IR, the
//! [`ExecPlan`](crate::ExecPlan) tables (schedule, launch table, slot
//! packing, replay tables), which the executor interprets.
//!
//! A rewrite is **id-preserving**: the rewritten graph has the same length
//! and the same dense [`NodeId`]s as the original, so bindings,
//! parameters and targets held by callers stay valid. A fusion hosts its
//! combined operator at the group's single escaping node; the absorbed
//! interior nodes keep their original definitions but fall out of every
//! target's dependency cone (nothing consumes them), so no execution ever
//! runs them.

pub mod fused;
pub mod fusion;
pub mod stage;

pub use fused::FusedGroup;
pub use fusion::fuse_forward;
pub use stage::{partition_stages, StageExecPlans, StagePartition, StageSpec};

use crate::graph::{Graph, NodeId, NodeKind};
use crate::op::Operator;
use crate::{GraphError, Result};
use echo_tensor::Shape;
use std::collections::HashMap;
use std::sync::Arc;

/// One replacement a rewrite wants applied to the graph: node `id`
/// becomes an application of `op` over `inputs` (all of which must have
/// lower ids than `id`).
#[derive(Debug, Clone)]
pub struct Rewrite {
    /// The node being redefined.
    pub id: NodeId,
    /// Its new operator.
    pub op: Arc<dyn Operator + Send + Sync>,
    /// Its new inputs.
    pub inputs: Vec<NodeId>,
}

/// One compile stage's entry in the compiler's report.
#[derive(Debug, Clone)]
pub struct PassTrace {
    /// Stage name (`"stash-select"`, `"lower"`, …).
    pub pass: String,
    /// What the stage produced: segments selected, launches lowered,
    /// stages partitioned.
    pub rewrites: usize,
    /// Wall time the stage took, in microseconds.
    pub wall_us: f64,
}

/// The graph-level IR: a graph plus per-node inferred shapes and the
/// protected node set fusion must never absorb.
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

    #[test]
    fn degenerate_single_op_graph_passes_through_untouched() {
        // A graph with nothing to fuse must flow through as the identity,
        // not an error.
        let mut g = Graph::new();
        let x = g.input("x", LayerKind::Other);
        let y = g.apply("y", Arc::new(Double), &[x], LayerKind::Other);
        let mut bindings = HashMap::new();
        bindings.insert(x, Shape::d2(2, 2));
        let mut gir = Gir::from_graph(Arc::new(g), &bindings, &HashMap::new(), &[y]).unwrap();
        let before = Arc::clone(gir.graph());
        assert_eq!(fuse_forward(&mut gir).unwrap(), 0);
        assert!(Arc::ptr_eq(&before, gir.graph()));
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
        let before = Arc::clone(gir.graph());
        assert_eq!(fuse_forward(&mut gir).unwrap(), 0);
        assert!(Arc::ptr_eq(&before, gir.graph()));
        assert_eq!(gir.live_mask(), [true, false]);
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
        assert_eq!(gir.live_mask(), [true, false, true]);
    }
}
