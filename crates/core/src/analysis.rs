//! Whole-graph shape inference — the static analysis the Echo pass runs
//! over the MXNet-style graph before making stashing decisions.

use echo_graph::{Graph, GraphError, NodeId, Result};
use echo_tensor::{Shape, Tensor};
use std::collections::HashMap;

/// Shapes of every node in a graph, indexed densely by node id.
#[derive(Debug, Clone)]
pub struct ShapeTable {
    shapes: Vec<Shape>,
}

impl ShapeTable {
    /// The shape of `node`.
    pub fn shape(&self, node: NodeId) -> &Shape {
        &self.shapes[node.index()]
    }

    /// Bytes of `node`'s output.
    pub fn bytes(&self, node: NodeId) -> u64 {
        self.shapes[node.index()].num_bytes() as u64
    }

    /// The largest op-output byte size in the table, restricted by a
    /// predicate over node ids.
    pub fn max_bytes_where(&self, mut pred: impl FnMut(NodeId) -> bool) -> u64 {
        self.shapes
            .iter()
            .enumerate()
            .filter(|&(i, _)| pred(NodeId::from_index(i)))
            .map(|(_, s)| s.num_bytes() as u64)
            .max()
            .unwrap_or(0)
    }
}

/// Infers the shape of every node from input bindings and parameter
/// shapes.
///
/// `bindings` supplies input-node tensors (only their shapes are read);
/// `param_shapes` supplies parameter shapes.
///
/// # Errors
///
/// Returns [`GraphError::MissingBinding`] when an input or parameter has
/// no shape, or operator errors when shapes are inconsistent.
pub fn infer_shapes(
    graph: &Graph,
    bindings: &HashMap<NodeId, Tensor>,
    param_shapes: &HashMap<NodeId, Shape>,
) -> Result<ShapeTable> {
    let binding_shapes: HashMap<NodeId, Shape> = bindings
        .iter()
        .map(|(&id, t)| (id, t.shape().clone()))
        .collect();
    infer_shapes_from(graph, &binding_shapes, param_shapes)
}

/// Like [`infer_shapes`], but taking input shapes directly rather than
/// bound tensors — the form the compiler uses, since compilation never
/// needs input *values*.
///
/// # Errors
///
/// Returns [`GraphError::MissingBinding`] when an input or parameter has
/// no shape, or operator errors when shapes are inconsistent.
pub fn infer_shapes_from(
    graph: &Graph,
    binding_shapes: &HashMap<NodeId, Shape>,
    param_shapes: &HashMap<NodeId, Shape>,
) -> Result<ShapeTable> {
    let mut shapes: Vec<Shape> = Vec::with_capacity(graph.len());
    for node in graph.nodes() {
        let shape = match &node.kind {
            echo_graph::NodeKind::Input => {
                binding_shapes
                    .get(&node.id)
                    .cloned()
                    .ok_or_else(|| GraphError::MissingBinding {
                        name: node.name.clone(),
                    })?
            }
            echo_graph::NodeKind::Param => {
                param_shapes
                    .get(&node.id)
                    .cloned()
                    .ok_or_else(|| GraphError::MissingBinding {
                        name: node.name.clone(),
                    })?
            }
            echo_graph::NodeKind::Op { op, inputs } => {
                let in_shapes: Vec<&Shape> = inputs.iter().map(|&i| &shapes[i.index()]).collect();
                op.infer_shape(&in_shapes)?
            }
        };
        shapes.push(shape);
    }
    Ok(ShapeTable { shapes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_memory::LayerKind;
    use echo_ops::{Add, FullyConnected};
    use std::sync::Arc;

    #[test]
    fn propagates_through_ops() {
        let mut g = Graph::new();
        let x = g.input("x", LayerKind::Other);
        let w = g.param("w", LayerKind::Other);
        let b = g.param("b", LayerKind::Other);
        let fc = g.apply(
            "fc",
            Arc::new(FullyConnected::new(8)),
            &[x, w, b],
            LayerKind::Other,
        );
        let sum = g.apply("sum", Arc::new(Add), &[fc, fc], LayerKind::Other);

        let mut bindings = HashMap::new();
        bindings.insert(x, Tensor::zeros(Shape::d2(4, 3)));
        let mut params = HashMap::new();
        params.insert(w, Shape::d2(8, 3));
        params.insert(b, Shape::d1(8));
        let table = infer_shapes(&g, &bindings, &params).unwrap();
        assert_eq!(table.shape(fc), &Shape::d2(4, 8));
        assert_eq!(table.shape(sum), &Shape::d2(4, 8));
        assert_eq!(table.bytes(sum), 4 * 8 * 4);
    }

    #[test]
    fn missing_binding_is_reported() {
        let mut g = Graph::new();
        let _x = g.input("x", LayerKind::Other);
        let err = infer_shapes(&g, &HashMap::new(), &HashMap::new()).unwrap_err();
        assert!(matches!(err, GraphError::MissingBinding { .. }));
    }
}
