//! A numeric stash-everything reference evaluator: the oracle the
//! equivalence tests compare the plan-driven interpreter against.
//!
//! A topological forward that keeps every value, then a descending-index
//! backward with the interpreter's accumulation order (the first gradient
//! to reach a node moves in, later ones `axpy` on top; parameter
//! gradients accumulate onto zeros). No plan, no replay, no accounting,
//! no device simulator, no buffer reuse — nothing that could share a bug
//! with `exec.rs` except the operators themselves.

use crate::graph::{Graph, NodeId, NodeKind};
use crate::op::Saved;
use crate::{GraphError, Result};
use echo_tensor::Tensor;
use std::collections::HashMap;

/// Values of `outputs` after a forward pass over their union cone.
///
/// # Errors
///
/// Reports a missing parameter or input binding and propagates operator
/// errors.
pub fn forward(
    graph: &Graph,
    params: &HashMap<NodeId, Tensor>,
    bindings: &HashMap<NodeId, Tensor>,
    outputs: &[NodeId],
) -> Result<Vec<Tensor>> {
    let (values, _) = forward_all(graph, params, bindings, outputs)?;
    Ok(outputs
        .iter()
        .map(|id| {
            values[id.index()]
                .clone()
                .expect("output is in its own cone")
        })
        .collect())
}

/// Loss value and per-parameter gradients (ascending id, one entry per
/// bound parameter) of one training step from the scalar `loss`.
///
/// # Errors
///
/// As [`forward`]; additionally rejects a non-scalar loss.
pub fn train_step(
    graph: &Graph,
    params: &HashMap<NodeId, Tensor>,
    bindings: &HashMap<NodeId, Tensor>,
    loss: NodeId,
) -> Result<(f32, Vec<(NodeId, Tensor)>)> {
    let (values, saved) = forward_all(graph, params, bindings, &[loss])?;
    let value = |id: NodeId| values[id.index()].as_ref().expect("in cone");
    if value(loss).len() != 1 {
        return Err(GraphError::NonScalarLoss {
            shape: value(loss).shape().to_string(),
        });
    }
    let mut grads: Vec<Option<Tensor>> = vec![None; graph.len()];
    grads[loss.index()] = Some(Tensor::full(value(loss).shape().clone(), 1.0));
    let mut param_grads: HashMap<NodeId, Tensor> = params
        .iter()
        .map(|(&id, t)| (id, Tensor::zeros(t.shape().clone())))
        .collect();
    for node in graph.nodes().iter().rev() {
        let Some(dy) = grads[node.id.index()].take() else {
            continue;
        };
        match &node.kind {
            NodeKind::Input => {}
            NodeKind::Param => {
                let acc = param_grads.get_mut(&node.id).expect("bound parameter");
                acc.axpy(1.0, &dy).map_err(GraphError::from)?;
            }
            NodeKind::Op { op, inputs } => {
                let needs = op.stash();
                let input_refs: Vec<Option<&Tensor>> = inputs
                    .iter()
                    .map(|&i| needs.inputs.then(|| value(i)))
                    .collect();
                let output_ref = needs.output.then(|| value(node.id));
                let input_grads =
                    op.backward(&input_refs, output_ref, &saved[node.id.index()], &dy)?;
                for (slot, (g, &input)) in input_grads.into_iter().zip(inputs).enumerate() {
                    let Some(g) = g.filter(|_| op.input_differentiable(slot)) else {
                        continue;
                    };
                    match &mut grads[input.index()] {
                        Some(acc) => acc.axpy(1.0, &g).map_err(GraphError::from)?,
                        empty @ None => *empty = Some(g),
                    }
                }
            }
        }
    }
    let mut param_grads: Vec<(NodeId, Tensor)> = param_grads.into_iter().collect();
    param_grads.sort_unstable_by_key(|(id, _)| *id);
    Ok((value(loss).data()[0], param_grads))
}

/// Every value (and every op's saved state) in the union cone of `roots`.
fn forward_all(
    graph: &Graph,
    params: &HashMap<NodeId, Tensor>,
    bindings: &HashMap<NodeId, Tensor>,
    roots: &[NodeId],
) -> Result<(Vec<Option<Tensor>>, Vec<Saved>)> {
    let mut in_cone = vec![false; graph.len()];
    for &root in roots {
        graph.node(root)?;
        for id in graph.ancestors(root) {
            in_cone[id.index()] = true;
        }
    }
    let mut values: Vec<Option<Tensor>> = vec![None; graph.len()];
    let mut saved: Vec<Saved> = vec![Vec::new(); graph.len()];
    for node in graph.nodes().iter().filter(|n| in_cone[n.id.index()]) {
        let bound = match &node.kind {
            NodeKind::Input => bindings.get(&node.id),
            NodeKind::Param => params.get(&node.id),
            NodeKind::Op { op, inputs } => {
                let in_values: Vec<&Tensor> = inputs
                    .iter()
                    .map(|i| values[i.index()].as_ref().expect("topological order"))
                    .collect();
                let (out, state) = op.forward(&in_values)?;
                values[node.id.index()] = Some(out);
                saved[node.id.index()] = state;
                continue;
            }
        };
        let value = bound.ok_or_else(|| GraphError::MissingBinding {
            name: node.name.clone(),
        })?;
        values[node.id.index()] = Some(value.clone());
    }
    Ok((values, saved))
}
