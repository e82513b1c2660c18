//! Forward-only fusion: LSTM-cell groups, then elementwise chains.
//!
//! [`fuse_forward`] forms greedy **single-escape groups**: walking live op
//! nodes in descending id order, an unclaimed fusible node becomes a group
//! host, and the group repeatedly absorbs a producer `p` when `p` is
//! itself fusible, unprotected, unclaimed, and *every* live consumer of
//! `p` is already in the group — so the host's output is the only value
//! that escapes. The absorbed interiors keep their node definitions but
//! fall out of every dependency cone; the host is redefined as a
//! [`FusedGroup`] over the group's external inputs.
//!
//! Two phases share one claim table. The cell phase keeps only groups
//! with at least two activation (sigmoid/tanh) constituents — the gate
//! math between the recurrent GEMMs. The chain phase then keeps any group
//! of two or more of the nodes the cell phase left.
//!
//! The result is a forward-only graph: [`FusedGroup`] has no backward, so
//! only inference runs it. Training plans never fuse — the decision the
//! measurements in DESIGN.md record.

use super::fused::{FusedGroup, FusedInput, FusedStep};
use super::{Gir, Rewrite};
use crate::graph::{Graph, NodeId, NodeKind};
use crate::Result;
use echo_device::KernelCategory;
use echo_tensor::Shape;
use std::sync::Arc;

/// Fuses the live cone of `gir` for forward-only execution: LSTM-cell
/// groups first, then the remaining elementwise chains. Returns the number
/// of groups formed.
///
/// # Errors
///
/// Returns an error when a formed group fails to re-infer shapes — a
/// pass bug, never expected on well-formed graphs.
pub fn fuse_forward(gir: &mut Gir) -> Result<usize> {
    let graph = Arc::clone(gir.graph());
    let n = graph.len();
    let mask = gir.live_mask();

    // Fusibility per node: live op, fusible category, no operator-private
    // saved state.
    let fusible: Vec<bool> = graph
        .nodes()
        .iter()
        .map(|node| match &node.kind {
            NodeKind::Op { op, inputs } if mask[node.id.index()] => {
                let in_shapes: Vec<&Shape> = inputs.iter().map(|&i| gir.shape(i)).collect();
                fusible_category(op.category())
                    && op.saved_bytes(&in_shapes, gir.shape(node.id)) == 0
            }
            _ => false,
        })
        .collect();
    // Protected nodes may host a group but never become an interior.
    let mut absorbable = fusible.clone();
    for id in gir.protected() {
        absorbable[id.index()] = false;
    }
    let mut claimed = vec![false; n];

    let mut rewrites: Vec<Rewrite> = Vec::new();
    let is_cell = |members: &[usize]| {
        members
            .iter()
            .filter(|&&m| {
                matches!(
                    &graph.nodes()[m].kind,
                    NodeKind::Op { op, .. } if op.category() == KernelCategory::Activation
                )
            })
            .count()
            >= 2
    };
    for (tag, cell) in [("cell", true), ("chain", false)] {
        for host in (0..n).rev() {
            if claimed[host] || !fusible[host] {
                continue;
            }
            let mut members = grow(&graph, &mask, &absorbable, &claimed, host);
            if members.len() < 2 || (cell && !is_cell(&members)) {
                continue;
            }
            for &m in &members {
                claimed[m] = true;
            }
            rewrites.push(build_group(&graph, &mut members, host, tag));
        }
    }

    let formed = rewrites.len();
    gir.apply_rewrites(rewrites)?;
    Ok(formed)
}

/// Categories whose ops are candidates for fusion: cheap memory-bound
/// kernels where the launch overhead dominates.
fn fusible_category(c: KernelCategory) -> bool {
    matches!(
        c,
        KernelCategory::Elementwise | KernelCategory::Activation | KernelCategory::Transpose
    )
}

/// Grows the group hosted at `host` to a fixpoint: absorb every
/// absorbable, unclaimed producer whose live consumers are all already
/// inside.
fn grow(
    graph: &Graph,
    mask: &[bool],
    absorbable: &[bool],
    claimed: &[bool],
    host: usize,
) -> Vec<usize> {
    let mut in_group = vec![false; graph.len()];
    in_group[host] = true;
    let mut members = vec![host];
    loop {
        let mut grew = false;
        let candidates: Vec<usize> = members
            .iter()
            .flat_map(|&m| graph.nodes()[m].inputs().iter().map(|i| i.index()))
            .collect();
        for p in candidates {
            if in_group[p] || claimed[p] || !absorbable[p] {
                continue;
            }
            let escapes = graph
                .consumers(NodeId::from_index(p))
                .iter()
                .any(|c| mask[c.index()] && !in_group[c.index()]);
            if !escapes {
                in_group[p] = true;
                members.push(p);
                grew = true;
            }
        }
        if !grew {
            return members;
        }
    }
}

/// Assembles the [`FusedGroup`] rewrite hosted at the group's escaping
/// node (always the member with the largest id, since every other member's
/// consumers lie inside the group).
fn build_group(graph: &Graph, members: &mut [usize], host: usize, tag: &str) -> Rewrite {
    members.sort_unstable();
    debug_assert_eq!(*members.last().expect("non-empty group"), host);
    let mut externals: Vec<NodeId> = members
        .iter()
        .flat_map(|&m| graph.nodes()[m].inputs().iter().copied())
        .filter(|i| !members.contains(&i.index()))
        .collect();
    externals.sort_unstable();
    externals.dedup();
    let step_of = |id: usize| members.iter().position(|&m| m == id);
    let steps: Vec<FusedStep> = members
        .iter()
        .map(|&m| {
            let node = &graph.nodes()[m];
            let NodeKind::Op { op, inputs } = &node.kind else {
                unreachable!("group members are op nodes");
            };
            FusedStep {
                op: Arc::clone(op),
                inputs: inputs
                    .iter()
                    .map(|i| match step_of(i.index()) {
                        Some(j) => FusedInput::Interior(j),
                        None => FusedInput::External(
                            externals.binary_search(i).expect("external listed"),
                        ),
                    })
                    .collect(),
                name: node.name.clone(),
            }
        })
        .collect();
    let n_ext = externals.len();
    Rewrite {
        id: NodeId::from_index(host),
        op: Arc::new(FusedGroup::new(format!("fused_{tag}_{host}"), steps, n_ext)),
        inputs: externals,
    }
}
