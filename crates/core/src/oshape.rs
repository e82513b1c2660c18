//! O-shape segment detection — the analysis at the heart of the Echo
//! pass (paper §4.1.1).
//!
//! A subgraph is *O-shape* when its boundary inputs and outputs are small
//! but its stashed intermediates are large. The detector:
//!
//! 1. marks **candidate nodes**: GEMM-free operator categories
//!    (element-wise, activation, attention, transpose) whose output (plus
//!    operator-private saved tensors) is large — at least `SIZE_FRACTION`
//!    (½) of the largest op output in the graph, so cheap glue ops (gate
//!    slices, score vectors) never merge segments across time steps;
//! 2. groups connected candidates into **segments** (union-find over graph
//!    edges);
//! 3. keeps a segment only when its intermediate bytes exceed
//!    `RATIO_THRESHOLD ×` (2×) its boundary-input bytes — the O-shape test;
//! 4. assigns segments with identical structural **signatures** (same op
//!    sequence and shapes — i.e. the same computation at different time
//!    steps) to one workspace pool, which is what keeps the recomputation
//!    workspace `O(B·T·H)` (§4.1.2).

use crate::analysis::ShapeTable;
use echo_device::KernelCategory;
use echo_graph::{Graph, NodeId, NodeKind, SegmentId, StashPlan, StashPolicy};
use echo_tensor::Shape;
use std::collections::{HashMap, HashSet};

/// A node is a candidate only if its intermediate bytes are at least this
/// fraction of the graph's largest eligible op output.
const SIZE_FRACTION: f64 = 0.5;

/// A segment is kept only if `intermediate / boundary ≥` this ratio.
const RATIO_THRESHOLD: f64 = 2.0;

/// One discovered O-shape segment.
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    /// Nodes to recompute, in topological order.
    pub nodes: Vec<NodeId>,
    /// Bytes of intermediates (outputs + saved) the plan avoids stashing.
    pub intermediate_bytes: u64,
    /// Bytes of the segment's boundary inputs.
    pub boundary_bytes: u64,
    /// Workspace pool shared with structurally identical segments.
    pub pool: usize,
    /// Structural signature (op name + output shape per node).
    pub signature: Vec<(String, Shape)>,
}

impl SegmentInfo {
    /// The O-shape ratio.
    pub fn ratio(&self) -> f64 {
        self.intermediate_bytes as f64 / self.boundary_bytes.max(1) as f64
    }
}

/// Operator categories eligible for recomputation: cheap relative to the
/// fully-connected layers, per the paper's §4.1 requirement that the
/// replayed subgraph contain no GEMMs.
fn eligible(category: KernelCategory) -> bool {
    matches!(
        category,
        KernelCategory::Elementwise
            | KernelCategory::Activation
            | KernelCategory::Attention
            | KernelCategory::Transpose
    )
}

struct UnionFind(Vec<usize>);

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind((0..n).collect())
    }
    fn find(&mut self, x: usize) -> usize {
        if self.0[x] != x {
            let root = self.find(self.0[x]);
            self.0[x] = root;
        }
        self.0[x]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[ra] = rb;
        }
    }
}

/// Per-node intermediate bytes: output plus operator-private saved state.
fn intermediate_bytes(graph: &Graph, shapes: &ShapeTable, id: NodeId) -> u64 {
    let node = &graph.nodes()[id.index()];
    let out = shapes.bytes(id);
    match &node.kind {
        NodeKind::Op { op, inputs } => {
            let in_shapes: Vec<&Shape> = inputs.iter().map(|&i| shapes.shape(i)).collect();
            out + op.saved_bytes(&in_shapes, shapes.shape(id))
        }
        _ => out,
    }
}

/// Runs the detector over `graph` with `protected` nodes never recomputed
/// (execution targets such as the loss and logits).
pub fn find_segments(graph: &Graph, shapes: &ShapeTable, protected: &[NodeId]) -> Vec<SegmentInfo> {
    let protected: HashSet<NodeId> = protected.iter().copied().collect();
    // Size reference: the largest output among *eligible-category* ops, so
    // huge GEMM products (logits, hidden sequences) don't skew the filter.
    let max_out = shapes.max_bytes_where(|id| {
        id.index() < graph.len()
            && graph.nodes()[id.index()]
                .op()
                .is_some_and(|op| eligible(op.category()))
    });
    let threshold = (max_out as f64 * SIZE_FRACTION) as u64;

    // 1. Candidates.
    let candidate: Vec<bool> = graph
        .nodes()
        .iter()
        .map(|node| {
            if protected.contains(&node.id) {
                return false;
            }
            match &node.kind {
                NodeKind::Op { op, .. } => {
                    eligible(op.category())
                        && intermediate_bytes(graph, shapes, node.id) >= threshold.max(1)
                }
                _ => false,
            }
        })
        .collect();

    // 2. Connected components among candidates.
    let mut uf = UnionFind::new(graph.len());
    for node in graph.nodes() {
        if !candidate[node.id.index()] {
            continue;
        }
        for &input in node.inputs() {
            if candidate[input.index()] {
                uf.union(node.id.index(), input.index());
            }
        }
    }
    let mut components: HashMap<usize, Vec<NodeId>> = HashMap::new();
    for node in graph.nodes() {
        if candidate[node.id.index()] {
            components
                .entry(uf.find(node.id.index()))
                .or_default()
                .push(node.id);
        }
    }

    // 3. O-shape test per component, with *amortized* boundary costs: a
    // boundary tensor shared by many components (the projected encoder
    // keys, identical across all decoder steps) only charges each
    // component its share — the paper's "average storage complexity is
    // only O(B x H)" argument (§4.1.1).
    let mut component_list: Vec<Vec<NodeId>> = components.into_values().collect();
    for nodes in &mut component_list {
        nodes.sort();
    }
    component_list.sort_by_key(|nodes| nodes[0]);
    let mut boundary_uses: HashMap<NodeId, u64> = HashMap::new();
    let mut component_boundaries: Vec<HashSet<NodeId>> = Vec::new();
    for nodes in &component_list {
        let members: HashSet<NodeId> = nodes.iter().copied().collect();
        let mut boundary: HashSet<NodeId> = HashSet::new();
        for &id in nodes {
            for &input in graph.nodes()[id.index()].inputs() {
                if !members.contains(&input) {
                    boundary.insert(input);
                }
            }
        }
        for &b in &boundary {
            *boundary_uses.entry(b).or_default() += 1;
        }
        component_boundaries.push(boundary);
    }

    let mut segments = Vec::new();
    for (nodes, boundary) in component_list.into_iter().zip(component_boundaries) {
        let inter: u64 = nodes
            .iter()
            .map(|&id| intermediate_bytes(graph, shapes, id))
            .sum();
        let boundary_bytes: u64 = boundary
            .iter()
            .map(|&b| shapes.bytes(b) / boundary_uses[&b].max(1))
            .sum();
        if (inter as f64) < RATIO_THRESHOLD * boundary_bytes.max(1) as f64 {
            continue;
        }
        let signature: Vec<(String, Shape)> = nodes
            .iter()
            .map(|&id| {
                let node = &graph.nodes()[id.index()];
                (
                    node.op().map(|o| o.name().to_string()).unwrap_or_default(),
                    shapes.shape(id).clone(),
                )
            })
            .collect();
        segments.push(SegmentInfo {
            nodes,
            intermediate_bytes: inter,
            boundary_bytes,
            pool: 0, // assigned below
            signature,
        });
    }

    // Deterministic order, then pool assignment by signature.
    segments.sort_by_key(|s| s.nodes[0]);
    let mut pools: HashMap<Vec<(String, Shape)>, usize> = HashMap::new();
    for seg in &mut segments {
        let next = pools.len();
        seg.pool = *pools.entry(seg.signature.clone()).or_insert(next);
    }
    segments
}

/// Turns discovered segments into an executor [`StashPlan`].
///
/// With `share_workspace` disabled (an ablation), every segment leases
/// from its own pool — reproducing the `O(B·T²·H)` workspace spike the
/// paper warns about in §4.1.2... except that the executor's sequential
/// backward keeps only one lease alive at a time, so the cost shows up as
/// per-pool retained buffers instead.
pub fn build_plan(segments: &[SegmentInfo], share_workspace: bool) -> StashPlan {
    let mut plan = StashPlan::stash_all();
    for (id, seg) in segments.iter().enumerate() {
        let pool = if share_workspace { seg.pool } else { id };
        for &node in &seg.nodes {
            plan.set(node, StashPolicy::Recompute(SegmentId { id, pool }));
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::infer_shapes;
    use echo_memory::LayerKind;
    use echo_ops::{Activation, BroadcastAddQuery, FullyConnected, ScoreReduce};
    use echo_tensor::Tensor;
    use std::sync::Arc;

    /// keys [T,B,H] shared by two decoder steps, each: broadcast -> tanh
    /// -> score — the textbook O-shape (amortization over steps is what
    /// makes the inputs "small", paper §4.1.1).
    type OshapeFixture = (
        Graph,
        HashMap<NodeId, Tensor>,
        HashMap<NodeId, Shape>,
        Vec<Vec<NodeId>>,
    );

    fn oshape_graph() -> OshapeFixture {
        let mut g = Graph::new();
        let keys = g.input("keys", LayerKind::Attention);
        let v = g.param("v", LayerKind::Attention);
        let mut steps = Vec::new();
        let mut bindings = HashMap::new();
        bindings.insert(keys, Tensor::zeros(Shape::d3(50, 4, 64)));
        for t in 0..2 {
            let query = g.input(format!("query{t}"), LayerKind::Attention);
            bindings.insert(query, Tensor::zeros(Shape::d2(4, 64)));
            let e = g.apply(
                format!("e{t}"),
                Arc::new(BroadcastAddQuery),
                &[keys, query],
                LayerKind::Attention,
            );
            let th = g.apply(
                format!("th{t}"),
                Arc::new(Activation::tanh()),
                &[e],
                LayerKind::Attention,
            );
            let score = g.apply(
                format!("score{t}"),
                Arc::new(ScoreReduce),
                &[th, v],
                LayerKind::Attention,
            );
            steps.push(vec![e, th, score]);
        }
        let mut params = HashMap::new();
        params.insert(v, Shape::d1(64));
        (g, bindings, params, steps)
    }

    #[test]
    fn detects_the_attention_scoring_segments() {
        let (g, bindings, params, expected) = oshape_graph();
        let shapes = infer_shapes(&g, &bindings, &params).unwrap();
        let segments = find_segments(&g, &shapes, &[]);
        assert_eq!(segments.len(), 2);
        for (seg, exp) in segments.iter().zip(&expected) {
            // e and th are large candidates; score [B,T] is small and
            // excluded.
            assert_eq!(seg.nodes, exp[..2].to_vec());
            assert!(seg.ratio() > 2.0, "ratio {}", seg.ratio());
        }
        assert_eq!(segments[0].pool, segments[1].pool);
    }

    #[test]
    fn fully_connected_is_never_recomputed() {
        let mut g = Graph::new();
        let x = g.input("x", LayerKind::Rnn);
        let w = g.param("w", LayerKind::Rnn);
        let fc = g.apply(
            "fc",
            Arc::new(FullyConnected::new(2048).without_bias()),
            &[x, w],
            LayerKind::Rnn,
        );
        let _th = g.apply("th", Arc::new(Activation::tanh()), &[fc], LayerKind::Rnn);
        let mut bindings = HashMap::new();
        bindings.insert(x, Tensor::zeros(Shape::d2(64, 512)));
        let mut params = HashMap::new();
        params.insert(w, Shape::d2(2048, 512));
        let shapes = infer_shapes(&g, &bindings, &params).unwrap();
        let segments = find_segments(&g, &shapes, &[]);
        // {th} alone: intermediate [64x2048] vs boundary fc output
        // [64x2048] → ratio 1 → rejected.
        assert!(segments.is_empty(), "{segments:?}");
        let plan = build_plan(&segments, true);
        assert_eq!(plan.policy(fc), StashPolicy::Stash);
    }

    #[test]
    fn protected_nodes_are_skipped() {
        let (g, bindings, params, expected) = oshape_graph();
        let shapes = infer_shapes(&g, &bindings, &params).unwrap();
        let protect: Vec<NodeId> = expected.iter().map(|s| s[0]).collect();
        let segments = find_segments(&g, &shapes, &protect);
        // With each `e` protected only `th` remains per step; its boundary
        // is e's same-sized output, so the ratio test rejects everything.
        assert!(segments.is_empty());
    }

    #[test]
    fn identical_segments_share_a_pool() {
        let mut g = Graph::new();
        let keys = g.input("keys", LayerKind::Attention);
        let mut step_nodes = Vec::new();
        for t in 0..3 {
            let q = g.input(format!("q{t}"), LayerKind::Attention);
            let e = g.apply(
                format!("e{t}"),
                Arc::new(BroadcastAddQuery),
                &[keys, q],
                LayerKind::Attention,
            );
            let th = g.apply(
                format!("th{t}"),
                Arc::new(Activation::tanh()),
                &[e],
                LayerKind::Attention,
            );
            step_nodes.push((q, e, th));
        }
        let mut bindings = HashMap::new();
        bindings.insert(keys, Tensor::zeros(Shape::d3(50, 4, 64)));
        for &(q, _, _) in &step_nodes {
            bindings.insert(q, Tensor::zeros(Shape::d2(4, 64)));
        }
        let shapes = infer_shapes(&g, &bindings, &HashMap::new()).unwrap();
        let segments = find_segments(&g, &shapes, &[]);
        assert_eq!(segments.len(), 3);
        let pools: HashSet<usize> = segments.iter().map(|s| s.pool).collect();
        assert_eq!(pools.len(), 1, "identical segments must share one pool");
        let plan = build_plan(&segments, true);
        assert_eq!(plan.recompute_count(), 6);
        assert_eq!(plan.segment_count(), 3);
    }
}
