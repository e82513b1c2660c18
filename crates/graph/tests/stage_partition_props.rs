//! Seeded property tests for the GPipe stage partitioner: every
//! partition of a random layered graph preserves the live op set, the
//! protected shapes, and the cross-stage edge set (no silently dropped
//! activations), cuts never split a parameter's consumer span, and plan
//! normalization keeps recompute segments strictly inside one stage.

use echo_check::{check, Gen};
use echo_graph::gir::{partition_stages, Gir};
use echo_graph::op::Saved;
use echo_graph::{
    Graph, KernelLaunch, NodeId, NodeKind, Operator, Result, SegmentId, StashNeeds, StashPlan,
    StashPolicy,
};
use echo_memory::LayerKind;
use echo_tensor::{Shape, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

/// y = tanh(mean of inputs): arity-polymorphic elementwise op, so random
/// layered graphs with skip edges stay shape-consistent.
#[derive(Debug)]
struct Mix;

impl Operator for Mix {
    fn name(&self) -> &str {
        "mix"
    }
    fn category(&self) -> echo_device::KernelCategory {
        echo_device::KernelCategory::Elementwise
    }
    fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        Ok(inputs[0].clone())
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<(Tensor, Saved)> {
        let mut out = inputs[0].clone();
        for x in &inputs[1..] {
            out.axpy(1.0, x)?;
        }
        out.scale_inplace(1.0 / inputs.len() as f32);
        out.map_inplace(|v| v.tanh());
        Ok((out, Vec::new()))
    }
    fn backward(
        &self,
        inputs: &[Option<&Tensor>],
        output: Option<&Tensor>,
        _saved: &[Tensor],
        dy: &Tensor,
    ) -> Result<Vec<Option<Tensor>>> {
        let y = output.expect("mix stashes its output");
        let scale = 1.0 / inputs.len() as f32;
        let mut base = dy.clone();
        for (g, (&yv, &dyv)) in base
            .data_mut()
            .iter_mut()
            .zip(y.data().iter().zip(dy.data()))
        {
            *g = (1.0 - yv * yv) * dyv * scale;
        }
        Ok(inputs.iter().map(|_| Some(base.clone())).collect())
    }
    fn stash(&self) -> StashNeeds {
        StashNeeds::OUTPUT
    }
    fn forward_launches(&self, _i: &[&Shape], _o: &Shape) -> Vec<KernelLaunch> {
        Vec::new()
    }
    fn backward_launches(&self, _i: &[&Shape], _o: &Shape) -> Vec<KernelLaunch> {
        Vec::new()
    }
}

/// A random layered stack: each layer owns one param consumed by *every*
/// op of the layer (so valid cuts are exactly the layer boundaries), with
/// random skip edges from earlier layers creating pass-through
/// interfaces.
fn layered_graph(
    layers: usize,
    ops_per_layer: &[usize],
    skips: &[(usize, usize)],
) -> (Arc<Graph>, Gir, Vec<NodeId>) {
    let dim = Shape::d1(8);
    let mut g = Graph::new();
    let x = g.input("x", LayerKind::Rnn);
    let mut binding_shapes = HashMap::new();
    binding_shapes.insert(x, dim.clone());
    let mut param_shapes = HashMap::new();
    let mut prev = x;
    let mut layer_outputs: Vec<NodeId> = Vec::new();
    let mut all_ops: Vec<NodeId> = Vec::new();
    for (l, &n_ops) in ops_per_layer.iter().enumerate().take(layers) {
        let w = g.param(format!("w{l}"), LayerKind::Rnn);
        param_shapes.insert(w, dim.clone());
        for o in 0..n_ops {
            let mut inputs = vec![prev, w];
            // Skip edges reference an earlier layer's final output.
            for &(sl, tl) in skips {
                if tl == l && o == 0 && sl < layer_outputs.len() {
                    inputs.push(layer_outputs[sl]);
                }
            }
            prev = g.apply(format!("l{l}o{o}"), Arc::new(Mix), &inputs, LayerKind::Rnn);
            all_ops.push(prev);
        }
        layer_outputs.push(prev);
    }
    let loss = prev;
    let graph = Arc::new(g);
    let gir = Gir::from_graph(Arc::clone(&graph), &binding_shapes, &param_shapes, &[loss]).unwrap();
    (graph, gir, all_ops)
}

#[test]
fn partitions_preserve_structure() {
    let path = concat!(module_path!(), "::partitions_preserve_structure");
    let gen = |g: &mut Gen| {
        let (layers, widths) = (g.range(2usize..6), g.vec(6..=6, |g| g.range(1usize..4)));
        (layers, widths, g.range(0usize..8), g.range(1usize..5))
    };
    check(path, 64, gen, |(layers, widths, skip_seed, stages)| {
        let widths = &widths[..layers];
        let skips: Vec<(usize, usize)> = (1..layers)
            .filter(|&l| (l + skip_seed) % 3 == 0 && l >= 2)
            .map(|l| (l - 2, l))
            .collect();
        let (graph, gir, all_ops) = layered_graph(layers, widths, &skips);
        if stages > layers {
            return false; // not enough layer boundaries for the cuts
        }
        let part = partition_stages(&gir, stages).unwrap();

        // The structural contract: op partition, protected shapes,
        // cross-stage edge coverage, interface chaining.
        part.validate().unwrap();
        assert_eq!(part.stage_count(), stages);
        assert_eq!(part.live_op_count(), all_ops.len());

        // Stages are contiguous, monotone index ranges covering all ops.
        let stage_seq: Vec<usize> = all_ops
            .iter()
            .map(|&id| part.stage_of(id).unwrap())
            .collect();
        for w in stage_seq.windows(2) {
            assert!(w[0] <= w[1], "non-monotone stages {stage_seq:?}");
        }

        // No cut splits a parameter's consumer span: all consumers of a
        // param sit in its owner's stage.
        for node in graph.nodes() {
            if !matches!(node.kind, NodeKind::Param) {
                continue;
            }
            let stages_used: Vec<usize> = graph
                .consumers(node.id)
                .iter()
                .filter_map(|&c| part.stage_of(c))
                .collect();
            assert!(
                stages_used.windows(2).all(|w| w[0] == w[1]),
                "param {} split across stages {stages_used:?}",
                node.name
            );
        }

        // Pass-through: any edge skipping a stage appears in every
        // intermediate interface (checked by validate, re-checked here
        // for the specific skip edges we injected).
        for node in graph.nodes() {
            let Some(su) = part.stage_of(node.id) else {
                continue;
            };
            for &c in graph.consumers(node.id) {
                let Some(sc) = part.stage_of(c) else { continue };
                for mid in su + 1..=sc {
                    assert!(
                        part.stage(mid).recv_interface.contains(&node.id),
                        "activation {} dropped between stages {su} and {sc}",
                        node.id
                    );
                }
            }
        }
        true
    });
}

#[test]
fn normalized_plans_never_straddle_cuts() {
    let path = concat!(module_path!(), "::normalized_plans_never_straddle_cuts");
    let gen = |g: &mut Gen| {
        let (layers, widths) = (g.range(2usize..6), g.vec(6..=6, |g| g.range(2usize..4)));
        (layers, widths, g.range(2usize..4), g.range(1usize..4))
    };
    check(path, 64, gen, |(layers, widths, stages, seg_stride)| {
        let widths = &widths[..layers];
        let (graph, gir, all_ops) = layered_graph(layers, widths, &[]);
        if stages > layers {
            return false;
        }
        let part = partition_stages(&gir, stages).unwrap();

        // A plan with segments laid down in fixed strides across the op
        // list — many will straddle cuts on purpose.
        let mut plan = StashPlan::stash_all();
        for (i, &id) in all_ops.iter().enumerate() {
            if id == *all_ops.last().unwrap() {
                continue; // keep the loss stashed
            }
            plan.set(
                id,
                StashPolicy::Recompute(SegmentId {
                    id: i / seg_stride,
                    pool: 0,
                }),
            );
        }
        let norm = part.normalized_plan(&plan);

        // Interface and protected nodes are forced to Stash.
        for sp in part.stages() {
            for &id in &sp.send_interface {
                assert_eq!(norm.policy(id), StashPolicy::Stash);
            }
        }
        // Every surviving segment lies inside exactly one stage.
        for seg in 0..norm.segment_count() {
            let nodes = norm.segment_nodes(seg);
            let seg_stages: Vec<usize> = nodes.iter().filter_map(|&id| part.stage_of(id)).collect();
            assert!(
                seg_stages.windows(2).all(|w| w[0] == w[1]),
                "segment {seg} straddles stages {seg_stages:?}"
            );
        }
        // Stage-local plans name exactly the owned recompute nodes.
        let locals = part.stage_plans(&plan);
        let local_recompute: usize = locals.iter().map(StashPlan::recompute_count).sum();
        assert_eq!(local_recompute, norm.recompute_count());
        let _ = graph;
        true
    });
}
