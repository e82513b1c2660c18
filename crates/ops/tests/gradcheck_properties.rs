//! Property-based gradient checks: the attention scoring chain,
//! layer normalization, and sequence reversal verified against finite
//! differences over randomized shapes and parameter draws, reusing the
//! executor's gradcheck harness.

use echo_check::{check, default_cases, Gen};
use echo_graph::gradcheck::check_param_grad;
use echo_graph::{Executor, Graph, NodeId, StashPlan};
use echo_memory::{DeviceMemory, LayerKind};
use echo_ops::*;
use echo_tensor::init::{seeded_rng, uniform};
use echo_tensor::{Shape, Tensor};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

fn mem() -> DeviceMemory {
    DeviceMemory::with_overhead_model(1 << 30, 0, 0.0)
}

fn exec_for(graph: Graph) -> Executor {
    Executor::new(Arc::new(graph), StashPlan::stash_all(), mem())
}

/// A named parameter's gradient must survive finite-difference scrutiny.
fn assert_grad_ok(
    exec: &mut Executor,
    bindings: &HashMap<NodeId, Tensor>,
    loss: NodeId,
    param: NodeId,
    name: &str,
) {
    let report = check_param_grad(exec, bindings, loss, param, 1e-2, 8)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(
        report.passes(0.05),
        "{name}: abs={} rel={}",
        report.max_abs_err,
        report.max_rel_err
    );
}

/// Draws a `[T, B, H]` shape from the given ranges, then a seed.
fn shape(g: &mut Gen, [t, b, h]: [Range<usize>; 3]) -> (usize, usize, usize, u64) {
    (g.range(t), g.range(b), g.range(h), g.range(0u64..500))
}

/// LayerNorm: gamma, beta and an elementwise downstream parameter all
/// check out for arbitrary `[T, B, H]` shapes and random draws.
#[test]
fn layernorm_gradients_hold() {
    let path = concat!(module_path!(), "::layernorm_gradients_hold");
    let gen = |g: &mut Gen| shape(g, [1..4, 1..4, 2..8]);
    check(path, default_cases(), gen, |(t, b, h, seed)| {
        let (mut g, rnn) = (Graph::new(), LayerKind::Rnn);
        let x = g.input("x", rnn);
        let gamma = g.param("gamma", rnn);
        let beta = g.param("beta", rnn);
        let w = g.param("w", rnn);
        let ln = g.apply("ln", Arc::new(LayerNorm::default()), &[x, gamma, beta], rnn);
        let scaled = g.apply("scaled", Arc::new(Mul), &[ln, w], rnn);
        let loss = g.apply("loss", Arc::new(MeanAll), &[scaled], LayerKind::Output);

        let mut exec = exec_for(g);
        let mut rng = seeded_rng(seed);
        // Keep gamma away from zero so relative errors stay meaningful.
        let mut gamma_init = uniform(Shape::d1(h), 0.5, &mut rng);
        gamma_init.map_inplace(|g| g + 1.0);
        exec.bind_param(gamma, gamma_init).unwrap();
        exec.bind_param(beta, uniform(Shape::d1(h), 0.3, &mut rng))
            .unwrap();
        exec.bind_param(w, uniform(Shape::d3(t, b, h), 0.8, &mut rng))
            .unwrap();
        let mut bindings = HashMap::new();
        bindings.insert(x, uniform(Shape::d3(t, b, h), 1.0, &mut rng));

        for (name, p) in [("gamma", gamma), ("beta", beta), ("w", w)] {
            assert_grad_ok(&mut exec, &bindings, loss, p, name);
        }
        true
    });
}

/// The attention scoring chain (broadcast-add, layernorm, tanh, score,
/// softmax, weighted sum): score vector and layernorm scale gradients
/// hold for arbitrary key/query geometries.
#[test]
fn attention_gradients_hold() {
    let path = concat!(module_path!(), "::attention_gradients_hold");
    let gen = |g: &mut Gen| shape(g, [2..5, 1..3, 2..6]);
    check(path, default_cases(), gen, |(t, b, h, seed)| {
        let (mut g, att) = (Graph::new(), LayerKind::Attention);
        let keys = g.input("keys", att);
        let query = g.input("query", att);
        let gamma = g.param("gamma", att);
        let beta = g.param("beta", att);
        let v = g.param("v", att);
        let e = g.apply("e", Arc::new(BroadcastAddQuery), &[keys, query], att);
        let ln = g.apply("ln", Arc::new(LayerNorm::default()), &[e, gamma, beta], att);
        let th = g.apply("th", Arc::new(Activation::tanh()), &[ln], att);
        let score = g.apply("score", Arc::new(ScoreReduce), &[th, v], att);
        let alpha = g.apply("alpha", Arc::new(SoftmaxRows), &[score], att);
        let ctx = g.apply("ctx", Arc::new(WeightedSum), &[alpha, keys], att);
        let loss = g.apply("loss", Arc::new(MeanAll), &[ctx], LayerKind::Output);

        let mut exec = exec_for(g);
        let mut rng = seeded_rng(seed);
        exec.bind_param(gamma, Tensor::full(Shape::d1(h), 1.0))
            .unwrap();
        exec.bind_param(beta, Tensor::zeros(Shape::d1(h))).unwrap();
        exec.bind_param(v, uniform(Shape::d1(h), 0.8, &mut rng))
            .unwrap();
        let mut bindings = HashMap::new();
        bindings.insert(keys, uniform(Shape::d3(t, b, h), 1.0, &mut rng));
        bindings.insert(query, uniform(Shape::d2(b, h), 1.0, &mut rng));

        for (name, p) in [("v", v), ("gamma", gamma)] {
            assert_grad_ok(&mut exec, &bindings, loss, p, name);
        }
        true
    });
}

/// SequenceReverse: gradients flow correctly through the time
/// reversal for an upstream parameter, and the sequential and
/// parallel variants produce bit-identical gradients (they differ
/// only in the device model, never numerically).
#[test]
fn sequence_reverse_gradients_hold() {
    let path = concat!(module_path!(), "::sequence_reverse_gradients_hold");
    let gen = |g: &mut Gen| shape(g, [1..5, 1..3, 1..6]);
    check(path, default_cases(), gen, |(t, b, h, seed)| {
        let build = |op: SequenceReverse| {
            let mut g = Graph::new();
            let x = g.input("x", LayerKind::Rnn);
            let w = g.param("w", LayerKind::Rnn);
            let m = g.apply("m", Arc::new(Mul), &[x, w], LayerKind::Rnn);
            let r = g.apply("r", Arc::new(op), &[m], LayerKind::Rnn);
            let sq = g.apply("sq", Arc::new(Mul), &[r, r], LayerKind::Rnn);
            let loss = g.apply("loss", Arc::new(MeanAll), &[sq], LayerKind::Output);
            (g, x, w, loss)
        };

        let mut grads = Vec::new();
        for op in [SequenceReverse::sequential(), SequenceReverse::parallel()] {
            let name = if op.is_parallel() {
                "parallel"
            } else {
                "sequential"
            };
            let (g, x, w, loss) = build(op);
            let mut exec = exec_for(g);
            let mut rng = seeded_rng(seed);
            exec.bind_param(w, uniform(Shape::d3(t, b, h), 0.8, &mut rng))
                .unwrap();
            let mut bindings = HashMap::new();
            bindings.insert(x, uniform(Shape::d3(t, b, h), 1.0, &mut rng));
            assert_grad_ok(&mut exec, &bindings, loss, w, name);
            grads.push(exec.grad(w).unwrap().data().to_vec());
        }
        assert_eq!(&grads[0], &grads[1], "variants must agree bit-for-bit");
        true
    });
}
