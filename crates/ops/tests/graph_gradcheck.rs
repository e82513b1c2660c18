//! End-to-end gradient checks: every operator embedded in a real graph,
//! its parameter gradients verified against finite differences by the
//! executor — including under recomputation policies.

use echo_graph::gradcheck::check_param_grad;
use echo_graph::{Executor, Graph, NodeId, SegmentId, StashPlan, StashPolicy};
use echo_memory::{DeviceMemory, LayerKind};
use echo_ops::*;
use echo_tensor::init::{seeded_rng, uniform};
use echo_tensor::{Shape, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

fn mem() -> DeviceMemory {
    DeviceMemory::with_overhead_model(1 << 30, 0, 0.0)
}

/// Builds the attention scoring pipeline ending in a scalar loss:
/// keys --(broadcast+query)--> layernorm --> tanh --> score --> softmax
/// --> weighted-sum --> FC --> sum-like loss via softmax_ce.
struct AttnGraph {
    graph: Arc<Graph>,
    keys: NodeId,
    query: NodeId,
    targets: NodeId,
    gamma: NodeId,
    v: NodeId,
    w_out: NodeId,
    b_out: NodeId,
    loss: NodeId,
    interior: Vec<NodeId>,
}

fn attention_graph() -> AttnGraph {
    let mut g = Graph::new();
    let keys = g.input("keys", LayerKind::Attention);
    let query = g.input("query", LayerKind::Attention);
    let targets = g.input("targets", LayerKind::Output);
    let gamma = g.param("gamma", LayerKind::Attention);
    let beta = g.param("beta", LayerKind::Attention);
    let v = g.param("v", LayerKind::Attention);
    let w_out = g.param("w_out", LayerKind::Output);
    let b_out = g.param("b_out", LayerKind::Output);

    let e = g.apply(
        "e",
        Arc::new(BroadcastAddQuery),
        &[keys, query],
        LayerKind::Attention,
    );
    let ln = g.apply(
        "ln",
        Arc::new(LayerNorm::default()),
        &[e, gamma, beta],
        LayerKind::Attention,
    );
    let th = g.apply(
        "th",
        Arc::new(Activation::tanh()),
        &[ln],
        LayerKind::Attention,
    );
    let score = g.apply(
        "score",
        Arc::new(ScoreReduce),
        &[th, v],
        LayerKind::Attention,
    );
    let alpha = g.apply(
        "alpha",
        Arc::new(SoftmaxRows),
        &[score],
        LayerKind::Attention,
    );
    let ctx = g.apply(
        "ctx",
        Arc::new(WeightedSum),
        &[alpha, keys],
        LayerKind::Attention,
    );
    let logits = g.apply(
        "logits",
        Arc::new(FullyConnected::new(5)),
        &[ctx, w_out, b_out],
        LayerKind::Output,
    );
    let loss = g.apply(
        "loss",
        Arc::new(SoftmaxCrossEntropy::new()),
        &[logits, targets],
        LayerKind::Output,
    );
    AttnGraph {
        graph: Arc::new(g),
        keys,
        query,
        targets,
        gamma,
        v,
        w_out,
        b_out,
        loss,
        interior: vec![e, ln, th, score],
    }
}

fn bind_attention(exec: &mut Executor, g: &AttnGraph, seed: u64) -> HashMap<NodeId, Tensor> {
    let mut rng = seeded_rng(seed);
    let (t, b, h) = (3usize, 2usize, 4usize);
    exec.bind_param(g.gamma, Tensor::full(Shape::d1(h), 1.0))
        .unwrap();
    exec.bind_param(
        exec.graph().find("beta").unwrap(),
        Tensor::zeros(Shape::d1(h)),
    )
    .unwrap();
    exec.bind_param(g.v, uniform(Shape::d1(h), 0.8, &mut rng))
        .unwrap();
    exec.bind_param(g.w_out, uniform(Shape::d2(5, h), 0.8, &mut rng))
        .unwrap();
    exec.bind_param(g.b_out, uniform(Shape::d1(5), 0.2, &mut rng))
        .unwrap();
    let mut bindings = HashMap::new();
    bindings.insert(g.keys, uniform(Shape::d3(t, b, h), 1.0, &mut rng));
    bindings.insert(g.query, uniform(Shape::d2(b, h), 1.0, &mut rng));
    bindings.insert(
        g.targets,
        Tensor::from_vec(Shape::d1(b), vec![1.0, 3.0]).unwrap(),
    );
    bindings
}

#[test]
fn attention_pipeline_gradients_check_out() {
    let g = attention_graph();
    let mut exec = Executor::new(Arc::clone(&g.graph), StashPlan::stash_all(), mem());
    let bindings = bind_attention(&mut exec, &g, 11);
    for (name, param) in [
        ("v", g.v),
        ("gamma", g.gamma),
        ("w_out", g.w_out),
        ("b_out", g.b_out),
    ] {
        let report = check_param_grad(&mut exec, &bindings, g.loss, param, 1e-2, 16).unwrap();
        assert!(
            report.passes(0.05),
            "{name}: abs={} rel={}",
            report.max_abs_err,
            report.max_rel_err
        );
    }
}

#[test]
fn recomputed_attention_matches_stashed_exactly() {
    let g = attention_graph();

    let run = |plan: StashPlan| {
        let mut exec = Executor::new(Arc::clone(&g.graph), plan, mem());
        let bindings = bind_attention(&mut exec, &g, 42);
        let stats = exec
            .train_step(&bindings, g.loss, Default::default(), None)
            .unwrap();
        let grads: Vec<Tensor> = [g.gamma, g.v, g.w_out, g.b_out]
            .iter()
            .map(|&p| exec.grad(p).unwrap().clone())
            .collect();
        (stats, grads, exec.memory_report().peak_bytes)
    };

    let (s_base, g_base, peak_base) = run(StashPlan::stash_all());

    // Echo-style plan: recompute the whole scoring interior.
    let mut plan = StashPlan::stash_all();
    for &n in &g.interior {
        plan.set(n, StashPolicy::Recompute(SegmentId { id: 0, pool: 0 }));
    }
    let (s_rec, g_rec, peak_rec) = run(plan);

    assert_eq!(s_base.loss, s_rec.loss, "loss must be identical");
    for (a, b) in g_base.iter().zip(&g_rec) {
        assert_eq!(a.data(), b.data(), "gradients must be bit-exact");
    }
    assert!(s_rec.replays >= 1);
    // With a single tiny segment the workspace is the same order as the
    // stashed feature maps, so only a rough bound holds here; the real
    // reduction comes from cross-step workspace sharing (next test).
    assert!(peak_rec <= peak_base + peak_base / 4);
    let _ = (peak_base, peak_rec);
}

/// Multiple decoder steps, each with its own scoring segment, all sharing
/// one workspace pool — the configuration where partial forward
/// propagation's `O(B·T²·H) → O(B·T·H)` reduction appears.
#[test]
fn multi_step_recompute_shares_workspace() {
    let (t, b, h, steps) = (8usize, 2usize, 16usize, 6usize);
    let mut g = Graph::new();
    let keys = g.input("keys", LayerKind::Attention);
    let targets = g.input("targets", LayerKind::Output);
    let gamma = g.param("gamma", LayerKind::Attention);
    let beta = g.param("beta", LayerKind::Attention);
    let v = g.param("v", LayerKind::Attention);
    let w_out = g.param("w_out", LayerKind::Output);
    let b_out = g.param("b_out", LayerKind::Output);

    let mut queries = Vec::new();
    let mut contexts = Vec::new();
    let mut interiors: Vec<Vec<NodeId>> = Vec::new();
    for s in 0..steps {
        let q = g.input(format!("q{s}"), LayerKind::Attention);
        queries.push(q);
        let e = g.apply(
            format!("e{s}"),
            Arc::new(BroadcastAddQuery),
            &[keys, q],
            LayerKind::Attention,
        );
        let ln = g.apply(
            format!("ln{s}"),
            Arc::new(LayerNorm::default()),
            &[e, gamma, beta],
            LayerKind::Attention,
        );
        let th = g.apply(
            format!("th{s}"),
            Arc::new(Activation::tanh()),
            &[ln],
            LayerKind::Attention,
        );
        let score = g.apply(
            format!("score{s}"),
            Arc::new(ScoreReduce),
            &[th, v],
            LayerKind::Attention,
        );
        let alpha = g.apply(
            format!("alpha{s}"),
            Arc::new(SoftmaxRows),
            &[score],
            LayerKind::Attention,
        );
        let ctx = g.apply(
            format!("ctx{s}"),
            Arc::new(WeightedSum),
            &[alpha, keys],
            LayerKind::Attention,
        );
        contexts.push(ctx);
        interiors.push(vec![e, ln, th, score]);
    }
    let stacked = g.apply(
        "stack",
        Arc::new(StackAxis0),
        &contexts,
        LayerKind::Attention,
    );
    let logits = g.apply(
        "logits",
        Arc::new(FullyConnected::new(5)),
        &[stacked, w_out, b_out],
        LayerKind::Output,
    );
    let loss = g.apply(
        "loss",
        Arc::new(SoftmaxCrossEntropy::new()),
        &[logits, targets],
        LayerKind::Output,
    );
    let graph = Arc::new(g);

    let run = |plan: StashPlan| {
        let mut exec = Executor::new(Arc::clone(&graph), plan, mem());
        let mut rng = seeded_rng(13);
        exec.bind_param(gamma, Tensor::full(Shape::d1(h), 1.0))
            .unwrap();
        exec.bind_param(beta, Tensor::zeros(Shape::d1(h))).unwrap();
        exec.bind_param(v, uniform(Shape::d1(h), 0.8, &mut rng))
            .unwrap();
        exec.bind_param(w_out, uniform(Shape::d2(5, h), 0.8, &mut rng))
            .unwrap();
        exec.bind_param(b_out, Tensor::zeros(Shape::d1(5))).unwrap();
        let mut bindings = HashMap::new();
        bindings.insert(keys, uniform(Shape::d3(t, b, h), 1.0, &mut rng));
        for &q in &queries {
            bindings.insert(q, uniform(Shape::d2(b, h), 1.0, &mut rng));
        }
        let ids: Vec<f32> = (0..steps * b).map(|i| (i % 5) as f32).collect();
        bindings.insert(
            targets,
            Tensor::from_vec(Shape::d1(steps * b), ids).unwrap(),
        );
        let stats = exec
            .train_step(&bindings, loss, Default::default(), None)
            .unwrap();
        (
            stats,
            exec.grad(v).unwrap().clone(),
            exec.memory_report().peak_bytes,
        )
    };

    let (s_base, g_base, peak_base) = run(StashPlan::stash_all());

    let mut plan = StashPlan::stash_all();
    for (s, interior) in interiors.iter().enumerate() {
        for &n in interior {
            plan.set(n, StashPolicy::Recompute(SegmentId { id: s, pool: 0 }));
        }
    }
    let (s_rec, g_rec, peak_rec) = run(plan);

    assert_eq!(s_base.loss, s_rec.loss);
    assert_eq!(g_base.data(), g_rec.data());
    assert_eq!(s_rec.replays as usize, steps, "one replay per decoder step");
    assert!(
        (peak_rec as f64) < peak_base as f64 * 0.75,
        "shared workspace must cut the peak substantially: {peak_rec} vs {peak_base}"
    );
}

#[test]
fn gradients_check_out_under_recomputation() {
    let g = attention_graph();
    let mut plan = StashPlan::stash_all();
    for &n in &g.interior {
        plan.set(n, StashPolicy::Recompute(SegmentId { id: 0, pool: 0 }));
    }
    let mut exec = Executor::new(Arc::clone(&g.graph), plan, mem());
    let bindings = bind_attention(&mut exec, &g, 7);
    let report = check_param_grad(&mut exec, &bindings, g.loss, g.v, 1e-2, 8).unwrap();
    assert!(report.passes(0.05), "abs={}", report.max_abs_err);
}

#[test]
fn lstm_like_chain_of_small_ops_gradchecks() {
    // One unfused LSTM-ish cell: x*W + slice/sigmoid/tanh/mul/add chain.
    let mut g = Graph::new();
    let x = g.input("x", LayerKind::Rnn);
    let targets = g.input("targets", LayerKind::Output);
    let w = g.param("w", LayerKind::Rnn);
    let b = g.param("b", LayerKind::Rnn);
    let h = 3usize;
    let pre = g.apply(
        "pre",
        Arc::new(FullyConnected::new(4 * h)),
        &[x, w, b],
        LayerKind::Rnn,
    );
    let i_gate = g.apply(
        "i",
        Arc::new(SliceLastDim::new(0, h)),
        &[pre],
        LayerKind::Rnn,
    );
    let f_gate = g.apply(
        "f",
        Arc::new(SliceLastDim::new(h, 2 * h)),
        &[pre],
        LayerKind::Rnn,
    );
    let g_in = g.apply(
        "g",
        Arc::new(SliceLastDim::new(2 * h, 3 * h)),
        &[pre],
        LayerKind::Rnn,
    );
    let o_gate = g.apply(
        "o",
        Arc::new(SliceLastDim::new(3 * h, 4 * h)),
        &[pre],
        LayerKind::Rnn,
    );
    let i_s = g.apply(
        "i_s",
        Arc::new(Activation::sigmoid()),
        &[i_gate],
        LayerKind::Rnn,
    );
    let f_s = g.apply(
        "f_s",
        Arc::new(Activation::sigmoid()),
        &[f_gate],
        LayerKind::Rnn,
    );
    let g_t = g.apply("g_t", Arc::new(Activation::tanh()), &[g_in], LayerKind::Rnn);
    let o_s = g.apply(
        "o_s",
        Arc::new(Activation::sigmoid()),
        &[o_gate],
        LayerKind::Rnn,
    );
    let ig = g.apply("ig", Arc::new(Mul), &[i_s, g_t], LayerKind::Rnn);
    let fg = g.apply("fg", Arc::new(Mul), &[f_s, ig], LayerKind::Rnn);
    let c_t = g.apply("c_t", Arc::new(Activation::tanh()), &[fg], LayerKind::Rnn);
    let h_t = g.apply("h_t", Arc::new(Mul), &[o_s, c_t], LayerKind::Rnn);
    let loss = g.apply(
        "loss",
        Arc::new(SoftmaxCrossEntropy::new()),
        &[h_t, targets],
        LayerKind::Output,
    );
    let graph = Arc::new(g);

    let mut rng = seeded_rng(3);
    let mut exec = Executor::new(Arc::clone(&graph), StashPlan::stash_all(), mem());
    exec.bind_param(w, uniform(Shape::d2(4 * h, h), 0.6, &mut rng))
        .unwrap();
    exec.bind_param(b, uniform(Shape::d1(4 * h), 0.2, &mut rng))
        .unwrap();
    let mut bindings = HashMap::new();
    bindings.insert(x, uniform(Shape::d2(2, h), 1.0, &mut rng));
    bindings.insert(
        targets,
        Tensor::from_vec(Shape::d1(2), vec![0.0, 2.0]).unwrap(),
    );
    let report = check_param_grad(&mut exec, &bindings, loss, w, 1e-2, 24).unwrap();
    assert!(
        report.passes(0.05),
        "abs={} rel={}",
        report.max_abs_err,
        report.max_rel_err
    );
}

#[test]
fn sequence_pipeline_with_reverse_and_embedding_gradchecks() {
    // ids -> embedding -> [B,T,H]->reshape? keep [T] ids per batch of 1:
    // ids [T, B] -> embedding -> [T, B, H] -> reverse -> stack/slice -> FC -> loss
    let mut g = Graph::new();
    let ids = g.input("ids", LayerKind::Embedding);
    let targets = g.input("targets", LayerKind::Output);
    let table = g.param("table", LayerKind::Embedding);
    let w = g.param("w", LayerKind::Output);
    let b = g.param("b", LayerKind::Output);
    let emb = g.apply(
        "emb",
        Arc::new(Embedding),
        &[ids, table],
        LayerKind::Embedding,
    );
    let rev = g.apply(
        "rev",
        Arc::new(SequenceReverse::parallel()),
        &[emb],
        LayerKind::Rnn,
    );
    let step = g.apply(
        "step",
        Arc::new(SliceAxis0 { index: 0 }),
        &[rev],
        LayerKind::Rnn,
    );
    let logits = g.apply(
        "logits",
        Arc::new(FullyConnected::new(4)),
        &[step, w, b],
        LayerKind::Output,
    );
    let loss = g.apply(
        "loss",
        Arc::new(SoftmaxCrossEntropy::new()),
        &[logits, targets],
        LayerKind::Output,
    );
    let graph = Arc::new(g);

    let mut rng = seeded_rng(5);
    let mut exec = Executor::new(Arc::clone(&graph), StashPlan::stash_all(), mem());
    exec.bind_param(table, uniform(Shape::d2(6, 3), 0.7, &mut rng))
        .unwrap();
    exec.bind_param(w, uniform(Shape::d2(4, 3), 0.7, &mut rng))
        .unwrap();
    exec.bind_param(b, Tensor::zeros(Shape::d1(4))).unwrap();
    let mut bindings = HashMap::new();
    bindings.insert(
        ids,
        Tensor::from_vec(Shape::d2(3, 2), vec![0.0, 5.0, 2.0, 3.0, 1.0, 4.0]).unwrap(),
    );
    bindings.insert(
        targets,
        Tensor::from_vec(Shape::d1(2), vec![1.0, 0.0]).unwrap(),
    );
    let report = check_param_grad(&mut exec, &bindings, loss, table, 1e-2, 18).unwrap();
    assert!(report.passes(0.05), "abs={}", report.max_abs_err);
}
