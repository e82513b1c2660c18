//! Replay-once discipline: a recomputed node feeding several backward
//! consumers is replayed exactly once per step, not once per consumer.
//!
//! The executor retires segment scratch by reference count (`n_required`,
//! the burn-autodiff idiom): `ensure_replayed` counts how many remaining
//! backward steps will read the scratch, each consumer decrements, and the
//! buffer is dropped when the count hits zero. If retirement were instead
//! keyed to each consumer individually, a value feeding three heads would
//! be regenerated three times — same bits, triple the recompute FLOPs.
//! This test pins both faces of the contract: the per-step and cumulative
//! replay counters (equal to what the plan promises,
//! `ExecPlan::planned_replays()`), and bit-identity of every gradient
//! against the oracle (`echo_graph::reference`), with the plan installed
//! up front and planned on demand alike.

use echo_graph::{ExecOptions, Executor, Graph, NodeId, SegmentId, StashPlan, StashPolicy};
use echo_memory::{DeviceMemory, LayerKind};
use echo_ops::{Activation, Add, FullyConnected, MeanAll};
use echo_tensor::init::{seeded_rng, uniform};
use echo_tensor::{Shape, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

const B: usize = 3;
const H: usize = 8;
const HEADS: usize = 3;

struct Fixture {
    graph: Arc<Graph>,
    shared: NodeId,
    loss: NodeId,
    params: Vec<(NodeId, Tensor)>,
    bindings: HashMap<NodeId, Tensor>,
}

/// x → fc → tanh `t`, with `t` feeding three fully-connected heads summed
/// into a scalar loss. FC backward reads its inputs (for dW), so all three
/// heads consume `t` during backward.
fn fixture() -> Fixture {
    let mut g = Graph::new();
    let x = g.input("x", LayerKind::Rnn);
    let w0 = g.param("w0", LayerKind::Rnn);
    let fc0 = g.apply(
        "fc0",
        Arc::new(FullyConnected::new(H).without_bias()),
        &[x, w0],
        LayerKind::Rnn,
    );
    let shared = g.apply("t", Arc::new(Activation::tanh()), &[fc0], LayerKind::Rnn);
    let mut rng = seeded_rng(23);
    let mut params = vec![(w0, uniform(Shape::d2(H, H), 0.5, &mut rng))];
    let mut heads = Vec::new();
    for i in 0..HEADS {
        let w = g.param(format!("w{}", i + 1), LayerKind::Rnn);
        params.push((w, uniform(Shape::d2(H, H), 0.5, &mut rng)));
        heads.push(g.apply(
            format!("head{i}"),
            Arc::new(FullyConnected::new(H).without_bias()),
            &[shared, w],
            LayerKind::Rnn,
        ));
    }
    let mut sum = heads[0];
    for (i, &head) in heads.iter().enumerate().skip(1) {
        sum = g.apply(
            format!("sum{i}"),
            Arc::new(Add),
            &[sum, head],
            LayerKind::Rnn,
        );
    }
    let loss = g.apply("loss", Arc::new(MeanAll), &[sum], LayerKind::Output);
    let mut bindings = HashMap::new();
    bindings.insert(x, uniform(Shape::d2(B, H), 1.0, &mut rng));
    Fixture {
        graph: Arc::new(g),
        shared,
        loss,
        params,
        bindings,
    }
}

/// The plan under test: only `t` recomputed. Hand-set because the O-shape
/// heuristic rejects a single-activation segment (ratio 1) — the point
/// here is the executor's replay discipline, not segment discovery.
fn recompute_shared(fx: &Fixture) -> StashPlan {
    let mut plan = StashPlan::stash_all();
    plan.set(
        fx.shared,
        StashPolicy::Recompute(SegmentId { id: 0, pool: 0 }),
    );
    plan
}

struct Outcome {
    loss_bits: u32,
    grad_bits: Vec<(NodeId, Vec<u32>)>,
    step_replays: Vec<u64>,
    cumulative_replays: u64,
    planned_replays: u64,
}

fn bits(grads: Vec<(NodeId, Tensor)>) -> Vec<(NodeId, Vec<u32>)> {
    grads
        .into_iter()
        .map(|(id, t)| (id, t.data().iter().map(|v| v.to_bits()).collect()))
        .collect()
}

fn run(fx: &Fixture, plan: StashPlan, install: bool, steps: usize) -> Outcome {
    let mem = DeviceMemory::with_overhead_model(1 << 30, 0, 0.0);
    let mut exec = Executor::new(Arc::clone(&fx.graph), plan, mem);
    for (id, value) in &fx.params {
        exec.bind_param(*id, value.clone()).expect("bind param");
    }
    if install {
        let plan = exec
            .plan_for(&fx.bindings, fx.loss, ExecOptions::default())
            .expect("plan builds");
        exec.set_exec_plan(plan).expect("plan installs");
    }
    let mut step_replays = Vec::new();
    let mut loss_bits = 0;
    for _ in 0..steps {
        let stats = exec
            .train_step(&fx.bindings, fx.loss, ExecOptions::default(), None)
            .expect("train step");
        step_replays.push(stats.replays);
        loss_bits = stats.loss.expect("numeric loss").to_bits();
    }
    Outcome {
        loss_bits,
        grad_bits: bits(exec.export_grads()),
        step_replays,
        cumulative_replays: exec.replays(),
        planned_replays: exec
            .exec_plan()
            .expect("the steps ran a plan")
            .planned_replays(),
    }
}

#[test]
fn shared_recomputed_value_replays_once_per_step() {
    let fx = fixture();
    const STEPS: usize = 4;
    let params: HashMap<NodeId, Tensor> = fx.params.iter().cloned().collect();
    let (oracle_loss, oracle_grads) =
        echo_graph::reference::train_step(&fx.graph, &params, &fx.bindings, fx.loss)
            .expect("oracle step");
    let oracle_grads = bits(oracle_grads);

    let stash_all = run(&fx, StashPlan::stash_all(), true, STEPS);
    assert_eq!(stash_all.step_replays, vec![0; STEPS]);
    assert_eq!(stash_all.cumulative_replays, 0);
    assert_eq!(stash_all.grad_bits, oracle_grads);

    for install in [false, true] {
        let out = run(&fx, recompute_shared(&fx), install, STEPS);
        // One replay per step despite three backward consumers of `t` —
        // and that is what the plan says a step costs.
        assert_eq!(out.planned_replays, 1);
        assert_eq!(
            out.step_replays,
            vec![1; STEPS],
            "replay-once violated (installed plan: {install})"
        );
        // The executor's cumulative counter sums the per-step counts.
        assert_eq!(
            out.cumulative_replays, STEPS as u64,
            "cumulative replays() drifted (installed plan: {install})"
        );
        // Recomputation must be invisible in the numbers.
        assert_eq!(
            out.loss_bits,
            oracle_loss.to_bits(),
            "loss bits diverged (installed plan: {install})"
        );
        assert_eq!(
            out.grad_bits, oracle_grads,
            "gradient bits diverged from the oracle (installed plan: {install})"
        );
    }
}
