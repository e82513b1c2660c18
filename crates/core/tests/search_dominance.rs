//! Dominance contract of the stash-set search, over randomized graphs.
//!
//! Because the cost model is exact (`planned_peak_bytes` replays the
//! allocator event sequence), the search result is a decidable property,
//! not a heuristic hope. For randomized LSTM-style attention unrolls, GRU
//! chains and plain activation chains:
//!
//! * searched peak ≤ stash-all peak, always (stash-all is itself a scored
//!   candidate);
//! * searched peak ≤ heuristic peak whenever the heuristic plan fits the
//!   recompute-FLOP budget (the heuristic is also always scored);
//! * the chosen plan's exact replay FLOPs respect the budget;
//! * graphs with no recomputable interior fall back to the heuristic plan
//!   instead of producing an empty candidate set.

use echo::analysis::infer_shapes;
use echo::{EchoCompiler, EchoConfig, OshapeConfig, SearchConfig, SearchReport, StashSearch};
use echo_check::{check, Gen};
use echo_graph::{ExecOptions, ExecPlan, Graph, NodeId};
use echo_memory::LayerKind;
use echo_ops::{Activation, Add, BroadcastAddQuery, MeanAll, ScoreReduce};
use echo_rnn::GruStep;
use echo_tensor::{Shape, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

struct Case {
    graph: Arc<Graph>,
    loss: NodeId,
    bindings: HashMap<NodeId, Tensor>,
    param_shapes: HashMap<NodeId, Shape>,
}

/// LSTM/NMT-style attention unroll: shared keys, one O-shape scoring
/// segment (broadcast-add → tanh → score) per decoder step.
fn attention_case(steps: usize, seq: usize, b: usize, h: usize) -> Case {
    let mut g = Graph::new();
    let keys = g.input("keys", LayerKind::Attention);
    let v = g.param("v", LayerKind::Attention);
    let mut bindings = HashMap::new();
    bindings.insert(keys, Tensor::zeros(Shape::d3(seq, b, h)));
    let mut score_sum = None;
    for t in 0..steps {
        let q = g.input(format!("q{t}"), LayerKind::Attention);
        bindings.insert(q, Tensor::zeros(Shape::d2(b, h)));
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
        let score = g.apply(
            format!("score{t}"),
            Arc::new(ScoreReduce),
            &[th, v],
            LayerKind::Attention,
        );
        score_sum = Some(match score_sum {
            None => score,
            Some(prev) => g.apply(
                format!("sum{t}"),
                Arc::new(Add),
                &[prev, score],
                LayerKind::Attention,
            ),
        });
    }
    let loss = g.apply(
        "loss",
        Arc::new(MeanAll),
        &[score_sum.expect("at least one step")],
        LayerKind::Output,
    );
    let mut param_shapes = HashMap::new();
    param_shapes.insert(v, Shape::d1(h));
    Case {
        graph: Arc::new(g),
        loss,
        bindings,
        param_shapes,
    }
}

/// Recurrent GRU chain: every interior node is a fused (GEMM-bearing)
/// step, so the O-shape detector finds nothing under any configuration.
fn gru_case(steps: usize, b: usize, h: usize) -> Case {
    let mut g = Graph::new();
    let h0 = g.input("h0", LayerKind::Rnn);
    let wx = g.param("wx", LayerKind::Rnn);
    let wh = g.param("wh", LayerKind::Rnn);
    let bias = g.param("bias", LayerKind::Rnn);
    let mut bindings = HashMap::new();
    bindings.insert(h0, Tensor::zeros(Shape::d2(b, h)));
    let mut state = h0;
    for t in 0..steps {
        let x = g.input(format!("x{t}"), LayerKind::Rnn);
        bindings.insert(x, Tensor::zeros(Shape::d2(b, h)));
        state = g.apply(
            format!("gru{t}"),
            Arc::new(GruStep::new(h)),
            &[x, state, wx, wh, bias],
            LayerKind::Rnn,
        );
    }
    let loss = g.apply("loss", Arc::new(MeanAll), &[state], LayerKind::Output);
    let mut param_shapes = HashMap::new();
    param_shapes.insert(wx, Shape::d2(3 * h, h));
    param_shapes.insert(wh, Shape::d2(3 * h, h));
    param_shapes.insert(bias, Shape::d1(6 * h));
    Case {
        graph: Arc::new(g),
        loss,
        bindings,
        param_shapes,
    }
}

/// Plain activation chain: one connected all-eligible segment whose
/// acceptance depends on its length (ratio = length).
fn chain_case(len: usize, b: usize, h: usize) -> Case {
    let mut g = Graph::new();
    let x = g.input("x", LayerKind::Rnn);
    let mut bindings = HashMap::new();
    bindings.insert(x, Tensor::zeros(Shape::d2(b, h)));
    let mut cur = x;
    for i in 0..len {
        cur = g.apply(
            format!("act{i}"),
            Arc::new(Activation::tanh()),
            &[cur],
            LayerKind::Rnn,
        );
    }
    let loss = g.apply("loss", Arc::new(MeanAll), &[cur], LayerKind::Output);
    Case {
        graph: Arc::new(g),
        loss,
        bindings,
        param_shapes: HashMap::new(),
    }
}

/// Runs the search and checks every decidable dominance/budget property.
fn check_dominance(case: &Case, flop_budget: f64) -> SearchReport {
    let shapes =
        infer_shapes(&case.graph, &case.bindings, &case.param_shapes).expect("shape inference");
    let binding_shapes: HashMap<NodeId, Shape> = case
        .bindings
        .iter()
        .map(|(&id, t)| (id, t.shape().clone()))
        .collect();
    let outcome = StashSearch::new(SearchConfig {
        flop_budget,
        ..SearchConfig::default()
    })
    .run(
        &case.graph,
        &shapes,
        &binding_shapes,
        &case.param_shapes,
        &[case.loss],
        &OshapeConfig::default(),
        true,
        ExecOptions::default(),
    )
    .expect("search runs");
    let r = outcome.report.clone();

    // Budget admissibility, on the exact (plan-derived) replay FLOPs.
    assert!(
        r.recompute_flops <= r.budget_flops,
        "budget violated: {} > {}",
        r.recompute_flops,
        r.budget_flops
    );
    // Stash-all is always a scored candidate, so the winner never exceeds it.
    assert!(
        r.searched_peak_bytes <= r.stash_all_peak_bytes,
        "searched {} above stash-all {}",
        r.searched_peak_bytes,
        r.stash_all_peak_bytes
    );
    // The heuristic never *worsens* the footprint on these graph families.
    assert!(
        r.heuristic_peak_bytes <= r.stash_all_peak_bytes,
        "heuristic {} above stash-all {}",
        r.heuristic_peak_bytes,
        r.stash_all_peak_bytes
    );
    // Whenever the heuristic plan itself fits the budget, the search
    // dominates it (the heuristic is also always scored).
    let heuristic_plan = EchoCompiler::new(EchoConfig::default())
        .compile_with_shapes(&case.graph, &shapes, &[case.loss])
        .plan;
    let heuristic_ep = ExecPlan::build(
        &case.graph,
        &heuristic_plan,
        ExecOptions::default(),
        &binding_shapes,
        &case.param_shapes,
        case.loss,
    )
    .expect("heuristic plan builds");
    assert_eq!(
        r.heuristic_peak_bytes,
        heuristic_ep.planned_peak_bytes(),
        "report's heuristic peak disagrees with the compiler's"
    );
    if heuristic_ep.planned_recompute_flops() <= r.budget_flops {
        assert!(
            r.searched_peak_bytes <= r.heuristic_peak_bytes,
            "searched {} above admissible heuristic {}",
            r.searched_peak_bytes,
            r.heuristic_peak_bytes
        );
    }
    // The chosen plan's own exec plan agrees with the reported score.
    assert_eq!(
        outcome.exec_plan.planned_peak_bytes(),
        r.searched_peak_bytes
    );
    r
}

/// Randomized attention unrolls: real O-shape candidates at several
/// granularities; the search must dominate the heuristic and respect
/// the budget at every sampled multiplier.
#[test]
fn attention_unrolls_dominate() {
    let path = concat!(module_path!(), "::attention_unrolls_dominate");
    let gen = |g: &mut Gen| {
        let (steps, seq, b) = (g.range(1usize..6), g.range(6usize..16), g.range(1usize..4));
        (steps, seq, b, g.range(8usize..24), g.range(0.5f64..2.0))
    };
    check(path, 12, gen, |(steps, seq, b, h, flop_budget)| {
        let case = attention_case(steps, seq, b, h);
        let r = check_dominance(&case, flop_budget);
        assert!(!r.fell_back_to_heuristic || r.candidates_explored >= 2);
        true
    });
}

/// GRU chains have no GEMM-free interior — the search must fall back
/// to the heuristic plan (never an empty candidate set) and report
/// identical peaks.
#[test]
fn gru_chains_fall_back_to_heuristic() {
    let path = concat!(module_path!(), "::gru_chains_fall_back_to_heuristic");
    let gen = |g: &mut Gen| {
        let (steps, b) = (g.range(1usize..7), g.range(1usize..4));
        (steps, b, g.range(4usize..12), g.range(0.5f64..2.0))
    };
    check(path, 12, gen, |(steps, b, h, flop_budget)| {
        let case = gru_case(steps, b, h);
        let r = check_dominance(&case, flop_budget);
        assert!(r.fell_back_to_heuristic);
        assert_eq!(r.searched_peak_bytes, r.heuristic_peak_bytes);
        assert_eq!(r.recompute_flops, 0);
        true
    });
}

/// Plain activation chains, including degenerate lengths (T ≤ 2): the
/// search never crashes, never returns an empty choice, and dominance
/// holds whether or not the heuristic's ratio test accepted the chain.
#[test]
fn activation_chains_dominate() {
    let path = concat!(module_path!(), "::activation_chains_dominate");
    let gen = |g: &mut Gen| {
        let (len, b) = (g.range(1usize..8), g.range(1usize..5));
        (len, b, g.range(8usize..32), g.range(0.5f64..2.0))
    };
    check(path, 12, gen, |(len, b, h, flop_budget)| {
        let case = chain_case(len, b, h);
        check_dominance(&case, flop_budget);
        true
    });
}
