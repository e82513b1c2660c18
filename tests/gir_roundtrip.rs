//! GIR round-trip and fusion launch-table tests.
//!
//! Two contracts: (1) lifting a graph into the GIR and lowering it back
//! to launch-level `ExecPlan` tables is the identity on launch semantics,
//! even through an id-preserving rewrite cycle; (2) forward-only fusion
//! shrinks the word-LM decoder's (Default backend) forward launch table
//! by at least 25%.

use echo_graph::gir::Rewrite;
use echo_graph::{ExecOptions, ExecPlan, Gir, NodeId, NodeKind, StashPlan};
use echo_models::{WordLm, WordLmDecoder, WordLmHyper};
use echo_rnn::LstmBackend;
use echo_tensor::Shape;
use std::collections::HashMap;
use std::sync::Arc;

fn word_lm() -> WordLm {
    WordLm::build(WordLmHyper::tiny(30, LstmBackend::Default))
}

fn binding_shapes(lm: &WordLm, batch: usize) -> HashMap<NodeId, Shape> {
    lm.symbolic_bindings(batch)
        .iter()
        .map(|(&id, t)| (id, t.shape().clone()))
        .collect()
}

#[test]
fn gir_round_trip_preserves_launch_semantics() {
    let lm = word_lm();
    let bindings = binding_shapes(&lm, 4);
    let params = lm.param_shapes();
    let mut gir =
        Gir::from_graph(Arc::clone(&lm.graph), &bindings, &params, &[lm.loss]).expect("gir lifts");
    // Force an actual rebuild cycle through the public rewrite API: an
    // identity rewrite of the loss node re-creates every node, so the
    // lowered plan exercises the id-preservation contract, not Arc
    // sharing.
    let NodeKind::Op { op, inputs } = &lm.graph.nodes()[lm.loss.index()].kind else {
        panic!("loss is an op node");
    };
    gir.apply_rewrites(vec![Rewrite {
        id: lm.loss,
        op: Arc::clone(op),
        inputs: inputs.clone(),
    }])
    .expect("identity rewrite applies");
    assert!(
        !Arc::ptr_eq(&lm.graph, gir.graph()),
        "rewrite must rebuild the graph"
    );

    let lower = |graph: &echo_graph::Graph| {
        ExecPlan::build(
            graph,
            &StashPlan::stash_all(),
            ExecOptions::default(),
            &bindings,
            &params,
            lm.loss,
        )
        .expect("plan lowers")
    };
    let direct = lower(&lm.graph);
    let round_tripped = lower(gir.graph());
    assert_eq!(direct.launch_count(), round_tripped.launch_count());
    assert_eq!(
        direct.forward_launch_count(),
        round_tripped.forward_launch_count()
    );
    assert_eq!(direct.slot_count(), round_tripped.slot_count());
    assert_eq!(
        direct.planned_peak_bytes(),
        round_tripped.planned_peak_bytes()
    );
    assert_eq!(
        direct.planned_step_flops(),
        round_tripped.planned_step_flops()
    );
}

#[test]
fn fusion_shrinks_decoder_forward_launch_table_by_a_quarter() {
    let dec = WordLmDecoder::build(WordLmHyper::tiny(30, LstmBackend::Default));
    let fused = dec.fused_graph().expect("decoder fuses");
    assert_eq!(fused.len(), dec.graph.len(), "fusion preserves node ids");
    let bindings: HashMap<NodeId, Shape> = dec
        .symbolic_bindings(4)
        .iter()
        .map(|(&id, t)| (id, t.shape().clone()))
        .collect();
    let lower = |graph: &echo_graph::Graph| {
        ExecPlan::build_inference(graph, &bindings, &dec.param_shapes(), dec.outputs())
            .expect("plan lowers")
            .forward_launch_count()
    };
    let (unfused_fwd, fused_fwd) = (lower(&dec.graph), lower(&fused));
    assert!(
        fused_fwd * 4 <= unfused_fwd * 3,
        "fusion must cut the forward launch table by >= 25%: {fused_fwd} vs {unfused_fwd}"
    );
}
