//! Forward-only fusion of the decode graph: same bits, fewer launches, and
//! no training.
//!
//! `WordLmDecoder::fused_graph` is the graph the serving engine runs. For
//! the serving benchmark's 8-layer hidden-4 toy and the tiny word LM,
//! chained `infer_step`s over it must reproduce the unfused graph's logit
//! and state bits at every batch size. A training step over a fused graph
//! must fail with a typed error.

use echo_graph::gir::fuse_forward;
use echo_graph::{ExecOptions, ExecPlan, Executor, Gir, Graph, GraphError, NodeId, StashPlan};
use echo_memory::DeviceMemory;
use echo_models::{LmState, WordLm, WordLmDecoder, WordLmHyper};
use echo_rnn::LstmBackend;
use echo_tensor::Shape;
use std::collections::HashMap;
use std::sync::Arc;

const SEED: u64 = 17;
const STEPS: usize = 6;

fn toy() -> WordLmHyper {
    WordLmHyper {
        vocab: 50,
        embed: 4,
        hidden: 4,
        layers: 8,
        seq_len: 1,
        backend: LstmBackend::Default,
    }
}

fn executor(dec: &WordLmDecoder, graph: Arc<Graph>) -> Executor {
    let mut exec = Executor::new(
        graph,
        StashPlan::stash_all(),
        DeviceMemory::with_overhead_model(1 << 30, 0, 0.0),
    );
    dec.bind_params(&mut exec, SEED).unwrap();
    exec
}

fn state_bits(states: &[LmState]) -> Vec<u32> {
    states
        .iter()
        .flat_map(|s| s.h.iter().chain(&s.c).flatten())
        .map(|v| v.to_bits())
        .collect()
}

fn logit_bits(logits: &[Vec<f32>]) -> Vec<u32> {
    logits.iter().flatten().map(|v| v.to_bits()).collect()
}

fn forward_launches(dec: &WordLmDecoder, graph: &Graph) -> usize {
    let bindings: HashMap<NodeId, Shape> = dec
        .symbolic_bindings(1)
        .iter()
        .map(|(&id, t)| (id, t.shape().clone()))
        .collect();
    ExecPlan::build_inference(graph, &bindings, &dec.param_shapes(), dec.outputs())
        .unwrap()
        .forward_launch_count()
}

#[test]
fn fused_decode_is_bit_identical_with_fewer_launches() {
    for (name, hyper) in [
        ("toy", toy()),
        ("tiny", WordLmHyper::tiny(31, LstmBackend::Default)),
    ] {
        let dec = WordLmDecoder::build(hyper);
        let fused = dec.fused_graph().unwrap();
        let (unfused_fwd, fused_fwd) = (
            forward_launches(&dec, &dec.graph),
            forward_launches(&dec, &fused),
        );
        assert!(
            fused_fwd < unfused_fwd,
            "{name}: {fused_fwd} fused vs {unfused_fwd} unfused launches"
        );
        if name == "toy" {
            assert!(
                fused_fwd <= 60,
                "toy: {fused_fwd} fused launches ({unfused_fwd} unfused)"
            );
        }

        for batch in [1usize, 3, 8] {
            let mut plain = executor(&dec, Arc::clone(&dec.graph));
            let mut fast = executor(&dec, Arc::clone(&fused));
            let mut states = vec![LmState::zero(hyper.layers, hyper.hidden); batch];
            for step in 0..STEPS {
                let tokens: Vec<u32> = (0..batch)
                    .map(|lane| ((lane * 7 + step * 3 + 1) % hyper.vocab) as u32)
                    .collect();
                let (want_logits, want_states) =
                    dec.infer_step(&mut plain, &tokens, &states).unwrap();
                let (got_logits, got_states) = dec.infer_step(&mut fast, &tokens, &states).unwrap();
                let ctx = format!("{name} B={batch} step {step}");
                assert_eq!(
                    logit_bits(&got_logits),
                    logit_bits(&want_logits),
                    "{ctx}: logits"
                );
                assert_eq!(
                    state_bits(&got_states),
                    state_bits(&want_states),
                    "{ctx}: states"
                );
                states = want_states;
            }
        }
    }
}

#[test]
fn training_a_fused_graph_is_a_typed_error() {
    let lm = WordLm::build(WordLmHyper::tiny(31, LstmBackend::Default));
    let batch = 2;
    let bindings = lm.symbolic_bindings(batch);
    let binding_shapes: HashMap<NodeId, Shape> = bindings
        .iter()
        .map(|(&id, t)| (id, t.shape().clone()))
        .collect();
    let mut gir = Gir::from_graph(
        Arc::clone(&lm.graph),
        &binding_shapes,
        &lm.param_shapes(),
        &[lm.loss],
    )
    .unwrap();
    assert!(fuse_forward(&mut gir).unwrap() > 0, "the word LM fuses");
    let mut exec = Executor::new(
        Arc::clone(gir.graph()),
        StashPlan::stash_all(),
        DeviceMemory::with_overhead_model(1 << 30, 0, 0.0),
    );
    lm.bind_params(&mut exec, SEED).unwrap();
    let err = exec
        .train_step(&bindings, lm.loss, ExecOptions::default(), None)
        .unwrap_err();
    assert!(
        matches!(&err, GraphError::Operator { message, .. } if message.contains("forward-only")),
        "{err}"
    );
}
