//! Cross-crate integration: the full Echo pipeline from corpus to
//! compiled, trained model — data → graph → compiler pass → executor and
//! its device projection → optimizer → metrics.

use echo::{EchoCompiler, EchoConfig};
use echo_data::{BpttBatches, LmCorpus, NmtBatch, ParallelCorpus, Vocab};
use echo_device::{DeviceSim, DeviceSpec};
use echo_graph::{ExecOptions, Executor, StashPlan};
use echo_memory::DeviceMemory;
use echo_models::{perplexity, NmtHyper, NmtModel, Sgd, WordLm, WordLmHyper};
use echo_rnn::LstmBackend;
use std::sync::Arc;

fn mem() -> DeviceMemory {
    DeviceMemory::with_overhead_model(8 << 30, 0, 0.0)
}

/// The repository's headline invariant: compiling with Echo changes
/// nothing about learning and everything about memory.
#[test]
fn compiled_nmt_trains_bit_exactly_with_smaller_footprint() {
    let corpus = ParallelCorpus::synthetic(Vocab::new(80), Vocab::new(70), 120, 4..=10, 9);
    let model = NmtModel::build(NmtHyper::tiny(80, 70));
    let batches = NmtBatch::bucketed(corpus.pairs(), 8);
    let compiled = EchoCompiler::new(EchoConfig::default())
        .compile(
            &model.graph,
            &model.bindings(&batches[0]),
            &model.param_shapes(),
            &[model.loss, model.logits],
        )
        .expect("compile");
    assert_eq!(
        compiled.report.segments.len(),
        model.hyper.decoder_steps(),
        "one O-shape segment per decoder step"
    );

    let run = |plan: StashPlan| {
        let mut exec = Executor::new(Arc::clone(&model.graph), plan, mem());
        model.bind_params(&mut exec, 31).expect("bind");
        let mut sgd = Sgd::new(0.5).with_clip_norm(5.0);
        let mut losses = Vec::new();
        for _ in 0..2 {
            for batch in batches.iter().take(4) {
                let stats = exec
                    .train_step(
                        &model.bindings(batch),
                        model.loss,
                        ExecOptions::default(),
                        None,
                    )
                    .expect("step");
                losses.push(stats.loss.unwrap());
                sgd.step(&mut exec);
            }
        }
        (losses, exec.memory_report().peak_bytes)
    };

    let (loss_base, peak_base) = run(StashPlan::stash_all());
    let (loss_echo, peak_echo) = run(compiled.plan.clone());
    assert_eq!(
        loss_base, loss_echo,
        "multi-step training must be bit-exact"
    );
    assert!(
        (peak_echo as f64) < peak_base as f64 * 0.9,
        "echo peak {peak_echo} vs baseline {peak_base}"
    );
}

/// The LM path: every backend trains, learns, and agrees numerically.
#[test]
fn word_lm_learns_on_every_backend() {
    let vocab = Vocab::new(40);
    let corpus = LmCorpus::synthetic(vocab, 4000, 0.95, 17);
    for backend in LstmBackend::ALL {
        let lm = WordLm::build(WordLmHyper::tiny(vocab.size(), backend));
        let mut exec = Executor::new(Arc::clone(&lm.graph), StashPlan::stash_all(), mem());
        lm.bind_params(&mut exec, 3).expect("bind");
        let mut sgd = Sgd::new(0.5).with_clip_norm(5.0);
        let mut first = None;
        let mut last = 0.0;
        for _epoch in 0..2 {
            let batches = BpttBatches::new(corpus.tokens(), 8, lm.hyper.seq_len);
            for batch in batches {
                let stats = exec
                    .train_step(&lm.bindings(&batch), lm.loss, ExecOptions::default(), None)
                    .expect("step");
                last = stats.loss.unwrap();
                first.get_or_insert(last);
                sgd.step(&mut exec);
            }
        }
        assert!(
            perplexity(last) < perplexity(first.unwrap()),
            "{backend}: perplexity must fall"
        );
    }
}

/// The pass is a no-op where there is nothing O-shaped: a pure LSTM LM
/// has no recomputation opportunity that passes the ratio test.
#[test]
fn echo_pass_leaves_pure_lstm_alone() {
    let lm = WordLm::build(WordLmHyper::tiny(60, LstmBackend::CuDnn));
    let compiled = EchoCompiler::new(EchoConfig::default())
        .compile(
            &lm.graph,
            &lm.symbolic_bindings(8),
            &lm.param_shapes(),
            &[lm.loss, lm.logits],
        )
        .expect("compile");
    assert_eq!(
        compiled.plan.recompute_count(),
        0,
        "no O-shape segments in an LM: {:?}",
        compiled.report.segments
    );
}

/// `(trace digest, elapsed ns, replays, peak bytes)` of one training step
/// of fig12's NMT model (B = 16) on a simulated Titan Xp, per
/// (backend variant, stash plan). Frozen at the last commit that drove
/// the simulator by walking the interpreter without values; a numeric step
/// with the device attached and a shape-only projection must both
/// reproduce them.
#[rustfmt::skip]
const WALKED_NMT_STEPS: [(&str, &str, u64, u64, u64, u64); 8] = [
    ("default", "stash-all", 0x052b_f176_3480_600b, 4_488_068, 0, 2_654_872),
    ("default", "echo", 0x5d10_6f11_e2f3_181f, 4_555_568, 9, 1_838_352),
    ("default-par", "stash-all", 0x8828_bb6f_4e28_f13c, 4_464_149, 0, 2_654_872),
    ("default-par", "echo", 0xd038_5615_db2d_c8f3, 4_531_649, 9, 1_838_352),
    ("ecornn-par", "stash-all", 0xfa30_c05b_b9a9_3956, 2_431_649, 0, 2_140_824),
    ("ecornn-par", "echo", 0xbe2b_b2d8_c5f5_b2f5, 2_499_149, 9, 1_324_304),
    ("cudnn", "stash-all", 0x7d0d_b7fd_4323_def1, 2_453_068, 0, 3_123_864),
    ("cudnn", "echo", 0xa7d6_a083_7e51_fb28, 2_520_568, 9, 2_307_344),
];

/// One NMT training step with a simulated device attached — numerically
/// (`numeric`) or as a projection over shape-bound parameters — as
/// `(trace digest, elapsed ns, replays, peak bytes)`.
fn nmt_device_step(
    model: &NmtModel,
    plan: &StashPlan,
    bindings: &std::collections::HashMap<echo_graph::NodeId, echo_tensor::Tensor>,
    numeric: bool,
) -> (u64, u64, u64, u64) {
    let mut exec = Executor::new(Arc::clone(&model.graph), plan.clone(), mem());
    let mut sim = DeviceSim::new(DeviceSpec::titan_xp());
    sim.set_op_overhead_ns(5_000);
    let stats = if numeric {
        model.bind_params(&mut exec, 2).expect("bind");
        exec.train_step(bindings, model.loss, ExecOptions::default(), Some(&mut sim))
    } else {
        model.bind_param_shapes(&mut exec).expect("bind");
        exec.project(bindings, &[model.loss], Some(model.loss), Some(&mut sim))
    }
    .expect("step");
    (
        sim.trace_digest(),
        sim.elapsed_ns(),
        stats.replays,
        stats.peak_bytes,
    )
}

/// A projection over shape-bound parameters and a numeric step agree on
/// the memory story, and on fig12's configurations both reproduce the
/// device traces the value-free interpreter walk produced.
#[test]
fn planes_agree_on_peak_memory() {
    let model = NmtModel::build(NmtHyper::tiny(80, 70));
    let corpus = ParallelCorpus::synthetic(Vocab::new(80), Vocab::new(70), 16, 4..=10, 9);
    let batch = NmtBatch::bucketed(corpus.pairs(), 8).remove(0);
    let bindings = model.bindings(&batch);
    let peak = |numeric: bool| {
        let mut exec = Executor::new(Arc::clone(&model.graph), StashPlan::stash_all(), mem());
        if numeric {
            model.bind_params(&mut exec, 1).expect("bind");
            exec.train_step(&bindings, model.loss, ExecOptions::default(), None)
        } else {
            model.bind_param_shapes(&mut exec).expect("bind");
            exec.project(&bindings, &[model.loss], Some(model.loss), None)
        }
        .expect("step");
        exec.memory_report().peak_bytes
    };
    assert_eq!(peak(true), peak(false));

    let corpus = ParallelCorpus::synthetic(Vocab::new(60), Vocab::new(50), 64, 3..=8, 5);
    let batch = NmtBatch::bucketed(corpus.pairs(), 16).remove(0);
    let variants = [
        ("default", LstmBackend::Default, false),
        ("default-par", LstmBackend::Default, true),
        ("ecornn-par", LstmBackend::EcoRnn, true),
        ("cudnn", LstmBackend::CuDnn, false),
    ];
    for (variant, backend, parallel_reverse) in variants {
        let mut hyper = NmtHyper::tiny(60, 50);
        hyper.hidden = 48;
        hyper.embed = 32;
        hyper.src_len = 8;
        hyper.tgt_len = 9;
        hyper.backend = backend;
        hyper.parallel_reverse = parallel_reverse;
        let model = NmtModel::build(hyper);
        let bindings = model.bindings(&batch);
        let echo = EchoCompiler::new(EchoConfig::default())
            .compile(
                &model.graph,
                &bindings,
                &model.param_shapes(),
                &[model.loss, model.logits],
            )
            .expect("compile")
            .plan;
        for (plan_name, plan) in [("stash-all", StashPlan::stash_all()), ("echo", echo)] {
            let &(_, _, digest, elapsed, replays, peak) = WALKED_NMT_STEPS
                .iter()
                .find(|row| row.0 == variant && row.1 == plan_name)
                .expect("every configuration has a golden row");
            for numeric in [true, false] {
                assert_eq!(
                    nmt_device_step(&model, &plan, &bindings, numeric),
                    (digest, elapsed, replays, peak),
                    "{variant}/{plan_name} (numeric: {numeric})"
                );
            }
        }
    }
}

/// Inference keeps no feature maps at all: its footprint is far below
/// training's, whatever the plan (the paper's optimizations also apply to
/// inference, §4.2).
#[test]
fn inference_footprint_is_far_below_training() {
    let corpus = ParallelCorpus::synthetic(Vocab::new(80), Vocab::new(70), 16, 4..=10, 9);
    let model = NmtModel::build(NmtHyper::tiny(80, 70));
    let batch = NmtBatch::bucketed(corpus.pairs(), 8).remove(0);
    let bindings = model.bindings(&batch);

    let peak = |training: bool| {
        let mut exec = Executor::new(Arc::clone(&model.graph), StashPlan::stash_all(), mem());
        model.bind_params(&mut exec, 4).expect("bind");
        if training {
            exec.train_step(&bindings, model.loss, ExecOptions::default(), None)
                .expect("step");
        } else {
            exec.forward(
                &bindings,
                model.logits,
                ExecOptions { training: false },
                None,
            )
            .expect("forward");
        }
        exec.memory_report().peak_bytes
    };
    let train_peak = peak(true);
    let infer_peak = peak(false);
    assert!(
        (infer_peak as f64) < train_peak as f64 * 0.6,
        "inference {infer_peak} vs training {train_peak}"
    );
}
