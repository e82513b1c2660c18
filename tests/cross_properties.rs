//! Cross-crate property tests: the Echo pipeline's safety invariants hold
//! for randomized model shapes, not just the hand-picked configurations.

use echo::{EchoCompiler, EchoConfig};
use echo_data::{NmtBatch, ParallelCorpus, Vocab};
use echo_graph::{ExecOptions, Executor, StashPlan};
use echo_memory::DeviceMemory;
use echo_models::{NmtHyper, NmtModel};
use proptest::prelude::*;
use std::sync::Arc;

fn mem() -> DeviceMemory {
    DeviceMemory::with_overhead_model(8 << 30, 0, 0.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any (small) model shape: the compiled plan trains bit-exactly
    /// and never enlarges the footprint.
    #[test]
    fn echo_is_always_safe(
        hidden in 8usize..40,
        tgt_len in 3usize..10,
        src_len in 4usize..12,
        batch in 2usize..6,
        seed in 0u64..500,
    ) {
        let mut hyper = NmtHyper::tiny(60, 50);
        hyper.hidden = hidden;
        hyper.embed = (hidden / 2).max(4);
        hyper.src_len = src_len;
        hyper.tgt_len = tgt_len;
        hyper.attention_layer_norm = seed % 2 == 0;
        let model = NmtModel::build(hyper);
        let corpus = ParallelCorpus::synthetic(
            Vocab::new(60),
            Vocab::new(50),
            batch * 2,
            3..=src_len.min(8),
            seed,
        );
        let batch_data = NmtBatch::bucketed(corpus.pairs(), batch).remove(0);
        let bindings = model.bindings(&batch_data);

        let compiled = EchoCompiler::new(EchoConfig::default())
            .compile(&model.graph, &bindings, &model.param_shapes(), &[model.loss, model.logits])
            .expect("compile");

        let run = |plan: StashPlan| {
            let mut exec = Executor::new(Arc::clone(&model.graph), plan, mem());
            model.bind_params(&mut exec, seed).expect("bind");
            let stats = exec
                .train_step(&bindings, model.loss, ExecOptions::default(), None)
                .expect("step");
            let mut param_ids: Vec<_> = model.param_shapes().keys().copied().collect();
            param_ids.sort();
            let grads: Vec<Vec<f32>> = param_ids
                .iter()
                .map(|&p| exec.grad(p).expect("grad").data().to_vec())
                .collect();
            (stats.loss.unwrap(), grads, exec.memory_report().peak_bytes)
        };
        let (loss_a, grads_a, peak_a) = run(StashPlan::stash_all());
        let (loss_b, grads_b, peak_b) = run(compiled.plan.clone());

        prop_assert_eq!(loss_a, loss_b);
        prop_assert_eq!(grads_a, grads_b);
        prop_assert!(peak_b <= peak_a, "echo peak {} > baseline {}", peak_b, peak_a);
        // With more than one decoder step something should be recomputed.
        if compiled.plan.recompute_count() > 0 {
            prop_assert!(peak_b < peak_a);
        }
    }

    /// A projection over shape-bound parameters reproduces a numeric
    /// step's peak memory for arbitrary shapes and plans.
    #[test]
    fn planes_always_agree_on_memory(
        hidden in 8usize..32,
        tgt_len in 3usize..8,
        echo in any::<bool>(),
        seed in 0u64..200,
    ) {
        let mut hyper = NmtHyper::tiny(60, 50);
        hyper.hidden = hidden;
        hyper.embed = 8;
        hyper.src_len = 6;
        hyper.tgt_len = tgt_len;
        let model = NmtModel::build(hyper);
        let corpus = ParallelCorpus::synthetic(Vocab::new(60), Vocab::new(50), 8, 3..=6, seed);
        let batch_data = NmtBatch::bucketed(corpus.pairs(), 4).remove(0);
        let bindings = model.bindings(&batch_data);
        let plan = if echo {
            EchoCompiler::new(EchoConfig::default())
                .compile(&model.graph, &bindings, &model.param_shapes(), &[model.loss, model.logits])
                .expect("compile")
                .plan
        } else {
            StashPlan::stash_all()
        };
        let peak = |numeric: bool| {
            let mut exec = Executor::new(Arc::clone(&model.graph), plan.clone(), mem());
            if numeric {
                model.bind_params(&mut exec, seed).expect("bind");
                exec.train_step(&bindings, model.loss, ExecOptions::default(), None)
            } else {
                model.bind_param_shapes(&mut exec).expect("bind");
                exec.project(&bindings, &[model.loss], Some(model.loss), None)
            }
            .expect("step");
            exec.memory_report().peak_bytes
        };
        prop_assert_eq!(peak(true), peak(false));
    }
}

/// Chen-style plans exercise *recursive* segment replay (a dropped node's
/// boundary input may itself be dropped in another segment); the executor
/// must stay bit-exact there too, for arbitrary strides.
#[test]
fn chen_plans_are_bit_exact_for_any_stride() {
    let corpus = ParallelCorpus::synthetic(Vocab::new(70), Vocab::new(60), 16, 4..=8, 77);
    let model = NmtModel::build(NmtHyper::tiny(70, 60));
    let batch = NmtBatch::bucketed(corpus.pairs(), 8).remove(0);
    let bindings = model.bindings(&batch);
    let shapes =
        echo::analysis::infer_shapes(&model.graph, &bindings, &model.param_shapes()).unwrap();

    let run = |plan: StashPlan| {
        let mut exec = Executor::new(Arc::clone(&model.graph), plan, mem());
        model.bind_params(&mut exec, 13).unwrap();
        let stats = exec
            .train_step(&bindings, model.loss, ExecOptions::default(), None)
            .unwrap();
        (stats.loss.unwrap(), exec.memory_report().peak_bytes)
    };
    let (base_loss, base_peak) = run(StashPlan::stash_all());
    for stride in [3usize, 7, 20, 60] {
        let (plan, _) =
            echo::chen_sqrt_plan(&model.graph, &shapes, &[model.loss, model.logits], stride);
        let (loss, peak) = run(plan);
        assert_eq!(base_loss, loss, "stride {stride}");
        assert!(peak <= base_peak, "stride {stride}: {peak} > {base_peak}");
    }
}
