//! Figure 12: (a) training-perplexity curves vs. global step for Default,
//! Default^par_rev and EcoRNN at the same batch size — they must overlap
//! exactly; (b) validation-BLEU curves vs. (simulated) wall-clock time —
//! the Echo plan frees enough memory to double the batch, which reaches
//! the target quality faster.
//!
//! This is a *numeric-plane* experiment: the models really train (on a
//! synthetic IWSLT-like corpus, scaled for CPU), while a device simulator
//! rides along to supply the wall-clock axis.

use echo::{EchoCompiler, EchoConfig};
use echo_data::{NmtBatch, ParallelCorpus, Vocab};
use echo_device::{DeviceSim, DeviceSpec};
use echo_graph::{ExecOptions, Executor, StashPlan};
use echo_memory::DeviceMemory;
use echo_models::{NmtHyper, NmtModel, Sgd, TrainLog};
use echo_repro::{print_table, save_json, FRAMEWORK_OP_OVERHEAD_NS};
use echo_rnn::LstmBackend;
use serde_json::json;
use std::sync::Arc;

struct CurveResult {
    label: String,
    loss_by_step: Vec<(u64, f32)>,
    bleu_log: TrainLog,
    peak_bytes: u64,
}

#[allow(clippy::too_many_arguments)]
fn train(
    label: &str,
    corpus: &ParallelCorpus,
    batch_size: usize,
    plan_echo: bool,
    backend: LstmBackend,
    parallel_reverse: bool,
    epochs: usize,
    lr: f32,
) -> CurveResult {
    let mut hyper = NmtHyper::tiny(corpus.src_vocab().size(), corpus.tgt_vocab().size());
    hyper.hidden = 48;
    hyper.embed = 32;
    hyper.src_len = 8;
    hyper.tgt_len = 9;
    hyper.backend = backend;
    hyper.parallel_reverse = parallel_reverse;
    let model = NmtModel::build(hyper);
    let (train, valid) = corpus.split_validation(48);
    let batches = NmtBatch::bucketed(train, batch_size);

    let plan = if plan_echo {
        EchoCompiler::new(EchoConfig::default())
            .compile(
                &model.graph,
                &model.bindings(&batches[0]),
                &model.param_shapes(),
                &[model.loss, model.logits],
            )
            .expect("compile")
            .plan
    } else {
        StashPlan::stash_all()
    };

    let mut exec = Executor::new(
        Arc::clone(&model.graph),
        plan,
        DeviceMemory::with_capacity(4 << 30),
    );
    model.bind_params(&mut exec, 2).expect("bind");
    let mut sim = DeviceSim::new(DeviceSpec::titan_xp());
    sim.set_record_trace(false);
    sim.set_op_overhead_ns(FRAMEWORK_OP_OVERHEAD_NS);
    let mut sgd = Sgd::new(lr).with_clip_norm(5.0);

    let mut loss_by_step = Vec::new();
    let mut bleu_log = TrainLog::new();
    let mut step = 0u64;
    for _epoch in 0..epochs {
        let mut sum = 0.0f32;
        for batch in &batches {
            let stats = exec
                .train_step(
                    &model.bindings(batch),
                    model.loss,
                    ExecOptions::default(),
                    Some(&mut sim),
                )
                .expect("train step");
            sum += stats.loss.unwrap();
            sgd.step(&mut exec);
            step += 1;
        }
        sim.synchronize();
        loss_by_step.push((step, sum / batches.len() as f32));
        let bleu = model
            .validation_bleu(&mut exec, valid, batch_size.min(8))
            .expect("bleu");
        bleu_log.push(step, sim.elapsed_ns() as f64 * 1e-9, bleu);
    }
    CurveResult {
        label: label.to_string(),
        loss_by_step,
        bleu_log,
        peak_bytes: exec.memory_report().peak_bytes,
    }
}

fn main() {
    let corpus = ParallelCorpus::synthetic(Vocab::new(60), Vocab::new(50), 900, 3..=8, 5);

    // The three same-batch configurations must produce identical curves;
    // the doubled batch uses the standard linear learning-rate scaling and
    // runs more epochs (it performs half as many updates per epoch, and
    // each epoch costs far less wall-clock).
    let default = train(
        "Default B=16",
        &corpus,
        16,
        false,
        LstmBackend::Default,
        false,
        30,
        1.0,
    );
    let default_par = train(
        "Default^par B=16",
        &corpus,
        16,
        false,
        LstmBackend::Default,
        true,
        30,
        1.0,
    );
    let eco = train(
        "EcoRNN^par B=16",
        &corpus,
        16,
        true,
        LstmBackend::Default,
        true,
        30,
        1.0,
    );
    let eco_big = train(
        "EcoRNN^par B=32",
        &corpus,
        32,
        true,
        LstmBackend::Default,
        true,
        45,
        1.8,
    );

    // (a) Perplexity curves vs global step must coincide for the first
    // three configurations.
    let rows: Vec<Vec<String>> = default
        .loss_by_step
        .iter()
        .zip(&default_par.loss_by_step)
        .zip(&eco.loss_by_step)
        .enumerate()
        .filter(|(i, _)| i % 5 == 4)
        .map(|(_, ((d, dp), e))| {
            vec![
                d.0.to_string(),
                format!("{:.4}", d.1.exp()),
                format!("{:.4}", dp.1.exp()),
                format!("{:.4}", e.1.exp()),
            ]
        })
        .collect();
    print_table(
        "Figure 12(a): training perplexity vs global step (B=16)",
        &["step", "Default", "Default^par", "EcoRNN^par"],
        &rows,
    );
    let identical = default
        .loss_by_step
        .iter()
        .zip(&eco.loss_by_step)
        .all(|(a, b)| a.1 == b.1);
    println!(
        "curves bitwise identical (Default vs EcoRNN): {identical}\n\
         (Default vs Default^par identical: {} — SequenceReverse variants are\n\
         numerically identical too)",
        default
            .loss_by_step
            .iter()
            .zip(&default_par.loss_by_step)
            .all(|(a, b)| a.1 == b.1)
    );

    // (b) Validation BLEU vs simulated wall-clock.
    let target = default_par.bleu_log.max_value().unwrap_or(0.0) * 0.9;
    let mut rows = Vec::new();
    for r in [&default, &default_par, &eco, &eco_big] {
        let t = r.bleu_log.time_to_reach_above(target);
        rows.push(vec![
            r.label.clone(),
            format!("{:.1}", r.bleu_log.max_value().unwrap_or(0.0)),
            t.map_or("—".to_string(), |t| format!("{t:.1}")),
            format!("{:.1}", r.peak_bytes as f64 / (1 << 20) as f64),
        ]);
    }
    print_table(
        &format!("Figure 12(b): validation BLEU vs simulated wall-clock (target {target:.1})"),
        &["config", "best BLEU", "time-to-target (sim s)", "peak MiB"],
        &rows,
    );
    let t_base = default_par.bleu_log.time_to_reach_above(target);
    let t_big = eco_big.bleu_log.time_to_reach_above(target);
    let time_speedup = match (t_base, t_big) {
        (Some(a), Some(b)) if b > 0.0 => a / b,
        _ => 1.0,
    };
    println!(
        "\nspeedup to target quality from training with the doubled batch: {time_speedup:.2}x\n\
         (paper: 1.5x from batch 128 -> 256)"
    );
    // Convergence bonus: how many fewer samples the large-batch run needs
    // to reach the target quality (speedup beyond raw throughput).
    let samples_to_target = |r: &CurveResult, per_step: usize| {
        r.bleu_log
            .entries()
            .iter()
            .find(|&&(_, _, v)| v >= target)
            .map(|&(step, _, _)| step as f64 * per_step as f64)
    };
    let convergence_bonus = match (
        samples_to_target(&default_par, 16),
        samples_to_target(&eco_big, 32),
    ) {
        (Some(a), Some(b)) if b > 0.0 => a / b,
        _ => 1.0,
    };
    println!("large-batch convergence bonus (samples-to-target ratio): {convergence_bonus:.2}x");
    save_json(
        "fig12",
        &json!({
            "identical_training_curves": identical,
            "convergence_bonus": convergence_bonus,
            "time_to_quality_speedup": time_speedup,
            "configs": [&default.label, &default_par.label, &eco.label, &eco_big.label],
            "bleu_curves": [
                default.bleu_log.entries(), default_par.bleu_log.entries(),
                eco.bleu_log.entries(), eco_big.bleu_log.entries()
            ],
            "peak_bytes": [default.peak_bytes, default_par.peak_bytes, eco.peak_bytes, eco_big.peak_bytes],
        }),
    );
}
