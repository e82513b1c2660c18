//! Quickstart: build a small attention model, let the Echo compiler find
//! its O-shape segments, and train one step with and without the plan.
//!
//! ```sh
//! cargo run -p echo --example quickstart
//! ```

use echo::{EchoCompiler, EchoConfig};
use echo_data::{NmtBatch, ParallelCorpus, Vocab};
use echo_graph::{ExecOptions, Executor, StashPlan};
use echo_memory::DeviceMemory;
use echo_models::{NmtHyper, NmtModel};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic translation task and a small seq2seq+attention model.
    let corpus = ParallelCorpus::synthetic(Vocab::new(120), Vocab::new(100), 64, 4..=12, 7);
    let model = NmtModel::build(NmtHyper::tiny(
        corpus.src_vocab().size(),
        corpus.tgt_vocab().size(),
    ));
    let batch = NmtBatch::bucketed(corpus.pairs(), 8).remove(0);

    // 2. Run the Echo compiler: shape inference + O-shape detection.
    let compiled = EchoCompiler::new(EchoConfig::default()).compile(
        &model.graph,
        &model.bindings(&batch),
        &model.param_shapes(),
        &[model.loss, model.logits],
    )?;
    println!("{}", compiled.report);

    // 3. Train one step under each plan and compare.
    let mut results = Vec::new();
    for (name, plan) in [
        ("baseline (stash everything)", StashPlan::stash_all()),
        ("echo (partial forward propagation)", compiled.plan.clone()),
    ] {
        let mut exec = Executor::new(
            Arc::clone(&model.graph),
            plan,
            DeviceMemory::with_capacity(2 << 30),
        );
        model.bind_params(&mut exec, 42)?;
        let stats = exec.train_step(
            &model.bindings(&batch),
            model.loss,
            ExecOptions::default(),
            None,
        )?;
        println!(
            "{name}: loss = {:.6}, peak device memory = {:.2} MiB, replays = {}",
            stats.loss.unwrap(),
            stats.peak_bytes as f64 / (1 << 20) as f64,
            stats.replays,
        );
        results.push((stats.loss.unwrap(), stats.peak_bytes));
    }

    assert_eq!(results[0].0, results[1].0, "loss must be bit-exact");
    println!(
        "\nEcho reduced the footprint by {:.1}% at zero accuracy cost.",
        100.0 * (1.0 - results[1].1 as f64 / results[0].1 as f64)
    );
    Ok(())
}
