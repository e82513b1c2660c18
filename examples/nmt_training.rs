//! End-to-end NMT training (paper §6.2 / Figure 12 in miniature): train a
//! seq2seq+attention model on a synthetic parallel corpus twice — with the
//! framework-default stash-everything plan and with the Echo compiler's
//! recomputation plan — and show identical learning at a fraction of the
//! memory.
//!
//! ```sh
//! cargo run -p echo --example nmt_training --release
//! ```

use echo::{EchoCompiler, EchoConfig};
use echo_data::{NmtBatch, ParallelCorpus, Vocab};
use echo_graph::{ExecOptions, Executor, StashPlan};
use echo_memory::DeviceMemory;
use echo_models::{NmtHyper, NmtModel, Sgd};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus = ParallelCorpus::synthetic(Vocab::new(60), Vocab::new(50), 600, 3..=8, 5);
    let mut hyper = NmtHyper::tiny(corpus.src_vocab().size(), corpus.tgt_vocab().size());
    hyper.hidden = 48;
    hyper.embed = 32;
    hyper.src_len = 8;
    hyper.tgt_len = 9;
    let model = NmtModel::build(hyper);
    let (train, valid) = corpus.split_validation(32);
    let batches = NmtBatch::bucketed(train, 8);

    let compiled = EchoCompiler::new(EchoConfig::default()).compile(
        &model.graph,
        &model.bindings(&batches[0]),
        &model.param_shapes(),
        &[model.loss, model.logits],
    )?;
    println!(
        "echo pass found {} recomputation segments (one per decoder step)\n",
        compiled.report.segments.len()
    );

    for (name, plan) in [
        ("baseline", StashPlan::stash_all()),
        ("echo    ", compiled.plan.clone()),
    ] {
        let mut exec = Executor::new(
            Arc::clone(&model.graph),
            plan,
            DeviceMemory::with_capacity(2 << 30),
        );
        model.bind_params(&mut exec, 2)?;
        let mut sgd = Sgd::new(1.0).with_clip_norm(5.0);
        let mut loss = 0.0;
        for epoch in 0..20 {
            let mut total = 0.0;
            for batch in &batches {
                let stats = exec.train_step(
                    &model.bindings(batch),
                    model.loss,
                    ExecOptions::default(),
                    None,
                )?;
                total += stats.loss.unwrap();
                sgd.step(&mut exec);
            }
            loss = total / batches.len() as f32;
            if epoch % 5 == 4 {
                let bleu = model.validation_bleu(&mut exec, valid, 8)?;
                println!(
                    "{name} epoch {epoch:>2}: loss {loss:.3}  valid BLEU {bleu:5.1}  peak mem {:.1} MiB",
                    exec.memory_report().peak_bytes as f64 / (1 << 20) as f64
                );
            }
        }
        let _ = loss;
        println!();
    }
    println!("identical curves, smaller footprint: that is the paper's claim.");
    Ok(())
}
