//! Word-level language modeling (paper §2.1/§6.3): train a small LSTM LM
//! on a synthetic PTB-like corpus, watch perplexity fall, and compare the
//! three LSTM backends' simulated training throughput.
//!
//! ```sh
//! cargo run -p echo --example language_modeling --release
//! ```

use echo_data::{BpttBatches, LmCorpus, Vocab};
use echo_device::{DeviceSim, DeviceSpec};
use echo_graph::{ExecOptions, Executor, StashPlan};
use echo_memory::DeviceMemory;
use echo_models::{perplexity, Sgd, Speedometer, WordLm, WordLmHyper};
use echo_rnn::LstmBackend;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Part 1: real training on the CPU (numeric plane). ---
    let vocab = Vocab::new(80);
    let corpus = LmCorpus::synthetic(vocab, 20_000, 0.9, 11);
    let lm = WordLm::build(WordLmHyper::tiny(vocab.size(), LstmBackend::EcoRnn));
    let mem = DeviceMemory::with_capacity(2 << 30);
    let mut exec = Executor::new(Arc::clone(&lm.graph), StashPlan::stash_all(), mem);
    lm.bind_params(&mut exec, 1)?;
    let mut sgd = Sgd::new(0.7).with_clip_norm(5.0);
    println!(
        "training a {}-word LM ({} tokens)...",
        vocab.size(),
        corpus.tokens().len()
    );
    for epoch in 0..5 {
        let mut total = 0.0f64;
        let mut n = 0u32;
        let batches = BpttBatches::new(corpus.tokens(), 16, lm.hyper.seq_len);
        for batch in batches {
            let stats =
                exec.train_step(&lm.bindings(&batch), lm.loss, ExecOptions::default(), None)?;
            total += f64::from(stats.loss.unwrap());
            n += 1;
            sgd.step(&mut exec);
        }
        println!(
            "  epoch {epoch}: perplexity {:.1}",
            perplexity((total / f64::from(n)) as f32)
        );
    }

    // --- Part 2: backend throughput on the simulated Titan Xp. ---
    println!("\nsimulated training throughput (PTB-scale, H=650, B=32):");
    for backend in LstmBackend::ALL {
        let big = WordLm::build(WordLmHyper::mxnet_example(10_000, 650, backend));
        let mem = DeviceMemory::titan_xp();
        let mut exec = Executor::new(Arc::clone(&big.graph), StashPlan::stash_all(), mem);
        big.bind_param_shapes(&mut exec)?;
        let mut sim = DeviceSim::new(DeviceSpec::titan_xp());
        sim.set_record_trace(false);
        let mut meter = Speedometer::new();
        exec.project(
            &big.symbolic_bindings(32),
            &[big.loss],
            Some(big.loss),
            Some(&mut sim),
        )?;
        sim.synchronize();
        meter.record(32, sim.elapsed_ns());
        println!(
            "  {backend:<8} {:>8.0} samples/s",
            meter.samples_per_second()
        );
    }
    Ok(())
}
