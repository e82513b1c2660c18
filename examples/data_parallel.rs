//! Data-parallel training across model replicas (paper §6.6, Figure 17):
//! `PipelineTrainer` over a one-stage partition, so each worker thread
//! owns a full copy of the graph and a simulated GPU, gradients are folded
//! over one binary tree every step, and the result is bit-exact equal to
//! serial training at any replica count.
//!
//! ```sh
//! cargo run -p echo --example data_parallel --release
//! ```

use echo_data::{BpttBatches, LmBatch, LmCorpus, Vocab};
use echo_device::{CommModel, DeviceSpec, ScalingReport};
use echo_graph::{Executor, StagePartition, StashPlan};
use echo_memory::DeviceMemory;
use echo_models::{MicrobatchTrainer, PipelineOptions, PipelineTrainer, Sgd, WordLm, WordLmHyper};
use echo_rnn::LstmBackend;
use std::sync::Arc;
use std::time::Instant;

const LANES: usize = 32;
const MICRO: usize = 8;
const STEPS: usize = 6;
const SEED: u64 = 13;

fn template(lm: &WordLm) -> Executor {
    let mut exec = Executor::new(
        Arc::clone(&lm.graph),
        StashPlan::stash_all(),
        DeviceMemory::with_overhead_model(4 << 30, 0, 0.0),
    );
    lm.bind_params(&mut exec, SEED).expect("bind");
    exec
}

fn batches(lm: &WordLm) -> Vec<LmBatch> {
    let corpus = LmCorpus::synthetic(Vocab::new(80), 24_000, 0.9, 5);
    BpttBatches::new(corpus.tokens(), LANES, lm.hyper.seq_len)
        .take(STEPS)
        .collect()
}

fn optimizer() -> Sgd {
    Sgd::new(0.5).with_momentum(0.9).with_clip_norm(5.0)
}

/// `replicas` workers, each running the whole graph (one stage).
fn replicated(
    lm: &WordLm,
    partition: &StagePartition,
    options: PipelineOptions,
) -> PipelineTrainer<LmBatch> {
    PipelineTrainer::for_word_lm(
        lm,
        template(lm),
        partition,
        &StashPlan::stash_all(),
        LANES,
        &options,
        Box::new(optimizer()),
    )
    .expect("parallel trainer")
}

fn main() {
    let lm = WordLm::build(WordLmHyper::tiny(80, LstmBackend::CuDnn));
    let batches = batches(&lm);
    let partition = lm.partition(LANES / MICRO, 1).expect("partition");
    let grad_bytes: u64 = template(&lm)
        .export_params()
        .iter()
        .map(|(_, t)| t.len() as u64 * 4)
        .sum();
    println!(
        "word-LM data parallelism: {LANES} lanes, {MICRO} micro-batches, \
         {STEPS} steps, {:.2} MiB of gradients per all-reduce\n",
        grad_bytes as f64 / (1 << 20) as f64
    );

    // --- Host wall-clock: serial reference vs. the worker fleet. -------
    let mut serial = MicrobatchTrainer::for_word_lm(
        &lm,
        template(&lm),
        LANES,
        MICRO,
        Box::new(optimizer()),
        None,
    )
    .expect("serial trainer");
    let start = Instant::now();
    let mut serial_losses = Vec::new();
    for batch in &batches {
        serial_losses.push(serial.step(batch).expect("step").loss);
    }
    let serial_wall = start.elapsed();
    println!(
        "serial   {STEPS} steps in {:>8.2?}  (loss {:.4} -> {:.4})",
        serial_wall,
        serial_losses[0],
        serial_losses[serial_losses.len() - 1]
    );

    for replicas in [1usize, 2, 4] {
        let mut trainer = replicated(&lm, &partition, PipelineOptions::new(replicas, MICRO));
        let start = Instant::now();
        let mut losses = Vec::new();
        for batch in &batches {
            losses.push(trainer.train_step(batch).expect("step").loss);
        }
        let wall = start.elapsed();
        let exact = losses
            .iter()
            .zip(&serial_losses)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        println!(
            "K={replicas}      {STEPS} steps in {:>8.2?}  speedup {:>5.2}x  \
             bit-exact vs serial: {}",
            wall,
            serial_wall.as_secs_f64() / wall.as_secs_f64(),
            if exact { "yes" } else { "NO" }
        );
        assert!(exact, "parallel losses diverged from serial");
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\nhost parallelism: {cores} core(s) available — wall-clock speedup \
         is bounded by hardware ({}), the simulated scaling below is not.\n",
        if cores >= 4 {
            "expect ~4x at K=4".to_string()
        } else {
            format!("K=4 cannot beat {cores} core(s); run on a wider machine")
        }
    );

    // --- Simulated scaling: per-replica device clocks + interconnect. --
    // One simulated Titan Xp per replica; the all-reduce term comes from
    // the analytic PCIe model, matching the paper's single-machine
    // testbed.
    let sim_spec = DeviceSpec::titan_xp();
    let mut serial_sim = MicrobatchTrainer::for_word_lm(
        &lm,
        template(&lm),
        LANES,
        MICRO,
        Box::new(optimizer()),
        Some(sim_spec.clone()),
    )
    .expect("serial trainer");
    let mut serial_step_ns = 0;
    for batch in &batches {
        serial_step_ns += serial_sim.step(batch).expect("step").stages[0].sim_ns;
    }
    serial_step_ns /= STEPS as u64;

    let mut report = ScalingReport::new(serial_step_ns, grad_bytes, CommModel::pcie_gen3());
    for replicas in [1usize, 2, 4] {
        let options = PipelineOptions::new(replicas, MICRO).with_sim(sim_spec.clone());
        let mut trainer = replicated(&lm, &partition, options);
        let mut per_replica = vec![0u64; replicas];
        for batch in &batches {
            for stat in trainer.train_step(batch).expect("step").stages {
                per_replica[stat.replica] += stat.sim_ns;
            }
        }
        for ns in &mut per_replica {
            *ns /= STEPS as u64;
        }
        report.push_measurement(&per_replica);
    }
    println!("simulated scaling (per-replica Titan Xp clocks, PCIe tree all-reduce):");
    println!("{report}");
}
