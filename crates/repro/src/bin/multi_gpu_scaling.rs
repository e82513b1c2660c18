//! Multi-GPU scaling (paper §6.6, Figure 17 setting): the trainer runs a
//! one-stage partition replicated K ways, one simulated Titan Xp per
//! replica; per-replica device
//! clocks plus an analytic PCIe all-reduce model project the step time
//! at 1, 2 and 4 GPUs — with the memory plan both untouched (stash-all,
//! the Echo pass's own output for a pure-LSTM LM) and replay-heavy
//! (Chen √N), showing that recomputation composes with data parallelism
//! without breaking bit-exactness.

use echo::{analysis::infer_shapes, chen_sqrt_plan, sqrt_stride, EchoCompiler, EchoConfig};
use echo_data::{BpttBatches, LmBatch, LmCorpus, Vocab};
use echo_device::{CommModel, DeviceSpec, ScalingReport};
use echo_graph::{Executor, StashPlan};
use echo_memory::DeviceMemory;
use echo_models::{PipelineOptions, PipelineTrainer, Sgd, WordLm, WordLmHyper};
use echo_repro::{print_table, save_json};
use echo_rnn::LstmBackend;
use serde_json::json;
use std::sync::Arc;

const LANES: usize = 16;
const MICRO: usize = 4;
const STEPS: usize = 4;

fn template(lm: &WordLm, plan: &StashPlan) -> Executor {
    let mut exec = Executor::new(
        Arc::clone(&lm.graph),
        plan.clone(),
        DeviceMemory::with_overhead_model(4 << 30, 0, 0.0),
    );
    lm.bind_params(&mut exec, 23).expect("bind");
    exec
}

fn batches(lm: &WordLm) -> Vec<LmBatch> {
    let corpus = LmCorpus::synthetic(Vocab::new(60), 12_000, 0.9, 3);
    BpttBatches::new(corpus.tokens(), LANES, lm.hyper.seq_len)
        .take(STEPS)
        .collect()
}

fn main() {
    let lm = WordLm::build(WordLmHyper::tiny(60, LstmBackend::CuDnn));
    let batches = batches(&lm);
    let grad_bytes: u64 = template(&lm, &StashPlan::stash_all())
        .export_params()
        .iter()
        .map(|(_, t)| t.len() as u64 * 4)
        .sum();

    let echo_plan = EchoCompiler::new(EchoConfig::default())
        .compile(
            &lm.graph,
            &lm.symbolic_bindings(LANES / MICRO),
            &lm.param_shapes(),
            &[lm.loss, lm.logits],
        )
        .expect("compile")
        .plan;
    // One stage: every replica runs the whole graph.
    let partition = lm.partition(LANES / MICRO, 1).expect("partition");
    let shapes = infer_shapes(
        &lm.graph,
        &lm.symbolic_bindings(LANES / MICRO),
        &lm.param_shapes(),
    )
    .expect("shapes");
    let (chen_plan, _) = chen_sqrt_plan(
        &lm.graph,
        &shapes,
        &[lm.loss, lm.logits],
        sqrt_stride(&lm.graph),
    );

    let mut out = Vec::new();
    for (name, plan) in [
        ("Echo pass (no-op on pure LSTM)", echo_plan),
        ("Chen sqrt(N) recompute", chen_plan),
    ] {
        // Serial baseline and the fleet share the plan; every
        // configuration trains bit-identically, so only time differs.
        let mut measurements: Vec<Vec<u64>> = Vec::new();
        let mut final_loss = 0.0f32;
        let mut peak_bytes = 0u64;
        for replicas in [1usize, 2, 4] {
            let mut trainer = PipelineTrainer::for_word_lm(
                &lm,
                template(&lm, &plan),
                &partition,
                &plan,
                LANES,
                &PipelineOptions::new(replicas, MICRO).with_sim(DeviceSpec::titan_xp()),
                Box::new(Sgd::new(0.5).with_clip_norm(5.0)),
            )
            .expect("trainer");
            let mut per_replica = vec![0u64; replicas];
            for batch in &batches {
                let report = trainer.train_step(batch).expect("step");
                final_loss = report.loss;
                for stat in report.stages {
                    per_replica[stat.replica] += stat.sim_ns;
                    peak_bytes = peak_bytes.max(stat.peak_bytes);
                }
            }
            for ns in &mut per_replica {
                *ns /= STEPS as u64;
            }
            measurements.push(per_replica);
        }

        let serial_ns = measurements[0][0];
        let mut report = ScalingReport::new(serial_ns, grad_bytes, CommModel::pcie_gen3());
        for m in &measurements {
            report.push_measurement(m);
        }
        let rows: Vec<Vec<String>> = report
            .points
            .iter()
            .map(|p| {
                vec![
                    p.replicas.to_string(),
                    format!("{:.3}", p.compute_ns as f64 * 1e-6),
                    format!("{:.3}", p.comm_ns as f64 * 1e-6),
                    format!("{:.3}", p.step_ns as f64 * 1e-6),
                    format!("{:.2}x", p.speedup),
                    format!("{:.0}%", p.efficiency * 100.0),
                ]
            })
            .collect();
        print_table(
            &format!("{name}: simulated data-parallel scaling (word LM, B={LANES})"),
            &[
                "gpus",
                "compute ms",
                "comm ms",
                "step ms",
                "speedup",
                "efficiency",
            ],
            &rows,
        );
        println!(
            "  final loss {final_loss:.4} (identical at every replica count), \
             per-replica peak {:.1} MiB\n",
            peak_bytes as f64 / (1 << 20) as f64
        );
        out.push(
            json!({"plan": name, "report": report, "final_loss": final_loss,
                        "peak_bytes": peak_bytes}),
        );
    }
    save_json("multi_gpu_scaling", &out);
}
