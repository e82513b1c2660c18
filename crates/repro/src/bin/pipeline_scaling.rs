//! Pipeline-parallel scaling (paper §6.6 setting, extended to stage
//! parallelism): the pipelined trainer runs one simulated Titan Xp per
//! stage worker over a multi-layer word LM, and the measured per-stage
//! device-busy times are compared against the analytic fill–drain
//! projection ([`PipelineModel`]) that accounts for the GPipe bubble and
//! the PCIe cut transfers. Training is bit-identical at every stage
//! count (the canonical tree fold fixes the accumulation order), so the
//! stage axis only moves time and per-worker memory — exactly the
//! trade the paper's multi-GPU section studies for the replica axis.

use echo::{analysis::infer_shapes, chen_sqrt_plan, sqrt_stride, EchoCompiler, EchoConfig};
use echo_data::{BpttBatches, LmBatch, LmCorpus, Vocab};
use echo_device::{CommModel, DeviceSpec, PipelineModel};
use echo_graph::{Executor, StagePartition, StashPlan};
use echo_memory::DeviceMemory;
use echo_models::{PipelineOptions, PipelineTrainer, Sgd, WordLm, WordLmHyper};
use echo_repro::{print_table, save_json};
use echo_rnn::LstmBackend;
use serde_json::json;
use std::sync::Arc;

const LANES: usize = 16;
const MICRO: usize = 4;
const STEPS: usize = 3;
const PARAM_SEED: u64 = 23;

fn model() -> WordLm {
    WordLm::build(WordLmHyper {
        vocab: 40,
        embed: 12,
        hidden: 16,
        layers: 4,
        seq_len: 6,
        backend: LstmBackend::Default,
    })
}

fn template(lm: &WordLm, plan: &StashPlan) -> Executor {
    let mut exec = Executor::new(
        Arc::clone(&lm.graph),
        plan.clone(),
        DeviceMemory::with_overhead_model(1 << 30, 0, 0.0),
    );
    lm.bind_params(&mut exec, PARAM_SEED).expect("bind");
    exec
}

fn batches(lm: &WordLm) -> Vec<LmBatch> {
    let corpus = LmCorpus::synthetic(Vocab::new(40), 8_000, 0.9, 5);
    BpttBatches::new(corpus.tokens(), LANES, lm.hyper.seq_len)
        .take(STEPS)
        .collect()
}

fn lm_partition(lm: &WordLm, stages: usize) -> StagePartition {
    lm.partition(LANES / MICRO, stages).expect("partition")
}

/// Average per-stage device-busy nanoseconds over `STEPS` steps, plus
/// the final loss and total replays (for the bit-exactness printout).
fn measure(
    lm: &WordLm,
    plan: &StashPlan,
    stages: usize,
    batches: &[LmBatch],
) -> (Vec<u64>, f32, u64) {
    let partition = lm_partition(lm, stages);
    let mut trainer = PipelineTrainer::for_word_lm(
        lm,
        template(lm, plan),
        &partition,
        plan,
        LANES,
        &PipelineOptions::new(1, MICRO).with_sim(DeviceSpec::titan_xp()),
        Box::new(Sgd::new(0.5).with_clip_norm(5.0)),
    )
    .expect("trainer");
    let mut busy = vec![0u64; stages];
    let mut loss = 0.0f32;
    let mut replays = 0u64;
    for batch in batches {
        let report = trainer.train_step(batch).expect("step");
        loss = report.loss;
        replays += report.total_replays();
        for stat in &report.stages {
            busy[stat.stage] += stat.sim_ns;
        }
    }
    for b in &mut busy {
        *b /= STEPS as u64;
    }
    (busy, loss, replays)
}

/// Splits one stage's measured per-step busy time into per-micro-batch
/// forward and backward costs under the standard `bwd = 2 · fwd`
/// convention. Every stage re-runs its forward during the seeded
/// backward (re-materialization) and every stage but the last also
/// forwards during fill, so the busy time of a non-last stage is
/// `M · (fwd + fwd + bwd)` and of the last stage `M · (fwd + bwd)`.
fn split_costs(busy_ns: u64, last: bool) -> (u64, u64) {
    let fwd = if last {
        busy_ns / (3 * MICRO as u64)
    } else {
        busy_ns / (4 * MICRO as u64)
    };
    (fwd, 2 * fwd)
}

fn main() {
    let lm = model();
    let batches = batches(&lm);
    let echo_plan = EchoCompiler::new(EchoConfig::default())
        .compile(
            &lm.graph,
            &lm.symbolic_bindings(LANES / MICRO),
            &lm.param_shapes(),
            &[lm.loss, lm.logits],
        )
        .expect("compile")
        .plan;
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
    let comm = CommModel::pcie_gen3();

    let mut saved = Vec::new();
    for (plan_name, plan) in [
        ("Echo pass", echo_plan),
        ("Chen sqrt(N) recompute", chen_plan),
    ] {
        run_family(&lm, plan_name, &plan, &batches, &comm, &mut saved);
    }
    save_json("pipeline_scaling", &saved);
}

fn run_family(
    lm: &WordLm,
    plan_name: &str,
    plan: &StashPlan,
    batches: &[LmBatch],
    comm: &CommModel,
    saved: &mut Vec<serde_json::Value>,
) {
    let (serial_busy, serial_loss, serial_replays) = measure(lm, plan, 1, batches);
    let serial_ns = serial_busy[0];

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for stages in [2usize, 4] {
        let (busy, loss, replays) = measure(lm, plan, stages, batches);
        assert_eq!(
            loss.to_bits(),
            serial_loss.to_bits(),
            "P={stages} diverged from serial — pipeline must be bit-exact"
        );
        // Measured critical path: stage workers run concurrently, so the
        // busiest stage's device time bounds the step from below (it
        // ignores fill/drain stalls — the projection adds those back).
        let critical_ns = *busy.iter().max().expect("stages");
        let measured_speedup = serial_ns as f64 / critical_ns.max(1) as f64;
        let measured_eff = measured_speedup / stages as f64;

        let partition = lm_partition(lm, stages);
        let (stage_fwd_ns, stage_bwd_ns): (Vec<u64>, Vec<u64>) = busy
            .iter()
            .enumerate()
            .map(|(s, &b)| split_costs(b, s + 1 == stages))
            .unzip();
        let projection = PipelineModel {
            stage_fwd_ns,
            stage_bwd_ns,
            cut_bytes: partition.cut_bytes(),
            comm: comm.clone(),
        }
        .project(MICRO);

        rows.push(vec![
            stages.to_string(),
            format!("{:.3}", critical_ns as f64 * 1e-6),
            format!("{:.0}%", measured_eff * 100.0),
            format!("{:.3}", projection.pipelined_ns as f64 * 1e-6),
            format!("{:.0}%", projection.efficiency * 100.0),
            format!("{:.3}", projection.bubble_ns as f64 * 1e-6),
            replays.to_string(),
        ]);
        out.push(json!({
            "stages": stages,
            "measured_busy_ns": busy,
            "measured_critical_ns": critical_ns,
            "measured_efficiency": measured_eff,
            "projection": projection,
            "cut_bytes": partition.cut_bytes(),
            "loss": loss,
            "replays": replays,
        }));
    }

    print_table(
        &format!(
            "{plan_name}: simulated pipeline scaling (word LM, {} layers, B={LANES}, \
             M={MICRO}; serial step {:.3} ms)",
            lm.hyper.layers,
            serial_ns as f64 * 1e-6
        ),
        &[
            "stages",
            "busiest ms",
            "busy eff",
            "proj step ms",
            "proj eff",
            "bubble ms",
            "replays",
        ],
        &rows,
    );
    println!(
        "  loss {serial_loss:.4} identical at every stage count \
         (serial replays {serial_replays})\n"
    );
    saved.push(json!({
        "plan": plan_name,
        "serial_step_ns": serial_ns,
        "serial_replays": serial_replays,
        "comm": comm,
        "points": out,
    }));
}
