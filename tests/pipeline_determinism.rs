//! The headline invariant of the one multi-worker trainer: for the same
//! global batch, seed, and optimizer, GPipe-style training with
//! `P ∈ {1, 2, 4}` stages and `K ∈ {1, 2}` replicas per stage (and
//! `K = 4` at `P = 1`) is **bit-exact** equal to the serial micro-batch
//! reference — per-step losses, gradient norms, and every final
//! parameter — under every stash-plan family (stash-all, the Echo pass, a
//! recomputation-heavy Chen √N plan, and the exact-cost search), and
//! segment replay counts match the stage-normalized serial plan exactly.
//! `P = 1` is data parallelism: it is also pinned on the fused-LSTM word
//! LM, whose single LSTM op no cut can split, at `K ∈ {1, 2, 4}`.
//!
//! One interpreter: pipeline stage workers execute `stage_step` and
//! `forward_many` on the same plan-driven loops as the serial reference
//! (`train_step`), under per-stage `ExecPlan`s built once in
//! `PipelineTrainer::new` and shared by a stage's replicas — so stage
//! executors plan nothing at step time (asserted below). The loops visit
//! plan entries in schedule order on the stage's own thread; only the
//! kernels underneath band rows across `ECHO_NUM_THREADS` workers, which
//! changes no bit, so every assertion here must hold at any thread count.
//! CI re-runs this suite with `ECHO_NUM_THREADS=4` to pin that down.

use echo::analysis::infer_shapes;
use echo::{chen_sqrt_plan, sqrt_stride, EchoCompiler, EchoConfig, StashSelection};
use echo_data::{BpttBatches, LmBatch, LmCorpus, MicrobatchPlan, NmtBatch, ParallelCorpus, Vocab};
use echo_device::DeviceSpec;
use echo_graph::{partition_stages, ExecOptions, Executor, Gir, NodeId, StagePartition, StashPlan};
use echo_memory::DeviceMemory;
use echo_models::{
    MicrobatchTrainer, NmtHyper, NmtModel, Optimizer, PipelineOptions, PipelineTrainer, Sgd,
    WordLm, WordLmHyper,
};
use echo_rnn::LstmBackend;
use echo_tensor::{Shape, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

const LANES: usize = 8;
const MICRO: usize = 4;
const STEPS: usize = 2;
const PARAM_SEED: u64 = 11;

fn mem() -> DeviceMemory {
    DeviceMemory::with_overhead_model(1 << 30, 0, 0.0)
}

/// A 4-layer stack so `P = 4` has a genuine layer-per-stage partition.
/// The `Default` (per-step kernel) backend keeps each layer's ops
/// partitionable — the fused CuDNN op would be a single uncuttable node.
fn model() -> WordLm {
    WordLm::build(WordLmHyper {
        vocab: 30,
        embed: 8,
        hidden: 10,
        layers: 4,
        seq_len: 5,
        backend: LstmBackend::Default,
    })
}

/// The tiny word LM with the fused (CuDNN-style) LSTM op: one stage only.
fn fused_model() -> WordLm {
    WordLm::build(WordLmHyper::tiny(40, LstmBackend::CuDnn))
}

fn batches(lm: &WordLm) -> Vec<LmBatch> {
    let corpus = LmCorpus::synthetic(Vocab::new(lm.hyper.vocab), 1200, 0.9, 7);
    BpttBatches::new(corpus.tokens(), LANES, lm.hyper.seq_len)
        .take(STEPS)
        .collect()
}

fn optimizer() -> Sgd {
    Sgd::new(0.5).with_momentum(0.9).with_clip_norm(5.0)
}

fn template(lm: &WordLm, plan: &StashPlan) -> Executor {
    let mut exec = Executor::new(Arc::clone(&lm.graph), plan.clone(), mem());
    lm.bind_params(&mut exec, PARAM_SEED).expect("bind");
    exec
}

/// The stash plans the invariant must hold under: Echo off, the Echo
/// heuristic, a Chen √N plan forcing genuine replays, and the
/// exact-cost search.
fn plans(lm: &WordLm) -> Vec<(&'static str, StashPlan)> {
    let compile = |selection| {
        EchoCompiler::new(EchoConfig {
            selection,
            ..EchoConfig::default()
        })
        .compile(
            &lm.graph,
            &lm.symbolic_bindings(LANES / MICRO),
            &lm.param_shapes(),
            &[lm.loss, lm.logits],
        )
        .expect("echo compile")
        .plan
    };
    let shapes = infer_shapes(
        &lm.graph,
        &lm.symbolic_bindings(LANES / MICRO),
        &lm.param_shapes(),
    )
    .expect("shapes");
    let (chen, _) = chen_sqrt_plan(
        &lm.graph,
        &shapes,
        &[lm.loss, lm.logits],
        sqrt_stride(&lm.graph),
    );
    vec![
        ("echo-off", StashPlan::stash_all()),
        ("echo-on", compile(StashSelection::Heuristic)),
        ("chen-sqrt", chen),
        (
            "searched",
            compile(StashSelection::Search { flop_budget: 1.0 }),
        ),
    ]
}

/// Per-step fingerprints plus final parameters of one serial run.
struct SerialRef {
    /// `(loss bits, grad-norm bits)` per step.
    fps: Vec<(u32, u64)>,
    /// Segment replays per step.
    replays: Vec<u64>,
    /// Final parameter bit patterns, sorted by node id.
    params: Vec<Vec<u32>>,
}

fn serial_lm_run(lm: &WordLm, plan: &StashPlan) -> SerialRef {
    let mut trainer = MicrobatchTrainer::for_word_lm(
        lm,
        template(lm, plan),
        LANES,
        MICRO,
        Box::new(optimizer()),
        None,
    )
    .expect("serial trainer");
    let mut fps = Vec::new();
    let mut replays = Vec::new();
    for batch in batches(lm) {
        let report = trainer.step(&batch).expect("serial step");
        fps.push((report.loss.to_bits(), report.grad_norm.to_bits()));
        replays.push(report.total_replays());
    }
    SerialRef {
        fps,
        replays,
        params: param_bits(&trainer.export_params()),
    }
}

fn param_bits(params: &[(NodeId, Tensor)]) -> Vec<Vec<u32>> {
    params
        .iter()
        .map(|(_, t)| t.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// `(simulated ns, replays, peak bytes)` of each stage's first step under
/// the Chen plan at P = 2, K = 1 on a simulated Titan Xp, frozen at the
/// last commit whose executor drove the simulator from inside the
/// interpreter loops; projecting each stage's plans must reproduce them.
const WALKED_CHEN_P2_STAGES: [(u64, u64, u64); 2] =
    [(7_391_502, 40, 38_040), (5_561_500, 40, 41_240)];

/// Trains `lm` with `replicas` replicas of `partition` and asserts every
/// step's loss and grad-norm bits, replay count and plan reuse, and the
/// final parameter bits, against the serial references. Returns the
/// replays the fleet performed.
fn check_lm_pipeline(
    lm: &WordLm,
    (plan_name, plan): (&str, &StashPlan),
    partition: &StagePartition,
    replicas: usize,
    canonical: &SerialRef,
    normalized: &SerialRef,
) -> u64 {
    let stages = partition.stage_count();
    let walked =
        (plan_name == "chen-sqrt" && stages == 2 && replicas == 1).then_some(WALKED_CHEN_P2_STAGES);
    let mut options = PipelineOptions::new(replicas, MICRO);
    if walked.is_some() {
        options = options.with_sim(DeviceSpec::titan_xp());
    }
    let mut trainer = PipelineTrainer::for_word_lm(
        lm,
        template(lm, plan),
        partition,
        plan,
        LANES,
        &options,
        Box::new(optimizer()),
    )
    .expect("pipeline trainer");
    let mut replays = 0;
    for (step, batch) in batches(lm).iter().enumerate() {
        let report = trainer.train_step(batch).expect("pipeline step");
        assert_eq!(
            (report.loss.to_bits(), report.grad_norm.to_bits()),
            canonical.fps[step],
            "{plan_name}: step {step} diverged at P={stages} K={replicas} \
             (loss {} vs serial)",
            report.loss,
        );
        // Every stage of every replica reports once, and the fleet's
        // total replay work equals the normalized serial run exactly —
        // recomputation is neither lost nor duplicated by the split.
        assert_eq!(report.stages.len(), stages * replicas);
        assert_eq!(
            report.total_replays(),
            normalized.replays[step],
            "{plan_name}: P={stages} K={replicas} replay count drifted"
        );
        // The stage plans installed at construction serve every step:
        // no stage executor ever plans on demand.
        for stage in &report.stages {
            assert_eq!(
                stage.plans_built, 0,
                "{plan_name}: P={stages} K={replicas} step {step}: stage {} \
                 replica {} planned at step time",
                stage.stage, stage.replica
            );
        }
        if let (0, Some(walked)) = (step, walked) {
            let projected: Vec<(u64, u64, u64)> = report
                .stages
                .iter()
                .map(|s| (s.sim_ns, s.replays, s.peak_bytes))
                .collect();
            assert_eq!(projected, walked, "{plan_name}: P=2 stage projections");
        }
        replays += report.total_replays();
    }
    assert_eq!(
        param_bits(&trainer.export_params()),
        canonical.params,
        "{plan_name}: P={stages} K={replicas} final parameters diverged"
    );
    replays
}

#[test]
fn pipeline_training_is_bit_exact_for_every_stage_and_replica_count() {
    let lm = model();
    for (plan_name, plan) in plans(&lm) {
        let canonical = serial_lm_run(&lm, &plan);
        let mut family_replays = 0u64;
        for stages in [1usize, 2, 4] {
            let partition = lm.partition(LANES / MICRO, stages).expect("partition");
            // The stage-normalized plan (cut-interface values stashed,
            // segments split at stage boundaries) must itself be serially
            // bit-exact: stash-vs-replay decisions never change values.
            // Its replay counts are the reference the pipeline must hit.
            let normalized = serial_lm_run(&lm, &partition.normalized_plan(&plan));
            assert_eq!(
                normalized.fps, canonical.fps,
                "{plan_name}: P={stages} normalized plan diverged serially"
            );
            assert_eq!(
                normalized.params, canonical.params,
                "{plan_name}: P={stages} normalized plan parameters diverged"
            );
            // P = 1 is data parallelism; it also runs the widest fleet.
            let replica_counts: &[usize] = if stages == 1 { &[1, 2, 4] } else { &[1, 2] };
            for &replicas in replica_counts {
                family_replays += check_lm_pipeline(
                    &lm,
                    (plan_name, &plan),
                    &partition,
                    replicas,
                    &canonical,
                    &normalized,
                );
            }
        }
        // The Chen plan must actually exercise recomputation inside the
        // pipeline, or the replay half of the invariant is vacuous.
        if plan_name == "chen-sqrt" {
            assert!(family_replays > 0, "chen plan produced no pipeline replays");
        }
    }
}

/// Data parallelism on the fused-LSTM word LM: one stage replicated
/// `K ∈ {1, 2, 4}` ways matches the serial oracle bit for bit with the
/// Echo pass off, on, and under a replay-heavy Chen √N plan.
#[test]
fn parallel_training_is_bit_exact_for_every_replica_count() {
    let lm = fused_model();
    let partition = lm.partition(LANES / MICRO, 1).expect("partition");
    for (plan_name, plan) in plans(&lm) {
        if plan_name == "searched" {
            continue;
        }
        let canonical = serial_lm_run(&lm, &plan);
        let normalized = serial_lm_run(&lm, &partition.normalized_plan(&plan));
        assert_eq!(
            normalized.fps, canonical.fps,
            "{plan_name}: normalized plan diverged serially"
        );
        let mut replays = 0;
        for replicas in [1usize, 2, 4] {
            replays += check_lm_pipeline(
                &lm,
                (plan_name, &plan),
                &partition,
                replicas,
                &canonical,
                &normalized,
            );
        }
        if plan_name == "chen-sqrt" {
            assert!(replays > 0, "chen plan produced no replays");
        }
    }
}

/// Illegal layouts fail fast with a diagnostic instead of deadlocking the
/// fleet.
#[test]
fn pipeline_trainer_rejects_unsupported_layouts() {
    let lm = fused_model();
    let plan = StashPlan::stash_all();
    let partition = lm.partition(LANES / MICRO, 1).expect("partition");
    let reject = |replicas, micro| {
        PipelineTrainer::for_word_lm(
            &lm,
            template(&lm, &plan),
            &partition,
            &plan,
            LANES,
            &PipelineOptions::new(replicas, micro),
            Box::new(optimizer()),
        )
        .err()
        .expect("must reject")
    };
    // 8 replicas over 4 leaves cannot own aligned subtrees.
    let err = reject(8, MICRO);
    assert!(err.contains("replicas"), "unhelpful error: {err}");
    // 3 micro-batches are not a power of two.
    let err = reject(1, 3);
    assert!(err.contains("power of two"), "unhelpful error: {err}");
}

/// The compiler front door: `pipeline_stages` in [`EchoConfig`] must
/// surface a validated partition and per-stage summary, and that
/// partition must drive a bit-exact pipeline run.
#[test]
fn compiler_partition_drives_a_bit_exact_pipeline() {
    let lm = model();
    let compiled = EchoCompiler::new(EchoConfig {
        pipeline_stages: 2,
        ..EchoConfig::default()
    })
    .compile(
        &lm.graph,
        &lm.symbolic_bindings(LANES / MICRO),
        &lm.param_shapes(),
        &[lm.loss, lm.logits],
    )
    .expect("echo compile");
    let partition = compiled.partition.expect("compiler must emit a partition");
    partition.validate().expect("compiler partition validates");
    assert_eq!(partition.stage_count(), 2);
    assert_eq!(compiled.report.stages.len(), 2);
    let rendered = compiled.report.to_string();
    assert!(
        rendered.contains("stage 0"),
        "summary missing stages:\n{rendered}"
    );

    let canonical = serial_lm_run(&lm, &compiled.plan);
    let mut trainer = PipelineTrainer::for_word_lm(
        &lm,
        template(&lm, &compiled.plan),
        &partition,
        &compiled.plan,
        LANES,
        &PipelineOptions::new(1, MICRO),
        Box::new(optimizer()),
    )
    .expect("pipeline trainer");
    for (step, batch) in batches(&lm).iter().enumerate() {
        let report = trainer.train_step(batch).expect("pipeline step");
        assert_eq!(
            (report.loss.to_bits(), report.grad_norm.to_bits()),
            canonical.fps[step],
            "compiler partition diverged at step {step}"
        );
    }
    assert_eq!(param_bits(&trainer.export_params()), canonical.params);
}

// ---------------------------------------------------------------------
// NMT: the generic (non-LM) trainer entry point, with attention and an
// uncuttable decoder region — cuts must land between encoder layers.
// ---------------------------------------------------------------------

const NMT_LANES: usize = 8;
const NMT_MICRO: usize = 2;

/// 4 encoder layers so a 2-stage cut exists strictly inside the encoder;
/// the decoder's attention loop is one protected-interface region.
fn nmt_model() -> NmtModel {
    let mut hyper = NmtHyper::tiny(30, 28);
    hyper.embed = 10;
    hyper.hidden = 12;
    hyper.enc_layers = 4;
    hyper.src_len = 5;
    hyper.tgt_len = 6;
    hyper.backend = LstmBackend::Default;
    NmtModel::build(hyper)
}

fn nmt_batches() -> Vec<NmtBatch> {
    let corpus = ParallelCorpus::synthetic(Vocab::new(30), Vocab::new(28), 200, 3..=5, 5);
    let mut all = NmtBatch::bucketed(corpus.pairs(), NMT_LANES);
    all.truncate(STEPS);
    assert_eq!(all.len(), STEPS, "synthetic corpus too small");
    all
}

fn nmt_template(model: &NmtModel, plan: &StashPlan) -> Executor {
    let mut exec = Executor::new(Arc::clone(&model.graph), plan.clone(), mem());
    model.bind_params(&mut exec, PARAM_SEED).expect("bind");
    exec
}

fn nmt_plans(model: &NmtModel) -> Vec<(&'static str, StashPlan)> {
    let compiled = EchoCompiler::new(EchoConfig::default())
        .compile(
            &model.graph,
            &model.symbolic_bindings(NMT_LANES / NMT_MICRO),
            &model.param_shapes(),
            &[model.loss, model.logits],
        )
        .expect("echo compile");
    vec![
        ("echo-off", StashPlan::stash_all()),
        ("echo-on", compiled.plan),
    ]
}

/// Serial NMT reference: an independent, test-local re-statement of the
/// canonical reduction tree (balanced fold keeping the left operand,
/// then `1/M` scaling) — so trainer and spec cannot share a bug.
fn serial_nmt_run(model: &NmtModel, plan: &StashPlan) -> SerialRef {
    let mut exec = nmt_template(model, plan);
    let mut opt = optimizer();
    let mplan = MicrobatchPlan::new(NMT_LANES, NMT_MICRO).expect("plan");
    let mut fps = Vec::new();
    let mut replays = Vec::new();
    for batch in nmt_batches() {
        let mut leaves: Vec<(Vec<(NodeId, Tensor)>, f32)> = Vec::new();
        let mut step_replays = 0u64;
        for micro in mplan.cut_nmt(&batch) {
            let stats = exec
                .train_step(
                    &model.bindings(&micro),
                    model.loss,
                    ExecOptions::default(),
                    None,
                )
                .expect("serial nmt step");
            step_replays += stats.replays;
            leaves.push((exec.export_grads(), stats.loss.expect("loss")));
        }
        while leaves.len() > 1 {
            let mut next = Vec::with_capacity(leaves.len() / 2);
            let mut pairs = leaves.into_iter();
            while let (Some((mut lg, ll)), Some((rg, rl))) = (pairs.next(), pairs.next()) {
                for ((_, grad), (_, incoming)) in lg.iter_mut().zip(&rg) {
                    grad.axpy(1.0, incoming).expect("fold");
                }
                next.push((lg, ll + rl));
            }
            leaves = next;
        }
        let (mut grads, mut loss) = leaves.pop().expect("non-empty");
        let scale = 1.0 / mplan.micro() as f32;
        for (_, grad) in &mut grads {
            grad.scale_inplace(scale);
        }
        loss *= scale;
        exec.import_grads(&grads);
        let grad_norm = opt.apply(&mut exec);
        fps.push((loss.to_bits(), grad_norm.to_bits()));
        replays.push(step_replays);
    }
    SerialRef {
        fps,
        replays,
        params: param_bits(&exec.export_params()),
    }
}

#[test]
fn nmt_pipeline_matches_serial_across_replicas() {
    let model = Arc::new(nmt_model());
    let binding_shapes: HashMap<NodeId, Shape> = model
        .symbolic_bindings(NMT_LANES / NMT_MICRO)
        .iter()
        .map(|(&id, t)| (id, t.shape().clone()))
        .collect();
    let gir = Gir::from_graph(
        Arc::clone(&model.graph),
        &binding_shapes,
        &model.param_shapes(),
        &[model.loss],
    )
    .expect("gir");
    let partition = partition_stages(&gir, 2).expect("nmt partition");
    for (plan_name, plan) in nmt_plans(&model) {
        let canonical = serial_nmt_run(&model, &plan);
        let normalized = serial_nmt_run(&model, &partition.normalized_plan(&plan));
        assert_eq!(
            normalized.fps, canonical.fps,
            "{plan_name}: normalized NMT plan diverged serially"
        );
        if plan_name == "echo-on" {
            assert!(
                canonical.replays.iter().sum::<u64>() > 0,
                "echo NMT plan produced no replays"
            );
        }
        for replicas in [1usize, 2] {
            let bind_model = Arc::clone(&model);
            let cut_plan = MicrobatchPlan::new(NMT_LANES, NMT_MICRO).expect("plan");
            let mut trainer = PipelineTrainer::new(
                nmt_template(&model, &plan),
                &partition,
                &plan,
                NMT_LANES,
                &PipelineOptions::new(replicas, NMT_MICRO),
                Box::new(optimizer()),
                Arc::new(move |batch: &NmtBatch| bind_model.bindings(batch)),
                Arc::new(move |batch: &NmtBatch| cut_plan.cut_nmt(batch)),
                model.loss,
            )
            .expect("nmt pipeline trainer");
            let mut planned_after_first_step = 0;
            for (step, batch) in nmt_batches().iter().enumerate() {
                let report = trainer.train_step(batch).expect("nmt pipeline step");
                assert_eq!(
                    (report.loss.to_bits(), report.grad_norm.to_bits()),
                    canonical.fps[step],
                    "{plan_name}: NMT step {step} diverged at K={replicas}"
                );
                assert_eq!(
                    report.total_replays(),
                    normalized.replays[step],
                    "{plan_name}: NMT K={replicas} replay count drifted"
                );
                // Bucketed batches may present a new shape; whatever the
                // first step planned, later steps of that shape reuse.
                let built: u64 = report.stages.iter().map(|s| s.plans_built).sum();
                if step == 0 {
                    planned_after_first_step = built;
                }
                assert_eq!(
                    built, planned_after_first_step,
                    "{plan_name}: NMT K={replicas} stage executors planned after step 1"
                );
            }
            assert_eq!(
                param_bits(&trainer.export_params()),
                canonical.params,
                "{plan_name}: NMT K={replicas} final parameters diverged"
            );
        }
    }
}
