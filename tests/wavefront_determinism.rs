//! Wavefront-parallel plan execution must be indistinguishable from the
//! serial loops and from a plain stash-everything evaluation — for every
//! stash plan, at every thread count.
//!
//! The wavefront scheduler (`echo_graph::exec`) groups an `ExecPlan`'s
//! forward and backward schedules into dependency levels and runs each
//! level's entries concurrently on a worker pool, committing results
//! serially in schedule order. That commit discipline — plus the fixed
//! per-element reduction order of every tensor kernel — is the whole
//! bit-exactness argument, so this sweep pins it end to end: across
//! {stash-all, Echo, Chen-√N, searched} stash plans on a word-level LM
//! and a fused-GRU chain, wavefront execution over pools of 1, 2 and 4
//! threads and `WavefrontMode::Off` all produce the losses and exported
//! gradients of the oracle (`echo_graph::reference`), bit for bit, and
//! perform exactly `ExecPlan::planned_replays()` replays — so replay
//! counts cannot depend on the thread count either.
//!
//! One `#[test]`: the scenarios share process-global tensor state (the
//! GEMM policy/kernel pins), and a single test keeps the sweep ordered.

use echo::{
    analysis::infer_shapes, chen_sqrt_plan, sqrt_stride, EchoCompiler, EchoConfig, OshapeConfig,
    SearchConfig, StashSearch,
};
use echo_data::{BpttBatches, LmCorpus, Vocab};
use echo_graph::{ExecOptions, Executor, Graph, NodeId, StashPlan, WavefrontMode};
use echo_memory::{DeviceMemory, LayerKind};
use echo_models::{WordLm, WordLmHyper};
use echo_ops::MeanAll;
use echo_rnn::{GruStep, LstmBackend};
use echo_tensor::init::{seeded_rng, uniform};
use echo_tensor::{Shape, Tensor, WorkerPool};
use std::collections::HashMap;
use std::sync::Arc;

const LANES: usize = 4;
const PARAM_SEED: u64 = 23;

struct Scenario {
    name: &'static str,
    graph: Arc<Graph>,
    loss: NodeId,
    params: Vec<(NodeId, Tensor)>,
    bindings: HashMap<NodeId, Tensor>,
}

impl Scenario {
    fn param_shapes(&self) -> HashMap<NodeId, Shape> {
        self.params
            .iter()
            .map(|(id, t)| (*id, t.shape().clone()))
            .collect()
    }

    fn stash_plans(&self) -> Vec<(&'static str, StashPlan)> {
        let shapes = infer_shapes(&self.graph, &self.bindings, &self.param_shapes())
            .expect("shape inference");
        let echo = EchoCompiler::new(EchoConfig::default())
            .compile_with_shapes(&self.graph, &shapes, &[self.loss])
            .plan;
        let (chen, _) = chen_sqrt_plan(&self.graph, &shapes, &[self.loss], {
            sqrt_stride(&self.graph)
        });
        let binding_shapes: HashMap<NodeId, Shape> = self
            .bindings
            .iter()
            .map(|(&id, t)| (id, t.shape().clone()))
            .collect();
        let searched = StashSearch::new(SearchConfig {
            flop_budget: 1.0,
            ..SearchConfig::default()
        })
        .run(
            &self.graph,
            &shapes,
            &binding_shapes,
            &self.param_shapes(),
            &[self.loss],
            &OshapeConfig::default(),
            true,
            ExecOptions::default(),
        )
        .expect("stash search")
        .plan;
        vec![
            ("stash-all", StashPlan::stash_all()),
            ("echo", echo),
            ("chen-sqrt-n", chen),
            ("searched", searched),
        ]
    }
}

fn word_lm_scenario() -> Scenario {
    let lm = WordLm::build(WordLmHyper::tiny(30, LstmBackend::CuDnn));
    let corpus = LmCorpus::synthetic(Vocab::new(30), 1200, 0.85, 5);
    let batch = BpttBatches::new(corpus.tokens(), LANES, lm.hyper.seq_len)
        .next()
        .expect("corpus yields a batch");
    let mut probe = Executor::new(
        Arc::clone(&lm.graph),
        StashPlan::stash_all(),
        DeviceMemory::with_overhead_model(1 << 30, 0, 0.0),
    );
    lm.bind_params(&mut probe, PARAM_SEED).expect("bind");
    Scenario {
        name: "word-lm",
        graph: Arc::clone(&lm.graph),
        loss: lm.loss,
        params: probe.export_params(),
        bindings: lm.bindings(&batch),
    }
}

/// A 4-step fused-GRU chain: recurrent serial dependencies plus several
/// independent per-step input transforms — enough graph width that the
/// wave tables actually group work, unlike a pure chain.
fn gru_scenario() -> Scenario {
    let (b, h, steps) = (3usize, 4usize, 4usize);
    let mut g = Graph::new();
    let h0 = g.input("h0", LayerKind::Rnn);
    let wx = g.param("wx", LayerKind::Rnn);
    let wh = g.param("wh", LayerKind::Rnn);
    let bias = g.param("bias", LayerKind::Rnn);
    let mut xs = Vec::new();
    let mut state = h0;
    for t in 0..steps {
        let x = g.input(format!("x{t}"), LayerKind::Rnn);
        xs.push(x);
        state = g.apply(
            format!("gru{t}"),
            Arc::new(GruStep::new(h)),
            &[x, state, wx, wh, bias],
            LayerKind::Rnn,
        );
    }
    let loss = g.apply("loss", Arc::new(MeanAll), &[state], LayerKind::Output);

    let mut rng = seeded_rng(PARAM_SEED);
    let params = vec![
        (wx, uniform(Shape::d2(3 * h, h), 0.6, &mut rng)),
        (wh, uniform(Shape::d2(3 * h, h), 0.6, &mut rng)),
        (bias, uniform(Shape::d1(6 * h), 0.2, &mut rng)),
    ];
    let mut bindings = HashMap::new();
    bindings.insert(h0, Tensor::zeros(Shape::d2(b, h)));
    for &x in &xs {
        bindings.insert(x, uniform(Shape::d2(b, h), 1.0, &mut rng));
    }
    Scenario {
        name: "gru",
        graph: Arc::new(g),
        loss,
        params,
        bindings,
    }
}

#[derive(Debug, PartialEq)]
struct Fingerprint {
    loss_bits: u32,
    grad_bits: Vec<(NodeId, Vec<u32>)>,
}

fn grad_bits(grads: Vec<(NodeId, Tensor)>) -> Vec<(NodeId, Vec<u32>)> {
    grads
        .into_iter()
        .map(|(id, t)| (id, t.data().iter().map(|v| v.to_bits()).collect()))
        .collect()
}

/// The reference step, evaluated outside the executor.
fn oracle_step(scenario: &Scenario) -> Fingerprint {
    let params: HashMap<NodeId, Tensor> = scenario.params.iter().cloned().collect();
    let (loss, grads) = echo_graph::reference::train_step(
        &scenario.graph,
        &params,
        &scenario.bindings,
        scenario.loss,
    )
    .expect("oracle step");
    Fingerprint {
        loss_bits: loss.to_bits(),
        grad_bits: grad_bits(grads),
    }
}

/// Two train steps back to back under the given wavefront mode, both
/// fingerprinted with their replay counts: the second step reuses the
/// step-persistent tensor pool, so it covers the recycled-storage path the
/// first step cannot. Also returns the replays the plan promises.
fn run_steps(
    scenario: &Scenario,
    stash: &StashPlan,
    mode: WavefrontMode,
) -> (Vec<(Fingerprint, u64)>, u64) {
    let mem = DeviceMemory::with_overhead_model(1 << 30, 0, 0.0);
    let mut exec = Executor::new(Arc::clone(&scenario.graph), stash.clone(), mem);
    for (id, value) in &scenario.params {
        exec.bind_param(*id, value.clone()).expect("bind param");
    }
    let plan = exec
        .plan_for(&scenario.bindings, scenario.loss, ExecOptions::default())
        .expect("plan builds");
    let planned_replays = plan.planned_replays();
    exec.set_exec_plan(plan).expect("plan installs");
    exec.set_wavefront_mode(mode);
    let steps = (0..2)
        .map(|_| {
            let stats = exec
                .train_step(
                    &scenario.bindings,
                    scenario.loss,
                    ExecOptions::default(),
                    None,
                )
                .expect("train step");
            let fingerprint = Fingerprint {
                loss_bits: stats.loss.expect("numeric loss").to_bits(),
                grad_bits: grad_bits(exec.export_grads()),
            };
            (fingerprint, stats.replays)
        })
        .collect();
    (steps, planned_replays)
}

#[test]
fn wavefront_execution_is_bit_identical_at_every_thread_count() {
    let pools: Vec<(usize, Arc<WorkerPool>)> = [1usize, 2, 4]
        .into_iter()
        .map(|t| (t, Arc::new(WorkerPool::with_threads(t))))
        .collect();
    let scenarios = [word_lm_scenario(), gru_scenario()];
    for scenario in &scenarios {
        // Nothing updates the parameters, so both steps equal the oracle's.
        let oracle = oracle_step(scenario);
        for (plan_name, stash) in scenario.stash_plans() {
            let modes = std::iter::once(("off".to_string(), WavefrontMode::Off)).chain(
                pools
                    .iter()
                    .map(|(t, pool)| (format!("{t}t"), WavefrontMode::Pool(Arc::clone(pool)))),
            );
            for (mode_name, mode) in modes {
                let (steps, planned_replays) = run_steps(scenario, &stash, mode);
                for (step, (fingerprint, replays)) in steps.iter().enumerate() {
                    let ctx = format!("{}/{plan_name}/{mode_name}/step{step}", scenario.name);
                    assert_eq!(fingerprint, &oracle, "loss and gradient bits ({ctx})");
                    assert_eq!(*replays, planned_replays, "replay counts ({ctx})");
                }
            }
        }
    }
}
