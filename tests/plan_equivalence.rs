//! Plan-driven execution must be indistinguishable from a plain
//! stash-everything evaluation — for every stash plan and every GEMM
//! backend.
//!
//! The ahead-of-time `ExecPlan` (`echo_graph::plan`) precomputes the
//! schedule, shapes, liveness intervals, replay tables and buffer slots,
//! and the executor interprets it. This sweep pins the contract: across
//! {stash-all, Echo, Chen-√N, searched} stash plans and all `MatmulPolicy`
//! backends, on both a tiny word-level LM and a hand-built GRU chain, a
//! step — under a plan installed up front or one the executor plans on
//! demand — is **bit-identical** in loss and every exported gradient to
//! the oracle (`echo_graph::reference`: no plan, no replay, no reuse),
//! and so is the step after it, which runs on recycled pool storage;
//! performs exactly `ExecPlan::planned_replays()` replays, and reports
//! exactly the peak the deleted per-node allocator walk reported for that
//! cell (frozen below as golden constants). A second sweep runs the
//! word LM on its `Default` backend, the many-op cell graph, across
//! {stash-all, Echo, searched} plans and every matmul policy; a third
//! runs a vocabulary-40 LM, one and four layers deep, on every LSTM
//! backend under every plan family.
//!
//! Every cell also attaches a simulated device: a numeric step with the
//! device and a shape-only `Executor::project` must both reproduce the
//! kernel trace, simulated time, replay count and peak the interpreter
//! produced when it still walked the schedule without values to drive the
//! simulator (frozen below as well).
//!
//! One `#[test]`, not several: the matmul policy is process-global state
//! and the harness runs `#[test]`s concurrently, so the sweep must iterate
//! policies sequentially inside a single test (this file is its own
//! integration-test binary, i.e. its own process).

use echo::{
    analysis::infer_shapes, chen_sqrt_plan, sqrt_stride, EchoCompiler, EchoConfig, OshapeConfig,
    SearchConfig, StashSearch,
};
use echo_data::{BpttBatches, LmCorpus, Vocab};
use echo_device::{DeviceSim, DeviceSpec};
use echo_graph::{ExecOptions, ExecPlan, Executor, Graph, IterationStats, NodeId, StashPlan};
use echo_memory::{DeviceMemory, LayerKind};
use echo_models::{WordLm, WordLmHyper};
use echo_ops::MeanAll;
use echo_rnn::{GruStep, LstmBackend};
use echo_tensor::init::{seeded_rng, uniform};
use echo_tensor::{set_matmul_policy, MatmulBackend, MatmulPolicy, Shape, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

const LANES: usize = 4;
const PARAM_SEED: u64 = 11;

/// One model under test: a graph, its scalar loss, deterministic parameter
/// values, and one batch of input bindings.
struct Scenario {
    name: String,
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

    /// The four stash plans of the sweep: the framework baseline, the
    /// Echo pass's output, Chen et al.'s generic √N checkpointing, and the
    /// cost-model search's winner.
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
    word_lm_scenario_on("word-lm", WordLmHyper::tiny(30, LstmBackend::CuDnn))
}

fn word_lm_scenario_on(name: impl Into<String>, hyper: WordLmHyper) -> Scenario {
    let lm = WordLm::build(hyper);
    let corpus = LmCorpus::synthetic(Vocab::new(hyper.vocab), 1200, 0.85, 5);
    let batch = BpttBatches::new(corpus.tokens(), LANES, lm.hyper.seq_len)
        .next()
        .expect("corpus yields a batch");
    // Capture the seeded parameter values once so every run binds
    // identical bits.
    let mut probe = Executor::new(
        Arc::clone(&lm.graph),
        StashPlan::stash_all(),
        DeviceMemory::with_overhead_model(1 << 30, 0, 0.0),
    );
    lm.bind_params(&mut probe, PARAM_SEED).expect("bind");
    Scenario {
        name: name.into(),
        graph: Arc::clone(&lm.graph),
        loss: lm.loss,
        params: probe.export_params(),
        bindings: lm.bindings(&batch),
    }
}

/// A 4-step GRU chain ending in a mean-reduce loss — the recurrent shape
/// the fused `GruStep` operator is built for, exercised here because the
/// LM scenario never touches it.
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
        name: "gru".to_string(),
        graph: Arc::new(g),
        loss,
        params,
        bindings,
    }
}

/// Everything observable from one train step, as bits.
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

/// The reference: a topological forward keeping every value and a
/// descending backward, outside the executor.
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

/// One executor step, with the plan installed up front (`install`) or
/// planned on demand by the executor. Returns the step's bits, its stats
/// and the plan it ran.
fn run_step(
    scenario: &Scenario,
    stash: &StashPlan,
    install: bool,
) -> (Fingerprint, IterationStats, Arc<ExecPlan>) {
    let mem = DeviceMemory::with_overhead_model(1 << 30, 0, 0.0);
    let mut exec = Executor::new(Arc::clone(&scenario.graph), stash.clone(), mem);
    for (id, value) in &scenario.params {
        exec.bind_param(*id, value.clone()).expect("bind param");
    }
    if install {
        let plan = exec
            .plan_for(&scenario.bindings, scenario.loss, ExecOptions::default())
            .expect("plan builds");
        exec.set_exec_plan(plan).expect("plan installs");
    }
    let stats = exec
        .train_step(
            &scenario.bindings,
            scenario.loss,
            ExecOptions::default(),
            None,
        )
        .expect("train step");
    let plan = Arc::clone(exec.exec_plan().expect("the step ran a plan"));
    let fingerprint = Fingerprint {
        loss_bits: stats.loss.expect("numeric loss").to_bits(),
        grad_bits: grad_bits(exec.export_grads()),
    };
    // Nothing updates the parameters, so a second step on storage the
    // first one recycled into the tensor pool must repeat it exactly.
    let again = exec
        .train_step(
            &scenario.bindings,
            scenario.loss,
            ExecOptions::default(),
            None,
        )
        .expect("second train step");
    let repeat = Fingerprint {
        loss_bits: again.loss.expect("numeric loss").to_bits(),
        grad_bits: grad_bits(exec.export_grads()),
    };
    assert_eq!(repeat, fingerprint, "second step on recycled storage");
    assert_eq!(again.replays, stats.replays, "second step's replays");
    (fingerprint, stats, plan)
}

/// One step of `stash` with a simulated device attached — numeric, or a
/// projection over shape-bound parameters — as `(trace digest, elapsed
/// ns, replays, peak bytes)`.
fn device_step(scenario: &Scenario, stash: &StashPlan, numeric: bool) -> (u64, u64, u64, u64) {
    let mem = DeviceMemory::with_overhead_model(1 << 30, 0, 0.0);
    let mut exec = Executor::new(Arc::clone(&scenario.graph), stash.clone(), mem);
    let mut sim = DeviceSim::new(DeviceSpec::titan_xp());
    sim.set_op_overhead_ns(5_000);
    let (bindings, loss) = (&scenario.bindings, scenario.loss);
    let stats = if numeric {
        for (id, value) in &scenario.params {
            exec.bind_param(*id, value.clone()).expect("bind param");
        }
        exec.train_step(bindings, loss, ExecOptions::default(), Some(&mut sim))
    } else {
        for (id, value) in &scenario.params {
            exec.bind_param_shape(*id, value.shape().clone())
                .expect("bind param shape");
        }
        exec.project(bindings, &[loss], Some(loss), Some(&mut sim))
    }
    .expect("device step");
    (
        sim.trace_digest(),
        sim.elapsed_ns(),
        stats.replays,
        stats.peak_bytes,
    )
}

/// Checks one matrix cell against the oracle and the walked device
/// trace, and returns its step peak.
fn check_cell(scenario: &Scenario, plan_name: &str, stash: &StashPlan, ctx: &str) -> u64 {
    let &(_, _, digest, elapsed, replays, peak) = WALKED_DEVICE_STEPS
        .iter()
        .find(|row| row.0 == scenario.name && row.1 == plan_name)
        .expect("every cell has a walked device trace");
    for numeric in [true, false] {
        assert_eq!(
            device_step(scenario, stash, numeric),
            (digest, elapsed, replays, peak),
            "device projection vs walked trace ({ctx}, numeric {numeric})"
        );
    }
    let oracle = oracle_step(scenario);
    let mut peaks = Vec::new();
    for install in [true, false] {
        let (step, stats, plan) = run_step(scenario, stash, install);
        assert_eq!(step.loss_bits, oracle.loss_bits, "loss bits ({ctx})");
        assert_eq!(step.grad_bits, oracle.grad_bits, "gradient bits ({ctx})");
        assert_eq!(
            stats.replays,
            plan.planned_replays(),
            "replay counts ({ctx})"
        );
        assert_eq!(
            stats.peak_bytes,
            plan.planned_peak_bytes(),
            "step peak vs static peak ({ctx})"
        );
        peaks.push(stats.peak_bytes);
    }
    assert_eq!(peaks[0], peaks[1], "installed vs on-demand plan ({ctx})");
    peaks[0]
}

/// `peak_bytes` the deleted per-node allocator walk reported on step 1 of
/// each cell (identical across matmul policies), captured at the last
/// commit that had it. `planned == legacy` used to be checked live; it
/// survives as `planned == golden`.
const LEGACY_PEAKS: [(&str, &str, u64); 8] = [
    ("word-lm", "stash-all", 132_856),
    ("word-lm", "echo", 132_856),
    ("word-lm", "chen-sqrt-n", 130_808),
    ("word-lm", "searched", 132_856),
    ("gru", "stash-all", 2_304),
    ("gru", "echo", 2_304),
    ("gru", "chen-sqrt-n", 2_304),
    ("gru", "searched", 2_304),
];

/// Same for the `Default`-backend sweep, where the walk's peak was only
/// ever an upper bound on the plan's (it kept the recompute workspace
/// retained).
const LEGACY_DEFAULT_BACKEND_PEAKS: [(&str, &str, u64); 3] = [
    ("word-lm-default", "stash-all", 94_456),
    ("word-lm-default", "echo", 94_456),
    ("word-lm-default", "searched", 80_624),
];

/// `(trace digest, elapsed ns, replays, peak bytes)` of one step of each
/// cell on a simulated Titan Xp (5 µs per operator dispatch), captured at
/// the last commit whose interpreter walked the schedule without values
/// to drive the simulator — and whose numeric steps with the device
/// attached agreed with that walk on every row.
#[rustfmt::skip]
const WALKED_DEVICE_STEPS: [(&str, &str, u64, u64, u64, u64); 35] = [
    ("word-lm", "stash-all", 0x6769_8dd1_ada8_d37d, 154_018, 0, 132_856),
    ("word-lm", "echo", 0x6769_8dd1_ada8_d37d, 154_018, 0, 132_856),
    ("word-lm", "chen-sqrt-n", 0xacc3_ea28_a8b4_128c, 161_518, 2, 130_808),
    ("word-lm", "searched", 0x6769_8dd1_ada8_d37d, 154_018, 0, 132_856),
    ("gru", "stash-all", 0x9a74_5aa0_df58_f6e6, 126_501, 0, 2_304),
    ("gru", "echo", 0x9a74_5aa0_df58_f6e6, 126_501, 0, 2_304),
    ("gru", "chen-sqrt-n", 0x7b6c_0391_f101_6dbe, 149_001, 2, 2_304),
    ("gru", "searched", 0x9a74_5aa0_df58_f6e6, 126_501, 0, 2_304),
    ("word-lm-default", "stash-all", 0x8db4_27d8_2ef0_e6cb, 2_189_018, 0, 94_456),
    ("word-lm-default", "echo", 0x8db4_27d8_2ef0_e6cb, 2_189_018, 0, 94_456),
    ("word-lm-default", "searched", 0xfe49_17c5_aad8_eeb6, 2_469_018, 24, 80_624),
    ("lm40-Default", "stash-all", 0x7667_5090_74ee_42d4, 2_189_018, 0, 100_936),
    ("lm40-Default", "echo", 0x7667_5090_74ee_42d4, 2_189_018, 0, 100_936),
    ("lm40-Default", "chen-sqrt-n", 0x6a11_57cb_f4f3_4950, 2_514_018, 12, 93_504),
    ("lm40-Default", "searched", 0xa1ff_b83f_c7cc_578b, 2_469_018, 24, 84_544),
    ("lm40x4-Default", "stash-all", 0x713b_4a83_0f9c_a88d, 8_594_018, 0, 319_048),
    ("lm40x4-Default", "echo", 0x713b_4a83_0f9c_a88d, 8_594_018, 0, 319_048),
    ("lm40x4-Default", "chen-sqrt-n", 0x1888_3928_4ff8_3d52, 9_941_518, 23, 319_048),
    ("lm40x4-Default", "searched", 0xb07d_4ac8_9592_6677, 17_991_518, 39, 219_968),
    ("lm40-CuDNN", "stash-all", 0x45ce_179d_8dbf_4a06, 154_018, 0, 139_336),
    ("lm40-CuDNN", "echo", 0x45ce_179d_8dbf_4a06, 154_018, 0, 139_336),
    ("lm40-CuDNN", "chen-sqrt-n", 0xaf17_2dc8_98c7_7acd, 161_518, 2, 137_288),
    ("lm40-CuDNN", "searched", 0x45ce_179d_8dbf_4a06, 154_018, 0, 139_336),
    ("lm40x4-CuDNN", "stash-all", 0x3ae4_716c_0c55_8f1c, 199_018, 0, 472_648),
    ("lm40x4-CuDNN", "echo", 0x3ae4_716c_0c55_8f1c, 199_018, 0, 472_648),
    ("lm40x4-CuDNN", "chen-sqrt-n", 0x28bd_189e_1de3_d544, 204_018, 1, 472_648),
    ("lm40x4-CuDNN", "searched", 0x3ae4_716c_0c55_8f1c, 199_018, 0, 472_648),
    ("lm40-EcoRNN", "stash-all", 0x8137_7cf3_3ce6_549b, 156_518, 0, 57_416),
    ("lm40-EcoRNN", "echo", 0x8137_7cf3_3ce6_549b, 156_518, 0, 57_416),
    ("lm40-EcoRNN", "chen-sqrt-n", 0x7e0d_5940_8da6_73e8, 164_018, 2, 55_368),
    ("lm40-EcoRNN", "searched", 0x8137_7cf3_3ce6_549b, 156_518, 0, 57_416),
    ("lm40x4-EcoRNN", "stash-all", 0xe227_9de7_3082_37af, 464_018, 0, 144_968),
    ("lm40x4-EcoRNN", "echo", 0xe227_9de7_3082_37af, 464_018, 0, 144_968),
    ("lm40x4-EcoRNN", "chen-sqrt-n", 0x082c_4b54_6749_2257, 601_518, 2, 133_696),
    ("lm40x4-EcoRNN", "searched", 0xe227_9de7_3082_37af, 464_018, 0, 144_968),
];

fn golden(table: &[(&str, &str, u64)], row: &str, plan: &str) -> u64 {
    table
        .iter()
        .find(|(r, p, _)| *r == row && *p == plan)
        .map(|&(_, _, peak)| peak)
        .expect("every cell has a golden peak")
}

#[test]
fn planned_execution_is_bit_identical_across_plans_and_matmul_policies() {
    let scenarios = [word_lm_scenario(), gru_scenario()];
    let policies = [
        MatmulPolicy::Fixed(MatmulBackend::Naive),
        MatmulPolicy::Fixed(MatmulBackend::PackedParallel),
        MatmulPolicy::Auto,
    ];
    for scenario in &scenarios {
        for (plan_name, stash) in scenario.stash_plans() {
            for &policy in &policies {
                set_matmul_policy(policy);
                let ctx = format!("{}/{plan_name}/{policy:?}", scenario.name);
                let peak = check_cell(scenario, plan_name, &stash, &ctx);
                assert_eq!(
                    peak,
                    golden(&LEGACY_PEAKS, &scenario.name, plan_name),
                    "planned peak vs golden legacy peak ({ctx})"
                );
            }
            if plan_name == "chen-sqrt-n" {
                let (_, stats, _) = run_step(scenario, &stash, true);
                assert!(
                    stats.replays > 0,
                    "chen plan must replay ({})",
                    scenario.name
                );
            }
        }
    }

    // `Default`-backend sweep: {stash-all, Echo, searched} × every matmul
    // policy. (Chen-√N stays in the main sweep above.)
    let default = word_lm_scenario_on(
        "word-lm-default",
        WordLmHyper::tiny(30, LstmBackend::Default),
    );
    for (plan_name, stash) in default.stash_plans() {
        if plan_name == "chen-sqrt-n" {
            continue;
        }
        for &policy in &policies {
            set_matmul_policy(policy);
            let ctx = format!("{}/{plan_name}/{policy:?}", default.name);
            let peak = check_cell(&default, plan_name, &stash, &ctx);
            let legacy = golden(&LEGACY_DEFAULT_BACKEND_PEAKS, &default.name, plan_name);
            assert!(
                peak <= legacy,
                "planned peak {peak} above golden legacy peak {legacy} ({ctx})"
            );
        }
    }
    set_matmul_policy(MatmulPolicy::Auto);

    // Backend sweep: a vocabulary-40 LM one and four layers deep, on every
    // LSTM backend, under every plan family (the default matmul policy).
    for backend in LstmBackend::ALL {
        for (depth, layers) in [("lm40", 1), ("lm40x4", 4)] {
            let scenario = word_lm_scenario_on(
                format!("{depth}-{backend}"),
                WordLmHyper {
                    layers,
                    ..WordLmHyper::tiny(40, backend)
                },
            );
            for (plan_name, stash) in scenario.stash_plans() {
                let ctx = format!("{}/{plan_name}", scenario.name);
                check_cell(&scenario, plan_name, &stash, &ctx);
            }
        }
    }
}
