//! The isolated probe suite of the traced run: each layer's public
//! functions timed at fixed shapes, mostly the shapes the six workloads
//! spend their time in. Because the shapes are fixed, every value is a
//! real measurement in whichever workload's process the suite runs, which
//! is what lets every traced run report every per-layer metric. Each
//! probe says which end-to-end metric it should move (see README.md).
//!
//! Probes are small (the suite takes about a quarter of a minute), so
//! their values are noisier than the end-to-end ones; they are not gated.

use crate::gen;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::pipe;
use crate::workloads::serve::{self, Load};
use crate::workloads::train::{self, mem, Trainer, Variant};
use echo::{EchoCompiler, EchoConfig};
use echo_device::{DeviceSim, DeviceSpec};
use echo_graph::{ExecOptions, Executor, Graph, NodeId, StashPlan, WavefrontMode};
use echo_memory::LayerKind;
use echo_models::{LmState, NmtModel, WordLmDecoder};
use echo_ops::{
    Activation, BroadcastAddQuery, FullyConnected, LayerNorm, MeanAll, ScoreReduce,
    SoftmaxCrossEntropy, SoftmaxRows, WeightedSum,
};
use echo_rnn::{LstmBackend, LstmStack};
use echo_serve::{Engine, Frontend, FrontendConfig, ServeConfig};
use echo_tensor::init::{seeded_rng, uniform};
use echo_tensor::{
    dispatch_gemm, gemm_packed_parallel, MatViewMut, MatrixLayout, Shape, Tensor, WorkerPool,
};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Out = BTreeMap<&'static str, f64>;

/// Median wall time of `reps` calls of `f` after one unmeasured call,
/// in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times)
}

pub fn run(seed: u64, quick: bool, tracer: &mut Tracer, out: &mut Out) -> Result<(), String> {
    // Repetitions shrink in the smoke mode.
    let reps = |n: usize| if quick { (n / 4).max(2) } else { n };
    tracer.set_on(true);
    let gemm_ms_per_step = tensor(&reps, out);
    operators(&reps, out)?;
    graph_launch(seed, &reps, tracer, out)?;
    graph_gemm(seed, gemm_ms_per_step, &reps, tracer, out)?;
    core_nmt(seed, &reps, tracer, out)?;
    models_pipe(seed, &reps, out)?;
    serve_probes(seed, &reps, out)?;
    tracer.set_on(false);
    Ok(())
}

// ───────────────────────────── tensor ─────────────────────────────

/// `m × k × n` through `dispatch_gemm`, A transposed when `at`;
/// returns milliseconds per call.
fn gemm_ms(m: usize, k: usize, n: usize, at: bool, reps: usize) -> f64 {
    let mut rng = seeded_rng(9);
    let a = if at {
        uniform(Shape::d2(k, m), 1.0, &mut rng)
    } else {
        uniform(Shape::d2(m, k), 1.0, &mut rng)
    };
    let b = uniform(Shape::d2(k, n), 1.0, &mut rng);
    let mut c = vec![0.0f32; m * n];
    median_ms(reps, || {
        let av = if at { a.as_mat().t() } else { a.as_mat() };
        dispatch_gemm(
            1.0,
            av,
            b.as_mat(),
            0.0,
            &mut MatViewMut::new(&mut c, m, n, MatrixLayout::RowMajor),
        )
        .expect("probe shapes line up");
        black_box(&c);
    })
}

fn gflops(m: usize, k: usize, n: usize, ms: f64) -> f64 {
    2.0 * (m * k * n) as f64 / (ms * 1e6)
}

/// Returns the estimated GEMM milliseconds of one `train_lm_gemm` step
/// at the standalone speeds measured here.
fn tensor(reps: &dyn Fn(usize) -> usize, out: &mut Out) -> f64 {
    // Roofline denominators first, so the autotune race has run.
    let (m, k, n) = (512, 512, 512);
    let mut rng = seeded_rng(11);
    let a = uniform(Shape::d2(m, k), 1.0, &mut rng);
    let b = uniform(Shape::d2(k, n), 1.0, &mut rng);
    let mut c = vec![0.0f32; m * n];
    let peak_ms = median_ms(reps(15), || {
        gemm_packed_parallel(
            1.0,
            a.as_mat(),
            b.as_mat(),
            0.0,
            &mut MatViewMut::new(&mut c, m, n, MatrixLayout::RowMajor),
            1,
        )
        .expect("square shapes line up");
        black_box(&c);
    });
    out.insert("tensor.host_peak_gflops", gflops(m, k, n, peak_ms));

    // 64 MiB per operand; x += y reads two and writes one.
    let elems = 16 << 20;
    let mut x = Tensor::zeros(Shape::d1(elems));
    let y = Tensor::full(Shape::d1(elems), 1.0);
    let copy_ms = median_ms(reps(8), || {
        x.axpy(1.0, &y).expect("same shape");
        black_box(x.data());
    });
    out.insert(
        "tensor.host_copy_gbs",
        3.0 * (elems * 4) as f64 / (copy_ms * 1e6),
    );
    drop((x, y));

    // train_lm_gemm: one layer-0 gate block, the output projection, and
    // a gate block's weight gradient (A transposed).
    let gates = gemm_ms(32, 384, 1024, false, reps(60));
    let proj = gemm_ms(640, 256, 1000, false, reps(15));
    let dw = gemm_ms(384, 32, 1024, true, reps(60));
    out.insert("tensor.gemm_gates_gflops", gflops(32, 384, 1024, gates));
    out.insert("tensor.gemm_proj_gflops", gflops(640, 256, 1000, proj));
    out.insert("tensor.gemm_dw_gflops", gflops(384, 32, 1024, dw));
    // Per LSTM layer and time step a forward gate block, its input
    // gradient (same FLOPs) and its weight gradient; the projection
    // forward and its two gradients.
    let (hyper, _) = train::GEMM_LM;
    let cells = (hyper.seq_len * hyper.layers) as f64;
    let gemm_ms_per_step = cells * (2.0 * gates + dw) + 3.0 * proj;
    // serve_wide_open: the vocabulary projection of one 8-lane decode step.
    let decode = gemm_ms(8, 256, 10_000, false, reps(30));
    out.insert("tensor.gemm_decode_gflops", gflops(8, 256, 10_000, decode));
    // train_lm_launch: one unfused gate GEMM, far below the packed tier.
    let small_ms = {
        let per_call = 200;
        median_ms(reps(40), || {
            for _ in 0..per_call {
                black_box(small_gemm());
            }
        }) / per_call as f64
    };
    out.insert("tensor.gemm_small_ns", small_ms * 1e6);

    let tiles = echo_tensor::policy::autotune_outcome().map_or((0, 0), |o| o.tiles);
    out.insert("tensor.autotune_kc", tiles.0 as f64);
    out.insert("tensor.autotune_mc", tiles.1 as f64);
    gemm_ms_per_step
}

/// One 4×32×64 GEMM on thread-local operands (allocation kept out of the
/// timed loop).
fn small_gemm() -> f32 {
    thread_local! {
        static OPERANDS: (Tensor, Tensor) = {
            let mut rng = seeded_rng(13);
            (
                uniform(Shape::d2(4, 32), 1.0, &mut rng),
                uniform(Shape::d2(32, 64), 1.0, &mut rng),
            )
        };
    }
    OPERANDS.with(|(a, b)| {
        let mut c = [0.0f32; 4 * 64];
        dispatch_gemm(
            1.0,
            a.as_mat(),
            b.as_mat(),
            0.0,
            &mut MatViewMut::new(&mut c, 4, 64, MatrixLayout::RowMajor),
        )
        .expect("probe shapes line up");
        c[0]
    })
}

// ─────────────────────────── rnn and ops ───────────────────────────

/// A small graph with a scalar loss, bound and planned, ready to step.
struct OpGraph {
    exec: Executor,
    bindings: HashMap<NodeId, Tensor>,
    loss: NodeId,
}

impl OpGraph {
    fn new(
        graph: Graph,
        loss: NodeId,
        params: Vec<(NodeId, Tensor)>,
        bind_stack: Option<&LstmStack>,
        bindings: HashMap<NodeId, Tensor>,
    ) -> Result<OpGraph, String> {
        let mut exec = Executor::new(Arc::new(graph), StashPlan::stash_all(), mem());
        for (id, value) in params {
            exec.bind_param(id, value).map_err(|e| e.to_string())?;
        }
        if let Some(stack) = bind_stack {
            stack
                .bind_params(&mut exec, &mut seeded_rng(5))
                .map_err(|e| e.to_string())?;
        }
        let plan = exec
            .plan_for(&bindings, loss, ExecOptions::default())
            .map_err(|e| e.to_string())?;
        exec.set_exec_plan(plan).map_err(|e| e.to_string())?;
        Ok(OpGraph {
            exec,
            bindings,
            loss,
        })
    }

    fn step_ms(&mut self, reps: usize) -> f64 {
        median_ms(reps, || {
            black_box(
                self.exec
                    .train_step(&self.bindings, self.loss, ExecOptions::default(), None)
                    .expect("probe graph steps"),
            );
        })
    }
}

/// An LSTM stack over a `[T, B, E]` input with the mean of its output as
/// the loss.
fn lstm_graph(
    backend: LstmBackend,
    (t, b, e, h, layers): (usize, usize, usize, usize, usize),
) -> Result<OpGraph, String> {
    let mut g = Graph::new();
    let x = g.input("x", LayerKind::Rnn);
    let stack = LstmStack::build(&mut g, backend, x, t, e, h, layers, "rnn", LayerKind::Rnn);
    let loss = g.apply(
        "loss",
        Arc::new(MeanAll),
        &[stack.output],
        LayerKind::Output,
    );
    let mut bindings = HashMap::new();
    bindings.insert(x, uniform(Shape::d3(t, b, e), 0.5, &mut seeded_rng(3)));
    stack.add_zero_state_bindings(b, &mut bindings);
    OpGraph::new(g, loss, Vec::new(), Some(&stack), bindings)
}

/// One decoder step's attention: query projection, the scoring segment
/// the Echo pass recomputes (broadcast-add, layer norm, tanh, score
/// reduction), softmax and the context sum, at the NMT workload's shape.
fn attention_graph() -> Result<OpGraph, String> {
    let hyper = train::nmt_hyper();
    let (t, b, h) = (hyper.src_len, train::NMT_BATCH, hyper.hidden);
    let mut rng = seeded_rng(7);
    let mut g = Graph::new();
    let keys = g.input("keys", LayerKind::Attention);
    let hs = g.input("hs", LayerKind::Attention);
    let query_h = g.input("query_h", LayerKind::Attention);
    let w_query = g.param("w_query", LayerKind::Attention);
    let gamma = g.param("ln_gamma", LayerKind::Attention);
    let beta = g.param("ln_beta", LayerKind::Attention);
    let v_score = g.param("v_score", LayerKind::Attention);
    let attn = LayerKind::Attention;
    let query = g.apply(
        "attn_q",
        Arc::new(FullyConnected::new(h).without_bias()),
        &[query_h, w_query],
        attn,
    );
    let e = g.apply("attn_e", Arc::new(BroadcastAddQuery), &[keys, query], attn);
    let ln = g.apply(
        "attn_ln",
        Arc::new(LayerNorm::default()),
        &[e, gamma, beta],
        attn,
    );
    let th = g.apply("attn_tanh", Arc::new(Activation::tanh()), &[ln], attn);
    let score = g.apply("attn_score", Arc::new(ScoreReduce), &[th, v_score], attn);
    let alpha = g.apply("attn_alpha", Arc::new(SoftmaxRows), &[score], attn);
    let ctx = g.apply("attn_ctx", Arc::new(WeightedSum), &[alpha, hs], attn);
    let loss = g.apply("loss", Arc::new(MeanAll), &[ctx], LayerKind::Output);
    let params = vec![
        (w_query, uniform(Shape::d2(h, h), 0.1, &mut rng)),
        (gamma, Tensor::full(Shape::d1(h), 1.0)),
        (beta, Tensor::zeros(Shape::d1(h))),
        (v_score, uniform(Shape::d1(h), 0.1, &mut rng)),
    ];
    let bindings = HashMap::from([
        (keys, uniform(Shape::d3(t, b, h), 0.5, &mut rng)),
        (hs, uniform(Shape::d3(t, b, h), 0.5, &mut rng)),
        (query_h, uniform(Shape::d2(b, h), 0.5, &mut rng)),
    ]);
    OpGraph::new(g, loss, params, None, bindings)
}

/// The output layer of `train_lm_gemm`: 640 rows of 256 features into a
/// 1000-way softmax cross-entropy.
fn softmax_ce_graph() -> Result<OpGraph, String> {
    let ((hyper, batch), mut rng) = (train::GEMM_LM, seeded_rng(8));
    let mut g = Graph::new();
    let x = g.input("x", LayerKind::Output);
    let targets = g.input("targets", LayerKind::Output);
    let w = g.param("out_w", LayerKind::Output);
    let bias = g.param("out_b", LayerKind::Output);
    let logits = g.apply(
        "logits",
        Arc::new(FullyConnected::new(hyper.vocab)),
        &[x, w, bias],
        LayerKind::Output,
    );
    let loss = g.apply(
        "loss",
        Arc::new(SoftmaxCrossEntropy::new()),
        &[logits, targets],
        LayerKind::Output,
    );
    let rows = hyper.seq_len * batch;
    let ids: Vec<f32> = (0..rows).map(|i| (i * 37 % hyper.vocab) as f32).collect();
    let params = vec![
        (
            w,
            uniform(Shape::d2(hyper.vocab, hyper.hidden), 0.1, &mut rng),
        ),
        (bias, Tensor::zeros(Shape::d1(hyper.vocab))),
    ];
    let bindings = HashMap::from([
        (
            x,
            uniform(Shape::d3(hyper.seq_len, batch, hyper.hidden), 0.5, &mut rng),
        ),
        (
            targets,
            Tensor::from_vec(Shape::d1(rows), ids).map_err(|e| e.to_string())?,
        ),
    ]);
    OpGraph::new(g, loss, params, None, bindings)
}

fn operators(reps: &dyn Fn(usize) -> usize, out: &mut Out) -> Result<(), String> {
    let (gemm, gemm_batch) = train::GEMM_LM;
    let fused = (
        gemm.seq_len,
        gemm_batch,
        gemm.embed,
        gemm.hidden,
        gemm.layers,
    );
    out.insert(
        "rnn.lstm_fused_step_ms",
        lstm_graph(LstmBackend::CuDnn, fused)?.step_ms(reps(7)),
    );
    let (launch, launch_batch) = train::LAUNCH_LM;
    let unfused = (
        launch.seq_len,
        launch_batch,
        launch.embed,
        launch.hidden,
        launch.layers,
    );
    out.insert(
        "rnn.lstm_unfused_step_ms",
        lstm_graph(LstmBackend::Default, unfused)?.step_ms(reps(40)),
    );
    out.insert(
        "ops.attention_step_ms",
        attention_graph()?.step_ms(reps(40)),
    );
    out.insert(
        "ops.softmax_ce_step_ms",
        softmax_ce_graph()?.step_ms(reps(12)),
    );
    Ok(())
}

// ───────────────────────────── graph ─────────────────────────────

/// Medians of the `data.bind`, `graph.train_step` and `models.optimizer`
/// spans of `steps` whole steps of `trainer`, in milliseconds.
fn step_breakdown(
    trainer: &mut Trainer,
    steps: usize,
    tracer: &mut Tracer,
) -> Result<(f64, f64, f64), String> {
    let mark = tracer.spans().len();
    for i in 0..steps {
        trainer.step(PROBE_OPS + i as u64, tracer)?;
    }
    let s = tracer.summary_since(mark);
    Ok((
        s["data.bind"].p50_ms,
        s["graph.train_step"].p50_ms,
        s["models.optimizer"].p50_ms,
    ))
}

/// Span operation ids of probes start here, clear of any window's.
const PROBE_OPS: u64 = 1 << 32;

/// The plan interpreter on the launch-bound LM (`train_lm_launch`'s
/// model), where dispatch, not arithmetic, is the cost.
fn graph_launch(
    seed: u64,
    reps: &dyn Fn(usize) -> usize,
    tracer: &mut Tracer,
    out: &mut Out,
) -> Result<(), String> {
    let mut t = train::build_lm(train::LAUNCH_LM, seed, Variant::Measured)?;
    out.insert("data.corpus_gen_ms", t.corpus_s * 1e3);
    let plan = Arc::clone(t.exec.exec_plan().ok_or("attach installed no plan")?);
    let bindings = t.next_bindings();
    let opts = ExecOptions::default();

    out.insert(
        "graph.plan_build_ms",
        median_ms(reps(5), || {
            black_box(
                t.exec
                    .plan_for(&bindings, t.loss, opts)
                    .expect("plan builds"),
            );
        }),
    );

    let (bind_ms, step_ms, opt_ms) = step_breakdown(&mut t, reps(120), tracer)?;
    let whole = bind_ms + step_ms + opt_ms;
    out.insert("data.bind_ms", bind_ms);
    out.insert("data.bind_share", bind_ms / whole);
    out.insert("models.optimizer_ms", opt_ms);
    out.insert("models.optimizer_share", opt_ms / whole);
    out.insert("graph.train_step_ms", step_ms);

    let loss = t.loss;
    let mark = tracer.spans().len();
    for i in 0..reps(120) {
        tracer
            .span("graph.forward", None, PROBE_OPS + i as u64, || {
                t.exec.forward(&bindings, loss, opts, None)
            })
            .map_err(|e| format!("forward: {e}"))?;
    }
    let forward_ms = tracer.summary_since(mark)["graph.forward"].p50_ms;
    out.insert("graph.forward_ms", forward_ms);
    out.insert("graph.backward_ms", step_ms - forward_ms);
    out.insert("graph.launches_per_step", plan.launch_count() as f64);
    out.insert("graph.fwd_launches", plan.forward_launch_count() as f64);
    out.insert(
        "graph.us_per_launch",
        step_ms * 1e3 / plan.launch_count() as f64,
    );
    out.insert(
        "graph.planned_step_gflop",
        plan.planned_step_flops() as f64 * 1e-9,
    );
    out.insert(
        "graph.attained_gflops",
        plan.planned_step_flops() as f64 / (step_ms * 1e6),
    );

    // Memory accounting and pool churn over whole steps.
    let pool_before = t.exec.tensor_pool_stats();
    let steps = reps(40);
    let mut measured_peak = 0;
    for _ in 0..steps {
        let stats = t
            .exec
            .train_step(&bindings, loss, opts, None)
            .map_err(|e| format!("train_step: {e}"))?;
        measured_peak = stats.peak_bytes;
    }
    let pool_after = t.exec.tensor_pool_stats();
    let takes = (pool_after.takes - pool_before.takes) as f64;
    out.insert("memory.measured_peak_bytes", measured_peak as f64);
    out.insert(
        "memory.plan_gap_bytes",
        plan.planned_peak_bytes() as f64 - measured_peak as f64,
    );
    out.insert("memory.pool_takes_per_step", takes / steps as f64);
    out.insert(
        "memory.pool_hit_rate",
        (pool_after.reuse_hits - pool_before.reuse_hits) as f64 / takes.max(1.0),
    );

    // The cost model's time for the same step against the host's.
    let mut sim = DeviceSim::new(DeviceSpec::titan_xp());
    sim.set_record_trace(false);
    t.exec
        .train_step(&bindings, loss, opts, Some(&mut sim))
        .map_err(|e| format!("simulated train_step: {e}"))?;
    sim.synchronize();
    let sim_ms = sim.elapsed_ns() as f64 * 1e-6;
    out.insert("device.sim_step_ms", sim_ms);
    out.insert("device.host_over_sim", step_ms / sim_ms);

    // The 2-thread wavefront pool that rule 2 pins away, as a number.
    t.exec
        .set_wavefront_mode(WavefrontMode::Pool(Arc::new(WorkerPool::with_threads(2))));
    let pool2 = median_ms(reps(120), || {
        black_box(
            t.exec
                .train_step(&bindings, loss, opts, None)
                .expect("step"),
        );
    });
    t.exec.set_wavefront_mode(WavefrontMode::Auto);
    out.insert("graph.wavefront_pool2_step_ms", pool2);

    // The same step on the legacy interpreter.
    t.exec.clear_exec_plan();
    out.insert(
        "graph.legacy_step_ms",
        median_ms(reps(60), || {
            black_box(
                t.exec
                    .train_step(&bindings, loss, opts, None)
                    .expect("step"),
            );
        }),
    );
    out.insert("graph.plan_fallbacks", echo_graph::plan_fallbacks() as f64);
    Ok(())
}

/// The same interpreter on the GEMM-bound LM (`train_lm_gemm`'s model).
fn graph_gemm(
    seed: u64,
    gemm_ms_per_step: f64,
    reps: &dyn Fn(usize) -> usize,
    tracer: &mut Tracer,
    out: &mut Out,
) -> Result<(), String> {
    let mut t = train::build_lm(train::GEMM_LM, seed, Variant::Measured)?;
    let plan = Arc::clone(t.exec.exec_plan().ok_or("attach installed no plan")?);
    t.step(PROBE_OPS, tracer)?;
    let (bind_ms, step_ms, opt_ms) = step_breakdown(&mut t, reps(6), tracer)?;
    out.insert("graph.gemm_train_step_ms", step_ms);
    out.insert(
        "graph.gemm_attained_gflops",
        plan.planned_step_flops() as f64 / (step_ms * 1e6),
    );
    out.insert(
        "tensor.gemm_step_share",
        gemm_ms_per_step / (bind_ms + step_ms + opt_ms),
    );
    Ok(())
}

// ─────────────────────────── core on NMT ───────────────────────────

fn core_nmt(
    seed: u64,
    reps: &dyn Fn(usize) -> usize,
    tracer: &mut Tracer,
    out: &mut Out,
) -> Result<(), String> {
    let model = NmtModel::build(train::nmt_hyper());
    let compiler = EchoCompiler::new(EchoConfig::default());
    let symbolic = model.symbolic_bindings(train::NMT_BATCH);
    let shapes = model.param_shapes();
    let compile = || {
        compiler
            .compile(
                &model.graph,
                &symbolic,
                &shapes,
                &[model.loss, model.logits],
            )
            .map_err(|e| format!("compile: {e}"))
    };
    let compiled = compile()?;
    out.insert(
        "core.compile_ms",
        median_ms(reps(9), || {
            black_box(compile().expect("compiled once already"));
        }),
    );
    let plan = compiled.exec_plan.as_ref().ok_or("compile built no plan")?;
    out.insert("core.segments", compiled.report.segments.len() as f64);
    out.insert("core.planned_peak_bytes", plan.planned_peak_bytes() as f64);
    out.insert(
        "core.saved_bytes",
        compiled.report.total_saved_bytes() as f64,
    );
    out.insert(
        "core.workspace_bytes",
        compiled.report.workspace_bytes() as f64,
    );
    out.insert(
        "graph.planned_recompute_gflop",
        plan.planned_recompute_flops() as f64 * 1e-9,
    );

    // Echo against stash-all, steps interleaved so that drift hits both.
    let mut echo = train::build_nmt(seed, Variant::Measured)?;
    let mut stash = train::build_nmt(seed, Variant::Reference)?;
    let (mut echo_ms, mut stash_ms) = (Vec::new(), Vec::new());
    let (mut echo_peak, mut stash_peak, mut replays) = (0, 0, 0);
    for i in 0..=reps(4) as u64 {
        let (e, s) = (
            echo.step(PROBE_OPS + i, tracer)?,
            stash.step(PROBE_OPS + i, &mut Tracer::new(false))?,
        );
        if i > 0 {
            echo_ms.push(e.total_ms);
            stash_ms.push(s.total_ms);
        }
        (echo_peak, stash_peak, replays) = (e.peak_bytes, s.peak_bytes, e.replays);
    }
    let (echo_ms, stash_ms) = (stats::median(&echo_ms), stats::median(&stash_ms));
    out.insert("graph.replays_per_step", replays as f64);
    out.insert("core.echo_step_ms", echo_ms);
    out.insert("core.stashall_step_ms", stash_ms);
    out.insert("core.stashall_peak_bytes", stash_peak as f64);
    out.insert("core.peak_reduction", stash_peak as f64 / echo_peak as f64);
    out.insert(
        "core.replay_overhead_share",
        (echo_ms - stash_ms) / stash_ms,
    );
    Ok(())
}

// ───────────────────────── models: pipeline ─────────────────────────

fn models_pipe(seed: u64, reps: &dyn Fn(usize) -> usize, out: &mut Out) -> Result<(), String> {
    let parts = pipe::Parts::new(seed)?;
    let steps = reps(6);

    let mut serial = parts.serial(seed)?;
    let mut i = 0;
    let serial_ms = median_ms(steps, || {
        black_box(serial.step(parts.batch(i)).expect("serial step"));
        i += 1;
    });
    drop(serial);

    let pipelined = |stages: usize| -> Result<(f64, u64, u64), String> {
        let (mut trainer, cut_bytes) = parts.pipeline(seed, stages)?;
        let (mut i, mut peak) = (0, 0);
        let ms = median_ms(steps, || {
            let report = trainer.train_step(parts.batch(i)).expect("pipeline step");
            peak = report.max_stage_peak_bytes();
            i += 1;
        });
        Ok((ms, cut_bytes, peak))
    };
    let (p1_ms, _, _) = pipelined(1)?;
    let (p2_ms, cut_bytes, stage_peak) = pipelined(2)?;
    out.insert("models.serial_step_ms", serial_ms);
    out.insert("models.pipe_p1_step_ms", p1_ms);
    out.insert("models.pipe_p2_step_ms", p2_ms);
    out.insert("models.pipe_p2_vs_serial", p2_ms / serial_ms);
    out.insert("models.pipe_cut_bytes", cut_bytes as f64);
    out.insert("models.pipe_stage_peak_bytes", stage_peak as f64);
    Ok(())
}

// ───────────────────────────── serve ─────────────────────────────

fn p90(sample: &[f64]) -> f64 {
    stats::percentile(&stats::sorted(sample), 90.0)
}

/// One decode step of the wide model at 8 lanes, outside any engine.
fn infer_step_ms(seed: u64, reps: usize) -> Result<f64, String> {
    let decoder = WordLmDecoder::build(serve::WIDE_HYPER);
    let mut exec = Executor::new(Arc::clone(&decoder.graph), StashPlan::stash_all(), mem());
    decoder
        .bind_params(&mut exec, gen::param_seed(seed))
        .map_err(|e| e.to_string())?;
    decoder
        .install_inference_plan(&mut exec, serve::MAX_BATCH)
        .map_err(|e| e.to_string())?;
    let tokens: Vec<u32> = (0..serve::MAX_BATCH as u32).map(|t| t * 101 + 7).collect();
    let mut states =
        vec![LmState::zero(serve::WIDE_HYPER.layers, serve::WIDE_HYPER.hidden); serve::MAX_BATCH];
    Ok(median_ms(reps, || {
        let (logits, next) = decoder
            .infer_step(&mut exec, &tokens, &states)
            .expect("decode step");
        black_box(logits);
        states = next;
    }))
}

fn serve_probes(seed: u64, reps: &dyn Fn(usize) -> usize, out: &mut Out) -> Result<(), String> {
    let infer_ms = infer_step_ms(seed, reps(30))?;
    out.insert("graph.infer_step_ms", infer_ms);

    // A short open-loop window on the wide model (`serve_wide_open`'s
    // load), sampling the queue at every admission.
    let load = serve::WIDE_OPEN;
    let mut engine = serve::start(&load, seed, serve::config())?;
    let mut off = Tracer::new(false);
    let before = engine.stats();
    let open = serve::drive(
        &engine,
        &load.requests(seed, reps(48)),
        None,
        &mut off,
        0,
        true,
    );
    let moved = serve::stats_delta(&before, &engine.stats());
    if let Some(e) = &open.window.first_failure {
        return Err(format!("open-loop probe: {e}"));
    }
    out.insert("serve.steps", moved.steps as f64);
    out.insert(
        "serve.step_ms",
        open.window.wall_s() * 1e3 / moved.steps as f64,
    );
    out.insert("serve.occupancy", moved.occupancy());
    out.insert("serve.churn_per_step", moved.churn_per_step());
    out.insert("serve.queue_depth_p90", p90(&open.queue_depths));
    out.insert("serve.ttft_p90_ms", p90(&open.window.ttft_ms));
    out.insert("serve.gap_p90_ms", p90(&open.window.gap_ms));
    out.insert("serve.latency_p90_ms", p90(&open.window.latency_ms));
    out.insert("serve.generator_lateness_p90_ms", p90(&open.lateness_ms));

    // The same engine's closed-loop capacity: 8 clients keep every lane
    // full, so wall time beyond steps × the bare step is the scheduler's.
    let closed_load = Load {
        clients: Some(serve::MAX_BATCH),
        rate: None,
        ..load
    };
    let mut requests = closed_load.requests(seed ^ 0x5e, reps(64));
    for r in &mut requests {
        r.session += 1 << 20;
    }
    let before = engine.stats();
    let closed = serve::drive(&engine, &requests, closed_load.clients, &mut off, 0, false);
    let moved = serve::stats_delta(&before, &engine.stats());
    engine.shutdown();
    if let Some(e) = &closed.window.first_failure {
        return Err(format!("closed-loop probe: {e}"));
    }
    let tokens: f64 = closed.window.tokens.iter().sum();
    out.insert(
        "serve.closed_capacity_tokens_per_s",
        tokens / closed.window.wall_s(),
    );
    out.insert(
        "serve.sched_overhead_share",
        1.0 - infer_ms * moved.steps as f64 / (closed.window.wall_s() * 1e3),
    );

    wire(seed, reps, out)?;
    session_cache(seed, out)
}

/// The toy model behind the line-protocol front end on loopback TCP:
/// 8 connections, each sending its next request when the round's replies
/// are all in.
fn wire(seed: u64, reps: &dyn Fn(usize) -> usize, out: &mut Out) -> Result<(), String> {
    let load = serve::TOY_CLOSED;
    let engine = Arc::new(serve::start(&load, seed, serve::config())?);
    let mut frontend = Frontend::start(Arc::clone(&engine), FrontendConfig::default())
        .map_err(|e| format!("Frontend::start: {e}"))?;
    let io = |e: std::io::Error| format!("wire: {e}");
    let mut connections = Vec::new();
    for _ in 0..serve::MAX_BATCH {
        let stream = TcpStream::connect(frontend.local_addr()).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        let reader = BufReader::new(stream.try_clone().map_err(io)?);
        connections.push((stream, reader));
    }

    let mut line = String::new();
    let mut pings = Vec::new();
    for _ in 0..reps(200) {
        let (stream, reader) = &mut connections[0];
        let start = Instant::now();
        stream.write_all(b"{\"op\":\"ping\"}\n").map_err(io)?;
        line.clear();
        reader.read_line(&mut line).map_err(io)?;
        pings.push(start.elapsed().as_secs_f64() * 1e6);
        if !line.contains("pong") {
            return Err(format!("wire: ping answered {line:?}"));
        }
    }
    out.insert("serve.wire_ping_us", stats::median(&pings));

    let rounds = reps(50);
    let requests = load.requests(seed ^ 0x31, rounds * serve::MAX_BATCH);
    let mut tokens = 0u64;
    let start = Instant::now();
    for round in requests.chunks(serve::MAX_BATCH) {
        for (r, (stream, _)) in round.iter().zip(&mut connections) {
            let text = format!(
                "{{\"op\":\"generate\",\"session\":{},\"prompt\":{:?},\"max_new_tokens\":{}}}\n",
                r.session + (1 << 21),
                r.prompt,
                r.max_new_tokens
            );
            stream.write_all(text.as_bytes()).map_err(io)?;
        }
        for (_, reader) in &mut connections {
            loop {
                line.clear();
                if reader.read_line(&mut line).map_err(io)? == 0 {
                    return Err("wire: connection closed mid-stream".into());
                }
                if line.contains("\"event\":\"token\"") {
                    tokens += 1;
                } else if line.contains("\"event\":\"done\"") {
                    break;
                } else {
                    return Err(format!("wire: unexpected line {line:?}"));
                }
            }
        }
    }
    out.insert(
        "serve.wire_tokens_per_s",
        tokens as f64 / start.elapsed().as_secs_f64(),
    );
    drop(connections);
    frontend.shutdown();
    // Connection handlers are detached threads that leave once their
    // client has gone; the engine stops when the last of them drops it.
    let mut engine = engine;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Arc::try_unwrap(engine) {
            Ok(mut owned) => {
                owned.shutdown();
                return Ok(());
            }
            Err(shared) if Instant::now() < deadline => {
                engine = shared;
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return Err("wire: connection handlers did not leave".into()),
        }
    }
}

/// 16 sessions taking turns on a cache that holds 8: every turn finds its
/// state evicted and replays the session's history.
fn session_cache(seed: u64, out: &mut Out) -> Result<(), String> {
    let load = serve::TOY_CLOSED;
    let config = ServeConfig {
        session_capacity: 8,
        ..serve::config()
    };
    let mut engine = Engine::start(load.hyper, gen::param_seed(seed), config)
        .map_err(|e| format!("Engine::start: {e}"))?;
    for turn in 0..6u32 {
        for session in 0..16u64 {
            engine
                .step(
                    session,
                    (turn * 7 + session as u32) % load.hyper.vocab as u32,
                )
                .map_err(|e| format!("step: {e}"))?;
        }
    }
    engine.shutdown();
    let stats = engine.stats();
    out.insert("serve.cache_hit_rate", stats.cache_hit_rate());
    out.insert("serve.rewarm_tokens", stats.rewarm_tokens as f64);
    Ok(())
}
