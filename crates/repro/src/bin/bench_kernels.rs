//! Kernel and train-step benchmark harness — the perf trajectory anchor.
//!
//! Times the two GEMM kernels on LSTM-shaped products from the paper's
//! configurations (word-LM: B=64, H=512 → 4H gate blocks; NMT: H=1024)
//! plus end-to-end `word_lm`/`nmt` train steps under the naive-pinned and
//! default (`Auto`) matmul policies, and writes `BENCH_kernels.json` at the
//! repo root so every future PR can be compared against this baseline.
//!
//! Flags:
//!
//! * `--quick` — fewer reps / steps (the CI configuration);
//! * `--gate`  — exit non-zero unless the packed-parallel kernel is at
//!   least 2× the naive kernel on the large word-LM-shaped GEMM (a
//!   coarse anti-regression gate);
//! * `--plan`  — additionally time the plan-driven `train_step` on
//!   scheduler-bound word-LM and NMT configurations (loss bits checked
//!   against the reference evaluator) and record the Echo-vs-stash-all
//!   planned peaks; with `--gate`, fail unless the Echo planned peak is
//!   strictly below stash-all.
//! * `--search` — sweep the cost-model stash-set search vs the O-shape
//!   heuristic: static planned peaks on word-LM, NMT and a GRU chain,
//!   plus step timing on NMT with each plan installed; with `--gate`,
//!   fail unless the searched NMT peak is strictly below the heuristic's
//!   at ≤ 1.15× its step time.
//! * `--fusion` — compile the word-LM (`Default` backend) with the GIR
//!   pipeline's CSE + fusion passes on and off, record forward/total
//!   launch-table lengths and the device-sim step-time delta (per-launch
//!   framework overhead makes the launch cut visible as wall time), and
//!   write the per-pass traces to `REPORT_passes.json`; with `--gate`,
//!   fail unless the fused forward launch table is strictly shorter than
//!   the unfused one. Fused and unfused loss bits must match
//!   unconditionally.
//! * `--pipeline` — run the pipelined trainer on an 8-layer word-LM
//!   stack with one simulated device per stage, record per-stage busy
//!   times and the analytic fill–drain projection at P ∈ {2, 4}, and
//!   check the losses stay bit-identical to serial; with `--gate`, fail
//!   unless the projected P=2 step (bubble and cut transfers included)
//!   beats the serial step.
//! * `--threads` — re-invoke this binary as a subprocess under
//!   `ECHO_NUM_THREADS` ∈ {1, 2, 4} (the worker pool is sized once per
//!   process, so each thread count needs a fresh process) and record the
//!   planned word-LM step time at each count; with `--gate`, fail unless
//!   the 4-thread step is strictly faster than 1-thread (skipped on
//!   hosts with fewer than 4 cores). Loss bits must match across thread
//!   counts unconditionally.
//!
//! Every run also times each available SIMD micro-kernel variant against
//! the scalar micro-kernel on the packed path; with `--gate`, the best
//! SIMD variant must be ≥ 1.5× scalar (skipped on hosts with neither
//! AVX2 nor NEON).
//!
//! Every run also re-checks the bit-exactness contract (packed bands
//! {1, 2, 4, 8} and end-to-end losses across policies) — a benchmark
//! that silently changed numerics would be worse than a slow one.

use echo::{EchoCompiler, EchoConfig, PassTrace, SearchReport, StashSelection};
use echo_data::{BpttBatches, LmCorpus, NmtBatch, ParallelCorpus, Vocab};
use echo_device::{CommModel, DeviceSim, DeviceSpec, PipelineModel, PipelineProjection};
use echo_graph::{partition_stages, ExecOptions, Executor, Gir, Graph, NodeId, StashPlan};
use echo_memory::{DeviceMemory, LayerKind};
use echo_models::{
    NmtHyper, NmtModel, PipelineOptions, PipelineTrainer, Sgd, Speedometer, WordLm, WordLmHyper,
};
use echo_ops::MeanAll;
use echo_rnn::{GruStep, LstmBackend};
use echo_tensor::init::{seeded_rng, uniform};
use echo_tensor::Tensor;
use echo_tensor::{
    available_micro_kernels, gemm, gemm_packed_parallel, gemm_packed_parallel_with,
    set_matmul_policy, MatViewMut, MatmulBackend, MatmulPolicy, MatrixLayout, MicroKernel, Shape,
};
use serde_json::json;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Median wall time of `reps` runs of `f`, in microseconds (one unmeasured
/// warm-up run first).
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    times[times.len() / 2]
}

struct GemmShapeResult {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    naive_us: f64,
    packed_us: f64,
}

fn bench_gemm_shape(
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    reps: usize,
) -> GemmShapeResult {
    let mut rng = seeded_rng(9);
    let a = uniform(Shape::d2(m, k), 1.0, &mut rng);
    let b = uniform(Shape::d2(k, n), 1.0, &mut rng);
    let mut c = vec![0.0f32; m * n];
    let ways = echo_tensor::pool::global().num_threads();

    let naive_us = median_us(reps, || {
        gemm::gemm(
            1.0,
            a.as_mat(),
            b.as_mat(),
            0.0,
            &mut MatViewMut::new(&mut c, m, n, MatrixLayout::RowMajor),
        )
        .expect("gemm");
    });
    let packed_us = median_us(reps, || {
        gemm_packed_parallel(
            1.0,
            a.as_mat(),
            b.as_mat(),
            0.0,
            &mut MatViewMut::new(&mut c, m, n, MatrixLayout::RowMajor),
            ways,
        )
        .expect("gemm");
    });
    GemmShapeResult {
        name,
        m,
        k,
        n,
        naive_us,
        packed_us,
    }
}

/// Packed bands {1, 2, 4, 8} must produce the same bits on the big shape.
fn check_band_bitexactness(m: usize, k: usize, n: usize) -> bool {
    let mut rng = seeded_rng(17);
    let a = uniform(Shape::d2(m, k), 1.0, &mut rng);
    let b = uniform(Shape::d2(k, n), 1.0, &mut rng);
    let mut reference = vec![0.0f32; m * n];
    gemm::gemm(
        1.0,
        a.as_mat(),
        b.as_mat(),
        0.0,
        &mut MatViewMut::new(&mut reference, m, n, MatrixLayout::RowMajor),
    )
    .expect("gemm");
    for ways in [1usize, 2, 4, 8] {
        let mut c = vec![0.0f32; m * n];
        gemm_packed_parallel(
            1.0,
            a.as_mat(),
            b.as_mat(),
            0.0,
            &mut MatViewMut::new(&mut c, m, n, MatrixLayout::RowMajor),
            ways,
        )
        .expect("gemm");
        if c.iter()
            .zip(&reference)
            .any(|(x, y)| x.to_bits() != y.to_bits())
        {
            return false;
        }
    }
    true
}

/// Times every available micro-kernel variant (scalar always; AVX2/NEON
/// where the host supports them) on the packed path at the default
/// tiling, single-banded so the comparison isolates the inner kernel.
fn bench_micro_kernels(m: usize, k: usize, n: usize, reps: usize) -> Vec<(MicroKernel, f64)> {
    let mut rng = seeded_rng(11);
    let a = uniform(Shape::d2(m, k), 1.0, &mut rng);
    let b = uniform(Shape::d2(k, n), 1.0, &mut rng);
    let mut c = vec![0.0f32; m * n];
    available_micro_kernels()
        .into_iter()
        .map(|kernel| {
            let us = median_us(reps, || {
                gemm_packed_parallel_with(
                    1.0,
                    a.as_mat(),
                    b.as_mat(),
                    0.0,
                    &mut MatViewMut::new(&mut c, m, n, MatrixLayout::RowMajor),
                    1,
                    kernel,
                    256,
                    128,
                )
                .expect("gemm");
            });
            (kernel, us)
        })
        .collect()
}

/// One row of the `--threads` sweep: thread count, mean planned word-LM
/// step time in nanoseconds, and the per-step loss bits (which must be
/// identical at every thread count).
struct ThreadsRow {
    threads: usize,
    ns_per_step: u64,
    loss_bits: Vec<u32>,
}

/// Hidden `--threads-worker` mode: runs plan-driven word-LM train steps
/// under whatever `ECHO_NUM_THREADS` sized the global pool to, and
/// prints one parseable result line. The parent process (`--threads`)
/// re-invokes the binary once per thread count because the worker pool —
/// and therefore how many row bands the GEMM, elementwise, softmax and
/// layer-norm kernels split into — is fixed at first use for the life of
/// the process.
fn threads_worker(quick: bool) {
    set_matmul_policy(MatmulPolicy::Auto);
    let steps = if quick { 3 } else { 8 };
    let hyper = WordLmHyper {
        vocab: 500,
        embed: 128,
        hidden: 256,
        layers: 1,
        seq_len: 16,
        backend: LstmBackend::CuDnn,
    };
    let lm = WordLm::build(hyper);
    let corpus = LmCorpus::synthetic(Vocab::new(500), 4000, 0.9, 5);
    let batch = BpttBatches::new(corpus.tokens(), 16, lm.hyper.seq_len)
        .next()
        .expect("batch");
    let bindings = lm.bindings(&batch);
    let mut exec = Executor::new(Arc::clone(&lm.graph), StashPlan::stash_all(), mem());
    lm.bind_params(&mut exec, 3).expect("bind");
    lm.install_exec_plan(&mut exec, 16).expect("plan installs");
    let mut step = || -> (f64, u32) {
        let start = Instant::now();
        let stats = exec
            .train_step(&bindings, lm.loss, ExecOptions::default(), None)
            .expect("train step");
        (
            start.elapsed().as_secs_f64() * 1e9,
            stats.loss.expect("loss").to_bits(),
        )
    };
    step(); // warm-up: pools, plan caches
    let mut ns = Vec::with_capacity(steps);
    let mut bits = Vec::with_capacity(steps);
    for _ in 0..steps {
        let (t, b) = step();
        ns.push(t);
        bits.push(b);
    }
    let joined: Vec<String> = bits.iter().map(|b| b.to_string()).collect();
    println!(
        "threads_worker ns_per_step={} loss_bits={}",
        mean(&ns) as u64,
        joined.join(",")
    );
}

/// Re-invokes this binary under `ECHO_NUM_THREADS` ∈ {1, 2, 4} and
/// collects each worker's result line.
fn threads_sweep(quick: bool) -> Vec<ThreadsRow> {
    let exe = std::env::current_exe().expect("current exe");
    [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("--threads-worker")
                .env("ECHO_NUM_THREADS", threads.to_string());
            if quick {
                cmd.arg("--quick");
            }
            let out = cmd.output().expect("threads worker spawns");
            assert!(
                out.status.success(),
                "threads worker (ECHO_NUM_THREADS={threads}) failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout
                .lines()
                .find_map(|l| l.strip_prefix("threads_worker "))
                .expect("worker result line");
            let field = |key: &str| -> &str {
                line.split_whitespace()
                    .find_map(|kv| kv.strip_prefix(key))
                    .expect("worker field")
            };
            ThreadsRow {
                threads,
                ns_per_step: field("ns_per_step=").parse().expect("ns_per_step"),
                loss_bits: field("loss_bits=")
                    .split(',')
                    .map(|b| b.parse().expect("loss bits"))
                    .collect(),
            }
        })
        .collect()
}

fn mem() -> DeviceMemory {
    DeviceMemory::with_overhead_model(4 << 30, 0, 0.0)
}

/// Times `steps` word-LM train steps under a policy; returns per-step
/// milliseconds and per-step loss bits (fresh executor per call, so runs
/// under different policies see identical work).
fn word_lm_steps(policy: MatmulPolicy, steps: usize) -> (Vec<f64>, Vec<u32>) {
    set_matmul_policy(policy);
    let hyper = WordLmHyper {
        vocab: 500,
        embed: 128,
        hidden: 256,
        layers: 1,
        seq_len: 16,
        backend: LstmBackend::CuDnn,
    };
    let lm = WordLm::build(hyper);
    let mut exec = Executor::new(Arc::clone(&lm.graph), StashPlan::stash_all(), mem());
    lm.bind_params(&mut exec, 3).expect("bind");
    let corpus = LmCorpus::synthetic(Vocab::new(500), 6000, 0.9, 5);
    let batches: Vec<_> = BpttBatches::new(corpus.tokens(), 16, lm.hyper.seq_len)
        .take(steps)
        .collect();
    let mut sgd = Sgd::new(0.5).with_clip_norm(5.0);
    let mut step_ms = Vec::new();
    let mut loss_bits = Vec::new();
    for batch in &batches {
        let start = Instant::now();
        let stats = exec
            .train_step(&lm.bindings(batch), lm.loss, ExecOptions::default(), None)
            .expect("train step");
        sgd.step(&mut exec);
        step_ms.push(start.elapsed().as_secs_f64() * 1e3);
        loss_bits.push(stats.loss.expect("loss").to_bits());
    }
    (step_ms, loss_bits)
}

/// Same as [`word_lm_steps`] for the NMT model (encoder + attention
/// decoder — the shape mix that stresses both GEMM and softmax paths).
fn nmt_steps(policy: MatmulPolicy, steps: usize) -> (Vec<f64>, Vec<u32>) {
    set_matmul_policy(policy);
    let corpus = ParallelCorpus::synthetic(Vocab::new(120), Vocab::new(110), 400, 6..=10, 5);
    let mut hyper = NmtHyper::tiny(corpus.src_vocab().size(), corpus.tgt_vocab().size());
    hyper.hidden = 256;
    hyper.embed = 128;
    hyper.src_len = 10;
    hyper.tgt_len = 11;
    let model = NmtModel::build(hyper);
    let mut exec = Executor::new(Arc::clone(&model.graph), StashPlan::stash_all(), mem());
    model.bind_params(&mut exec, 2).expect("bind");
    let batches: Vec<_> = NmtBatch::bucketed(corpus.pairs(), 16)
        .into_iter()
        .take(steps)
        .collect();
    let mut sgd = Sgd::new(1.0).with_clip_norm(5.0);
    let mut step_ms = Vec::new();
    let mut loss_bits = Vec::new();
    for batch in &batches {
        let start = Instant::now();
        let stats = exec
            .train_step(
                &model.bindings(batch),
                model.loss,
                ExecOptions::default(),
                None,
            )
            .expect("train step");
        sgd.step(&mut exec);
        step_ms.push(start.elapsed().as_secs_f64() * 1e3);
        loss_bits.push(stats.loss.expect("loss").to_bits());
    }
    (step_ms, loss_bits)
}

/// Times `steps` calls of `run_step` (each returning its wall ms and loss
/// bits) after one warm-up call (pools, lazy kernel state).
fn plan_bench(mut run_step: impl FnMut() -> (f64, u32), steps: usize) -> (Vec<f64>, Vec<u32>) {
    run_step();
    (0..steps).map(|_| run_step()).unzip()
}

/// Times bare `train_step` calls (no optimizer, bindings prebuilt, plan
/// installed) on one model. The configurations are deliberately
/// *scheduler-bound* — the unfused per-step LSTM backend with small GEMMs
/// — so the figure tracks interpreter overhead per launch, not GEMM
/// flops. Every step's loss must equal the reference evaluator's, bit for
/// bit (nothing updates the parameters between steps).
fn planned_step_ms(
    exec: &mut Executor,
    bindings: &HashMap<NodeId, Tensor>,
    loss: NodeId,
    steps: usize,
) -> Vec<f64> {
    let params: HashMap<NodeId, Tensor> = exec.export_params().into_iter().collect();
    let (oracle_loss, _) =
        echo_graph::reference::train_step(exec.graph(), &params, bindings, loss).expect("oracle");
    let step = || {
        let start = Instant::now();
        let stats = exec
            .train_step(bindings, loss, ExecOptions::default(), None)
            .expect("train step");
        (
            start.elapsed().as_secs_f64() * 1e3,
            stats.loss.expect("loss").to_bits(),
        )
    };
    let (ms, bits) = plan_bench(step, steps);
    assert!(
        bits.iter().all(|&b| b == oracle_loss.to_bits()),
        "plan-driven losses diverged from the reference evaluator — numerics bug"
    );
    ms
}

/// Step timing on the scheduler-bound word-LM (unfused per-step LSTM,
/// paper topology at reduced width).
fn plan_bench_word_lm(steps: usize) -> Vec<f64> {
    set_matmul_policy(MatmulPolicy::Auto);
    let hyper = WordLmHyper {
        vocab: 60,
        embed: 16,
        hidden: 16,
        layers: 2,
        seq_len: 64,
        backend: LstmBackend::Default,
    };
    let lm = WordLm::build(hyper);
    let corpus = LmCorpus::synthetic(Vocab::new(60), 2000, 0.9, 5);
    let batch = BpttBatches::new(corpus.tokens(), 4, lm.hyper.seq_len)
        .next()
        .expect("batch");
    let mut exec = Executor::new(Arc::clone(&lm.graph), StashPlan::stash_all(), mem());
    lm.bind_params(&mut exec, 3).expect("bind");
    lm.install_exec_plan(&mut exec, 4).expect("plan installs");
    planned_step_ms(&mut exec, &lm.bindings(&batch), lm.loss, steps)
}

/// Step timing on a small NMT bucket (fixed bucket lengths, so the plan
/// applies to every batch).
fn plan_bench_nmt(steps: usize) -> Vec<f64> {
    set_matmul_policy(MatmulPolicy::Auto);
    let corpus = ParallelCorpus::synthetic(Vocab::new(100), Vocab::new(90), 200, 5..=8, 5);
    let model = NmtModel::build(NmtHyper::tiny(
        corpus.src_vocab().size(),
        corpus.tgt_vocab().size(),
    ));
    let batch = NmtBatch::bucketed(corpus.pairs(), 8).remove(0);
    let mut exec = Executor::new(Arc::clone(&model.graph), StashPlan::stash_all(), mem());
    model.bind_params(&mut exec, 2).expect("bind");
    model
        .install_exec_plan(&mut exec, 8)
        .expect("plan installs");
    planned_step_ms(&mut exec, &model.bindings(&batch), model.loss, steps)
}

/// Planned peaks of the Echo plan vs the stash-all baseline on the NMT
/// model — the compiler's static numbers, not runtime measurements.
fn planned_peaks_nmt() -> (u64, u64) {
    let model = NmtModel::build(NmtHyper::tiny(100, 90));
    let bindings = model.symbolic_bindings(8);
    let compile = |config: EchoConfig| {
        EchoCompiler::new(config)
            .compile(
                &model.graph,
                &bindings,
                &model.param_shapes(),
                &[model.loss, model.logits],
            )
            .expect("compile")
            .report
            .planned_peak_bytes
            .expect("exec plan built")
    };
    (
        compile(EchoConfig::default()),
        compile(EchoConfig::baseline()),
    )
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// One model of the search sweep: heuristic-vs-searched planned peaks.
struct SearchRow {
    name: &'static str,
    report: SearchReport,
}

/// Compiles one model under `StashSelection::Search` and returns the
/// search report (which carries the stash-all and heuristic reference
/// peaks alongside the winner's).
fn search_peaks(
    name: &'static str,
    graph: &Arc<Graph>,
    bindings: &HashMap<NodeId, Tensor>,
    params: &HashMap<NodeId, echo_tensor::Shape>,
    protected: &[NodeId],
) -> SearchRow {
    let compiled = EchoCompiler::new(EchoConfig {
        selection: StashSelection::Search { flop_budget: 1.0 },
        ..EchoConfig::default()
    })
    .compile(graph, bindings, params, protected)
    .expect("search compile");
    SearchRow {
        name,
        report: compiled.report.search.expect("search report"),
    }
}

/// A GRU chain (fused recurrent steps, no GEMM-free interior): the
/// degenerate end of the sweep, where the search must fall back to the
/// heuristic rather than inventing recomputation.
fn gru_chain_case() -> (
    Arc<Graph>,
    HashMap<NodeId, Tensor>,
    HashMap<NodeId, echo_tensor::Shape>,
    NodeId,
) {
    let (b, h, steps) = (8usize, 32usize, 8usize);
    let mut g = Graph::new();
    let h0 = g.input("h0", LayerKind::Rnn);
    let wx = g.param("wx", LayerKind::Rnn);
    let wh = g.param("wh", LayerKind::Rnn);
    let bias = g.param("bias", LayerKind::Rnn);
    let mut bindings = HashMap::new();
    bindings.insert(h0, Tensor::zeros(echo_tensor::Shape::d2(b, h)));
    let mut state = h0;
    for t in 0..steps {
        let x = g.input(format!("x{t}"), LayerKind::Rnn);
        bindings.insert(x, Tensor::zeros(echo_tensor::Shape::d2(b, h)));
        state = g.apply(
            format!("gru{t}"),
            Arc::new(GruStep::new(h)),
            &[x, state, wx, wh, bias],
            LayerKind::Rnn,
        );
    }
    let loss = g.apply("loss", Arc::new(MeanAll), &[state], LayerKind::Output);
    let mut params = HashMap::new();
    params.insert(wx, echo_tensor::Shape::d2(3 * h, h));
    params.insert(wh, echo_tensor::Shape::d2(3 * h, h));
    params.insert(bias, echo_tensor::Shape::d1(6 * h));
    (Arc::new(g), bindings, params, loss)
}

/// Outcome of the heuristic-vs-searched NMT step timing.
struct SearchStepBench {
    heuristic_ms: Vec<f64>,
    searched_ms: Vec<f64>,
    heuristic_replays: f64,
    searched_replays: f64,
    ratio: f64,
}

/// Times full train steps on the NMT bucket with the heuristic plan vs
/// the searched plan attached (both plan-driven). Losses must stay
/// bit-identical — recomputation choices may never change numerics.
fn search_bench_nmt(steps: usize) -> SearchStepBench {
    set_matmul_policy(MatmulPolicy::Auto);
    let corpus = ParallelCorpus::synthetic(Vocab::new(100), Vocab::new(90), 200, 5..=8, 5);
    let model = NmtModel::build(NmtHyper::tiny(
        corpus.src_vocab().size(),
        corpus.tgt_vocab().size(),
    ));
    let batch = NmtBatch::bucketed(corpus.pairs(), 8).remove(0);
    let bindings = model.bindings(&batch);

    let make = |selection: StashSelection| {
        let mut exec = Executor::new(Arc::clone(&model.graph), StashPlan::stash_all(), mem());
        model.bind_params(&mut exec, 2).expect("bind");
        EchoCompiler::new(EchoConfig {
            selection,
            ..EchoConfig::default()
        })
        .attach(
            &mut exec,
            &bindings,
            &model.param_shapes(),
            &[model.loss, model.logits],
        )
        .expect("attach");
        exec
    };
    let mut heuristic_exec = make(StashSelection::Heuristic);
    let mut searched_exec = make(StashSelection::Search { flop_budget: 1.0 });
    let batch_size = batch.batch;
    let run = |exec: &mut Executor| -> (Vec<f64>, Vec<u32>, Speedometer) {
        let mut meter = Speedometer::new();
        let step = |exec: &mut Executor, meter: &mut Speedometer| -> (f64, u32) {
            let start = Instant::now();
            let stats = exec
                .train_step(&bindings, model.loss, ExecOptions::default(), None)
                .expect("train step");
            meter.record_with_replays(batch_size, stats.sim_ns.unwrap_or(0), stats.replays);
            (
                start.elapsed().as_secs_f64() * 1e3,
                stats.loss.expect("loss").to_bits(),
            )
        };
        let (ms, bits) = plan_bench(|| step(exec, &mut meter), steps);
        (ms, bits, meter)
    };
    let (heuristic_ms, heuristic_bits, heuristic_meter) = run(&mut heuristic_exec);
    let (searched_ms, searched_bits, searched_meter) = run(&mut searched_exec);
    assert_eq!(
        heuristic_bits, searched_bits,
        "searched-plan nmt losses diverged from heuristic — numerics bug"
    );
    SearchStepBench {
        ratio: mean(&searched_ms) / mean(&heuristic_ms),
        heuristic_replays: heuristic_meter.replays_per_iteration(),
        searched_replays: searched_meter.replays_per_iteration(),
        heuristic_ms,
        searched_ms,
    }
}

/// Fused-vs-unfused word-LM on the `Default` backend — the many-op cell
/// graph the GIR fusion passes rewrite. Captures launch-table lengths,
/// simulated step times (with per-launch framework overhead, so the
/// launch-count cut shows up as wall time), and the fused pipeline's
/// per-pass traces.
struct FusionBench {
    unfused_fwd_launches: usize,
    fused_fwd_launches: usize,
    unfused_launches: usize,
    fused_launches: usize,
    unfused_sim_ns: u64,
    fused_sim_ns: u64,
    passes: Vec<PassTrace>,
}

fn fusion_bench() -> FusionBench {
    let hyper = WordLmHyper {
        vocab: 500,
        embed: 128,
        hidden: 256,
        layers: 1,
        seq_len: 16,
        backend: LstmBackend::Default,
    };
    let lm = WordLm::build(hyper);
    let corpus = LmCorpus::synthetic(Vocab::new(500), 6000, 0.9, 5);
    let batch = BpttBatches::new(corpus.tokens(), 16, lm.hyper.seq_len)
        .next()
        .expect("batch");
    let bindings = lm.bindings(&batch);

    let run = |fusion: bool| {
        let compiled = EchoCompiler::new(EchoConfig {
            fusion,
            cse: fusion,
            ..EchoConfig::default()
        })
        .compile(&lm.graph, &bindings, &lm.param_shapes(), &[lm.loss])
        .expect("compile");
        let mut exec = Executor::new(Arc::clone(&lm.graph), StashPlan::stash_all(), mem());
        lm.bind_params(&mut exec, 3).expect("bind");
        if let Some(graph) = &compiled.graph {
            exec.set_graph(Arc::clone(graph)).expect("set graph");
        }
        exec.set_plan(compiled.plan.clone());
        let exec_plan = Arc::clone(compiled.exec_plan.as_ref().expect("lowered plan"));
        exec.set_exec_plan(Arc::clone(&exec_plan)).expect("install");
        let mut sim = DeviceSim::new(DeviceSpec::titan_xp());
        sim.set_op_overhead_ns(echo_repro::FRAMEWORK_OP_OVERHEAD_NS);
        let stats = exec
            .train_step(&bindings, lm.loss, ExecOptions::default(), Some(&mut sim))
            .expect("train step");
        (
            exec_plan.forward_launch_count(),
            exec_plan.launch_count(),
            sim.elapsed_ns(),
            stats.loss.expect("loss").to_bits(),
            compiled.report.passes,
        )
    };
    let (unfused_fwd, unfused_all, unfused_ns, unfused_bits, _) = run(false);
    let (fused_fwd, fused_all, fused_ns, fused_bits, passes) = run(true);
    assert_eq!(
        fused_bits, unfused_bits,
        "fused word_lm loss diverged from unfused — fusion numerics bug"
    );
    FusionBench {
        unfused_fwd_launches: unfused_fwd,
        fused_fwd_launches: fused_fwd,
        unfused_launches: unfused_all,
        fused_launches: fused_all,
        unfused_sim_ns: unfused_ns,
        fused_sim_ns: fused_ns,
        passes,
    }
}

/// One stage count of the `--pipeline` sweep: per-stage simulated busy
/// times, the busiest-stage critical path, and the fill–drain projection
/// with cut transfers over PCIe.
struct PipelinePoint {
    stages: usize,
    busy_ns: Vec<u64>,
    critical_ns: u64,
    projection: PipelineProjection,
}

struct PipelineBench {
    serial_ns: u64,
    loss_bits: u32,
    points: Vec<PipelinePoint>,
}

fn pipeline_bench(quick: bool) -> PipelineBench {
    const LANES: usize = 16;
    const MICRO: usize = 4;
    let steps = if quick { 2 } else { 4 };
    // The gate config: a stack deep enough that a 2-way layer cut leaves
    // both stages with real work relative to the cut traffic.
    let lm = WordLm::build(WordLmHyper {
        vocab: 40,
        embed: 12,
        hidden: 16,
        layers: 8,
        seq_len: 6,
        backend: LstmBackend::Default,
    });
    let plan = EchoCompiler::new(EchoConfig::default())
        .compile(
            &lm.graph,
            &lm.symbolic_bindings(LANES / MICRO),
            &lm.param_shapes(),
            &[lm.loss, lm.logits],
        )
        .expect("compile")
        .plan;
    let corpus = LmCorpus::synthetic(Vocab::new(40), 8_000, 0.9, 5);
    let batches: Vec<_> = BpttBatches::new(corpus.tokens(), LANES, lm.hyper.seq_len)
        .take(steps)
        .collect();
    let binding_shapes: HashMap<NodeId, Shape> = lm
        .symbolic_bindings(LANES / MICRO)
        .iter()
        .map(|(&id, t)| (id, t.shape().clone()))
        .collect();
    let gir = Gir::from_graph(
        Arc::clone(&lm.graph),
        &binding_shapes,
        &lm.param_shapes(),
        &[lm.loss],
    )
    .expect("gir");

    let measure = |stages: usize| -> (Vec<u64>, u32) {
        let partition = partition_stages(&gir, stages).expect("partition");
        let mut template = Executor::new(Arc::clone(&lm.graph), plan.clone(), mem());
        lm.bind_params(&mut template, 23).expect("bind");
        let mut trainer = PipelineTrainer::for_word_lm(
            &lm,
            template,
            &partition,
            &plan,
            LANES,
            &PipelineOptions::new(1, MICRO).with_sim(DeviceSpec::titan_xp()),
            Box::new(Sgd::new(0.5).with_clip_norm(5.0)),
        )
        .expect("trainer");
        let mut busy = vec![0u64; stages];
        let mut loss_bits = 0u32;
        for batch in &batches {
            let report = trainer.train_step(batch).expect("step");
            loss_bits = report.loss.to_bits();
            for stat in &report.stages {
                busy[stat.stage] += stat.sim_ns;
            }
        }
        for b in &mut busy {
            *b /= steps as u64;
        }
        (busy, loss_bits)
    };

    let (serial_busy, serial_bits) = measure(1);
    let serial_ns = serial_busy[0];
    let mut points = Vec::new();
    for stages in [2usize, 4] {
        let (busy, bits) = measure(stages);
        assert_eq!(
            bits, serial_bits,
            "P={stages} word-LM loss diverged from serial — pipeline numerics bug"
        );
        // Split each stage's busy time into per-micro forward/backward
        // under the bwd = 2·fwd convention: every stage re-forwards in
        // the drain, every stage but the last also forwards in the fill.
        let (stage_fwd_ns, stage_bwd_ns): (Vec<u64>, Vec<u64>) = busy
            .iter()
            .enumerate()
            .map(|(s, &b)| {
                let fwd = if s + 1 == stages {
                    b / (3 * MICRO as u64)
                } else {
                    b / (4 * MICRO as u64)
                };
                (fwd, 2 * fwd)
            })
            .unzip();
        let partition = partition_stages(&gir, stages).expect("partition");
        let projection = PipelineModel {
            stage_fwd_ns,
            stage_bwd_ns,
            cut_bytes: partition.cut_bytes(),
            comm: CommModel::pcie_gen3(),
        }
        .project(MICRO);
        points.push(PipelinePoint {
            stages,
            critical_ns: *busy.iter().max().expect("stages"),
            busy_ns: busy,
            projection,
        });
    }
    PipelineBench {
        serial_ns,
        loss_bits: serial_bits,
        points,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = args.iter().any(|a| a == "--gate");
    let plan = args.iter().any(|a| a == "--plan");
    let search = args.iter().any(|a| a == "--search");
    let fusion = args.iter().any(|a| a == "--fusion");
    let pipeline = args.iter().any(|a| a == "--pipeline");
    let threads_mode = args.iter().any(|a| a == "--threads");
    if args.iter().any(|a| a == "--threads-worker") {
        threads_worker(quick);
        return;
    }
    let reps = if quick { 3 } else { 7 };
    let steps = if quick { 3 } else { 6 };

    let threads = echo_tensor::pool::global().num_threads();
    println!("kernel worker pool: {threads} thread(s)");

    // ---- GEMM shapes from the paper's LSTM configurations -------------
    // word-LM (Zhu et al. setting): B=64, H=512 → the fused gate product
    // is [B x H] · [H x 4H]. NMT: H=1024. The dW backward shape has the
    // reduction over the batch. Attention scoring is a skinny product.
    let shapes: Vec<(&'static str, usize, usize, usize)> = vec![
        ("wordlm_gates_64x512x2048", 64, 512, 2048),
        ("wordlm_dw_512x64x2048", 512, 64, 2048),
        ("nmt_gates_64x1024x4096", 64, 1024, 4096),
        ("attention_scores_64x1024x50", 64, 1024, 50),
    ];
    let mut gemm_rows = Vec::new();
    let mut gemm_json = Vec::new();
    let mut packed_speedups = Vec::new();
    for &(name, m, k, n) in &shapes {
        let r = bench_gemm_shape(name, m, k, n, reps);
        let speedup_packed = r.naive_us / r.packed_us;
        packed_speedups.push(speedup_packed);
        gemm_rows.push(vec![
            r.name.to_string(),
            format!("{:.0}", r.naive_us),
            format!("{:.0}", r.packed_us),
            format!("{speedup_packed:.2}x"),
        ]);
        gemm_json.push(json!({
            "name": r.name,
            "m": r.m, "k": r.k, "n": r.n,
            "naive_us": r.naive_us,
            "packed_us": r.packed_us,
            "speedup_packed_vs_naive": speedup_packed,
        }));
    }
    echo_repro::print_table(
        "GEMM kernels (median us)",
        &["shape", "naive", "packed", "packed-speedup"],
        &gemm_rows,
    );

    // ---- SIMD micro-kernel variants -----------------------------------
    // Single-banded on the word-LM gate shape, so the numbers isolate the
    // inner MR×NR kernel (scalar vs AVX2/NEON) from thread scaling.
    let (mk_name, mk_m, mk_k, mk_n) = shapes[0];
    let micro = bench_micro_kernels(mk_m, mk_k, mk_n, reps);
    let scalar_us = micro
        .iter()
        .find(|(k, _)| *k == MicroKernel::Scalar)
        .expect("scalar kernel is always available")
        .1;
    echo_repro::print_table(
        &format!("packed micro-kernels on {mk_name} (median us, 1 band)"),
        &["kernel", "us", "vs scalar"],
        &micro
            .iter()
            .map(|(k, us)| {
                vec![
                    k.name().to_string(),
                    format!("{us:.0}"),
                    format!("{:.2}x", scalar_us / us),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let micro_json: Vec<_> = micro
        .iter()
        .map(|(k, us)| {
            json!({
                "kernel": k.name(),
                "us": us,
                "speedup_vs_scalar": scalar_us / us,
            })
        })
        .collect();
    let best_simd = micro
        .iter()
        .filter(|(k, _)| *k != MicroKernel::Scalar)
        .map(|&(k, us)| (k, scalar_us / us))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"));

    // ---- Thread-count sweep (--threads) -------------------------------
    let mut threads_json = serde_json::Value::Null;
    let mut threads_rows: Vec<ThreadsRow> = Vec::new();
    if threads_mode {
        threads_rows = threads_sweep(quick);
        for row in &threads_rows[1..] {
            assert_eq!(
                row.loss_bits, threads_rows[0].loss_bits,
                "planned word_lm losses diverged at {} threads — kernel banding numerics bug",
                row.threads
            );
        }
        echo_repro::print_table(
            "planned word_lm step vs worker-pool size (mean ns)",
            &["threads", "ns/step", "vs 1 thread"],
            &threads_rows
                .iter()
                .map(|r| {
                    vec![
                        r.threads.to_string(),
                        r.ns_per_step.to_string(),
                        format!(
                            "{:.2}x",
                            threads_rows[0].ns_per_step as f64 / r.ns_per_step as f64
                        ),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        threads_json = json!(threads_rows
            .iter()
            .map(|r| {
                json!({
                    "threads": r.threads,
                    "ns_per_step": r.ns_per_step,
                    "speedup_vs_1t": threads_rows[0].ns_per_step as f64 / r.ns_per_step as f64,
                    "loss_bits": r.loss_bits,
                })
            })
            .collect::<Vec<_>>());
    }

    // ---- Bit-exactness re-checks --------------------------------------
    let bands_ok = check_band_bitexactness(64, 512, 2048);
    assert!(bands_ok, "packed bands {{1,2,4,8}} diverged — numerics bug");

    // ---- End-to-end train steps ---------------------------------------
    let (lm_naive_ms, lm_naive_loss) =
        word_lm_steps(MatmulPolicy::Fixed(MatmulBackend::Naive), steps);
    let (lm_auto_ms, lm_auto_loss) = word_lm_steps(MatmulPolicy::Auto, steps);
    assert_eq!(
        lm_naive_loss, lm_auto_loss,
        "word_lm losses diverged across matmul policies — numerics bug"
    );
    let (nmt_naive_ms, nmt_naive_loss) =
        nmt_steps(MatmulPolicy::Fixed(MatmulBackend::Naive), steps);
    let (nmt_auto_ms, nmt_auto_loss) = nmt_steps(MatmulPolicy::Auto, steps);
    assert_eq!(
        nmt_naive_loss, nmt_auto_loss,
        "nmt losses diverged across matmul policies — numerics bug"
    );
    set_matmul_policy(MatmulPolicy::Auto);

    let lm_speedup = mean(&lm_naive_ms) / mean(&lm_auto_ms);
    let nmt_speedup = mean(&nmt_naive_ms) / mean(&nmt_auto_ms);
    echo_repro::print_table(
        "end-to-end train step (mean ms)",
        &["model", "naive policy", "auto policy", "speedup"],
        &[
            vec![
                "word_lm".into(),
                format!("{:.1}", mean(&lm_naive_ms)),
                format!("{:.1}", mean(&lm_auto_ms)),
                format!("{lm_speedup:.2}x"),
            ],
            vec![
                "nmt".into(),
                format!("{:.1}", mean(&nmt_naive_ms)),
                format!("{:.1}", mean(&nmt_auto_ms)),
                format!("{nmt_speedup:.2}x"),
            ],
        ],
    );

    // ---- Plan-driven hot loop (--plan) --------------------------------
    let mut plan_json = serde_json::Value::Null;
    if plan {
        let plan_steps = if quick { 5 } else { 12 };
        let lm_ms = plan_bench_word_lm(plan_steps);
        let nmt_ms = plan_bench_nmt(plan_steps);
        let (echo_peak, stash_all_peak) = planned_peaks_nmt();
        echo_repro::print_table(
            "plan-driven train step (mean ms, loss bits == reference evaluator)",
            &["model", "planned"],
            &[
                vec!["word_lm (unfused)".into(), format!("{:.2}", mean(&lm_ms))],
                vec!["nmt".into(), format!("{:.2}", mean(&nmt_ms))],
            ],
        );
        println!(
            "planned peaks (NMT): echo {:.2} MiB vs stash-all {:.2} MiB",
            echo_peak as f64 / (1 << 20) as f64,
            stash_all_peak as f64 / (1 << 20) as f64,
        );
        plan_json = json!({
            "word_lm": { "planned_ms": lm_ms },
            "nmt": { "planned_ms": nmt_ms },
            "planned_peak_bytes": {
                "nmt_echo": echo_peak,
                "nmt_stash_all": stash_all_peak,
            },
        });
        if gate {
            assert!(
                echo_peak < stash_all_peak,
                "plan gate: echo planned peak {echo_peak} not below stash-all {stash_all_peak}"
            );
            println!("plan gate passed: echo peak {echo_peak} < stash-all {stash_all_peak}");
        }
    }

    // ---- Stash-set search vs O-shape heuristic (--search) -------------
    let mut search_json = serde_json::Value::Null;
    if search {
        let lm = WordLm::build(WordLmHyper::tiny(60, LstmBackend::CuDnn));
        let nmt = NmtModel::build(NmtHyper::tiny(100, 90));
        let (gru_graph, gru_bindings, gru_params, gru_loss) = gru_chain_case();
        let rows = [
            search_peaks(
                "word_lm",
                &lm.graph,
                &lm.symbolic_bindings(8),
                &lm.param_shapes(),
                &[lm.loss, lm.logits],
            ),
            search_peaks(
                "nmt",
                &nmt.graph,
                &nmt.symbolic_bindings(8),
                &nmt.param_shapes(),
                &[nmt.loss, nmt.logits],
            ),
            search_peaks(
                "gru_chain",
                &gru_graph,
                &gru_bindings,
                &gru_params,
                &[gru_loss],
            ),
        ];
        echo_repro::print_table(
            "stash-set search vs heuristic (planned peak bytes)",
            &[
                "model",
                "stash-all",
                "heuristic",
                "searched",
                "candidates",
                "replay GFLOP",
            ],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.name.to_string(),
                        r.report.stash_all_peak_bytes.to_string(),
                        r.report.heuristic_peak_bytes.to_string(),
                        r.report.searched_peak_bytes.to_string(),
                        r.report.candidates_explored.to_string(),
                        format!("{:.4}", r.report.recompute_flops as f64 / 1e9),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        let step_steps = if quick { 5 } else { 12 };
        let bench = search_bench_nmt(step_steps);
        println!(
            "nmt step time: heuristic {:.2} ms vs searched {:.2} ms ({:.2}x), replays/step {:.1} -> {:.1}",
            mean(&bench.heuristic_ms),
            mean(&bench.searched_ms),
            bench.ratio,
            bench.heuristic_replays,
            bench.searched_replays,
        );
        search_json = json!({
            "flop_budget": 1.0,
            "models": rows.iter().map(|r| json!({
                "name": r.name,
                "stash_all_peak_bytes": r.report.stash_all_peak_bytes,
                "heuristic_peak_bytes": r.report.heuristic_peak_bytes,
                "searched_peak_bytes": r.report.searched_peak_bytes,
                "candidates_explored": r.report.candidates_explored,
                "recompute_flops": r.report.recompute_flops,
                "step_flops": r.report.step_flops,
                "budget_flops": r.report.budget_flops,
                "capped": r.report.capped,
                "fell_back_to_heuristic": r.report.fell_back_to_heuristic,
            })).collect::<Vec<_>>(),
            "nmt_step": {
                "heuristic_ms": bench.heuristic_ms,
                "searched_ms": bench.searched_ms,
                "time_ratio_searched_vs_heuristic": bench.ratio,
                "heuristic_replays_per_step": bench.heuristic_replays,
                "searched_replays_per_step": bench.searched_replays,
            },
        });
        if gate {
            let nmt_row = &rows[1].report;
            assert!(
                nmt_row.searched_peak_bytes < nmt_row.heuristic_peak_bytes,
                "search gate: searched NMT peak {} not strictly below heuristic {}",
                nmt_row.searched_peak_bytes,
                nmt_row.heuristic_peak_bytes
            );
            assert!(
                bench.ratio <= 1.15,
                "search gate: searched NMT step is {:.2}x heuristic (need <= 1.15x)",
                bench.ratio
            );
            println!(
                "search gate passed: peak {} < {} at {:.2}x step time",
                nmt_row.searched_peak_bytes, nmt_row.heuristic_peak_bytes, bench.ratio
            );
        }
    }

    // ---- GIR fusion pipeline (--fusion) -------------------------------
    let mut fusion_json = serde_json::Value::Null;
    if fusion {
        let fb = fusion_bench();
        echo_repro::print_table(
            "GIR fusion on word_lm (Default backend)",
            &["metric", "unfused", "fused", "delta"],
            &[
                vec![
                    "forward launches".into(),
                    fb.unfused_fwd_launches.to_string(),
                    fb.fused_fwd_launches.to_string(),
                    format!(
                        "-{:.0}%",
                        100.0
                            * (1.0 - fb.fused_fwd_launches as f64 / fb.unfused_fwd_launches as f64)
                    ),
                ],
                vec![
                    "total launches".into(),
                    fb.unfused_launches.to_string(),
                    fb.fused_launches.to_string(),
                    format!(
                        "-{:.0}%",
                        100.0 * (1.0 - fb.fused_launches as f64 / fb.unfused_launches as f64)
                    ),
                ],
                vec![
                    "sim step (launch overhead) us".into(),
                    format!("{:.0}", fb.unfused_sim_ns as f64 / 1e3),
                    format!("{:.0}", fb.fused_sim_ns as f64 / 1e3),
                    format!(
                        "-{:.0}%",
                        100.0 * (1.0 - fb.fused_sim_ns as f64 / fb.unfused_sim_ns as f64)
                    ),
                ],
            ],
        );
        let passes_json: Vec<_> = fb
            .passes
            .iter()
            .map(|p| {
                json!({
                    "pass": p.pass,
                    "rewrites": p.rewrites,
                    "live_ops_before": p.live_ops_before,
                    "live_ops_after": p.live_ops_after,
                    "fwd_launches_before": p.fwd_launches_before,
                    "fwd_launches_after": p.fwd_launches_after,
                    "fwd_flops_before": p.fwd_flops_before,
                    "fwd_flops_after": p.fwd_flops_after,
                    "live_bytes_before": p.live_bytes_before,
                    "live_bytes_after": p.live_bytes_after,
                    "wall_us": p.wall_us,
                    "bit_exact": p.bit_exact,
                    "equivalence_ok": p.equivalence_ok,
                })
            })
            .collect();
        fusion_json = json!({
            "model": "word_lm_default",
            "forward_launches": {
                "unfused": fb.unfused_fwd_launches,
                "fused": fb.fused_fwd_launches,
            },
            "total_launches": {
                "unfused": fb.unfused_launches,
                "fused": fb.fused_launches,
            },
            "device_sim_step_ns": {
                "unfused": fb.unfused_sim_ns,
                "fused": fb.fused_sim_ns,
                "launch_overhead_delta_ns":
                    fb.unfused_sim_ns.saturating_sub(fb.fused_sim_ns),
            },
            "loss_bits_identical": true,
            "passes": passes_json.clone(),
        });
        if gate {
            assert!(
                fb.fused_fwd_launches < fb.unfused_fwd_launches,
                "fusion gate: fused word_lm forward launch table ({}) not strictly \
                 below unfused ({})",
                fb.fused_fwd_launches,
                fb.unfused_fwd_launches
            );
            println!(
                "fusion gate passed: {} < {} forward launches",
                fb.fused_fwd_launches, fb.unfused_fwd_launches
            );
        }
        // The per-pass report is its own artifact so CI can surface what
        // each pipeline stage did without digging through the bench blob.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("repo root");
        let path = root.join("REPORT_passes.json");
        std::fs::write(
            &path,
            serde_json::to_string_pretty(
                &json!({ "harness": "bench_kernels --fusion", "passes": passes_json }),
            )
            .expect("json"),
        )
        .expect("write REPORT_passes.json");
        println!("wrote {}", path.display());
    }

    // ---- Pipelined stage parallelism (--pipeline) ---------------------
    let mut pipeline_json = serde_json::Value::Null;
    if pipeline {
        let pb = pipeline_bench(quick);
        let rows: Vec<Vec<String>> = pb
            .points
            .iter()
            .map(|p| {
                vec![
                    p.stages.to_string(),
                    format!("{:.3}", p.critical_ns as f64 * 1e-6),
                    format!("{:.3}", p.projection.pipelined_ns as f64 * 1e-6),
                    format!("{:.0}%", p.projection.efficiency * 100.0),
                    format!("{:.3}", p.projection.bubble_ns as f64 * 1e-6),
                ]
            })
            .collect();
        echo_repro::print_table(
            &format!(
                "Pipelined word-LM (8 layers, serial step {:.3} ms)",
                pb.serial_ns as f64 * 1e-6
            ),
            &[
                "stages",
                "busiest ms",
                "proj step ms",
                "proj eff",
                "bubble ms",
            ],
            &rows,
        );
        let points_json: Vec<_> = pb
            .points
            .iter()
            .map(|p| {
                json!({
                    "stages": p.stages,
                    "busy_ns": p.busy_ns,
                    "critical_ns": p.critical_ns,
                    "projected_step_ns": p.projection.pipelined_ns,
                    "efficiency": p.projection.efficiency,
                    "bubble_ns": p.projection.bubble_ns,
                })
            })
            .collect();
        pipeline_json = json!({
            "model": "word_lm_default_8_layers",
            "serial_step_ns": pb.serial_ns,
            "loss_bits_identical_across_stage_counts": true,
            "loss_bits": pb.loss_bits,
            "points": points_json,
        });
        if gate {
            let p2 = &pb.points[0];
            assert_eq!(p2.stages, 2, "first pipeline point is P=2");
            assert!(
                p2.projection.pipelined_ns < pb.serial_ns,
                "pipeline gate: projected P=2 step {:.3} ms (bubble + cut transfers \
                 included) not below serial {:.3} ms",
                p2.projection.pipelined_ns as f64 * 1e-6,
                pb.serial_ns as f64 * 1e-6
            );
            println!(
                "pipeline gate passed: P=2 projected {:.3} ms < serial {:.3} ms",
                p2.projection.pipelined_ns as f64 * 1e-6,
                pb.serial_ns as f64 * 1e-6
            );
        }
    }

    let autotune = echo_tensor::policy::autotune_outcome().map(|o| {
        json!({
            "chosen": o.chosen.name(),
            "kernel": o.kernel.name(),
            "tiles_kc_mc": [o.tiles.0, o.tiles.1],
            "tiles_measured": o.tiles_measured,
        })
    });

    let out = json!({
        "harness": "bench_kernels",
        "quick": quick,
        "pool_threads": threads,
        "active_micro_kernel": echo_tensor::active_micro_kernel().name(),
        "autotune": autotune,
        "gemm": gemm_json,
        "micro_kernels": micro_json,
        "threads": threads_json,
        "bitexact": {
            "packed_bands_identical": bands_ok,
            "word_lm_loss_bits_identical_across_policies": true,
            "nmt_loss_bits_identical_across_policies": true,
        },
        "plan": plan_json,
        "search": search_json,
        "fusion": fusion_json,
        "pipeline": pipeline_json,
        "train_steps": {
            "word_lm": {
                "naive_ms": lm_naive_ms,
                "auto_ms": lm_auto_ms,
                "speedup": lm_speedup,
                "loss_bits": lm_auto_loss,
            },
            "nmt": {
                "naive_ms": nmt_naive_ms,
                "auto_ms": nmt_auto_ms,
                "speedup": nmt_speedup,
                "loss_bits": nmt_auto_loss,
            },
        },
    });

    // BENCH_kernels.json lives at the repo root (not $ECHO_RESULTS_DIR):
    // it is the cross-PR perf baseline, versioned alongside the code.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let path = root.join("BENCH_kernels.json");
    std::fs::write(&path, serde_json::to_string_pretty(&out).expect("json"))
        .expect("write BENCH_kernels.json");
    println!("wrote {}", path.display());

    if gate {
        let speedup = packed_speedups[0];
        assert!(
            speedup >= 2.0,
            "perf gate: packed kernel is only {speedup:.2}x naive on {} (need >= 2x)",
            shapes[0].0
        );
        println!("perf gate passed: {speedup:.2}x >= 2x on {}", shapes[0].0);

        match best_simd {
            Some((kernel, simd_speedup)) => {
                assert!(
                    simd_speedup >= 1.5,
                    "simd gate: {} kernel is only {simd_speedup:.2}x scalar on {mk_name} (need >= 1.5x)",
                    kernel.name()
                );
                println!(
                    "simd gate passed: {} {simd_speedup:.2}x >= 1.5x scalar on {mk_name}",
                    kernel.name()
                );
            }
            None => println!("simd gate skipped: host has neither AVX2 nor NEON"),
        }

        if threads_mode {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            if cores < 4 {
                println!("threads gate skipped: host has {cores} core(s) (need >= 4)");
            } else {
                let one = threads_rows[0].ns_per_step;
                let four = threads_rows
                    .iter()
                    .find(|r| r.threads == 4)
                    .expect("4-thread row")
                    .ns_per_step;
                assert!(
                    four < one,
                    "threads gate: 4-thread planned step ({four} ns) not faster than 1-thread ({one} ns)"
                );
                println!(
                    "threads gate passed: 4 threads {four} ns < 1 thread {one} ns ({:.2}x)",
                    one as f64 / four as f64
                );
            }
        }
    }
}
