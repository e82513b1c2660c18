//! The three single-executor training workloads. One step is what a user
//! of the trainer runs: build the batch's bindings, `train_step`, apply
//! the optimizer.

use super::{check_bits, construct_timed, Kind, Report, Run, Spec, Window};
use crate::gen;
use crate::trace::Tracer;
use echo::{EchoCompiler, EchoConfig, PassReport};
use echo_data::{BpttBatches, NmtBatch};
use echo_graph::{ExecOptions, Executor, NodeId, StashPlan};
use echo_memory::DeviceMemory;
use echo_models::{NmtHyper, NmtModel, Sgd, WordLm, WordLmHyper};
use echo_rnn::LstmBackend;
use echo_tensor::Tensor;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Steps every construction runs before it is handed over (rule 5); their
/// losses are what the output check compares.
pub const WARMUP_STEPS: usize = 3;

/// Distinct batches generated per construction; a longer window cycles
/// through them.
pub const BATCHES: usize = 128;

pub fn mem() -> DeviceMemory {
    DeviceMemory::with_overhead_model(4 << 30, 0, 0.0)
}

pub const GEMM_LM: (WordLmHyper, usize) = (
    WordLmHyper {
        vocab: 1000,
        embed: 128,
        hidden: 256,
        layers: 2,
        seq_len: 20,
        backend: LstmBackend::CuDnn,
    },
    32,
);

pub const LAUNCH_LM: (WordLmHyper, usize) = (
    WordLmHyper {
        vocab: 60,
        embed: 16,
        hidden: 16,
        layers: 2,
        seq_len: 64,
        backend: LstmBackend::Default,
    },
    4,
);

pub const NMT_BATCH: usize = 16;

pub fn nmt_hyper() -> NmtHyper {
    NmtHyper {
        embed: 64,
        hidden: 128,
        src_len: 24,
        tgt_len: 25,
        ..NmtHyper::tiny(400, 390)
    }
}

/// Which executor a construction builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// What the workload measures: the Echo-compiled plan attached.
    Measured,
    /// What its outputs are checked against: the legacy interpreter for
    /// the LMs, a stash-all executor for NMT.
    Reference,
}

/// A constructed trainer: executor, optimizer and the batches it cycles.
pub struct Trainer {
    pub exec: Executor,
    pub sgd: Sgd,
    pub loss: NodeId,
    bind: Box<dyn Fn(usize) -> HashMap<NodeId, Tensor>>,
    pub tokens_per_step: f64,
    /// What the compiler reported when the plan was attached
    /// (`Measured` only).
    pub report: Option<PassReport>,
    /// Seconds spent generating the corpus and batching it.
    pub corpus_s: f64,
    next_batch: usize,
}

/// One step's timings, in milliseconds.
pub struct Step {
    pub loss: f32,
    pub peak_bytes: u64,
    pub replays: u64,
    /// Step start until the loss is known (before the optimizer).
    pub to_loss_ms: f64,
    pub total_ms: f64,
}

impl Trainer {
    /// Bindings of the batch the next step will consume.
    pub fn next_bindings(&self) -> HashMap<NodeId, Tensor> {
        (self.bind)(self.next_batch)
    }

    pub fn step(&mut self, op: u64, tracer: &mut Tracer) -> Result<Step, String> {
        let start = Instant::now();
        let parent = tracer.open("harness.step", None, op, 0);
        let bindings = tracer.span("data.bind", parent, op, || (self.bind)(self.next_batch));
        self.next_batch += 1;
        let stats = tracer
            .span("graph.train_step", parent, op, || {
                self.exec
                    .train_step(&bindings, self.loss, ExecOptions::default(), None)
            })
            .map_err(|e| format!("train_step {op}: {e}"))?;
        let to_loss_ms = start.elapsed().as_secs_f64() * 1e3;
        tracer.span("models.optimizer", parent, op, || {
            self.sgd.step(&mut self.exec)
        });
        tracer.close(parent);
        Ok(Step {
            loss: stats
                .loss
                .ok_or_else(|| format!("step {op}: no scalar loss"))?,
            peak_bytes: stats.peak_bytes,
            replays: stats.replays,
            to_loss_ms,
            total_ms: start.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// Runs the warm-up steps and returns their losses.
    fn warm_up(&mut self) -> Result<Vec<f32>, String> {
        let mut off = Tracer::new(false);
        (0..WARMUP_STEPS)
            .map(|i| self.step(i as u64, &mut off).map(|s| s.loss))
            .collect()
    }
}

pub fn sgd() -> Sgd {
    Sgd::new(0.5).with_clip_norm(5.0)
}

/// Cold construction of a word-LM trainer (warm-up not included).
pub fn build_lm(
    (hyper, batch): (WordLmHyper, usize),
    seed: u64,
    variant: Variant,
) -> Result<Trainer, String> {
    let corpus_start = Instant::now();
    let tokens = gen::lm_tokens(seed, hyper.vocab, batch * (hyper.seq_len * BATCHES + 1));
    let batches: Vec<_> = BpttBatches::new(&tokens, batch, hyper.seq_len).collect();
    let corpus_s = corpus_start.elapsed().as_secs_f64();

    let lm = WordLm::build(hyper);
    let mut exec = Executor::new(Arc::clone(&lm.graph), StashPlan::stash_all(), mem());
    lm.bind_params(&mut exec, gen::param_seed(seed))
        .map_err(|e| format!("bind_params: {e}"))?;
    let report = EchoCompiler::new(EchoConfig::default())
        .attach(
            &mut exec,
            &lm.symbolic_bindings(batch),
            &lm.param_shapes(),
            &[lm.loss, lm.logits],
        )
        .map_err(|e| format!("attach: {e}"))?;
    if variant == Variant::Reference {
        exec.clear_exec_plan();
    }
    let loss = lm.loss;
    Ok(Trainer {
        exec,
        sgd: sgd(),
        loss,
        bind: Box::new(move |i| lm.bindings(&batches[i % batches.len()])),
        tokens_per_step: (hyper.seq_len * batch) as f64,
        report: Some(report),
        corpus_s,
        next_batch: 0,
    })
}

/// Cold construction of the NMT trainer (warm-up not included).
pub fn build_nmt(seed: u64, variant: Variant) -> Result<Trainer, String> {
    let hyper = nmt_hyper();
    let corpus_start = Instant::now();
    let pairs = gen::nmt_pairs(
        seed,
        hyper.src_vocab,
        hyper.tgt_vocab,
        NMT_BATCH * BATCHES / 2,
        8,
        hyper.src_len,
    );
    let batches = NmtBatch::bucketed(&pairs, NMT_BATCH);
    let corpus_s = corpus_start.elapsed().as_secs_f64();

    let model = NmtModel::build(hyper);
    let mut exec = Executor::new(Arc::clone(&model.graph), StashPlan::stash_all(), mem());
    model
        .bind_params(&mut exec, gen::param_seed(seed))
        .map_err(|e| format!("bind_params: {e}"))?;
    let report = match variant {
        Variant::Measured => Some(
            EchoCompiler::new(EchoConfig::default())
                .attach(
                    &mut exec,
                    &model.symbolic_bindings(NMT_BATCH),
                    &model.param_shapes(),
                    &[model.loss, model.logits],
                )
                .map_err(|e| format!("attach: {e}"))?,
        ),
        Variant::Reference => {
            model
                .install_exec_plan(&mut exec, NMT_BATCH)
                .map_err(|e| format!("install_exec_plan: {e}"))?;
            None
        }
    };
    let loss = model.loss;
    Ok(Trainer {
        exec,
        sgd: sgd(),
        loss,
        // Bucketing sorts by length; striding through the buckets mixes
        // short and long sentences within any few consecutive steps.
        bind: Box::new(move |i| model.bindings(&batches[(i * 37) % batches.len()])),
        tokens_per_step: (hyper.tgt_len * NMT_BATCH) as f64,
        report,
        corpus_s,
        next_batch: 0,
    })
}

pub fn build(kind: Kind, seed: u64, variant: Variant) -> Result<Trainer, String> {
    match kind {
        Kind::TrainLmGemm => build_lm(GEMM_LM, seed, variant),
        Kind::TrainLmLaunch => build_lm(LAUNCH_LM, seed, variant),
        Kind::TrainNmtEcho => build_nmt(seed, variant),
        other => unreachable!("{other:?} is not a single-executor trainer"),
    }
}

/// Measures `ops` steps. `first_op` numbers the spans.
pub fn measure(
    trainer: &mut Trainer,
    ops: usize,
    first_op: u64,
    tracer: &mut Tracer,
) -> (Window, Vec<f32>, Vec<u64>) {
    let mut w = Window::default();
    let mut losses = Vec::with_capacity(ops);
    let mut replays = Vec::with_capacity(ops);
    let start = Instant::now();
    let mut last_end = 0.0;
    for i in 0..ops {
        let step = trainer.step(first_op + i as u64, tracer);
        let end = start.elapsed().as_secs_f64();
        match step {
            Ok(s) => {
                w.ends_s.push(end);
                w.tokens.push(trainer.tokens_per_step);
                w.latency_ms.push(s.total_ms);
                w.ttft_ms.push(s.to_loss_ms);
                w.gap_ms.push((end - last_end) * 1e3);
                w.peak_bytes = w.peak_bytes.max(s.peak_bytes);
                losses.push(s.loss);
                replays.push(s.replays);
            }
            Err(e) => w.fail(end, e),
        }
        last_end = end;
    }
    (w, losses, replays)
}

fn mean(xs: &[f32]) -> f64 {
    xs.iter().map(|&x| f64::from(x)).sum::<f64>() / xs.len() as f64
}

pub fn run(spec: &Spec, run: &Run, tracer: &mut Tracer) -> Result<Report, String> {
    let (name, kind) = (spec.name, spec.kind);
    let mut warm_losses = Vec::new();
    let (mut trainer, setups_s) = construct_timed(run.setups, || {
        let mut t = build(kind, run.seed, Variant::Measured)?;
        warm_losses = t.warm_up()?;
        Ok(t)
    })?;

    let fallbacks_before = echo_graph::plan_fallbacks();
    let (mut losses, mut replays) = (Vec::new(), Vec::new());
    let (window, traced) = run.measure(tracer, |ops, first_op, tracer| {
        let (w, l, r) = measure(&mut trainer, ops, first_op as u64, tracer);
        losses.extend(l);
        replays.extend(r);
        w
    });
    let fallbacks = echo_graph::plan_fallbacks() - fallbacks_before;

    // Output checks, on every run.
    let mut reference = build(kind, run.seed, Variant::Reference)?;
    let reference_losses = reference.warm_up()?;
    let mut check = check_bits(name, "loss", &warm_losses, &reference_losses);
    if check.is_ok() && fallbacks != 0 {
        check = Err(format!("{name}: {fallbacks} steps fell back from the plan"));
    }
    if check.is_ok() && losses.iter().any(|l| !l.is_finite()) {
        check = Err(format!("{name}: a loss in the window is not finite"));
    }
    if check.is_ok() {
        check = match kind {
            Kind::TrainNmtEcho => {
                let want = nmt_hyper().decoder_steps() as u64;
                match replays.iter().position(|&r| r != want) {
                    Some(i) => Err(format!(
                        "{name}: step {i} replayed {} segments, not {want}",
                        replays[i]
                    )),
                    None => Ok(()),
                }
            }
            _ => {
                let block = (losses.len() / crate::stats::BLOCKS).max(1);
                let (first, last) = (
                    mean(&losses[..block]),
                    mean(&losses[losses.len() - block..]),
                );
                if last < first {
                    Ok(())
                } else {
                    Err(format!(
                        "{name}: loss did not fall over the window ({first:.4} -> {last:.4})"
                    ))
                }
            }
        };
    }

    let mut notes = BTreeMap::new();
    notes.insert("loss_first", f64::from(losses[0]));
    notes.insert("loss_last", f64::from(*losses.last().expect("ops >= 1")));
    notes.insert("replays_per_step", replays[0] as f64);
    if let Some(plan) = trainer.exec.exec_plan() {
        notes.insert("planned_peak_bytes", plan.planned_peak_bytes() as f64);
        notes.insert("launches_per_step", plan.launch_count() as f64);
    }
    if let Some(report) = &trainer.report {
        notes.insert("segments", report.segments.len() as f64);
    }
    Ok(Report {
        window,
        traced,
        setups_s,
        check,
        notes,
    })
}
