//! `train_lm_pipe2`: the GPipe-style pipeline trainer at P = 2, K = 1,
//! checked against the serial micro-batch trainer.

use super::train::{mem, sgd, BATCHES, WARMUP_STEPS};
use super::{check_bits, construct_timed, Report, Run, Window};
use crate::gen;
use crate::trace::Tracer;
use echo::{EchoCompiler, EchoConfig};
use echo_data::{BpttBatches, LmBatch};
use echo_graph::{partition_stages, Executor, Gir, StashPlan};
use echo_models::{MicrobatchTrainer, PipelineOptions, PipelineTrainer, WordLm, WordLmHyper};
use echo_rnn::LstmBackend;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

pub const HYPER: WordLmHyper = WordLmHyper {
    vocab: 500,
    embed: 64,
    hidden: 64,
    layers: 4,
    seq_len: 12,
    backend: LstmBackend::CuDnn,
};
pub const LANES: usize = 16;
pub const MICRO: usize = 4;

/// What both trainers are built from: the model, its Echo stash plan,
/// the seeded batches and a bound template executor.
pub struct Parts {
    pub lm: WordLm,
    pub plan: StashPlan,
    pub batches: Vec<LmBatch>,
}

impl Parts {
    pub fn new(seed: u64) -> Result<Parts, String> {
        let tokens = gen::lm_tokens(seed, HYPER.vocab, LANES * (HYPER.seq_len * BATCHES + 1));
        let batches = BpttBatches::new(&tokens, LANES, HYPER.seq_len).collect();
        let lm = WordLm::build(HYPER);
        let plan = EchoCompiler::new(EchoConfig::default())
            .compile(
                &lm.graph,
                &lm.symbolic_bindings(LANES / MICRO),
                &lm.param_shapes(),
                &[lm.loss, lm.logits],
            )
            .map_err(|e| format!("compile: {e}"))?
            .plan;
        Ok(Parts { lm, plan, batches })
    }

    fn template(&self, seed: u64) -> Result<Executor, String> {
        let mut exec = Executor::new(Arc::clone(&self.lm.graph), self.plan.clone(), mem());
        self.lm
            .bind_params(&mut exec, gen::param_seed(seed))
            .map_err(|e| format!("bind_params: {e}"))?;
        Ok(exec)
    }

    /// The pipelined trainer over `stages` stages, and the bytes that
    /// cross its cuts per micro-batch.
    pub fn pipeline(
        &self,
        seed: u64,
        stages: usize,
    ) -> Result<(PipelineTrainer<LmBatch>, u64), String> {
        let binding_shapes = self
            .lm
            .symbolic_bindings(LANES / MICRO)
            .iter()
            .map(|(&id, t)| (id, t.shape().clone()))
            .collect();
        let gir = Gir::from_graph(
            Arc::clone(&self.lm.graph),
            &binding_shapes,
            &self.lm.param_shapes(),
            &[self.lm.loss],
        )
        .map_err(|e| format!("gir: {e}"))?;
        let partition = partition_stages(&gir, stages).map_err(|e| format!("partition: {e}"))?;
        let trainer = PipelineTrainer::for_word_lm(
            &self.lm,
            self.template(seed)?,
            &partition,
            &self.plan,
            LANES,
            &PipelineOptions::new(1, MICRO),
            Box::new(sgd()),
        )?;
        Ok((trainer, partition.cut_bytes().iter().sum()))
    }

    /// The serial trainer running the same micro-batches and fold.
    pub fn serial(&self, seed: u64) -> Result<MicrobatchTrainer, String> {
        MicrobatchTrainer::for_word_lm(
            &self.lm,
            self.template(seed)?,
            LANES,
            MICRO,
            Box::new(sgd()),
            None,
        )
    }

    pub fn batch(&self, i: usize) -> &LmBatch {
        &self.batches[i % self.batches.len()]
    }
}

pub const TOKENS_PER_STEP: f64 = (HYPER.seq_len * LANES) as f64;

fn measure(
    trainer: &mut PipelineTrainer<LmBatch>,
    parts: &Parts,
    ops: usize,
    first_op: usize,
    tracer: &mut Tracer,
) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    let mut last_end = 0.0;
    for i in first_op..first_op + ops {
        let step_start = Instant::now();
        let report = tracer.span("models.pipe_step", None, i as u64, || {
            trainer.train_step(parts.batch(WARMUP_STEPS + i))
        });
        let end = start.elapsed().as_secs_f64();
        match report {
            Ok(r) => {
                let ms = step_start.elapsed().as_secs_f64() * 1e3;
                w.ends_s.push(end);
                w.tokens.push(TOKENS_PER_STEP);
                w.latency_ms.push(ms);
                // The trainer applies the optimizer inside the step, so
                // the loss is known only when the step ends.
                w.ttft_ms.push(ms);
                w.gap_ms.push((end - last_end) * 1e3);
                w.peak_bytes = w.peak_bytes.max(r.max_stage_peak_bytes());
            }
            Err(e) => w.fail(end, format!("pipeline step {i}: {e}")),
        }
        last_end = end;
    }
    w
}

pub fn run(run: &Run, tracer: &mut Tracer) -> Result<Report, String> {
    let mut warm_losses = Vec::new();
    let mut cut_bytes = 0;
    let ((parts, mut trainer), setups_s) = construct_timed(run.setups, || {
        let parts = Parts::new(run.seed)?;
        let (mut trainer, cut) = parts.pipeline(run.seed, 2)?;
        cut_bytes = cut;
        warm_losses = (0..WARMUP_STEPS)
            .map(|i| trainer.train_step(parts.batch(i)).map(|r| r.loss))
            .collect::<Result<_, _>>()?;
        Ok((parts, trainer))
    })?;

    let (window, traced) = run.measure(tracer, |ops, first_op, tracer| {
        measure(&mut trainer, &parts, ops, first_op, tracer)
    });
    drop(trainer);

    let mut serial = parts.serial(run.seed)?;
    let serial_losses: Vec<f32> = (0..WARMUP_STEPS)
        .map(|i| serial.step(parts.batch(i)).map(|r| r.loss))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("serial step: {e}"))?;
    let check = check_bits("train_lm_pipe2", "loss", &warm_losses, &serial_losses);

    let mut notes = BTreeMap::new();
    notes.insert("cut_bytes", cut_bytes as f64);
    Ok(Report {
        window,
        traced,
        setups_s,
        check,
        notes,
    })
}
