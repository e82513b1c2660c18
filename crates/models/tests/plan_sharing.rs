//! Replicas must not re-plan: `PipelineTrainer::new` builds one fill/step
//! plan pair per stage and installs the same `Arc<ExecPlan>`s on every
//! replica of that stage, so a one-stage, four-replica trainer builds
//! exactly as many plans as a one-replica trainer, and stepping builds
//! none.
//!
//! This file holds a single `#[test]` on purpose: `plans_built()` is a
//! process-global counter, and an integration-test binary is its own
//! process, so the count here cannot race with other planning tests.

use echo_data::{BpttBatches, LmCorpus, Vocab};
use echo_graph::{plans_built, Executor, StashPlan};
use echo_memory::DeviceMemory;
use echo_models::{MicrobatchTrainer, PipelineOptions, PipelineTrainer, Sgd, WordLm, WordLmHyper};
use echo_rnn::LstmBackend;
use std::sync::Arc;

const LANES: usize = 8;
const MICRO: usize = 4;
const REPLICAS: usize = 4;

fn optimizer() -> Box<Sgd> {
    Box::new(Sgd::new(0.5).with_momentum(0.9).with_clip_norm(5.0))
}

#[test]
fn four_replicas_share_one_planning_pass() {
    let lm = WordLm::build(WordLmHyper::tiny(40, LstmBackend::CuDnn));
    let corpus = LmCorpus::synthetic(Vocab::new(40), 2400, 0.9, 13);
    let batches: Vec<_> = BpttBatches::new(corpus.tokens(), LANES, lm.hyper.seq_len)
        .take(2)
        .collect();
    let template = || {
        let mem = DeviceMemory::with_overhead_model(1 << 30, 0, 0.0);
        let mut exec = Executor::new(Arc::clone(&lm.graph), StashPlan::stash_all(), mem);
        lm.bind_params(&mut exec, 23).expect("bind");
        exec
    };
    // One stage: every replica runs the whole graph.
    let partition = lm.partition(LANES / MICRO, 1).expect("partition");
    let trainer = |replicas| {
        PipelineTrainer::for_word_lm(
            &lm,
            template(),
            &partition,
            &StashPlan::stash_all(),
            LANES,
            &PipelineOptions::new(replicas, MICRO),
            optimizer(),
        )
        .expect("trainer spawns")
    };

    // The serial oracle plans its micro-batch signature up front, so
    // stepping it below builds nothing either.
    let mut serial_exec = template();
    lm.install_exec_plan(&mut serial_exec, LANES / MICRO)
        .expect("plan installs");
    let mut serial =
        MicrobatchTrainer::for_word_lm(&lm, serial_exec, LANES, MICRO, optimizer(), None)
            .expect("serial trainer");

    let before = plans_built();
    drop(trainer(1));
    let one_replica = plans_built() - before;
    // The one stage is the last, so it has a step plan and no fill plan.
    assert_eq!(one_replica, 1, "a one-stage trainer builds its step plan");
    let before = plans_built();
    let mut parallel = trainer(REPLICAS);
    assert_eq!(
        plans_built() - before,
        one_replica,
        "{REPLICAS}-replica construction must build what one replica builds"
    );

    let before = plans_built();
    for batch in &batches {
        let p = parallel.train_step(batch).expect("parallel step");
        let s = serial.step(batch).expect("serial step");
        assert_eq!(p.stages.len(), REPLICAS);
        for stage in &p.stages {
            assert_eq!(
                stage.plans_built, 0,
                "replica {} planned at step time",
                stage.replica
            );
        }
        assert_eq!(p.loss.to_bits(), s.loss.to_bits(), "loss bits diverged");
        assert_eq!(
            p.grad_norm.to_bits(),
            s.grad_norm.to_bits(),
            "grad-norm bits diverged"
        );
    }
    let p_params = parallel.export_params();
    for ((id_p, t_p), (id_s, t_s)) in p_params.iter().zip(serial.export_params().iter()) {
        assert_eq!(id_p, id_s);
        let bits = |t: &echo_tensor::Tensor| -> Vec<u32> {
            t.data().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(t_p), bits(t_s), "parameter bits diverged");
    }
    assert_eq!(plans_built() - before, 0, "stepping must not re-plan");
}
