//! Training bits must not depend on the size of the kernel worker pool.
//!
//! Intra-op banding is the only thread parallelism: the packed GEMM, the
//! elementwise kernels and the softmax split their rows into one band per
//! pool lane, and each band writes disjoint outputs in the serial
//! accumulation order. So a word-LM and an Echo-planned NMT must train to
//! the same loss and parameter bits at every pool size.
//!
//! The global pool is sized once per process from `ECHO_NUM_THREADS`, so
//! the parent test re-runs this binary once per thread count and runs
//! only the ignored `worker` test there; each worker prints one result
//! line, and the parent compares them.

use echo::{EchoCompiler, EchoConfig};
use echo_data::{BpttBatches, LmCorpus, NmtBatch, ParallelCorpus, Vocab};
use echo_graph::{ExecOptions, Executor, NodeId, StashPlan};
use echo_memory::DeviceMemory;
use echo_models::{NmtHyper, NmtModel, Sgd, WordLm, WordLmHyper};
use echo_rnn::LstmBackend;
use echo_tensor::Tensor;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::process::Command;
use std::sync::Arc;

const THREADS: [usize; 3] = [1, 2, 4];
const PREFIX: &str = "thread_invariance ";

fn mem() -> DeviceMemory {
    DeviceMemory::with_overhead_model(4 << 30, 0, 0.0)
}

/// Trains one SGD step per batch of bindings and returns the per-step
/// loss bits followed by a hash of every final parameter bit.
fn train(exec: &mut Executor, loss: NodeId, steps: &[HashMap<NodeId, Tensor>]) -> Vec<u64> {
    let mut sgd = Sgd::new(0.5).with_clip_norm(5.0);
    let mut out: Vec<u64> = steps
        .iter()
        .map(|bindings| {
            let stats = exec
                .train_step(bindings, loss, ExecOptions::default(), None)
                .expect("train step");
            sgd.step(exec);
            u64::from(stats.loss.expect("loss").to_bits())
        })
        .collect();
    let mut hasher = DefaultHasher::new();
    for (id, tensor) in exec.export_params() {
        id.hash(&mut hasher);
        for v in tensor.data() {
            v.to_bits().hash(&mut hasher);
        }
    }
    out.push(hasher.finish());
    out
}

/// A word-LM wide enough that its gate GEMMs band on the pool.
fn word_lm_bits() -> Vec<u64> {
    let lm = WordLm::build(WordLmHyper {
        vocab: 500,
        embed: 128,
        hidden: 256,
        layers: 1,
        seq_len: 16,
        backend: LstmBackend::CuDnn,
    });
    let corpus = LmCorpus::synthetic(Vocab::new(500), 6000, 0.9, 5);
    let steps: Vec<_> = BpttBatches::new(corpus.tokens(), 16, lm.hyper.seq_len)
        .take(3)
        .map(|batch| lm.bindings(&batch))
        .collect();
    let mut exec = Executor::new(Arc::clone(&lm.graph), StashPlan::stash_all(), mem());
    lm.bind_params(&mut exec, 3).expect("bind");
    train(&mut exec, lm.loss, &steps)
}

/// The tiny NMT (attention, softmax, layer norm) under the Echo plan.
fn nmt_bits() -> Vec<u64> {
    let corpus = ParallelCorpus::synthetic(Vocab::new(100), Vocab::new(90), 200, 5..=8, 5);
    let model = NmtModel::build(NmtHyper::tiny(100, 90));
    let batch = NmtBatch::bucketed(corpus.pairs(), 8).remove(0);
    let bindings = model.bindings(&batch);
    let mut exec = Executor::new(Arc::clone(&model.graph), StashPlan::stash_all(), mem());
    model.bind_params(&mut exec, 2).expect("bind");
    EchoCompiler::new(EchoConfig::default())
        .attach(
            &mut exec,
            &bindings,
            &model.param_shapes(),
            &[model.loss, model.logits],
        )
        .expect("attach");
    train(&mut exec, model.loss, &[bindings.clone(), bindings])
}

#[test]
#[ignore = "run by `training_bits_match_at_every_pool_size`, once per pool size"]
fn worker() {
    let lm = word_lm_bits();
    let nmt = nmt_bits();
    let jobs = echo_tensor::pool::global().jobs_executed();
    println!("{PREFIX}lm={lm:?} nmt={nmt:?} jobs={jobs}");
}

#[test]
fn training_bits_match_at_every_pool_size() {
    let exe = std::env::current_exe().expect("current exe");
    let runs: Vec<(String, usize)> = THREADS
        .iter()
        .map(|threads| {
            let out = Command::new(&exe)
                .args(["--exact", "worker", "--ignored", "--nocapture"])
                .env("ECHO_NUM_THREADS", threads.to_string())
                .output()
                .expect("worker spawns");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "worker at {threads} thread(s) failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let line = stdout
                .lines()
                .find_map(|l| l.split_once(PREFIX).map(|(_, rest)| rest))
                .expect("worker result line");
            let (bits, jobs) = line.rsplit_once(" jobs=").expect("jobs field");
            (bits.to_string(), jobs.parse().expect("job count"))
        })
        .collect();
    for (threads, (bits, jobs)) in THREADS.iter().zip(&runs) {
        assert_eq!(
            bits, &runs[0].0,
            "training bits diverged at {threads} thread(s) — kernel banding numerics bug"
        );
        if *threads > 1 {
            assert!(*jobs > 0, "no banded kernel ran at {threads} threads");
        }
    }
}
