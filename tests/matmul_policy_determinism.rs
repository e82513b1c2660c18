//! Training must not depend on which GEMM backend executes it.
//!
//! The dispatch layer (`echo_tensor::policy`) routes a matmul to the
//! naive or the packed kernel by shape, and bands the packed kernel on
//! the pool by size. Because the two are bit-identical (see
//! `crates/tensor/tests/gemm_bitexact.rs`), a `word_lm` train step must
//! produce **bit-identical** losses, gradient norms, and parameters
//! under any `MatmulPolicy`, and an `nmt` train step (encoder plus
//! attention decoder, a mix of skinny and wide products) bit-identical
//! losses. This is the end-to-end half of the contract: if a kernel ever
//! reorders an FP accumulation, this test catches it at the
//! training-loop level.
//!
//! One `#[test]`, not several: the policy is process-global state and
//! the harness runs `#[test]`s concurrently, so the sweep must iterate
//! policies sequentially inside a single test (this file is its own
//! integration-test binary, i.e. its own process).

use echo_data::{BpttBatches, LmBatch, LmCorpus, NmtBatch, ParallelCorpus, Vocab};
use echo_graph::{ExecOptions, Executor, StashPlan};
use echo_memory::DeviceMemory;
use echo_models::{MicrobatchTrainer, NmtHyper, NmtModel, Sgd, WordLm, WordLmHyper};
use echo_rnn::LstmBackend;
use echo_tensor::{
    available_micro_kernels, set_matmul_policy, set_micro_kernel, MatmulBackend, MatmulPolicy,
};
use std::sync::Arc;

const LANES: usize = 8;
const MICRO: usize = 2;
const STEPS: usize = 2;
const NMT_STEPS: usize = 3;
const PARAM_SEED: u64 = 23;

fn batches(lm: &WordLm) -> Vec<LmBatch> {
    let corpus = LmCorpus::synthetic(Vocab::new(40), 2400, 0.9, 7);
    BpttBatches::new(corpus.tokens(), LANES, lm.hyper.seq_len)
        .take(STEPS)
        .collect()
}

/// Per-step `(loss bits, grad-norm bits)` plus final parameter bits.
type Fingerprint = (Vec<(u32, u64)>, Vec<Vec<u32>>);

/// Trains `STEPS` steps under the given policy and fingerprints every
/// observable number: per-step loss and gradient-norm bits, plus the
/// bits of every final parameter.
fn run_under_policy(lm: &WordLm, policy: MatmulPolicy) -> Fingerprint {
    set_matmul_policy(policy);
    let mem = DeviceMemory::with_overhead_model(1 << 30, 0, 0.0);
    let mut exec = Executor::new(Arc::clone(&lm.graph), StashPlan::stash_all(), mem);
    lm.bind_params(&mut exec, PARAM_SEED).expect("bind");
    let mut trainer = MicrobatchTrainer::for_word_lm(
        lm,
        exec,
        LANES,
        MICRO,
        Box::new(Sgd::new(0.5).with_momentum(0.9).with_clip_norm(5.0)),
        None,
    )
    .expect("trainer");
    let mut fingerprints = Vec::new();
    for batch in batches(lm) {
        let report = trainer.step(&batch).expect("step");
        fingerprints.push((report.loss.to_bits(), report.grad_norm.to_bits()));
    }
    let params = trainer
        .export_params()
        .iter()
        .map(|(_, t)| t.data().iter().map(|v| v.to_bits()).collect())
        .collect();
    (fingerprints, params)
}

/// Per-step loss bits of `NMT_STEPS` plain SGD steps on the NMT model
/// under the given policy.
fn nmt_under_policy(model: &NmtModel, batches: &[NmtBatch], policy: MatmulPolicy) -> Vec<u32> {
    set_matmul_policy(policy);
    let mem = DeviceMemory::with_overhead_model(1 << 30, 0, 0.0);
    let mut exec = Executor::new(Arc::clone(&model.graph), StashPlan::stash_all(), mem);
    model.bind_params(&mut exec, PARAM_SEED).expect("bind");
    let mut sgd = Sgd::new(1.0).with_clip_norm(5.0);
    batches
        .iter()
        .map(|batch| {
            let stats = exec
                .train_step(
                    &model.bindings(batch),
                    model.loss,
                    ExecOptions::default(),
                    None,
                )
                .expect("train step");
            sgd.step(&mut exec);
            stats.loss.expect("loss").to_bits()
        })
        .collect()
}

#[test]
fn word_lm_training_is_bit_identical_under_every_matmul_policy() {
    let lm = WordLm::build(WordLmHyper::tiny(40, LstmBackend::CuDnn));
    let corpus = ParallelCorpus::synthetic(Vocab::new(100), Vocab::new(90), 200, 5..=8, 5);
    let nmt = NmtModel::build(NmtHyper::tiny(100, 90));
    let nmt_batches: Vec<NmtBatch> = NmtBatch::bucketed(corpus.pairs(), 8)
        .into_iter()
        .take(NMT_STEPS)
        .collect();
    let policies = [
        MatmulPolicy::Fixed(MatmulBackend::Naive),
        MatmulPolicy::Fixed(MatmulBackend::PackedParallel),
        MatmulPolicy::Auto,
    ];
    // The outer sweep forces each available SIMD micro-kernel (scalar
    // everywhere; AVX2/NEON where the host supports them) through the
    // same policy grid: the packed tier must produce the same training
    // bits whichever variant executes it.
    let mut reference: Option<Fingerprint> = None;
    let mut nmt_reference: Option<Vec<u32>> = None;
    for kernel in available_micro_kernels() {
        assert!(
            set_micro_kernel(Some(kernel)),
            "{} reported available but refused to install",
            kernel.name()
        );
        for &policy in &policies {
            let (fp, params) = run_under_policy(&lm, policy);
            assert_eq!(fp.len(), STEPS, "training must actually run");
            match &reference {
                None => reference = Some((fp, params)),
                Some((ref_fp, ref_params)) => {
                    assert_eq!(
                        &fp,
                        ref_fp,
                        "per-step loss/grad-norm bits diverged under {policy:?} with the {} kernel",
                        kernel.name()
                    );
                    assert_eq!(
                        &params,
                        ref_params,
                        "final parameter bits diverged under {policy:?} with the {} kernel",
                        kernel.name()
                    );
                }
            }
            let losses = nmt_under_policy(&nmt, &nmt_batches, policy);
            assert_eq!(losses.len(), NMT_STEPS, "nmt training must actually run");
            let want = nmt_reference.get_or_insert_with(|| losses.clone());
            assert_eq!(
                &losses,
                want,
                "nmt loss bits diverged under {policy:?} with the {} kernel",
                kernel.name()
            );
        }
    }
    set_micro_kernel(None);
    set_matmul_policy(MatmulPolicy::Auto);
}
