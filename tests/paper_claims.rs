//! Executable versions of the paper's headline claims, run at reduced
//! scale so they are fast enough for `cargo test` (the full-scale numbers
//! come from the `echo-repro` figure binaries; see EXPERIMENTS.md).

use echo_cachesim::{simulate_gemm, CacheConfig, TiledGemmSpec};
use echo_device::DeviceSpec;
use echo_models::resnet::resnet50_throughput;
use echo_models::WordLmHyper;
use echo_repro::{pearson, run_lm, run_nmt, NmtRunConfig};
use echo_rnn::{autotune, pure_lstm_times, LstmBackend, PureLstmConfig};

/// Scaled-down Zhu setting so debug-mode projections stay quick.
fn small_zhu(backend: LstmBackend, batch: usize, echo: bool) -> NmtRunConfig {
    let mut cfg = NmtRunConfig::zhu("t", backend, batch, echo);
    cfg.hyper.src_len = 40;
    cfg.hyper.tgt_len = 40;
    cfg.hyper.src_vocab = 3000;
    cfg.hyper.tgt_vocab = 3000;
    cfg
}

/// §1/§6.2: partial forward propagation halves-ish the footprint with no
/// meaningful throughput cost, and the freed memory converts to higher
/// throughput at a doubled batch.
#[test]
fn claim_memory_halves_without_performance_loss() {
    let base = run_nmt(&small_zhu(LstmBackend::Default, 32, false)).expect("run");
    let eco = run_nmt(&small_zhu(LstmBackend::Default, 32, true)).expect("run");
    let eco_big = run_nmt(&small_zhu(LstmBackend::Default, 64, true)).expect("run");
    // Compare the profiler view: at this reduced scale the constant CUDA
    // context would otherwise dominate the nvidia-smi numbers.
    let reduction = base.peak_bytes as f64 / eco.peak_bytes as f64;
    assert!(
        reduction > 1.7,
        "memory reduction {reduction:.2}x below the paper's ~2x"
    );
    let same_batch = eco.throughput / base.throughput;
    assert!(
        same_batch > 0.9,
        "echo must not cost meaningful throughput: {same_batch:.2}x"
    );
    assert!(
        eco_big.throughput > base.throughput * 1.1,
        "doubled batch must raise throughput: {:.0} vs {:.0}",
        eco_big.throughput,
        base.throughput
    );
}

/// §3.1/Figure 4: CNN throughput saturates with batch; RNN throughput
/// keeps scaling.
#[test]
fn claim_cnn_saturates_rnn_scales() {
    let spec = DeviceSpec::titan_xp();
    let cnn_gain = resnet50_throughput(128, &spec) / resnet50_throughput(32, &spec);
    assert!(cnn_gain < 1.25, "ResNet-50 must saturate: {cnn_gain:.2}");

    let t32 = run_nmt(&small_zhu(LstmBackend::Default, 32, false)).expect("run");
    let t128 = run_nmt(&small_zhu(LstmBackend::Default, 128, false)).expect("run");
    let rnn_gain = t128.throughput / t32.throughput;
    assert!(
        rnn_gain > 2.0,
        "NMT throughput must keep scaling with batch: {rnn_gain:.2}"
    );
}

/// §4.2/Figure 9: the column-major formulation issues far fewer memory
/// transactions for the paper's skewed LSTM shapes.
#[test]
fn claim_layout_changes_memory_behaviour() {
    let l2 = CacheConfig::titan_xp_l2();
    let rm = simulate_gemm(&TiledGemmSpec::fc_row_major(64, 512, 2048), &l2);
    let cm = simulate_gemm(&TiledGemmSpec::fc_col_major(64, 512, 2048), &l2);
    assert_eq!(rm.flops, cm.flops, "identical arithmetic");
    assert!(rm.load_transactions > 2 * cm.load_transactions);
    assert!(cm.coalescing_efficiency() > 0.95);
    assert!(rm.coalescing_efficiency() < 0.5);
}

/// §6.3/Figure 20: EcoRNN beats Default substantially and cuDNN usually,
/// with cuDNN closing the gap at deep stacks.
#[test]
fn claim_pure_lstm_ordering() {
    let spec = DeviceSpec::titan_xp();
    let total = |backend, layers| {
        let mut cfg = PureLstmConfig::new(backend, 64, 512, layers);
        cfg.seq_len = 20;
        let (f, b) = pure_lstm_times(&cfg, &spec).expect("times");
        (f + b) as f64
    };
    let d1 = total(LstmBackend::Default, 1);
    let c1 = total(LstmBackend::CuDnn, 1);
    let e1 = total(LstmBackend::EcoRnn, 1);
    assert!(d1 / e1 > 1.5, "EcoRNN vs Default {:.2}", d1 / e1);
    assert!(c1 / e1 > 1.05, "EcoRNN vs CuDNN {:.2}", c1 / e1);
    // cuDNN's wavefront overlap closes the gap at 4 layers.
    let c4 = total(LstmBackend::CuDnn, 4);
    let e4 = total(LstmBackend::EcoRnn, 4);
    assert!(c4 / e4 < c1 / e1, "cuDNN must close the gap with depth");
}

/// §5.4/Table 2: the microbenchmark predicts full-model throughput.
#[test]
fn claim_microbenchmark_correlates() {
    let spec = DeviceSpec::titan_xp();
    let mut inv = Vec::new();
    let mut thpt = Vec::new();
    for &hidden in &[200usize, 650] {
        for backend in LstmBackend::ALL {
            let report = autotune(32, hidden, 2, 35, &spec).expect("autotune");
            inv.push(1.0 / report.time_of(backend).expect("time") as f64);
            let hyper = WordLmHyper::mxnet_example(3000, hidden, backend);
            thpt.push(run_lm("t", hyper, 32, &spec).expect("run").throughput);
        }
    }
    let rho = pearson(&inv, &thpt);
    assert!(rho > 0.85, "rho {rho:.3} too low (paper: 0.95+)");
}

/// §5.1/Figure 6: parallelizing SequenceReverse removes it from the
/// bottleneck list.
#[test]
fn claim_sequence_reverse_fix() {
    let mut seq = small_zhu(LstmBackend::Default, 32, false);
    seq.hyper.parallel_reverse = false;
    seq.enforce_capacity = false;
    let mut par = seq.clone();
    par.hyper.parallel_reverse = true;
    let r_seq = run_nmt(&seq).expect("run");
    let r_par = run_nmt(&par).expect("run");
    let frac = |r: &echo_repro::NmtRunResult| {
        r.trace
            .as_ref()
            .expect("trace")
            .category_fraction(echo_device::KernelCategory::SequenceReverse)
    };
    assert!(
        frac(&r_seq) > 0.2,
        "sequential reverse must dominate: {}",
        frac(&r_seq)
    );
    assert!(
        frac(&r_par) < 0.02,
        "parallel reverse must vanish: {}",
        frac(&r_par)
    );
    assert!(r_par.throughput > r_seq.throughput);
}
