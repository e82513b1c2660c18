//! Reproduction harness: shared experiment drivers behind the one-binary-
//! per-figure reproduction targets (see DESIGN.md's experiment index).
//!
//! Conventions:
//!
//! * every binary prints the paper artifact's rows/series as an aligned
//!   text table, and
//! * also writes a JSON record to `$ECHO_RESULTS_DIR` (default
//!   `./results`) so EXPERIMENTS.md can cite exact numbers.

#![warn(missing_docs)]

use echo::{EchoCompiler, EchoConfig};
use echo_device::{DeviceSim, DeviceSpec, TraceSummary};
use echo_graph::{Executor, GraphError, StashPlan};
use echo_memory::{DeviceMemory, MemoryBreakdown};
use echo_models::{NmtHyper, NmtModel, WordLm, WordLmHyper};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;

/// Gibibytes, for display.
pub const GIB: f64 = (1u64 << 30) as f64;

/// CPU cost of dispatching one operator through MXNet's C++ engine
/// (distinct from `cudaLaunch`).
pub const FRAMEWORK_OP_OVERHEAD_NS: u64 = 4_000;

/// Per-iteration host-side cost of the Sockeye training loop (Python
/// glue, bucketing, metric updates, gradient synchronization). This
/// batch-size-independent constant is what makes NMT throughput scale
/// linearly with batch size until the memory wall (paper Figure 4b; Zhu
/// et al. measured ~50-60% GPU utilization for MXNet NMT) and why
/// in-operator replays are nearly free.
pub const NMT_HOST_OVERHEAD_NS: u64 = 130_000_000;

/// Per-iteration host-side cost of the (much tighter) MXNet word-LM
/// example loop.
pub const LM_HOST_OVERHEAD_NS: u64 = 5_000_000;

/// Sequence length used for *runtime* measurements: training batches are
/// bucketed, so throughput reflects typical bucket lengths (~50) while
/// peak memory is set by the longest buckets (the hyperparameter `T`,
/// 100 in the Zhu et al. setting).
pub const RUNTIME_SEQ_LEN: usize = 50;

/// One projected NMT measurement.
#[derive(Debug, Clone, Serialize)]
pub struct NmtRunResult {
    /// Configuration label.
    pub label: String,
    /// Batch size.
    pub batch: usize,
    /// Whether the run hit the device memory wall.
    pub oom: bool,
    /// Whether the memory figure is the paper's halve-batch/double-usage
    /// estimate (dashed bars in Figure 16).
    pub estimated: bool,
    /// Peak profiled bytes.
    pub peak_bytes: u64,
    /// What nvidia-smi would report.
    pub nvidia_smi_bytes: u64,
    /// Simulated nanoseconds per training iteration.
    pub iteration_ns: u64,
    /// Training throughput in samples per simulated second.
    pub throughput: f64,
    /// Segment replays per iteration (0 without the Echo plan).
    pub replays: u64,
    /// Average simulated board power, watts.
    pub power_w: f64,
    /// Two-axis memory breakdown at the peak.
    #[serde(skip)]
    pub breakdown: Option<MemoryBreakdown>,
    /// Kernel/API trace summary.
    #[serde(skip)]
    pub trace: Option<TraceSummary>,
}

/// Configuration for [`run_nmt`].
#[derive(Debug, Clone)]
pub struct NmtRunConfig {
    /// Display label.
    pub label: String,
    /// Model hyperparameters.
    pub hyper: NmtHyper,
    /// Batch size.
    pub batch: usize,
    /// Apply the Echo recomputation plan.
    pub echo: bool,
    /// Device to simulate.
    pub spec: DeviceSpec,
    /// Enforce the device memory capacity (disable for breakdown-only
    /// runs that must not OOM).
    pub enforce_capacity: bool,
}

impl NmtRunConfig {
    /// A config with the Zhu et al. hyperparameters on a Titan Xp.
    pub fn zhu(
        label: impl Into<String>,
        backend: echo_rnn::LstmBackend,
        batch: usize,
        echo: bool,
    ) -> Self {
        NmtRunConfig {
            label: label.into(),
            hyper: NmtHyper::zhu(backend),
            batch,
            echo,
            spec: DeviceSpec::titan_xp(),
            enforce_capacity: true,
        }
    }
}

/// Projects NMT training iterations and measures everything.
///
/// Two projected runs are combined, mirroring how training statistics arise
/// in practice with bucketed batching:
///
/// * a **memory run** at the full unrolled lengths (`hyper.src_len` /
///   `tgt_len` — the longest bucket, which sets the peak footprint and
///   the OOM boundary), and
/// * a **runtime run** at [`RUNTIME_SEQ_LEN`] (a typical bucket, which
///   sets throughput, traces, power and energy).
///
/// On OOM the paper's estimation rule is applied: halve the batch until it
/// fits, then scale the measured footprint back up (tensor sizes are
/// linear in batch size, §6.2.2); the result is flagged `estimated` and
/// `oom`.
///
/// # Errors
///
/// Propagates non-OOM execution errors.
pub fn run_nmt(cfg: &NmtRunConfig) -> Result<NmtRunResult, GraphError> {
    match run_nmt_once(cfg, cfg.batch) {
        Ok(mut r) => {
            r.label = cfg.label.clone();
            Ok(r)
        }
        Err(GraphError::Oom(_)) => {
            // Halve until it fits, per the paper's estimation method.
            let mut batch = cfg.batch / 2;
            let mut factor = 2u64;
            loop {
                if batch == 0 {
                    return Err(GraphError::Oom(echo_memory::OomError {
                        requested: 0,
                        live: 0,
                        capacity: cfg.spec.memory_bytes,
                        tag: echo_memory::AllocationTag::new(
                            echo_memory::LayerKind::Other,
                            echo_memory::DataStructureKind::FeatureMap,
                            "estimation",
                        ),
                    }));
                }
                match run_nmt_once(cfg, batch) {
                    Ok(r) => {
                        return Ok(NmtRunResult {
                            label: cfg.label.clone(),
                            batch: cfg.batch,
                            oom: true,
                            estimated: true,
                            peak_bytes: r.peak_bytes * factor,
                            nvidia_smi_bytes: r.nvidia_smi_bytes * factor,
                            iteration_ns: r.iteration_ns * factor,
                            throughput: r.throughput,
                            replays: r.replays,
                            power_w: r.power_w,
                            breakdown: None,
                            trace: None,
                        });
                    }
                    Err(GraphError::Oom(_)) => {
                        batch /= 2;
                        factor *= 2;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Err(e) => Err(e),
    }
}

/// One projected training step of the model at the given lengths.
struct PhaseResult {
    peak_bytes: u64,
    nvidia_smi_bytes: u64,
    iteration_ns: u64,
    replays: u64,
    power_w: f64,
    breakdown: MemoryBreakdown,
    trace: TraceSummary,
}

fn run_phase(
    cfg: &NmtRunConfig,
    hyper: &NmtHyper,
    batch: usize,
) -> Result<PhaseResult, GraphError> {
    let model = NmtModel::build(*hyper);
    let bindings = model.symbolic_bindings(batch);
    let plan = if cfg.echo {
        let compiled = EchoCompiler::new(EchoConfig::default())
            .compile(
                &model.graph,
                &bindings,
                &model.param_shapes(),
                &[model.loss, model.logits],
            )
            .map_err(echo::EchoError::into_graph_error)?;
        compiled.plan
    } else {
        StashPlan::stash_all()
    };

    let mem = if cfg.enforce_capacity {
        DeviceMemory::with_capacity(cfg.spec.memory_bytes)
    } else {
        DeviceMemory::with_overhead_model(1 << 40, 600 << 20, 0.04)
    };
    let mut exec = Executor::new(Arc::clone(&model.graph), plan, mem.clone());
    model.bind_param_shapes(&mut exec)?;
    let mut sim = DeviceSim::new(cfg.spec.clone());
    sim.set_op_overhead_ns(FRAMEWORK_OP_OVERHEAD_NS);
    let stats = exec.project(&bindings, &[model.loss], Some(model.loss), Some(&mut sim))?;
    sim.synchronize();
    // The Sockeye training loop's per-iteration host work extends the
    // wall clock with the GPU idling.
    let device_ns = sim.elapsed_ns();
    let iteration_ns = device_ns + NMT_HOST_OVERHEAD_NS;
    let energy = sim.energy_joules() + cfg.spec.idle_power_w * NMT_HOST_OVERHEAD_NS as f64 * 1e-9;
    let power_w = energy / (iteration_ns as f64 * 1e-9);
    Ok(PhaseResult {
        peak_bytes: mem.peak_bytes(),
        nvidia_smi_bytes: mem.nvidia_smi_peak_bytes(),
        iteration_ns,
        replays: stats.replays,
        power_w,
        breakdown: MemoryBreakdown::at_category_maxima(&mem),
        trace: sim.summary(),
    })
}

fn run_nmt_once(cfg: &NmtRunConfig, batch: usize) -> Result<NmtRunResult, GraphError> {
    // Memory phase: full unrolled lengths (the longest bucket).
    let mem_phase = run_phase(cfg, &cfg.hyper, batch)?;
    // Runtime phase: a typical bucket.
    let mut runtime_hyper = cfg.hyper;
    runtime_hyper.src_len = runtime_hyper.src_len.min(RUNTIME_SEQ_LEN);
    runtime_hyper.tgt_len = runtime_hyper.tgt_len.min(RUNTIME_SEQ_LEN);
    let time_phase = run_phase(cfg, &runtime_hyper, batch)?;
    Ok(NmtRunResult {
        label: String::new(),
        batch,
        oom: false,
        estimated: false,
        peak_bytes: mem_phase.peak_bytes,
        nvidia_smi_bytes: mem_phase.nvidia_smi_bytes,
        iteration_ns: time_phase.iteration_ns,
        throughput: batch as f64 / (time_phase.iteration_ns as f64 * 1e-9),
        replays: mem_phase.replays,
        power_w: time_phase.power_w,
        breakdown: Some(mem_phase.breakdown),
        trace: Some(time_phase.trace),
    })
}

/// One projected word-LM measurement.
#[derive(Debug, Clone, Serialize)]
pub struct LmRunResult {
    /// Display label.
    pub label: String,
    /// Simulated nanoseconds per iteration.
    pub iteration_ns: u64,
    /// Samples (sentfragments of `batch` lanes) per simulated second.
    pub throughput: f64,
}

/// Projects one word-LM training iteration.
///
/// # Errors
///
/// Propagates execution errors.
pub fn run_lm(
    label: impl Into<String>,
    hyper: WordLmHyper,
    batch: usize,
    spec: &DeviceSpec,
) -> Result<LmRunResult, GraphError> {
    let lm = WordLm::build(hyper);
    let mem = DeviceMemory::with_capacity(spec.memory_bytes);
    let mut exec = Executor::new(Arc::clone(&lm.graph), StashPlan::stash_all(), mem);
    lm.bind_param_shapes(&mut exec)?;
    let mut sim = DeviceSim::new(spec.clone());
    sim.set_record_trace(false);
    sim.set_op_overhead_ns(FRAMEWORK_OP_OVERHEAD_NS);
    exec.project(
        &lm.symbolic_bindings(batch),
        &[lm.loss],
        Some(lm.loss),
        Some(&mut sim),
    )?;
    sim.synchronize();
    let ns = sim.elapsed_ns() + LM_HOST_OVERHEAD_NS;
    Ok(LmRunResult {
        label: label.into(),
        iteration_ns: ns,
        throughput: batch as f64 / (ns as f64 * 1e-9),
    })
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:<width$}  ",
                c,
                width = widths.get(i).copied().unwrap_or(8)
            ));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|&w| "-".repeat(w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// The directory experiment records go to: `$ECHO_RESULTS_DIR`, default
/// `./results`.
pub fn results_dir() -> PathBuf {
    PathBuf::from(std::env::var("ECHO_RESULTS_DIR").unwrap_or_else(|_| "results".to_string()))
}

/// Writes a JSON record for one experiment under [`results_dir`]. I/O
/// errors are reported but not fatal.
pub fn save_json(id: &str, value: &impl Serialize) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{id}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(text) => {
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!("[saved {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {id}: {e}"),
    }
}

/// Formats bytes as GiB with 2 decimals.
pub fn gib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / GIB)
}

/// Pearson correlation coefficient.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    cov / (vx.sqrt() * vy.sqrt()).max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_rnn::LstmBackend;

    #[test]
    fn pearson_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-9);
        let inv = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &inv) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn nmt_run_produces_consistent_numbers() {
        let mut cfg = NmtRunConfig::zhu("test", LstmBackend::CuDnn, 8, false);
        cfg.hyper.src_len = 20;
        cfg.hyper.tgt_len = 20;
        cfg.hyper.src_vocab = 2000;
        cfg.hyper.tgt_vocab = 2000;
        let r = run_nmt(&cfg).unwrap();
        assert!(!r.oom);
        assert!(r.peak_bytes > 0);
        assert!(r.throughput > 0.0);
        assert!(r.nvidia_smi_bytes > r.peak_bytes);
        assert!(r.breakdown.is_some());
    }

    #[test]
    fn echo_flag_reduces_peak() {
        let mut base = NmtRunConfig::zhu("base", LstmBackend::CuDnn, 8, false);
        base.hyper.src_len = 30;
        base.hyper.tgt_len = 30;
        base.hyper.src_vocab = 2000;
        base.hyper.tgt_vocab = 2000;
        let mut eco = base.clone();
        eco.echo = true;
        let r_base = run_nmt(&base).unwrap();
        let r_eco = run_nmt(&eco).unwrap();
        assert!(r_eco.replays > 0);
        assert!(
            r_eco.peak_bytes < r_base.peak_bytes,
            "echo {} vs base {}",
            r_eco.peak_bytes,
            r_base.peak_bytes
        );
    }

    #[test]
    fn oom_estimation_rule_kicks_in() {
        // A 12 GiB device cannot fit batch 512 at full Zhu scale.
        let cfg = NmtRunConfig::zhu("big", LstmBackend::CuDnn, 512, false);
        let r = run_nmt(&cfg).unwrap();
        assert!(r.oom && r.estimated);
        assert!(r.peak_bytes > DeviceSpec::titan_xp().memory_bytes);
    }

    #[test]
    fn lm_run_reports_throughput() {
        let hyper = WordLmHyper::tiny(500, LstmBackend::EcoRnn);
        let r = run_lm("lm", hyper, 32, &DeviceSpec::titan_xp()).unwrap();
        assert!(r.throughput > 0.0);
    }
}
