//! The device simulator: stream-ordered kernel execution, CUDA API
//! accounting, power integration and trace aggregation.

use crate::kernel::{KernelCategory, KernelCost};
use crate::spec::DeviceSpec;
use echo_cachesim::{simulate_gemm, GemmMemReport, TiledGemmSpec};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One executed kernel in the trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelRecord {
    /// Kernel name (e.g. `sgemm_lstm_gates`).
    pub name: String,
    /// Classification for breakdown figures.
    pub category: KernelCategory,
    /// GPU start time, nanoseconds since trace start.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub duration_ns: u64,
}

/// CUDA API time accounting (the right-hand bar of Figure 6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApiStats {
    /// Total CPU time spent in `cudaLaunch`.
    pub launch_ns: u64,
    /// Number of launches.
    pub launch_calls: u64,
    /// Total CPU time spent blocked in `cudaSynchronize`.
    pub sync_ns: u64,
    /// Number of synchronizations.
    pub sync_calls: u64,
}

/// Aggregated view of a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Wall-clock span of the trace in nanoseconds.
    pub elapsed_ns: u64,
    /// Sum of kernel durations.
    pub kernel_ns: u64,
    /// Kernel time by category, descending.
    pub by_category: Vec<(KernelCategory, u64)>,
    /// Kernel time by name, descending.
    pub by_name: Vec<(String, u64)>,
    /// API accounting.
    pub api: ApiStats,
}

impl TraceSummary {
    /// Kernel time attributed to one category.
    pub fn category_ns(&self, cat: KernelCategory) -> u64 {
        self.by_category
            .iter()
            .find(|(c, _)| *c == cat)
            .map_or(0, |(_, ns)| *ns)
    }

    /// Fraction of total kernel time in one category.
    pub fn category_fraction(&self, cat: KernelCategory) -> f64 {
        if self.kernel_ns == 0 {
            0.0
        } else {
            self.category_ns(cat) as f64 / self.kernel_ns as f64
        }
    }
}

/// A simulated GPU attached to a host thread.
///
/// Kernels execute in stream order. Launching costs the CPU
/// [`DeviceSpec::launch_overhead_ns`]; a kernel starts when both the CPU
/// has submitted it and the GPU has finished its predecessor — which is
/// what makes a train of tiny kernels launch-bound while a fused
/// implementation is roofline-bound.
///
/// # Example
///
/// ```
/// use echo_device::{DeviceSim, DeviceSpec, KernelCategory, KernelCost};
///
/// let mut sim = DeviceSim::new(DeviceSpec::titan_xp());
/// for _ in 0..100 {
///     sim.launch("small", KernelCategory::Elementwise, KernelCost::elementwise(1000, 2));
/// }
/// sim.synchronize();
/// let trace = sim.summary();
/// // 100 `cudaLaunch` calls dominate: the GPU starves.
/// assert_eq!(trace.api.launch_calls, 100);
/// assert!(trace.api.launch_ns >= 100 * DeviceSpec::titan_xp().launch_overhead_ns);
/// ```
#[derive(Debug, Clone)]
pub struct DeviceSim {
    spec: DeviceSpec,
    cpu_ns: u64,
    gpu_ready_ns: u64,
    records: Vec<KernelRecord>,
    api: ApiStats,
    energy_j: f64,
    busy_energy_j: f64,
    gemm_cache: HashMap<TiledGemmSpec, GemmMemReport>,
    record_trace: bool,
    op_overhead_ns: u64,
    kernel_ns_by_cat: HashMap<KernelCategory, u64>,
    kernel_ns_by_name: HashMap<String, u64>,
    kernel_ns_total: u64,
    last_kernel_end_ns: u64,
}

impl DeviceSim {
    /// Creates a simulator for `spec` with full tracing enabled.
    pub fn new(spec: DeviceSpec) -> Self {
        DeviceSim {
            spec,
            cpu_ns: 0,
            gpu_ready_ns: 0,
            records: Vec::new(),
            api: ApiStats::default(),
            energy_j: 0.0,
            busy_energy_j: 0.0,
            gemm_cache: HashMap::new(),
            record_trace: true,
            op_overhead_ns: 0,
            kernel_ns_by_cat: HashMap::new(),
            kernel_ns_by_name: HashMap::new(),
            kernel_ns_total: 0,
            last_kernel_end_ns: 0,
        }
    }

    /// Disables per-kernel record keeping (aggregates are still kept);
    /// useful for long training simulations.
    pub fn set_record_trace(&mut self, record: bool) {
        self.record_trace = record;
    }

    /// Sets the CPU-side cost of dispatching one framework operator
    /// (graph-executor bookkeeping, Python/C++ glue — distinct from the
    /// per-kernel `cudaLaunch` cost). MXNet-era symbolic executors spend
    /// 20–100 µs per op from Python, a few µs from C++; this is the
    /// B-independent overhead that makes NMT training throughput scale
    /// with batch size (paper Figure 4b) and hides the cost of extra
    /// replay kernels.
    pub fn set_op_overhead_ns(&mut self, ns: u64) {
        self.op_overhead_ns = ns;
    }

    /// Advances the CPU clock by one operator dispatch.
    pub fn dispatch_op(&mut self) {
        self.cpu_ns += self.op_overhead_ns;
    }

    /// The device being simulated.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Computes a kernel's duration under the roofline rule without
    /// launching it.
    pub fn kernel_duration_ns(&self, cost: &KernelCost) -> u64 {
        let eff = self.spec.compute_efficiency(cost.parallelism);
        let t_compute = cost.flops as f64 / (self.spec.peak_flops * eff);
        let bw = self.spec.dram_bandwidth * cost.bandwidth_efficiency.clamp(1e-6, 1.0);
        let t_dram = cost.dram_bytes as f64 / bw;
        let t_l2 = cost.l2_bytes as f64 / self.spec.l2_bandwidth;
        let t = t_compute.max(t_dram).max(t_l2);
        (t * 1e9) as u64 + self.spec.kernel_fixed_ns
    }

    /// Launches a kernel: advances the CPU by the launch overhead, queues
    /// the kernel on the GPU stream, integrates energy. Returns the kernel
    /// duration in nanoseconds.
    pub fn launch(&mut self, name: &str, category: KernelCategory, cost: KernelCost) -> u64 {
        let duration = self.kernel_duration_ns(&cost);

        // CPU side: cudaLaunch.
        let submit_ns = self.cpu_ns + self.spec.launch_overhead_ns;
        self.cpu_ns = submit_ns;
        self.api.launch_ns += self.spec.launch_overhead_ns;
        self.api.launch_calls += 1;

        // GPU side: starts when submitted and predecessor finished.
        let start_ns = submit_ns.max(self.gpu_ready_ns);
        let end_ns = start_ns + duration;

        // Energy: idle gap then busy kernel.
        let gap_ns = start_ns.saturating_sub(self.last_kernel_end_ns);
        self.energy_j += self.spec.idle_power_w * gap_ns as f64 * 1e-9;
        let eff = self.spec.compute_efficiency(cost.parallelism);
        let t_compute = cost.flops as f64 / (self.spec.peak_flops * eff) * 1e9;
        let t_dram = cost.dram_bytes as f64
            / (self.spec.dram_bandwidth * cost.bandwidth_efficiency.clamp(1e-6, 1.0))
            * 1e9;
        let comp_frac = (t_compute / duration as f64).min(1.0);
        let mem_frac = (t_dram / duration as f64).min(1.0);
        let util = (comp_frac + 0.4 * mem_frac).min(1.0);
        let power =
            self.spec.idle_power_w + (self.spec.max_power_w - self.spec.idle_power_w) * util;
        let kernel_energy = power * duration as f64 * 1e-9;
        self.energy_j += kernel_energy;
        self.busy_energy_j += kernel_energy;

        self.gpu_ready_ns = end_ns;
        self.last_kernel_end_ns = end_ns;
        self.kernel_ns_total += duration;
        *self.kernel_ns_by_cat.entry(category).or_default() += duration;
        *self.kernel_ns_by_name.entry(name.to_string()).or_default() += duration;
        if self.record_trace {
            self.records.push(KernelRecord {
                name: name.to_string(),
                category,
                start_ns,
                duration_ns: duration,
            });
        }
        duration
    }

    /// Launches a GEMM whose memory behaviour comes from the trace
    /// simulator (memoized per problem/layout). Returns the duration.
    pub fn launch_gemm(&mut self, name: &str, gemm: &TiledGemmSpec) -> u64 {
        let report = self
            .gemm_cache
            .entry(gemm.clone())
            .or_insert_with(|| simulate_gemm(gemm, &self.spec.l2))
            .to_owned();
        let l2_bytes = (report.load_transactions + report.store_transactions) * 32;
        let cost = KernelCost::new(report.flops, report.total_dram_bytes(), gemm.m * gemm.n)
            .with_l2_bytes(l2_bytes)
            .with_bandwidth_efficiency(0.9);
        self.launch(name, KernelCategory::FullyConnected, cost)
    }

    /// Blocks the CPU until the GPU stream drains (`cudaSynchronize`).
    pub fn synchronize(&mut self) {
        let wait = self.gpu_ready_ns.saturating_sub(self.cpu_ns);
        self.api.sync_ns += wait;
        self.api.sync_calls += 1;
        self.cpu_ns = self.cpu_ns.max(self.gpu_ready_ns);
    }

    /// Wall-clock nanoseconds elapsed (host view).
    pub fn elapsed_ns(&self) -> u64 {
        self.cpu_ns.max(self.gpu_ready_ns)
    }

    /// Total energy consumed, joules (includes idle floor up to the last
    /// kernel's end).
    pub fn energy_joules(&self) -> f64 {
        self.energy_j
    }

    /// Average board power over the elapsed window, watts.
    pub fn average_power_w(&self) -> f64 {
        let elapsed = self.elapsed_ns();
        if elapsed == 0 {
            return self.spec.idle_power_w;
        }
        // Time after the last kernel (CPU overhang) idles.
        let tail = elapsed.saturating_sub(self.last_kernel_end_ns);
        let total = self.energy_j + self.spec.idle_power_w * tail as f64 * 1e-9;
        total / (elapsed as f64 * 1e-9)
    }

    /// The per-kernel records (empty if tracing was disabled).
    pub fn records(&self) -> &[KernelRecord] {
        &self.records
    }

    /// An FNV-1a digest of the per-kernel records (name, category, start,
    /// duration, in launch order): two simulations that launched the same
    /// kernels at the same simulated times share it.
    pub fn trace_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for r in &self.records {
            eat(r.name.as_bytes());
            eat(format!("{:?}", r.category).as_bytes());
            eat(&r.start_ns.to_le_bytes());
            eat(&r.duration_ns.to_le_bytes());
        }
        h
    }

    /// API accounting so far.
    pub fn api_stats(&self) -> &ApiStats {
        &self.api
    }

    /// Builds the aggregate summary of everything launched so far. Rows
    /// are ordered by time, longest first, and equal times by name.
    pub fn summary(&self) -> TraceSummary {
        let mut by_category: Vec<(KernelCategory, u64)> = self
            .kernel_ns_by_cat
            .iter()
            .map(|(&c, &ns)| (c, ns))
            .collect();
        by_category.sort_by_cached_key(|&(c, ns)| (std::cmp::Reverse(ns), c.to_string()));
        let mut by_name: Vec<(String, u64)> = self
            .kernel_ns_by_name
            .iter()
            .map(|(n, &ns)| (n.clone(), ns))
            .collect();
        by_name.sort_by(|(a, a_ns), (b, b_ns)| b_ns.cmp(a_ns).then_with(|| a.cmp(b)));
        TraceSummary {
            elapsed_ns: self.elapsed_ns(),
            kernel_ns: self.kernel_ns_total,
            by_category,
            by_name,
            api: self.api,
        }
    }

    /// Clears clocks, traces, API stats and energy, keeping the memoized
    /// GEMM reports (they depend only on problem geometry).
    pub fn reset(&mut self) {
        self.cpu_ns = 0;
        self.gpu_ready_ns = 0;
        self.records.clear();
        self.api = ApiStats::default();
        self.energy_j = 0.0;
        self.busy_energy_j = 0.0;
        self.kernel_ns_by_cat.clear();
        self.kernel_ns_by_name.clear();
        self.kernel_ns_total = 0;
        self.last_kernel_end_ns = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_cachesim::TiledGemmSpec;

    fn sim() -> DeviceSim {
        DeviceSim::new(DeviceSpec::titan_xp())
    }

    #[test]
    fn tiny_kernels_are_launch_bound() {
        let mut s = sim();
        let n = 200;
        for _ in 0..n {
            s.launch(
                "tiny",
                KernelCategory::Elementwise,
                KernelCost::elementwise(1024, 2),
            );
        }
        s.synchronize();
        let launch_total = n * s.spec().launch_overhead_ns;
        // Wall clock is within 25% of pure launch overhead: the GPU starves.
        assert!(s.elapsed_ns() >= launch_total);
        assert!(s.elapsed_ns() < launch_total * 5 / 4);
        // Kernels themselves were much cheaper than the wall clock.
        assert!(s.summary().kernel_ns < s.elapsed_ns());
    }

    #[test]
    fn big_kernel_is_roofline_bound() {
        let mut s = sim();
        // 1 GiB of streaming traffic: ~2 ms at 547 GB/s.
        let cost = KernelCost::new(1000, 1 << 30, 1 << 20);
        s.launch("bigcopy", KernelCategory::Elementwise, cost);
        s.synchronize();
        let expected = (1u64 << 30) as f64 / (547.6e9 * 0.85) * 1e9;
        let got = s.elapsed_ns() as f64;
        assert!(
            (got / expected - 1.0).abs() < 0.1,
            "got {got} expected {expected}"
        );
        // Sync time accounts for the GPU running ahead of the CPU.
        assert!(s.api_stats().sync_ns > 0);
    }

    #[test]
    fn gemm_layouts_change_duration() {
        let mut s = sim();
        let rm = s.launch_gemm("fc_rm", &TiledGemmSpec::fc_row_major(64, 512, 2048));
        let cm = s.launch_gemm("fc_cm", &TiledGemmSpec::fc_col_major(64, 512, 2048));
        assert!(
            rm as f64 / cm as f64 > 1.3,
            "row-major {rm} ns should be slower than col-major {cm} ns"
        );
    }

    #[test]
    fn gemm_reports_are_memoized() {
        let mut s = sim();
        let spec = TiledGemmSpec::fc_row_major(64, 512, 2048);
        let d1 = s.launch_gemm("fc", &spec);
        let d2 = s.launch_gemm("fc", &spec);
        assert_eq!(d1, d2);
        assert_eq!(s.gemm_cache.len(), 1);
    }

    #[test]
    fn sequential_reverse_is_catastrophically_slow() {
        let mut s = sim();
        let bytes = (128 * 50 * 512 * 4) as u64;
        // Paper §5.1: ~1 GB/s effective read bandwidth.
        let slow = KernelCost::new(0, bytes, 128).with_bandwidth_efficiency(0.002);
        let fast = KernelCost::new(0, bytes, 128 * 50 * 512).with_bandwidth_efficiency(0.8);
        let t_slow = s.launch("seqrev_seq", KernelCategory::SequenceReverse, slow);
        let t_fast = s.launch("seqrev_par", KernelCategory::SequenceReverse, fast);
        assert!(t_slow > t_fast * 100);
    }

    #[test]
    fn summary_orders_and_attributes() {
        let mut s = sim();
        s.launch(
            "a",
            KernelCategory::Softmax,
            KernelCost::new(0, 1 << 20, 1024),
        );
        s.launch(
            "b",
            KernelCategory::FullyConnected,
            KernelCost::new(0, 1 << 26, 1024),
        );
        s.synchronize();
        let t = s.summary();
        assert_eq!(t.by_category[0].0, KernelCategory::FullyConnected);
        assert!(t.category_fraction(KernelCategory::FullyConnected) > 0.9);
        assert_eq!(t.by_name[0].0, "b");
        assert_eq!(t.api.launch_calls, 2);
    }

    #[test]
    fn energy_increases_with_work_and_power_is_bounded() {
        let mut s = sim();
        s.launch(
            "k",
            KernelCategory::FullyConnected,
            KernelCost::new(1 << 32, 1 << 28, 1 << 20),
        );
        s.synchronize();
        let e1 = s.energy_joules();
        assert!(e1 > 0.0);
        let p = s.average_power_w();
        assert!(p >= s.spec().idle_power_w * 0.9);
        assert!(p <= s.spec().max_power_w);
        s.launch(
            "k",
            KernelCategory::FullyConnected,
            KernelCost::new(1 << 32, 1 << 28, 1 << 20),
        );
        s.synchronize();
        assert!(s.energy_joules() > e1);
    }

    #[test]
    fn reset_preserves_gemm_cache() {
        let mut s = sim();
        s.launch_gemm("fc", &TiledGemmSpec::fc_row_major(64, 256, 1024));
        s.reset();
        assert_eq!(s.elapsed_ns(), 0);
        assert_eq!(s.api_stats().launch_calls, 0);
        assert_eq!(s.gemm_cache.len(), 1);
    }

    #[test]
    fn summary_orders_equal_times_by_name() {
        let kernels = [
            ("d", KernelCategory::Softmax),
            ("b", KernelCategory::Attention),
            ("c", KernelCategory::Transpose),
            ("a", KernelCategory::Reduction),
        ];
        let summary = |kernels: &[(&str, KernelCategory)]| {
            let mut s = sim();
            for &(name, cat) in kernels {
                s.launch(name, cat, KernelCost::elementwise(1024, 2));
            }
            s.summary()
        };
        let forward = summary(&kernels);
        let mut reversed = kernels;
        reversed.reverse();
        assert_eq!(forward, summary(&reversed));
        let names: Vec<&str> = forward.by_name.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b", "c", "d"]);
        let cats: Vec<String> = forward
            .by_category
            .iter()
            .map(|(c, _)| c.to_string())
            .collect();
        assert_eq!(cats, ["attention", "reduction", "softmax", "transpose"]);
    }

    #[test]
    fn faster_device_runs_faster() {
        let mut xp = DeviceSim::new(DeviceSpec::titan_xp());
        let mut v = DeviceSim::new(DeviceSpec::titan_v());
        let cost = KernelCost::new(1 << 34, 1 << 30, 1 << 22);
        let t_xp = xp.launch("k", KernelCategory::FullyConnected, cost);
        let t_v = v.launch("k", KernelCategory::FullyConnected, cost);
        assert!(t_v < t_xp);
    }
}
