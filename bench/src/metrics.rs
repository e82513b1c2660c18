//! The metric tables: names, units, directions and regression bounds.
//! `BENCHMARK.json` at the repository root states the same tables for
//! the driver; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Reported by every workload on every untraced run.
///
/// One bound per metric has to hold on all six workloads, so each is set
/// by the noisiest: on this shared 2-vCPU host whole runs of the
/// memory-heavy workloads shift by several percent (interquartile range
/// of ten runs up to 10 % of the median on `train_nmt_echo` in a noisy
/// quarter of an hour, up to 5 % in a quiet one), and a bound is kept at
/// twice the widest spread seen. `peak_bytes` is exact, so any change at
/// all is a real one.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "tokens_per_s",
        unit: "tokens/s",
        lower_is_better: false,
        bound: 0.2,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        lower_is_better: true,
        bound: 0.2,
    },
    EndToEnd {
        name: "ttft_p50_ms",
        unit: "ms",
        lower_is_better: true,
        bound: 0.2,
    },
    EndToEnd {
        name: "gap_p50_ms",
        unit: "ms",
        lower_is_better: true,
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_bytes",
        unit: "B",
        lower_is_better: true,
        bound: 0.001,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
}

const fn up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        lower_is_better: false,
    }
}

const fn down(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        lower_is_better: true,
    }
}

/// Reported by every workload on every traced run. The `window.*`,
/// `harness.*` and `memory.peak_rss_bytes` values come from the traced
/// third of the workload's own window; every other value comes from the
/// isolated probe suite (`probes.rs`), whose shapes are fixed, so that
/// each is a real measurement in whichever workload's process it runs.
pub const PER_LAYER: &[PerLayer] = &[
    // The workload's own window: each layer's self time as a share of
    // the window's wall time (the harness's share is the remainder).
    up("window.data_share", "share"),
    up("window.graph_share", "share"),
    up("window.models_share", "share"),
    up("window.serve_share", "share"),
    down("harness.trace_overhead_share", "share"),
    down("harness.block_spread", "share"),
    up("harness.samples", "count"),
    down("memory.peak_rss_bytes", "B"),
    // tensor: GEMM at the shapes the workloads spend their time in.
    up("tensor.gemm_gates_gflops", "GFLOP/s"),
    up("tensor.gemm_proj_gflops", "GFLOP/s"),
    up("tensor.gemm_dw_gflops", "GFLOP/s"),
    up("tensor.gemm_decode_gflops", "GFLOP/s"),
    down("tensor.gemm_small_ns", "ns"),
    down("tensor.gemm_step_share", "share"),
    up("tensor.host_peak_gflops", "GFLOP/s"),
    up("tensor.host_copy_gbs", "GB/s"),
    up("tensor.autotune_kc", "count"),
    up("tensor.autotune_mc", "count"),
    // rnn, ops: one operator group at a workload's shape.
    down("rnn.lstm_fused_step_ms", "ms"),
    down("rnn.lstm_unfused_step_ms", "ms"),
    down("ops.attention_step_ms", "ms"),
    down("ops.softmax_ce_step_ms", "ms"),
    // graph: the plan interpreter on the launch-bound LM.
    down("graph.forward_ms", "ms"),
    down("graph.train_step_ms", "ms"),
    down("graph.backward_ms", "ms"),
    down("graph.launches_per_step", "count"),
    down("graph.fwd_launches", "count"),
    down("graph.us_per_launch", "us"),
    down("graph.planned_step_gflop", "GFLOP"),
    up("graph.attained_gflops", "GFLOP/s"),
    down("graph.plan_build_ms", "ms"),
    down("graph.plan_fallbacks", "count"),
    down("graph.legacy_step_ms", "ms"),
    down("graph.wavefront_pool2_step_ms", "ms"),
    down("graph.infer_step_ms", "ms"),
    // graph on the GEMM-bound LM.
    down("graph.gemm_train_step_ms", "ms"),
    up("graph.gemm_attained_gflops", "GFLOP/s"),
    // core, graph replay: the Echo plan on the NMT model.
    down("graph.replays_per_step", "count"),
    down("graph.planned_recompute_gflop", "GFLOP"),
    down("core.compile_ms", "ms"),
    up("core.segments", "count"),
    down("core.planned_peak_bytes", "B"),
    up("core.saved_bytes", "B"),
    down("core.workspace_bytes", "B"),
    down("core.echo_step_ms", "ms"),
    down("core.stashall_step_ms", "ms"),
    down("core.stashall_peak_bytes", "B"),
    up("core.peak_reduction", "ratio"),
    down("core.replay_overhead_share", "share"),
    // memory: accounting against the plan, and pool churn.
    down("memory.measured_peak_bytes", "B"),
    down("memory.plan_gap_bytes", "B"),
    down("memory.pool_takes_per_step", "count"),
    up("memory.pool_hit_rate", "share"),
    // data, models: the rest of a training step.
    down("data.bind_ms", "ms"),
    down("data.bind_share", "share"),
    down("data.corpus_gen_ms", "ms"),
    down("models.optimizer_ms", "ms"),
    down("models.optimizer_share", "share"),
    // models: the pipeline trainer against the serial one.
    down("models.serial_step_ms", "ms"),
    down("models.pipe_p1_step_ms", "ms"),
    down("models.pipe_p2_step_ms", "ms"),
    down("models.pipe_p2_vs_serial", "ratio"),
    down("models.pipe_cut_bytes", "B"),
    down("models.pipe_stage_peak_bytes", "B"),
    // serve: a short open-loop window on the wide model, then its
    // closed-loop capacity, the wire, and the session cache.
    down("serve.steps", "count"),
    down("serve.step_ms", "ms"),
    up("serve.occupancy", "lanes"),
    down("serve.churn_per_step", "count"),
    down("serve.queue_depth_p90", "count"),
    down("serve.ttft_p90_ms", "ms"),
    down("serve.gap_p90_ms", "ms"),
    down("serve.latency_p90_ms", "ms"),
    down("serve.generator_lateness_p90_ms", "ms"),
    down("serve.sched_overhead_share", "share"),
    up("serve.closed_capacity_tokens_per_s", "tokens/s"),
    up("serve.wire_tokens_per_s", "tokens/s"),
    down("serve.wire_ping_us", "us"),
    up("serve.cache_hit_rate", "share"),
    down("serve.rewarm_tokens", "count"),
    // device: the cost model against the host.
    down("device.sim_step_ms", "ms"),
    down("device.host_over_sim", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;
    use serde_json::Value;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap()
    }

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("no {key}"))
    }

    fn better(lower: bool) -> &'static str {
        if lower {
            "lower"
        } else {
            "higher"
        }
    }

    #[test]
    fn benchmark_json_states_these_tables() {
        let m = manifest();
        let workloads = m.get("workloads").and_then(Value::as_array).unwrap();
        assert_eq!(workloads.len(), SPECS.len());
        for (w, s) in workloads.iter().zip(&SPECS) {
            assert_eq!((text(w, "name"), text(w, "why")), (s.name, s.why));
        }
        let e2e = m.get("end_to_end").and_then(Value::as_array).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, e) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(j, "name"), e.name);
            assert_eq!(text(j, "unit"), e.unit);
            assert_eq!(text(j, "better"), better(e.lower_is_better));
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(e.bound));
        }
        let layers = m.get("per_layer").and_then(Value::as_array).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, p) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(j, "name"), p.name);
            assert_eq!(text(j, "unit"), p.unit);
            assert_eq!(text(j, "better"), better(p.lower_is_better));
        }
    }

    #[test]
    fn tables_are_within_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in END_TO_END
            .iter()
            .map(|e| (e.name, e.unit))
            .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)))
            .chain(SPECS.iter().map(|s| (s.name, "count")))
        {
            assert!(ok_name(n), "{n}");
            assert!(ok_unit(u), "{n}: {u}");
            assert!(seen.insert(n), "{n} is used twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|e| e.bound <= 0.25));
        let setup = END_TO_END.iter().find(|e| e.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.lower_is_better);
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));
    }
}
