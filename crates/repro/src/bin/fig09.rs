//! Figure 9: runtime and memory-hierarchy utilization of `Y = XWᵀ` versus
//! `Yᵀ = WXᵀ` for (a) LSTM-shaped and (b) GRU-shaped fully-connected
//! layers.
//!
//! Two independent measurements:
//! * the **GPU model**: both formulations through the warp-coalescing +
//!   L2 trace simulator and the device timing model (the paper's actual
//!   mechanism);
//! * a **real CPU cross-check**: the same products run with the naive
//!   GEMM under both layouts on this machine.

use echo_cachesim::{simulate_gemm, CacheConfig, TiledGemmSpec};
use echo_device::{DeviceSim, DeviceSpec};
use echo_repro::{print_table, save_json};
use echo_tensor::gemm::{fc_col_major, fc_row_major};
use echo_tensor::init::{seeded_rng, uniform};
use echo_tensor::{MatView, MatViewMut, MatrixLayout, Shape};
use serde_json::json;
use std::time::Instant;

fn gpu_model_row(name: &str, spec: &TiledGemmSpec) -> (Vec<String>, serde_json::Value) {
    let report = simulate_gemm(spec, &CacheConfig::titan_xp_l2());
    let mut sim = DeviceSim::new(DeviceSpec::titan_xp());
    let ns = sim.launch_gemm(name, spec);
    let row = vec![
        name.to_string(),
        format!("{:.1}", ns as f64 / 1e3),
        format!("{:.0}%", report.coalescing_efficiency() * 100.0),
        format!("{:.0}%", report.l2_hit_rate() * 100.0),
        format!("{}", report.load_transactions),
        format!("{:.1}", report.total_dram_bytes() as f64 / 1e6),
    ];
    let j = json!({
        "name": name,
        "sim_us": ns as f64 / 1e3,
        "coalescing_efficiency": report.coalescing_efficiency(),
        "l2_hit_rate": report.l2_hit_rate(),
        "load_transactions": report.load_transactions,
        "dram_mb": report.total_dram_bytes() as f64 / 1e6,
    });
    (row, j)
}

/// Times the actual CPU product under a layout (median of `reps`).
fn cpu_time_us(b: usize, h: usize, o: usize, col_major: bool, reps: usize) -> f64 {
    let mut rng = seeded_rng(1);
    let x = uniform(Shape::d2(b, h), 1.0, &mut rng);
    let w = uniform(Shape::d2(o, h), 1.0, &mut rng);
    let xt = x.transpose2().expect("rank 2");
    let mut out = vec![0.0f32; b * o];
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            if col_major {
                fc_col_major(
                    w.as_mat(),
                    MatView::new(xt.data(), b, h, MatrixLayout::ColMajor),
                    &mut MatViewMut::new(&mut out, o, b, MatrixLayout::RowMajor),
                )
                .expect("gemm");
            } else {
                fc_row_major(
                    x.as_mat(),
                    w.as_mat(),
                    &mut MatViewMut::new(&mut out, b, o, MatrixLayout::RowMajor),
                )
                .expect("gemm");
            }
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    times[times.len() / 2]
}

fn main() {
    let mut all = Vec::new();
    for (panel, b, h, o) in [
        ("(a) LSTM", 64usize, 512usize, 2048usize),
        ("(b) GRU", 64, 1024, 3072),
    ] {
        let (row_rm, j_rm) = gpu_model_row(
            "Y=XW^T   (row-major)",
            &TiledGemmSpec::fc_row_major(b, h, o),
        );
        let (row_cm, j_cm) = gpu_model_row(
            "Y^T=WX^T (col-major)",
            &TiledGemmSpec::fc_col_major(b, h, o),
        );
        print_table(
            &format!("Figure 9{panel}: X [{b} x {h}], W [{o} x {h}] — GPU model"),
            &[
                "formulation",
                "sim µs",
                "coalesce",
                "L2 hit",
                "load tx",
                "DRAM MB",
            ],
            &[row_rm, row_cm],
        );

        let cpu_rm = cpu_time_us(b, h, o, false, 5);
        let cpu_cm = cpu_time_us(b, h, o, true, 5);
        println!(
            "real CPU cross-check (naive GEMM): row-major {cpu_rm:.0} µs, col-major {cpu_cm:.0} µs"
        );
        all.push(json!({"panel": panel, "row_major": j_rm, "col_major": j_cm,
                        "cpu_row_major_us": cpu_rm, "cpu_col_major_us": cpu_cm}));
    }
    println!(
        "\nPaper's claim: Y^T = WX^T is up to ~2x faster (LSTM shape) / ~1.3x (GRU shape)\n\
         with better cache behaviour, despite identical FLOPs."
    );
    save_json("fig09", &all);
}
