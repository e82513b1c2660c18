//! Figure 19: power and energy. Echo leaves board power essentially
//! unchanged, so the energy to reach the same quality shrinks by exactly
//! the wall-clock speedup (paper: ~1.5x more energy-efficient).

use echo_repro::{print_table, results_dir, run_nmt, save_json, NmtRunConfig};
use echo_rnn::LstmBackend;
use serde_json::json;

/// Samples processed by the paper's full training run, for the energy
/// comparison (the constant cancels in the ratio).
const TRAINING_SAMPLES: f64 = 5.0e6;

fn main() {
    let configs = [
        NmtRunConfig::zhu("Default^par B=128", LstmBackend::Default, 128, false),
        NmtRunConfig::zhu("EcoRNN^par  B=128", LstmBackend::Default, 128, true),
        NmtRunConfig::zhu("EcoRNN^par  B=256", LstmBackend::Default, 256, true),
    ];
    let results: Vec<_> = configs.iter().map(|c| run_nmt(c).expect("run")).collect();

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let train_seconds = TRAINING_SAMPLES / r.throughput;
            let energy_kj = r.power_w * train_seconds / 1e3;
            vec![
                r.label.clone(),
                format!("{:.0}", r.power_w),
                format!("{:.0}", train_seconds),
                format!("{:.0}", energy_kj),
            ]
        })
        .collect();
    print_table(
        "Figure 19: average board power (a) and energy to process 5M samples (b)",
        &["config", "power W", "sim time s", "energy kJ"],
        &rows,
    );

    let p0 = results[0].power_w;
    let p2 = results[2].power_w;
    let e_ratio = (p0 * TRAINING_SAMPLES / results[0].throughput)
        / (p2 * TRAINING_SAMPLES / results[2].throughput);
    // Energy for a fixed sample budget is the internally consistent
    // full-scale quantity (power and throughput measured at B=128/256).
    // The paper's ~1.5x energy gain additionally includes a large-batch
    // convergence bonus it observed at IWSLT scale; our toy-scale training
    // (Figure 12) reaches target quality 1.19x faster in wall-clock but
    // shows no sample-efficiency bonus, so we report the fixed-budget
    // number and cite Figure 12's wall-clock result alongside.
    let time_speedup = std::fs::read_to_string(results_dir().join("fig12.json"))
        .ok()
        .and_then(|text| serde_json::from_str::<serde_json::Value>(&text).ok())
        .and_then(|v| v.get("time_to_quality_speedup").and_then(|b| b.as_f64()));
    println!(
        "\npower difference: {:.1}% (paper: negligible); energy for a fixed sample\n\
         budget: {e_ratio:.2}x less for EcoRNN B=256 (paper: ~1.5x including a\n\
         large-batch convergence bonus; Figure 12 measures the wall-clock\n\
         time-to-quality speedup at {})",
        100.0 * (p2 - p0) / p0,
        time_speedup.map_or("n/a".to_string(), |t| format!("{t:.2}x")),
    );
    save_json(
        "fig19",
        &json!({"results": results, "energy_gain_fixed_samples": e_ratio,
                "time_to_quality_speedup": time_speedup}),
    );
}
