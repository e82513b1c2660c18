//! The repository's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! echo-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! echo-bench run    [--seed N] [--seconds S] [--quick] [--trace]
//! echo-bench repeat [--sets 2] [--runs 5] [--seed N] [--seconds S] [--quick]
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of its standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `run` and `repeat`
//! start one such process per workload, one after another.

mod gen;
mod metrics;
mod probes;
mod stats;
mod suite;
mod trace;
mod workloads;

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::Tracer;
use workloads::{Report, Run, Spec, Window};

/// Rule 2: the program's own knob for its kernel pool. One thread keeps
/// GEMM banding and `WavefrontMode::Auto` serial; the 2-thread pool makes
/// the launch-bound step bimodal between processes on this 2-vCPU host.
pub const PINNED_THREADS: &str = "1";
pub const DEFAULT_SEED: u64 = 14;
pub const DEFAULT_SECONDS: f64 = 12.0;
/// `--quick`: counts ÷ 10 against the 15-second reference window.
pub const QUICK_SECONDS: f64 = 1.5;

/// Where traces and run summaries go: `bench/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub command: Option<String>,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub quick: bool,
    pub sets: usize,
    pub runs: usize,
}

impl Args {
    pub fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

pub fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        sets: 2,
        runs: 5,
    };
    let mut it = raw.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().cloned();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|e| format!("{flag} {text}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = number(value("a number")?)?,
            "--sets" => args.sets = number(value("a number")?)? as usize,
            "--runs" => args.runs = number(value("a number")?)? as usize,
            "--seconds" => {
                let text = value("a number")?;
                let s: f64 = text.parse().map_err(|e| format!("--seconds {text}: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                args.seconds = Some(s);
            }
            "--quick" => args.quick = true,
            "--trace" => {
                // `--trace 0|1` from the driver, bare `--trace` by hand.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.sets == 0 || args.runs == 0 {
        return Err("--sets and --runs must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    // Before anything touches the program: its global pool reads this
    // once, lazily.
    std::env::set_var("ECHO_NUM_THREADS", PINNED_THREADS);
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&raw).and_then(|args| match args.command.as_deref() {
        None => single(&args),
        Some("run") => suite::run(&args),
        Some("repeat") => suite::repeat(&args),
        Some(other) => Err(format!("unknown command {other}")),
    });
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("echo-bench: {e}");
            std::process::exit(2);
        }
    }
}

/// The six end-to-end values of a window, in table order.
fn end_to_end(window: &Window, setups_s: &[f64]) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("tokens_per_s", window.tokens_per_s()),
        ("latency_p50_ms", stats::median(&window.latency_ms)),
        ("ttft_p50_ms", stats::median(&window.ttft_ms)),
        ("gap_p50_ms", stats::median(&window.gap_ms)),
        ("peak_bytes", window.peak_bytes as f64),
        ("setup_s", stats::median(setups_s)),
    ])
}

fn metric_json(value: f64, unit: &str) -> Value {
    // Byte and count values are whole; print them so.
    if value.fract() == 0.0 && value.abs() < 9e15 {
        json!({"value": value as i64, "unit": unit})
    } else {
        json!({"value": value, "unit": unit})
    }
}

fn vm_hwm_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0)
}

fn describe_autotune() -> String {
    match echo_tensor::policy::autotune_outcome() {
        Some(o) => format!(
            "{} kernel {} tiles kc={} mc={} (measured {})",
            o.chosen.name(),
            o.kernel.name(),
            o.tiles.0,
            o.tiles.1,
            o.tiles_measured
        ),
        None => "large GEMM tier never dispatched".into(),
    }
}

/// Runs one workload in this process (rule 1: the caller gives each
/// workload its own process).
fn single(args: &Args) -> Result<bool, String> {
    let name = args
        .workload
        .as_deref()
        .ok_or("give --workload <name>, or the command `run` or `repeat`")?;
    let spec: Spec = workloads::spec(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::SPECS.iter().map(|s| s.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            names.join(", ")
        )
    })?;
    let run = Run::new(&spec, args.seed, args.seconds(), args.quick, args.trace);
    println!(
        "workload {name}: seed {} window {} ops ({} s at the reference speed) set-ups {} \
         ECHO_NUM_THREADS={PINNED_THREADS} nproc {}{}",
        run.seed,
        run.ops,
        args.seconds(),
        run.setups,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if run.trace { " traced" } else { "" },
    );
    println!("  why: {}", spec.why);

    let mut tracer = Tracer::new(false);
    let report = workloads::run(&spec, &run, &mut tracer)?;
    let measured = report.traced.as_ref().unwrap_or(&report.window);
    let attempted = report.window.attempted() + report.traced.as_ref().map_or(0, Window::attempted);
    let failed = report.window.failed + report.traced.as_ref().map_or(0, |w| w.failed);
    if measured.latency_ms.is_empty() || measured.gap_ms.is_empty() {
        return Err(format!(
            "{name}: no operation succeeded: {}",
            measured
                .first_failure
                .as_deref()
                .unwrap_or("nothing was attempted")
        ));
    }

    let mut metrics = serde_json::Map::new();
    if run.trace {
        let layers = traced_metrics(&spec, &run, &report, &mut tracer)?;
        for m in metrics::PER_LAYER {
            let v = *layers
                .get(m.name)
                .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))?;
            println!("  {:<38} {:>16.6} {}", m.name, v, m.unit);
            metrics.insert(m.name.to_string(), metric_json(v, m.unit));
        }
    } else {
        let values = end_to_end(&report.window, &report.setups_s);
        for m in &metrics::END_TO_END {
            println!("  {:<18} {:>16.4} {}", m.name, values[m.name], m.unit);
            metrics.insert(m.name.to_string(), metric_json(values[m.name], m.unit));
        }
    }
    print_details(&report, measured);

    let correct = report.check.is_ok();
    if let Err(e) = &report.check {
        println!("  check FAILED: {e}");
    } else {
        println!("  check ok");
    }
    println!(
        "{}",
        serde_json::to_string(&json!({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": Value::Object(metrics),
        }))
        .map_err(|e| e.to_string())?
    );
    Ok(correct)
}

fn print_details(report: &Report, measured: &Window) {
    let rates = measured.block_rates();
    println!(
        "  blocks {:?} tokens/s, spread {:.2} %",
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
        stats::spread(&rates) * 100.0
    );
    println!(
        "  samples: latency {} ttft {} gap {}; attempted {} failed {} (share {:.4}){}",
        measured.latency_ms.len(),
        measured.ttft_ms.len(),
        measured.gap_ms.len(),
        measured.attempted(),
        measured.failed,
        stats::failure_share(measured.attempted(), measured.failed),
        measured
            .first_failure
            .as_ref()
            .map_or(String::new(), |f| format!("; first failure: {f}")),
    );
    let lat = stats::sorted(&measured.latency_ms);
    println!(
        "  latency min {:.3} p10 {:.3} p50 {:.3} p90 {:.3} p99 {:.3} ms over {:.2} s; set-ups {:?} s",
        lat[0],
        stats::percentile(&lat, 10.0),
        stats::percentile(&lat, 50.0),
        stats::percentile(&lat, 90.0),
        stats::percentile(&lat, 99.0),
        measured.wall_s(),
        report
            .setups_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    for (k, v) in &report.notes {
        println!("  note {k} = {v}");
    }
    println!("  autotune: {}", describe_autotune());
}

/// The per-layer values of a traced run: the traced blocks' layer
/// shares, then the probe suite. Also writes the Chrome trace.
fn traced_metrics(
    spec: &Spec,
    run: &Run,
    report: &Report,
    tracer: &mut Tracer,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let traced = report
        .traced
        .as_ref()
        .expect("a traced run has traced blocks");
    let mut out = BTreeMap::new();
    let wall_ms = traced.wall_s() * 1e3;
    let self_ms = tracer.layer_self_ms();
    for (metric, layer) in [
        ("window.data_share", "data"),
        ("window.graph_share", "graph"),
        ("window.models_share", "models"),
        ("window.serve_share", "serve"),
    ] {
        // Concurrent requests overlap, so a serving layer's share can
        // exceed 1: it is lane-time over wall time.
        out.insert(metric, self_ms.get(layer).copied().unwrap_or(0.0) / wall_ms);
    }
    println!("  spans of the traced blocks ({:.2} s):", traced.wall_s());
    for (name, s) in tracer.summary() {
        println!(
            "    {name:<22} n {:>7} total {:>10.3} ms self {:>10.3} ms p50 {:>9.4} ms",
            s.count, s.total_ms, s.self_ms, s.p50_ms
        );
    }
    out.insert(
        "harness.trace_overhead_share",
        1.0 - traced.tokens_per_s() / report.window.tokens_per_s(),
    );
    out.insert("harness.block_spread", stats::spread(&traced.block_rates()));
    out.insert("harness.samples", traced.latency_ms.len() as f64);

    probes::run(run.seed, run.quick, tracer, &mut out)?;
    out.insert("memory.peak_rss_bytes", vm_hwm_bytes());

    let path = out_dir().join(format!("trace_{}.json", spec.name));
    tracer
        .write_chrome(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "  wrote {} ({} spans)",
        path.display(),
        tracer.spans().len()
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Result<Args, String> {
        parse_args(
            &text
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn driver_arguments() {
        let a = args("--workload train_lm_gemm --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.command, None);
        assert_eq!(a.workload.as_deref(), Some("train_lm_gemm"));
        assert_eq!((a.seed, a.seconds(), a.trace), (7, 10.0, true));
        assert!(!args("--workload x --trace 0").unwrap().trace);
    }

    #[test]
    fn commands_and_defaults() {
        let a = args("run --quick --trace").unwrap();
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(
            (a.seed, a.seconds(), a.trace, a.quick),
            (14, 1.5, true, true)
        );
        let r = args("repeat --sets 2 --runs 5").unwrap();
        assert_eq!((r.sets, r.runs, r.seconds()), (2, 5, 12.0));
        assert!(args("--seconds 0").is_err());
        assert!(args("--seconds 61").is_err());
        assert!(args("--bogus").is_err());
        assert!(args("repeat --runs 0").is_err());
    }

    #[test]
    fn whole_values_print_whole() {
        let v = metric_json(18_400_000.0, "B");
        assert_eq!(
            serde_json::to_string(&v).unwrap(),
            r#"{"unit":"B","value":18400000}"#
        );
        let v = metric_json(1.25, "ms");
        assert_eq!(
            serde_json::to_string(&v).unwrap(),
            r#"{"unit":"ms","value":1.25}"#
        );
    }
}
