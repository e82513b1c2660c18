//! `run` and `repeat`: the whole benchmark, one child process per
//! workload, one after another (rule 1).

use crate::metrics::END_TO_END;
use crate::workloads::{Run, REFERENCE_SECONDS, SPECS};
use crate::{out_dir, stats, Args, PINNED_THREADS};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// One child's result line, parsed.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name to value and unit.
    pub metrics: BTreeMap<String, (f64, String)>,
    /// The child's one-shot GEMM autotune outcome, from its report.
    pub autotune: String,
}

pub fn parse_outcome(line: &str) -> Result<Outcome, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    let field = |k: &str| v.get(k).ok_or_else(|| format!("result line has no {k}"));
    let mut metrics = BTreeMap::new();
    match field("metrics")? {
        Value::Object(map) => {
            for (name, m) in map {
                let value = m.get("value").and_then(Value::as_f64);
                let unit = m.get("unit").and_then(Value::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => {
                        metrics.insert(name.clone(), (value, unit.to_string()));
                    }
                    _ => return Err(format!("metric {name} has no value and unit")),
                }
            }
        }
        _ => return Err("metrics is not an object".into()),
    }
    Ok(Outcome {
        correct: field("correct")?
            .as_bool()
            .ok_or("correct is not a boolean")?,
        attempted: field("attempted")?
            .as_u64()
            .ok_or("attempted is not a count")?,
        failed: field("failed")?.as_u64().ok_or("failed is not a count")?,
        metrics,
        autotune: String::new(),
    })
}

/// Runs one workload in a child process of this same executable and
/// returns its result. The child's report is passed through when
/// `verbose`.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    quick: bool,
    trace: bool,
    verbose: bool,
) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("starting the {workload} child: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or("");
    if verbose {
        for l in &lines {
            println!("{l}");
        }
    }
    let mut outcome = parse_outcome(last).map_err(|e| {
        format!(
            "{workload} (exit {:?}) printed no result: {e}",
            output.status.code()
        )
    })?;
    if let Some(tuned) = lines
        .iter()
        .find_map(|l| l.trim().strip_prefix("autotune: "))
    {
        outcome.autotune = tuned.to_string();
    }
    if !outcome.correct {
        let why = lines
            .iter()
            .find(|l| l.contains("check FAILED"))
            .unwrap_or(&"");
        eprintln!("{workload}: output check failed:{why}");
    }
    Ok(outcome)
}

fn outcome_json(o: &Outcome) -> Value {
    let metrics: serde_json::Map = o
        .metrics
        .iter()
        .map(|(k, (v, u))| (k.clone(), json!({"value": *v, "unit": u.as_str()})))
        .collect();
    json!({
        "correct": o.correct,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": Value::Object(metrics),
    })
}

/// `run`: every workload once; with `--trace`, the separate traced run
/// of every workload instead.
pub fn run(args: &Args) -> Result<bool, String> {
    let mut outcomes = Vec::new();
    for spec in &SPECS {
        outcomes.push(child(
            spec.name,
            args.seed,
            args.seconds(),
            args.quick,
            args.trace,
            true,
        )?);
    }
    let ok = outcomes.iter().all(|o| o.correct && o.failed == 0);

    if !args.trace {
        println!(
            "\nend-to-end, seed {} ({} s windows):",
            args.seed,
            args.seconds()
        );
        print!("{:<18}", "workload");
        for m in &END_TO_END {
            print!(" {:>16}", m.name);
        }
        println!(" {:>9} {:>6}", "attempted", "failed");
        for (spec, o) in SPECS.iter().zip(&outcomes) {
            print!("{:<18}", spec.name);
            for m in &END_TO_END {
                print!(" {:>16.4}", o.metrics[m.name].0);
            }
            println!(" {:>9} {:>6}", o.attempted, o.failed);
        }
    }
    let all: serde_json::Map = SPECS
        .iter()
        .zip(&outcomes)
        .map(|(spec, o)| {
            let run = Run::new(spec, args.seed, args.seconds(), args.quick, args.trace);
            let mut v = outcome_json(o);
            if let Value::Object(map) = &mut v {
                map.insert("window_ops".into(), json!(run.ops));
                map.insert("set_ups".into(), json!(run.setups));
                map.insert("autotune".into(), json!(o.autotune.as_str()));
            }
            (spec.name.to_string(), v)
        })
        .collect();

    let path = out_dir().join(if args.trace {
        "run_traced.json"
    } else {
        "run.json"
    });
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let doc = json!({
        "seed": args.seed,
        "seconds": args.seconds(),
        "count_scale": args.seconds() / REFERENCE_SECONDS,
        "quick": args.quick,
        "echo_num_threads": PINNED_THREADS,
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "workloads": Value::Object(all),
    });
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())? + "\n",
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

/// `repeat`: the whole benchmark `runs` times in each of `sets`
/// alternating sets (A B A B …) of the same code; run `r` of every set
/// uses seed + `r`. Prints, per workload and end-to-end metric, each
/// set's median, how far the later set is from the first, and the
/// metric's bound. False when any pair disagrees by more than its bound.
pub fn repeat(args: &Args) -> Result<bool, String> {
    // values[set][workload][metric] = one value per run
    let mut values: Vec<BTreeMap<(&str, &str), Vec<f64>>> = vec![BTreeMap::new(); args.sets];
    let mut ok = true;
    for r in 0..args.runs {
        for (set, set_values) in values.iter_mut().enumerate() {
            for spec in &SPECS {
                let o = child(
                    spec.name,
                    args.seed + r as u64,
                    args.seconds(),
                    args.quick,
                    false,
                    false,
                )?;
                if !o.correct || o.failed != 0 {
                    println!(
                        "set {set} run {r} {}: correct {} failed {}",
                        spec.name, o.correct, o.failed
                    );
                    ok = false;
                }
                for m in &END_TO_END {
                    let v = o
                        .metrics
                        .get(m.name)
                        .ok_or_else(|| format!("{} did not report {}", spec.name, m.name))?;
                    set_values.entry((spec.name, m.name)).or_default().push(v.0);
                }
            }
            eprintln!("set {set} run {r} done");
        }
    }

    println!(
        "repeat: {} sets x {} runs, seeds {}..{}, {} s windows, ECHO_NUM_THREADS={PINNED_THREADS}",
        args.sets,
        args.runs,
        args.seed,
        args.seed + args.runs as u64 - 1,
        args.seconds()
    );
    println!(
        "{:<18} {:<15} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "median set 0", "median set k", "diff", "bound", "iqr"
    );
    for spec in &SPECS {
        for m in &END_TO_END {
            let first = &values[0][&(spec.name, m.name)];
            let base = stats::median(first);
            for later in &values[1..] {
                let v = &later[&(spec.name, m.name)];
                let med = stats::median(v);
                let diff = stats::worsening(base, med, m.lower_is_better);
                let within = diff.abs() <= m.bound;
                ok &= within;
                let iqr = if first.len() >= 2 {
                    stats::iqr_share(first)
                } else {
                    0.0
                };
                println!(
                    "{:<18} {:<15} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}% {:>7.2}%  {}",
                    spec.name,
                    m.name,
                    base,
                    med,
                    diff * 100.0,
                    m.bound * 100.0,
                    iqr * 100.0,
                    if within { "ok" } else { "DISAGREE" }
                );
            }
        }
    }
    println!(
        "{}",
        if ok {
            "repeat: all pairs agree within their bounds"
        } else {
            "repeat: FAILED"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = r#"{"correct":true,"attempted":60,"failed":0,"metrics":{"latency_p50_ms":{"value":168.25,"unit":"ms"},"peak_bytes":{"value":18400000,"unit":"B"}}}"#;
        let o = parse_outcome(line).unwrap();
        assert!(o.correct);
        assert_eq!((o.attempted, o.failed), (60, 0));
        assert_eq!(o.metrics["latency_p50_ms"], (168.25, "ms".to_string()));
        assert_eq!(o.metrics["peak_bytes"].0, 18_400_000.0);
        let again = parse_outcome(&serde_json::to_string(&outcome_json(&o)).unwrap()).unwrap();
        assert_eq!(again.metrics, o.metrics);
    }

    #[test]
    fn a_line_that_is_not_a_result_is_an_error() {
        assert!(parse_outcome("").is_err());
        assert!(parse_outcome("  check ok").is_err());
        assert!(parse_outcome(r#"{"correct":true}"#).is_err());
        assert!(parse_outcome(
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"x":{"value":1}}}"#
        )
        .is_err());
    }
}
