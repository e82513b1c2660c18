//! The six workloads: their names and reasons (normative, see
//! `BENCHMARK.json`), their window sizes, and what a run of one returns.

use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;

pub mod pipe;
pub mod serve;
pub mod train;

/// The probe seconds the operation counts below were sized for: a window
/// of `ops` operations takes about this long on the reference host.
pub const REFERENCE_SECONDS: f64 = 15.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TrainLmGemm,
    TrainLmLaunch,
    TrainNmtEcho,
    TrainLmPipe2,
    ServeToyClosed,
    ServeWideOpen,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Operations (training steps, requests) in a 15-second window.
    pub ops: usize,
    /// Cold constructions per run (rule 5): 15 where one takes < 50 ms.
    pub setups: usize,
    pub why: &'static str,
}

pub const SPECS: [Spec; 6] = [
    Spec {
        kind: Kind::TrainLmGemm,
        name: "train_lm_gemm",
        ops: 90,
        setups: 5,
        why: "GEMM-bound word-LM training (hidden 256, B 32): tensor does the work, the interpreter little",
    },
    Spec {
        kind: Kind::TrainLmLaunch,
        name: "train_lm_launch",
        ops: 3000,
        setups: 15,
        why: "launch-bound word-LM training (hidden 16, 64 unfused steps): graph dispatch dominates; bypasses any GEMM change",
    },
    Spec {
        kind: Kind::TrainNmtEcho,
        name: "train_nmt_echo",
        ops: 40,
        setups: 5,
        why: "the paper's workload: NMT with attention under the Echo plan, replay beside first compute, peak bytes vs stash-all",
    },
    Spec {
        kind: Kind::TrainLmPipe2,
        name: "train_lm_pipe2",
        ops: 140,
        setups: 5,
        why: "two-stage pipeline trainer on the legacy stage interpreter, the code ROADMAP item 1 replaces",
    },
    Spec {
        kind: Kind::ServeToyClosed,
        name: "serve_toy_closed",
        ops: 48_000,
        setups: 15,
        why: "closed loop of 8 clients on a hidden-4 model: model time is nil, so scheduler, queue and channel cost is measured",
    },
    Spec {
        kind: Kind::ServeWideOpen,
        name: "serve_wide_open",
        ops: 450,
        setups: 5,
        why: "open loop at a fixed 30 req/s on a hidden-256 vocab-10k model: compute-bound decode with staggered joins and leaves",
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// What one invocation asks of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub seed: u64,
    /// Operations in the measured window: a fixed count (rule 3), set
    /// from `--seconds` alone, never from how fast operations go.
    pub ops: usize,
    pub setups: usize,
    /// The traced run: a third of the window untraced and a third
    /// traced, in alternating blocks.
    pub trace: bool,
    /// The smoke mode: the probe suite shrinks with the windows.
    pub quick: bool,
}

impl Run {
    pub fn new(spec: &Spec, seed: u64, seconds: f64, quick: bool, trace: bool) -> Run {
        let scaled = (spec.ops as f64 * seconds / REFERENCE_SECONDS).round() as usize;
        // Every window needs its five blocks.
        let ops = scaled.max(stats::BLOCKS);
        Run {
            seed,
            ops,
            // A traced run reports no set-up time, so it sets up once.
            setups: match (trace, quick) {
                (true, _) => 1,
                (false, true) => 2,
                (false, false) => spec.setups,
            },
            trace,
            quick,
        }
    }

    /// Operations this run executes in all: the whole window, or the
    /// traced run's two thirds (ten equal blocks).
    pub fn total_ops(&self) -> usize {
        if self.trace {
            (self.ops / 3 / stats::BLOCKS).max(1) * stats::BLOCKS * 2
        } else {
            self.ops
        }
    }

    /// Measures the window by calling `block(ops, first_op, tracer)`,
    /// which runs `ops` operations numbered from `first_op` and returns
    /// their samples. An untraced run is one block with tracing off. A
    /// traced run is ten blocks, tracing off and on by turns, so that
    /// whatever drifts over the run falls on both halves alike; returns
    /// the untraced half and the traced half, each as one window.
    pub fn measure(
        &self,
        tracer: &mut Tracer,
        mut block: impl FnMut(usize, usize, &mut Tracer) -> Window,
    ) -> (Window, Option<Window>) {
        tracer.set_on(false);
        if !self.trace {
            return (block(self.ops, 0, tracer), None);
        }
        let per = self.total_ops() / (2 * stats::BLOCKS);
        let (mut off, mut on) = (Window::default(), Window::default());
        for b in 0..2 * stats::BLOCKS {
            tracer.set_on(b % 2 == 1);
            let w = block(per, b * per, tracer);
            if b % 2 == 1 { &mut on } else { &mut off }.append(w);
        }
        tracer.set_on(false);
        (off, Some(on))
    }
}

/// One measured window: per-operation samples in completion order.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// When each attempted operation ended, seconds from the window's
    /// start, ascending.
    pub ends_s: Vec<f64>,
    /// Tokens each attempted operation delivered (0 when it failed).
    pub tokens: Vec<f64>,
    /// Successful operations only: a failure misses every latency.
    pub latency_ms: Vec<f64>,
    pub ttft_ms: Vec<f64>,
    pub gap_ms: Vec<f64>,
    pub failed: u64,
    pub peak_bytes: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.ends_s.len() as u64
    }

    pub fn fail(&mut self, end_s: f64, what: String) {
        self.ends_s.push(end_s);
        self.tokens.push(0.0);
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    /// Appends a window measured after this one, as if it had started
    /// the moment this one ended.
    pub fn append(&mut self, other: Window) {
        let offset = self.wall_s();
        self.ends_s.extend(other.ends_s.iter().map(|e| e + offset));
        self.tokens.extend(other.tokens);
        self.latency_ms.extend(other.latency_ms);
        self.ttft_ms.extend(other.ttft_ms);
        self.gap_ms.extend(other.gap_ms);
        self.failed += other.failed;
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    pub fn block_rates(&self) -> Vec<f64> {
        stats::block_rates(&self.ends_s, &self.tokens)
    }

    /// Rule 4: the median block's tokens per second.
    pub fn tokens_per_s(&self) -> f64 {
        stats::median(&self.block_rates())
    }

    pub fn wall_s(&self) -> f64 {
        self.ends_s.last().copied().unwrap_or(0.0)
    }
}

/// What a workload hands back to `main`.
#[derive(Debug)]
pub struct Report {
    /// The untraced window (in a traced run: the untraced blocks).
    pub window: Window,
    /// The traced blocks, when tracing.
    pub traced: Option<Window>,
    /// Seconds each cold construction took.
    pub setups_s: Vec<f64>,
    /// `Err` names the workload's first differing step or session.
    pub check: Result<(), String>,
    /// Workload-specific facts for the human-readable report.
    pub notes: BTreeMap<&'static str, f64>,
}

/// Runs one workload in this process.
pub fn run(spec: &Spec, run: &Run, tracer: &mut Tracer) -> Result<Report, String> {
    match spec.kind {
        Kind::TrainLmGemm | Kind::TrainLmLaunch | Kind::TrainNmtEcho => {
            train::run(spec, run, tracer)
        }
        Kind::TrainLmPipe2 => pipe::run(run, tracer),
        Kind::ServeToyClosed | Kind::ServeWideOpen => serve::run(spec, run, tracer),
    }
}

/// Runs `construct` `n` times, timing each; returns the last instance
/// (the one the window measures) and the times. Earlier instances are
/// dropped before the next is built, so each construction is cold.
pub fn construct_timed<T>(
    n: usize,
    mut construct: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let start = std::time::Instant::now();
        last = Some(construct()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one construction"), times))
}

/// Compares the measured instance's first outputs with the reference's,
/// bit for bit; the error names the first that differs.
pub fn check_bits(workload: &str, what: &str, got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{workload}: {} {what} values against {} reference values",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.to_bits() != w.to_bits() {
            return Err(format!(
                "{workload}: {what} differs from the reference at step {i}: {g:?} != {w:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_the_normative_six() {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "train_lm_gemm",
                "train_lm_launch",
                "train_nmt_echo",
                "train_lm_pipe2",
                "serve_toy_closed",
                "serve_wide_open"
            ]
        );
        assert!(SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && !s.why.contains('\n')));
        assert_eq!(spec("train_nmt_echo").unwrap().ops, 40);
        assert!(spec("nope").is_none());
    }

    #[test]
    fn window_is_a_fixed_count_scaled_by_one_common_factor() {
        let s = spec("train_lm_gemm").unwrap();
        assert_eq!(Run::new(&s, 14, 15.0, false, false).ops, 90);
        assert_eq!(Run::new(&s, 14, 10.0, false, false).ops, 60);
        // Quick: counts ÷ 10, R = 2; never fewer operations than blocks.
        let q = Run::new(&s, 14, 1.5, true, false);
        assert_eq!((q.ops, q.setups), (9, 2));
        let nmt = spec("train_nmt_echo").unwrap();
        assert_eq!(Run::new(&nmt, 14, 1.5, true, false).ops, 5);
        assert_eq!(Run::new(&nmt, 14, 1.5, true, true).total_ops(), 10);
        let t = Run::new(&s, 14, 10.0, false, true);
        assert_eq!((t.ops, t.total_ops(), t.setups), (60, 40, 1));
    }

    #[test]
    fn a_traced_run_alternates_ten_blocks() {
        let s = spec("train_lm_gemm").unwrap();
        let mut tracer = Tracer::new(false);
        let mut calls = Vec::new();
        let run = Run::new(&s, 14, 10.0, false, true);
        let (off, on) = run.measure(&mut tracer, |ops, first, t| {
            let id = t.open("graph.train_step", None, first as u64, 0);
            calls.push((ops, first, id.is_some()));
            let mut w = Window::default();
            for i in 0..ops {
                w.ends_s.push((i + 1) as f64);
                w.tokens.push(1.0);
            }
            w
        });
        assert_eq!(calls.len(), 10);
        assert!(calls.iter().enumerate().all(|(b, &(ops, first, traced))| {
            ops == 4 && first == 4 * b && traced == (b % 2 == 1)
        }));
        let on = on.unwrap();
        assert_eq!((off.attempted(), on.attempted()), (20, 20));
        // Appended blocks run on one clock: 20 ops, one a second.
        assert_eq!(on.wall_s(), 20.0);
        assert_eq!(on.block_rates(), vec![1.0; 5]);

        let untraced = Run::new(&s, 14, 10.0, false, false);
        let (w, none) = untraced.measure(&mut tracer, |ops, first, _| {
            assert_eq!((ops, first), (60, 0));
            Window::default()
        });
        assert!(none.is_none() && w.attempted() == 0);
    }

    #[test]
    fn a_wrong_expected_loss_fails_the_check_and_names_the_step() {
        let got = [6.9f32, 6.5, 6.1];
        assert!(check_bits("train_lm_gemm", "loss", &got, &got).is_ok());
        let mut want = got;
        want[1] = f32::from_bits(want[1].to_bits() + 1);
        let err = check_bits("train_lm_gemm", "loss", &got, &want).unwrap_err();
        assert!(
            err.contains("train_lm_gemm") && err.contains("step 1"),
            "{err}"
        );
        assert!(check_bits("train_lm_gemm", "loss", &got[..2], &want).is_err());
    }

    #[test]
    fn failed_operations_count_against_throughput_not_latency() {
        let mut w = Window::default();
        for i in 0..10 {
            if i == 4 {
                w.fail(i as f64 + 1.0, "request 4 timed out".into());
            } else {
                w.ends_s.push(i as f64 + 1.0);
                w.tokens.push(24.0);
                w.latency_ms.push(1000.0);
            }
        }
        assert_eq!((w.attempted(), w.failed), (10, 1));
        assert_eq!(w.latency_ms.len(), 9);
        assert_eq!(w.block_rates()[2], 12.0);
        assert_eq!(w.tokens_per_s(), 24.0);
        assert_eq!(w.first_failure.as_deref(), Some("request 4 timed out"));
    }
}
