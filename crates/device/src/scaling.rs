//! Multi-GPU scaling projection from per-replica simulated step times.
//!
//! The paper's multi-GPU evaluation ([§6.6], Figure 17) reports
//! throughput at 1–4 GPUs with gradients all-reduced every step. The
//! host-side data-parallel trainer measures each replica's *simulated*
//! compute time per step; this module folds those measurements together
//! with an analytic interconnect model into the projected step time of a
//! synchronous data-parallel system:
//!
//! ```text
//! step(K) = max_r compute_ns(r) + all_reduce_ns(grad_bytes, K)
//! ```
//!
//! The all-reduce term mirrors the trainer's binary-tree topology: a
//! `log2 K`-level reduce followed by a `log2 K`-level broadcast, each
//! level moving the full gradient payload across one link. A ring model
//! is also provided for comparison (it is bandwidth-optimal but pays
//! `2(K-1)` latency hops).
//!
//! [§6.6]: https://arxiv.org/abs/1805.08899

use serde::Serialize;
use std::fmt;

/// An interconnect: point-to-point bandwidth plus per-transfer latency.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CommModel {
    /// Effective point-to-point bandwidth in bytes per second.
    pub link_bandwidth: f64,
    /// Per-transfer fixed cost in nanoseconds (driver + DMA setup).
    pub latency_ns: u64,
}

impl CommModel {
    /// PCIe 3.0 x16 as on the paper's single-machine testbed:
    /// ~12 GB/s effective, ~10 µs per transfer.
    pub fn pcie_gen3() -> Self {
        CommModel {
            link_bandwidth: 12.0e9,
            latency_ns: 10_000,
        }
    }

    /// One point-to-point transfer of `bytes`.
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        self.latency_ns + (bytes as f64 / self.link_bandwidth * 1e9).ceil() as u64
    }

    /// Binary-tree all-reduce of `bytes` across `replicas` devices:
    /// `log2 K` reduce levels plus `log2 K` broadcast levels, each
    /// moving the full payload. Zero for a single replica.
    pub fn tree_all_reduce_ns(&self, bytes: u64, replicas: usize) -> u64 {
        assert!(replicas > 0, "at least one replica");
        let levels = replicas.next_power_of_two().trailing_zeros() as u64;
        2 * levels * self.transfer_ns(bytes)
    }

    /// Ring all-reduce of `bytes` across `replicas` devices:
    /// bandwidth-optimal `2(K-1)/K · bytes` on the wire, `2(K-1)`
    /// latency hops. Zero for a single replica.
    pub fn ring_all_reduce_ns(&self, bytes: u64, replicas: usize) -> u64 {
        assert!(replicas > 0, "at least one replica");
        if replicas == 1 {
            return 0;
        }
        let hops = 2 * (replicas as u64 - 1);
        let chunk = (bytes as f64 / replicas as f64).ceil() as u64;
        hops * self.transfer_ns(chunk)
    }
}

/// The projected behaviour of one replica count.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingPoint {
    /// Device count.
    pub replicas: usize,
    /// Slowest replica's simulated compute time per step.
    pub compute_ns: u64,
    /// Tree all-reduce time per step.
    pub comm_ns: u64,
    /// `compute + comm`.
    pub step_ns: u64,
    /// Serial step time divided by this step time.
    pub speedup: f64,
    /// `speedup / replicas`.
    pub efficiency: f64,
}

/// A table of [`ScalingPoint`]s against a fixed serial baseline —
/// the repo's analogue of the paper's Figure 17.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingReport {
    /// Simulated single-replica, full-batch step time.
    pub serial_step_ns: u64,
    /// Bytes all-reduced per step (sum of gradient tensor sizes).
    pub grad_bytes: u64,
    /// Interconnect model used for the communication term.
    pub comm: CommModel,
    /// Measured points, in insertion order.
    pub points: Vec<ScalingPoint>,
}

impl ScalingReport {
    /// Starts an empty report against a serial baseline.
    pub fn new(serial_step_ns: u64, grad_bytes: u64, comm: CommModel) -> Self {
        ScalingReport {
            serial_step_ns,
            grad_bytes,
            comm,
            points: Vec::new(),
        }
    }

    /// Adds a measurement: the per-replica simulated compute times of
    /// one (averaged) step at `per_replica_ns.len()` replicas.
    ///
    /// # Panics
    ///
    /// Panics if `per_replica_ns` is empty.
    pub fn push_measurement(&mut self, per_replica_ns: &[u64]) {
        let replicas = per_replica_ns.len();
        assert!(replicas > 0, "at least one replica measurement");
        let compute_ns = *per_replica_ns.iter().max().expect("non-empty");
        let comm_ns = if replicas == 1 {
            0
        } else {
            self.comm.tree_all_reduce_ns(self.grad_bytes, replicas)
        };
        let step_ns = compute_ns + comm_ns;
        let speedup = self.serial_step_ns as f64 / step_ns.max(1) as f64;
        self.points.push(ScalingPoint {
            replicas,
            compute_ns,
            comm_ns,
            step_ns,
            speedup,
            efficiency: speedup / replicas as f64,
        });
    }
}

impl fmt::Display for ScalingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "serial step {:.3} ms | all-reduce payload {:.2} MiB | link {:.0} GB/s + {} us",
            self.serial_step_ns as f64 * 1e-6,
            self.grad_bytes as f64 / (1 << 20) as f64,
            self.comm.link_bandwidth * 1e-9,
            self.comm.latency_ns / 1000,
        )?;
        writeln!(
            f,
            "{:>8} {:>12} {:>12} {:>12} {:>9} {:>11}",
            "gpus", "compute(ms)", "comm(ms)", "step(ms)", "speedup", "efficiency"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>8} {:>12.3} {:>12.3} {:>12.3} {:>8.2}x {:>10.0}%",
                p.replicas,
                p.compute_ns as f64 * 1e-6,
                p.comm_ns as f64 * 1e-6,
                p.step_ns as f64 * 1e-6,
                p.speedup,
                p.efficiency * 100.0,
            )?;
        }
        Ok(())
    }
}

/// An analytical fill–drain pipeline model over measured (or simulated)
/// per-stage costs — the communication-model counterpart of
/// [`ScalingReport`] for GPipe-style stage parallelism.
///
/// The model mirrors the trainer's execution faithfully: during fill,
/// every stage but the last forwards each micro-batch once and streams
/// the cut activations downstream; during drain, *every* stage re-runs
/// its forward inside the seeded stage backward (re-materialization), so
/// the per-micro drain cost of stage `s` is `fwd[s] + bwd[s]`, and a
/// stage only starts draining after its fill completes.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineModel {
    /// Per-stage, per-micro-batch forward time.
    pub stage_fwd_ns: Vec<u64>,
    /// Per-stage, per-micro-batch backward time (backward walk only; the
    /// model adds the forward re-run itself).
    pub stage_bwd_ns: Vec<u64>,
    /// Activation bytes crossing each cut per micro-batch
    /// (`stages - 1` entries).
    pub cut_bytes: Vec<u64>,
    /// Interconnect model for the cut transfers.
    pub comm: CommModel,
}

/// The projected behaviour of one `(stages, micro)` pipeline
/// configuration.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineProjection {
    /// Pipeline depth.
    pub stages: usize,
    /// Micro-batches per step (fill depth).
    pub micro: usize,
    /// Projected pipelined step time (fill + drain, including cut
    /// transfers and the re-materialized forwards).
    pub pipelined_ns: u64,
    /// Serial baseline: every micro-batch through every stage on one
    /// device, forward once, backward once, no transfers.
    pub serial_ns: u64,
    /// `serial / pipelined`.
    pub speedup: f64,
    /// `speedup / stages` — the scaling efficiency comparable to
    /// [`ScalingPoint::efficiency`].
    pub efficiency: f64,
    /// Idle time of the busiest stage: `pipelined` minus that stage's
    /// total busy time. The GPipe bubble.
    pub bubble_ns: u64,
}

impl PipelineModel {
    /// Projects the fill–drain makespan for `micro` micro-batches.
    ///
    /// # Panics
    ///
    /// Panics if the cost vectors disagree on the stage count, the cut
    /// count is not `stages - 1`, or `micro` is zero.
    pub fn project(&self, micro: usize) -> PipelineProjection {
        let stages = self.stage_fwd_ns.len();
        assert_eq!(stages, self.stage_bwd_ns.len(), "one bwd cost per stage");
        assert_eq!(self.cut_bytes.len() + 1, stages, "one cut per boundary");
        assert!(micro > 0, "at least one micro-batch");
        let xfer: Vec<u64> = self
            .cut_bytes
            .iter()
            .map(|&b| self.comm.transfer_ns(b))
            .collect();

        // Fill: stage s forwards micro m after its previous micro and
        // after the upstream activation arrives. The last stage only
        // receives (its forward runs inside the drain).
        let mut fill = vec![vec![0u64; micro]; stages];
        for s in 0..stages {
            let fwd = if s + 1 == stages {
                0
            } else {
                self.stage_fwd_ns[s]
            };
            for m in 0..micro {
                let prev = if m > 0 { fill[s][m - 1] } else { 0 };
                let arrival = if s > 0 {
                    fill[s - 1][m] + xfer[s - 1]
                } else {
                    0
                };
                fill[s][m] = prev.max(arrival) + fwd;
            }
        }
        // Drain: stage s re-runs forward + backward per micro, after its
        // whole fill, its previous micro, and (below the last stage) the
        // downstream gradient.
        let mut drain = vec![vec![0u64; micro]; stages];
        for s in (0..stages).rev() {
            let cost = self.stage_fwd_ns[s] + self.stage_bwd_ns[s];
            for m in 0..micro {
                let prev = if m > 0 { drain[s][m - 1] } else { 0 };
                let grad = if s + 1 < stages {
                    drain[s + 1][m] + xfer[s]
                } else {
                    0
                };
                drain[s][m] = prev.max(grad).max(fill[s][micro - 1]) + cost;
            }
        }
        let pipelined_ns = (0..stages).map(|s| drain[s][micro - 1]).max().unwrap_or(0);
        let serial_ns: u64 = (0..stages)
            .map(|s| micro as u64 * (self.stage_fwd_ns[s] + self.stage_bwd_ns[s]))
            .sum();
        let busiest = (0..stages)
            .map(|s| {
                let fill_busy = if s + 1 == stages {
                    0
                } else {
                    micro as u64 * self.stage_fwd_ns[s]
                };
                fill_busy + micro as u64 * (self.stage_fwd_ns[s] + self.stage_bwd_ns[s])
            })
            .max()
            .unwrap_or(0);
        let speedup = serial_ns as f64 / pipelined_ns.max(1) as f64;
        PipelineProjection {
            stages,
            micro,
            pipelined_ns,
            serial_ns,
            speedup,
            efficiency: speedup / stages.max(1) as f64,
            bubble_ns: pipelined_ns.saturating_sub(busiest),
        }
    }
}

impl fmt::Display for PipelineProjection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P={} M={}: pipelined {:.3} ms vs serial {:.3} ms | speedup {:.2}x | \
             efficiency {:.0}% | bubble {:.3} ms",
            self.stages,
            self.micro,
            self.pipelined_ns as f64 * 1e-6,
            self.serial_ns as f64 * 1e-6,
            self.speedup,
            self.efficiency * 100.0,
            self.bubble_ns as f64 * 1e-6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_model_single_stage_matches_serial() {
        let m = PipelineModel {
            stage_fwd_ns: vec![10],
            stage_bwd_ns: vec![20],
            cut_bytes: vec![],
            comm: CommModel::pcie_gen3(),
        };
        let p = m.project(8);
        assert_eq!(p.pipelined_ns, p.serial_ns);
        assert!((p.speedup - 1.0).abs() < 1e-9);
        assert_eq!(p.bubble_ns, 0);
    }

    #[test]
    fn pipeline_model_two_balanced_stages_beat_serial() {
        let m = PipelineModel {
            stage_fwd_ns: vec![10, 10],
            stage_bwd_ns: vec![20, 20],
            cut_bytes: vec![0],
            comm: CommModel {
                link_bandwidth: 1e12,
                latency_ns: 0,
            },
        };
        let p = m.project(8);
        assert!(p.speedup > 1.0, "balanced pipeline must beat serial: {p}");
        assert!(p.pipelined_ns < p.serial_ns);
        // Drain dominates: with fill 8·10 and drain 8·30 per stage, the
        // makespan is bounded below by the busiest stage.
        assert!(p.pipelined_ns >= 8 * 30);
    }

    #[test]
    fn transfer_combines_latency_and_bandwidth() {
        let m = CommModel {
            link_bandwidth: 1e9,
            latency_ns: 1_000,
        };
        // 1 GB at 1 GB/s = 1 s plus latency.
        assert_eq!(m.transfer_ns(1_000_000_000), 1_000_000_000 + 1_000);
    }

    #[test]
    fn tree_all_reduce_scales_with_levels() {
        let m = CommModel {
            link_bandwidth: 1e9,
            latency_ns: 0,
        };
        let one = m.tree_all_reduce_ns(1_000, 2);
        assert_eq!(m.tree_all_reduce_ns(1_000, 4), 2 * one);
        assert_eq!(m.tree_all_reduce_ns(1_000, 1), 0);
    }

    #[test]
    fn ring_beats_tree_on_bandwidth_at_scale() {
        let m = CommModel {
            link_bandwidth: 12e9,
            latency_ns: 0,
        };
        let bytes = 100 << 20;
        assert!(m.ring_all_reduce_ns(bytes, 8) < m.tree_all_reduce_ns(bytes, 8));
    }

    #[test]
    fn report_computes_speedup_against_serial() {
        let mut r = ScalingReport::new(
            8_000_000,
            1 << 20,
            CommModel {
                link_bandwidth: 1e12,
                latency_ns: 0,
            },
        );
        r.push_measurement(&[8_000_000]);
        r.push_measurement(&[4_000_000, 4_100_000]);
        assert_eq!(r.points[0].comm_ns, 0);
        assert!((r.points[0].speedup - 1.0).abs() < 1e-9);
        // Max over replicas is the critical path.
        assert_eq!(r.points[1].compute_ns, 4_100_000);
        assert!(r.points[1].speedup > 1.5 && r.points[1].speedup < 2.0);
        assert!(r.points[1].efficiency < 1.0);
        // The table renders one row per point.
        assert_eq!(r.to_string().lines().count(), 2 + r.points.len());
    }
}
