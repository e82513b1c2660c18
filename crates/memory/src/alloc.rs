//! The two axes device memory is classified along, and the device's
//! capacity model.
//!
//! Nothing here allocates: every byte figure comes from an execution
//! plan's static accounting timeline, and [`DeviceMemory`] only says
//! whether a figure fits.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which part of the model a byte belongs to — the paper's
/// "by layer type" breakdown axis (Figure 5, left bar).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[non_exhaustive]
pub enum LayerKind {
    /// Word embedding layers.
    Embedding,
    /// The LSTM RNN layers (encoder and decoder).
    Rnn,
    /// The attention mechanism, including the scoring function.
    Attention,
    /// The output projection / loss layers.
    Output,
    /// Everything else (optimizer bookkeeping, I/O staging, …).
    Other,
}

impl LayerKind {
    /// All variants in display order.
    pub const ALL: [LayerKind; 5] = [
        LayerKind::Embedding,
        LayerKind::Rnn,
        LayerKind::Attention,
        LayerKind::Output,
        LayerKind::Other,
    ];
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LayerKind::Embedding => "embedding",
            LayerKind::Rnn => "rnn",
            LayerKind::Attention => "attention",
            LayerKind::Output => "output",
            LayerKind::Other => "other",
        };
        f.write_str(s)
    }
}

/// What role a byte plays — the paper's "by data structure" axis
/// (Figure 5, right bar; §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DataStructureKind {
    /// Space reserved for a layer's inputs and outputs.
    Placeholder,
    /// Parameters, their gradients and optimizer state.
    Weight,
    /// Intermediate values stashed by the forward pass for backward reuse
    /// (cuDNN's "reserved space") — the footprint the Echo pass attacks.
    FeatureMap,
    /// Short-lived scratch space with exclusive access.
    Workspace,
}

impl DataStructureKind {
    /// All variants in display order.
    pub const ALL: [DataStructureKind; 4] = [
        DataStructureKind::Placeholder,
        DataStructureKind::Weight,
        DataStructureKind::FeatureMap,
        DataStructureKind::Workspace,
    ];
}

impl fmt::Display for DataStructureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataStructureKind::Placeholder => "placeholder",
            DataStructureKind::Weight => "weights",
            DataStructureKind::FeatureMap => "feature maps",
            DataStructureKind::Workspace => "workspace",
        };
        f.write_str(s)
    }
}

/// Error returned when a plan or a parameter set does not fit on the
/// device: the simulator's `cudaErrorMemoryAllocation`, raised once when
/// the plan is memoized, installed or inherited, before anything runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WontFit {
    /// Bytes the device would have to hold: the planned peak plus the
    /// context and fragmentation overheads (the `nvidia-smi` view).
    pub needed: u64,
    /// Device capacity.
    pub capacity: u64,
}

impl fmt::Display for WontFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of device memory: needs {} bytes, device holds {}",
            self.needed, self.capacity
        )
    }
}

impl std::error::Error for WontFit {}

/// The simulated device: a capacity and the overhead model that separates
/// what the profiler sees from what `nvidia-smi` reports (the striped bar
/// of Figure 5). A plain value; the executor folds plan figures against
/// it. See the [crate documentation](crate) for the role it plays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceMemory {
    capacity: u64,
    /// Bytes the CUDA context adds on top of what the profiler sees.
    context_overhead: u64,
    /// Share of the profiled bytes lost to fragmentation.
    fragmentation: f64,
}

impl DeviceMemory {
    /// Creates a device with `capacity` bytes and the default context
    /// overhead model (600 MiB context, 4% fragmentation), calibrated to the
    /// profiler-vs-`nvidia-smi` gap the paper reports.
    pub fn with_capacity(capacity: u64) -> Self {
        DeviceMemory::with_overhead_model(capacity, 600 << 20, 0.04)
    }

    /// A 12 GiB device (Titan Xp / Titan V class).
    pub fn titan_xp() -> Self {
        DeviceMemory::with_capacity(12 << 30)
    }

    /// Creates a device with an explicit overhead model.
    pub fn with_overhead_model(capacity: u64, context_overhead: u64, fragmentation: f64) -> Self {
        DeviceMemory {
            capacity,
            context_overhead,
            fragmentation,
        }
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Context and fragmentation bytes on top of `bytes` of profiled
    /// memory.
    pub fn overheads(&self, bytes: u64) -> u64 {
        self.context_overhead + (bytes as f64 * self.fragmentation) as u64
    }

    /// What `nvidia-smi` would report at a profiled `peak`.
    pub fn nvidia_smi_bytes(&self, peak: u64) -> u64 {
        peak + self.overheads(peak)
    }

    /// Checks that `bytes` of profiled memory, plus overheads, fit.
    ///
    /// # Errors
    ///
    /// Returns [`WontFit`] with the overhead-inclusive figure when they do
    /// not.
    pub fn check(&self, bytes: u64) -> Result<(), WontFit> {
        let (needed, capacity) = (self.nvidia_smi_bytes(bytes), self.capacity);
        (needed <= capacity)
            .then_some(())
            .ok_or(WontFit { needed, capacity })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Breakdown, MemoryReport};

    #[test]
    fn oom_at_capacity() {
        let mem = DeviceMemory::with_overhead_model(1000, 0, 0.0);
        assert_eq!(mem.check(1000), Ok(()));
        let err = mem.check(1001).unwrap_err();
        assert_eq!((err.needed, err.capacity), (1001, 1000));
        assert!(err.to_string().contains("out of device memory"));
    }

    #[test]
    fn context_overhead_counts_against_capacity() {
        let mem = DeviceMemory::with_overhead_model(1000, 500, 0.0);
        assert!(mem.check(600).is_err());
        assert!(mem.check(400).is_ok());
        let frag = DeviceMemory::with_overhead_model(1000, 0, 0.25);
        assert_eq!(frag.overheads(800), 200);
        assert!(frag.check(800).is_ok());
        assert_eq!(frag.check(801).unwrap_err().needed, 1001);
    }

    #[test]
    fn nvidia_smi_exceeds_profiler_view() {
        let mem = DeviceMemory::titan_xp();
        assert!(mem.nvidia_smi_bytes(1 << 30) > 1 << 30);
        assert_eq!(mem.nvidia_smi_bytes(0), 600 << 20);
    }

    // How successive phases fold into a device's running report
    // (`MemoryReport::fold`).

    fn phase(peak: u64, at_peak: Breakdown, maxima: Breakdown) -> MemoryReport {
        MemoryReport {
            peak_bytes: peak,
            nvidia_smi_bytes: 0,
            peak_breakdown: at_peak,
            max_breakdown: maxima,
        }
    }

    #[test]
    fn peak_breakdown_snapshot_is_taken_at_peak() {
        // A phase peaking at 1000 with attention feature maps and RNN
        // workspace live, then a lower phase holding output weights: the
        // snapshot stays the one taken at the peak.
        let fm = (LayerKind::Attention, DataStructureKind::FeatureMap);
        let ws = (LayerKind::Rnn, DataStructureKind::Workspace);
        let w = (LayerKind::Output, DataStructureKind::Weight);
        let mut report = MemoryReport::default();
        report.fold(&phase(1000, vec![(fm, 100), (ws, 900)], vec![]), false);
        report.fold(&phase(300, vec![(fm, 100), (w, 200)], vec![]), false);
        assert_eq!(report.peak_bytes, 1000);
        assert_eq!(report.peak_breakdown, vec![(fm, 100), (ws, 900)]);
        assert!(!report.peak_breakdown.iter().any(|&(k, _)| k == w));
        // A higher phase replaces the snapshot.
        report.fold(&phase(1200, vec![(w, 1200)], vec![]), false);
        assert_eq!(
            (report.peak_bytes, report.peak_breakdown),
            (1200, vec![(w, 1200)])
        );
    }

    #[test]
    fn reset_peak_rebases_on_live() {
        // A rebasing fold (a training step) opens a fresh peak window at
        // the new phase's peak, even when it is lower than the old one.
        let fm = (LayerKind::Rnn, DataStructureKind::FeatureMap);
        let w = (LayerKind::Rnn, DataStructureKind::Weight);
        let mut report = MemoryReport::default();
        report.fold(&phase(5000, vec![(fm, 5000)], vec![(fm, 5000)]), true);
        report.fold(&phase(100, vec![(w, 100)], vec![(w, 100)]), true);
        assert_eq!(report.peak_bytes, 100);
        assert_eq!(report.peak_breakdown, vec![(w, 100)]);
        // The window rebases; the category maxima do not.
        assert_eq!(report.max_breakdown, vec![(w, 100), (fm, 5000)]);
    }

    #[test]
    fn planned_peak_records_category_maxima_not_just_the_peak_snapshot() {
        // A phase whose feature maps peak early and whose placeholders
        // peak late: the snapshot at the peak moment understates the
        // placeholder category, the maxima do not.
        let fm = (LayerKind::Rnn, DataStructureKind::FeatureMap);
        let ph = (LayerKind::Rnn, DataStructureKind::Placeholder);
        let w = (LayerKind::Rnn, DataStructureKind::Weight);
        let mut report = MemoryReport::default();
        report.fold(
            &phase(
                1000,
                vec![(ph, 100), (w, 100), (fm, 800)],
                vec![(ph, 300), (w, 100), (fm, 800)],
            ),
            true,
        );
        assert_eq!(report.peak_bytes, 1000);
        let at_peak = |r: &MemoryReport, k| r.peak_breakdown.iter().find(|e| e.0 == k).unwrap().1;
        let max = |r: &MemoryReport, k| r.max_breakdown.iter().find(|e| e.0 == k).unwrap().1;
        assert_eq!(at_peak(&report, ph), 100);
        assert_eq!(max(&report, ph), 300);
        assert_eq!(max(&report, fm), 800);
        // A later, lower phase leaves the snapshot but still raises the
        // maxima of the categories it holds more of.
        report.fold(&phase(600, vec![(ph, 600)], vec![(ph, 600)]), false);
        assert_eq!((report.peak_bytes, at_peak(&report, ph)), (1000, 100));
        assert_eq!(max(&report, ph), 600);
        assert_eq!(max(&report, fm), 800);
        assert!(report.max_breakdown.windows(2).all(|p| p[0].0 < p[1].0));
    }
}
