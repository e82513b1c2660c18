//! The memory profiler: an executor's [`MemoryReport`] and the breakdown
//! tables rendered from it.
//!
//! This is the substitute for the MXNet GPU memory profiler the paper uses
//! to produce Figures 5 and 14: the same peak snapshot is classified along
//! two axes — layer type and data structure — and rendered as percentage
//! rows.

use crate::alloc::{DataStructureKind, LayerKind};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Bytes per (layer, kind) category, sorted by category; categories
/// holding no bytes are absent.
pub type Breakdown = Vec<((LayerKind, DataStructureKind), u64)>;

/// Device memory figures: a peak, the full live set at the peak moment,
/// and every (layer, kind)'s own high-water mark — the category-by-category
/// profiler view, whose maxima need not coincide. A plan's accounting
/// timeline yields one per phase; an executor's report is a
/// [`fold`](MemoryReport::fold) of those over the steps it ran.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryReport {
    /// Peak profiled bytes. In an executor's report: the last training
    /// step's peak, raised by any later forward pass or parameter binding
    /// that went higher.
    pub peak_bytes: u64,
    /// What `nvidia-smi` would report at that peak. Only the executor
    /// knows the device's overhead model, so it fills this in when it
    /// hands out its report; a plan's own figures leave it 0.
    pub nvidia_smi_bytes: u64,
    /// The full live set at the peak moment.
    pub peak_breakdown: Breakdown,
    /// Every category's own maximum, sorted by category; they can sum
    /// past `peak_bytes`.
    pub max_breakdown: Breakdown,
}

impl MemoryReport {
    /// Folds `phase`'s figures into this running report. A training step
    /// opens a fresh peak window (`rebase`); a forward or a binding only
    /// raises the peak. The category maxima are a running maximum.
    pub fn fold(&mut self, phase: &MemoryReport, rebase: bool) {
        if rebase || phase.peak_bytes > self.peak_bytes {
            self.peak_bytes = phase.peak_bytes;
            self.peak_breakdown.clone_from(&phase.peak_breakdown);
        }
        for &(key, bytes) in &phase.max_breakdown {
            match self.max_breakdown.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(i) => self.max_breakdown[i].1 = self.max_breakdown[i].1.max(bytes),
                Err(i) => self.max_breakdown.insert(i, (key, bytes)),
            }
        }
    }
}

/// One row of a breakdown table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BreakdownRow {
    /// Category name ("attention", "feature maps", …).
    pub category: String,
    /// Bytes attributed to the category at the peak.
    pub bytes: u64,
    /// Share of the profiled peak, in `[0, 1]`.
    pub fraction: f64,
}

/// A two-axis memory breakdown of a peak-usage snapshot.
///
/// # Example
///
/// ```
/// use echo_memory::{DataStructureKind, LayerKind, MemoryBreakdown, MemoryReport};
///
/// let report = MemoryReport {
///     peak_bytes: 4000,
///     nvidia_smi_bytes: 4000,
///     peak_breakdown: vec![
///         ((LayerKind::Rnn, DataStructureKind::Weight), 1000),
///         ((LayerKind::Attention, DataStructureKind::FeatureMap), 3000),
///     ],
///     max_breakdown: Vec::new(),
/// };
/// let breakdown = MemoryBreakdown::at_peak(&report);
/// assert_eq!(breakdown.layer_fraction(LayerKind::Attention), 0.75);
/// assert_eq!(breakdown.kind_fraction(DataStructureKind::FeatureMap), 0.75);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryBreakdown {
    /// Total profiled bytes at the peak.
    pub total_bytes: u64,
    /// What `nvidia-smi` would have reported at the same moment.
    pub nvidia_smi_bytes: u64,
    by_layer: HashMap<LayerKind, u64>,
    by_kind: HashMap<DataStructureKind, u64>,
}

impl MemoryBreakdown {
    /// Builds a breakdown from the report's peak snapshot.
    pub fn at_peak(report: &MemoryReport) -> Self {
        Self::from_snapshot(report, &report.peak_breakdown)
    }

    /// Builds a breakdown from per-category maxima (the MXNet-profiler
    /// view): each category's own high-water mark, which surfaces
    /// short-lived categories such as the recomputation workspace.
    pub fn at_category_maxima(report: &MemoryReport) -> Self {
        Self::from_snapshot(report, &report.max_breakdown)
    }

    fn from_snapshot(report: &MemoryReport, snapshot: &Breakdown) -> Self {
        let mut by_layer: HashMap<LayerKind, u64> = HashMap::new();
        let mut by_kind: HashMap<DataStructureKind, u64> = HashMap::new();
        let mut total = 0u64;
        for &((layer, kind), bytes) in snapshot {
            *by_layer.entry(layer).or_default() += bytes;
            *by_kind.entry(kind).or_default() += bytes;
            total += bytes;
        }
        MemoryBreakdown {
            total_bytes: total,
            nvidia_smi_bytes: report.nvidia_smi_bytes,
            by_layer,
            by_kind,
        }
    }

    /// Bytes attributed to a layer type at the peak.
    pub fn layer_bytes(&self, layer: LayerKind) -> u64 {
        self.by_layer.get(&layer).copied().unwrap_or(0)
    }

    /// Bytes attributed to a data-structure kind at the peak.
    pub fn kind_bytes(&self, kind: DataStructureKind) -> u64 {
        self.by_kind.get(&kind).copied().unwrap_or(0)
    }

    /// Fraction of the profiled peak attributed to a layer type.
    pub fn layer_fraction(&self, layer: LayerKind) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.layer_bytes(layer) as f64 / self.total_bytes as f64
        }
    }

    /// Fraction of the profiled peak attributed to a data-structure kind.
    pub fn kind_fraction(&self, kind: DataStructureKind) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.kind_bytes(kind) as f64 / self.total_bytes as f64
        }
    }

    /// Rows of the by-layer bar (Figure 5 left), descending by bytes.
    pub fn layer_rows(&self) -> Vec<BreakdownRow> {
        let mut rows: Vec<BreakdownRow> = LayerKind::ALL
            .iter()
            .map(|&l| BreakdownRow {
                category: l.to_string(),
                bytes: self.layer_bytes(l),
                fraction: self.layer_fraction(l),
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.bytes));
        rows
    }

    /// Rows of the by-data-structure bar (Figure 5 right), descending.
    pub fn kind_rows(&self) -> Vec<BreakdownRow> {
        let mut rows: Vec<BreakdownRow> = DataStructureKind::ALL
            .iter()
            .map(|&k| BreakdownRow {
                category: k.to_string(),
                bytes: self.kind_bytes(k),
                fraction: self.kind_fraction(k),
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.bytes));
        rows
    }

    /// The profiler-vs-`nvidia-smi` discrepancy (Figure 5's striped bar).
    pub fn unattributed_bytes(&self) -> u64 {
        self.nvidia_smi_bytes.saturating_sub(self.total_bytes)
    }
}

impl fmt::Display for MemoryBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "peak {:.2} GiB (nvidia-smi {:.2} GiB)",
            self.total_bytes as f64 / (1u64 << 30) as f64,
            self.nvidia_smi_bytes as f64 / (1u64 << 30) as f64
        )?;
        writeln!(f, "  by layer type:")?;
        for row in self.layer_rows() {
            writeln!(
                f,
                "    {:<12} {:>10.1} MiB  {:>5.1}%",
                row.category,
                row.bytes as f64 / (1u64 << 20) as f64,
                row.fraction * 100.0
            )?;
        }
        writeln!(f, "  by data structure:")?;
        for row in self.kind_rows() {
            writeln!(
                f,
                "    {:<12} {:>10.1} MiB  {:>5.1}%",
                row.category,
                row.bytes as f64 / (1u64 << 20) as f64,
                row.fraction * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DataStructureKind as K;
    use LayerKind as L;

    /// A report whose peak holds `rows`, with no overheads.
    fn report(rows: &[(L, K, u64)]) -> MemoryReport {
        let mut peak_breakdown: Breakdown = rows.iter().map(|&(l, k, b)| ((l, k), b)).collect();
        peak_breakdown.sort_unstable();
        let peak_bytes = rows.iter().map(|r| r.2).sum();
        MemoryReport {
            peak_bytes,
            nvidia_smi_bytes: peak_bytes,
            max_breakdown: peak_breakdown.clone(),
            peak_breakdown,
        }
    }

    #[test]
    fn two_axis_totals_agree() {
        let bd = MemoryBreakdown::at_peak(&report(&[
            (L::Attention, K::FeatureMap, 600),
            (L::Rnn, K::FeatureMap, 300),
            (L::Output, K::Weight, 100),
        ]));
        assert_eq!(bd.total_bytes, 1000);
        assert_eq!(L::ALL.iter().map(|&l| bd.layer_bytes(l)).sum::<u64>(), 1000);
        assert_eq!(K::ALL.iter().map(|&k| bd.kind_bytes(k)).sum::<u64>(), 1000);
        assert_eq!(bd.kind_fraction(K::FeatureMap), 0.9);
    }

    #[test]
    fn rows_sorted_descending() {
        let bd = MemoryBreakdown::at_peak(&report(&[
            (L::Rnn, K::Weight, 10),
            (L::Attention, K::FeatureMap, 90),
        ]));
        let rows = bd.layer_rows();
        assert_eq!(rows[0].category, "attention");
        assert!(rows[0].bytes >= rows[1].bytes);
    }

    #[test]
    fn breakdown_reflects_peak_not_current() {
        // The maxima see a category the peak snapshot does not hold.
        let mut r = report(&[(L::Attention, K::FeatureMap, 5000)]);
        r.max_breakdown.push(((L::Other, K::Workspace), 10));
        let bd = MemoryBreakdown::at_peak(&r);
        assert_eq!(bd.total_bytes, 5000);
        assert_eq!(bd.layer_bytes(L::Attention), 5000);
        assert_eq!(bd.kind_bytes(K::Workspace), 0);
        let maxima = MemoryBreakdown::at_category_maxima(&r);
        assert_eq!(maxima.kind_bytes(K::Workspace), 10);
    }

    #[test]
    fn display_renders_percentages() {
        let r = report(&[(L::Attention, K::FeatureMap, 1 << 20)]);
        let text = MemoryBreakdown::at_peak(&r).to_string();
        assert!(text.contains("attention"));
        assert!(text.contains("feature maps"));
        assert!(text.contains('%'));
    }

    #[test]
    fn unattributed_gap_is_overhead() {
        let mem = crate::DeviceMemory::with_overhead_model(1 << 30, 1000, 0.0);
        let mut r = report(&[(L::Rnn, K::Weight, 500)]);
        r.nvidia_smi_bytes = mem.nvidia_smi_bytes(r.peak_bytes);
        assert_eq!(MemoryBreakdown::at_peak(&r).unattributed_bytes(), 1000);
    }
}
