//! The tagged device-memory allocator.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Which part of the model an allocation belongs to — the paper's
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

/// What role an allocation plays — the paper's "by data structure" axis
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

/// Full tag attached to every allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AllocationTag {
    /// Layer-type axis.
    pub layer: LayerKind,
    /// Data-structure axis.
    pub kind: DataStructureKind,
    /// Free-form label for debugging ("scores", "lstm_l0_h", …).
    pub label: String,
}

impl AllocationTag {
    /// Creates a tag.
    pub fn new(layer: LayerKind, kind: DataStructureKind, label: impl Into<String>) -> Self {
        AllocationTag {
            layer,
            kind,
            label: label.into(),
        }
    }
}

/// Error returned when an allocation would exceed device capacity.
///
/// This is the simulator's `cudaErrorMemoryAllocation`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OomError {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes live at the time of the request.
    pub live: u64,
    /// Device capacity.
    pub capacity: u64,
    /// Tag of the failing request.
    pub tag: AllocationTag,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of device memory: requested {} bytes for {}/{} `{}` with {} of {} bytes live",
            self.requested, self.tag.layer, self.tag.kind, self.tag.label, self.live, self.capacity
        )
    }
}

impl std::error::Error for OomError {}

#[derive(Debug, Default)]
struct Inner {
    next_id: u64,
    live: HashMap<u64, (u64, AllocationTag)>,
    live_bytes: u64,
    live_by_tag: HashMap<(LayerKind, DataStructureKind), u64>,
    peak_bytes: u64,
    /// Per-(layer, kind) live bytes captured at the moment of peak.
    peak_breakdown: HashMap<(LayerKind, DataStructureKind), u64>,
    /// Independent per-(layer, kind) maxima over the whole run — what a
    /// category-by-category profiler (like MXNet's) reports.
    max_by_tag: HashMap<(LayerKind, DataStructureKind), u64>,
    total_allocs: u64,
}

/// The simulated device memory.
///
/// Cheap to clone and share: the handle is an `Arc` around the accounting
/// state, so the graph executor, workspace pools and profiler can all hold
/// it. See the [crate documentation](crate) for the role it plays.
#[derive(Debug, Clone)]
pub struct DeviceMemory {
    inner: Arc<Mutex<Inner>>,
    capacity: u64,
    /// Bytes the CUDA context + fragmentation would add on top of what the
    /// profiler sees (the striped bar of Figure 5).
    context_overhead: u64,
    fragmentation: f64,
}

impl DeviceMemory {
    /// Creates a device with `capacity` bytes and the default context
    /// overhead model (600 MiB context, 4% fragmentation), calibrated to the
    /// profiler-vs-`nvidia-smi` gap the paper reports.
    pub fn with_capacity(capacity: u64) -> Self {
        DeviceMemory {
            inner: Arc::new(Mutex::new(Inner::default())),
            capacity,
            context_overhead: 600 << 20,
            fragmentation: 0.04,
        }
    }

    /// A 12 GiB device (Titan Xp / Titan V class).
    pub fn titan_xp() -> Self {
        DeviceMemory::with_capacity(12 << 30)
    }

    /// Creates a device with an explicit overhead model.
    pub fn with_overhead_model(capacity: u64, context_overhead: u64, fragmentation: f64) -> Self {
        DeviceMemory {
            inner: Arc::new(Mutex::new(Inner::default())),
            capacity,
            context_overhead,
            fragmentation,
        }
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Allocates `bytes` with `tag`, returning an RAII handle that frees on
    /// drop.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] when the allocation (plus the context-overhead
    /// model) would exceed capacity.
    pub fn alloc(&self, bytes: u64, tag: AllocationTag) -> Result<Allocation, OomError> {
        let mut inner = self.inner.lock();
        let projected = self.overheads(inner.live_bytes + bytes) + inner.live_bytes + bytes;
        if projected > self.capacity {
            return Err(OomError {
                requested: bytes,
                live: inner.live_bytes,
                capacity: self.capacity,
                tag,
            });
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.live.insert(id, (bytes, tag.clone()));
        inner.live_bytes += bytes;
        *inner.live_by_tag.entry((tag.layer, tag.kind)).or_default() += bytes;
        let live_now = inner.live_by_tag[&(tag.layer, tag.kind)];
        let entry = inner.max_by_tag.entry((tag.layer, tag.kind)).or_default();
        *entry = (*entry).max(live_now);
        inner.total_allocs += 1;
        if inner.live_bytes > inner.peak_bytes {
            inner.peak_bytes = inner.live_bytes;
            inner.peak_breakdown = inner.live_by_tag.clone();
        }
        Ok(Allocation {
            id,
            bytes,
            mem: self.clone(),
        })
    }

    fn overheads(&self, live: u64) -> u64 {
        self.context_overhead + (live as f64 * self.fragmentation) as u64
    }

    fn free(&self, id: u64) {
        let mut inner = self.inner.lock();
        if let Some((bytes, tag)) = inner.live.remove(&id) {
            inner.live_bytes -= bytes;
            if let Some(v) = inner.live_by_tag.get_mut(&(tag.layer, tag.kind)) {
                *v -= bytes;
            }
        }
    }

    /// Bytes currently live (profiler view, excludes context overhead).
    pub fn live_bytes(&self) -> u64 {
        self.inner.lock().live_bytes
    }

    /// Peak live bytes observed so far (profiler view).
    pub fn peak_bytes(&self) -> u64 {
        self.inner.lock().peak_bytes
    }

    /// What `nvidia-smi` would report at the peak: profiler bytes plus the
    /// CUDA-context and fragmentation overheads.
    pub fn nvidia_smi_peak_bytes(&self) -> u64 {
        let peak = self.peak_bytes();
        peak + self.overheads(peak)
    }

    /// Number of allocations performed over the device's lifetime.
    pub fn total_allocs(&self) -> u64 {
        self.inner.lock().total_allocs
    }

    /// Per-(layer, kind) live bytes captured at the moment of peak.
    pub fn peak_breakdown(&self) -> HashMap<(LayerKind, DataStructureKind), u64> {
        self.inner.lock().peak_breakdown.clone()
    }

    /// Independent per-(layer, kind) maxima over the whole run. This is
    /// the MXNet-profiler view: each category's own high-water mark, even
    /// if the maxima did not occur simultaneously (so the sum can exceed
    /// [`DeviceMemory::peak_bytes`]).
    pub fn max_breakdown(&self) -> HashMap<(LayerKind, DataStructureKind), u64> {
        self.inner.lock().max_by_tag.clone()
    }

    /// Current per-(layer, kind) live bytes.
    pub fn live_breakdown(&self) -> HashMap<(LayerKind, DataStructureKind), u64> {
        self.inner.lock().live_by_tag.clone()
    }

    /// Forgets the recorded peak (live allocations are kept), so a fresh
    /// peak can be measured for a new phase.
    pub fn reset_peak(&self) {
        let mut inner = self.inner.lock();
        inner.peak_bytes = inner.live_bytes;
        inner.peak_breakdown = inner.live_by_tag.clone();
    }

    /// Records one *planned* execution phase in a single call: the caller
    /// has statically computed that the phase will transiently hold
    /// `delta` bytes on top of what is live now, with the given
    /// per-(layer, kind) breakdown at the phase's peak moment and the
    /// given per-(layer, kind) high-water marks over the whole phase.
    ///
    /// A plan-driven executor uses this instead of issuing one `alloc` per
    /// node per step. `assumed_workspace` names the portion of `delta`
    /// that the phase serves through real (per-lease) workspace
    /// allocations; whatever part of it is *already* live — pools retain
    /// their high-water buffers across steps — is subtracted so repeated
    /// phases do not double-count it.
    ///
    /// The peak breakdown snapshot is replaced by `breakdown` when the
    /// planned phase sets a new peak; `breakdown` must therefore describe
    /// the full live set at the phase peak (persistent allocations
    /// included), not just the delta. `maxima` is folded into
    /// [`max_breakdown`](DeviceMemory::max_breakdown): each category's own
    /// maximum over the phase, which need not occur at the peak moment —
    /// exactly what per-allocation accounting would have recorded.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] when the projected phase peak (plus the
    /// context-overhead model) would exceed capacity, before any compute
    /// runs — the planned counterpart of failing mid-iteration.
    pub fn record_planned_peak(
        &self,
        delta: u64,
        assumed_workspace: u64,
        breakdown: &[((LayerKind, DataStructureKind), u64)],
        maxima: &[((LayerKind, DataStructureKind), u64)],
    ) -> Result<(), OomError> {
        let mut inner = self.inner.lock();
        let live_workspace: u64 = inner
            .live_by_tag
            .iter()
            .filter(|((_, kind), _)| *kind == DataStructureKind::Workspace)
            .map(|(_, &bytes)| bytes)
            .sum();
        let overlap = assumed_workspace.min(live_workspace).min(delta);
        let candidate = inner.live_bytes + (delta - overlap);
        if candidate + self.overheads(candidate) > self.capacity {
            return Err(OomError {
                requested: delta,
                live: inner.live_bytes,
                capacity: self.capacity,
                tag: AllocationTag::new(
                    LayerKind::Other,
                    DataStructureKind::Placeholder,
                    "planned_step",
                ),
            });
        }
        for &(key, bytes) in maxima {
            let e = inner.max_by_tag.entry(key).or_default();
            *e = (*e).max(bytes);
        }
        if candidate > inner.peak_bytes {
            inner.peak_bytes = candidate;
            inner.peak_breakdown = breakdown.iter().copied().collect();
        }
        Ok(())
    }
}

/// RAII handle to a device allocation; frees its bytes on drop.
#[derive(Debug)]
pub struct Allocation {
    id: u64,
    bytes: u64,
    mem: DeviceMemory,
}

impl Allocation {
    /// Size of this allocation.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for Allocation {
    fn drop(&mut self) {
        self.mem.free(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(layer: LayerKind, kind: DataStructureKind) -> AllocationTag {
        AllocationTag::new(layer, kind, "t")
    }

    fn plain_device(capacity: u64) -> DeviceMemory {
        DeviceMemory::with_overhead_model(capacity, 0, 0.0)
    }

    #[test]
    fn alloc_free_accounting() {
        let mem = plain_device(1000);
        let a = mem
            .alloc(400, tag(LayerKind::Rnn, DataStructureKind::FeatureMap))
            .unwrap();
        let b = mem
            .alloc(300, tag(LayerKind::Attention, DataStructureKind::Workspace))
            .unwrap();
        assert_eq!(mem.live_bytes(), 700);
        drop(a);
        assert_eq!(mem.live_bytes(), 300);
        drop(b);
        assert_eq!(mem.live_bytes(), 0);
        assert_eq!(mem.peak_bytes(), 700);
        assert_eq!(mem.total_allocs(), 2);
    }

    #[test]
    fn oom_at_capacity() {
        let mem = plain_device(1000);
        let _a = mem
            .alloc(900, tag(LayerKind::Rnn, DataStructureKind::Weight))
            .unwrap();
        let err = mem
            .alloc(200, tag(LayerKind::Rnn, DataStructureKind::Weight))
            .unwrap_err();
        assert_eq!(err.requested, 200);
        assert_eq!(err.live, 900);
        assert!(err.to_string().contains("out of device memory"));
    }

    #[test]
    fn context_overhead_counts_against_capacity() {
        let mem = DeviceMemory::with_overhead_model(1000, 500, 0.0);
        assert!(mem
            .alloc(600, tag(LayerKind::Other, DataStructureKind::Placeholder))
            .is_err());
        assert!(mem
            .alloc(400, tag(LayerKind::Other, DataStructureKind::Placeholder))
            .is_ok());
    }

    #[test]
    fn peak_breakdown_snapshot_is_taken_at_peak() {
        let mem = plain_device(10_000);
        let a = mem
            .alloc(
                100,
                tag(LayerKind::Attention, DataStructureKind::FeatureMap),
            )
            .unwrap();
        {
            let _b = mem
                .alloc(900, tag(LayerKind::Rnn, DataStructureKind::Workspace))
                .unwrap();
        } // drops: peak was 1000 with both live
        let _c = mem
            .alloc(200, tag(LayerKind::Output, DataStructureKind::Weight))
            .unwrap();
        let bd = mem.peak_breakdown();
        assert_eq!(
            bd.get(&(LayerKind::Rnn, DataStructureKind::Workspace)),
            Some(&900)
        );
        assert_eq!(
            bd.get(&(LayerKind::Attention, DataStructureKind::FeatureMap)),
            Some(&100)
        );
        assert!(!bd.contains_key(&(LayerKind::Output, DataStructureKind::Weight)));
        drop(a);
    }

    #[test]
    fn nvidia_smi_exceeds_profiler_view() {
        let mem = DeviceMemory::with_capacity(12 << 30);
        let _a = mem
            .alloc(1 << 30, tag(LayerKind::Rnn, DataStructureKind::FeatureMap))
            .unwrap();
        assert!(mem.nvidia_smi_peak_bytes() > mem.peak_bytes());
    }

    #[test]
    fn reset_peak_rebases_on_live() {
        let mem = plain_device(10_000);
        {
            let _a = mem
                .alloc(5000, tag(LayerKind::Rnn, DataStructureKind::FeatureMap))
                .unwrap();
        }
        let _b = mem
            .alloc(100, tag(LayerKind::Rnn, DataStructureKind::Weight))
            .unwrap();
        assert_eq!(mem.peak_bytes(), 5000);
        mem.reset_peak();
        assert_eq!(mem.peak_bytes(), 100);
    }

    #[test]
    fn shared_handles_see_same_state() {
        let mem = plain_device(1000);
        let clone = mem.clone();
        let _a = mem
            .alloc(500, tag(LayerKind::Rnn, DataStructureKind::Weight))
            .unwrap();
        assert_eq!(clone.live_bytes(), 500);
    }

    #[test]
    fn planned_peak_records_category_maxima_not_just_the_peak_snapshot() {
        // A phase whose feature maps peak early and whose placeholders
        // peak late: the snapshot at the peak moment understates the
        // placeholder category, the maxima do not.
        let mem = plain_device(10_000);
        let _w = mem
            .alloc(100, tag(LayerKind::Rnn, DataStructureKind::Weight))
            .unwrap();
        let fm = (LayerKind::Rnn, DataStructureKind::FeatureMap);
        let ph = (LayerKind::Rnn, DataStructureKind::Placeholder);
        let w = (LayerKind::Rnn, DataStructureKind::Weight);
        mem.record_planned_peak(
            900,
            0,
            &[(fm, 800), (ph, 100), (w, 100)],
            &[(fm, 800), (ph, 300), (w, 100)],
        )
        .unwrap();
        assert_eq!(mem.peak_bytes(), 1000);
        assert_eq!(mem.peak_breakdown()[&ph], 100);
        assert_eq!(mem.max_breakdown()[&ph], 300);
        assert_eq!(mem.max_breakdown()[&fm], 800);
        assert_eq!(mem.live_bytes(), 100, "a planned phase allocates nothing");
        // Over capacity: rejected up front, nothing recorded.
        assert!(mem
            .record_planned_peak(10_000, 0, &[], &[(ph, 9_999)])
            .is_err());
        assert_eq!(mem.max_breakdown()[&ph], 300);
    }
}
