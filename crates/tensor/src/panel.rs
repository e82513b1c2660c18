//! Packed weight panels kept across GEMM calls.
//!
//! A weight is the `B` operand of the same products at every timestep of
//! a step, in replay and in the backward pass, and on every decode step
//! of a server — yet the packed kernel packs its `B` on every call. A
//! [`PanelCache`] keeps one [`PackedPanel`] per (weight, orientation):
//! `W` read as stored and `Wᵀ` (its column-major view) are different
//! panels, since training reads both.
//!
//! The cache belongs to whoever owns the weights (the graph executor). It
//! registers each weight's storage with [`PanelCache::bind`] and lends
//! itself to the calling thread for the duration of a run
//! ([`PanelCache::lend`]); while it is lent, [`dispatch_gemm`] looks the
//! `B` operand's storage up in it and multiplies by the kept panel. Only
//! registered storage is ever looked up, so an activation — whose address
//! may be reused after a free — never hits a panel. The owner marks a
//! weight stale ([`PanelCache::invalidate`]) whenever its value may have
//! changed; the next use re-packs it in place, into the panel's own
//! storage, so a steady state allocates nothing.
//!
//! A panel is byte for byte the buffer the packed kernel builds on each
//! call, so a product through a panel is bit-identical to one without.
//! Panels are host memory outside any plan's device accounting.
//!
//! [`dispatch_gemm`]: crate::dispatch_gemm

use crate::gemm_packed::PackedPanel;
use crate::layout::MatrixLayout;
use crate::matrix::MatView;
use std::cell::RefCell;

thread_local! {
    /// The cache lent to this thread, if any.
    static LENT: RefCell<Option<PanelCache>> = const { RefCell::new(None) };
}

/// Counters of a [`PanelCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PanelStats {
    /// Panels held.
    pub panels: usize,
    /// Host bytes of the panels held.
    pub panel_bytes: u64,
    /// Packs performed over the cache's life (first packs and re-packs).
    pub packs: u64,
    /// Bytes written by those packs.
    pub packed_bytes: u64,
}

/// One registered weight: where its storage lives and its two panels.
#[derive(Debug, Default)]
struct Slot {
    key: u64,
    addr: usize,
    len: usize,
    /// Indexed by [`orientation`]; the flag says the panel matches the
    /// weight's current value.
    panels: [Option<(PackedPanel, bool)>; 2],
}

/// Index of a `B` view's panel within its slot.
fn orientation(b: &MatView<'_>) -> usize {
    match b.layout() {
        MatrixLayout::RowMajor => 0,
        MatrixLayout::ColMajor => 1,
    }
}

/// Packed panels of registered weights, keyed by (weight, orientation).
/// See the [module docs](self).
#[derive(Debug, Default)]
pub struct PanelCache {
    /// Sorted by key.
    slots: Vec<Slot>,
    packs: u64,
    packed_bytes: u64,
}

impl PanelCache {
    /// An empty cache.
    pub fn new() -> PanelCache {
        PanelCache::default()
    }

    /// Registers (or re-registers) `storage` as the current value of the
    /// weight `key`. Call it for every weight before each
    /// [`lend`](PanelCache::lend): a replaced value lives at a new
    /// address. Registering never marks a panel stale.
    pub fn bind(&mut self, key: u64, storage: &[f32]) {
        let i = match self.slots.binary_search_by_key(&key, |s| s.key) {
            Ok(i) => i,
            Err(i) => {
                self.slots.insert(
                    i,
                    Slot {
                        key,
                        ..Slot::default()
                    },
                );
                i
            }
        };
        self.slots[i].addr = storage.as_ptr() as usize;
        self.slots[i].len = storage.len();
    }

    /// Marks the panels of weight `key` stale: its value may have changed.
    pub fn invalidate(&mut self, key: u64) {
        if let Ok(i) = self.slots.binary_search_by_key(&key, |s| s.key) {
            for (_, fresh) in self.slots[i].panels.iter_mut().flatten() {
                *fresh = false;
            }
        }
    }

    /// The cache's counters.
    pub fn stats(&self) -> PanelStats {
        let held = || self.slots.iter().flat_map(|s| s.panels.iter().flatten());
        PanelStats {
            panels: held().count(),
            panel_bytes: held().map(|(p, _)| p.bytes() as u64).sum(),
            packs: self.packs,
            packed_bytes: self.packed_bytes,
        }
    }

    /// Lends the cache to the calling thread while `f` runs: GEMMs that
    /// `f` issues on this thread through [`dispatch_gemm`] use its panels.
    /// The cache comes back when `f` returns or unwinds, and a lend made
    /// inside `f` (by another owner) is undone before this one's.
    ///
    /// [`dispatch_gemm`]: crate::dispatch_gemm
    pub fn lend<R>(&mut self, f: impl FnOnce() -> R) -> R {
        /// Puts the lent cache back home and reinstates the previous one.
        struct Restore<'a> {
            home: &'a mut PanelCache,
            prev: Option<PanelCache>,
        }
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                let lent = LENT.with(|cell| cell.replace(self.prev.take()));
                *self.home = lent.unwrap_or_default();
            }
        }
        let prev = LENT.with(|cell| cell.replace(Some(std::mem::take(self))));
        let _restore = Restore { home: self, prev };
        f()
    }

    /// The current panel for `b` when `b` views a registered weight's
    /// whole storage, (re-)packing it first when it is stale, missing or
    /// was packed at another shape.
    fn panel_for(&mut self, b: MatView<'_>, ways: usize) -> Option<&PackedPanel> {
        let data = b.data();
        if data.is_empty() {
            return None;
        }
        let addr = data.as_ptr() as usize;
        let slot = self
            .slots
            .iter_mut()
            .find(|s| s.addr == addr && s.len == data.len())?;
        let (panel, fresh) = slot.panels[orientation(&b)].get_or_insert_with(Default::default);
        if !*fresh || panel.rows() != b.rows() || panel.cols() != b.cols() {
            panel.repack(b, ways);
            *fresh = true;
            self.packs += 1;
            self.packed_bytes += panel.bytes() as u64;
        }
        Some(panel)
    }
}

/// Runs `f` on the lent cache's panel for `b`, or returns `None` when no
/// cache is lent to this thread (or it is in use) or `b` is not a
/// registered weight.
pub(crate) fn with_panel<R>(
    b: MatView<'_>,
    ways: usize,
    f: impl FnOnce(&PackedPanel) -> R,
) -> Option<R> {
    LENT.with(|cell| {
        let mut lent = cell.try_borrow_mut().ok()?;
        let panel = lent.as_mut()?.panel_for(b, ways)?;
        Some(f(panel))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;
    use crate::gemm_packed::{active_micro_kernel, gemm_with_panel};
    use crate::matrix::MatViewMut;

    fn weight(rows: usize, cols: usize, seed: f32) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| (i as f32 * 0.37 + seed).sin())
            .collect()
    }

    /// Whether `b` hits a panel of the cache lent to this thread.
    fn hits(b: MatView<'_>) -> bool {
        with_panel(b, 1, |_| ()).is_some()
    }

    #[test]
    fn only_registered_storage_hits() {
        let w = weight(6, 5, 0.0);
        let copy = w.clone();
        let mut cache = PanelCache::new();
        cache.bind(7, &w);
        let wv = MatView::new(&w, 6, 5, MatrixLayout::RowMajor);
        cache.lend(|| {
            assert!(hits(wv.t()));
            assert!(hits(wv.t()));
            // Equal values at another address: an activation, never cached.
            assert!(!hits(MatView::new(&copy, 6, 5, MatrixLayout::RowMajor).t()));
            // A partial view of the weight is not the weight.
            assert!(!hits(MatView::new(&w[..25], 5, 5, MatrixLayout::RowMajor)));
            // The other orientation is a panel of its own.
            assert!(hits(wv));
        });
        let stats = cache.stats();
        assert_eq!((stats.panels, stats.packs), (2, 2));
        assert_eq!(stats.panel_bytes, stats.packed_bytes);
        // Nothing is lent any more.
        assert!(!hits(wv));
    }

    #[test]
    fn invalidate_repacks_in_place_and_tracks_the_new_value() {
        let mut w = weight(9, 4, 1.0);
        let mut cache = PanelCache::new();
        let product = |cache: &mut PanelCache, w: &[f32]| {
            let a = weight(3, 4, 2.0);
            let av = MatView::new(&a, 3, 4, MatrixLayout::RowMajor);
            let bv = MatView::new(w, 9, 4, MatrixLayout::RowMajor).t();
            let (mut kept, mut naive) = (vec![0.0f32; 27], vec![0.0f32; 27]);
            gemm(
                1.0,
                av,
                bv,
                0.0,
                &mut MatViewMut::new(&mut naive, 3, 9, MatrixLayout::RowMajor),
            )
            .unwrap();
            cache.bind(1, w);
            cache.lend(|| {
                with_panel(bv, 1, |p| {
                    let mut cv = MatViewMut::new(&mut kept, 3, 9, MatrixLayout::RowMajor);
                    gemm_with_panel(1.0, av, p, 0.0, &mut cv, 1, active_micro_kernel()).unwrap();
                })
                .expect("a registered weight")
            });
            assert_eq!(kept, naive);
        };
        product(&mut cache, &w);
        let first = cache.stats();
        product(&mut cache, &w);
        assert_eq!(cache.stats(), first, "a fresh panel is reused");
        w.iter_mut().for_each(|v| *v *= -2.0);
        cache.invalidate(1);
        product(&mut cache, &w);
        let after = cache.stats();
        assert_eq!(after.packs, 2);
        assert_eq!((after.panels, after.panel_bytes), (1, first.panel_bytes));
    }

    #[test]
    fn lend_is_undone_on_unwind_and_nests() {
        let (w1, w2) = (weight(4, 8, 0.5), weight(4, 8, 1.5));
        let v1 = MatView::new(&w1, 4, 8, MatrixLayout::RowMajor);
        let v2 = MatView::new(&w2, 4, 8, MatrixLayout::RowMajor);
        let (mut outer, mut inner) = (PanelCache::new(), PanelCache::new());
        outer.bind(1, &w1);
        inner.bind(2, &w2);
        outer.lend(|| {
            assert!(hits(v1) && !hits(v2));
            inner.lend(|| assert!(hits(v2) && !hits(v1)));
            assert!(hits(v1) && !hits(v2));
        });
        assert_eq!((outer.stats().panels, inner.stats().panels), (1, 1));

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            outer.lend(|| panic!("an op failed"));
        }));
        assert!(unwound.is_err());
        assert!(!hits(v1), "a panicking run left its cache lent");
        assert_eq!(outer.stats().panels, 1, "the cache came home");
    }
}
