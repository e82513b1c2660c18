//! Host-side scratch arenas for compute kernels.
//!
//! The packed GEMM backend needs per-call pack buffers (contiguous copies
//! of A/B panels). Allocating them with `Vec::new` on every call would put
//! a pair of multi-hundred-kilobyte allocations on the hottest path of
//! training; the plan's workspace pools already solve the identical
//! problem for the simulated device plane (one high-water buffer, leased
//! to one consumer at a time). [`ScratchArena`] is the host-plane twin: a small free-list of real `Vec<f32>` buffers that grow to their
//! high-water sizes once and are then reused for the remainder of the
//! process. Kernels keep one arena per thread (`thread_local!`), so leases
//! never contend and never need locking — the arena is deliberately
//! `!Sync`, mirroring the workspace pool's exclusivity invariant at the
//! type level instead of with a runtime panic.

use std::cell::RefCell;

#[derive(Debug, Default)]
struct ArenaInner {
    /// Retained buffers, available for lease. Contents are unspecified
    /// between leases.
    free: Vec<Vec<f32>>,
    /// Largest single lease ever served, in elements.
    high_water_elems: usize,
    /// Number of leases served.
    leases: u64,
    /// Leases that were satisfied without growing a retained buffer.
    reuse_hits: u64,
}

/// A reusable pool of host `f32` scratch buffers.
///
/// # Example
///
/// ```
/// use echo_memory::ScratchArena;
///
/// let arena = ScratchArena::new();
/// for _ in 0..100 {
///     arena.with_f32(1024, |buf| buf.fill(1.0));
/// }
/// assert_eq!(arena.lease_count(), 100);
/// // The first lease allocates; the other 99 reuse the same buffer.
/// assert_eq!(arena.reuse_hits(), 99);
/// assert_eq!(arena.high_water_elems(), 1024);
/// ```
#[derive(Debug, Default)]
pub struct ScratchArena {
    inner: RefCell<ArenaInner>,
}

impl ScratchArena {
    /// Creates an empty arena.
    pub const fn new() -> Self {
        ScratchArena {
            inner: RefCell::new(ArenaInner {
                free: Vec::new(),
                high_water_elems: 0,
                leases: 0,
                reuse_hits: 0,
            }),
        }
    }

    /// Leases a buffer of exactly `elems` elements for the duration of `f`.
    ///
    /// The buffer's contents are **unspecified** (it may hold data from a
    /// previous lease); callers must fully initialize the region they read.
    /// Leases nest: taking a second buffer inside `f` works and draws from
    /// the same free list.
    pub fn with_f32<R>(&self, elems: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
        let mut buf = {
            let mut inner = self.inner.borrow_mut();
            inner.leases += 1;
            inner.high_water_elems = inner.high_water_elems.max(elems);
            // Prefer the retained buffer with the largest capacity so small
            // leases don't force a big buffer to be reallocated later.
            let best = inner
                .free
                .iter()
                .enumerate()
                .max_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i);
            match best {
                Some(i) => {
                    let b = inner.free.swap_remove(i);
                    if b.capacity() >= elems {
                        inner.reuse_hits += 1;
                    }
                    b
                }
                None => Vec::new(),
            }
        };
        // Grow without zeroing what a previous lease already touched;
        // `resize` zero-fills only the newly exposed tail.
        buf.resize(elems, 0.0);
        let result = f(&mut buf);
        self.inner.borrow_mut().free.push(buf);
        result
    }

    /// Largest lease ever served, in elements.
    pub fn high_water_elems(&self) -> usize {
        self.inner.borrow().high_water_elems
    }

    /// Number of leases served.
    pub fn lease_count(&self) -> u64 {
        self.inner.borrow().leases
    }

    /// Leases served without growing a retained buffer.
    pub fn reuse_hits(&self) -> u64 {
        self.inner.borrow().reuse_hits
    }

    /// Number of buffers currently retained for reuse.
    pub fn retained_buffers(&self) -> usize {
        self.inner.borrow().free.len()
    }

    /// Drops every retained buffer (e.g. at the end of training).
    pub fn release_all(&self) {
        self.inner.borrow_mut().free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_reused_across_leases() {
        let arena = ScratchArena::new();
        let mut seen_ptr = None;
        for _ in 0..10 {
            arena.with_f32(512, |buf| {
                let ptr = buf.as_ptr();
                if let Some(prev) = seen_ptr {
                    assert_eq!(prev, ptr, "same backing buffer every lease");
                }
                seen_ptr = Some(ptr);
            });
        }
        assert_eq!(arena.lease_count(), 10);
        assert_eq!(arena.reuse_hits(), 9);
        assert_eq!(arena.retained_buffers(), 1);
    }

    #[test]
    fn nested_leases_draw_distinct_buffers() {
        let arena = ScratchArena::new();
        arena.with_f32(64, |a| {
            a.fill(1.0);
            arena.with_f32(64, |b| {
                b.fill(2.0);
                assert_ne!(a.as_ptr(), b.as_ptr());
            });
            assert!(a.iter().all(|&v| v == 1.0), "inner lease must not alias");
        });
        assert_eq!(arena.retained_buffers(), 2);
    }

    #[test]
    fn grows_to_high_water_and_new_tail_is_zeroed() {
        let arena = ScratchArena::new();
        arena.with_f32(16, |buf| buf.fill(7.0));
        arena.with_f32(32, |buf| {
            // Reused prefix is unspecified, but the grown tail is zeroed.
            assert_eq!(&buf[16..], &[0.0; 16]);
        });
        assert_eq!(arena.high_water_elems(), 32);
        arena.release_all();
        assert_eq!(arena.retained_buffers(), 0);
    }
}
