//! The persistent shared worker pool behind every parallel kernel.
//!
//! Spawning scoped threads on every call is ruinous on a training hot
//! path where an LSTM time step issues four GEMMs, so there is one
//! process-wide pool: workers are spawned lazily on first use, sized from
//! [`std::thread::available_parallelism`] (override with
//! `ECHO_NUM_THREADS`), and fed short-lived band jobs over a shared
//! crossbeam channel. The packed GEMM's row bands, the element-wise tensor
//! kernels and the softmax/layer-norm row kernels all submit to the same
//! pool, so `K` data-parallel model replicas contend for one fixed set of
//! threads instead of oversubscribing the host with `K × cores` transient
//! spawns.
//!
//! # Dispatch without allocation
//!
//! [`WorkerPool::run_indexed`] is the pool's one dispatch path: the caller
//! hands over one `&dyn Fn(usize)` plus a count, a single stack-allocated
//! [`IndexedBatch`] travels through the channel as a raw pointer, and
//! workers *claim indices* from an atomic cursor instead of receiving one
//! boxed closure each. Steady-state plan execution therefore launches
//! kernels with zero dispatch allocations.
//!
//! # Determinism
//!
//! The pool runs *jobs*, and every caller in this crate partitions work so
//! that each output element is produced by exactly one job with a fixed
//! serial loop inside it. Scheduling order therefore cannot change any
//! floating-point result: the bit-exactness contract of the data-parallel
//! trainer extends to "any worker count" (see `DESIGN.md`).

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Raw pointer to a stack-allocated [`IndexedBatch`], made `Send` so it can
/// travel through the channel: the one kind of task the pool runs. The
/// receiving worker claims indices from the batch's cursor until it is
/// exhausted.
///
/// SAFETY: `run_indexed` blocks on the batch latch until every ticket it
/// sent has been consumed *and completed*, so the pointee strictly outlives
/// every `SharedBatch` referring to it.
struct SharedBatch(*const IndexedBatch);
unsafe impl Send for SharedBatch {}

/// One `run_indexed` call's worth of work: an erased closure, an atomic
/// index cursor, and a completion latch counting *tickets* (not indices).
struct IndexedBatch {
    /// The caller's `&dyn Fn(usize)` with its lifetime erased; only
    /// dereferenced while `run_indexed` is blocked in this stack frame.
    f: *const (dyn Fn(usize) + Sync),
    next: AtomicUsize,
    count: usize,
    latch: Latch,
}

// SAFETY: `f` points at a `Sync` closure and every other field is itself
// thread-safe, so workers may drain the batch concurrently.
unsafe impl Sync for IndexedBatch {}

impl IndexedBatch {
    /// Claims and runs indices until the cursor is exhausted. Panics inside
    /// the closure are caught and recorded on the latch so the submitting
    /// caller — not a pool worker — reports them.
    fn claim(&self) {
        // SAFETY: see `SharedBatch` — the owning `run_indexed` frame is
        // still blocked on the latch, so the closure is alive.
        let f = unsafe { &*self.f };
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.count {
                return;
            }
            if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
                self.latch.poisoned.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// Completion latch for one [`WorkerPool::run_indexed`] batch.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    poisoned: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            poisoned: AtomicBool::new(false),
        }
    }

    fn complete(&self) {
        let mut remaining = self.remaining.lock().expect("latch mutex");
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *self.remaining.lock().expect("latch mutex") == 0
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock().expect("latch mutex");
        while *remaining > 0 {
            remaining = self.done.wait(remaining).expect("latch mutex");
        }
    }
}

thread_local! {
    /// Set inside pool workers (and while a caller is helping drain the
    /// queue) so nested `run_indexed` calls degrade to inline execution
    /// instead of blocking a worker on a latch.
    static IN_POOL_TASK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A raw `*mut f32` wrapper so band kernels can hand disjoint slices of one
/// output buffer to `run_indexed` closures. Each call site must guarantee
/// its bands never overlap.
pub(crate) struct SendPtr(pub *mut f32);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// A persistent pool of kernel worker threads fed over a shared channel.
///
/// See [`global`] for the process-wide instance every kernel uses; direct
/// construction ([`WorkerPool::with_threads`]) exists for tests.
pub struct WorkerPool {
    tx: Sender<SharedBatch>,
    rx: Receiver<SharedBatch>,
    /// Total parallelism: spawned workers + the calling thread.
    threads: usize,
    /// Jobs executed since the pool was built (workers + helping callers).
    executed: Arc<AtomicUsize>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

/// Runs one received ticket (worker loop and help-drain share this).
fn execute(ticket: SharedBatch) {
    // SAFETY: the submitting `run_indexed` frame waits on this batch's
    // latch for exactly as many completions as tickets it sent, so the
    // pointee is alive until we call `complete`.
    let batch = unsafe { &*ticket.0 };
    batch.claim();
    batch.latch.complete();
}

impl WorkerPool {
    /// Builds a pool with `threads` total lanes of parallelism (the
    /// calling thread counts as one; `threads - 1` workers are spawned).
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = unbounded::<SharedBatch>();
        let executed = Arc::new(AtomicUsize::new(0));
        for i in 1..threads {
            let worker_rx = rx.clone();
            let counter = executed.clone();
            std::thread::Builder::new()
                .name(format!("echo-kernel-{i}"))
                .spawn(move || {
                    IN_POOL_TASK.with(|f| f.set(true));
                    // Exits when every Sender is gone — i.e. never for the
                    // global pool, which is intentional: kernel workers
                    // live for the life of the process.
                    for task in worker_rx.iter() {
                        execute(task);
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                })
                .expect("spawn kernel worker");
        }
        WorkerPool {
            tx,
            rx,
            threads,
            executed,
        }
    }

    /// Total parallelism (spawned workers + the calling thread).
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Jobs executed on the pool so far (observability/testing).
    pub fn jobs_executed(&self) -> usize {
        self.executed.load(Ordering::Relaxed)
    }

    /// Runs `f(0), f(1), …, f(count - 1)`, each index exactly once, using
    /// the pool's workers plus the calling thread — without allocating.
    ///
    /// One stack-allocated batch descriptor is shared by every lane;
    /// workers claim indices from an atomic cursor. The closure may borrow
    /// from the caller's stack: the call blocks until every index has run
    /// *and* every worker ticket has been consumed, so neither the closure
    /// nor the descriptor can be observed after return. Nested calls (from
    /// inside a pool job) degrade to an inline serial loop.
    ///
    /// Indices are claimed in arbitrary order across lanes — callers must
    /// partition work so each output element is written by exactly one
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if `f` panicked for any index (after the batch has drained).
    pub fn run_indexed(&self, count: usize, f: &(dyn Fn(usize) + Sync)) {
        if count == 0 {
            return;
        }
        if count == 1 || self.threads == 1 || IN_POOL_TASK.with(|flag| flag.get()) {
            for i in 0..count {
                f(i);
            }
            return;
        }

        // One ticket per worker lane that could usefully help; stale
        // tickets (batch already drained) complete immediately, so the
        // latch still converges.
        let tickets = (self.threads - 1).min(count);
        // SAFETY: the lifetime of `f` is erased only so the pointer can sit
        // in a channel message; `latch.wait()` in `drain_until` does not
        // return until all `tickets` completions have arrived, and a ticket
        // only completes after its final (failed) cursor claim — so no
        // worker can touch `batch` or `f` after this frame returns.
        let f: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(f) };
        let batch = IndexedBatch {
            f,
            next: AtomicUsize::new(0),
            count,
            latch: Latch::new(tickets),
        };
        for _ in 0..tickets {
            self.tx
                .send(SharedBatch(&batch))
                .expect("pool receiver alive");
        }
        // The caller is a lane too: claim indices alongside the workers.
        IN_POOL_TASK.with(|flag| flag.set(true));
        batch.claim();
        IN_POOL_TASK.with(|flag| flag.set(false));
        self.drain_until(&batch.latch);
        assert!(
            !batch.latch.poisoned.load(Ordering::Relaxed),
            "worker-pool job panicked"
        );
    }

    /// Helps drain the shared queue until `latch` completes, then waits.
    fn drain_until(&self, latch: &Latch) {
        // Help drain the queue while waiting; the caller may execute its
        // own jobs or another batch's — both make progress.
        IN_POOL_TASK.with(|f| f.set(true));
        while !latch.is_done() {
            match self.rx.try_recv() {
                Ok(ticket) => {
                    execute(ticket);
                    self.executed.fetch_add(1, Ordering::Relaxed);
                }
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        IN_POOL_TASK.with(|f| f.set(false));
        latch.wait();
    }
}

/// Number of bands `total` items split into, given a per-band minimum and
/// a lane cap. At least 1, at most `max_bands`.
pub fn band_count(total: usize, min_per_band: usize, max_bands: usize) -> usize {
    if total == 0 {
        return 1;
    }
    (total / min_per_band.max(1)).clamp(1, max_bands.max(1))
}

/// The process-wide pool. Lazily built on first use; sized from
/// `ECHO_NUM_THREADS` if set, else [`std::thread::available_parallelism`].
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = std::env::var("ECHO_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            });
        WorkerPool::with_threads(threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_hits_every_index_once() {
        let pool = WorkerPool::with_threads(4);
        for count in [1usize, 2, 3, 64, 257] {
            let hits: Vec<AtomicUsize> = (0..count).map(|_| AtomicUsize::new(0)).collect();
            pool.run_indexed(count, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn run_indexed_nested_degrades_to_inline() {
        let pool = WorkerPool::with_threads(2);
        let outer = AtomicUsize::new(0);
        pool.run_indexed(4, &|_| {
            let inner = AtomicUsize::new(0);
            global().run_indexed(3, &|_| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(inner.load(Ordering::Relaxed), 3);
            outer.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(outer.load(Ordering::Relaxed), 4);
    }

    #[test]
    #[should_panic(expected = "worker-pool job panicked")]
    fn run_indexed_panic_is_propagated_not_deadlocked() {
        let pool = WorkerPool::with_threads(2);
        pool.run_indexed(4, &|i| {
            if i == 2 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn band_count_respects_bounds() {
        assert_eq!(band_count(0, 8, 4), 1);
        assert_eq!(band_count(7, 8, 4), 1);
        assert_eq!(band_count(16, 8, 4), 2);
        assert_eq!(band_count(1000, 8, 4), 4);
    }
}
