//! A serial GEMM stays off the worker pool.
//!
//! `gemm_packed` is the serial entry point, a panel GEMM at `ways = 1` is
//! serial, and `dispatch_gemm` bands on the pool only at ≥ 2²² FLOPs, so
//! with a multi-thread pool none of them may submit a single job below
//! that size — a pool round-trip costs more than a small GEMM. One
//! `#[test]` in its own binary: it sizes the process-global pool through
//! the environment before first use.

use echo_tensor::init::{seeded_rng, uniform};
use echo_tensor::{
    active_micro_kernel, dispatch_gemm, gemm_packed, gemm_with_panel, pool, MatViewMut,
    MatrixLayout, PackedPanel, PanelCache, Shape,
};
use std::time::{Duration, Instant};

fn run(m: usize, k: usize, n: usize, through_dispatch: bool) {
    let mut rng = seeded_rng(5);
    let a = uniform(Shape::d2(m, k), 1.0, &mut rng);
    let b = uniform(Shape::d2(k, n), 1.0, &mut rng);
    let mut c = vec![0.0f32; m * n];
    let mut cv = MatViewMut::new(&mut c, m, n, MatrixLayout::RowMajor);
    if through_dispatch {
        dispatch_gemm(1.0, a.as_mat(), b.as_mat(), 0.0, &mut cv).unwrap();
    } else {
        gemm_packed(1.0, a.as_mat(), b.as_mat(), 0.0, &mut cv).unwrap();
    }
}

#[test]
fn sub_threshold_gemms_submit_no_pool_jobs() {
    std::env::set_var("ECHO_NUM_THREADS", "2");
    let pool = pool::global();
    assert_eq!(pool.num_threads(), 2);

    let before = pool.jobs_executed();
    // B holds 128·256 = 32 Ki elements: the size from which a B-pack that
    // ignored `ways` fanned out on the pool.
    run(4, 128, 256, false);
    run(64, 512, 1024, false);
    // 2·16·128·512 = 2²¹ FLOPs, B 64 Ki elements: under the banding
    // threshold, over the parallel-pack one.
    run(16, 128, 512, true);
    // A panel GEMM at ways = 1, over 2²² FLOPs and from a B large enough
    // for a parallel pack, packed serially.
    let mut rng = seeded_rng(6);
    let (m, k, n) = (64, 512, 1024);
    let a = uniform(Shape::d2(m, k), 1.0, &mut rng);
    let b = uniform(Shape::d2(n, k), 1.0, &mut rng);
    let panel = PackedPanel::pack(b.as_mat().t());
    let mut c = vec![0.0f32; m * n];
    let mut cv = MatViewMut::new(&mut c, m, n, MatrixLayout::RowMajor);
    gemm_with_panel(
        1.0,
        a.as_mat(),
        &panel,
        0.0,
        &mut cv,
        1,
        active_micro_kernel(),
    )
    .unwrap();
    // And a sub-threshold product through a lent cache, which packs its
    // 64 Ki-element panel on first use.
    let (m, k, n) = (2, 128, 512);
    let a = uniform(Shape::d2(m, k), 1.0, &mut rng);
    let w = uniform(Shape::d2(n, k), 1.0, &mut rng);
    let mut cache = PanelCache::new();
    cache.bind(0, w.data());
    let mut c = vec![0.0f32; m * n];
    let mut cv = MatViewMut::new(&mut c, m, n, MatrixLayout::RowMajor);
    cache.lend(|| dispatch_gemm(1.0, a.as_mat(), w.as_mat().t(), 0.0, &mut cv).unwrap());
    assert_eq!(cache.stats().packs, 1);
    assert_eq!(pool.jobs_executed(), before, "a serial GEMM used the pool");

    // Control: at 2²³ FLOPs the dispatcher does band, so the counter can
    // move. A worker bumps it just after releasing the caller, hence the
    // bounded wait.
    run(64, 128, 512, true);
    let deadline = Instant::now() + Duration::from_secs(10);
    while pool.jobs_executed() == before && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert!(pool.jobs_executed() > before, "large GEMM never banded");
}
