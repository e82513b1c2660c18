//! A serial GEMM stays off the worker pool.
//!
//! `gemm_packed` is the serial entry point and `dispatch_gemm` bands on
//! the pool only at ≥ 2²² FLOPs, so with a multi-thread pool neither may
//! submit a single job below that size — a pool round-trip costs more
//! than a small GEMM. One `#[test]` in its own binary: it sizes the
//! process-global pool through the environment before first use.

use echo_tensor::init::{seeded_rng, uniform};
use echo_tensor::{dispatch_gemm, gemm_packed, pool, MatViewMut, MatrixLayout, Shape};
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
