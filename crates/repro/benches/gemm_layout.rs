//! Criterion bench for Figure 9's CPU cross-check: the same
//! fully-connected product under the row-major (`Y = XWᵀ`) and
//! column-major (`Yᵀ = WXᵀ`) formulations, on this machine's caches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use echo_tensor::gemm::{fc_col_major, fc_row_major};
use echo_tensor::init::{seeded_rng, uniform};
use echo_tensor::{MatView, MatViewMut, MatrixLayout, Shape};

fn bench_layouts(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig09_gemm_layout");
    group.sample_size(10);
    for (name, b, h, o) in [
        ("lstm", 64usize, 512usize, 2048usize),
        ("gru", 64, 1024, 3072),
    ] {
        let mut rng = seeded_rng(3);
        let x = uniform(Shape::d2(b, h), 1.0, &mut rng);
        let w = uniform(Shape::d2(o, h), 1.0, &mut rng);
        let xt = x.transpose2().expect("rank 2");
        group.bench_function(BenchmarkId::new("row_major_y_eq_xwt", name), |bench| {
            let mut out = vec![0.0f32; b * o];
            bench.iter(|| {
                fc_row_major(
                    x.as_mat(),
                    w.as_mat(),
                    &mut MatViewMut::new(&mut out, b, o, MatrixLayout::RowMajor),
                )
                .expect("gemm");
            });
        });
        group.bench_function(BenchmarkId::new("col_major_yt_eq_wxt", name), |bench| {
            let mut out = vec![0.0f32; o * b];
            bench.iter(|| {
                fc_col_major(
                    w.as_mat(),
                    MatView::new(xt.data(), b, h, MatrixLayout::ColMajor),
                    &mut MatViewMut::new(&mut out, o, b, MatrixLayout::RowMajor),
                )
                .expect("gemm");
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_layouts);
criterion_main!(benches);
