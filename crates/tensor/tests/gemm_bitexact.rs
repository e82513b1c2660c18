//! The backend bit-exactness contract, property-tested.
//!
//! Both GEMM kernels in this crate (naive, and packed at any band count,
//! micro-kernel and tiling) compute each output element with the identical
//! floating-point operation sequence, so their outputs are
//! **bit-identical** — not approximately equal. This is what makes the
//! dispatch rule numerically transparent and extends the data-parallel
//! engine's bit-exactness contract to "any thread count".

use echo_check::{check, default_cases, Gen};
use echo_tensor::init::{seeded_rng, uniform};
use echo_tensor::{
    available_micro_kernels, gemm, gemm_packed, gemm_packed_parallel, gemm_packed_parallel_with,
    MatViewMut, MatrixLayout, Shape,
};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn row_major(c: &mut [f32], m: usize, n: usize) -> MatViewMut<'_> {
    MatViewMut::new(c, m, n, MatrixLayout::RowMajor)
}

/// Packed-parallel at every way count and the serial packed kernel
/// are bit-identical to the naive kernel, across input layouts and
/// with non-trivial alpha/beta. Half the cases draw m ∈ {1, 2, 3}:
/// the rows where the dispatch rule switches kernel and where the
/// packed kernel runs only its `MR` edge path.
#[test]
fn all_backends_bit_identical() {
    let path = concat!(module_path!(), "::all_backends_bit_identical");
    let gen = |g: &mut Gen| {
        let (m, skinny) = (g.range(1usize..40), g.range(0usize..2));
        let (k, n) = (g.range(1usize..48), g.range(1usize..40));
        let (seed, la, lb) = (g.range(0u64..500), g.range(0usize..2), g.range(0usize..2));
        let (ai, bi) = (g.range(0usize..3), g.range(0usize..3));
        (m, skinny, k, n, seed, la, lb, ai, bi)
    };
    check(path, default_cases(), gen, |case| {
        let (m, skinny, k, n, seed, la, lb, ai, bi) = case;
        let m = [m, 1 + m % 3][skinny];
        let alpha = [1.0f32, 1.5, -0.75][ai];
        let beta = [0.0f32, 1.0, 0.5][bi];
        let layouts = [MatrixLayout::RowMajor, MatrixLayout::ColMajor];
        let mut rng = seeded_rng(seed);
        let a = uniform(Shape::d2(m, k), 2.0, &mut rng);
        let b = uniform(Shape::d2(k, n), 2.0, &mut rng);
        let c0 = uniform(Shape::d2(m, n), 1.0, &mut rng);
        let av = a.view_as(m, k, layouts[la]);
        let bv = b.view_as(k, n, layouts[lb]);

        let mut reference = c0.data().to_vec();
        gemm::gemm(alpha, av, bv, beta, &mut row_major(&mut reference, m, n)).unwrap();
        let reference = bits(&reference);

        let mut packed = c0.data().to_vec();
        gemm_packed(alpha, av, bv, beta, &mut row_major(&mut packed, m, n)).unwrap();
        assert_eq!(&bits(&packed), &reference, "packed vs naive");

        for ways in [1usize, 2, 4, 8] {
            let mut c = c0.data().to_vec();
            let mut cv = row_major(&mut c, m, n);
            gemm_packed_parallel(alpha, av, bv, beta, &mut cv, ways).unwrap();
            assert_eq!(&bits(&c), &reference, "packed ways={} vs naive", ways);
        }
        true
    });
}

/// Every available SIMD micro-kernel (scalar always; AVX2/NEON when
/// the host has them), at several KC/MC tilings and way counts, is
/// bit-identical to the naive kernel. The SIMD kernels use separate
/// multiply and add (never FMA), so each lane replays the scalar
/// kernel's exact IEEE operation sequence — this property is the
/// proof.
#[test]
fn simd_kernels_bit_identical_across_tiles() {
    let path = concat!(module_path!(), "::simd_kernels_bit_identical_across_tiles");
    let gen = |g: &mut Gen| {
        let (m, k) = (g.range(1usize..40), g.range(1usize..48));
        let (n, seed) = (g.range(1usize..40), g.range(0u64..200));
        (m, k, n, seed, g.range(0usize..3), g.range(0usize..3))
    };
    check(path, default_cases(), gen, |(m, k, n, seed, ai, bi)| {
        let alpha = [1.0f32, 1.5, -0.75][ai];
        let beta = [0.0f32, 1.0, 0.5][bi];
        let mut rng = seeded_rng(seed);
        let a = uniform(Shape::d2(m, k), 2.0, &mut rng);
        let b = uniform(Shape::d2(k, n), 2.0, &mut rng);
        let c0 = uniform(Shape::d2(m, n), 1.0, &mut rng);

        let mut reference = c0.data().to_vec();
        let (am, bm) = (a.as_mat(), b.as_mat());
        gemm::gemm(alpha, am, bm, beta, &mut row_major(&mut reference, m, n)).unwrap();
        let reference = bits(&reference);

        for kernel in available_micro_kernels() {
            for (kc, mc) in [(256usize, 128usize), (64, 32), (16, 8)] {
                for ways in [1usize, 3] {
                    let mut c = c0.data().to_vec();
                    let mut cv = row_major(&mut c, m, n);
                    gemm_packed_parallel_with(alpha, am, bm, beta, &mut cv, ways, kernel, kc, mc)
                        .unwrap();
                    let name = kernel.name();
                    assert_eq!(
                        bits(&c),
                        reference,
                        "kernel={name} kc={kc} mc={mc} ways={ways}"
                    );
                }
            }
        }
        true
    });
}

/// A large LSTM-shaped product (the kind the dispatch layer bands on the
/// pool) stays bit-identical across kernels — one deterministic
/// case big enough to cross every KC/MC boundary and the parallel
/// threshold.
#[test]
fn lstm_shaped_product_bit_identical() {
    let (m, k, n) = (64, 300, 272);
    let mut rng = echo_tensor::init::seeded_rng(42);
    let a = echo_tensor::init::uniform(Shape::d2(m, k), 1.0, &mut rng);
    let b = echo_tensor::init::uniform(Shape::d2(k, n), 1.0, &mut rng);
    let mut reference = vec![0.0f32; m * n];
    gemm::gemm(
        1.0,
        a.as_mat(),
        b.as_mat(),
        0.0,
        &mut MatViewMut::new(&mut reference, m, n, MatrixLayout::RowMajor),
    )
    .unwrap();
    for ways in [1usize, 3, 8] {
        let mut c = vec![0.0f32; m * n];
        gemm_packed_parallel(
            1.0,
            a.as_mat(),
            b.as_mat(),
            0.0,
            &mut MatViewMut::new(&mut c, m, n, MatrixLayout::RowMajor),
            ways,
        )
        .unwrap();
        assert_eq!(bits(&c), bits(&reference), "ways = {ways}");
    }
    // And every SIMD variant at the default tiling — a shape this large
    // crosses every KC/MC boundary, so edge-column/row handling is
    // exercised alongside the full-tile micro-kernel.
    for kernel in available_micro_kernels() {
        for ways in [1usize, 8] {
            let mut c = vec![0.0f32; m * n];
            gemm_packed_parallel_with(
                1.0,
                a.as_mat(),
                b.as_mat(),
                0.0,
                &mut MatViewMut::new(&mut c, m, n, MatrixLayout::RowMajor),
                ways,
                kernel,
                256,
                128,
            )
            .unwrap();
            assert_eq!(
                bits(&c),
                bits(&reference),
                "kernel = {} ways = {ways}",
                kernel.name()
            );
        }
    }
}
