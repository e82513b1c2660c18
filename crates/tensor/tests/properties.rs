//! Property-based tests for the tensor crate's core invariants.

use echo_check::{check, default_cases, Gen};
use echo_tensor::init::{seeded_rng, uniform};
use echo_tensor::{gemm, kernels, MatView, MatViewMut, MatrixLayout, Shape, Tensor};

fn small_dims(g: &mut Gen) -> (usize, usize, usize) {
    (g.range(1usize..8), g.range(1usize..8), g.range(1usize..8))
}

fn values(g: &mut Gen, n: usize) -> Vec<f32> {
    g.vec(n..=n, |g| g.range(-10.0f32..10.0))
}

/// Three extents, each drawn from `1..hi`, then a seed.
fn dims_and_seed(g: &mut Gen, [a, b, c]: [usize; 3]) -> (usize, usize, usize, u64) {
    let mut dim = |hi| g.range(1..hi);
    (dim(a), dim(b), dim(c), g.range(0u64..500))
}

/// GEMM under any layout combination equals the triple-loop reference.
#[test]
fn gemm_layout_invariance() {
    let path = concat!(module_path!(), "::gemm_layout_invariance");
    let layout = |g: &mut Gen| g.range(0usize..2);
    let gen = |g: &mut Gen| {
        let (dims, seed) = (small_dims(g), g.range(0u64..1000));
        (dims, seed, layout(g), layout(g), layout(g))
    };
    check(path, default_cases(), gen, |(dims, seed, la, lb, lc)| {
        let (m, k, n) = dims;
        let layouts = [MatrixLayout::RowMajor, MatrixLayout::ColMajor];
        let mut rng = seeded_rng(seed);
        let a = uniform(Shape::d2(m, k), 2.0, &mut rng);
        let b = uniform(Shape::d2(k, n), 2.0, &mut rng);
        let av = a.view_as(m, k, layouts[la]);
        let bv = b.view_as(k, n, layouts[lb]);
        let (mut c1, mut c2) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
        let mut v1 = MatViewMut::new(&mut c1, m, n, layouts[lc]);
        gemm::gemm(1.0, av, bv, 0.0, &mut v1).unwrap();
        let mut v2 = MatViewMut::new(&mut c2, m, n, layouts[lc]);
        gemm::gemm_reference(1.0, av, bv, 0.0, &mut v2).unwrap();
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-3);
        }
        true
    });
}

/// The two fully-connected formulations (`Y = XWᵀ` and `Yᵀ = WXᵀ`)
/// compute the same mathematical result.
#[test]
fn fc_formulations_agree() {
    let path = concat!(module_path!(), "::fc_formulations_agree");
    let gen = |g: &mut Gen| dims_and_seed(g, [6, 6, 8]);
    check(path, default_cases(), gen, |(b, h, o, seed)| {
        let mut rng = seeded_rng(seed);
        let x = uniform(Shape::d2(b, h), 1.0, &mut rng);
        let w = uniform(Shape::d2(o, h), 1.0, &mut rng);
        let (mut y, mut yt) = (vec![0.0f32; b * o], vec![0.0f32; o * b]);
        let mut yv = MatViewMut::new(&mut y, b, o, MatrixLayout::RowMajor);
        gemm::fc_row_major(x.as_mat(), w.as_mat(), &mut yv).unwrap();
        // Column-major X: physically [H x B].
        let xt = x.transpose2().unwrap();
        let xv = MatView::new(xt.data(), b, h, MatrixLayout::ColMajor);
        let mut ytv = MatViewMut::new(&mut yt, o, b, MatrixLayout::RowMajor);
        gemm::fc_col_major(w.as_mat(), xv, &mut ytv).unwrap();
        for bi in 0..b {
            for oi in 0..o {
                assert!((y[bi * o + oi] - yt[oi * b + bi]).abs() < 1e-3);
            }
        }
        true
    });
}

/// Transposing a matrix view twice yields the identity.
#[test]
fn transpose_involution() {
    let path = concat!(module_path!(), "::transpose_involution");
    let gen = |g: &mut Gen| (g.range(1usize..10), g.range(1usize..10), values(g, 81));
    check(path, default_cases(), gen, |(r, c, data)| {
        if data.len() < r * c {
            return false;
        }
        let d = &data[..r * c];
        let v = MatView::new(d, r, c, MatrixLayout::RowMajor);
        let tt = v.t().t();
        for i in 0..r {
            for j in 0..c {
                assert_eq!(v.get(i, j), tt.get(i, j));
            }
        }
        true
    });
}

/// permute3 with the inverse permutation restores the original tensor.
#[test]
fn permute3_round_trip() {
    let path = concat!(module_path!(), "::permute3_round_trip");
    let gen = |g: &mut Gen| dims_and_seed(g, [5, 5, 5]);
    check(path, default_cases(), gen, |(a, b, c, seed)| {
        let mut rng = seeded_rng(seed);
        let t = uniform(Shape::d3(a, b, c), 1.0, &mut rng);
        let perms = [
            [0usize, 2, 1],
            [1, 0, 2],
            [2, 1, 0],
            [1, 2, 0],
            [2, 0, 1],
            [0, 1, 2],
        ];
        for perm in perms {
            let mut inv = [0usize; 3];
            for (out_axis, &in_axis) in perm.iter().enumerate() {
                inv[in_axis] = out_axis;
            }
            let p = t.permute3(perm).unwrap();
            let back = p.permute3(inv).unwrap();
            assert_eq!(&back, &t);
        }
        true
    });
}

/// Softmax outputs are a probability distribution per row.
#[test]
fn softmax_is_distribution() {
    let path = concat!(module_path!(), "::softmax_is_distribution");
    let gen = |g: &mut Gen| (g.range(1usize..5), g.range(1usize..8), g.range(0u64..500));
    check(path, default_cases(), gen, |(rows, cols, seed)| {
        let mut rng = seeded_rng(seed);
        let x = uniform(Shape::d2(rows, cols), 5.0, &mut rng);
        let y = kernels::softmax_rows(&x);
        for r in 0..rows {
            let row = &y.data()[r * cols..(r + 1) * cols];
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
        true
    });
}

/// Concat then slice along axis 0 returns the original tensors.
#[test]
fn concat_slice_round_trip() {
    let path = concat!(module_path!(), "::concat_slice_round_trip");
    let gen = |g: &mut Gen| dims_and_seed(g, [4, 4, 6]);
    check(path, default_cases(), gen, |(n0, n1, inner, seed)| {
        let mut rng = seeded_rng(seed);
        let a = uniform(Shape::d2(n0, inner), 1.0, &mut rng);
        let b = uniform(Shape::d2(n1, inner), 1.0, &mut rng);
        let cat = Tensor::concat_axis0(&[&a, &b]).unwrap();
        assert_eq!(cat.shape().dim(0), n0 + n1);
        for i in 0..n0 {
            let slice = cat.index_axis0(i).unwrap();
            assert_eq!(slice.data(), &a.data()[i * inner..(i + 1) * inner]);
        }
        for i in 0..n1 {
            let slice = cat.index_axis0(n0 + i).unwrap();
            assert_eq!(slice.data(), &b.data()[i * inner..(i + 1) * inner]);
        }
        true
    });
}

/// Gradient clipping never increases the global norm and is a no-op
/// below the threshold.
#[test]
fn clip_norm_contract() {
    let path = concat!(module_path!(), "::clip_norm_contract");
    let gen = |g: &mut Gen| (g.range(0u64..500), g.range(0.1f64..10.0));
    check(path, default_cases(), gen, |(seed, max_norm)| {
        let mut rng = seeded_rng(seed);
        let mut g1 = uniform(Shape::d1(16), 2.0, &mut rng);
        let mut g2 = uniform(Shape::d1(16), 2.0, &mut rng);
        let before = (g1.norm_l2().powi(2) + g2.norm_l2().powi(2)).sqrt();
        kernels::clip_global_norm(&mut [&mut g1, &mut g2], max_norm);
        let after = (g1.norm_l2().powi(2) + g2.norm_l2().powi(2)).sqrt();
        assert!(after <= max_norm.max(before) + 1e-4);
        if before <= max_norm {
            assert!((after - before).abs() < 1e-6);
        }
        true
    });
}
