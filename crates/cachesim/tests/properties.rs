//! Property tests for the cache and coalescing simulators.

use echo_cachesim::{simulate_gemm, Cache, CacheConfig, Coalescer, TiledGemmSpec};
use echo_check::{check, default_cases, Gen};

/// A warp of 32 f32 lane accesses always produces between 1 and 64
/// transactions (up to 2 per lane when straddling), and repeating the
/// same addresses is idempotent in count.
#[test]
fn coalescer_bounds() {
    let path = concat!(module_path!(), "::coalescer_bounds");
    let gen = |g: &mut Gen| g.vec(1..=32, |g| g.range(0u64..1_000_000));
    check(path, default_cases(), gen, |addrs| {
        let mut c = Coalescer::new();
        let n1 = c.warp_access(&addrs).len();
        assert!(n1 >= 1);
        assert!(n1 <= 2 * addrs.len());
        let n2 = c.warp_access(&addrs).len();
        assert_eq!(n1, n2);
        true
    });
}

/// Coalescer efficiency stays within [0, 1] for any address pattern.
fn coalescer_efficiency_is_normalized_at((stride, base, lanes): (u64, u64, usize)) -> bool {
    let mut c = Coalescer::new();
    let addrs: Vec<u64> = (0..lanes as u64).map(|i| base + i * stride).collect();
    c.warp_access(&addrs);
    let eff = c.stats().efficiency();
    assert!((0.0..=1.0 + 1e-9).contains(&eff), "eff {}", eff);
    true
}

#[test]
fn coalescer_efficiency_is_normalized() {
    let path = concat!(module_path!(), "::coalescer_efficiency_is_normalized");
    let gen = |g: &mut Gen| {
        let (stride, base) = (g.range(1u64..600), g.range(0u64..10_000));
        (stride, base, g.range(1usize..=32))
    };
    check(
        path,
        default_cases(),
        gen,
        coalescer_efficiency_is_normalized_at,
    );
}

/// A case that once failed in an earlier property-testing run, pinned.
#[test]
fn coalescer_efficiency_is_normalized_regression() {
    coalescer_efficiency_is_normalized_at((1, 0, 9));
}

/// Cache invariants: hits + misses = accesses; a second pass over a
/// working set within capacity is all hits.
#[test]
fn cache_counters_are_consistent() {
    let path = concat!(module_path!(), "::cache_counters_are_consistent");
    let gen = |g: &mut Gen| {
        let addrs = g.vec(1..200, |g| g.range(0u64..100_000));
        (addrs, g.range(1usize..8))
    };
    check(path, default_cases(), gen, |(addrs, ways)| {
        let mut cache = Cache::new(CacheConfig {
            capacity_bytes: 64 * 64 * ways,
            line_bytes: 64,
            ways,
        });
        for &a in &addrs {
            cache.access(a);
        }
        let s = *cache.stats();
        assert_eq!(s.hits + s.misses, s.accesses);
        assert_eq!(s.accesses, addrs.len() as u64);
        true
    });
}

/// Second pass over a small working set hits fully (true LRU, within
/// capacity).
#[test]
fn resident_set_hits_on_second_pass() {
    let path = concat!(module_path!(), "::resident_set_hits_on_second_pass");
    let gen = |g: &mut Gen| g.range(1usize..16);
    check(path, default_cases(), gen, |lines| {
        let mut cache = Cache::new(CacheConfig {
            capacity_bytes: 16 * 64 * 4,
            line_bytes: 64,
            ways: 4,
        });
        let addrs: Vec<u64> = (0..lines as u64).map(|i| i * 64).collect();
        for &a in &addrs {
            cache.access(a);
        }
        for &a in &addrs {
            assert!(cache.access(a));
        }
        true
    });
}

/// GEMM trace reports behave monotonically: more work → at least as
/// many transactions; flops are exact; DRAM traffic at least covers
/// the output write once.
#[test]
fn gemm_report_sanity() {
    let path = concat!(module_path!(), "::gemm_report_sanity");
    let dim = |g: &mut Gen| g.range(1usize..96);
    let gen = |g: &mut Gen| (dim(g), dim(g), dim(g));
    check(path, default_cases(), gen, |(m, n, k)| {
        let l2 = CacheConfig::titan_xp_l2();
        let small = simulate_gemm(&TiledGemmSpec::new(m, n, k), &l2);
        assert_eq!(small.flops, 2 * (m * n * k) as u64);
        assert!(small.dram_write_bytes >= (m * n * 4) as u64 / 2);
        let bigger = simulate_gemm(&TiledGemmSpec::new(m, n, k * 2), &l2);
        assert!(bigger.load_transactions >= small.load_transactions);
        true
    });
}

/// The row-major FC formulation never beats the column-major one in
/// load transactions for the paper's skewed shapes (H ≥ 4B).
#[test]
fn skewed_shapes_always_favor_col_major() {
    let path = concat!(module_path!(), "::skewed_shapes_always_favor_col_major");
    let gen = |g: &mut Gen| (g.range(1usize..3), g.range(2usize..8), g.range(2usize..6));
    check(path, default_cases(), gen, |(b, h_mult, o_mult)| {
        let batch = b * 32;
        let hidden = batch * h_mult;
        let out = hidden * o_mult;
        let l2 = CacheConfig::titan_xp_l2();
        let rm = simulate_gemm(&TiledGemmSpec::fc_row_major(batch, hidden, out), &l2);
        let cm = simulate_gemm(&TiledGemmSpec::fc_col_major(batch, hidden, out), &l2);
        assert!(
            rm.load_transactions >= cm.load_transactions,
            "B={batch} H={hidden} O={out}: rm {} < cm {}",
            rm.load_transactions,
            cm.load_transactions
        );
        true
    });
}
