//! Access-trace generation for a block-tiled GEMM kernel schema.
//!
//! # Kernel schema
//!
//! We model the canonical shared-memory GEMM: the output `C [m x n]` is
//! covered by `TILE_M x TILE_N` block tiles; each block marches over the
//! reduction dimension in `TILE_K` steps, cooperatively staging an
//! `A`-subtile (`TILE_M x TILE_K`, scanned k-fastest) and a `B`-subtile
//! (`TILE_K x TILE_N`, scanned n-fastest) from global memory. Staging loads
//! are issued by 32-lane warps; the hardware coalescer merges lane addresses
//! into 32-byte transactions ([`crate::coalesce`]). Transactions then probe
//! a per-SM L1 and the chip-wide L2 ([`crate::cache`]); L2 misses cost DRAM
//! sector traffic.
//!
//! Whether a staging scan is contiguous — and therefore coalesces — depends
//! only on the operand's storage layout, which is exactly the paper's data
//! layout lever: in `Y = XWᵀ` the weight operand is scanned against its
//! storage order, while in `Yᵀ = WXᵀ` (with the `[T, H, B]` input layout)
//! every operand is scanned along its contiguous axis.
//!
//! Blocks are executed in waves of `concurrent_blocks` with their k-steps
//! round-robin interleaved, so L2 reuse between concurrently-running blocks
//! (e.g. every block re-reading the small `X` matrix) is captured.
//!
//! For very large problems the trace is *sampled*: only the first
//! `sample_block_limit` blocks are simulated and extensive counters are
//! scaled by the true block count. Cache hit *rates* are taken from the
//! sampled region.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::coalesce::{Coalescer, TRANSACTION_BYTES, WARP_LANES};
use serde::{Deserialize, Serialize};

/// Storage order of a GEMM operand.
///
/// This mirrors `echo_tensor::MatrixLayout` but lives here so the simulator
/// has no dependency on the tensor crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum MatLayout {
    /// Rows contiguous.
    #[default]
    RowMajor,
    /// Columns contiguous.
    ColMajor,
}

impl MatLayout {
    fn strides(self, rows: usize, cols: usize) -> (u64, u64) {
        match self {
            MatLayout::RowMajor => (cols as u64, 1),
            MatLayout::ColMajor => (1, rows as u64),
        }
    }
}

/// Output tile height.
pub const TILE_M: usize = 64;
/// Output tile width.
pub const TILE_N: usize = 64;
/// Reduction tile depth.
pub const TILE_K: usize = 16;

/// A GEMM problem (`C[m x n] = A[m x k] · B[k x n]`) plus the storage layout
/// of each operand, ready for trace simulation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TiledGemmSpec {
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Reduction depth.
    pub k: usize,
    /// Layout of `A [m x k]`.
    pub layout_a: MatLayout,
    /// Layout of `B [k x n]`.
    pub layout_b: MatLayout,
    /// Layout of `C [m x n]`.
    pub layout_c: MatLayout,
    /// How many blocks run concurrently (≈ number of SMs).
    pub concurrent_blocks: usize,
    /// Simulate at most this many blocks and extrapolate the rest.
    pub sample_block_limit: usize,
    /// Simulate at most this many k-steps per block and extrapolate the
    /// rest (bounds trace cost for very deep reductions).
    pub sample_k_limit: usize,
}

impl TiledGemmSpec {
    /// Creates a spec with all-row-major operands and default sampling.
    pub fn new(m: usize, n: usize, k: usize) -> Self {
        TiledGemmSpec {
            m,
            n,
            k,
            layout_a: MatLayout::RowMajor,
            layout_b: MatLayout::RowMajor,
            layout_c: MatLayout::RowMajor,
            concurrent_blocks: 30, // Titan Xp SM count
            sample_block_limit: 60,
            sample_k_limit: 24,
        }
    }

    /// The paper's row-major fully-connected layer `Y = XWᵀ` for input
    /// `X [batch x hidden]` (row-major) and weight `W [out x hidden]`
    /// (row-major): the `B` operand of the product is `Wᵀ`, whose storage is
    /// column-major, so its staging scan is strided.
    pub fn fc_row_major(batch: usize, hidden: usize, out: usize) -> Self {
        TiledGemmSpec {
            layout_b: MatLayout::ColMajor,
            ..TiledGemmSpec::new(batch, out, hidden)
        }
    }

    /// The paper's column-major fully-connected layer `Yᵀ = WXᵀ` with the
    /// EcoRNN `[T, H, B]` input layout: `Xᵀ [hidden x batch]` is physically
    /// row-major, so every operand is scanned along its contiguous axis.
    pub fn fc_col_major(batch: usize, hidden: usize, out: usize) -> Self {
        TiledGemmSpec::new(out, batch, hidden)
    }

    /// Total floating-point operations (2·m·n·k).
    pub fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }
}

/// Memory-system summary of one simulated GEMM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GemmMemReport {
    /// Warp-level load requests (scaled to the full problem).
    pub load_requests: u64,
    /// Coalesced 32-byte load transactions (scaled).
    pub load_transactions: u64,
    /// Coalesced 32-byte store transactions (scaled).
    pub store_transactions: u64,
    /// L1 statistics over the sampled region.
    pub l1: CacheStats,
    /// L2 statistics over the sampled region.
    pub l2: CacheStats,
    /// DRAM bytes read (scaled).
    pub dram_read_bytes: u64,
    /// DRAM bytes written (scaled).
    pub dram_write_bytes: u64,
    /// Floating-point operations of the full problem.
    pub flops: u64,
    /// Fraction of blocks actually simulated.
    pub sampled_fraction: f64,
}

impl GemmMemReport {
    /// L2 hit rate over the sampled region.
    pub fn l2_hit_rate(&self) -> f64 {
        self.l2.hit_rate()
    }

    /// Coalescing efficiency: ideal transactions over issued transactions.
    pub fn coalescing_efficiency(&self) -> f64 {
        let issued = self.load_transactions + self.store_transactions;
        if issued == 0 {
            return 1.0;
        }
        let lanes = self.load_requests * WARP_LANES as u64; // upper bound
        let ideal = (lanes * 4).div_ceil(TRANSACTION_BYTES);
        (ideal as f64 / issued as f64).min(1.0)
    }

    /// Total DRAM traffic.
    pub fn total_dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }
}

/// Per-SM L1 geometry (Pascal: 48 KiB, 128-byte lines).
fn l1_config() -> CacheConfig {
    CacheConfig {
        capacity_bytes: 48 * 1024,
        line_bytes: 128,
        ways: 4,
    }
}

struct BlockCursor {
    tile_row: usize,
    tile_col: usize,
    k_step: usize,
    l1: Cache,
    done: bool,
}

/// Simulates the access trace of `spec` against an L2 with geometry `l2`.
///
/// See the [module documentation](self) for the kernel schema. The result's
/// extensive counters (transactions, DRAM bytes) cover the whole problem
/// even when the trace was sampled.
pub fn simulate_gemm(spec: &TiledGemmSpec, l2_config: &CacheConfig) -> GemmMemReport {
    let elem = 4u64;
    let a_base = 0x1000_0000u64;
    let b_base = a_base + (spec.m * spec.k) as u64 * elem;
    let b_base = b_base.next_multiple_of(256);
    let c_base = b_base + (spec.k * spec.n) as u64 * elem;
    let c_base = c_base.next_multiple_of(256);

    let (ars, acs) = spec.layout_a.strides(spec.m, spec.k);
    let (brs, bcs) = spec.layout_b.strides(spec.k, spec.n);
    let (crs, ccs) = spec.layout_c.strides(spec.m, spec.n);

    let tiles_m = spec.m.div_ceil(TILE_M);
    let tiles_n = spec.n.div_ceil(TILE_N);
    let total_blocks = tiles_m * tiles_n;
    let simulated_blocks = total_blocks.min(spec.sample_block_limit.max(1));
    let k_steps = spec.k.div_ceil(TILE_K).max(1);
    let simulated_k_steps = k_steps.min(spec.sample_k_limit.max(1));

    let mut l2 = Cache::new(*l2_config);
    let mut coalescer = Coalescer::new();
    let mut l1_agg = CacheStats::default();
    let mut dram_read = 0u64;
    let mut dram_write = 0u64;
    let mut store_tx = 0u64;

    let mut lane_buf: Vec<u64> = Vec::with_capacity(WARP_LANES);

    // Issues one tile-staging scan: elements enumerated with `fast` varying
    // fastest, grouped into warps, coalesced, then sent through L1 + L2.
    let mut stage_tile = |coalescer: &mut Coalescer,
                          l1: &mut Cache,
                          l2: &mut Cache,
                          dram_read: &mut u64,
                          base: u64,
                          rs: u64,
                          cs: u64,
                          rows: std::ops::Range<usize>,
                          cols: std::ops::Range<usize>,
                          row_limit: usize,
                          col_limit: usize| {
        let mut lanes = 0usize;
        lane_buf.clear();
        let flush = |buf: &mut Vec<u64>,
                     coalescer: &mut Coalescer,
                     l1: &mut Cache,
                     l2: &mut Cache,
                     dram_read: &mut u64| {
            if buf.is_empty() {
                return;
            }
            for seg in coalescer.warp_access(buf) {
                if !l1.access(seg) && !l2.access(seg) {
                    *dram_read += u64::from(l2.config().line_bytes as u32);
                }
            }
            buf.clear();
        };
        for r in rows.clone() {
            if r >= row_limit {
                continue;
            }
            for c in cols.clone() {
                if c >= col_limit {
                    continue;
                }
                lane_buf.push(base + (r as u64 * rs + c as u64 * cs) * elem);
                lanes += 1;
                if lanes.is_multiple_of(WARP_LANES) {
                    flush(&mut lane_buf, coalescer, l1, l2, dram_read);
                }
            }
        }
        flush(&mut lane_buf, coalescer, l1, l2, dram_read);
    };

    // Wave execution: `concurrent_blocks` blocks progress in lockstep, one
    // k-step per round, sharing the L2.
    let mut block_ids: Vec<usize> = (0..simulated_blocks).collect();
    while !block_ids.is_empty() {
        let wave: Vec<usize> = block_ids
            .drain(..block_ids.len().min(spec.concurrent_blocks.max(1)))
            .collect();
        let mut cursors: Vec<BlockCursor> = wave
            .iter()
            .map(|&id| BlockCursor {
                tile_row: (id / tiles_n) * TILE_M,
                tile_col: (id % tiles_n) * TILE_N,
                k_step: 0,
                l1: Cache::new(l1_config()),
                done: false,
            })
            .collect();
        loop {
            let mut progressed = false;
            for cur in cursors.iter_mut() {
                if cur.done {
                    continue;
                }
                progressed = true;
                let k0 = cur.k_step * TILE_K;
                // A subtile: rows [tile_row, +TILE_M), k [k0, +TILE_K),
                // scanned k-fastest.
                stage_tile(
                    &mut coalescer,
                    &mut cur.l1,
                    &mut l2,
                    &mut dram_read,
                    a_base,
                    ars,
                    acs,
                    cur.tile_row..cur.tile_row + TILE_M,
                    k0..k0 + TILE_K,
                    spec.m,
                    spec.k,
                );
                // B subtile: k [k0, +TILE_K), cols [tile_col, +TILE_N),
                // scanned n-fastest.
                stage_tile(
                    &mut coalescer,
                    &mut cur.l1,
                    &mut l2,
                    &mut dram_read,
                    b_base,
                    brs,
                    bcs,
                    k0..k0 + TILE_K,
                    cur.tile_col..cur.tile_col + TILE_N,
                    spec.k,
                    spec.n,
                );
                cur.k_step += 1;
                if cur.k_step >= simulated_k_steps {
                    cur.done = true;
                    // Epilogue: write the C tile, n-fastest, streaming
                    // through the coalescer straight to DRAM sectors.
                    let mut lanes = Vec::with_capacity(WARP_LANES);
                    for r in cur.tile_row..(cur.tile_row + TILE_M).min(spec.m) {
                        for c in cur.tile_col..(cur.tile_col + TILE_N).min(spec.n) {
                            lanes.push(c_base + (r as u64 * crs + c as u64 * ccs) * elem);
                            if lanes.len() == WARP_LANES {
                                let segs = coalescer.warp_access(&lanes);
                                store_tx += segs.len() as u64;
                                dram_write += segs.len() as u64 * TRANSACTION_BYTES;
                                lanes.clear();
                            }
                        }
                    }
                    if !lanes.is_empty() {
                        let segs = coalescer.warp_access(&lanes);
                        store_tx += segs.len() as u64;
                        dram_write += segs.len() as u64 * TRANSACTION_BYTES;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        for cur in cursors {
            let s = cur.l1.stats();
            l1_agg.accesses += s.accesses;
            l1_agg.hits += s.hits;
            l1_agg.misses += s.misses;
            l1_agg.evictions += s.evictions;
        }
    }

    let scale = (total_blocks as f64 / simulated_blocks as f64)
        * (k_steps as f64 / simulated_k_steps as f64);
    let scale_u = |v: u64| -> u64 { (v as f64 * scale).round() as u64 };
    let block_scale = total_blocks as f64 / simulated_blocks as f64;
    let scale_blocks = |v: u64| -> u64 { (v as f64 * block_scale).round() as u64 };
    let cstats = *coalescer.stats();
    // Store transactions were counted inside `store_tx`; the coalescer's
    // `transactions` counter includes them, so derive load transactions by
    // subtraction.
    let load_tx = cstats.transactions - store_tx;
    let load_requests = cstats.requests; // includes store warps; close enough for efficiency metrics

    GemmMemReport {
        load_requests: scale_u(load_requests),
        load_transactions: scale_u(load_tx),
        store_transactions: scale_blocks(store_tx),
        l1: l1_agg,
        l2: *l2.stats(),
        dram_read_bytes: scale_u(dram_read),
        dram_write_bytes: scale_blocks(dram_write),
        flops: spec.flops(),
        sampled_fraction: 1.0 / scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2() -> CacheConfig {
        CacheConfig::titan_xp_l2()
    }

    #[test]
    fn all_row_major_is_fully_coalesced_on_b() {
        // A is scanned k-fastest: for row-major A that is contiguous; B is
        // scanned n-fastest: contiguous for row-major B.
        let spec = TiledGemmSpec::new(64, 256, 128);
        let r = simulate_gemm(&spec, &l2());
        assert!(
            r.coalescing_efficiency() > 0.9,
            "efficiency {}",
            r.coalescing_efficiency()
        );
    }

    #[test]
    fn lstm_shape_row_major_issues_more_transactions() {
        // Paper Figure 9(a): X [64 x 512], W [2048 x 512].
        let rm = simulate_gemm(&TiledGemmSpec::fc_row_major(64, 512, 2048), &l2());
        let cm = simulate_gemm(&TiledGemmSpec::fc_col_major(64, 512, 2048), &l2());
        assert!(
            rm.load_transactions > cm.load_transactions * 2,
            "row-major {} vs col-major {}",
            rm.load_transactions,
            cm.load_transactions
        );
        // Identical arithmetic.
        assert_eq!(rm.flops, cm.flops);
    }

    #[test]
    fn gru_shape_shows_same_direction() {
        // Paper Figure 9(b): W [3072 x 1024], X [64 x 1024].
        let rm = simulate_gemm(&TiledGemmSpec::fc_row_major(64, 1024, 3072), &l2());
        let cm = simulate_gemm(&TiledGemmSpec::fc_col_major(64, 1024, 3072), &l2());
        assert!(rm.load_transactions > cm.load_transactions);
    }

    #[test]
    fn dram_traffic_close_to_footprint_for_streaming() {
        // For a coalesced, non-reusing problem DRAM reads should be within a
        // small factor of the operand footprint.
        let spec = TiledGemmSpec::new(256, 256, 256);
        let r = simulate_gemm(&spec, &l2());
        let footprint = (3 * 256 * 256 * 4) as u64;
        assert!(r.total_dram_bytes() < footprint * 4);
        assert!(r.total_dram_bytes() > footprint / 4);
    }

    #[test]
    fn sampling_extrapolates_counts() {
        let mut big = TiledGemmSpec::new(2048, 2048, 64);
        big.sample_block_limit = 64;
        let sampled = simulate_gemm(&big, &l2());
        assert!(sampled.sampled_fraction < 1.0);
        let mut full = big.clone();
        full.sample_block_limit = usize::MAX;
        let exact = simulate_gemm(&full, &l2());
        let ratio = sampled.load_transactions as f64 / exact.load_transactions as f64;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn small_problem_single_block() {
        let spec = TiledGemmSpec::new(8, 8, 8);
        let r = simulate_gemm(&spec, &l2());
        assert_eq!(r.sampled_fraction, 1.0);
        assert!(r.load_requests > 0);
        assert!(r.dram_write_bytes >= (8 * 8 * 4) as u64);
    }
}
