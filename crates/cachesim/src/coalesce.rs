//! Warp-level memory coalescing.
//!
//! NVIDIA GPUs service a warp's 32 lane addresses by merging them into
//! aligned 32-byte transactions; a fully coalesced warp load of consecutive
//! `f32`s needs 4 transactions, while a strided pattern can need up to 32.
//! The factor between those two extremes is precisely the "cache/memory
//! utilization" lever behind the paper's Figure 9.

use serde::{Deserialize, Serialize};

/// Size of one memory transaction segment in bytes (NVIDIA L2 sector).
pub const TRANSACTION_BYTES: u64 = 32;

/// Number of lanes in a warp.
pub const WARP_LANES: usize = 32;

/// Counters accumulated by a [`Coalescer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoalesceStats {
    /// Warp-level load/store instructions issued.
    pub requests: u64,
    /// 32-byte transactions generated after coalescing.
    pub transactions: u64,
    /// Lane accesses observed (≤ `requests * 32`; tail warps are partial).
    pub lanes: u64,
}

impl CoalesceStats {
    /// Efficiency in `[0, 1]`: ideal transaction count over actual.
    ///
    /// Overlapping lane addresses (broadcast reads) can need *fewer*
    /// transactions than the dense-packing ideal; such patterns are
    /// clamped to 1.0.
    pub fn efficiency(&self) -> f64 {
        if self.transactions == 0 {
            return 1.0;
        }
        // Ideal: every active lane's 4 bytes packed densely into 32-byte
        // segments.
        let ideal = (self.lanes * 4).div_ceil(TRANSACTION_BYTES);
        (ideal as f64 / self.transactions as f64).min(1.0)
    }
}

/// Merges warp lane addresses into aligned 32-byte transactions.
///
/// # Example
///
/// ```
/// use echo_cachesim::Coalescer;
///
/// let mut c = Coalescer::new();
/// // 32 consecutive f32 addresses: 4 bytes * 32 = 128 bytes = 4 transactions.
/// let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
/// let segments = c.warp_access(&addrs);
/// assert_eq!(segments.len(), 4);
///
/// // Stride-128 addresses: every lane lands in its own segment.
/// let strided: Vec<u64> = (0..32).map(|i| i * 128).collect();
/// assert_eq!(c.warp_access(&strided).len(), 32);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Coalescer {
    stats: CoalesceStats,
    scratch: Vec<u64>,
}

impl Coalescer {
    /// Creates a coalescer with zeroed statistics.
    pub fn new() -> Self {
        Coalescer::default()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CoalesceStats {
        &self.stats
    }

    /// Coalesces one warp's lane byte-addresses (each lane reads 4 bytes)
    /// and returns the distinct aligned segment base addresses.
    ///
    /// Fewer than 32 addresses models a partially-active warp.
    pub fn warp_access(&mut self, lane_addrs: &[u64]) -> Vec<u64> {
        debug_assert!(lane_addrs.len() <= WARP_LANES);
        self.stats.requests += 1;
        self.stats.lanes += lane_addrs.len() as u64;
        self.scratch.clear();
        for &a in lane_addrs {
            // Lane accesses 4 bytes which may straddle a segment boundary.
            let first = a / TRANSACTION_BYTES;
            let last = (a + 3) / TRANSACTION_BYTES;
            self.scratch.push(first);
            if last != first {
                self.scratch.push(last);
            }
        }
        self.scratch.sort_unstable();
        self.scratch.dedup();
        self.stats.transactions += self.scratch.len() as u64;
        self.scratch
            .iter()
            .map(|&s| s * TRANSACTION_BYTES)
            .collect()
    }

    /// Resets statistics.
    pub fn reset(&mut self) {
        self.stats = CoalesceStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_floats_fully_coalesce() {
        let mut c = Coalescer::new();
        let addrs: Vec<u64> = (0..32).map(|i| 1024 + i * 4).collect();
        assert_eq!(c.warp_access(&addrs).len(), 4);
        assert!((c.stats().efficiency() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn large_stride_fully_scatters() {
        let mut c = Coalescer::new();
        let addrs: Vec<u64> = (0..32).map(|i| i * 512).collect();
        assert_eq!(c.warp_access(&addrs).len(), 32);
        assert!(c.stats().efficiency() < 0.2);
    }

    #[test]
    fn moderate_stride_partial_coalescing() {
        let mut c = Coalescer::new();
        // Stride of 8 floats (32 bytes): one transaction per lane but
        // aligned — exactly 32 segments; stride of 2 floats: 8 segments.
        let stride2: Vec<u64> = (0..32).map(|i| i * 8).collect();
        assert_eq!(c.warp_access(&stride2).len(), 8);
    }

    #[test]
    fn straddling_access_touches_two_segments() {
        let mut c = Coalescer::new();
        // One lane reading 4 bytes at offset 30 crosses the 32-byte line.
        assert_eq!(c.warp_access(&[30]).len(), 2);
    }

    #[test]
    fn partial_warp_counts_lanes() {
        let mut c = Coalescer::new();
        c.warp_access(&[0, 4, 8, 12]);
        assert_eq!(c.stats().lanes, 4);
        assert_eq!(c.stats().requests, 1);
        assert_eq!(c.stats().transactions, 1);
    }

    #[test]
    fn duplicate_addresses_merge() {
        let mut c = Coalescer::new();
        let addrs = vec![0u64; 32]; // broadcast read
        assert_eq!(c.warp_access(&addrs).len(), 1);
    }
}
