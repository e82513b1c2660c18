//! A small seeded property checker for this workspace's tests: [`check`]
//! draws every run of a property's cases from the same [`Gen`] stream, and
//! reports a failing case with its inputs verbatim (there is no shrinking).

use std::fmt::Debug;
use std::ops::Bound::{Excluded, Included};
use std::ops::RangeBounds;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The case generator: SplitMix64 seeded with the FNV-1a hash of a path.
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    pub fn new(path: &str) -> Gen {
        let fnv1a = |hash: u64, b: u8| (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        Gen(path.bytes().fold(0xcbf2_9ce4_8422_2325, fnv1a))
    }

    pub fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// Integers by modulo reduction of one `u64`, floats as `lo + f64 · (hi - lo)`.
    pub fn range<T: Draw>(&mut self, range: impl RangeBounds<T>) -> T {
        let (lo, hi, inclusive) = match (range.start_bound(), range.end_bound()) {
            (Included(&lo), Included(&hi)) => (lo, hi, true),
            (Included(&lo), Excluded(&hi)) => (lo, hi, false),
            _ => panic!("a range needs a start and an end"),
        };
        assert!(lo < hi || inclusive && lo <= hi, "empty range");
        T::draw(lo, hi, inclusive, self)
    }

    /// A vector whose length is drawn from `n` before its elements.
    pub fn vec<T>(&mut self, n: impl RangeBounds<usize>, f: impl Fn(&mut Gen) -> T) -> Vec<T> {
        (0..self.range(n)).map(|_| f(self)).collect()
    }
}

/// A number [`Gen::range`] can draw.
pub trait Draw: Copy + PartialOrd {
    fn draw(lo: Self, hi: Self, inclusive: bool, g: &mut Gen) -> Self;
}

macro_rules! draw {
    ($($t:ty),* => |$lo:ident, $hi:ident, $inclusive:ident, $g:ident| $body:expr) => {$(
        impl Draw for $t {
            fn draw($lo: $t, $hi: $t, $inclusive: bool, $g: &mut Gen) -> $t {
                $body
            }
        }
    )*};
}

draw!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8 => |lo, hi, inclusive, g| {
    let span = (hi as i128 - lo as i128 + inclusive as i128) as u128;
    (lo as i128 + (g.u64() as u128 % span) as i128) as Self
});
draw!(f32, f64 => |lo, hi, _inclusive, g| lo + g.f64() as Self * (hi - lo));

/// The case count of a property that sets none: `PROPTEST_CASES`, or 256.
pub fn default_cases() -> u32 {
    std::env::var("PROPTEST_CASES").map_or(256, |v| v.parse().unwrap_or(256))
}

/// Runs `prop` on cases drawn by `gen` from `Gen::new(path)` until `cases` of
/// them are accepted (`prop` returns `false` to reject one; more than `16 ×
/// cases` rejects, and at least 1024, fail). A failing case is re-drawn from
/// the state saved before it and reported with `path`, its index and inputs.
pub fn check<T: Debug>(
    path: &str,
    cases: u32,
    mut gen: impl FnMut(&mut Gen) -> T,
    mut prop: impl FnMut(T) -> bool,
) {
    let max_rejects = cases.saturating_mul(16).max(1024);
    let (mut g, mut accepted, mut rejected) = (Gen::new(path), 0, 0);
    while accepted < cases {
        assert!(rejected <= max_rejects, "{path}: {rejected} rejected cases");
        let mut before = g.clone();
        match catch_unwind(AssertUnwindSafe(|| prop(gen(&mut g)))) {
            Ok(true) => accepted += 1,
            Ok(false) => rejected += 1,
            Err(_) => panic!("{path}: case #{accepted} failed on {:?}", gen(&mut before)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let first = |path| Gen::new(path).u64();
        assert_eq!(first(""), 0xc3817c016ba4ff30);
        assert_eq!(first("properties::coalescer_bounds"), 0xd6963a6a45dc4785);
        let mut g = Gen::new("cross_properties::echo_is_always_safe");
        assert_eq!([g.u64(), g.u64()], [0x8521508dab95356d, 0x24dda17df0b10c9d]);
    }

    #[test]
    fn ranges_in_bounds() {
        let mut g = Gen::new("ranges");
        for _ in 0..2000 {
            assert!((3..17).contains(&g.range(3usize..17)) && g.range(0u64..=4) <= 4);
            assert!((-5..=5).contains(&g.range(-5i32..=5)) && g.range(-3i64..-2) == -3);
            assert!((0.5..8.0).contains(&g.range(0.5f32..8.0)));
            assert!((-1.0..=1.0).contains(&g.range(-1.0f64..=1.0)));
            assert_eq!(g.clone().range(0u64..=u64::MAX), g.u64());
        }
    }

    #[test]
    fn vectors_respect_length() {
        let (mut g, mut twin) = (Gen::new("vec"), Gen::new("vec"));
        let v = g.vec(2..=5, Gen::u64); // the length is drawn first
        let n = 2 + (twin.u64() % 4) as usize;
        assert_eq!(v, (0..n).map(|_| twin.u64()).collect::<Vec<_>>());
    }

    #[test]
    fn assume_filters() {
        let (mut seen, gen) = (Vec::new(), |g: &mut Gen| g.range(0usize..50));
        check("evens", 64, gen, |n| {
            seen.push(n);
            n % 2 == 0
        });
        assert!(seen.len() > 64 && seen.iter().filter(|&n| n % 2 == 0).count() == 64);
    }

    #[test]
    #[should_panic(expected = "never: 1025 rejected cases")]
    fn reject_cap_panics() {
        check("never", 4, Gen::u64, |_| false);
    }

    #[test]
    #[should_panic(expected = "tests::planted: case #1 failed on (19, true)")]
    fn failures_panic_with_inputs() {
        let gen = |g: &mut Gen| (g.range(10usize..20), g.bool());
        check(concat!(module_path!(), "::planted"), 64, gen, |(n, _)| {
            assert!(n < 15);
            true
        });
    }
}
