//! The benchmark's arithmetic, kept apart from the workloads so that it
//! can be unit-tested without building a model.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` percent of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy of a sample (no NaNs: every value here is a duration
/// or a rate of a finished operation).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a timing sample"));
    v
}

/// Median as the nearest-rank 50th percentile.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// How many equal consecutive blocks a window is cut into (rule 4).
pub const BLOCKS: usize = 5;

/// Throughput of each of [`BLOCKS`] equal consecutive blocks of a
/// window. `ends[i]` is the wall time, in seconds from the window's
/// start, at which operation `i` finished, and `work[i]` the tokens it
/// delivered. Operations are assigned to blocks by index, so every block
/// holds the same number of operations (the remainder, if any, is
/// dropped from the rate but not from the latency sample).
pub fn block_rates(ends: &[f64], work: &[f64]) -> Vec<f64> {
    assert_eq!(ends.len(), work.len());
    let per = ends.len() / BLOCKS;
    assert!(
        per >= 1,
        "window of {} ops has no {BLOCKS} blocks",
        ends.len()
    );
    (0..BLOCKS)
        .map(|b| {
            let start = if b == 0 { 0.0 } else { ends[b * per - 1] };
            let tokens: f64 = work[b * per..(b + 1) * per].iter().sum();
            tokens / (ends[(b + 1) * per - 1] - start)
        })
        .collect()
}

/// `(max − min) ÷ median` of a set of block rates.
pub fn spread(rates: &[f64]) -> f64 {
    let s = sorted(rates);
    (s[s.len() - 1] - s[0]) / percentile(&s, 50.0)
}

/// Share of attempted operations that failed.
pub fn failure_share(attempted: u64, failed: u64) -> f64 {
    assert!(
        failed <= attempted,
        "{failed} failures of {attempted} attempts"
    );
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Distance between the first and third quartile as a share of the
/// median, by the exclusive method Python's `statistics.quantiles(v,
/// n=4)` uses — the spread the builder contract bounds.
pub fn iqr_share(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n >= 2, "quartiles need two values");
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    let med = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    (q(3) - q(1)) / med
}

/// How much worse `new` is than `old`, as a share of `old`, for a metric
/// where `lower_is_better` says which direction is worse. Negative when
/// `new` is better.
pub fn worsening(old: f64, new: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (new - old) / old
    } else {
        (old - new) / old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.1), 1.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        // An odd sample's median is its middle element.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn block_median_ignores_one_stalled_block() {
        // 10 ops of 2 tokens, one per second, except that block 3 stalls.
        let mut ends = Vec::new();
        let mut t = 0.0;
        for i in 0..10 {
            t += if i == 5 { 11.0 } else { 1.0 };
            ends.push(t);
        }
        let rates = block_rates(&ends, &[2.0; 10]);
        assert_eq!(rates.len(), BLOCKS);
        assert_eq!(rates[0], 2.0);
        assert!((rates[2] - 4.0 / 12.0).abs() < 1e-12);
        assert_eq!(median(&rates), 2.0);
        // The whole-window mean, by contrast, is dragged down.
        assert!(20.0 / t < 1.1);
        assert!((spread(&rates) - (2.0 - 4.0 / 12.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn block_rates_drop_the_remainder() {
        let ends: Vec<f64> = (1..=11).map(f64::from).collect();
        let rates = block_rates(&ends, &[1.0; 11]);
        assert_eq!(rates, vec![1.0; 5]);
    }

    #[test]
    fn median_of_r_set_ups() {
        // R = 5 with one cold outlier: the median is unmoved.
        assert_eq!(median(&[0.21, 0.20, 0.95, 0.19, 0.20]), 0.20);
        // R = 2 (quick mode) takes the lower of the two.
        assert_eq!(median(&[0.4, 0.2]), 0.2);
    }

    #[test]
    fn failure_share_arithmetic() {
        assert_eq!(failure_share(0, 0), 0.0);
        assert_eq!(failure_share(450, 0), 0.0);
        assert_eq!(failure_share(450, 9), 0.02);
    }

    #[test]
    #[should_panic(expected = "failures of")]
    fn more_failures_than_attempts_is_a_bug() {
        failure_share(3, 4);
    }

    #[test]
    fn iqr_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((iqr_share(&[16.0, 1.0, 4.0, 2.0, 8.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 92.0, false) - 0.08).abs() < 1e-12);
    }
}
