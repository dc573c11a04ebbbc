//! Order statistics used by every workload: medians, nearest-rank
//! percentiles, and the tail rule that decides which percentile a
//! sample set can honestly report.

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0 < q ≤ 100) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Percentiles a tail metric may fall back to, highest first.
const LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0, 0.0];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile at or below `want` that has at least
/// [`MIN_BEYOND`] samples beyond it, with its value. Returns the
/// percentile actually used, so the report can state it next to `n`.
/// With too few samples for even the median, falls back to the
/// maximum (`q = 100`): there is no tail to speak of.
pub fn tail_percentile(sorted: &[f64], want: f64) -> (f64, f64) {
    let n = sorted.len();
    for &q in LADDER.iter().filter(|&&q| q <= want && q > 0.0) {
        if n - rank(n, q) >= MIN_BEYOND {
            return (q, percentile_sorted(sorted, q));
        }
    }
    (100.0, sorted[n - 1])
}

/// Sort ascending (NaN-free inputs; infinities sort last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten beyond -> p99 is allowed.
        let (q, v) = tail_percentile(&ramp(1000), 99.0);
        assert_eq!((q, v), (99.0, 990.0));
        // 999 samples: rank 990 leaves only nine beyond -> fall back.
        let (q, v) = tail_percentile(&ramp(999), 99.0);
        assert_eq!(q, 98.0);
        assert_eq!(v, 980.0);
    }

    #[test]
    fn tail_rule_walks_down_the_ladder() {
        // 120 samples: p99 (rank 119, 1 beyond) and p98/p95 fail; p90
        // has rank 108 with 12 beyond.
        assert_eq!(tail_percentile(&ramp(120), 99.0), (90.0, 108.0));
        // 25 samples: only the median keeps ten beyond (rank 13, 12 beyond).
        assert_eq!(tail_percentile(&ramp(25), 99.0), (50.0, 13.0));
        // Too few for anything: report the maximum as q = 100.
        assert_eq!(tail_percentile(&ramp(5), 99.0), (100.0, 5.0));
    }

    #[test]
    fn tail_rule_never_exceeds_the_requested_percentile() {
        let (q, _) = tail_percentile(&ramp(100_000), 99.0);
        assert_eq!(q, 99.0);
    }

    #[test]
    fn failed_requests_sort_last_as_infinite_latency() {
        let mut v = ramp(1000);
        v[3] = f64::INFINITY;
        let s = sorted(v);
        assert_eq!(s[999], f64::INFINITY);
        assert_eq!(percentile_sorted(&s, 50.0), 501.0);
    }
}
