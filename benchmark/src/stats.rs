//! Order statistics over latency samples.

/// The percentiles a tail is reported at, in basis points, highest
/// last.
const LADDER: [u64; 6] = [5000, 9000, 9500, 9900, 9990, 9999];

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// 1-based nearest rank of percentile `bp` (basis points) among `n`.
fn rank(bp: u64, n: usize) -> usize {
    ((bp * n as u64).div_ceil(10_000) as usize).clamp(1, n.max(1))
}

/// The highest percentile of [`LADDER`] (in percent) with at least
/// [`BEYOND`] of `n` samples beyond its nearest rank, or `None` when
/// not even the median has.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .find(|&&bp| n >= rank(bp, n) + BEYOND)
        .map(|&bp| bp as f64 / 100.0)
}

/// Nearest-rank percentile `p` (percent) of `sorted` (ascending,
/// non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank((p * 100.0).round() as u64, sorted.len()) - 1]
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of `values` (any order, non-empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latency summary of one run: sample count, median and p99.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub samples: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Samples beyond the p99 rank; the design and `nocd` workloads are
    /// sized for at least [`BEYOND`].
    pub beyond_p99: usize,
}

/// Summarises latencies in seconds (non-empty).
pub fn latency(mut secs: Vec<f64>) -> Latency {
    secs.sort_by(f64::total_cmp);
    let n = secs.len();
    Latency {
        samples: n,
        p50_ms: percentile(&secs, 50.0) * 1e3,
        p99_ms: percentile(&secs, 99.0) * 1e3,
        beyond_p99: n - rank(9900, n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(1001), Some(99.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        for n in 20..5000 {
            let p = tail_percentile(n).unwrap();
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let at = percentile(&sorted, p);
            let beyond = sorted.iter().filter(|&&x| x > at).count();
            assert!(beyond >= BEYOND, "n={n} p={p}");
            // The next rung up would leave fewer than ten beyond it.
            if let Some(next) = LADDER.iter().map(|&bp| bp as f64 / 100.0).find(|&q| q > p) {
                let at = percentile(&sorted, next);
                assert!(
                    sorted.iter().filter(|&&x| x > at).count() < BEYOND,
                    "n={n} p={next}"
                );
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        let l = latency(v.iter().map(|x| x / 1e3).collect());
        assert_eq!((l.samples, l.p50_ms, l.p99_ms), (1000, 500.0, 990.0));
        assert_eq!(l.beyond_p99, BEYOND);
        assert_eq!(latency(vec![0.5; 242]).beyond_p99, 2);
    }
}
