//! Order statistics owned by the benchmark, so that deleting the old bench
//! crate's helpers cannot move a reported number.

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank `ceil(p × N)`. `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Percentiles a tail may be reported at, ascending.
const TAIL_CANDIDATES: [f64; 6] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Whether `p` has at least [`MIN_BEYOND`] of `n` samples beyond its rank.
pub fn supported(n: usize, p: f64) -> bool {
    n >= (p * n as f64).ceil() as usize + MIN_BEYOND
}

/// The highest candidate percentile with at least ten samples beyond it,
/// and its value: `(p, value)`. `None` when not even the median qualifies.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .find(|&&p| supported(sorted.len(), p))
        .and_then(|&p| percentile(sorted, p).map(|v| (p, v)))
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the midpoint rule (what `statistics.median` gives).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method the acceptance rule is stated in).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the bounds are compared with. 0 for fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_oracle() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&s, 0.50), Some(20.0));
        assert_eq!(percentile(&s, 0.95), Some(40.0));
        assert_eq!(percentile(&s, 0.25), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(10.0));
        let s = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 0.30), Some(20.0));
        assert_eq!(percentile(&s, 0.50), Some(35.0));
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p95 of 200 is rank 190: exactly ten beyond. Of 199 it is rank
        // 190 too, with nine beyond.
        assert!(supported(200, 0.95));
        assert!(!supported(199, 0.95));
        assert!(supported(20, 0.50));
        assert!(!supported(19, 0.50));

        let s: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(
            tail(&s),
            Some((0.50, 13.0)),
            "25 samples carry a median only"
        );
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((0.99, 990.0)));
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&s), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }
}
