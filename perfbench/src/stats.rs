//! Order statistics over latency samples.

/// Percentiles `tail_ms` may report, highest first, in tenths of a
/// percent (999 is p99.9).
pub const TAIL_LADDER: [u32; 5] = [999, 990, 950, 900, 750];

/// Samples that must lie beyond a percentile before it may be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (the
/// "inclusive" method: `q = 0` is the minimum, `q = 1` the maximum).
/// `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spread printed here matches the one a Python checker computes.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let at = |j: f64| {
        // Position j/4 of (n + 1), clamped to the data like Python.
        let m = (n + 1.0) * j / 4.0;
        let k = (m.floor() as usize).clamp(1, sorted.len() - 1);
        let frac = m - k as f64;
        sorted[k - 1] + (sorted[k] - sorted[k - 1]) * frac
    };
    Some((at(1.0), at(3.0)))
}

/// The highest percentile of [`TAIL_LADDER`] (in tenths of a percent)
/// that leaves at least [`TAIL_MIN_BEYOND`] of `n` samples ranked above
/// it, or `None` when even the lowest rung has too few.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER.into_iter().find(|&p| {
        let at_or_below = (n * p as usize).div_ceil(1000);
        n - at_or_below >= TAIL_MIN_BEYOND
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn quantile_endpoints_are_min_and_max() {
        let v = [5.0, 1.0, 9.0, 3.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(9.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(750));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(199), Some(900));
        assert_eq!(tail_percentile(200), Some(950));
        assert_eq!(tail_percentile(999), Some(950));
        assert_eq!(tail_percentile(1000), Some(990));
        assert_eq!(tail_percentile(9_999), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
    }
}
