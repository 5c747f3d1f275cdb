//! Order statistics for the ledger: nearest-rank percentiles and the
//! rule for which percentile a sample count can support.

/// Sort ascending in place (the inputs are finite by construction).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` percent of the samples at or below it. `None` on
/// an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p).max(1) - 1])
}

/// Median of an unsorted slice (mean of the middle two when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples
/// (`p * n` first: it is exact for whole-number percentiles).
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).min(n)
}

/// The percentiles a timing may be reported at, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// A tail percentile needs this many samples beyond it to be worth
/// reporting.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`LADDER`] that still has at least
/// [`MIN_BEYOND`] of `n` samples beyond it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v[..1], 99.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 480 ticks: 24 beyond p95, 5 beyond p99 -> p95 is the tail
        assert_eq!(samples_beyond(480, 95.0), 24);
        assert_eq!(samples_beyond(480, 99.0), 4);
        assert_eq!(highest_supported_percentile(480), Some(95.0));
        // 27 000 reads: 270 beyond p99, 27 beyond p99.9
        assert_eq!(highest_supported_percentile(27_000), Some(99.9));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        // exactly ten beyond is enough, nine is not
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
    }
}
