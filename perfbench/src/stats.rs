//! Order statistics for the report: medians, the tail percentile rule
//! and sample-count bookkeeping.

/// Samples beyond the tail percentile: the tail is the highest
/// percentile that still has at least this many samples above it.
pub const TAIL_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The tail of a sample: the value with exactly [`TAIL_BEYOND`] samples
/// above it, and the percentile that value sits at. With fewer than
/// `TAIL_BEYOND + 1` samples there is no such percentile and the
/// maximum is returned at percentile 100.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Its percentile, `100 * (n - beyond) / n`.
    pub percentile: f64,
    /// Samples strictly above the tail position.
    pub beyond: usize,
    /// Sample count.
    pub count: usize,
}

/// Selects the [`Tail`] of `values`; `None` when empty.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let count = sorted.len();
    if count == 0 {
        return None;
    }
    let beyond = if count > TAIL_BEYOND { TAIL_BEYOND } else { 0 };
    let index = count - 1 - beyond;
    Some(Tail {
        value: sorted[index],
        percentile: 100.0 * (count - beyond) as f64 / count as f64,
        beyond,
        count,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// One line of the human-readable report: median, tail and max of a
/// sample with its count.
pub fn describe(name: &str, unit: &str, values: &[f64]) -> String {
    match (median(values), tail(values)) {
        (Some(p50), Some(t)) => format!(
            "  {name:<26} p50 {p50:>10.3} {unit:<3} p{:.1} {:>10.3} {unit:<3} max {:>10.3} {unit:<3} (n={}, {} beyond tail)",
            t.percentile,
            t.value,
            values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            t.count,
            t.beyond,
        ),
        _ => format!("  {name:<26} (no samples)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        let above = values.iter().filter(|&&v| v > t.value).count();
        assert_eq!(above, TAIL_BEYOND);

        // 1000 samples: the tail moves out to p99.
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!((t.value, t.percentile, t.count), (990.0, 99.0, 1000));
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((t.value, t.percentile, t.beyond), (3.0, 100.0, 0));
        let t = tail(&(0..11).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((t.value, t.beyond), (0.0, 10));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
