//! Order statistics.

/// Nearest-rank quantile `q` of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `share` of `items` (at least one) with the lowest `noise(item)`,
/// such as the share of their own duration the host stole. The guest's
/// steal comes in bursts of seconds and moves every timing with it, the
/// tail most: a serve-hot epoch's p99 read 0.13 ms with no steal and
/// 1–3 ms with half its time stolen.
/// Returns their indices.
pub fn quietest<T>(items: &[T], share: f64, noise: impl Fn(&T) -> f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| noise(&items[a]).total_cmp(&noise(&items[b])));
    order.truncate(((items.len() as f64 * share).ceil() as usize).max(1));
    order
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Median of whole microseconds that a clock truncated, so each value
/// `v` stands for a time in `[v, v + 1)`: the grouped-data median
/// `v + (n/2 − below) / at`, where `v` is the class holding the middle,
/// `below` the values under it and `at` those equal to it. A plain
/// median of such values reads the same whole number run after run.
pub fn truncated_median(values: &[u64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    let mid = v[(v.len() - 1) / 2];
    let below = v.partition_point(|&x| x < mid);
    let at = v.partition_point(|&x| x <= mid) - below;
    mid as f64 + (v.len() as f64 / 2.0 - below as f64) / at as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_median_interpolates_within_a_class() {
        // Four values of 7 between one 5 and one 9: the middle lies at
        // (3 − 1) / 4 = 0.5 into the class [7, 8).
        assert_eq!(truncated_median(&[7, 9, 7, 5, 7, 7]), 7.5);
        assert_eq!(truncated_median(&[3]), 3.5);
    }
}
