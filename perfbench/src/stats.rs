//! Order statistics for latency samples.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in `(0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let r = (p * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The highest percentile with at least [`TAIL_MIN_BEYOND`] samples beyond
/// it, for `n` samples.  `None` when there are too few samples for a tail.
pub fn tail_percentile_for(n: usize) -> Option<f64> {
    (n > TAIL_MIN_BEYOND).then(|| (n - TAIL_MIN_BEYOND) as f64 / n as f64)
}

/// The `p`-th percentile, provided at least [`TAIL_MIN_BEYOND`] samples lie
/// beyond it; a workload fixes `p` and this refuses a run too short for it.
pub fn tail_at(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || n - rank(n, p) < TAIL_MIN_BEYOND {
        return None;
    }
    percentile(samples, p)
}

/// Smallest sample count for which [`tail_at`] answers at percentile `p`.
pub fn min_samples_for_tail(p: f64) -> usize {
    (1..100_000)
        .find(|&n| n - rank(n, p) >= TAIL_MIN_BEYOND)
        .expect("a tail percentile below 1 is reachable")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).rev().collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(10);
        assert_eq!(median(&s), Some(5.0));
        assert_eq!(percentile(&s, 0.9), Some(9.0));
        assert_eq!(percentile(&s, 1.0), Some(10.0));
        assert_eq!(percentile(&s, 0.01), Some(1.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 40 samples: p75 is rank 30, leaving exactly 10 beyond.
        assert_eq!(tail_at(&ramp(40), 0.75), Some(30.0));
        // 39 samples: rank 30 leaves only 9 beyond, so no tail.
        assert_eq!(tail_at(&ramp(39), 0.75), None);
        assert_eq!(min_samples_for_tail(0.75), 40);
        assert_eq!(min_samples_for_tail(0.9), 100);
        assert_eq!(tail_at(&ramp(100), 0.9), Some(90.0));
        assert_eq!(tail_at(&ramp(99), 0.9), None);
    }

    #[test]
    fn highest_tail_percentile_for_a_count() {
        assert_eq!(tail_percentile_for(10), None);
        assert_eq!(tail_percentile_for(30), Some(20.0 / 30.0));
        let p = tail_percentile_for(30).unwrap();
        assert_eq!(tail_at(&ramp(30), p), Some(20.0));
    }
}
