//! Order statistics and the open-loop backlog detector.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of unsorted samples.
pub fn percentile<T: Copy + PartialOrd>(samples: &[T], p: f64) -> T {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are ordered"));
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Tolerance for p/100 not being exact in binary (99.9% of 10000).
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of `candidates` with at least [`MIN_BEYOND`] samples beyond
/// it, or `None` when even the lowest is unsupported.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are ordered"));
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Whether a queue sampled at equal intervals while `arrivals` requests
/// arrived is growing: the least-squares slope is positive and the mean
/// depth over the last third exceeds the mean over the first third by
/// more than half of it, more than a tenth of the arrivals and more than
/// two requests. A steady queue, even a long one near saturation,
/// wanders around a level; an overloaded one climbs by a fixed share of
/// the arrivals.
pub fn backlog_grows(depths: &[f64], arrivals: usize) -> bool {
    let n = depths.len();
    if n < 3 {
        return false;
    }
    let third = n / 3;
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let first = mean(&depths[..third]);
    let last = mean(&depths[n - third..]);
    let xm = (n - 1) as f64 / 2.0;
    let ym = mean(depths);
    let (mut num, mut den) = (0.0, 0.0);
    for (i, &y) in depths.iter().enumerate() {
        num += (i as f64 - xm) * (y - ym);
        den += (i as f64 - xm).powi(2);
    }
    let floor = (0.5 * first).max(0.1 * arrivals as f64).max(2.0);
    num / den > 0.0 && last - first > floor
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_helper_picks_highest_with_ten_beyond() {
        let tails = [50.0, 90.0, 99.0, 99.9];
        // 100 samples: 10 lie beyond p90, only 1 beyond p99.
        assert_eq!(highest_supported(100, &tails), Some(90.0));
        assert_eq!(highest_supported(99, &tails), Some(50.0));
        assert_eq!(highest_supported(1000, &tails), Some(99.0));
        assert_eq!(highest_supported(999, &tails), Some(90.0));
        assert_eq!(highest_supported(10_000, &tails), Some(99.9));
        assert_eq!(highest_supported(19, &tails), None);
        assert_eq!(highest_supported(0, &tails), None);
        assert_eq!(beyond(100, 90.0), 10);
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 100.0), 100);
    }

    #[test]
    fn backlog_detector_flags_growth_and_passes_steady() {
        // 140 arrivals, 40 of them left queued by the end.
        let growing: Vec<f64> = (0..10).map(|i| 4.0 * i as f64).collect();
        assert!(backlog_grows(&growing, 140));
        let steady = [5.0, 6.0, 4.0, 5.0, 7.0, 5.0, 4.0, 6.0, 5.0, 5.0];
        assert!(!backlog_grows(&steady, 140));
        let idle = [0.0; 10];
        assert!(!backlog_grows(&idle, 140));
        // A drain after a burst shrinks; it must not count as growth.
        let draining: Vec<f64> = (0..10).map(|i| 36.0 - 4.0 * i as f64).collect();
        assert!(!backlog_grows(&draining, 140));
        // A small jitter of one or two requests is not a backlog.
        let jitter = [0.0, 0.0, 1.0, 0.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0];
        assert!(!backlog_grows(&jitter, 140));
        // Near saturation a queue wanders by more than half its level;
        // against 1400 arrivals that is not sustained growth.
        let wander = [10.0, 25.0, 18.0, 30.0, 22.0, 35.0, 28.0, 40.0, 33.0, 38.0];
        assert!(!backlog_grows(&wander, 1400));
        assert!(backlog_grows(&wander, 100));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
