//! Order statistics and interval arithmetic used by every workload.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it, so the value is always one that was
/// measured. 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First, second and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method)
/// does. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Share of the pool's capacity that did work: summed job busy time over
/// wall time times worker count.
pub fn utilization(busy_s: f64, wall_s: f64, workers: usize) -> f64 {
    if wall_s <= 0.0 || workers == 0 {
        return 0.0;
    }
    busy_s / (wall_s * workers as f64)
}

/// A closed-open time interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Start.
    pub start: Instant,
    /// End (not before `start`).
    pub end: Instant,
}

/// Seconds covered by the union of `intervals` clipped to `within`:
/// overlapping intervals (parallel workers) count once.
pub fn covered_s(within: Interval, intervals: &[Interval]) -> f64 {
    let mut clipped: Vec<(Instant, Instant)> = intervals
        .iter()
        .map(|i| (i.start.max(within.start), i.end.min(within.end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_by_key(|&(s, _)| s);
    let mut total = 0.0;
    let mut current: Option<(Instant, Instant)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += (ce - cs).as_secs_f64();
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += (ce - cs).as_secs_f64();
    }
    total
}

/// Self time of a span: its duration minus the part its children cover.
pub fn self_s(span: Interval, children: &[Interval]) -> f64 {
    (span.end - span.start).as_secs_f64() - covered_s(span, children)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn iv(base: Instant, from_ms: u64, to_ms: u64) -> Interval {
        Interval {
            start: base + Duration::from_millis(from_ms),
            end: base + Duration::from_millis(to_ms),
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        // 11 samples: rank ceil(9.9) = 10, one sample beyond.
        let w: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(percentile(&w, 90.0), 9.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn utilization_is_busy_over_capacity() {
        assert_eq!(utilization(3.0, 2.0, 2), 0.75);
        assert_eq!(utilization(1.0, 0.0, 2), 0.0);
    }

    #[test]
    fn overlapping_children_count_once() {
        let t = Instant::now();
        let parent = iv(t, 0, 100);
        // Two workers: [10, 60) and [40, 90) overlap on [40, 60).
        let kids = [iv(t, 10, 60), iv(t, 40, 90)];
        assert!((covered_s(parent, &kids) - 0.080).abs() < 1e-9);
        assert!((self_s(parent, &kids) - 0.020).abs() < 1e-9);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_gaps_kept() {
        let t = Instant::now();
        let parent = iv(t, 20, 100);
        let kids = [iv(t, 0, 30), iv(t, 50, 60), iv(t, 55, 58), iv(t, 90, 150)];
        // Covered inside the parent: [20,30) + [50,60) + [90,100) = 30 ms.
        assert!((covered_s(parent, &kids) - 0.030).abs() < 1e-9);
        assert!((self_s(parent, &kids) - 0.050).abs() < 1e-9);
        assert_eq!(covered_s(parent, &[]), 0.0);
    }
}
