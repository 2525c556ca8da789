//! Order statistics and the arithmetic of the closure check.

/// Nearest-rank percentile of `samples` (`0 < p ≤ 100`): the smallest
/// sample with at least `p`% of the samples at or below it. `None` for
/// an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Samples strictly above the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The percentiles a tail latency may be reported at, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.0, 95.0, 90.0, 75.0, 50.0, 0.0];

/// The highest percentile of [`TAIL_LADDER`], at most `want`, that has
/// at least ten samples beyond it among `n`; a percentile with fewer
/// samples beyond it is a single outlier, not a tail. Returns `0.0`
/// (the minimum) when even the median has fewer than ten beyond it, so
/// a caller can see the tail was not resolved.
pub fn tail_percentile(n: usize, want: f64) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= want)
        .find(|&p| p > 0.0 && samples_beyond(n, p) >= 10)
        .unwrap_or(0.0)
}

/// The tail of `samples` reported under the ten-samples-beyond rule:
/// `(percentile used, value)`. With too few samples to resolve any
/// tail it reports the maximum, labelled as percentile 100.
pub fn tail(samples: &[f64], want: f64) -> Option<(f64, f64)> {
    let p = tail_percentile(samples.len(), want);
    if p > 0.0 {
        Some((p, percentile(samples, p)?))
    } else {
        let max = samples.iter().copied().fold(f64::NAN, f64::max);
        (!samples.is_empty()).then_some((100.0, max))
    }
}

/// Median (average of the middle pair for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Smallest sample; `None` for an empty slice.
pub fn minimum(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().min_by(f64::total_cmp)
}

/// Σ over calls of each call's fastest sample: `samples[c]` holds the
/// timings of call `c` over every pass. `None` when a call has none.
pub fn sum_of_fastest(samples: &[Vec<f64>]) -> Option<f64> {
    samples.iter().map(|s| minimum(s)).sum()
}

/// Largest allowed gap between the sum of a solve's parts and its
/// wall-clock, as a share of the wall-clock.
pub const CLOSURE_TOLERANCE: f64 = 0.05;

/// How well a solve's parts add up to its traced wall-clock: the ratio
/// Σparts ÷ wall. A value outside `1 ± CLOSURE_TOLERANCE` means time
/// went somewhere the trace does not see (or was counted twice).
pub fn closure_ratio(parts_s: f64, wall_s: f64) -> f64 {
    if wall_s > 0.0 {
        parts_s / wall_s
    } else {
        f64::NAN
    }
}

/// Whether a closure ratio passes the check.
pub fn closure_ok(ratio: f64) -> bool {
    (ratio - 1.0).abs() <= CLOSURE_TOLERANCE
}

/// Length of `[lo, hi)` covered by the union of `intervals` clipped to
/// it — the part of a parent span its children account for, counting
/// overlapping children once.
pub fn covered(lo: f64, hi: f64, intervals: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = current {
        total += cb - ca;
    }
    total
}
