//! Summary statistics over repeated measurements.

/// Median of a non-empty sample (mean of the two middle values for an
/// even count).
///
/// # Panics
///
/// On an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, so the spread printed here is the
/// spread a reader recomputes from the raw values. A single value is its
/// own quartiles.
///
/// # Panics
///
/// On an empty sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let s = sorted(xs);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Splits a time-ordered sample into `xs.len() / k` windows of
/// consecutive values (at least one; window sizes differ by at most one,
/// and every value falls in one) and returns each window's minimum.
///
/// Contention from other tenants of a shared host only ever adds time, in
/// bursts of a few seconds, so the fastest of a few neighbouring reps
/// estimates the uncontended time of that stretch of the run; a median
/// over the windows then keeps one lucky rep from setting the result.
///
/// # Panics
///
/// On an empty sample or `k == 0`.
pub fn window_minima(xs: &[f64], k: usize) -> Vec<f64> {
    assert!(!xs.is_empty() && k > 0, "windows of an empty sample");
    let n = xs.len();
    let windows = (n / k).max(1);
    (0..windows)
        .map(|i| {
            xs[i * n / windows..(i + 1) * n / windows]
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Median, quartiles and count of one metric over a run's reps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of values.
    pub n: usize,
}

impl Summary {
    /// Summarizes a non-empty sample.
    ///
    /// # Panics
    ///
    /// On an empty sample.
    pub fn of(xs: &[f64]) -> Summary {
        let (q1, q3) = quartiles(xs);
        Summary {
            median: median(xs),
            q1,
            q3,
            n: xs.len(),
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
