//! Summary statistics for timing samples.
//!
//! Timings are reported as a median and a *tail*: the highest percentile
//! that still has at least [`TAIL_BEYOND`] samples beyond it. For `n`
//! samples that is the `(TAIL_BEYOND + 1)`-th largest one, which sits at
//! percentile `100 · (n − TAIL_BEYOND) / n`. With too few samples for any
//! percentile to qualify, the tail falls back to the maximum.

/// Samples that must lie strictly above the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The median (mean of the two middle values for an even count); 0 for
/// no samples.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The tail value: the highest percentile with at least [`TAIL_BEYOND`]
/// samples beyond it, or the maximum when there are too few samples; 0
/// for no samples.
pub fn tail(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    match sorted.len() {
        0 => 0.0,
        n if n > TAIL_BEYOND => sorted[n - 1 - TAIL_BEYOND],
        n => sorted[n - 1],
    }
}

/// The percentile [`tail`] reports for `n` samples, or `None` when no
/// percentile has [`TAIL_BEYOND`] samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    (n > TAIL_BEYOND).then(|| 100.0 * (n - TAIL_BEYOND) as f64 / n as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
