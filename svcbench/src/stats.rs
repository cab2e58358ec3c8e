//! The harness's own arithmetic: percentiles that refuse to report a
//! tail they have not sampled, and ratios that always carry their base.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_FLOOR: usize = 10;

/// The nearest-rank `q`-quantile of `samples`, or `None` unless at least
/// [`TAIL_FLOOR`] samples lie strictly beyond it (a p99 needs 1000
/// samples, a p50 needs 20).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < TAIL_FLOOR {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of a handful of repeated measurements (rounds, set-ups) —
/// a summary of repeats, not a latency distribution, so no tail floor.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// A ratio together with its base: printing one always shows both the
/// numerator and the denominator, and an empty base has no value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator (the base).
    pub den: f64,
}

impl Ratio {
    /// `num / den`.
    pub fn new(num: f64, den: f64) -> Self {
        Self { num, den }
    }

    /// The quotient, or `None` when the base is empty.
    pub fn value(&self) -> Option<f64> {
        (self.den > 0.0 && self.num.is_finite()).then(|| self.num / self.den)
    }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.value() {
            Some(v) => write!(f, "{v:.6} ({} / {})", self.num, self.den),
            None => write!(f, "n/a ({} / {})", self.num, self.den),
        }
    }
}
