//! Sample summaries: nearest-rank percentiles and the tail rule.

/// A set of samples of one quantity.
#[derive(Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// The samples in recording order (until a quantile sorts them).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank `q`-quantile (`0 < q <= 1`); NaN when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        self.sort();
        let n = self.values.len();
        if n == 0 {
            return f64::NAN;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.values[rank - 1]
    }

    pub fn p50(&mut self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// The highest of the usual tail percentiles that still has at least
    /// ten samples beyond it, as `(percentile, value)`; `None` with fewer
    /// than eleven samples.
    pub fn tail(&mut self) -> Option<(f64, f64)> {
        let n = self.values.len();
        for pct in [99.9, 99.0, 95.0, 90.0, 75.0, 50.0] {
            let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
            if n >= 11 && n - rank >= 10 {
                return Some((pct, self.quantile(pct / 100.0)));
            }
        }
        None
    }
}
