//! Statistics for the paper's two predictability metrics: stability
//! (run-to-run repeatability) and scalability (tracking compute power).

use std::fmt;

/// Whether larger metric values are better (throughput) or worse
/// (runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Throughput-like metrics.
    HigherIsBetter,
    /// Runtime-like metrics.
    LowerIsBetter,
}

impl Direction {
    /// Converts a raw metric into "performance" (always
    /// higher-is-better): throughput stays, runtime inverts.
    pub fn performance(self, value: f64) -> f64 {
        match self {
            Direction::HigherIsBetter => value,
            Direction::LowerIsBetter => {
                if value > 0.0 {
                    1.0 / value
                } else {
                    f64::INFINITY
                }
            }
        }
    }
}

/// Summary statistics over repeated runs of one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Wraps raw per-run metric values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains non-finite entries.
    pub fn new(values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "need at least one sample");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "samples must be finite"
        );
        Samples { values }
    }

    /// The raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if there are no samples (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Sample standard deviation (n−1 denominator; 0 for a single run).
    pub fn std_dev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.values.iter().map(|v| (v - m).powi(2)).sum::<f64>()
            / (self.values.len() - 1) as f64;
        var.sqrt()
    }

    /// Coefficient of variation (σ/μ); 0 when the mean is 0.
    pub fn cov(&self) -> f64 {
        let m = self.mean();
        if m.abs() < f64::EPSILON {
            0.0
        } else {
            self.std_dev() / m.abs()
        }
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Max − min, as a fraction of the mean ("relative spread") — matches
    /// the visual error bars of the paper's figures.
    pub fn relative_spread(&self) -> f64 {
        let m = self.mean();
        if m.abs() < f64::EPSILON {
            0.0
        } else {
            (self.max() - self.min()) / m.abs()
        }
    }

    /// Linear-interpolated percentile, `p` in `[0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        if sorted.len() == 1 {
            return sorted[0];
        }
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

impl fmt::Display for Samples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} cov={:.2}%",
            self.len(),
            self.mean(),
            self.cov() * 100.0
        )
    }
}

/// Stability verdict for one configuration, from the coefficient of
/// variation over repeated runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stability {
    /// Repeated runs agree (CoV below the stable threshold).
    Stable,
    /// Noticeable variance (between the thresholds).
    Marginal,
    /// Run-to-run variance is large — the paper's "significant
    /// instability".
    Unstable,
}

impl Stability {
    /// CoV threshold below which runs count as stable (5%).
    pub const STABLE_COV: f64 = 0.05;
    /// CoV threshold at and above which runs count as unstable (15%).
    pub const UNSTABLE_COV: f64 = 0.15;

    /// Classifies a CoV against [`STABLE_COV`](Self::STABLE_COV) and
    /// [`UNSTABLE_COV`](Self::UNSTABLE_COV).
    pub fn from_cov(cov: f64) -> Stability {
        if cov < Self::STABLE_COV {
            Stability::Stable
        } else if cov < Self::UNSTABLE_COV {
            Stability::Marginal
        } else {
            Stability::Unstable
        }
    }
}

impl fmt::Display for Stability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stability::Stable => write!(f, "stable"),
            Stability::Marginal => write!(f, "marginal"),
            Stability::Unstable => write!(f, "UNSTABLE"),
        }
    }
}

/// Scalability verdict: does mean performance track total compute power
/// across configurations?
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scalability {
    /// Pearson correlation between per-config mean performance and
    /// compute power.
    pub correlation: f64,
    /// The worst ratio of achieved performance to the performance
    /// predicted by scaling the best configuration's
    /// performance-per-unit-power. 1.0 = perfectly proportional.
    pub worst_efficiency: f64,
}

impl Scalability {
    /// Computes scalability from `(compute_power, performance)` pairs.
    /// Performance must be higher-is-better (see
    /// [`Direction::performance`]).
    ///
    /// # Panics
    ///
    /// Panics with fewer than two points or non-positive performance.
    pub fn from_points(points: &[(f64, f64)]) -> Scalability {
        assert!(points.len() >= 2, "need at least two configurations");
        assert!(
            points.iter().all(|&(p, v)| p > 0.0 && v > 0.0),
            "power and performance must be positive"
        );
        let n = points.len() as f64;
        let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
        let my = points.iter().map(|p| p.1).sum::<f64>() / n;
        let cov = points
            .iter()
            .map(|&(x, y)| (x - mx) * (y - my))
            .sum::<f64>();
        let sx = points.iter().map(|&(x, _)| (x - mx).powi(2)).sum::<f64>();
        let sy = points.iter().map(|&(_, y)| (y - my).powi(2)).sum::<f64>();
        let correlation = if sx == 0.0 || sy == 0.0 {
            1.0
        } else {
            cov / (sx.sqrt() * sy.sqrt())
        };
        // Efficiency relative to the best performance-per-power point.
        let best_rate = points
            .iter()
            .map(|&(p, v)| v / p)
            .fold(f64::NEG_INFINITY, f64::max);
        let worst_efficiency = points
            .iter()
            .map(|&(p, v)| (v / p) / best_rate)
            .fold(f64::INFINITY, f64::min);
        Scalability {
            correlation,
            worst_efficiency,
        }
    }

    /// A workload "scales predictably" when performance correlates with
    /// power and no configuration falls below `min_efficiency` of
    /// proportional. The correlation bound tolerates the saturation knees
    /// real workloads have (latency-capped tops, feedback-throttled
    /// bottoms).
    pub fn is_predictable(&self, min_efficiency: f64) -> bool {
        self.correlation > 0.8 && self.worst_efficiency >= min_efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let s = Samples::new(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.138089935).abs() < 1e-6);
        assert!((s.cov() - 0.4276179870).abs() < 1e-6);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s = Samples::new(vec![3.5]);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.cov(), 0.0);
        assert_eq!(s.relative_spread(), 0.0);
        assert_eq!(s.percentile(90.0), 3.5);
    }

    #[test]
    fn percentiles_interpolate() {
        let s = Samples::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(50.0), 3.0);
        assert_eq!(s.percentile(100.0), 5.0);
        assert!((s.percentile(90.0) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn stability_thresholds() {
        assert_eq!(Stability::from_cov(0.001), Stability::Stable);
        assert_eq!(Stability::from_cov(0.08), Stability::Marginal);
        assert_eq!(Stability::from_cov(0.2), Stability::Unstable);
    }

    #[test]
    fn direction_performance() {
        assert_eq!(Direction::HigherIsBetter.performance(10.0), 10.0);
        assert_eq!(Direction::LowerIsBetter.performance(4.0), 0.25);
    }

    #[test]
    fn scalability_perfect_line() {
        let pts = [(4.0, 40.0), (2.0, 20.0), (1.0, 10.0), (0.5, 5.0)];
        let s = Scalability::from_points(&pts);
        assert!(s.correlation > 0.999);
        assert!((s.worst_efficiency - 1.0).abs() < 1e-9);
        assert!(s.is_predictable(0.8));
    }

    #[test]
    fn scalability_flags_cliff() {
        // 2.25-power config performing like a 0.5-power one (the SPEC OMP
        // static-loop cliff).
        let pts = [(4.0, 40.0), (2.25, 6.0), (0.5, 5.0)];
        let s = Scalability::from_points(&pts);
        assert!(s.worst_efficiency < 0.5);
        assert!(!s.is_predictable(0.6));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_rejected() {
        let _ = Samples::new(vec![]);
    }
}
