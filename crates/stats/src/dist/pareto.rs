//! The Pareto (type I) distribution — considered by the paper (footnote 1)
//! as a candidate for time between failures but "didn't find it to be a
//! better fit than any of the four standard distributions". It is also
//! used internally by the synthetic generator's heavy-tail repair mixture.

use super::{unit_open, Continuous};
use crate::error::StatsError;
use rand::Rng;

/// Pareto type-I distribution with minimum `x_m > 0` and tail index `α > 0`.
///
/// Density: `f(x) = α x_mᵅ / x^{α+1}` for `x ≥ x_m`.
///
/// ```
/// use hpcfail_stats::dist::{Pareto, Continuous};
/// let d = Pareto::new(1.0, 2.5)?;
/// assert_eq!(d.cdf(0.5), 0.0); // below the minimum
/// assert!(d.mean() > 1.0);
/// # Ok::<(), hpcfail_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Create a Pareto distribution with scale `x_min > 0` and shape
    /// `alpha > 0`.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] if either parameter is not finite
    /// and positive.
    pub fn new(x_min: f64, alpha: f64) -> Result<Self, StatsError> {
        if !x_min.is_finite() || x_min <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "x_min",
                value: x_min,
            });
        }
        if !alpha.is_finite() || alpha <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "alpha",
                value: alpha,
            });
        }
        Ok(Pareto { x_min, alpha })
    }

    /// The scale (minimum) parameter.
    pub fn x_min(&self) -> f64 {
        self.x_min
    }

    /// The tail index `α`. Mean exists only for `α > 1`, variance only for
    /// `α > 2`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Maximum-likelihood fit: `x̂_m = min(data)`,
    /// `α̂ = n / Σ ln(xᵢ / x̂_m)`.
    ///
    /// # Errors
    ///
    /// Requires strictly positive finite data; returns
    /// [`StatsError::DegenerateSample`] when all observations are equal
    /// (the log-sum is then zero and `α̂` undefined).
    pub fn fit_mle(data: &[f64]) -> Result<Self, StatsError> {
        super::check_positive(data, "pareto")?;
        let x_min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        Self::from_min_and_values(data, x_min)
    }

    /// Maximum-likelihood fit off a [`crate::prepared::PreparedSample`]:
    /// reads the cached minimum and takes one allocation-free pass over
    /// the cached values for the log-sum, keeping the result bit-identical
    /// to [`Pareto::fit_mle`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Pareto::fit_mle`].
    pub fn fit_prepared(sample: &crate::prepared::PreparedSample) -> Result<Self, StatsError> {
        sample.check_positive("pareto")?;
        Self::from_min_and_values(sample.values(), sample.min())
    }

    /// Shared MLE core: `α̂ = n / Σ ln(xᵢ / x̂_m)`.
    fn from_min_and_values(data: &[f64], x_min: f64) -> Result<Self, StatsError> {
        let log_sum: f64 = data.iter().map(|&x| (x / x_min).ln()).sum();
        if log_sum <= 0.0 {
            return Err(StatsError::DegenerateSample);
        }
        Pareto::new(x_min, data.len() as f64 / log_sum)
    }
}

impl Continuous for Pareto {
    fn name(&self) -> &'static str {
        "pareto"
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x < self.x_min {
            f64::NEG_INFINITY
        } else {
            self.alpha.ln() + self.alpha * self.x_min.ln() - (self.alpha + 1.0) * x.ln()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.x_min {
            0.0
        } else {
            1.0 - (self.x_min / x).powf(self.alpha)
        }
    }

    fn survival(&self, x: f64) -> f64 {
        if x <= self.x_min {
            1.0
        } else {
            (self.x_min / x).powf(self.alpha)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        if p == 1.0 {
            return f64::INFINITY;
        }
        self.x_min / (1.0 - p).powf(1.0 / self.alpha)
    }

    fn mean(&self) -> f64 {
        if self.alpha <= 1.0 {
            f64::INFINITY
        } else {
            self.alpha * self.x_min / (self.alpha - 1.0)
        }
    }

    fn variance(&self) -> f64 {
        if self.alpha <= 2.0 {
            f64::INFINITY
        } else {
            let a = self.alpha;
            self.x_min * self.x_min * a / ((a - 1.0) * (a - 1.0) * (a - 2.0))
        }
    }

    fn hazard(&self, x: f64) -> f64 {
        // h(x) = α/x for x ≥ x_m: always decreasing.
        if x < self.x_min {
            0.0
        } else {
            self.alpha / x
        }
    }

    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        let u = unit_open(rng);
        self.x_min / u.powf(1.0 / self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::sample_n;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Pareto::new(0.0, 1.0).is_err());
        assert!(Pareto::new(1.0, 0.0).is_err());
        assert!(Pareto::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn cdf_quantile_round_trip() {
        let d = Pareto::new(10.0, 1.5).unwrap();
        for &p in &[0.01, 0.3, 0.5, 0.9, 0.999] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-12);
        }
        assert_eq!(d.quantile(0.0), 10.0);
        assert_eq!(d.quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn moments_existence() {
        assert_eq!(Pareto::new(1.0, 0.9).unwrap().mean(), f64::INFINITY);
        assert_eq!(Pareto::new(1.0, 1.5).unwrap().variance(), f64::INFINITY);
        let d = Pareto::new(1.0, 3.0).unwrap();
        assert!((d.mean() - 1.5).abs() < 1e-12);
        assert!((d.variance() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn always_decreasing_hazard() {
        let d = Pareto::new(1.0, 2.0).unwrap();
        assert!(d.hazard(2.0) > d.hazard(4.0));
        assert!(d.hazard(4.0) > d.hazard(100.0));
        assert_eq!(d.hazard(0.5), 0.0);
    }

    #[test]
    fn mle_recovers_parameters() {
        let truth = Pareto::new(30.0, 2.2).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let data = sample_n(&truth, 20_000, &mut rng);
        let fit = Pareto::fit_mle(&data).unwrap();
        assert!((fit.alpha() - 2.2).abs() < 0.1, "alpha {}", fit.alpha());
        assert!(
            (fit.x_min() - 30.0).abs() / 30.0 < 0.01,
            "x_min {}",
            fit.x_min()
        );
    }

    #[test]
    fn mle_rejects_degenerate() {
        assert!(matches!(
            Pareto::fit_mle(&[5.0, 5.0, 5.0]),
            Err(StatsError::DegenerateSample)
        ));
        assert!(Pareto::fit_mle(&[]).is_err());
        assert!(Pareto::fit_mle(&[-1.0, 2.0]).is_err());
    }

    #[test]
    fn sampler_respects_minimum() {
        let d = Pareto::new(42.0, 1.1).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for x in sample_n(&d, 10_000, &mut rng) {
            assert!(x >= 42.0);
        }
    }
}
