//! The exponential distribution — the memoryless baseline that the paper
//! repeatedly shows to be a *poor* fit for both time-between-failures
//! (C² = 1 vs measured 1.9–3.9) and repair times.

use super::{unit_open, Continuous};
use crate::descriptive;
use crate::error::StatsError;
use rand::Rng;

/// Exponential distribution with rate `λ` (mean `1/λ`).
///
/// ```
/// use hpcfail_stats::dist::{Exponential, Continuous};
/// let d = Exponential::new(2.0)?;
/// assert!((d.mean() - 0.5).abs() < 1e-12);
/// assert!((d.c2() - 1.0).abs() < 1e-12); // hallmark of the exponential
/// # Ok::<(), hpcfail_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Create an exponential distribution with the given rate `λ > 0`.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] if `rate` is not finite and positive.
    pub fn new(rate: f64) -> Result<Self, StatsError> {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "rate",
                value: rate,
            });
        }
        Ok(Exponential { rate })
    }

    /// Create from the mean (`1/λ`).
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] if `mean` is not finite and positive.
    pub fn from_mean(mean: f64) -> Result<Self, StatsError> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "mean",
                value: mean,
            });
        }
        Self::new(1.0 / mean)
    }

    /// The rate parameter `λ`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Maximum-likelihood fit: `λ̂ = 1 / mean(data)`.
    ///
    /// # Errors
    ///
    /// Propagates sample validation errors; requires strictly positive data.
    pub fn fit_mle(data: &[f64]) -> Result<Self, StatsError> {
        super::check_positive(data, "exponential")?;
        Self::from_mean(descriptive::mean(data))
    }

    /// Maximum-likelihood fit off a [`crate::prepared::PreparedSample`]:
    /// O(1), reads the cached `Σx`. The cached sum accumulates in original
    /// data order, so the estimate is bit-identical to
    /// [`Exponential::fit_mle`] on the same data.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Exponential::fit_mle`].
    pub fn fit_prepared(sample: &crate::prepared::PreparedSample) -> Result<Self, StatsError> {
        sample.check_positive("exponential")?;
        Self::from_mean(sample.mean())
    }
}

impl Continuous for Exponential {
    fn name(&self) -> &'static str {
        "exponential"
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            f64::NEG_INFINITY
        } else {
            self.rate.ln() - self.rate * x
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-self.rate * x).exp_m1()
        }
    }

    fn survival(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            (-self.rate * x).exp()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        if p == 1.0 {
            return f64::INFINITY;
        }
        -(-p).ln_1p() / self.rate
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }

    fn hazard(&self, x: f64) -> f64 {
        // Memorylessness: constant hazard — the property the paper's data
        // falsifies for HPC failures.
        if x < 0.0 {
            0.0
        } else {
            self.rate
        }
    }

    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        let u = unit_open(rng);
        -u.ln() / self.rate
    }

    fn nll(&self, data: &[f64]) -> f64 {
        // `ln λ` is loop-invariant; hoisting it keeps each term's
        // operation order identical to `ln_pdf`, so the sum matches the
        // default implementation bit for bit.
        let ln_rate = self.rate.ln();
        -data
            .iter()
            .map(|&x| {
                if x < 0.0 {
                    f64::NEG_INFINITY
                } else {
                    ln_rate - self.rate * x
                }
            })
            .sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
        assert!(Exponential::from_mean(0.0).is_err());
    }

    #[test]
    fn pdf_cdf_known_values() {
        let d = Exponential::new(1.0).unwrap();
        assert!((d.pdf(0.0) - 1.0).abs() < 1e-12);
        assert!((d.cdf(1.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert_eq!(d.pdf(-1.0), 0.0);
        assert_eq!(d.cdf(-1.0), 0.0);
    }

    #[test]
    fn quantile_round_trip() {
        let d = Exponential::new(0.25).unwrap();
        for &p in &[0.001, 0.1, 0.5, 0.9, 0.999] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-10);
        }
        assert_eq!(d.quantile(1.0), f64::INFINITY);
        assert_eq!(d.quantile(0.0), 0.0);
        assert!(d.quantile(1.5).is_nan());
    }

    #[test]
    fn median_is_ln2_over_rate() {
        let d = Exponential::new(2.0).unwrap();
        assert!((d.quantile(0.5) - 2.0f64.ln() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn constant_hazard() {
        let d = Exponential::new(3.0).unwrap();
        assert_eq!(d.hazard(0.1), 3.0);
        assert_eq!(d.hazard(100.0), 3.0);
    }

    #[test]
    fn c2_is_one() {
        let d = Exponential::new(0.7).unwrap();
        assert!((d.c2() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mle_recovers_rate() {
        let d = Exponential::new(0.02).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let data = super::super::sample_n(&d, 20_000, &mut rng);
        let fit = Exponential::fit_mle(&data).unwrap();
        assert!(
            (fit.rate() - 0.02).abs() / 0.02 < 0.05,
            "fitted rate {} vs true 0.02",
            fit.rate()
        );
    }

    #[test]
    fn mle_rejects_nonpositive() {
        assert!(Exponential::fit_mle(&[1.0, 0.0]).is_err());
        assert!(Exponential::fit_mle(&[]).is_err());
    }

    #[test]
    fn sample_mean_matches() {
        let d = Exponential::from_mean(40.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let data = super::super::sample_n(&d, 50_000, &mut rng);
        let m = crate::descriptive::mean(&data);
        assert!((m - 40.0).abs() / 40.0 < 0.03, "sample mean {m}");
    }

    #[test]
    fn nll_prefers_true_parameter() {
        let d = Exponential::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let data = super::super::sample_n(&d, 5_000, &mut rng);
        let good = d.nll(&data);
        let bad = Exponential::new(5.0).unwrap().nll(&data);
        assert!(good < bad);
    }
}
