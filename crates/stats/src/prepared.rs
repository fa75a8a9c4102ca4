//! One-pass sufficient-statistics kernels shared by the fitting stack.
//!
//! The paper's methodology fits four candidate families to the *same*
//! sample, then ranks them by NLL and KS distance — and the extension
//! studies repeat that per system, per cause, and per bootstrap
//! replicate. Fitting each family from a raw slice re-scans and
//! re-transforms the data every time (Weibull, gamma and lognormal each
//! need `ln x`; the ECDF needs a sort; every validation re-walks the
//! slice). [`PreparedSample`] does all of that exactly once:
//!
//! * **one pass** over the data accumulates `Σx`, `Σx²`, `Σln x`,
//!   `Σ(ln x)²`, min/max, `max(ln x)` and the positivity flag, and fills
//!   the shared `ln x` vector;
//! * **one sort** (lazy, cached on first use) builds the shared sorted
//!   view that the ECDF, quantiles and KS statistics read.
//!
//! Everything downstream — the per-family `fit_prepared` constructors,
//! [`crate::dist::Continuous::nll_prepared`],
//! [`crate::fit::fit_candidates_prepared`] and the prepared bootstrap —
//! borrows these caches instead of recomputing them.
//!
//! **Bit-identity invariant.** All cached sums are accumulated in the
//! original data order with the same operation sequence the slice-based
//! fitters use, and `max(ln x)` is a running `f64::max` fold over the
//! same `ln` values (not `ln(max x)`, since `ln` is not guaranteed
//! monotone at the ULP level). Every fit, NLL and CI computed through a
//! `PreparedSample` is therefore bit-identical to its slice-path
//! counterpart — the property tests in `tests/proptests.rs` pin this.

use crate::error::StatsError;
use std::sync::OnceLock;

/// The cached sufficient statistics of one scan.
#[derive(Debug, Clone, Copy)]
struct Moments {
    sum: f64,
    sum_sq: f64,
    sum_log: f64,
    sum_log_sq: f64,
    min: f64,
    max: f64,
    max_log: f64,
    positive: bool,
}

/// A sample prepared for repeated fitting: owns the data, its `ln x`
/// transform, a lazily-built sorted view, and the cached sufficient
/// statistics every MLE in this crate needs.
///
/// Construction performs exactly one validation/accumulation pass (plus
/// one deferred sort on first use of [`PreparedSample::sorted`]).
/// Construction rejects empty and non-finite samples, so a
/// `PreparedSample` always holds at least one finite observation.
///
/// ```
/// use hpcfail_stats::prepared::PreparedSample;
/// use hpcfail_stats::dist::Weibull;
/// use hpcfail_stats::fit::fit_paper_set_prepared;
///
/// # fn main() -> Result<(), hpcfail_stats::StatsError> {
/// let sample = PreparedSample::new(&[3.0, 1.0, 4.0, 1.5, 9.0, 2.6])?;
/// // Fan several consumers off the same prepared view: no re-scans.
/// let report = fit_paper_set_prepared(&sample)?;
/// let shape = Weibull::fit_prepared(&sample)?.shape();
/// assert_eq!(report.n, sample.len());
/// assert!(shape > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PreparedSample {
    values: Vec<f64>,
    logs: Vec<f64>,
    sorted: OnceLock<Vec<f64>>,
    moments: Moments,
}

impl PreparedSample {
    /// Prepare a sample by copying `data` (one pass, no sort yet).
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptySample`] for empty input,
    /// [`StatsError::NonFinite`] if any observation is NaN or infinite.
    pub fn new(data: &[f64]) -> Result<Self, StatsError> {
        Self::from_vec(data.to_vec())
    }

    /// Prepare a sample taking ownership of `values`, avoiding the copy
    /// [`PreparedSample::new`] makes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedSample::new`].
    pub fn from_vec(values: Vec<f64>) -> Result<Self, StatsError> {
        let mut logs = Vec::new();
        let moments = scan(&values, &mut logs)?;
        Ok(PreparedSample {
            values,
            logs,
            sorted: OnceLock::new(),
            moments,
        })
    }

    /// Re-prepare this sample in place from freshly generated values,
    /// reusing the existing buffers — the allocation-free path the
    /// bootstrap hot loop uses. `f(i)` produces the `i`-th observation.
    ///
    /// Any cached sorted view is invalidated (its buffer is dropped;
    /// it is rebuilt lazily if needed again).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedSample::new`]. On error the sample
    /// contents are unspecified; refill again before further use.
    pub fn refill_with(
        &mut self,
        n: usize,
        mut f: impl FnMut(usize) -> f64,
    ) -> Result<(), StatsError> {
        self.values.clear();
        self.values.reserve(n);
        for i in 0..n {
            self.values.push(f(i));
        }
        self.moments = scan(&self.values, &mut self.logs)?;
        self.sorted.take();
        Ok(())
    }

    /// Number of observations (always at least 1).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always `false` — construction rejects empty samples. Provided for
    /// API completeness alongside [`PreparedSample::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The observations in their original order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The `ln x` transform of the observations in original order, or
    /// `None` if the sample is not strictly positive.
    pub fn logs(&self) -> Option<&[f64]> {
        self.moments.positive.then_some(self.logs.as_slice())
    }

    /// Sum of the observations `Σx`.
    pub fn sum(&self) -> f64 {
        self.moments.sum
    }

    /// Sum of squares `Σx²`.
    pub fn sum_sq(&self) -> f64 {
        self.moments.sum_sq
    }

    /// Sample mean `Σx / n`.
    pub fn mean(&self) -> f64 {
        self.moments.sum / self.values.len() as f64
    }

    /// `Σ ln x`, or `None` if the sample is not strictly positive.
    pub fn sum_log(&self) -> Option<f64> {
        self.moments.positive.then_some(self.moments.sum_log)
    }

    /// `Σ (ln x)²`, or `None` if the sample is not strictly positive.
    pub fn sum_log_sq(&self) -> Option<f64> {
        self.moments.positive.then_some(self.moments.sum_log_sq)
    }

    /// Mean of `ln x`, or `None` if the sample is not strictly positive.
    pub fn mean_log(&self) -> Option<f64> {
        self.moments
            .positive
            .then(|| self.moments.sum_log / self.values.len() as f64)
    }

    /// Largest `ln x`, or `None` if the sample is not strictly positive.
    /// Accumulated as a running fold over the computed `ln` values so it
    /// is bitwise equal to `logs.iter().fold(NEG_INFINITY, f64::max)`.
    pub fn max_log(&self) -> Option<f64> {
        self.moments.positive.then_some(self.moments.max_log)
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.moments.min
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.moments.max
    }

    /// Whether every observation is strictly positive — the support
    /// precondition of the Weibull/gamma/lognormal/exponential/Pareto
    /// fitters.
    pub fn is_positive(&self) -> bool {
        self.moments.positive
    }

    /// Whether all observations are equal (`min == max`) — the samples
    /// on which scale/shape fits are undefined.
    pub fn is_degenerate(&self) -> bool {
        self.moments.min == self.moments.max
    }

    /// O(1) positivity check mirroring the slice-path
    /// `check_positive` precondition of the positive-support fitters.
    ///
    /// # Errors
    ///
    /// [`StatsError::OutOfSupport`] naming `distribution` if any
    /// observation is not strictly positive.
    pub fn check_positive(&self, distribution: &'static str) -> Result<(), StatsError> {
        if self.moments.positive {
            Ok(())
        } else {
            Err(StatsError::OutOfSupport { distribution })
        }
    }

    /// The shared sorted view of the sample (ascending). Built on first
    /// use — the "one sort" of the one-pass/one-sort invariant — and
    /// cached for every later consumer (ECDF, quantiles, KS statistics).
    pub fn sorted(&self) -> &[f64] {
        self.sorted.get_or_init(|| {
            let mut sorted = self.values.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            sorted
        })
    }

    /// Empirical CDF `F̂(x)` evaluated on the shared sorted view.
    pub fn ecdf_eval(&self, x: f64) -> f64 {
        let sorted = self.sorted();
        sorted.partition_point(|&v| v <= x) as f64 / sorted.len() as f64
    }

    /// Empirical quantile (type-7) on the shared sorted view.
    pub fn quantile(&self, q: f64) -> f64 {
        crate::descriptive::quantile_sorted(self.sorted(), q)
    }

    /// A standalone [`crate::ecdf::Ecdf`] cloning the shared sorted view
    /// (no re-sort).
    pub fn to_ecdf(&self) -> crate::ecdf::Ecdf {
        crate::ecdf::Ecdf::from_sorted_unchecked(self.sorted().to_vec())
    }
}

/// The single validation/accumulation pass. Sums are accumulated in
/// data order (bit-identical to the slice fitters' `iter().sum()`);
/// `logs` is refilled in place. For samples that are not strictly
/// positive the log caches are poisoned to NaN and `logs` is cleared
/// (its `ln` values would be NaN/−∞ garbage).
fn scan(values: &[f64], logs: &mut Vec<f64>) -> Result<Moments, StatsError> {
    if values.is_empty() {
        return Err(StatsError::EmptySample);
    }
    logs.clear();
    logs.reserve(values.len());
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    let mut sum_log = 0.0;
    let mut sum_log_sq = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut max_log = f64::NEG_INFINITY;
    let mut positive = true;
    for &x in values {
        if !x.is_finite() {
            return Err(StatsError::NonFinite);
        }
        positive &= x > 0.0;
        min = min.min(x);
        max = max.max(x);
        sum += x;
        sum_sq += x * x;
        let l = x.ln();
        logs.push(l);
        sum_log += l;
        sum_log_sq += l * l;
        max_log = max_log.max(l);
    }
    if !positive {
        logs.clear();
        sum_log = f64::NAN;
        sum_log_sq = f64::NAN;
        max_log = f64::NAN;
    }
    Ok(Moments {
        sum,
        sum_sq,
        sum_log,
        sum_log_sq,
        min,
        max,
        max_log,
        positive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(
            PreparedSample::new(&[]),
            Err(StatsError::EmptySample)
        ));
        assert!(matches!(
            PreparedSample::new(&[1.0, f64::NAN]),
            Err(StatsError::NonFinite)
        ));
        assert!(matches!(
            PreparedSample::new(&[1.0, f64::INFINITY]),
            Err(StatsError::NonFinite)
        ));
    }

    #[test]
    fn sums_match_slice_arithmetic_bitwise() {
        let data = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 0.5];
        let ps = PreparedSample::new(&data).unwrap();
        assert_eq!(ps.sum().to_bits(), data.iter().sum::<f64>().to_bits());
        let sum_sq: f64 = data.iter().map(|x| x * x).sum();
        assert_eq!(ps.sum_sq().to_bits(), sum_sq.to_bits());
        let logs: Vec<f64> = data.iter().map(|x| x.ln()).collect();
        assert_eq!(
            ps.sum_log().unwrap().to_bits(),
            logs.iter().sum::<f64>().to_bits()
        );
        let max_log = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(ps.max_log().unwrap().to_bits(), max_log.to_bits());
        assert_eq!(ps.logs().unwrap(), logs.as_slice());
        assert_eq!(ps.min(), 0.5);
        assert_eq!(ps.max(), 9.0);
        assert!(ps.is_positive());
        assert!(!ps.is_degenerate());
    }

    #[test]
    fn nonpositive_sample_hides_log_caches() {
        let ps = PreparedSample::new(&[1.0, 0.0, 2.0]).unwrap();
        assert!(!ps.is_positive());
        assert!(ps.logs().is_none());
        assert!(ps.sum_log().is_none());
        assert!(ps.mean_log().is_none());
        assert!(ps.max_log().is_none());
        assert!(ps.check_positive("weibull").is_err());
        // The value-side caches still work.
        assert_eq!(ps.sum(), 3.0);
        assert_eq!(ps.min(), 0.0);
    }

    #[test]
    fn sorted_view_is_lazy_and_shared() {
        let ps = PreparedSample::new(&[3.0, 1.0, 2.0]).unwrap();
        let a = ps.sorted().as_ptr();
        let b = ps.sorted().as_ptr();
        assert_eq!(a, b, "sorted view must be cached, not rebuilt");
        assert_eq!(ps.sorted(), &[1.0, 2.0, 3.0]);
        assert_eq!(ps.quantile(0.5), 2.0);
        assert!((ps.ecdf_eval(1.0) - 1.0 / 3.0).abs() < 1e-15);
        let ecdf = ps.to_ecdf();
        assert_eq!(ecdf.sorted_values(), ps.sorted());
    }

    #[test]
    fn refill_reuses_buffers_and_invalidates_sort() {
        let mut ps = PreparedSample::new(&[5.0, 6.0, 7.0, 8.0]).unwrap();
        let _ = ps.sorted();
        ps.refill_with(3, |i| (i + 1) as f64).unwrap();
        assert_eq!(ps.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(ps.sum(), 6.0);
        assert_eq!(ps.sorted(), &[1.0, 2.0, 3.0]);
        // A refill that injects a non-finite value errors.
        assert!(ps.refill_with(2, |_| f64::NAN).is_err());
        assert!(ps.refill_with(0, |_| 1.0).is_err());
    }

    #[test]
    fn degenerate_detection_matches_all_equal() {
        let ps = PreparedSample::new(&[2.0, 2.0, 2.0]).unwrap();
        assert!(ps.is_degenerate());
        assert!(ps.is_positive());
    }
}
