//! Change-point detection on monthly failure-rate series.
//!
//! Section 4 of the paper notes that on the first NUMA clusters the
//! fraction of unknown root causes "dropped to less than 10% within
//! 2 years", and Fig. 4 shows rate regimes changing as systems mature.
//! This module finds the single most likely mean-shift change point in a
//! monthly count series (binary segmentation, SSE criterion) so those
//! "when did the system settle?" questions can be answered from data.

use crate::error::AnalysisError;

/// A detected mean-shift change point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangePoint {
    /// Index of the first month of the second regime.
    pub month: usize,
    /// Mean of the series before the change.
    pub mean_before: f64,
    /// Mean of the series from the change onward.
    pub mean_after: f64,
    /// Fractional SSE reduction of the two-mean model over one mean
    /// (0 = no improvement, → 1 = perfect split).
    pub strength: f64,
}

impl ChangePoint {
    /// Ratio of the regime means (after / before).
    pub fn level_shift(&self) -> f64 {
        if self.mean_before == 0.0 {
            f64::INFINITY
        } else {
            self.mean_after / self.mean_before
        }
    }
}

/// Find the single best mean-shift change point of a series.
///
/// Every split index `k` (with at least `min_segment` points on each
/// side) is scored by the summed squared error of the two-segment
/// constant model; the best split is returned with its SSE-reduction
/// strength.
///
/// # Errors
///
/// [`AnalysisError::InsufficientData`] when the series is shorter than
/// `2 × min_segment`; [`AnalysisError::Stats`] for a `min_segment` of 0.
pub fn detect(series: &[u64], min_segment: usize) -> Result<ChangePoint, AnalysisError> {
    if min_segment == 0 {
        return Err(AnalysisError::Stats(
            hpcfail_stats::StatsError::InvalidParameter {
                name: "min_segment",
                value: 0.0,
            },
        ));
    }
    if series.len() < 2 * min_segment {
        return Err(AnalysisError::InsufficientData {
            what: "change-point detection",
            needed: 2 * min_segment,
            got: series.len(),
        });
    }
    let as_f: Vec<f64> = series.iter().map(|&c| c as f64).collect();
    let n = as_f.len();
    // Prefix sums for O(1) segment SSE.
    let mut sum = vec![0.0f64; n + 1];
    let mut sumsq = vec![0.0f64; n + 1];
    for (i, &v) in as_f.iter().enumerate() {
        sum[i + 1] = sum[i] + v;
        sumsq[i + 1] = sumsq[i] + v * v;
    }
    let sse = |a: usize, b: usize| -> f64 {
        // SSE of series[a..b] around its mean.
        let len = (b - a) as f64;
        let s = sum[b] - sum[a];
        (sumsq[b] - sumsq[a]) - s * s / len
    };
    let total_sse = sse(0, n);
    let mut best_k = min_segment;
    let mut best_sse = f64::INFINITY;
    for k in min_segment..=(n - min_segment) {
        let split = sse(0, k) + sse(k, n);
        if split < best_sse {
            best_sse = split;
            best_k = k;
        }
    }
    let mean_before = (sum[best_k] - sum[0]) / best_k as f64;
    let mean_after = (sum[n] - sum[best_k]) / (n - best_k) as f64;
    let strength = if total_sse > 0.0 {
        1.0 - best_sse / total_sse
    } else {
        0.0
    };
    Ok(ChangePoint {
        month: best_k,
        mean_before,
        mean_after,
        strength,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_records::{Catalog, SystemId};

    #[test]
    fn validation() {
        assert!(detect(&[1, 2, 3], 2).is_err());
        assert!(detect(&[1, 2, 3, 4], 0).is_err());
    }

    #[test]
    fn clean_step_detected_exactly() {
        let series: Vec<u64> = std::iter::repeat_n(100, 12)
            .chain(std::iter::repeat_n(20, 12))
            .collect();
        let cp = detect(&series, 3).unwrap();
        assert_eq!(cp.month, 12);
        assert!((cp.mean_before - 100.0).abs() < 1e-9);
        assert!((cp.mean_after - 20.0).abs() < 1e-9);
        assert!(cp.strength > 0.99);
        assert!((cp.level_shift() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn flat_series_has_weak_change_point() {
        let series = vec![50u64; 24];
        let cp = detect(&series, 3).unwrap();
        assert!(cp.strength < 1e-9, "strength {}", cp.strength);
    }

    #[test]
    fn noisy_step_found_approximately() {
        let series: Vec<u64> = (0..40)
            .map(|m| {
                let base = if m < 18 { 90 } else { 30 };
                base + (m * 7 % 11) as u64
            })
            .collect();
        let cp = detect(&series, 4).unwrap();
        assert!((16..=20).contains(&cp.month), "month {}", cp.month);
        assert!(cp.strength > 0.6);
    }

    #[test]
    fn early_drop_system_settles_in_first_year() {
        // System 5's Fig 4(a) curve: the detected change point separates
        // the infant-failure regime from the steady state and the level
        // drops substantially.
        let catalog = Catalog::lanl();
        let spec = catalog.system(SystemId::new(5)).unwrap();
        let trace = hpcfail_synth::scenario::system_trace(SystemId::new(5), 42).unwrap();
        let curve = crate::lifetime::analyze_indexed(&trace.index(), spec).unwrap();
        let cp = detect(&curve.monthly_totals(), 3).unwrap();
        assert!(
            cp.month <= 15,
            "settles within ~a year; got month {}",
            cp.month
        );
        assert!(cp.level_shift() < 0.7, "rate drops: {}", cp.level_shift());
    }

    #[test]
    fn ramp_system_changes_late() {
        // System 19's ramp: the strongest single mean shift is the end of
        // the high-rate middle era, well past the first year.
        let catalog = Catalog::lanl();
        let spec = catalog.system(SystemId::new(19)).unwrap();
        let trace = hpcfail_synth::scenario::system_trace(SystemId::new(19), 42).unwrap();
        let curve = crate::lifetime::analyze_indexed(&trace.index(), spec).unwrap();
        let cp = detect(&curve.monthly_totals(), 3).unwrap();
        assert!(cp.month >= 12, "late change; got month {}", cp.month);
    }
}
