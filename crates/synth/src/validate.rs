//! Generator self-validation: regenerate a trace and check every
//! calibration target of DESIGN.md §4 against what actually came out.
//!
//! This is the honesty layer of the substitution argument — if the
//! generator drifts from the paper's reported statistics (through a
//! refactor or a recalibration), [`validate_site`] says exactly which
//! target broke.

use hpcfail_records::{Catalog, FailureTrace, RootCause};

use crate::config::Calibration;
use crate::error::SynthError;

/// One checked calibration target.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetCheck {
    /// What was checked (e.g. "system 7 annual rate").
    pub target: String,
    /// The configured/paper value.
    pub expected: f64,
    /// What the trace measured.
    pub measured: f64,
    /// Allowed relative deviation.
    pub tolerance: f64,
}

impl TargetCheck {
    /// Whether the measurement is within tolerance.
    pub fn passes(&self) -> bool {
        if !self.measured.is_finite() {
            return false;
        }
        (self.measured - self.expected).abs() <= self.tolerance * self.expected.abs()
    }
}

/// The full validation report.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Every checked target.
    pub checks: Vec<TargetCheck>,
}

impl ValidationReport {
    /// Targets that failed.
    pub fn failures(&self) -> Vec<&TargetCheck> {
        self.checks.iter().filter(|c| !c.passes()).collect()
    }

    /// Whether every target passed.
    pub fn all_pass(&self) -> bool {
        self.checks.iter().all(|c| c.passes())
    }
}

/// Validate a generated site trace against its calibration.
///
/// Checks per-system annual rates (25% tolerance — generation is
/// stochastic and the paper's rates are figure-read), the hardware-share
/// of the cause mix per system type (5 points absolute, expressed as
/// relative on the share), and the repair-time medians per cause against
/// Table 2 (35% tolerance — hardware-type scaling shifts the aggregate).
///
/// # Errors
///
/// [`SynthError::UnknownSystem`] if the trace references systems missing
/// from the calibration.
pub fn validate_site(
    trace: &FailureTrace,
    catalog: &Catalog,
    calibration: &Calibration,
) -> Result<ValidationReport, SynthError> {
    let mut checks = Vec::new();
    let index = trace.index();

    // Per-system annual failure rates.
    let counts = index.all().count_by_system();
    for (id, config) in calibration.iter() {
        let spec = catalog
            .system(id)
            .map_err(|_| SynthError::UnknownSystem { id: id.get() })?;
        let measured = counts.get(&id).copied().unwrap_or(0) as f64 / spec.production_years();
        // Clustered generation has per-system count variance ≈ 2.5n;
        // widen the band for systems expected to produce few events.
        let expected_events = config.annual_failures * spec.production_years();
        let tolerance = (0.25f64).max(3.0 * (2.5 / expected_events).sqrt());
        checks.push(TargetCheck {
            target: format!("system {id} failures/year"),
            expected: config.annual_failures,
            measured,
            tolerance,
        });
    }

    // Hardware share of the root-cause mix, per system.
    for (id, config) in calibration.iter() {
        let sub = index.system(id);
        if sub.len() < 200 {
            continue; // too little data for a mix check
        }
        let hw = sub
            .count_by_cause()
            .get(&RootCause::Hardware)
            .copied()
            .unwrap_or(0) as f64
            / sub.len() as f64;
        checks.push(TargetCheck {
            target: format!("system {id} hardware share"),
            expected: config.cause_mix.probability(RootCause::Hardware),
            measured: hw,
            tolerance: 0.15,
        });
    }

    // Table 2 repair medians per cause (site-wide, F-scale systems carry
    // weight; allow a generous band).
    for (cause, median, _) in crate::repair::TABLE2_TARGETS {
        let minutes = index.cause(cause).downtimes_minutes();
        if minutes.len() < 100 {
            continue;
        }
        checks.push(TargetCheck {
            target: format!("{cause} repair median (min)"),
            expected: median,
            measured: hpcfail_stats::descriptive::median(&minutes),
            tolerance: 0.35,
        });
    }

    Ok(ValidationReport { checks })
}

/// Convenience: generate with the LANL calibration and validate.
///
/// # Errors
///
/// Propagates generation/validation failures.
pub fn validate_lanl(seed: u64) -> Result<ValidationReport, SynthError> {
    let catalog = Catalog::lanl();
    let calibration = Calibration::lanl();
    let trace = crate::TraceGenerator::new(&catalog, &calibration)?.site_trace(seed)?;
    validate_site(&trace, &catalog, &calibration)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_records::SystemId;

    #[test]
    fn lanl_calibration_validates() {
        let report = validate_lanl(42).unwrap();
        assert!(report.checks.len() > 30, "checks: {}", report.checks.len());
        let failures = report.failures();
        assert!(
            failures.is_empty(),
            "calibration drifted: {:#?}",
            failures
                .iter()
                .map(|c| format!(
                    "{}: expected {:.1}, measured {:.1}",
                    c.target, c.expected, c.measured
                ))
                .collect::<Vec<_>>()
        );
        assert!(report.all_pass());
    }

    #[test]
    fn target_check_math() {
        let good = TargetCheck {
            target: "x".into(),
            expected: 100.0,
            measured: 110.0,
            tolerance: 0.25,
        };
        assert!(good.passes());
        let bad = TargetCheck {
            measured: 140.0,
            ..good.clone()
        };
        assert!(!bad.passes());
        let nan = TargetCheck {
            measured: f64::NAN,
            ..good
        };
        assert!(!nan.passes());
    }

    #[test]
    fn detects_a_broken_calibration() {
        // Claim system 7 should produce 10x its real rate: the check fails.
        let catalog = Catalog::lanl();
        let mut calibration = Calibration::lanl();
        let trace = crate::TraceGenerator::new(&catalog, &calibration)
            .unwrap()
            .site_trace(42)
            .unwrap();
        calibration
            .system_mut(SystemId::new(7))
            .unwrap()
            .annual_failures = 11_590.0;
        let report = validate_site(&trace, &catalog, &calibration).unwrap();
        assert!(!report.all_pass());
        assert!(report
            .failures()
            .iter()
            .any(|c| c.target.contains("system 7")));
    }
}
