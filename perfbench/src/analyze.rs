//! Replay of the analysis path: open a packed trace, then run the full
//! analysis battery on it.
//!
//! The mirror image of the ingest replay: `core` and `stats` do nearly
//! all the work and `records` only the `.hpct` open. The battery's
//! results are digested; the digest must equal the one computed off an
//! index built directly from the generated trace. The traced run of
//! `serve_mixed` replays it on the tenant's trace, the trace its cold
//! requests analyse.

use std::fmt::Debug;
use std::time::Instant;

use hpcfail_core::tbf::View;
use hpcfail_core::{
    availability, findings, lifetime, pernode, rates, repair, rootcause, tbf, workload,
};
use hpcfail_records::{checksum, Catalog, FailureTrace, RootCause, TraceIndex, TraceStore};
use hpcfail_stats::fit::fit_paper_set_prepared;
use hpcfail_stats::prepared::PreparedSample;

use crate::report::Layers;
use crate::tracer::Tracer;

/// A packed trace and the digest its battery must give.
pub struct Analyze {
    catalog: Catalog,
    packed: Vec<u8>,
    expect: u64,
    findings_held: usize,
    fit_values: usize,
}

/// What one pass of the battery produced.
struct Battery {
    /// Every result, in call order, formatted for the digest afterwards.
    results: Vec<Box<dyn Debug>>,
    /// Section-8 findings that hold (out of 7).
    findings_held: usize,
    /// Values fitted directly through `stats`.
    fit_values: usize,
}

impl Battery {
    /// Checksum of every result's `Debug` rendering.
    fn digest(&self) -> u64 {
        checksum(format!("{:?}", self.results).as_bytes())
    }
}

/// Run every analysis the battery holds off one index.
fn battery(index: &TraceIndex<'_>, catalog: &Catalog, tracer: &mut Tracer) -> Battery {
    let mut results: Vec<Box<dyn Debug>> = Vec::new();
    let systems = catalog.systems();

    let span = tracer.open("core.findings");
    let found = findings::evaluate_indexed(index, catalog);
    tracer.close(span);
    let findings_held = found
        .as_ref()
        .map_or(0, |f| f.findings.iter().filter(|f| f.holds).count());
    results.push(Box::new(found));

    let span = tracer.open("core.rates");
    results.push(Box::new(rates::analyze_indexed(index, catalog)));
    tracer.close(span);
    let span = tracer.open("core.availability");
    results.push(Box::new(availability::analyze_indexed(index, catalog)));
    tracer.close(span);
    let span = tracer.open("core.rootcause");
    results.push(Box::new(rootcause::analyze_indexed(index, catalog)));
    tracer.close(span);
    let span = tracer.open("core.repair");
    results.push(Box::new(repair::by_cause_indexed(index)));
    results.push(Box::new(repair::fit_all_repairs_indexed(index)));
    tracer.close(span);
    let span = tracer.open("core.tbf");
    for spec in systems {
        for view in [View::SystemWide(spec.id()), View::PooledNodes(spec.id())] {
            results.push(Box::new(tbf::analyze_indexed(index, view, None)));
        }
    }
    tracer.close(span);
    let span = tracer.open("core.pernode");
    for spec in systems {
        results.push(Box::new(pernode::analyze_indexed(
            index,
            catalog,
            spec.id(),
        )));
    }
    tracer.close(span);
    let span = tracer.open("core.lifetime");
    for spec in systems {
        results.push(Box::new(lifetime::analyze_indexed(index, spec)));
    }
    tracer.close(span);
    let span = tracer.open("core.workload");
    results.push(Box::new(workload::analyze_indexed(index, catalog)));
    tracer.close(span);

    // The paper-set fits straight through `stats`: each system's pooled
    // per-node gaps and each root cause's repair minutes.
    let samples = systems
        .iter()
        .map(|spec| index.system(spec.id()).per_node_interarrival_secs())
        .chain(
            RootCause::ALL
                .iter()
                .map(|&c| index.cause(c).downtimes_minutes()),
        );
    let mut fit_values = 0;
    for sample in samples {
        let positive: Vec<f64> = sample.into_iter().filter(|&x| x > 0.0).collect();
        fit_values += positive.len();
        let span = tracer.open("stats.prepare");
        let prepared = PreparedSample::from_vec(positive);
        tracer.close(span);
        let span = tracer.open("stats.fit");
        let fitted = prepared.map(|p| fit_paper_set_prepared(&p));
        tracer.close(span);
        results.push(Box::new(fitted));
    }

    Battery {
        results,
        findings_held,
        fit_values,
    }
}

impl Analyze {
    /// Pack `trace`, and digest the battery run on an index built
    /// directly from it (untraced).
    pub fn new(trace: &FailureTrace) -> Analyze {
        let catalog = Catalog::lanl();
        let index = TraceIndex::build(trace);
        let reference = battery(&index, &catalog, &mut Tracer::new(false, Instant::now()));
        Analyze {
            packed: TraceStore::to_bytes(&index),
            expect: reference.digest(),
            findings_held: reference.findings_held,
            fit_values: reference.fit_values,
            catalog,
        }
    }

    /// Open the packed trace and run the battery under a root span;
    /// whether the open succeeded and the digest matches.
    pub fn replay(&self, tracer: &mut Tracer) -> bool {
        let root = tracer.open("replay.analyze");
        let span = tracer.open("records.open");
        let opened = TraceStore::from_bytes(&self.packed).map(|loaded| loaded.into_parts());
        tracer.close(span);
        let digest = opened.ok().map(|(trace, parts)| {
            let span = tracer.open("records.open");
            let index = TraceIndex::from_parts(&trace, parts);
            tracer.close(span);
            battery(&index, &self.catalog, tracer).digest()
        });
        tracer.close(root);
        digest == Some(self.expect)
    }

    /// The battery's counts.
    pub fn layers(&self, layers: &mut Layers) {
        layers.set("core.findings_held", self.findings_held as f64);
        layers.set("stats.fit_values", self.fit_values as f64);
        layers.set(
            "exec.workers",
            hpcfail_exec::ParallelExecutor::from_env().workers() as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::report::Phase;

    #[test]
    fn a_wrong_expected_digest_counts_as_a_failed_operation() {
        let trace = hpcfail_synth::scenario::site_trace(42).unwrap();
        let mut w = Analyze::new(&trace);
        let mut tracer = Tracer::new(false, Instant::now());
        let mut checks = Phase::default();
        checks.count(w.replay(&mut tracer));
        assert_eq!((checks.attempted, checks.failed), (1, 0));

        w.expect ^= 1;
        checks.count(w.replay(&mut tracer));
        assert_eq!((checks.attempted, checks.failed), (2, 1));
    }
}
