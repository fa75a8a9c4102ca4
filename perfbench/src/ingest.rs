//! Replay of the ingest path: lenient CSV ingest → quality audit →
//! index build → pack.
//!
//! The input is the CSV of a generated site trace, corrupted by a seeded
//! `Corruptor` at a fixed fault rate so the repair and quarantine paths
//! do real work. The `records` layer does nearly all of it. The traced
//! run of `serve_mixed` replays it on the tenant's trace.

use hpcfail_exec::derive_stream_seed;
use hpcfail_records::io::{is_header, read_csv_lenient};
use hpcfail_records::quality::{audit_with_catalog, IngestPolicy, LenientIngest, QualityReport};
use hpcfail_records::{Catalog, CorruptionPlan, Corruptor, FailureTrace, TraceIndex, TraceStore};

use crate::report::Layers;
use crate::tracer::Tracer;

/// Probability that a CSV row receives a fault.
const FAULT_RATE: f64 = 0.01;
/// Seed stream of the corruption plan, apart from the trace's.
const CORRUPT_STREAM: u64 = 0xC0DE;

/// What a correct ingest of the input produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    accepted: usize,
    quarantined: usize,
    repaired: usize,
    audit_issues: usize,
}

impl Counts {
    fn of(ingest: &LenientIngest, audit: &QualityReport) -> Counts {
        Counts {
            accepted: ingest.accepted(),
            quarantined: ingest.quarantine.len(),
            repaired: ingest.repaired.len(),
            audit_issues: audit.issue_count(),
        }
    }
}

/// The corrupted CSV of one trace, and what ingesting it must give.
pub struct Ingest {
    catalog: Catalog,
    csv: String,
    /// Data rows in `csv`, counted here rather than by the reader.
    rows: usize,
    /// The counts of the first ingest; later ones must match.
    expect: Option<Counts>,
}

/// What one ingest produced, as far as the checks look at it.
struct Outcome {
    counts: Counts,
    total_rows: usize,
    conserved: bool,
    /// `TraceStore::from_bytes` of the packed image gives back the
    /// ingested trace and the index built from it.
    round_trips: bool,
}

impl Ingest {
    /// Write `trace` as CSV and corrupt it with a plan seeded from `seed`.
    pub fn new(trace: &FailureTrace, seed: u64) -> Ingest {
        let plan = CorruptionPlan::new(derive_stream_seed(seed, CORRUPT_STREAM), FAULT_RATE);
        let csv = Corruptor::new(plan).corrupt_trace(trace);
        let rows = csv
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#') && !is_header(l))
            .count();
        Ingest {
            catalog: Catalog::lanl(),
            csv,
            rows,
            expect: None,
        }
    }

    /// One traced ingest under a root span; whether its output checks
    /// out. The first ingest sets the counts the later ones must match.
    pub fn replay(&mut self, tracer: &mut Tracer) -> bool {
        let root = tracer.open("replay.ingest");
        let outcome = self.ingest(tracer);
        tracer.close(root);
        let Some(o) = outcome else { return false };
        let expect = *self.expect.get_or_insert(o.counts);
        o.total_rows == self.rows && o.conserved && o.round_trips && o.counts == expect
    }

    /// `None` if the reader refused the input.
    fn ingest(&self, tracer: &mut Tracer) -> Option<Outcome> {
        let span = tracer.open("records.parse");
        let ingest = read_csv_lenient(self.csv.as_bytes(), IngestPolicy::Repair);
        tracer.close(span);
        let ingest = ingest.ok()?;
        let span = tracer.open("records.audit");
        let audit = audit_with_catalog(&ingest.trace, &self.catalog);
        tracer.close(span);
        let span = tracer.open("records.index_build");
        let index = TraceIndex::build(&ingest.trace);
        tracer.close(span);
        let span = tracer.open("records.pack");
        let packed = TraceStore::to_bytes(&index);
        tracer.close(span);

        let round_trips = TraceStore::from_bytes(&packed).is_ok_and(|loaded| {
            let (trace, parts) = loaded.into_parts();
            trace == ingest.trace && parts == index.to_parts()
        });
        Some(Outcome {
            counts: Counts::of(&ingest, &audit),
            total_rows: ingest.total_rows,
            conserved: ingest.is_conserved(),
            round_trips,
        })
    }

    /// The exact work counts of the ingest.
    pub fn layers(&self, layers: &mut Layers) {
        let Some(expect) = self.expect else { return };
        layers.set("records.audit_issues", expect.audit_issues as f64);
        layers.set("records.quarantined_rows", expect.quarantined as f64);
        layers.set("records.repaired_rows", expect.repaired as f64);
        layers.set(
            "records.csv_bytes_per_record",
            self.csv.len() as f64 / expect.accepted as f64,
        );
    }
}
