//! Benchmarks of the `TraceIndex`/`TraceView` query layer against the
//! pre-index clone-based query paths, on synthetic traces of 1e5 and 1e6
//! records.
//!
//! The `legacy` module freezes the exact algorithms the repo shipped
//! before the index existed (from the pre-index
//! `crates/records/src/trace.rs`), expressed through a private
//! scan-and-copy `filter` that stands in for the owned
//! `FailureTrace::filter` those paths used:
//!
//! * per-node TBF extraction = one full-trace `filter` clone per node,
//! * pooled per-node gaps = system clone + `BTreeMap` last-seen walk,
//! * repair minutes by cause = one full-trace clone per root cause,
//! * window = linear predicate scan, merge = extend-then-resort.
//!
//! Each group pits the frozen baseline against the borrowed-view path so
//! regressions in either direction are visible. Results are recorded in
//! `experiments/BENCH_trace.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpcfail_records::io::{read_csv, write_csv};
use hpcfail_records::{
    DetailedCause, FailureRecord, FailureTrace, NodeId, RootCause, SystemId, Timestamp, TraceIndex,
    TraceStore, Workload,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

const SYSTEMS: u32 = 4;
const NODES: u32 = 64;
const SIZES: [usize; 2] = [100_000, 1_000_000];
/// Store-vs-rebuild sizes: the `.hpct` open path must stay proportional
/// to I/O all the way to 1e7.
const STORE_SIZES: [usize; 3] = [100_000, 1_000_000, 10_000_000];
const SPAN_SECS: u64 = 300_000_000;

/// Uniform synthetic trace: n records spread over ~9.5 years across
/// `SYSTEMS` systems of `NODES` nodes each. Shape does not matter for
/// these benches — only size and cardinalities do.
fn synth_trace(n: usize, seed: u64) -> FailureTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Timestamp::from_secs(rng.random_range(0..SPAN_SECS));
        let dur = rng.random_range(60..5_000u64);
        records.push(
            FailureRecord::new(
                SystemId::new(1 + rng.random_range(0..SYSTEMS)),
                NodeId::new(rng.random_range(0..NODES)),
                start,
                start + dur,
                Workload::ALL[rng.random_range(0..Workload::ALL.len())],
                DetailedCause::ALL[rng.random_range(0..DetailedCause::ALL.len())],
            )
            .expect("end >= start"),
        );
    }
    FailureTrace::from_records(records)
}

/// The clone-based query paths exactly as they existed before the index
/// layer, kept here as frozen baselines.
mod legacy {
    use super::*;
    use std::collections::BTreeMap;

    /// The old owned `FailureTrace::filter`: a full scan copying every
    /// kept record into a new vector, order preserved.
    fn filter(trace: &FailureTrace, pred: impl Fn(&FailureRecord) -> bool) -> Vec<FailureRecord> {
        trace.iter().filter(|r| pred(r)).copied().collect()
    }

    /// The old owned `interarrival_secs`: gaps between consecutive
    /// starts, `None` below two records.
    fn interarrival_secs(records: &[FailureRecord]) -> Option<Vec<f64>> {
        (records.len() >= 2).then(|| {
            records
                .windows(2)
                .map(|w| (w[1].start() - w[0].start()) as f64)
                .collect()
        })
    }

    /// Pre-index per-node TBF extraction: one O(n) filter clone of the
    /// *entire* trace per node (the pattern per-node analysis used before
    /// the index).
    pub fn per_node_gap_counts(trace: &FailureTrace, system: SystemId) -> Vec<usize> {
        (0..NODES)
            .map(|n| {
                let node_trace = filter(trace, |r| {
                    r.system() == system && r.node() == NodeId::new(n)
                });
                interarrival_secs(&node_trace).map_or(0, |g| g.len())
            })
            .collect()
    }

    /// Pre-index pooled per-node gaps: clone the system slice, then walk
    /// a `BTreeMap` of last-seen timestamps (verbatim old
    /// `per_node_interarrival_secs`).
    pub fn pooled_per_node_gaps(trace: &FailureTrace, system: SystemId) -> Vec<f64> {
        let sys = filter(trace, |r| r.system() == system);
        let mut last_seen: BTreeMap<(SystemId, NodeId), Timestamp> = BTreeMap::new();
        let mut gaps = Vec::new();
        for r in &sys {
            if let Some(prev) = last_seen.insert((r.system(), r.node()), r.start()) {
                gaps.push((r.start() - prev) as f64);
            }
        }
        gaps
    }

    /// Pre-index repair-by-cause: one full-trace filter clone per root
    /// cause (the pattern Table 2 used before the index).
    pub fn repair_minutes_by_cause(trace: &FailureTrace) -> Vec<Vec<f64>> {
        RootCause::ALL
            .iter()
            .map(|&c| {
                filter(trace, |r| r.cause() == c)
                    .iter()
                    .map(|r| r.downtime_minutes())
                    .collect()
            })
            .collect()
    }

    /// Old `filter_window`: linear predicate scan with a clone.
    pub fn filter_window(
        trace: &FailureTrace,
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<FailureRecord> {
        filter(trace, |r| r.start() >= from && r.start() < to)
    }

    /// Verbatim old `merge` semantics: concatenate then re-sort the
    /// whole combined vector.
    pub fn merge(a: &FailureTrace, b: &FailureTrace) -> FailureTrace {
        let mut records = a.records().to_vec();
        records.extend_from_slice(b.records());
        FailureTrace::from_records(records)
    }
}

fn bench_per_node_tbf(c: &mut Criterion) {
    let mut group = c.benchmark_group("per_node_tbf");
    let sys = SystemId::new(1);
    for n in SIZES {
        let trace = synth_trace(n, 42);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("legacy_clone", n), &trace, |b, t| {
            b.iter(|| legacy::per_node_gap_counts(black_box(t), sys));
        });
        group.bench_with_input(BenchmarkId::new("indexed_cold", n), &trace, |b, t| {
            b.iter(|| {
                let idx = TraceIndex::build(black_box(t));
                (0..NODES)
                    .map(|node| {
                        idx.node(sys, NodeId::new(node))
                            .interarrival_secs()
                            .map_or(0, |g| g.len())
                    })
                    .collect::<Vec<usize>>()
            });
        });
        let idx = TraceIndex::build(&trace);
        group.bench_with_input(BenchmarkId::new("indexed_warm", n), &idx, |b, idx| {
            b.iter(|| {
                (0..NODES)
                    .map(|node| {
                        black_box(idx)
                            .node(sys, NodeId::new(node))
                            .interarrival_secs()
                            .map_or(0, |g| g.len())
                    })
                    .collect::<Vec<usize>>()
            });
        });
    }
    group.finish();
}

fn bench_pooled_gaps(c: &mut Criterion) {
    let mut group = c.benchmark_group("pooled_gaps");
    let sys = SystemId::new(2);
    for n in SIZES {
        let trace = synth_trace(n, 42);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("legacy_clone", n), &trace, |b, t| {
            b.iter(|| legacy::pooled_per_node_gaps(black_box(t), sys));
        });
        let idx = TraceIndex::build(&trace);
        group.bench_with_input(BenchmarkId::new("indexed", n), &idx, |b, idx| {
            b.iter(|| black_box(idx).system(sys).per_node_interarrival_secs());
        });
    }
    group.finish();
}

fn bench_repair_by_cause(c: &mut Criterion) {
    let mut group = c.benchmark_group("repair_by_cause");
    for n in SIZES {
        let trace = synth_trace(n, 42);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("legacy_clone", n), &trace, |b, t| {
            b.iter(|| legacy::repair_minutes_by_cause(black_box(t)));
        });
        let idx = TraceIndex::build(&trace);
        group.bench_with_input(BenchmarkId::new("indexed", n), &idx, |b, idx| {
            b.iter(|| {
                RootCause::ALL
                    .iter()
                    .map(|&cause| black_box(idx).cause(cause).downtimes_minutes())
                    .collect::<Vec<Vec<f64>>>()
            });
        });
    }
    group.finish();
}

fn bench_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_slice");
    let from = Timestamp::from_secs(SPAN_SECS / 4);
    let to = Timestamp::from_secs(SPAN_SECS / 2);
    for n in SIZES {
        let trace = synth_trace(n, 42);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("legacy_scan", n), &trace, |b, t| {
            b.iter(|| legacy::filter_window(black_box(t), from, to));
        });
        group.bench_with_input(BenchmarkId::new("partition_point", n), &trace, |b, t| {
            b.iter(|| black_box(t).filter_window(from, to));
        });
    }
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge");
    for n in SIZES {
        let a = synth_trace(n / 2, 42);
        let b_half = synth_trace(n / 2, 43);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("legacy_resort", n),
            &(&a, &b_half),
            |b, (x, y)| {
                b.iter(|| legacy::merge(black_box(x), black_box(y)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sorted_merge", n),
            &(&a, &b_half),
            |b, (x, y)| {
                b.iter(|| {
                    let mut merged = (*x).clone();
                    merged.merge((*y).clone());
                    merged
                });
            },
        );
    }
    group.finish();
}

fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_build");
    for n in SIZES {
        let trace = synth_trace(n, 42);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("build", n), &trace, |b, t| {
            b.iter(|| TraceIndex::build(black_box(t)));
        });
    }
    group.finish();
}

/// The load-path mirror of `index_build`: CSV parse + full index
/// rebuild vs opening the same records from a packed `.hpct` image,
/// plus the one-time pack-write cost. Both sides run from memory so the
/// comparison measures decode work, not disk.
fn bench_store_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_load");
    for n in STORE_SIZES {
        let trace = synth_trace(n, 42);
        let mut csv = Vec::new();
        write_csv(&trace, &mut csv).expect("in-memory csv");
        let index = TraceIndex::build(&trace);
        let packed = TraceStore::to_bytes(&index);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("csv_parse_build", n), &csv, |b, csv| {
            b.iter(|| {
                let t = read_csv(black_box(&csv[..])).expect("clean csv");
                TraceIndex::build(&t).all().len()
            });
        });
        group.bench_with_input(BenchmarkId::new("hpct_open", n), &packed, |b, bytes| {
            b.iter(|| {
                let loaded = TraceStore::from_bytes(black_box(&bytes[..])).expect("clean store");
                let (t, parts) = loaded.into_parts();
                TraceIndex::from_parts(&t, parts).all().len()
            });
        });
        group.bench_with_input(BenchmarkId::new("pack_write", n), &index, |b, idx| {
            b.iter(|| TraceStore::to_bytes(black_box(idx)).len());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_per_node_tbf,
    bench_pooled_gaps,
    bench_repair_by_cause,
    bench_window,
    bench_merge,
    bench_index_build,
    bench_store_load
);
criterion_main!(benches);
