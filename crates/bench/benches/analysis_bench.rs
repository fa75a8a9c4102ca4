//! Criterion benchmarks of the paper's analyses over the full seeded
//! site trace — one bench per table/figure pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use hpcfail_core::{periodic, pernode, rates, repair, rootcause, tbf};
use hpcfail_records::{Catalog, FailureTrace, SystemId};
use std::hint::black_box;

fn fixtures() -> (Catalog, FailureTrace) {
    (
        Catalog::lanl(),
        hpcfail_synth::scenario::site_trace(42).expect("site trace"),
    )
}

/// One system's records of `trace` as a trace of their own, so each
/// iteration's index build covers only that system.
fn system_only(trace: &FailureTrace, system: SystemId) -> FailureTrace {
    trace.index().system(system).iter().copied().collect()
}

fn bench_fig1_rootcause(c: &mut Criterion) {
    let (catalog, trace) = fixtures();
    c.bench_function("fig1_rootcause_breakdown", |b| {
        b.iter(|| rootcause::analyze_indexed(&black_box(&trace).index(), black_box(&catalog)));
    });
}

fn bench_fig2_rates(c: &mut Criterion) {
    let (catalog, trace) = fixtures();
    c.bench_function("fig2_failure_rates", |b| {
        b.iter(|| rates::analyze_indexed(&black_box(&trace).index(), black_box(&catalog)).unwrap());
    });
}

fn bench_fig3_pernode(c: &mut Criterion) {
    let (catalog, trace) = fixtures();
    let sys20 = system_only(&trace, SystemId::new(20));
    c.bench_function("fig3_per_node_fits", |b| {
        b.iter(|| {
            pernode::analyze_indexed(&black_box(&sys20).index(), &catalog, SystemId::new(20))
                .unwrap()
        });
    });
}

fn bench_fig5_periodic(c: &mut Criterion) {
    let (_, trace) = fixtures();
    c.bench_function("fig5_periodic_pattern", |b| {
        b.iter(|| periodic::analyze(black_box(&trace)).unwrap());
    });
}

fn bench_fig6_tbf(c: &mut Criterion) {
    let (_, trace) = fixtures();
    let sys20 = system_only(&trace, SystemId::new(20));
    let mut group = c.benchmark_group("fig6_tbf");
    group.sample_size(20);
    group.bench_function("system_wide_full_fit", |b| {
        b.iter(|| {
            tbf::analyze_indexed(
                &black_box(&sys20).index(),
                tbf::View::SystemWide(SystemId::new(20)),
                None,
            )
            .unwrap()
        });
    });
    group.finish();
}

fn bench_table2_repairs(c: &mut Criterion) {
    let (_, trace) = fixtures();
    c.bench_function("table2_repair_stats", |b| {
        b.iter(|| repair::by_cause_indexed(&black_box(&trace).index()).unwrap());
    });
}

fn bench_fig7_repair_fit(c: &mut Criterion) {
    let (_, trace) = fixtures();
    let mut group = c.benchmark_group("fig7_repair_fit");
    group.sample_size(10);
    group.bench_function("all_records", |b| {
        b.iter(|| repair::fit_all_repairs_indexed(&black_box(&trace).index()).unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig1_rootcause,
    bench_fig2_rates,
    bench_fig3_pernode,
    bench_fig5_periodic,
    bench_fig6_tbf,
    bench_table2_repairs,
    bench_fig7_repair_fit
);
criterion_main!(benches);
