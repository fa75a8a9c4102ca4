//! Criterion benchmarks of the fitting kernels: the `PreparedSample`
//! sufficient-statistics stack against the pre-kernel algorithms.
//!
//! The slice entry points (`fit_paper_set`, `Weibull::fit_mle`, the
//! parallel bootstrap) were themselves rewritten on top of the kernels,
//! so timing "slice vs prepared" alone would understate the change. The
//! [`legacy`] module below reproduces the *pre-kernel* algorithms
//! verbatim — per-family validation scans and `ln x` allocations, the
//! `O(n)` max-fold inside every Weibull objective evaluation, per-point
//! `ln Γ` in the gamma NLL, and a fresh resample allocation per
//! bootstrap replicate — as the honest "before" baseline. The numbers
//! land in `experiments/BENCH_fit.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpcfail_exec::{ParallelExecutor, SeedSequence};
use hpcfail_stats::bootstrap::{percentile_ci_parallel, percentile_ci_parallel_prepared};
use hpcfail_stats::descriptive::{mean, quantile_sorted};
use hpcfail_stats::dist::{sample_n, Weibull};
use hpcfail_stats::fit::{fit_paper_set, fit_paper_set_prepared};
use hpcfail_stats::gof::ks_statistic_sorted;
use hpcfail_stats::prepared::PreparedSample;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// The pre-kernel fitting stack, frozen for comparison.
mod legacy {
    use hpcfail_stats::dist::{Continuous, Exponential, Gamma, LogNormal, Weibull};
    use hpcfail_stats::ecdf::Ecdf;

    /// The original KS scan: one model CDF evaluation per sample point
    /// (the branch-and-bound search replaced this).
    pub fn ks_statistic(ecdf: &Ecdf, dist: &dyn Continuous) -> f64 {
        let n = ecdf.len() as f64;
        let mut d = 0.0f64;
        for (i, &x) in ecdf.sorted_values().iter().enumerate() {
            let f = dist.cdf(x);
            let upper = (i as f64 + 1.0) / n - f;
            let lower = f - i as f64 / n;
            d = d.max(upper.abs()).max(lower.abs());
        }
        d
    }

    /// The original Weibull MLE: allocates its own `ln x` vector and
    /// re-derives the overflow guard `max(k·ln x)` with an `O(n)` fold on
    /// every objective evaluation (including the re-evaluated bracket
    /// endpoints the hoisting satellite removed).
    pub fn weibull_fit_mle(data: &[f64]) -> Weibull {
        let n = data.len() as f64;
        assert!(data.iter().all(|&x| x.is_finite() && x > 0.0));
        let logs: Vec<f64> = data.iter().map(|x| x.ln()).collect();
        let mean_log = logs.iter().sum::<f64>() / n;
        let g_and_dg = |k: f64| -> (f64, f64) {
            let max_term = logs
                .iter()
                .map(|&l| k * l)
                .fold(f64::NEG_INFINITY, f64::max);
            let mut s0 = 0.0;
            let mut s1 = 0.0;
            let mut s2 = 0.0;
            for &l in &logs {
                let w = (k * l - max_term).exp();
                s0 += w;
                s1 += l * w;
                s2 += l * l * w;
            }
            let ratio = s1 / s0;
            let g = ratio - 1.0 / k - mean_log;
            let dg = s2 / s0 - ratio * ratio + 1.0 / (k * k);
            (g, dg)
        };
        let mut lo = 1e-3;
        let mut hi = 1.0;
        while g_and_dg(hi).0 < 0.0 {
            hi *= 2.0;
        }
        while g_and_dg(lo).0 > 0.0 {
            lo /= 2.0;
        }
        let mut k = 0.5 * (lo + hi);
        for _ in 0..200 {
            let (g, dg) = g_and_dg(k);
            if g.abs() < 1e-12 {
                break;
            }
            if g > 0.0 {
                hi = k;
            } else {
                lo = k;
            }
            let newton = k - g / dg;
            k = if newton.is_finite() && newton > lo && newton < hi {
                newton
            } else {
                0.5 * (lo + hi)
            };
            if (hi - lo) / k < 1e-13 {
                break;
            }
        }
        let max_term = logs
            .iter()
            .map(|&l| k * l)
            .fold(f64::NEG_INFINITY, f64::max);
        let s0: f64 = logs.iter().map(|&l| (k * l - max_term).exp()).sum();
        let ln_scale = (max_term + (s0 / n).ln()) / k;
        Weibull::new(k, ln_scale.exp()).unwrap()
    }

    /// The original four-family ranking loop: one ECDF sort, then each
    /// family re-validates and re-transforms the slice on its own, NLLs
    /// go through the unhoisted per-point `ln_pdf` sum (per-point
    /// Lanczos `ln Γ` for the gamma), and KS reuses the ECDF.
    pub fn fit_paper_set(data: &[f64]) -> Vec<(&'static str, f64, f64)> {
        let ecdf = Ecdf::new(data).unwrap();
        let dists: Vec<Box<dyn Continuous>> = vec![
            Box::new(Exponential::fit_mle(data).unwrap()),
            Box::new(weibull_fit_mle(data)),
            Box::new(Gamma::fit_mle(data).unwrap()),
            Box::new(LogNormal::fit_mle(data).unwrap()),
        ];
        let mut out: Vec<(&'static str, f64, f64)> = dists
            .into_iter()
            .map(|d| {
                let nll = -data.iter().map(|&x| d.ln_pdf(x)).sum::<f64>();
                let ks = ks_statistic(&ecdf, d.as_ref());
                (d.name(), nll, ks)
            })
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1));
        out
    }

    /// The original serial bootstrap hot loop: a fresh resample vector
    /// allocated for every replicate.
    pub fn bootstrap_mean_ci(data: &[f64], replicates: usize, level: f64, seed: u64) -> (f64, f64) {
        use hpcfail_exec::SeedSequence;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let n = data.len();
        let streams = SeedSequence::new(seed);
        let mut stats: Vec<f64> = (0..replicates)
            .map(|r| {
                let mut rng = StdRng::seed_from_u64(streams.stream(r as u64));
                let resample: Vec<f64> = (0..n)
                    .map(|_| data[rng.random_range(0..n)])
                    .collect();
                hpcfail_stats::descriptive::mean(&resample)
            })
            .collect();
        stats.sort_unstable_by(f64::total_cmp);
        let alpha = (1.0 - level) / 2.0;
        (
            hpcfail_stats::descriptive::quantile_sorted(&stats, alpha),
            hpcfail_stats::descriptive::quantile_sorted(&stats, 1.0 - alpha),
        )
    }

    /// The original fit-statistic bootstrap: a fresh resample vector per
    /// replicate feeding the pre-hoisting Weibull solver.
    pub fn bootstrap_shape_ci(
        data: &[f64],
        replicates: usize,
        level: f64,
        seed: u64,
    ) -> (f64, f64) {
        use hpcfail_exec::SeedSequence;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let n = data.len();
        let streams = SeedSequence::new(seed);
        let mut stats: Vec<f64> = (0..replicates)
            .map(|r| {
                let mut rng = StdRng::seed_from_u64(streams.stream(r as u64));
                let resample: Vec<f64> = (0..n)
                    .map(|_| data[rng.random_range(0..n)])
                    .collect();
                weibull_fit_mle(&resample).shape()
            })
            .collect();
        stats.sort_unstable_by(f64::total_cmp);
        let alpha = (1.0 - level) / 2.0;
        (
            hpcfail_stats::descriptive::quantile_sorted(&stats, alpha),
            hpcfail_stats::descriptive::quantile_sorted(&stats, 1.0 - alpha),
        )
    }
}

fn weibull_data(n: usize) -> Vec<f64> {
    let truth = Weibull::new(0.75, 86_400.0).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    sample_n(&truth, n, &mut rng)
}

/// Paper-set ranking (Figs. 6/7(a) methodology) from a raw slice:
/// pre-kernel loop vs the prepared-sample pipeline. Both start from
/// unsorted, unprepared data, so the kernel side pays its one scan and
/// one sort inside the loop.
fn bench_paper_set_rank(c: &mut Criterion) {
    let mut group = c.benchmark_group("paper_set_rank");
    group.sample_size(20);
    for &n in &[1_000usize, 10_000, 100_000] {
        let data = weibull_data(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("legacy", n), &data, |b, data| {
            b.iter(|| legacy::fit_paper_set(black_box(data)));
        });
        group.bench_with_input(BenchmarkId::new("kernel", n), &data, |b, data| {
            b.iter(|| fit_paper_set(black_box(data)).unwrap());
        });
        // Amortized re-fit: the sample prepared (and sorted) once, as the
        // bootstrap and multi-criterion rankings see it.
        let prepared = PreparedSample::new(&data).unwrap();
        let _ = prepared.sorted();
        group.bench_with_input(BenchmarkId::new("prepared", n), &prepared, |b, ps| {
            b.iter(|| fit_paper_set_prepared(black_box(ps)).unwrap());
        });
    }
    group.finish();
}

/// Single-family Weibull MLE: the legacy solver vs the slice entry point
/// (which now hoists the max-term) vs the fully prepared path.
fn bench_weibull_mle(c: &mut Criterion) {
    let mut group = c.benchmark_group("weibull_mle");
    for &n in &[1_000usize, 10_000] {
        let data = weibull_data(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("legacy", n), &data, |b, data| {
            b.iter(|| legacy::weibull_fit_mle(black_box(data)));
        });
        group.bench_with_input(BenchmarkId::new("slice", n), &data, |b, data| {
            b.iter(|| Weibull::fit_mle(black_box(data)).unwrap());
        });
        let prepared = PreparedSample::new(&data).unwrap();
        group.bench_with_input(BenchmarkId::new("prepared", n), &prepared, |b, ps| {
            b.iter(|| Weibull::fit_prepared(black_box(ps)).unwrap());
        });
    }
    group.finish();
}

/// Bootstrap CI for the mean, 200 replicates: per-replicate allocation
/// (legacy) vs the per-worker scratch rewrite vs the prepared-statistic
/// variant. Single worker, so the numbers isolate the allocation story.
fn bench_bootstrap_ci(c: &mut Criterion) {
    let mut group = c.benchmark_group("bootstrap_mean_ci");
    group.sample_size(10);
    let replicates = 200;
    let pool = ParallelExecutor::with_workers(1);
    for &n in &[1_000usize, 10_000, 100_000] {
        let data = weibull_data(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("legacy", n), &data, |b, data| {
            b.iter(|| legacy::bootstrap_mean_ci(black_box(data), replicates, 0.95, 42));
        });
        group.bench_with_input(BenchmarkId::new("scratch", n), &data, |b, data| {
            b.iter(|| {
                percentile_ci_parallel(
                    black_box(data),
                    |d| Some(mean(d)),
                    replicates,
                    0.95,
                    42,
                    &pool,
                )
                .unwrap()
            });
        });
        let prepared = PreparedSample::new(&data).unwrap();
        group.bench_with_input(BenchmarkId::new("prepared", n), &prepared, |b, ps| {
            b.iter(|| {
                percentile_ci_parallel_prepared(
                    black_box(ps),
                    |s| Some(s.mean()),
                    replicates,
                    0.95,
                    42,
                    &pool,
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

/// Bootstrap CI for the Weibull shape (the paper's decreasing-hazard
/// claim) — a fit-heavy statistic where the prepared path pays off most.
fn bench_bootstrap_shape_ci(c: &mut Criterion) {
    let mut group = c.benchmark_group("bootstrap_shape_ci");
    group.sample_size(10);
    let replicates = 50;
    let pool = ParallelExecutor::with_workers(1);
    let n = 2_000usize;
    let data = weibull_data(n);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_with_input(BenchmarkId::new("legacy", n), &data, |b, data| {
        b.iter(|| legacy::bootstrap_shape_ci(black_box(data), replicates, 0.95, 42));
    });
    group.bench_with_input(BenchmarkId::new("slice", n), &data, |b, data| {
        b.iter(|| {
            percentile_ci_parallel(
                black_box(data),
                |d| Weibull::fit_mle(d).ok().map(|w| w.shape()),
                replicates,
                0.95,
                42,
                &pool,
            )
            .unwrap()
        });
    });
    let prepared = PreparedSample::new(&data).unwrap();
    group.bench_with_input(BenchmarkId::new("prepared", n), &prepared, |b, ps| {
        b.iter(|| {
            percentile_ci_parallel_prepared(
                black_box(ps),
                |s| Weibull::fit_prepared(s).ok().map(|w| w.shape()),
                replicates,
                0.95,
                42,
                &pool,
            )
            .unwrap()
        });
    });
    group.finish();
}

/// KS statistic off the shared sorted view (no ECDF build).
fn bench_ks_statistic(c: &mut Criterion) {
    let data = weibull_data(10_000);
    let prepared = PreparedSample::new(&data).unwrap();
    let dist = Weibull::fit_prepared(&prepared).unwrap();
    let sorted = prepared.sorted();
    c.bench_function("ks_statistic_10k", |b| {
        b.iter(|| ks_statistic_sorted(black_box(sorted), black_box(&dist)));
    });
    let ecdf = prepared.to_ecdf();
    c.bench_function("ks_statistic_10k_exhaustive", |b| {
        b.iter(|| legacy::ks_statistic(black_box(&ecdf), black_box(&dist)));
    });
}

fn bench_sampling(c: &mut Criterion) {
    let dist = Weibull::new(0.75, 86_400.0).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    c.bench_function("weibull_sample_1k", |b| {
        b.iter(|| sample_n(black_box(&dist), 1_000, &mut rng));
    });
}

/// KS scaling: 'scalar_exhaustive' is the per-point dyn-dispatched CDF
/// scan (what the fit path did before branch-and-bound landed),
/// 'branch_bound' the interval-skipping `ks_statistic_sorted` the fit
/// path calls. Both return the same bits; the proptests and `gof.rs`
/// unit tests pin that.
fn bench_ks_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ks");
    group.sample_size(10);
    for &n in &[10_000usize, 100_000, 1_000_000] {
        let data = weibull_data(n);
        let prepared = PreparedSample::new(&data).unwrap();
        let dist = Weibull::fit_prepared(&prepared).unwrap();
        let sorted = prepared.sorted();
        let ecdf = prepared.to_ecdf();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("scalar_exhaustive", n), &n, |b, _| {
            b.iter(|| legacy::ks_statistic(black_box(&ecdf), black_box(&dist)));
        });
        group.bench_with_input(BenchmarkId::new("branch_bound", n), &n, |b, _| {
            b.iter(|| ks_statistic_sorted(black_box(sorted), black_box(&dist)));
        });
    }
    group.finish();
}

/// Quantile of a raw slice — exercises the `total_cmp` sort path.
fn bench_quantile(c: &mut Criterion) {
    let data = weibull_data(10_000);
    c.bench_function("quantile_sorted_10k", |b| {
        let mut sorted = data.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        b.iter(|| quantile_sorted(black_box(&sorted), 0.5));
    });
    // Keep the seed-stream splitter honest about its cost in the
    // bootstrap loop accounting.
    let streams = SeedSequence::new(42);
    c.bench_function("seed_stream_derive", |b| {
        b.iter(|| black_box(&streams).stream(black_box(17)));
    });
}

criterion_group!(
    benches,
    bench_paper_set_rank,
    bench_weibull_mle,
    bench_bootstrap_ci,
    bench_bootstrap_shape_ci,
    bench_ks_statistic,
    bench_sampling,
    bench_ks_scaling,
    bench_quantile
);
criterion_main!(benches);
