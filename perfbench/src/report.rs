//! Metric names, units, and the result line.
//!
//! The tables here mirror `BENCHMARK.json` at the repository root; the
//! smoke test checks that every name there is printed with its unit.

use std::collections::BTreeMap;
use std::fmt::Write;

use hpcfail_exec::splitmix64;
use hpcfail_serve::load::percentile_nearest_rank;

use crate::tracer::Tracer;

/// Every workload name, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["serve_mixed", "campaign"];

/// End-to-end metrics: `(name, unit)`. Every workload prints all of
/// them; `README.md` says what the operation is in each workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("p25_ms", "ms"),
    ("slow_ms", "ms"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. Every workload prints all of them;
/// a layer a workload does not reach reads 0. A name ending in `_s`,
/// `_ms` or `_allocs` is read off the spans of the same stem unless the
/// workload sets it.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("records.parse_s", "s"),
    ("records.parse_allocs", "count"),
    ("records.audit_s", "s"),
    ("records.index_build_s", "s"),
    ("records.index_build_allocs", "count"),
    ("records.pack_s", "s"),
    ("records.audit_issues", "count"),
    ("records.quarantined_rows", "count"),
    ("records.repaired_rows", "count"),
    ("records.open_s", "s"),
    ("records.csv_bytes_per_record", "B/record"),
    ("records.hpct_bytes_per_record", "B/record"),
    ("core.findings_s", "s"),
    ("core.tbf_s", "s"),
    ("core.repair_s", "s"),
    ("core.rates_s", "s"),
    ("core.availability_s", "s"),
    ("core.rootcause_s", "s"),
    ("core.pernode_s", "s"),
    ("core.lifetime_s", "s"),
    ("core.workload_s", "s"),
    ("core.findings_held", "count"),
    ("stats.prepare_s", "s"),
    ("stats.fit_s", "s"),
    ("stats.fit_values", "count"),
    ("serve.reload_ms", "ms"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_misses_per_cycle", "1/cycle"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.cold_p95_ms", "ms"),
    ("serve.warm_p50_ms", "ms"),
    ("serve.warm_p99_ms", "ms"),
    ("serve.response_bytes_per_req", "B/req"),
    ("serve.shed", "count"),
    ("serve.deadline_hits", "count"),
    ("synth.generate_s", "s"),
    ("synth.records_generated", "count"),
    ("scenario.evaluate_s", "s"),
    ("scenario.runner_overhead_s", "s"),
    ("scenario.journal_bytes", "B"),
    ("scenario.invalid_composition_cells", "count"),
    ("scenario.data_limited_cells", "count"),
    ("checkpoint.sim_s", "s"),
    ("sched.sim_s", "s"),
    ("exec.workers", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.latency_samples", "count"),
];

/// Latencies kept per phase. Past this many, a seeded reservoir sample
/// of this size stands for all of them, so the benchmark's own buffers
/// stay the same size whatever the request rate.
const RESERVOIR: usize = 1 << 16;

/// What one measured phase did.
#[derive(Debug)]
pub struct Phase {
    /// Up to [`RESERVOIR`] operation latencies, in milliseconds: all of
    /// them, or a uniform sample.
    latencies_ms: Vec<f64>,
    /// Operations whose latency was recorded.
    pub samples: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check (or that errored).
    pub failed: u64,
    reservoir_rng: u64,
}

impl Default for Phase {
    fn default() -> Phase {
        Phase {
            latencies_ms: Vec::with_capacity(RESERVOIR),
            samples: 0,
            attempted: 0,
            failed: 0,
            reservoir_rng: 0x5EED,
        }
    }
}

impl Phase {
    /// Median latency.
    pub fn p50_ms(&self) -> f64 {
        self.percentile_ms(0.5)
    }

    /// Nearest-rank percentile `q` of the latencies.
    pub fn percentile_ms(&self, q: f64) -> f64 {
        percentile_nearest_rank(&self.latencies_ms, q)
    }

    /// Record one operation and whether its output checked out.
    pub fn record(&mut self, latency_s: f64, ok: bool) {
        self.keep(latency_s * 1e3);
        self.count(ok);
    }

    /// Count one latency sample, and keep it if the reservoir takes it.
    fn keep(&mut self, ms: f64) {
        self.samples += 1;
        if self.latencies_ms.len() < RESERVOIR {
            self.latencies_ms.push(ms);
        } else {
            let slot = splitmix64(&mut self.reservoir_rng) % self.samples;
            if let Some(kept) = self.latencies_ms.get_mut(slot as usize) {
                *kept = ms;
            }
        }
    }

    /// Count one operation that has no latency of its own.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Both phases' operations together. `other`'s kept samples enter
    /// this reservoir one by one, which weighs them fairly when both
    /// phases saw similar counts and keeps the buffer at its fixed size.
    pub fn merge(mut self, other: Phase) -> Phase {
        let unkept = other.samples - other.latencies_ms.len() as u64;
        for ms in other.latencies_ms {
            self.keep(ms);
        }
        self.samples += unkept;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self
    }
}

/// Per-layer values by name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Set one per-layer value; the name must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Fill every unset `_s`, `_ms` and `_allocs` metric from the spans
    /// of the same stem: the median, over the roots containing them, of
    /// their summed self time (or allocation calls).
    pub fn fill_from_spans(&mut self, tracer: &Tracer) {
        for (name, _) in PER_LAYER {
            if self.0.contains_key(name) {
                continue;
            }
            let (stem, scale, allocs) = if let Some(stem) = name.strip_suffix("_allocs") {
                (stem, 1.0, true)
            } else if let Some(stem) = name.strip_suffix("_ms") {
                (stem, 1e3, false)
            } else if let Some(stem) = name.strip_suffix("_s") {
                (stem, 1.0, false)
            } else {
                continue;
            };
            let values: Vec<f64> = tracer
                .per_root(stem)
                .into_iter()
                .map(|(secs, n)| if allocs { n as f64 } else { secs * scale })
                .collect();
            if !values.is_empty() {
                self.0.insert(name, median(&values));
            }
        }
    }
}

/// Median (nearest rank) of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile_nearest_rank(values, 0.5)
}

/// The result line of an untraced run: every end-to-end metric.
/// `times` are `setup_s`, `p25_ms` and `slow_ms`.
pub fn render_end_to_end(phase: &Phase, times: [f64; 3], peak_bytes: usize) -> String {
    let [setup_s, p25, slow] = times;
    let values = [setup_s, p25, slow, peak_bytes as f64 / 1e6];
    println!("latency samples: {}", phase.samples);
    render(
        phase,
        END_TO_END.iter().zip(values).map(|((n, u), v)| (*n, v, *u)),
    )
}

/// The result line of a traced run: every per-layer metric.
pub fn render_layers(phase: &Phase, layers: &Layers) -> String {
    render(
        phase,
        PER_LAYER
            .iter()
            .map(|(n, u)| (*n, layers.0.get(n).copied().unwrap_or(0.0), *u)),
    )
}

/// One JSON object; `correct` requires no failed operation and every
/// value finite.
fn render<'a>(phase: &Phase, metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let mut correct = phase.failed == 0 && phase.attempted > 0;
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.enumerate() {
        println!("{name:<36} {value:>18.6} {unit}");
        correct &= value.is_finite();
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        phase.attempted, phase.failed
    )
}
