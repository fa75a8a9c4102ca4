//! `perfbench`: the end-to-end and per-layer benchmark of the hpcfail
//! workspace. See `perfbench/README.md` for the workloads, the metrics
//! and which layer each per-layer metric belongs to.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mixed --seed 42 --seconds 40 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off; with `--trace 1` they are the per-layer ones, from a run
//! in which every other operation records spans (written to
//! `perfbench/out/spans-<workload>-seed<seed>.jsonl` at exit).

mod alloc;
mod analyze;
mod campaign;
mod ingest;
mod report;
mod serve;
mod tracer;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Layers, Phase};
use tracer::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Times each workload sets itself up before measuring, at least;
/// `setup_s` is the 10th percentile of these and the ones between slices.
const SETUP_REPEATS: usize = 5;
/// Cheap set-ups repeat until this much time is spent in each batch, so
/// the percentile of a sub-millisecond set-up is steady too.
const SETUP_BATCH_S: f64 = 0.1;
const MAX_SETUP_REPEATS: usize = 100_000;
/// The untraced phase runs in this many slices, with a batch of set-ups
/// timed between them. A shared host's speed shifts every few seconds (on
/// a two-vCPU guest a 21-µs set-up read 22–40 µs from one batch to the
/// next), so batches of equal length spread over the run, rather than
/// one up front, keep `setup_s` from following a single phase.
const SLICES: u32 = 8;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Shrink every input so the whole run fits a debug-build test.
    pub smoke: bool,
    /// Scratch directory for files the workload writes; removed at exit.
    pub scratch: PathBuf,
}

/// A workload: set up its inputs from the seed, then run measured phases.
pub trait Workload: Sized {
    /// Generate the inputs from the seed. Called at least
    /// [`SETUP_REPEATS`] times before measuring, the last one kept, and
    /// again between the slices of the untraced phase, with the kept one
    /// still live.
    fn setup(cfg: &Config, tracer: &mut Tracer) -> Result<Self, String>;

    /// Compute the reference outputs the checks compare against, once,
    /// after the last set-up. Untimed.
    fn reference(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Run operations until `budget` is spent, checking every output.
    /// A zero budget runs one operation (one reload cycle on
    /// `serve_mixed`); the traced run alternates such single steps.
    fn phase(&mut self, budget: Duration, tracer: &mut Tracer) -> Phase;

    /// `slow_ms`: the latency of the workload's slow operations. By
    /// default the nearest-rank p90: the campaign runs a handful of
    /// operations, too few for a percentile with ten samples beyond it.
    fn slow_ms(&self, phase: &Phase) -> f64 {
        phase.percentile_ms(0.9)
    }

    /// Per-layer figures that are counts or derived values rather than
    /// span self times. Called after the traced phase; any checked work
    /// it runs is counted in `checks`.
    fn layers(&mut self, _tracer: &mut Tracer, _layers: &mut Layers, _checks: &mut Phase) {}
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1> [--smoke]",
        report::WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !report::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let scratch = PathBuf::from("perfbench/out").join(format!("{workload}-{}", std::process::id()));
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        scratch,
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.scratch.display());
        return ExitCode::FAILURE;
    }
    let result = match cfg.workload.as_str() {
        "serve_mixed" => drive::<serve::Serve>(&cfg),
        "campaign" => drive::<campaign::Campaign>(&cfg),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload);
            ExitCode::FAILURE
        }
    }
}

/// Set up, measure, and render the result line of one workload.
fn drive<W: Workload>(cfg: &Config) -> Result<String, String> {
    let origin = Instant::now();
    let mut tracer = Tracer::new(cfg.trace, origin);

    // A reservoir of fixed size, so the samples' buffer is the same size
    // in every run and stays out of `peak_heap_mb`'s spread.
    let mut setup_s = Phase::default();
    let mut workload =
        time_setups::<W>(cfg, &mut tracer, SETUP_REPEATS, SETUP_BATCH_S, &mut setup_s)?;
    workload.reference()?;

    let budget = Duration::from_secs_f64(cfg.seconds);
    let line = if cfg.trace {
        // Traced and untraced operations alternate, so drift in the
        // host's speed reaches both sets alike; the difference of their
        // median latencies is the tracing overhead.
        let mut quiet = Tracer::new(false, origin);
        let (mut untraced, mut traced) = (Phase::default(), Phase::default());
        let start = Instant::now();
        while traced.attempted == 0 || start.elapsed() < budget {
            untraced = untraced.merge(workload.phase(Duration::ZERO, &mut quiet));
            traced = traced.merge(workload.phase(Duration::ZERO, &mut tracer));
        }
        let (mut layers, mut checks) = (Layers::default(), Phase::default());
        workload.layers(&mut tracer, &mut layers, &mut checks);
        layers.fill_from_spans(&tracer);
        let (u, t) = (untraced.p50_ms(), traced.p50_ms());
        layers.set("bench.trace_overhead_pct", (t - u) / u * 100.0);
        layers.set("bench.latency_samples", traced.samples as f64);
        let path = PathBuf::from("perfbench/out")
            .join(format!("spans-{}-seed{}.jsonl", cfg.workload, cfg.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report::render_layers(&untraced.merge(traced).merge(checks), &layers)
    } else {
        let (mut phase, mut measured, mut peak) = (Phase::default(), Duration::ZERO, 0);
        for slice in 1..=SLICES {
            if slice > 1 {
                drop(time_setups::<W>(cfg, &mut tracer, 1, SETUP_BATCH_S, &mut setup_s)?);
            }
            // The set-ups' bytes are not the measured phase's.
            alloc::reset_peak();
            let t0 = Instant::now();
            let left = (budget * slice / SLICES).saturating_sub(measured);
            phase = phase.merge(workload.phase(left, &mut tracer));
            measured += t0.elapsed();
            peak = peak.max(alloc::peak_bytes());
        }
        eprintln!("perfbench: {} set up {} times", cfg.workload, setup_s.samples);
        // Low percentiles: a shared host slows this guest's CPUs for
        // seconds to minutes at a time, and the samples that escape it
        // keep the figure steady. Set-up times are bimodal within a run,
        // and in some runs the fast mode holds under a quarter of them, so
        // their lower quartile can fall between the modes; their 10th
        // percentile did not.
        let setup = setup_s.percentile_ms(0.1) / 1e3;
        let p25 = phase.percentile_ms(0.25);
        let slow = workload.slow_ms(&phase);
        report::render_end_to_end(&phase, [setup, p25, slow], peak)
    };
    Ok(line)
}

/// Set `W` up at least `repeats` times and until `min_s` is spent,
/// recording each set-up's time in `times`; the last set-up is returned.
fn time_setups<W: Workload>(
    cfg: &Config,
    tracer: &mut Tracer,
    repeats: usize,
    min_s: f64,
    times: &mut Phase,
) -> Result<W, String> {
    let (mut n, mut total, mut workload) = (0, 0.0, None);
    while n < repeats || (total < min_s && n < MAX_SETUP_REPEATS) {
        // Drop (and so shut down) the previous set-up before the next one.
        drop(workload.take());
        let root = tracer.open("setup");
        let t0 = Instant::now();
        let w = W::setup(cfg, tracer)?;
        let dt = t0.elapsed().as_secs_f64();
        tracer.close(root);
        times.record(dt, true);
        (n, total, workload) = (n + 1, total + dt, Some(w));
    }
    Ok(workload.expect("at least one set-up runs"))
}
