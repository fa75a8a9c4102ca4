//! `campaign`: `run_campaign` on the bundled what-if spec
//! (`experiments/scenarios/lanl_whatif.toml`, 1296 cells) with 2
//! workers and a fresh on-disk journal per run, so every wave appends
//! and syncs.
//!
//! The only workload where `synth`, `checkpoint`, `sched`, `scenario`
//! and the `exec` pool do the work. The campaign seed is the benchmark
//! seed. The traced run also replays every cell serially — one
//! `scenario::evaluate` and one `build_system` per cell — to split the
//! campaign's time by layer.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use hpcfail_exec::SeedSequence;
use hpcfail_records::checksum;
use hpcfail_scenario::{
    cell_seed, evaluate, expand, render_results, run_campaign, BurstMode, CampaignSpec,
    CauseMixName, Cell, CellError, CellOutcome, CheckpointApp, Era, FleetEntry, RunOptions,
    SchedApp,
};
use hpcfail_synth::builder::ScenarioBuilder;
use hpcfail_synth::causes::CauseMix;
use hpcfail_synth::config::BurstConfig;

use crate::report::{median, Layers, Phase};
use crate::tracer::Tracer;
use crate::{Config, Workload};

const SPEC_PATH: &str = "experiments/scenarios/lanl_whatif.toml";
const WORKERS: usize = 2;

/// A 16-cell grid with the same fleet kinds and both by-design
/// degradations, for smoke runs.
const SMOKE_SPEC: &str = r#"
[campaign]
name = "perfbench-smoke"
seed = 0

[fleet]
systems = [12]

[[projection]]
name = "exascale_100k"
nodes = 100000
base_system = 18

[grid]
era = ["full"]
rate_scale = [1.0]
repair_scale = [1.0]
cause_mix = ["lanl"]
burst = ["calibrated", "storm"]
checkpoint = ["none", "young"]
sched = ["none", "longest-uptime"]

[runner]
checkpoint_every = 4
"#;

/// The `campaign` workload.
pub struct Campaign {
    spec: CampaignSpec,
    cells: Vec<Cell>,
    /// Cells that must degrade as invalid compositions: analytic
    /// projections asked for bursts or a scheduling simulation.
    invalid: Vec<u64>,
    journal: PathBuf,
    /// Digest of the first run's rendered results; later runs must match.
    digest: Option<u64>,
    /// `run_campaign` seconds of every run so far.
    run_s: Vec<f64>,
    journal_bytes: u64,
    /// Cells of the latest run degraded for lack of data.
    data_limited: u64,
}

impl Campaign {
    /// One campaign run; the outcome of every check.
    fn run(&mut self, tracer: &mut Tracer) -> (f64, bool) {
        let _ = std::fs::remove_file(&self.journal);
        let options = RunOptions {
            workers: Some(WORKERS),
            journal: Some(&self.journal),
            ..RunOptions::default()
        };
        let root = tracer.open("campaign");
        let t0 = Instant::now();
        let span = tracer.open("scenario.run_campaign");
        let result = run_campaign(&self.spec, &options);
        tracer.close(span);
        let run_s = t0.elapsed().as_secs_f64();
        let span = tracer.open("scenario.render");
        let rendered = result.as_ref().map(|r| render_results(&self.spec, r));
        tracer.close(span);
        let latency = t0.elapsed().as_secs_f64();
        tracer.close(root);
        self.run_s.push(run_s);
        self.journal_bytes = std::fs::metadata(&self.journal).map_or(0, |m| m.len());

        let (Ok(result), Ok(rendered)) = (&result, rendered) else {
            return (latency, false);
        };
        let mut invalid = Vec::new();
        let mut data_limited = 0;
        let mut faults = 0;
        for outcome in &result.outcomes {
            let CellOutcome::Degraded { cell, cause } = outcome else {
                continue;
            };
            match cause {
                CellError::InvalidComposition(_) => invalid.push(*cell),
                // Too little data in the cell's stratum to fit: a property
                // of the seed's sample, reported rather than failed.
                CellError::EmptyStratum(_) | CellError::DegenerateFit(_) => data_limited += 1,
                CellError::Panic(_) | CellError::Generation(_) | CellError::App(_) => faults += 1,
            }
        }
        self.data_limited = data_limited;
        let digest = checksum(rendered.as_bytes());
        let stable = *self.digest.get_or_insert(digest) == digest;
        let ok = result.outcomes.len() == self.cells.len()
            && faults == 0
            && invalid == self.invalid
            && stable;
        (latency, ok)
    }
}

/// The storm burst process of `burst = "storm"` (mirrors `scenario::cell`).
const STORM: BurstConfig = BurstConfig {
    probability: 0.5,
    min_extra: 2,
    max_extra: 6,
    until_month: 600.0,
};

/// The builder a system cell synthesizes its trace with (mirrors
/// `scenario::cell`, whose presets are private; a test below checks
/// that the two synthesize the same traces).
fn cell_builder(spec: &CampaignSpec, cell: &Cell) -> ScenarioBuilder {
    let seeds = SeedSequence::new(cell_seed(spec.seed, cell.index));
    let mut builder = ScenarioBuilder::lanl()
        .seed(seeds.stream(0))
        .scale_rates(cell.rate_scale);
    let weights = match cell.cause_mix {
        CauseMixName::Lanl => None,
        CauseMixName::HardwareHeavy => Some([0.75, 0.10, 0.03, 0.03, 0.02, 0.07]),
        CauseMixName::SoftwareHeavy => Some([0.20, 0.55, 0.08, 0.05, 0.04, 0.08]),
        CauseMixName::Uniform => Some([1.0; 6]),
    };
    if let Some(mix) = weights.and_then(CauseMix::new) {
        builder = builder.with_cause_mix(mix);
    }
    match cell.burst {
        BurstMode::Calibrated => builder,
        BurstMode::Off => builder.without_bursts(),
        BurstMode::Storm => builder.with_bursts_everywhere(STORM),
    }
}

type CellKey = (
    usize,
    Era,
    u64,
    u64,
    CauseMixName,
    BurstMode,
    CheckpointApp,
    SchedApp,
);

fn key(cell: &Cell, checkpoint: CheckpointApp, sched: SchedApp) -> CellKey {
    (
        cell.fleet,
        cell.era,
        cell.rate_scale.to_bits(),
        cell.repair_scale.to_bits(),
        cell.cause_mix,
        cell.burst,
        checkpoint,
        sched,
    )
}

impl Workload for Campaign {
    fn setup(cfg: &Config, _tracer: &mut Tracer) -> Result<Self, String> {
        let src = if cfg.smoke {
            SMOKE_SPEC.to_string()
        } else {
            std::fs::read_to_string(SPEC_PATH).map_err(|e| format!("reading {SPEC_PATH}: {e}"))?
        };
        let mut spec = CampaignSpec::parse(&src).map_err(|e| format!("{SPEC_PATH}: {e}"))?;
        spec.seed = cfg.seed;
        let cells = expand(&spec);
        let invalid = cells
            .iter()
            .filter(|c| {
                matches!(c.fleet_entry(&spec), FleetEntry::Projection(_))
                    && (c.burst != BurstMode::Calibrated || c.sched != SchedApp::None)
            })
            .map(|c| c.index)
            .collect();
        Ok(Campaign {
            spec,
            cells,
            invalid,
            journal: cfg.scratch.join("campaign.hpcj"),
            digest: None,
            run_s: Vec::new(),
            journal_bytes: 0,
            data_limited: 0,
        })
    }

    fn phase(&mut self, budget: Duration, tracer: &mut Tracer) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        while phase.attempted == 0 || start.elapsed() < budget {
            let (latency, ok) = self.run(tracer);
            phase.record(latency, ok);
        }
        phase
    }

    fn layers(&mut self, tracer: &mut Tracer, layers: &mut Layers, _checks: &mut Phase) {
        // Serial replay: each cell's evaluate time, and its trace synthesis.
        let root = tracer.open("replay");
        let mut evaluate_s = HashMap::new();
        let mut total_s = 0.0;
        let mut records = 0;
        for cell in &self.cells {
            let span = tracer.open("scenario.evaluate");
            let t0 = Instant::now();
            let outcome = evaluate(&self.spec, cell);
            let dt = t0.elapsed().as_secs_f64();
            tracer.close(span);
            total_s += dt;
            if outcome.is_ok() {
                evaluate_s.insert(key(cell, cell.checkpoint, cell.sched), dt);
            }
            if let FleetEntry::System(id) = cell.fleet_entry(&self.spec) {
                let span = tracer.open("synth.generate");
                let trace = cell_builder(&self.spec, cell).build_system(*id);
                tracer.close(span);
                records += trace.map_or(0, |t| t.len());
            }
        }
        tracer.close(root);

        // An application's cost: the evaluate time a cell takes beyond the
        // same cell without that application, summed over completed pairs.
        let added = |without: &dyn Fn(&Cell) -> CellKey| -> f64 {
            self.cells
                .iter()
                .filter_map(|c| {
                    let (own, base) = (key(c, c.checkpoint, c.sched), without(c));
                    if own == base {
                        return None;
                    }
                    Some(evaluate_s.get(&own)? - evaluate_s.get(&base)?)
                })
                .sum()
        };
        let checkpoint_s = added(&|c| key(c, CheckpointApp::None, c.sched));
        let sched_s = added(&|c| key(c, c.checkpoint, SchedApp::None));

        layers.set("checkpoint.sim_s", checkpoint_s);
        layers.set("sched.sim_s", sched_s);
        layers.set("synth.records_generated", records as f64);
        // Cells synthesize their traces on the pool themselves, so the
        // serial replay is already parallel inside each cell: the runner's
        // overhead is its wall time beyond that sum (negative when running
        // cells side by side wins more than waves, journal and render cost).
        layers.set("scenario.runner_overhead_s", median(&self.run_s) - total_s);
        layers.set("scenario.journal_bytes", self.journal_bytes as f64);
        layers.set(
            "scenario.invalid_composition_cells",
            self.invalid.len() as f64,
        );
        layers.set("scenario.data_limited_cells", self.data_limited as f64);
        layers.set("exec.workers", WORKERS as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_records::{Catalog, SystemId};

    /// Every cause mix and burst mode of one system over its whole
    /// production life, where a cell's failure count is its trace's size.
    const EVERY_PRESET: &str = r#"
[campaign]
name = "presets"
seed = 11

[fleet]
systems = [12]

[grid]
era = ["full"]
rate_scale = [1.0]
repair_scale = [1.0]
cause_mix = ["lanl", "hardware-heavy", "software-heavy", "uniform"]
burst = ["calibrated", "off", "storm"]
checkpoint = ["none"]
sched = ["none"]
"#;

    #[test]
    fn the_replayed_synthesis_matches_the_cells_own() {
        let spec = CampaignSpec::parse(EVERY_PRESET).unwrap();
        let id = SystemId::new(12);
        let catalog = Catalog::lanl();
        let sys = catalog.system(id).unwrap();
        let cells = expand(&spec);
        assert_eq!(cells.len(), 12);
        for cell in &cells {
            let metrics = evaluate(&spec, cell).unwrap();
            let replayed = cell_builder(&spec, cell)
                .build_system(id)
                .unwrap()
                .filter_window(sys.production_start(), sys.production_end());
            assert_eq!(
                metrics.failures,
                replayed.len() as u64,
                "{:?} {:?}",
                cell.cause_mix,
                cell.burst
            );
        }
    }
}
