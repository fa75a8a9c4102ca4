//! Event-driven cluster simulation: a stream of parallel jobs on a
//! cluster of heterogeneously unreliable nodes, without checkpointing —
//! a node failure aborts every job running on it (restart from scratch),
//! which is precisely the situation where placing long jobs on reliable
//! nodes pays off.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use hpcfail_stats::dist::{Continuous, Exponential, Weibull};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::error::SchedError;
use crate::policy::{Policy, PolicyContext};

/// Ground truth about one simulated node (hidden from the policy, which
/// only sees observed history).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeTruth {
    /// True failure rate, failures per year.
    pub failures_per_year: f64,
    /// Weibull shape of the node's failure process (paper: 0.7–0.8).
    pub weibull_shape: f64,
}

/// One job: `width` nodes for `work_secs` of uninterrupted computation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Nodes required.
    pub width: u32,
    /// Work duration in seconds (restarts from zero on failure).
    pub work_secs: f64,
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Mean node repair time in seconds.
    pub mean_repair_secs: f64,
    /// Give up after this much simulated time.
    pub horizon_secs: f64,
    /// RNG seed.
    pub seed: u64,
}

/// What happened over the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Metrics {
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Job executions aborted by node failures.
    pub aborts: u64,
    /// Node-seconds of completed (useful) work.
    pub useful_node_secs: f64,
    /// Node-seconds thrown away by aborts.
    pub wasted_node_secs: f64,
    /// Time the last job completed (or the horizon).
    pub makespan_secs: f64,
    /// Jobs still unfinished at the horizon.
    pub unfinished: u64,
}

impl Metrics {
    /// Fraction of consumed node-time that was useful.
    pub fn efficiency(&self) -> f64 {
        let total = self.useful_node_secs + self.wasted_node_secs;
        if total <= 0.0 {
            f64::NAN
        } else {
            self.useful_node_secs / total
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    NodeFailure { node: u32 },
    NodeRepaired { node: u32 },
    JobFinish { job: usize, generation: u64 },
}

/// f64 event time with a total order for the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct At(f64);

impl Eq for At {}
impl PartialOrd for At {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for At {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("event times are finite")
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum NodeState {
    Free,
    Busy { job: usize },
    Down,
}

/// Run the simulation with the policy learning failure rates online
/// (it starts knowing nothing about the nodes).
///
/// # Errors
///
/// See [`run_with_prior`].
pub fn run(
    nodes: &[NodeTruth],
    policy: &dyn Policy,
    jobs: &[Job],
    config: &SimConfig,
) -> Result<Metrics, SchedError> {
    run_with_prior(nodes, policy, jobs, config, None)
}

/// Run the simulation: all jobs are queued at time zero and dispatched
/// in FIFO order whenever enough nodes are free.
///
/// `prior_rates`, when given, are per-node failures/year estimates the
/// scheduler starts with — the paper's use case, where years of failure
/// logs exist before the scheduling decision (cf.
/// [`crate::cluster::profiles_from_index`]). Online observations are
/// blended in as the simulation runs.
///
/// # Errors
///
/// [`SchedError::InvalidParameter`] for bad config, node truths, or a
/// prior of the wrong length; [`SchedError::JobTooWide`] if any job
/// exceeds the cluster size.
pub fn run_with_prior(
    nodes: &[NodeTruth],
    policy: &dyn Policy,
    jobs: &[Job],
    config: &SimConfig,
    prior_rates: Option<&[f64]>,
) -> Result<Metrics, SchedError> {
    if nodes.is_empty() {
        return Err(SchedError::InvalidParameter {
            name: "nodes",
            value: 0.0,
        });
    }
    if !config.mean_repair_secs.is_finite() || config.mean_repair_secs <= 0.0 {
        return Err(SchedError::InvalidParameter {
            name: "mean_repair_secs",
            value: config.mean_repair_secs,
        });
    }
    if !config.horizon_secs.is_finite() || config.horizon_secs <= 0.0 {
        return Err(SchedError::InvalidParameter {
            name: "horizon_secs",
            value: config.horizon_secs,
        });
    }
    if let Some(prior) = prior_rates {
        if prior.len() != nodes.len() {
            return Err(SchedError::InvalidParameter {
                name: "prior_rates_len",
                value: prior.len() as f64,
            });
        }
    }
    for job in jobs {
        if job.width == 0 || !job.work_secs.is_finite() || job.work_secs <= 0.0 {
            return Err(SchedError::InvalidParameter {
                name: "job",
                value: job.work_secs,
            });
        }
        if job.width as usize > nodes.len() {
            return Err(SchedError::JobTooWide {
                requested: job.width,
                available: nodes.len() as u32,
            });
        }
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let year = hpcfail_records::time::YEAR as f64;
    let gap_dists: Vec<Weibull> = nodes
        .iter()
        .map(|n| {
            if !n.failures_per_year.is_finite() || n.failures_per_year <= 0.0 {
                return Err(SchedError::InvalidParameter {
                    name: "failures_per_year",
                    value: n.failures_per_year,
                });
            }
            let mean_gap = year / n.failures_per_year;
            Weibull::with_mean(n.weibull_shape, mean_gap).map_err(SchedError::from)
        })
        .collect::<Result<_, _>>()?;
    let repair_dist = Exponential::from_mean(config.mean_repair_secs)?;

    let n = nodes.len();
    let mut state = vec![NodeState::Free; n];
    let mut last_failure = vec![0.0f64; n]; // for uptime observation
    let mut observed_failures = vec![0u64; n];
    let mut events: BinaryHeap<Reverse<(At, usize)>> = BinaryHeap::new();
    let mut event_payload: Vec<Event> = Vec::new();
    let push = |events: &mut BinaryHeap<Reverse<(At, usize)>>,
                payload: &mut Vec<Event>,
                t: f64,
                e: Event| {
        payload.push(e);
        events.push(Reverse((At(t), payload.len() - 1)));
    };

    // Prime each node's first failure.
    for (i, dist) in gap_dists.iter().enumerate() {
        let t = dist.sample(&mut rng);
        push(
            &mut events,
            &mut event_payload,
            t,
            Event::NodeFailure { node: i as u32 },
        );
    }

    // Job bookkeeping.
    let mut queue: VecDeque<usize> = (0..jobs.len()).collect();
    let mut generation = vec![0u64; jobs.len()];
    let mut assigned: Vec<Vec<u32>> = vec![Vec::new(); jobs.len()];
    let mut started_at = vec![0.0f64; jobs.len()];
    let mut done = vec![false; jobs.len()];

    let mut metrics = Metrics::default();
    let mut now = 0.0f64;

    // Dispatch as many queued jobs as currently fit.
    macro_rules! dispatch {
        () => {{
            loop {
                let Some(&job_idx) = queue.front() else { break };
                let job = jobs[job_idx];
                let free: Vec<u32> = (0..n as u32)
                    .filter(|&i| state[i as usize] == NodeState::Free)
                    .collect();
                if (free.len() as u32) < job.width {
                    break;
                }
                queue.pop_front();
                // Blend any prior knowledge (weighted as 3 years of
                // history) with online observations.
                let rates: Vec<f64> = (0..n)
                    .map(|i| {
                        let years = now / year;
                        let (pseudo_fail, pseudo_years) = match prior_rates {
                            Some(p) => (p[i] * 3.0, 3.0),
                            None => (0.0, 1.0 / 365.25),
                        };
                        (observed_failures[i] as f64 + pseudo_fail) / (years + pseudo_years)
                    })
                    .collect();
                let uptimes: Vec<f64> = (0..n).map(|i| now - last_failure[i]).collect();
                let ctx = PolicyContext {
                    observed_rate: &rates,
                    uptime_secs: &uptimes,
                };
                let picked = policy.select(&free, &ctx, job.width as usize, &mut rng);
                debug_assert_eq!(picked.len(), job.width as usize);
                for &node in &picked {
                    state[node as usize] = NodeState::Busy { job: job_idx };
                }
                assigned[job_idx] = picked;
                started_at[job_idx] = now;
                push(
                    &mut events,
                    &mut event_payload,
                    now + job.work_secs,
                    Event::JobFinish {
                        job: job_idx,
                        generation: generation[job_idx],
                    },
                );
            }
        }};
    }

    dispatch!();

    while let Some(Reverse((At(t), idx))) = events.pop() {
        if t > config.horizon_secs {
            break;
        }
        now = t;
        if done.iter().all(|&d| d) {
            break;
        }
        match event_payload[idx] {
            Event::NodeFailure { node } => {
                let i = node as usize;
                observed_failures[i] += 1;
                last_failure[i] = now;
                let prev = state[i];
                state[i] = NodeState::Down;
                // Abort any job running on this node.
                if let NodeState::Busy { job } = prev {
                    metrics.aborts += 1;
                    let elapsed = now - started_at[job];
                    metrics.wasted_node_secs += elapsed * jobs[job].width as f64;
                    generation[job] += 1; // invalidates its JobFinish event
                    for &other in &assigned[job] {
                        if other != node
                            && matches!(state[other as usize], NodeState::Busy { job: j } if j == job)
                        {
                            state[other as usize] = NodeState::Free;
                        }
                    }
                    assigned[job].clear();
                    queue.push_back(job);
                }
                let repair = {
                    let mut r: &mut StdRng = &mut rng;
                    repair_dist.sample(&mut r)
                };
                push(
                    &mut events,
                    &mut event_payload,
                    now + repair,
                    Event::NodeRepaired { node },
                );
            }
            Event::NodeRepaired { node } => {
                let i = node as usize;
                state[i] = NodeState::Free;
                last_failure[i] = now; // uptime restarts after repair
                let gap = {
                    let mut r: &mut StdRng = &mut rng;
                    gap_dists[i].sample(&mut r)
                };
                push(
                    &mut events,
                    &mut event_payload,
                    now + gap,
                    Event::NodeFailure { node },
                );
                dispatch!();
            }
            Event::JobFinish {
                job,
                generation: gen,
            } => {
                if gen != generation[job] || done[job] {
                    continue; // stale event from an aborted execution
                }
                done[job] = true;
                metrics.completed += 1;
                metrics.useful_node_secs += jobs[job].work_secs * jobs[job].width as f64;
                metrics.makespan_secs = now;
                for &node in &assigned[job] {
                    if matches!(state[node as usize], NodeState::Busy { job: j } if j == job) {
                        state[node as usize] = NodeState::Free;
                    }
                }
                assigned[job].clear();
                dispatch!();
            }
        }
    }

    metrics.unfinished = done.iter().filter(|&&d| !d).count() as u64;
    if metrics.unfinished > 0 {
        metrics.makespan_secs = config.horizon_secs;
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{LeastFailureRate, LongestUptime, RandomPlacement};

    fn homogeneous_nodes(n: usize, rate: f64) -> Vec<NodeTruth> {
        vec![
            NodeTruth {
                failures_per_year: rate,
                weibull_shape: 0.75
            };
            n
        ]
    }

    /// Half the cluster fails 20× more often — the Fig 3(a) situation.
    fn heterogeneous_nodes(n: usize) -> Vec<NodeTruth> {
        (0..n)
            .map(|i| NodeTruth {
                failures_per_year: if i % 2 == 0 { 40.0 } else { 2.0 },
                weibull_shape: 0.75,
            })
            .collect()
    }

    fn jobs(count: usize, width: u32, hours: f64) -> Vec<Job> {
        vec![
            Job {
                width,
                work_secs: hours * 3_600.0
            };
            count
        ]
    }

    fn config(seed: u64) -> SimConfig {
        SimConfig {
            mean_repair_secs: 6.0 * 3_600.0, // ~Table 2 "All" mean
            horizon_secs: 2.0 * hpcfail_records::time::YEAR as f64,
            seed,
        }
    }

    #[test]
    fn validation_errors() {
        let nodes = homogeneous_nodes(4, 10.0);
        let c = config(1);
        assert!(run(&[], &RandomPlacement, &jobs(1, 1, 1.0), &c).is_err());
        assert!(matches!(
            run(&nodes, &RandomPlacement, &jobs(1, 5, 1.0), &c),
            Err(SchedError::JobTooWide { .. })
        ));
        let mut bad = c;
        bad.mean_repair_secs = 0.0;
        assert!(run(&nodes, &RandomPlacement, &jobs(1, 1, 1.0), &bad).is_err());
        let zero_rate = vec![NodeTruth {
            failures_per_year: 0.0,
            weibull_shape: 0.75,
        }];
        assert!(run(&zero_rate, &RandomPlacement, &jobs(1, 1, 1.0), &c).is_err());
        assert!(run(
            &nodes,
            &RandomPlacement,
            &[Job {
                width: 0,
                work_secs: 1.0
            }],
            &c
        )
        .is_err());
    }

    #[test]
    fn reliable_cluster_completes_everything() {
        // One failure per decade per node: every job completes, no aborts.
        let nodes = homogeneous_nodes(8, 0.1);
        let m = run(&nodes, &RandomPlacement, &jobs(20, 2, 2.0), &config(3)).unwrap();
        assert_eq!(m.completed, 20);
        assert_eq!(m.unfinished, 0);
        assert_eq!(m.aborts, 0);
        assert!((m.efficiency() - 1.0).abs() < 1e-9);
        // 20 jobs × 2h ÷ 4 slots of width 2 → makespan ≥ 10h.
        assert!(m.makespan_secs >= 10.0 * 3_600.0 - 1.0);
    }

    #[test]
    fn unreliable_cluster_wastes_work() {
        // ~1 failure/node/day with week-long jobs → plenty of aborts.
        let nodes = homogeneous_nodes(8, 365.0);
        let m = run(
            &nodes,
            &RandomPlacement,
            &jobs(10, 2, 24.0 * 7.0),
            &config(4),
        )
        .unwrap();
        assert!(m.aborts > 0);
        assert!(m.wasted_node_secs > 0.0);
        assert!(m.efficiency() < 1.0);
    }

    #[test]
    fn useful_work_accounting() {
        let nodes = homogeneous_nodes(4, 1.0);
        let js = jobs(6, 2, 5.0);
        let m = run(&nodes, &RandomPlacement, &js, &config(5)).unwrap();
        let expected_useful: f64 = js
            .iter()
            .take(m.completed as usize)
            .map(|j| j.work_secs * j.width as f64)
            .sum();
        assert!((m.useful_node_secs - expected_useful).abs() < 1e-6);
    }

    #[test]
    fn reliability_aware_beats_random_on_heterogeneous_cluster() {
        // 16 nodes, half of them 20× flakier; the cluster is under-
        // subscribed (8 narrow jobs), so an informed policy can avoid the
        // flaky half entirely while random placement cannot. The aware
        // policy starts from historical rate estimates (the paper's
        // scenario — years of failure logs exist).
        let nodes = heterogeneous_nodes(16);
        let prior: Vec<f64> = nodes.iter().map(|t| t.failures_per_year).collect();
        let js = jobs(8, 1, 24.0 * 5.0); // five-day jobs
        let mut rand_eff = 0.0;
        let mut aware_eff = 0.0;
        let seeds = 5;
        for seed in 0..seeds {
            let c = config(seed);
            rand_eff += run(&nodes, &RandomPlacement, &js, &c).unwrap().efficiency();
            aware_eff += run_with_prior(&nodes, &LeastFailureRate, &js, &c, Some(&prior))
                .unwrap()
                .efficiency();
        }
        rand_eff /= seeds as f64;
        aware_eff /= seeds as f64;
        assert!(
            aware_eff > rand_eff + 0.03,
            "aware {aware_eff} vs random {rand_eff}"
        );
    }

    #[test]
    fn prior_length_validated() {
        let nodes = heterogeneous_nodes(4);
        let c = config(1);
        let bad_prior = vec![1.0; 3];
        assert!(run_with_prior(
            &nodes,
            &LeastFailureRate,
            &jobs(1, 1, 1.0),
            &c,
            Some(&bad_prior)
        )
        .is_err());
    }

    #[test]
    fn longest_uptime_policy_runs() {
        // Smoke coverage for the hazard-exploiting policy on a uniform
        // cluster (its advantage needs decreasing hazard within nodes;
        // here we only assert it completes the workload sensibly).
        let nodes = homogeneous_nodes(8, 12.0);
        let m = run(&nodes, &LongestUptime, &jobs(12, 2, 12.0), &config(6)).unwrap();
        assert!(m.completed + m.unfinished == 12);
        assert!(m.efficiency() > 0.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let nodes = heterogeneous_nodes(8);
        let js = jobs(10, 2, 10.0);
        let a = run(&nodes, &RandomPlacement, &js, &config(9)).unwrap();
        let b = run(&nodes, &RandomPlacement, &js, &config(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn horizon_caps_runaway_workload() {
        // Impossible workload: node fails ~hourly, jobs need a month.
        let nodes = homogeneous_nodes(2, 8_760.0);
        let mut c = config(10);
        c.horizon_secs = 30.0 * 86_400.0;
        let m = run(&nodes, &RandomPlacement, &jobs(3, 1, 24.0 * 30.0), &c).unwrap();
        assert!(m.unfinished > 0);
        assert_eq!(m.makespan_secs, c.horizon_secs);
    }
}
