//! `serve_mixed`: an in-process `hpcfail serve` on loopback, driven over
//! real TCP by a closed loop of one client.
//!
//! The tenant is the paper-scale site trace, packed as `.hpct` and
//! loaded from that file, so a reload re-opens it through `records`.
//! The client replays `serve::load::plan_workload` over the stratum pool,
//! with no think time so the loop measures the server rather than the
//! planned sleeps. Every [`CYCLE`] requests it sends `POST /v1/reload` (a
//! write). A warm request is a cache hit: http, router, cache and render
//! are its path. The first request for each stratum after a reload
//! misses, and runs its `core` analysis on the freshly opened index.
//! The client keeps those cold latencies apart, by stratum. `slow_ms` is
//! the mean over the strata of each one's lower-quartile cold latency, so
//! every stratum's cold path moves it. The mix's p99 would sit among the
//! few slowest strata, where a run with more scheduler stalls on warm
//! requests pushes it from one stratum's cluster to the next.
//! A second client on a two-core host doubled the run-to-run spread.
//!
//! Every answer must be a 200 whose body is byte-identical to the one
//! the stratum gave at set-up, whatever the tenant's generation.
//!
//! The traced run also replays, outside the server, the ingest that
//! builds such a tenant from a corrupted CSV and the analysis battery its
//! cold requests draw on, to split `records`, `core` and `stats` time by
//! layer.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hpcfail_records::TraceStore;
use hpcfail_serve::chaos::{fetch, ChaosTiming};
use hpcfail_serve::load::{percentile_nearest_rank, plan_workload, stratum_pool, PlannedRequest};
use hpcfail_serve::{spawn, AppState, ServeConfig, ServerHandle, TenantSource};

use crate::analyze::Analyze;
use crate::ingest::Ingest;
use crate::report::{median, Layers, Phase};
use crate::tracer::Tracer;
use crate::{Config, Workload};

const TENANT: &str = "site";
/// Requests planned for the client; the plan is replayed cyclically.
const PLAN_LEN: usize = 4096;
/// GETs between reloads. The first GET of each of the 10 strata after a
/// reload misses the cache, so 4% of requests are cold: p50 reads the
/// warm path and p99 the cold one.
const CYCLE: usize = 250;
/// Ingest and analysis replays in the traced run; the per-layer figures
/// are their medians.
const REPLAYS: usize = 9;
const SMOKE_REPLAYS: usize = 1;

/// Cache and resilience counters, read between phases.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    shed: u64,
    deadline_hits: u64,
}

/// The `serve_mixed` workload.
pub struct Serve {
    state: Arc<AppState>,
    // Dropping the handle stops the server and joins its threads.
    _server: ServerHandle,
    addr: SocketAddr,
    expected: HashMap<String, String>,
    plan: Vec<PlannedRequest>,
    records: usize,
    seed: u64,
    replays: usize,
    hpct_bytes: u64,
    /// Counters at the first measured step.
    first: Option<Counters>,
    /// Reload cycles, GETs and their response bytes since then.
    cycles: u64,
    requests: u64,
    body_bytes: usize,
    /// Latency of each first request for a stratum after a reload, by
    /// stratum.
    cold_ms: BTreeMap<String, Vec<f64>>,
    /// Latencies of the other requests.
    warm_latency: Phase,
}

impl Serve {
    fn counters(&self) -> Counters {
        let m = &self.state.metrics;
        Counters {
            hits: self.state.cache.hits(),
            misses: self.state.cache.misses(),
            shed: m.shed.load(Ordering::Relaxed),
            deadline_hits: m.deadline_hits.load(Ordering::Relaxed),
        }
    }

    /// GET `path`; whether the answer is a 200 with the expected body,
    /// and the body's length.
    fn get(&self, path: &str, timing: &ChaosTiming) -> (bool, usize) {
        match fetch(self.addr, timing, path) {
            Ok((status, _, body)) => {
                let ok = status == 200 && self.expected.get(path) == Some(&body);
                (ok, body.len())
            }
            Err(_) => (false, 0),
        }
    }

    /// Cycles of one reload and [`CYCLE`] GETs until `budget` is spent.
    fn mixed_phase(&mut self, budget: Duration, tracer: &mut Tracer) -> Phase {
        let timing = ChaosTiming::default();
        let reload = format!("/v1/reload?trace={TENANT}");
        let mut phase = Phase::default();
        let mut warm = HashSet::new();
        let start = Instant::now();
        for (i, req) in self.plan.iter().cycle().enumerate() {
            if i % CYCLE == 0 {
                // Whole cycles only, so every run has the same miss share.
                if i > 0 && start.elapsed() >= budget {
                    break;
                }
                let span = tracer.open("serve.reload");
                let reloaded = post(self.addr, &reload, &timing).is_ok_and(|status| status == 200);
                tracer.close(span);
                phase.count(reloaded);
                warm.clear();
                self.cycles += 1;
            }
            let span = tracer.open("serve.request");
            let t0 = Instant::now();
            let (ok, len) = self.get(&req.path, &timing);
            let latency = t0.elapsed().as_secs_f64();
            tracer.close(span);
            if warm.insert(req.path.as_str()) {
                self.cold_ms.entry(req.path.clone()).or_default().push(latency * 1e3);
            } else {
                self.warm_latency.record(latency, true);
            }
            self.requests += 1;
            self.body_bytes += len;
            phase.record(latency, ok);
        }
        phase
    }
}

/// `POST target` with an empty body; the response status.
fn post(addr: SocketAddr, target: &str, timing: &ChaosTiming) -> std::io::Result<u16> {
    let mut conn = TcpStream::connect_timeout(&addr, timing.connect_timeout)?;
    conn.set_read_timeout(Some(timing.io_timeout))?;
    conn.set_write_timeout(Some(timing.io_timeout))?;
    conn.write_all(
        format!("POST {target} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: 0\r\n\r\n")
            .as_bytes(),
    )?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw)?;
    String::from_utf8_lossy(&raw)
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line"))
}

impl Workload for Serve {
    fn setup(cfg: &Config, tracer: &mut Tracer) -> Result<Self, String> {
        let span = tracer.open("synth.generate");
        let trace = hpcfail_synth::scenario::site_trace(cfg.seed);
        tracer.close(span);
        let trace = trace.map_err(|e| format!("generating the site trace: {e}"))?;
        let path = cfg.scratch.join("site.hpct");
        let hpct_bytes = TraceStore::write(&trace.index(), &path)
            .map_err(|e| format!("packing {}: {e}", path.display()))?;

        let state = Arc::new(AppState::new());
        state
            .registry
            .insert(TENANT, TenantSource::File(path))
            .map_err(|e| format!("loading the tenant: {e}"))?;
        let server =
            spawn(state.clone(), &ServeConfig::default()).map_err(|e| format!("binding: {e}"))?;
        let addr = server.addr();

        // Warm the cache, keeping each stratum's body as the expected one.
        let timing = ChaosTiming::default();
        let strata = stratum_pool(TENANT);
        let mut expected = HashMap::new();
        for path in &strata {
            match fetch(addr, &timing, path) {
                Ok((200, _, body)) => expected.insert(path.clone(), body),
                Ok((status, _, body)) => return Err(format!("{path}: status {status}: {body}")),
                Err(e) => return Err(format!("{path}: {e}")),
            };
        }
        Ok(Serve {
            state,
            _server: server,
            addr,
            expected,
            plan: plan_workload(cfg.seed, 1, PLAN_LEN, TENANT).swap_remove(0),
            records: trace.len(),
            seed: cfg.seed,
            replays: if cfg.smoke { SMOKE_REPLAYS } else { REPLAYS },
            hpct_bytes,
            first: None,
            cycles: 0,
            requests: 0,
            body_bytes: 0,
            cold_ms: BTreeMap::new(),
            warm_latency: Phase::default(),
        })
    }

    fn phase(&mut self, budget: Duration, tracer: &mut Tracer) -> Phase {
        if self.first.is_none() {
            self.first = Some(self.counters());
        }
        self.mixed_phase(budget, tracer)
    }

    // Every phase runs at least one cycle, so every stratum has a sample.
    // The lower quartile is a stratum's cold cost when the host did not
    // take the CPU away mid-request; medians moved twice as far with it.
    fn slow_ms(&self, _phase: &Phase) -> f64 {
        let quartiles = self.cold_ms.values().map(|v| percentile_nearest_rank(v, 0.25));
        quartiles.sum::<f64>() / self.cold_ms.len() as f64
    }

    fn layers(&mut self, tracer: &mut Tracer, layers: &mut Layers, checks: &mut Phase) {
        // The tenant's trace again; set-up does not keep it, so that it
        // stays out of `peak_heap_mb`.
        let Ok(trace) = hpcfail_synth::scenario::site_trace(self.seed) else {
            checks.count(false);
            return;
        };
        let mut ingest = Ingest::new(&trace, self.seed);
        let analyze = Analyze::new(&trace);
        for _ in 0..self.replays {
            checks.count(ingest.replay(tracer));
            checks.count(analyze.replay(tracer));
        }
        ingest.layers(layers);
        analyze.layers(layers);

        let (first, now) = (self.first.unwrap_or_default(), self.counters());
        let (hits, misses) = (now.hits - first.hits, now.misses - first.misses);
        layers.set(
            "serve.cache_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        layers.set(
            "serve.cache_misses_per_cycle",
            misses as f64 / self.cycles.max(1) as f64,
        );
        layers.set("serve.shed", (now.shed - first.shed) as f64);
        layers.set(
            "serve.deadline_hits",
            (now.deadline_hits - first.deadline_hits) as f64,
        );
        layers.set(
            "serve.response_bytes_per_req",
            self.body_bytes as f64 / self.requests.max(1) as f64,
        );
        let cold: Vec<f64> = self.cold_ms.values().flatten().copied().collect();
        if !cold.is_empty() {
            layers.set("serve.cold_p50_ms", median(&cold));
            layers.set("serve.cold_p95_ms", percentile_nearest_rank(&cold, 0.95));
        }
        if self.warm_latency.samples > 0 {
            layers.set("serve.warm_p50_ms", self.warm_latency.p50_ms());
            layers.set("serve.warm_p99_ms", self.warm_latency.percentile_ms(0.99));
        }
        layers.set(
            "records.hpct_bytes_per_record",
            self.hpct_bytes as f64 / self.records as f64,
        );
        layers.set("synth.records_generated", self.records as f64);
    }
}
