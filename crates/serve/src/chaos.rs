//! Deterministic socket-level fault injection for the serve layer.
//!
//! The network-facing sibling of `records::corrupt`: where the ingest
//! corruptor mutates CSV bytes, this module drives *real TCP
//! connections* at a live server with a weighted mix of the client
//! behaviors that wedge naive servers — connect-then-idle holds,
//! byte-at-a-time slow-loris trickles, partial requests followed by an
//! abrupt reset, mid-response aborts, oversized header floods, and
//! corrupted request bytes.
//!
//! Every decision (fault vs. control, fault kind, cut points, flip
//! positions) is drawn from SplitMix64 seed streams, so a
//! [`ChaosPlan`] is exactly replayable: `(plan, control count)` fully
//! determines the op sequence [`plan_ops`] emits. Execution timing is
//! real wall clock — what stays deterministic is *what* is thrown at
//! the server and the acceptance contract checked afterwards:
//!
//! * the server never panics and never leaks a worker,
//! * shedding stays bounded and typed (`503` + `retry-after`),
//! * clean control requests keep being answered with bodies
//!   byte-identical to the fault-free responses, throughout.
//!
//! `tests/serve_chaos.rs` sweeps fault rates × mixes × shuffle over
//! this harness; `serve_load` reuses it for the degraded-mode rows in
//! `experiments/BENCH_serve.json`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hpcfail_exec::{derive_stream_seed, pick_weighted, splitmix64, unit_f64};

/// One socket-level fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Connect, send nothing, hold the socket open, close.
    ConnectIdle,
    /// Slow-loris: send a valid request one byte at a time, usually
    /// giving up partway through.
    Trickle,
    /// Send a partial request, then drop the connection abruptly.
    PartialThenReset,
    /// Send a full request, read a few response bytes, drop.
    MidResponseAbort,
    /// Flood an oversized, never-terminating header.
    Flood,
    /// Send a valid request with seeded byte flips.
    CorruptBytes,
}

/// All fault kinds in a stable order (report rendering, weights).
pub const ALL_FAULTS: [NetFault; 6] = [
    NetFault::ConnectIdle,
    NetFault::Trickle,
    NetFault::PartialThenReset,
    NetFault::MidResponseAbort,
    NetFault::Flood,
    NetFault::CorruptBytes,
];

impl NetFault {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            NetFault::ConnectIdle => "connect_idle",
            NetFault::Trickle => "trickle",
            NetFault::PartialThenReset => "partial_reset",
            NetFault::MidResponseAbort => "mid_response_abort",
            NetFault::Flood => "flood",
            NetFault::CorruptBytes => "corrupt_bytes",
        }
    }

    fn index(self) -> usize {
        ALL_FAULTS.iter().position(|&f| f == self).expect("listed")
    }
}

/// Relative weights of the fault kinds. A weight of zero disables that
/// kind (mirrors `records::corrupt::FaultMix`; both draw through
/// [`hpcfail_exec::pick_weighted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFaultMix {
    /// Weight of [`NetFault::ConnectIdle`].
    pub connect_idle: u32,
    /// Weight of [`NetFault::Trickle`].
    pub trickle: u32,
    /// Weight of [`NetFault::PartialThenReset`].
    pub partial_reset: u32,
    /// Weight of [`NetFault::MidResponseAbort`].
    pub mid_response_abort: u32,
    /// Weight of [`NetFault::Flood`].
    pub flood: u32,
    /// Weight of [`NetFault::CorruptBytes`].
    pub corrupt_bytes: u32,
}

impl NetFaultMix {
    /// All fault kinds equally likely.
    pub fn uniform() -> NetFaultMix {
        NetFaultMix {
            connect_idle: 1,
            trickle: 1,
            partial_reset: 1,
            mid_response_abort: 1,
            flood: 1,
            corrupt_bytes: 1,
        }
    }

    /// Worker-hostage mix: idles and trickles dominate.
    pub fn trickle_heavy() -> NetFaultMix {
        NetFaultMix {
            connect_idle: 3,
            trickle: 4,
            partial_reset: 1,
            mid_response_abort: 1,
            flood: 0,
            corrupt_bytes: 1,
        }
    }

    /// Byte-pressure mix: floods and corruption dominate.
    pub fn flood_heavy() -> NetFaultMix {
        NetFaultMix {
            connect_idle: 0,
            trickle: 1,
            partial_reset: 1,
            mid_response_abort: 1,
            flood: 4,
            corrupt_bytes: 3,
        }
    }

    fn weighted(&self) -> [(NetFault, u32); 6] {
        [
            (NetFault::ConnectIdle, self.connect_idle),
            (NetFault::Trickle, self.trickle),
            (NetFault::PartialThenReset, self.partial_reset),
            (NetFault::MidResponseAbort, self.mid_response_abort),
            (NetFault::Flood, self.flood),
            (NetFault::CorruptBytes, self.corrupt_bytes),
        ]
    }
}

impl Default for NetFaultMix {
    fn default() -> Self {
        NetFaultMix::uniform()
    }
}

/// A complete, replayable description of one chaos run: `(plan,
/// control-target count)` fully determines the op sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Root seed for all randomness.
    pub seed: u64,
    /// Probability in `[0, 1]` that any given op is a fault.
    pub rate: f64,
    /// Relative weights of the fault kinds.
    pub mix: NetFaultMix,
    /// Total ops (faults + clean control requests).
    pub ops: usize,
    /// Shuffle the op order (Fisher–Yates, seeded).
    pub shuffle: bool,
}

impl ChaosPlan {
    /// A uniform-mix, unshuffled plan of 32 ops.
    pub fn new(seed: u64, rate: f64) -> ChaosPlan {
        ChaosPlan {
            seed,
            rate,
            mix: NetFaultMix::uniform(),
            ops: 32,
            shuffle: false,
        }
    }
}

/// One planned op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosOp {
    /// A clean control request against `controls[pick]`; its body must
    /// be byte-identical to the recorded fault-free response.
    Control {
        /// Index into the control-target slice.
        pick: usize,
    },
    /// One injected fault with its own derived seed.
    Fault {
        /// The fault kind.
        fault: NetFault,
        /// Seed for the fault's internal decisions (cut points, flips).
        seed: u64,
    },
}

const PLAN_STREAM: u64 = 0xC4A0_57A6;
const SHUFFLE_STREAM: u64 = 0x5EED_F1A7;

/// Expand a plan into its op sequence — a pure function of `(plan,
/// controls)`, replayable forever.
pub fn plan_ops(plan: &ChaosPlan, controls: usize) -> Vec<ChaosOp> {
    let mut stream = derive_stream_seed(plan.seed, PLAN_STREAM);
    let mut ops: Vec<ChaosOp> = (0..plan.ops)
        .map(|_| {
            let roll = unit_f64(splitmix64(&mut stream));
            // An all-zero mix draws nothing and yields a control op.
            let fault = if roll < plan.rate {
                pick_weighted(&plan.mix.weighted(), || splitmix64(&mut stream))
            } else {
                None
            };
            match fault {
                Some(fault) => ChaosOp::Fault {
                    fault,
                    seed: splitmix64(&mut stream),
                },
                None => ChaosOp::Control {
                    pick: splitmix64(&mut stream) as usize % controls.max(1),
                },
            }
        })
        .collect();
    if plan.shuffle {
        let mut s = derive_stream_seed(plan.seed, SHUFFLE_STREAM);
        for i in (1..ops.len()).rev() {
            let j = splitmix64(&mut s) as usize % (i + 1);
            ops.swap(i, j);
        }
    }
    ops
}

/// Client-side timing knobs for a chaos run. All holds and gaps are
/// bounded, so a whole run's wall clock is bounded too.
#[derive(Debug, Clone)]
pub struct ChaosTiming {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-socket read/write timeout.
    pub io_timeout: Duration,
    /// How long a `ConnectIdle` fault holds its silent socket.
    pub idle_hold: Duration,
    /// Gap between bytes in a `Trickle` fault.
    pub trickle_gap: Duration,
    /// Max bytes a `Trickle` fault sends before giving up.
    pub trickle_max_bytes: usize,
    /// Control-request retry budget (shed/error → backoff → retry).
    pub retry_limit: u32,
    /// Cap on one backoff sleep (keeps tests and benches fast while
    /// still honoring `retry-after` as the base).
    pub backoff_cap: Duration,
}

impl Default for ChaosTiming {
    fn default() -> Self {
        ChaosTiming {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(2),
            idle_hold: Duration::from_millis(100),
            trickle_gap: Duration::from_millis(2),
            trickle_max_bytes: 48,
            retry_limit: 8,
            backoff_cap: Duration::from_millis(50),
        }
    }
}

/// One clean-request target with its recorded fault-free body.
#[derive(Debug, Clone)]
pub struct ControlTarget {
    /// Request target (path + query), e.g. `/v1/synth/tbf`.
    pub target: String,
    /// The body a fault-free server returns for it, byte-exact.
    pub expected: String,
}

/// What one chaos run observed.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Clean control requests attempted.
    pub controls: u64,
    /// Controls answered 200 + byte-identical on the first try.
    pub ok_first_try: u64,
    /// Retry attempts spent across all controls.
    pub retries: u64,
    /// `503` sheds observed on the control path.
    pub shed_seen: u64,
    /// Controls whose 200 body differed from the fault-free body.
    pub mismatches: Vec<String>,
    /// Controls that never got a good answer within the retry budget.
    pub failures: Vec<String>,
    /// Faults injected.
    pub faults: u64,
    /// Injected-fault counts, indexed like [`ALL_FAULTS`].
    pub fault_counts: [u64; 6],
    /// End-to-end latency (ms, including retries) of every control
    /// that eventually succeeded.
    pub control_latencies_ms: Vec<f64>,
}

impl ChaosReport {
    /// First-try availability of clean requests: `ok_first_try /
    /// controls` (1.0 when no controls ran).
    pub fn availability(&self) -> f64 {
        if self.controls == 0 {
            return 1.0;
        }
        self.ok_first_try as f64 / self.controls as f64
    }

    /// Fold another report (a worker thread's share) into this one.
    pub fn merge(&mut self, other: ChaosReport) {
        self.controls += other.controls;
        self.ok_first_try += other.ok_first_try;
        self.retries += other.retries;
        self.shed_seen += other.shed_seen;
        self.mismatches.extend(other.mismatches);
        self.failures.extend(other.failures);
        self.faults += other.faults;
        for (into, from) in self.fault_counts.iter_mut().zip(other.fault_counts) {
            *into += from;
        }
        self.control_latencies_ms.extend(other.control_latencies_ms);
    }

    /// `(name, count)` rows in [`ALL_FAULTS`] order.
    pub fn fault_rows(&self) -> Vec<(&'static str, u64)> {
        ALL_FAULTS
            .iter()
            .map(|f| (f.name(), self.fault_counts[f.index()]))
            .collect()
    }
}

/// Jittered exponential backoff honoring a server `retry-after` hint.
///
/// The delay doubles with `attempt`, never undercuts the hint (both
/// clamped to `cap` — benches and tests cap at tens of milliseconds,
/// production clients can pass seconds), and jitters uniformly in
/// `[half, full]` off a SplitMix64 stream so replayed schedules are
/// deterministic and synchronized clients don't stampede in phase.
pub fn backoff_delay(
    attempt: u32,
    retry_after_secs: Option<u64>,
    cap: Duration,
    stream: &mut u64,
) -> Duration {
    let cap_ms = cap.as_millis().max(1) as u64;
    let hint_ms = retry_after_secs
        .map(|s| s.saturating_mul(1_000))
        .unwrap_or(0)
        .min(cap_ms);
    let exp_ms = 2u64
        .saturating_pow(attempt.min(16))
        .saturating_mul(2)
        .min(cap_ms);
    let full = hint_ms.max(exp_ms).max(1);
    let jittered = full / 2 + splitmix64(stream) % (full - full / 2 + 1);
    Duration::from_millis(jittered)
}

/// Issue one HTTP/1.1 GET and read the whole response. Returns
/// `(status, retry_after, body)`.
///
/// # Errors
///
/// Any socket-level failure (connect, send, read, or an unparsable
/// status line) as `std::io::Error`.
pub fn fetch(
    addr: SocketAddr,
    timing: &ChaosTiming,
    target: &str,
) -> std::io::Result<(u16, Option<u64>, String)> {
    let mut conn = TcpStream::connect_timeout(&addr, timing.connect_timeout)?;
    let _ = conn.set_read_timeout(Some(timing.io_timeout));
    let _ = conn.set_write_timeout(Some(timing.io_timeout));
    conn.write_all(format!("GET {target} HTTP/1.1\r\nhost: chaos\r\n\r\n").as_bytes())?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no head/body split"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line"))?;
    let retry_after = head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("retry-after")
            .then(|| value.trim().parse().ok())?
    });
    Ok((status, retry_after, body.to_string()))
}

/// Run a chaos plan against a live server with `threads` concurrent
/// injector threads (ops are dealt round-robin, so the partition is
/// deterministic even though wall-clock interleaving is not).
pub fn run_chaos(
    addr: SocketAddr,
    timing: &ChaosTiming,
    plan: &ChaosPlan,
    controls: &[ControlTarget],
    threads: usize,
) -> ChaosReport {
    assert!(!controls.is_empty(), "chaos needs at least one control target");
    let ops = plan_ops(plan, controls.len());
    let threads = threads.clamp(1, 16);
    let shares: Vec<Vec<(usize, ChaosOp)>> = (0..threads)
        .map(|t| {
            ops.iter()
                .enumerate()
                .skip(t)
                .step_by(threads)
                .map(|(i, op)| (i, *op))
                .collect()
        })
        .collect();
    let mut report = ChaosReport::default();
    let partials = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .map(|share| {
                scope.spawn(move || {
                    let mut local = ChaosReport::default();
                    for &(i, op) in share {
                        let mut rng = derive_stream_seed(plan.seed, 0xBACC_0FF ^ i as u64);
                        execute_op(addr, timing, op, controls, &mut rng, &mut local);
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chaos injector thread"))
            .collect::<Vec<_>>()
    });
    for partial in partials {
        report.merge(partial);
    }
    report
}

fn execute_op(
    addr: SocketAddr,
    timing: &ChaosTiming,
    op: ChaosOp,
    controls: &[ControlTarget],
    rng: &mut u64,
    report: &mut ChaosReport,
) {
    match op {
        ChaosOp::Control { pick } => run_control(addr, timing, &controls[pick], rng, report),
        ChaosOp::Fault { fault, seed } => {
            report.faults += 1;
            report.fault_counts[fault.index()] += 1;
            let mut s = seed;
            inject_fault(addr, timing, fault, &mut s, controls);
        }
    }
}

fn run_control(
    addr: SocketAddr,
    timing: &ChaosTiming,
    control: &ControlTarget,
    rng: &mut u64,
    report: &mut ChaosReport,
) {
    report.controls += 1;
    let t0 = Instant::now();
    for attempt in 0..timing.retry_limit {
        match fetch(addr, timing, &control.target) {
            Ok((200, _, body)) => {
                if body == control.expected {
                    if attempt == 0 {
                        report.ok_first_try += 1;
                    }
                    report
                        .control_latencies_ms
                        .push(t0.elapsed().as_secs_f64() * 1e3);
                } else {
                    report.mismatches.push(format!(
                        "{}: body diverged from the fault-free response",
                        control.target
                    ));
                }
                return;
            }
            Ok((503, retry_after, _)) => {
                report.shed_seen += 1;
                report.retries += 1;
                std::thread::sleep(backoff_delay(attempt, retry_after, timing.backoff_cap, rng));
            }
            Ok((status, _, _)) => {
                report
                    .mismatches
                    .push(format!("{}: unexpected status {status}", control.target));
                return;
            }
            Err(_) => {
                // Transient socket failure (accept backlog churn):
                // retry on the same budget as a shed.
                report.retries += 1;
                std::thread::sleep(backoff_delay(attempt, None, timing.backoff_cap, rng));
            }
        }
    }
    report.failures.push(control.target.clone());
}

/// A structurally valid request to maul, aimed at a seeded control
/// target.
fn valid_request(controls: &[ControlTarget], s: &mut u64) -> Vec<u8> {
    let target = &controls[splitmix64(s) as usize % controls.len()].target;
    format!("GET {target} HTTP/1.1\r\nhost: chaos\r\naccept: application/json\r\n\r\n").into_bytes()
}

/// Throw one fault at the server. Every socket error is swallowed —
/// the *server's* reaction is what the harness certifies, and a peer
/// that cut us off early is a success for the server.
fn inject_fault(
    addr: SocketAddr,
    timing: &ChaosTiming,
    fault: NetFault,
    s: &mut u64,
    controls: &[ControlTarget],
) {
    let Ok(mut conn) = TcpStream::connect_timeout(&addr, timing.connect_timeout) else {
        return;
    };
    let _ = conn.set_read_timeout(Some(timing.io_timeout));
    let _ = conn.set_write_timeout(Some(timing.io_timeout));
    match fault {
        NetFault::ConnectIdle => {
            std::thread::sleep(timing.idle_hold);
        }
        NetFault::Trickle => {
            let bytes = valid_request(controls, s);
            let cut = (splitmix64(s) as usize % (bytes.len() + 1)).min(timing.trickle_max_bytes);
            for b in &bytes[..cut] {
                if conn.write_all(&[*b]).is_err() {
                    break;
                }
                std::thread::sleep(timing.trickle_gap);
            }
            // Usually gives up mid-head; when the cut covers the whole
            // request, collect the response like a (slow) client would.
            if cut == bytes.len() {
                let mut sink = Vec::new();
                let _ = conn.read_to_end(&mut sink);
            }
        }
        NetFault::PartialThenReset => {
            let bytes = valid_request(controls, s);
            let cut = 1 + splitmix64(s) as usize % (bytes.len() - 1);
            let _ = conn.write_all(&bytes[..cut]);
            // Abrupt drop with the request half-sent.
        }
        NetFault::MidResponseAbort => {
            let bytes = valid_request(controls, s);
            if conn.write_all(&bytes).is_ok() {
                let take = 1 + splitmix64(s) as usize % 32;
                let mut sink = vec![0u8; take];
                let _ = conn.read_exact(&mut sink);
            }
            // Drop with the rest of the response unread.
        }
        NetFault::Flood => {
            let chunk = [b'x'; 8192];
            let goal = crate::http::MAX_HEAD + 16 * 1024;
            let mut sent = 0usize;
            while sent < goal {
                match conn.write(&chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => sent += n,
                }
            }
            let mut sink = Vec::new();
            let _ = conn.read_to_end(&mut sink); // expect a 431, best-effort
        }
        NetFault::CorruptBytes => {
            let mut bytes = valid_request(controls, s);
            let flips = 1 + splitmix64(s) as usize % 8;
            for _ in 0..flips {
                let pos = splitmix64(s) as usize % bytes.len();
                bytes[pos] = (splitmix64(s) % 256) as u8;
            }
            if conn.write_all(&bytes).is_ok() {
                let mut sink = Vec::new();
                let _ = conn.read_to_end(&mut sink); // 4xx or close, either is fine
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_replayable_and_rate_monotone() {
        let plan = ChaosPlan {
            ops: 200,
            ..ChaosPlan::new(42, 0.5)
        };
        assert_eq!(plan_ops(&plan, 4), plan_ops(&plan, 4));
        let faults = |rate: f64, shuffle: bool| {
            let plan = ChaosPlan {
                ops: 200,
                shuffle,
                ..ChaosPlan::new(42, rate)
            };
            plan_ops(&plan, 4)
                .iter()
                .filter(|op| matches!(op, ChaosOp::Fault { .. }))
                .count()
        };
        assert_eq!(faults(0.0, false), 0);
        assert_eq!(faults(1.0, false), 200);
        let mid = faults(0.5, false);
        assert!((60..=140).contains(&mid), "{mid}");
        // Shuffle permutes, never changes the op multiset.
        assert_eq!(faults(0.5, true), mid);
    }

    #[test]
    fn zero_weight_mixes_never_emit_disabled_faults() {
        let plan = ChaosPlan {
            ops: 300,
            mix: NetFaultMix::flood_heavy(),
            ..ChaosPlan::new(7, 1.0)
        };
        for op in plan_ops(&plan, 2) {
            if let ChaosOp::Fault { fault, .. } = op {
                assert_ne!(fault, NetFault::ConnectIdle, "weight 0 kind injected");
            }
        }
        // An all-zero mix degenerates to pure controls even at rate 1.
        let none = NetFaultMix {
            connect_idle: 0,
            trickle: 0,
            partial_reset: 0,
            mid_response_abort: 0,
            flood: 0,
            corrupt_bytes: 0,
        };
        let plan = ChaosPlan {
            ops: 50,
            mix: none,
            ..ChaosPlan::new(7, 1.0)
        };
        assert!(plan_ops(&plan, 2)
            .iter()
            .all(|op| matches!(op, ChaosOp::Control { .. })));
    }

    #[test]
    fn backoff_honors_hint_and_cap_deterministically() {
        let cap = Duration::from_millis(50);
        let mut a = 9;
        let mut b = 9;
        for attempt in 0..6 {
            let da = backoff_delay(attempt, Some(1), cap, &mut a);
            let db = backoff_delay(attempt, Some(1), cap, &mut b);
            assert_eq!(da, db, "same stream, same delay");
            assert!(da <= cap);
            assert!(da >= Duration::from_millis(25), "{da:?} undercuts the capped hint");
        }
        // Without a hint the first attempts are small.
        let mut s = 1;
        assert!(backoff_delay(0, None, cap, &mut s) <= Duration::from_millis(2));
    }

    #[test]
    fn report_merge_and_availability() {
        let mut a = ChaosReport {
            controls: 10,
            ok_first_try: 9,
            faults: 3,
            ..ChaosReport::default()
        };
        a.fault_counts[NetFault::Flood.index()] = 3;
        let mut b = ChaosReport {
            controls: 10,
            ok_first_try: 10,
            ..ChaosReport::default()
        };
        b.control_latencies_ms.push(1.5);
        a.merge(b);
        assert_eq!(a.controls, 20);
        assert!((a.availability() - 0.95).abs() < 1e-12);
        assert_eq!(a.fault_rows()[4], ("flood", 3));
        assert_eq!(ChaosReport::default().availability(), 1.0);
    }
}
