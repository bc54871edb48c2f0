//! The untraced end-to-end runs: closed loops over fixed, seeded request
//! sequences, every answer checked by [`crate::check`].
//!
//! ptas-paper solves one fixed sequence of [`Workload::rounds`] rounds
//! in passes until `--seconds` have passed, and always completes one
//! pass. The server
//! workloads run in epochs: an epoch starts the server (one set-up),
//! sends each connection [`Workload::rounds`] rounds, and stops it.
//! Epochs repeat until `--seconds` have passed, so the cache of every
//! epoch starts empty and fills the same way, however long the run.
//! The fixed sequence is ptas-paper's first pass or the first epoch:
//! the deterministic counts (gap, cache misses, DP cells) are taken
//! over it alone, so they repeat exactly for a seed.

use crate::check::{violations, Answer, Reference, K};
use crate::gen::{self, Stream};
use crate::sys::{self, Conn, Server};
use pcmax_core::Instance;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// ptas-paper set-ups per run; `setup_s` is their median.
const PTAS_SETUP_REPS: u64 = 30;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PtasPaper,
    ServeCold,
    ServeHot,
    ClusterMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PtasPaper,
        Workload::ServeCold,
        Workload::ServeHot,
        Workload::ClusterMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PtasPaper => "ptas-paper",
            Workload::ServeCold => "serve-cold",
            Workload::ServeHot => "serve-hot",
            Workload::ClusterMixed => "cluster-mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Client connections (ptas-paper: the one solving thread).
    pub fn connections(self) -> usize {
        match self {
            Workload::PtasPaper | Workload::ServeCold => 1,
            Workload::ServeHot | Workload::ClusterMixed => 2,
        }
    }

    /// ptas-paper: rounds of its pass. Servers: rounds each
    /// connection sends per epoch, one to two seconds of work and at
    /// least 1,000 requests, so an epoch has ten beyond its p99.
    pub fn rounds(self) -> u64 {
        match self {
            Workload::PtasPaper => 16,
            Workload::ServeCold => 16,
            Workload::ServeHot => 16,
            Workload::ClusterMixed => 32,
        }
    }

    /// Rounds of a server window: 0.05–0.25 s, short enough that the
    /// quiet windows escape most of a burst of stolen time.
    pub fn window_rounds(self) -> u64 {
        match self {
            Workload::ServeCold => 2,
            Workload::ServeHot | Workload::ClusterMixed => 4,
            Workload::PtasPaper => unreachable!("ptas-paper windows are passes"),
        }
    }

    /// The command line of the server, defaults apart from the address.
    fn server_args(self) -> &'static [&'static str] {
        match self {
            Workload::ClusterMixed => &["cluster", "--workers", "2"],
            _ => &["serve"],
        }
    }
}

/// Requests of one serve-cold round.
pub const COLD_ROUND: usize = 64;
/// Requests of one cluster-mixed round per connection; every eighth is fresh.
pub const CLUSTER_ROUND: usize = 32;
/// Fresh requests that warm a serve-cold server before timing.
pub const WARM_UP: usize = 16;

/// One request of a round.
#[derive(Clone)]
pub struct Req {
    pub instance: Instance,
    pub reference: Reference,
    /// Index into the workload's pool, for requests that repeat.
    pub pool: Option<usize>,
}

impl Req {
    pub fn new(instance: Instance, pool: Option<usize>) -> Req {
        let reference = Reference::new(instance.times(), instance.machines());
        Req {
            instance,
            reference,
            pool,
        }
    }
}

/// Round `round` of connection `conn` in epoch `epoch` of a server
/// workload; `pool` is [`setup_pool`].
pub fn server_round(
    w: Workload,
    seed: u64,
    epoch: u64,
    conn: usize,
    round: u64,
    pool: &[Req],
) -> Vec<Req> {
    // A number no other round of the run shares, for fresh instances.
    let slot = (epoch * w.connections() as u64 + conn as u64) * w.rounds() + round;
    match w {
        Workload::ServeCold => (0..COLD_ROUND as u64)
            .map(|i| {
                let index = slot * COLD_ROUND as u64 + i;
                Req::new(gen::fresh_instance(seed, Stream::ColdFresh, index), None)
            })
            .collect(),
        // Each connection walks the whole pool, the second from its middle.
        Workload::ServeHot => (0..gen::HOT_POOL)
            .map(|i| pool[(i + conn * gen::HOT_POOL / 2) % gen::HOT_POOL].clone())
            .collect(),
        Workload::ClusterMixed => {
            let mut next = (round as usize * 7 + conn * gen::CLUSTER_POOL / 2) % gen::CLUSTER_POOL;
            (0..CLUSTER_ROUND)
                .map(|j| {
                    if j % 8 == 7 {
                        let index = slot * CLUSTER_ROUND as u64 + j as u64;
                        Req::new(gen::fresh_instance(seed, Stream::ClusterFresh, index), None)
                    } else {
                        next = (next + 1) % gen::CLUSTER_POOL;
                        pool[next].clone()
                    }
                })
                .collect()
        }
        Workload::PtasPaper => unreachable!("ptas-paper runs in-process"),
    }
}

/// The pool a server workload solves in set-up (empty for serve-cold).
pub fn setup_pool(w: Workload, seed: u64) -> Vec<Req> {
    let pool = match w {
        Workload::ServeHot => gen::hot_pool(seed),
        Workload::ClusterMixed => gen::cluster_pool(seed),
        _ => Vec::new(),
    };
    pool.into_iter()
        .enumerate()
        .map(|(p, inst)| Req::new(inst, Some(p)))
        .collect()
}

/// The requests the set-up of `epoch` sends once the server answers: the
/// pool, solved once so later requests for it hit, or fresh instances
/// for serve-cold.
pub fn warm_reqs(w: Workload, seed: u64, epoch: u64) -> Vec<Req> {
    match w {
        Workload::ServeCold => (0..WARM_UP as u64)
            .map(|i| {
                let index = epoch * WARM_UP as u64 + i;
                Req::new(gen::fresh_instance(seed, Stream::WarmUp, index), None)
            })
            .collect(),
        _ => setup_pool(w, seed),
    }
}

/// What one answered operation cost and produced.
#[derive(Clone, Debug, Default)]
pub struct Op {
    pub latency_ns: u64,
    pub wait_us: u64,
    pub solve_us: u64,
    pub hits: u64,
    pub misses: u64,
    pub gap_ppm: u64,
    /// DP cells of the solve (ptas-paper only).
    pub cells: u64,
    /// Index of its window in [`Outcome::windows`].
    pub window: usize,
    /// Part of the fixed sequence.
    pub fixed: bool,
    /// A pool request, answered before in set-up.
    pub repeated: bool,
}

/// A stretch of a run: a few rounds of a server epoch (a tenth of a
/// second to a second), or one ptas-paper pass (some two seconds).
/// Timing figures pool the windows that ran quietest
/// ([`crate::stats::quietest`]): the half in which the host stole least,
/// and for ptas-paper, whose passes repeat the same work, the fastest
/// quarter.
#[derive(Clone, Debug, Default)]
pub struct Window {
    pub ops: usize,
    pub wall_s: f64,
    /// CPU time of the working process.
    pub cpu_s: f64,
    /// Seconds the host stole from the guest.
    pub steal_s: f64,
}

/// Everything a run measured.
#[derive(Default)]
pub struct Outcome {
    pub ops: Vec<Op>,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Wall time of the timed phases, set-ups excluded.
    pub wall_s: f64,
    pub windows: Vec<Window>,
    /// CPU time of the working process over the timed phases.
    pub cpu_s: f64,
    /// Seconds of each set-up, with the seconds the host stole meanwhile.
    pub setup_s: Vec<(f64, f64)>,
    pub peak_rss_mib: f64,
    pub steal_s: f64,
    /// ptas-paper passes, or server epochs.
    pub rounds: u64,
    /// Reply lines of the fixed sequence, connection by connection.
    pub replies: Vec<String>,
    /// The front-end's `stats` line at the end of the first cluster epoch.
    pub cluster_stats: Option<String>,
}

/// Checks one answer and records the first makespan of pool requests.
fn check_answer(
    req: &Req,
    answer: &Answer,
    firsts: &mut HashMap<usize, u64>,
    out: &mut Vec<String>,
) {
    let first = req.pool.and_then(|p| firsts.get(&p).copied());
    let bad = violations(&req.reference, answer, first);
    if !bad.is_empty() && out.len() < 8 {
        out.push(format!(
            "{bad:?} on m={} times={:?}: makespan {} target {:?} engine {}",
            req.instance.machines(),
            req.instance.times(),
            answer.makespan,
            answer.target,
            answer.engine
        ));
    }
    if let Some(p) = req.pool {
        firsts.entry(p).or_insert(answer.makespan);
    }
}

/// Runs `w` for about `seconds` (at least its fixed sequence) and
/// returns what it measured.
pub fn run(w: Workload, seed: u64, seconds: f64, pcmax: &Path) -> Result<Outcome, String> {
    let steal0 = sys::steal_s();
    let mut out = match w {
        Workload::PtasPaper => run_ptas(seed, seconds)?,
        _ => run_server(w, seed, seconds, pcmax)?,
    };
    out.steal_s = sys::steal_s() - steal0;
    Ok(out)
}

/// The instances and references of one ptas-paper round.
pub fn ptas_round(seed: u64, round: u64) -> Vec<Req> {
    (0..gen::PTAS_ROUND.len())
        .map(|i| Req::new(gen::ptas_instance(seed, round, i), None))
        .collect()
}

fn run_ptas(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let ptas = pcmax_ptas::Ptas::new(0.3);
    assert_eq!(ptas.k(), K);
    let mut out = Outcome::default();
    let mut firsts = HashMap::new();
    // Set-up: build the solver and warm it on one round. The round is the
    // same for every seed, so `setup_s` compares like with like.
    for _ in 0..PTAS_SETUP_REPS {
        let (started, steal) = (Instant::now(), sys::steal_s());
        for req in ptas_round(0, 0) {
            std::hint::black_box(ptas.solve(&req.instance));
        }
        out.setup_s
            .push((started.elapsed().as_secs_f64(), sys::steal_s() - steal));
    }
    let pass: Vec<Req> = (0..Workload::PtasPaper.rounds())
        .flat_map(|round| ptas_round(seed, round))
        .collect();
    let cpu0 = sys::thread_cpu_s()?;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    while out.windows.is_empty() || Instant::now() < deadline {
        let (window_start, window_cpu, window_steal) =
            (Instant::now(), sys::thread_cpu_s()?, sys::steal_s());
        for req in &pass {
            let t = Instant::now();
            let result = ptas.solve(std::hint::black_box(&req.instance));
            let latency_ns = t.elapsed().as_nanos() as u64;
            let answer = Answer {
                makespan: result.makespan,
                target: Some(result.target),
                engine: "ptas".into(),
                assignment: result.schedule.assignment().to_vec(),
                ..Answer::default()
            };
            check_answer(req, &answer, &mut firsts, &mut out.violations);
            let cells = result
                .search
                .records
                .iter()
                .flat_map(|it| &it.probes)
                .map(|p| p.dp_stats.table_size as u64)
                .sum();
            out.ops.push(Op {
                latency_ns,
                gap_ppm: req.reference.gap_ppm(result.makespan),
                cells,
                window: out.windows.len(),
                fixed: out.windows.is_empty(),
                ..Op::default()
            });
        }
        out.windows.push(Window {
            ops: pass.len(),
            wall_s: window_start.elapsed().as_secs_f64(),
            cpu_s: sys::thread_cpu_s()? - window_cpu,
            steal_s: sys::steal_s() - window_steal,
        });
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out.cpu_s = sys::thread_cpu_s()? - cpu0;
    out.rounds = out.windows.len() as u64;
    out.peak_rss_mib = sys::peak_rss_mib(None)?;
    Ok(out)
}

/// Starts the workload's server, waits until it answers, and sends
/// [`warm_reqs`]. Returns the server and the seconds this took.
fn set_up(
    w: Workload,
    seed: u64,
    epoch: u64,
    pcmax: &Path,
    firsts: &mut HashMap<usize, u64>,
    violations: &mut Vec<String>,
) -> Result<(Server, f64), String> {
    let started = Instant::now();
    let server = Server::start(pcmax, w.server_args())?;
    let mut conn = server.connect()?;
    let (pong, _) = conn.call("ping")?;
    if pong != "pong" {
        return Err(format!("ping answered `{pong}`"));
    }
    for req in &warm_reqs(w, seed, epoch) {
        let (reply, _) = conn.call(&gen::solve_line(&req.instance))?;
        let answer = Answer::parse(reply)?;
        check_answer(req, &answer, firsts, violations);
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// What one connection's closed loop produced.
#[derive(Default)]
struct ConnOutcome {
    ops: Vec<Op>,
    failed: u64,
    violations: Vec<String>,
    replies: Vec<String>,
}

/// One connection's closed loop over its rounds of `epoch`. The
/// connections and the measuring thread meet at `barrier` around every
/// window, so each window's timing covers exactly its rounds. A transport
/// error stops the requests but not the meetings, and is returned at the end.
fn client_loop(
    w: Workload,
    seed: u64,
    epoch: u64,
    conn_index: usize,
    conn: &mut Conn,
    barrier: &Barrier,
    mut firsts: HashMap<usize, u64>,
) -> Result<ConnOutcome, String> {
    let mut out = ConnOutcome::default();
    let mut broken = None;
    let pool = setup_pool(w, seed);
    let fixed = epoch == 0;
    for round in 0..w.rounds() {
        let window = (round / w.window_rounds()) as usize;
        if round % w.window_rounds() == 0 {
            barrier.wait();
        }
        for req in server_round(w, seed, epoch, conn_index, round, &pool) {
            if broken.is_some() {
                break;
            }
            let line = gen::solve_line(&req.instance);
            let (reply, latency) = match conn.call(&line) {
                Ok(r) => r,
                Err(e) => {
                    broken = Some(e);
                    break;
                }
            };
            let answer = match Answer::parse(reply) {
                Ok(a) => a,
                Err(e) => {
                    out.failed += 1;
                    if out.violations.len() < 8 {
                        out.violations.push(format!("failed request: {e}"));
                    }
                    continue;
                }
            };
            if fixed {
                out.replies.push(reply.to_string());
            }
            check_answer(&req, &answer, &mut firsts, &mut out.violations);
            out.ops.push(Op {
                latency_ns: latency.as_nanos() as u64,
                wait_us: answer.wait_us,
                solve_us: answer.solve_us,
                hits: answer.hits,
                misses: answer.misses,
                gap_ppm: req.reference.gap_ppm(answer.makespan),
                cells: 0,
                window,
                fixed,
                repeated: req.pool.is_some(),
            });
        }
        if (round + 1) % w.window_rounds() == 0 {
            barrier.wait();
        }
    }
    broken.map_or(Ok(out), Err)
}

fn run_server(w: Workload, seed: u64, seconds: f64, pcmax: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut firsts = HashMap::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let windows = (w.rounds() / w.window_rounds()) as usize;
    let mut epoch = 0;
    while epoch == 0 || Instant::now() < deadline {
        let steal = sys::steal_s();
        let (server, setup) = set_up(w, seed, epoch, pcmax, &mut firsts, &mut out.violations)?;
        out.setup_s.push((setup, sys::steal_s() - steal));
        let mut conns: Vec<Conn> = (0..w.connections())
            .map(|_| server.connect())
            .collect::<Result<_, _>>()?;
        let barrier = Barrier::new(conns.len() + 1);
        let pid = server.pid();
        // (wall, cpu, steal) seconds of each window.
        let mut spans = Vec::with_capacity(windows);
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(i, conn)| {
                    let (firsts, barrier) = (firsts.clone(), &barrier);
                    scope.spawn(move || client_loop(w, seed, epoch, i, conn, barrier, firsts))
                })
                .collect();
            for _ in 0..windows {
                barrier.wait();
                let (started, cpu, steal) =
                    (Instant::now(), sys::process_cpu_s(pid), sys::steal_s());
                barrier.wait();
                let cpu = sys::process_cpu_s(pid).and_then(|c| Ok(c - cpu?));
                spans.push((started.elapsed().as_secs_f64(), cpu, sys::steal_s() - steal));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let (base, first_op) = (out.windows.len(), out.ops.len());
        for r in results {
            let r = r?;
            out.ops.extend(r.ops.into_iter().map(|o| Op {
                window: base + o.window,
                ..o
            }));
            out.failed += r.failed;
            out.violations.extend(r.violations);
            out.replies.extend(r.replies);
        }
        for (wall_s, cpu, steal_s) in spans {
            let cpu_s = cpu?;
            out.wall_s += wall_s;
            out.cpu_s += cpu_s;
            out.windows.push(Window {
                wall_s,
                cpu_s,
                steal_s,
                ..Window::default()
            });
        }
        for op in &out.ops[first_op..] {
            out.windows[op.window].ops += 1;
        }
        if w == Workload::ClusterMixed && epoch == 0 {
            let (stats, _) = conns[0].call("stats")?;
            out.cluster_stats = Some(stats.to_string());
        }
        out.peak_rss_mib = out.peak_rss_mib.max(sys::peak_rss_mib(Some(pid))?);
        epoch += 1;
    }
    out.rounds = epoch;
    Ok(out)
}
