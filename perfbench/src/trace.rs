//! The traced run: per-layer metrics.
//!
//! It first runs each workload's fixed sequence end to end, untraced, to
//! collect the per-request fields the servers report (`wait_us`,
//! `solve_us`, hits, misses) and the client-observed p50. It then
//! replays the same sequences in-process with a timer around each
//! layer's public call, and sweeps the DP kernels on the paper's table
//! shapes. A parent call's self time is its time minus the time of the
//! child calls timed separately. Every per-layer metric is measured on
//! the workload the README assigns it to, whichever `--workload` names;
//! that workload's breakdown is printed first.

use crate::check::K;
use crate::e2e::{self, Op, Outcome, Req, Workload};
use crate::gen::{self, Stream};
use crate::stats::{median, truncated_median};
use crate::{metric, Metric};
use pcmax_core::heuristics::{lpt_revisited, multifit_with_guarantee};
use pcmax_core::{Instance, Schedule};
use pcmax_ptas::rounding::{Rounding, RoundingOutcome};
use pcmax_ptas::{assemble_schedule, DpEngine, DpProblem, Ptas, INFEASIBLE};
use pcmax_serve::portfolio::MULTIFIT_ITERS;
use pcmax_serve::proto::{format_response, parse_request, parse_response};
use pcmax_serve::{
    entry_cost, probe_features, solve_portfolio, CachedDp, DpCache, PortfolioCounters,
    PortfolioPolicy, RequestStats, SolveResponse, SolverOptions,
};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Microseconds `f` takes, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (t.elapsed().as_nanos() as f64 * 1e-3, out)
}

/// Median of microsecond samples.
fn med(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// p50 of `f` over the fixed-sequence operations of `out`, in µs.
fn p50_us(out: &Outcome, f: impl Fn(&Op) -> f64) -> f64 {
    let v: Vec<f64> = out.ops.iter().filter(|o| o.fixed).map(f).collect();
    med(&v)
}

/// p50 of a whole-µs reply field over the fixed-sequence operations of
/// `out`, by [`truncated_median`].
fn p50_field_us(out: &Outcome, f: impl Fn(&Op) -> u64) -> f64 {
    let v: Vec<u64> = out.ops.iter().filter(|o| o.fixed).map(f).collect();
    truncated_median(&v)
}

fn latency_us(o: &Op) -> f64 {
    o.latency_ns as f64 * 1e-3
}

/// Collects metrics, problems found and the breakdown text.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    problems: Vec<String>,
    lines: BTreeMap<&'static str, Vec<String>>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(metric(name, value, unit));
    }

    fn say(&mut self, w: Workload, line: String) {
        self.lines.entry(w.name()).or_default().push(line);
    }
}

pub fn run(
    pcmax: &Path,
    focus: Workload,
    seed: u64,
) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let mut rep = Report::default();
    let mut attempted = 0;
    let mut failed = 0;
    let mut runs = HashMap::new();
    for w in Workload::ALL {
        // Zero seconds: exactly the fixed rounds.
        let out = e2e::run(w, seed, 0.0, pcmax)?;
        attempted += out.ops.len() as u64 + out.failed;
        failed += out.failed;
        rep.problems.extend(out.violations.iter().cloned());
        runs.insert(w.name(), out);
    }
    ptas_layers(&mut rep, seed, &runs[Workload::PtasPaper.name()]);
    kernel_sweep(&mut rep, seed);
    serve_layers(&mut rep, seed, &runs);
    cluster_layers(&mut rep, seed, &runs[Workload::ClusterMixed.name()]);
    if let Err(e) = crate::check::self_test() {
        rep.problems.push(format!("self-test: {e}"));
    }
    let mut order = vec![focus];
    order.extend(Workload::ALL.into_iter().filter(|&w| w != focus));
    for w in order {
        for line in rep.lines.get(w.name()).into_iter().flatten() {
            println!("breakdown {}: {line}", w.name());
        }
    }
    for p in &rep.problems {
        println!("violation {p}");
    }
    Ok((rep.problems.is_empty(), attempted, failed, rep.metrics))
}

/// The PTAS layers on the ptas-paper fixed sequence, from the timed
/// `Ptas::solve` calls themselves: with `pcmax_obs` recording on, every
/// probe's DP sweep and the schedule build carry their own wall times,
/// so the DP figures always come from the engine `Ptas::new` runs.
/// Rounding (about 2 µs, below the recorder's 1 µs resolution) and the
/// assembly tail are timed apart.
fn ptas_layers(rep: &mut Report, seed: u64, e2e_run: &Outcome) {
    let ptas = Ptas::new(0.3);
    let (mut rounding, mut assemble, mut solve) = (vec![], vec![], vec![]);
    let (mut probes, mut cells, mut configs, mut dp_us) = (0u64, 0u64, 0u64, 0u64);
    // (total, rounding, dp, build, self) of every solve.
    let mut per_solve = vec![];
    let mut solves = 0u64;
    let was_enabled = pcmax_obs::enabled();
    pcmax_obs::set_enabled(true);
    for round in 0..Workload::PtasPaper.rounds() {
        for req in e2e::ptas_round(seed, round) {
            let inst = &req.instance;
            let (total_us, result) = timed(|| ptas.solve(inst));
            solves += 1;
            let (mut r_sum, mut d_sum) = (0, 0);
            for p in result.search.records.iter().flat_map(|it| &it.probes) {
                probes += 1;
                r_sum += p.rounding_us;
                d_sum += p.dp_stats.elapsed_us;
                cells += p.dp_stats.table_size as u64;
                configs += p.dp_stats.configs_enumerated;
                if !p.cached {
                    rounding.push(timed(|| Rounding::compute(inst, p.target, K)).0);
                }
            }
            dp_us += d_sum;
            // Assembly at T*, on a table solved untimed: every engine
            // fills the same row-major values.
            let RoundingOutcome::Rounded(r) = Rounding::compute(inst, result.target, K) else {
                rep.problems
                    .push(format!("T* {} below the longest job", result.target));
                continue;
            };
            let problem = DpProblem::from_rounding(&r);
            let sol = problem.solve(DpEngine::Sequential);
            let (a_us, schedule) = timed(|| {
                let machine_configs = problem.extract_configs(&sol.values)?;
                Some(assemble_schedule(inst, &r, &machine_configs))
            });
            if schedule.map(|s| s.makespan(inst)) != Some(result.makespan) {
                rep.problems
                    .push("replayed schedule differs from Ptas::solve".into());
            }
            let (r_us, d_us, b_us) = (r_sum as f64, d_sum as f64, result.build_us as f64);
            assemble.push(a_us);
            solve.push(total_us);
            per_solve.push((total_us, r_us, d_us, b_us, total_us - r_us - d_us - b_us));
        }
    }
    pcmax_obs::set_enabled(was_enabled);
    let n = solves as f64;
    rep.put("ptas.rounding_us", med(&rounding), "us");
    rep.put("ptas.probes_per_solve", probes as f64 / n, "count");
    rep.put("dp.cells_per_solve", cells as f64 / n, "count");
    rep.put(
        "dp.configs_per_cell",
        configs as f64 / cells as f64,
        "count",
    );
    rep.put("dp.ns_per_cell", dp_us as f64 * 1e3 / cells as f64, "ns");
    rep.put("ptas.assemble_us", med(&assemble), "us");
    rep.put("ptas.solve_us", med(&solve), "us");
    // Solve times span the paper's buckets, so per-layer medians come
    // from different solves; the median solve is split instead.
    per_solve.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (_, r_us, d_us, b_us, s_us) = per_solve[(per_solve.len() - 1) / 2];
    let parts = [
        ("rounding (all probes)", r_us),
        ("dp (all probes)", d_us),
        ("schedule build at T*", b_us),
        ("search self", s_us),
    ];
    breakdown(
        rep,
        Workload::PtasPaper,
        &parts,
        p50_us(e2e_run, latency_us),
        " (the median solve of the replay against the untraced run's)",
    );
}

/// Prints per-layer medians, their sum, the end-to-end p50 and the rest.
fn breakdown(rep: &mut Report, w: Workload, parts: &[(&str, f64)], p50: f64, rest: &str) {
    let sum: f64 = parts.iter().map(|p| p.1).sum();
    let text: Vec<String> = parts.iter().map(|(n, v)| format!("{n} {v:.1}")).collect();
    rep.say(w, format!("{} = {sum:.1} us", text.join(" + ")));
    rep.say(
        w,
        format!(
            "end-to-end latency_p50 {p50:.1} us; remainder {:.1} us{rest}",
            p50 - sum
        ),
    );
}

/// The paper's Table I–III shapes.
const PAPER_SHAPES: [(&str, &[usize]); 3] = [
    ("s3456", &[6, 4, 6, 6, 4]),
    ("s8640", &[5, 3, 6, 3, 4, 4, 2]),
    ("s12960", &[3, 16, 15, 18]),
];

/// Solves of each engine × shape; the median is reported.
const SWEEP_REPS: usize = 5;

/// OPT(N) by the benchmark's own recurrence: OPT(0) = 0 and
/// OPT(v) = 1 + min OPT(v − s) over non-zero configurations s ≤ v with
/// Σ sᵢ·sizeᵢ ≤ cap, filled in mixed-radix order.
fn reference_opt(counts: &[usize], sizes: &[u64], cap: u64) -> u32 {
    let mut strides = vec![1usize; counts.len()];
    for i in (0..counts.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * (counts[i + 1] + 1);
    }
    let cells = strides.first().map_or(1, |s| s * (counts[0] + 1));
    let mut configs: Vec<Vec<usize>> = vec![vec![]];
    for &c in counts {
        configs = configs
            .into_iter()
            .flat_map(|s| (0..=c).map(move |x| [s.clone(), vec![x]].concat()))
            .filter(|s| {
                s.iter()
                    .zip(sizes)
                    .map(|(&x, &z)| x as u64 * z)
                    .sum::<u64>()
                    <= cap
            })
            .collect();
    }
    configs.retain(|s| s.iter().any(|&x| x > 0));
    let mut opt = vec![u32::MAX; cells];
    opt[0] = 0;
    let mut v = vec![0usize; counts.len()];
    for flat in 1..cells {
        let mut rest = flat;
        for (d, &s) in strides.iter().enumerate() {
            v[d] = rest / s;
            rest %= s;
        }
        let best = configs
            .iter()
            .filter(|s| s.iter().zip(&v).all(|(a, b)| a <= b))
            .map(|s| opt[flat - s.iter().zip(&strides).map(|(a, b)| a * b).sum::<usize>()])
            .filter(|&p| p != u32::MAX)
            .min();
        opt[flat] = best.map_or(u32::MAX, |b| b + 1);
    }
    opt[cells - 1]
}

/// Each engine on the paper's shapes, and the sparse frontier on the
/// k = 16 near-equal family, with OPT(N) checked by [`reference_opt`].
fn kernel_sweep(rep: &mut Report, seed: u64) {
    let engines = [
        ("seq", DpEngine::Sequential),
        ("antidiag", DpEngine::AntiDiagonal),
        ("blocked3", DpEngine::Blocked { dim_limit: 3 }),
    ];
    for (shape, extents) in PAPER_SHAPES {
        let problem = pcmax_gpu::synth::problem_with_extents(extents, K);
        let want = reference_opt(problem.counts(), problem.sizes(), problem.cap());
        for (name, engine) in engines {
            let mut ns = vec![];
            for _ in 0..SWEEP_REPS {
                let (us, sol) = timed(|| problem.solve(engine));
                if sol.opt != want {
                    rep.problems
                        .push(format!("{name} on {shape}: OPT {} != {want}", sol.opt));
                }
                ns.push(us * 1e3 / problem.table_size() as f64);
            }
            rep.put(&format!("dp.ns_per_cell.{name}.{shape}"), median(&ns), "ns");
        }
    }
    // The sparse engine's home regime: 12 near-equal jobs per machine at
    // k = 16, probed at the first bisection target.
    let inst = pcmax_core::gen::near_equal(
        gen::instance_seed(seed, Stream::WarmUp, u64::MAX),
        576,
        48,
        1_000,
        40,
    );
    let (lb, ub) = (
        pcmax_core::lower_bound(&inst),
        pcmax_core::upper_bound(&inst),
    );
    let target = lb + (ub - lb) / 2;
    let RoundingOutcome::Rounded(r) = Rounding::compute(&inst, target, 16) else {
        rep.problems.push("k=16 family: rounding infeasible".into());
        return;
    };
    let problem = DpProblem::from_rounding(&r);
    let want = reference_opt(problem.counts(), problem.sizes(), problem.cap());
    let (mut ns, mut resident) = (vec![], 0);
    for _ in 0..3 {
        let (us, sol) = timed(|| problem.solve_sparse());
        if sol.opt != want {
            rep.problems
                .push(format!("sparse on k=16: OPT {} != {want}", sol.opt));
        }
        ns.push(us * 1e3 / sol.stats.settled_cells.max(1) as f64);
        resident = sol.stats.peak_resident_cells;
    }
    rep.put("dp.sparse.ns_per_cell.k16", median(&ns), "ns");
    rep.put("dp.sparse.resident_cells.k16", resident as f64, "count");
}

/// The service's solver settings under `pcmax serve` defaults (no store
/// directory, so no paged arm).
fn serve_options() -> SolverOptions {
    let config = pcmax_serve::ServeConfig::default();
    SolverOptions {
        engine: config.engine,
        repr: config.repr,
        max_table_cells: config.max_table_cells,
        ..SolverOptions::default()
    }
}

/// A fresh cache shaped like the service's default one.
fn serve_cache() -> DpCache {
    let config = pcmax_serve::ServeConfig::default();
    let shards = config.cache_shards.max(1);
    DpCache::new(shards, (config.mem_budget.bytes / shards as u64).max(1))
}

/// One request replayed through `solve_portfolio` as a worker runs it.
fn replay_portfolio(
    req: &Req,
    cache: &DpCache,
    counters: &PortfolioCounters,
    arms: &mut BTreeMap<&'static str, u64>,
    degraded: &mut u64,
) -> f64 {
    let opts = serve_options();
    let deadline = Instant::now() + Duration::from_secs(2);
    let (us, out) = timed(|| {
        solve_portfolio(
            &req.instance,
            K,
            &opts,
            cache,
            None,
            Some(deadline),
            PortfolioPolicy::Auto,
            counters,
        )
    });
    *arms.entry(out.arm.name()).or_default() += 1;
    *degraded += u64::from(out.degraded);
    us
}

/// The probe keys of a bisection over `[LB, UB]` as the service's
/// cached solver walks it, answering feasibility from `memo` and
/// solving what it lacks with the service's default engine. Returns the
/// DP cells of probes whose key `memo` did not hold yet.
fn replay_keys(
    inst: &Instance,
    memo: &mut HashMap<pcmax_ptas::DpKey, CachedDp>,
    keys: &mut Vec<(pcmax_ptas::DpKey, CachedDp)>,
) -> u64 {
    let (mut lb, mut ub) = (pcmax_core::lower_bound(inst), pcmax_core::upper_bound(inst));
    let engine = serve_options().engine;
    let mut cells = 0;
    let mut probe = |t: u64, cells: &mut u64| {
        let RoundingOutcome::Rounded(r) = Rounding::compute(inst, t, K) else {
            return false;
        };
        let problem = DpProblem::from_rounding(&r);
        let key = problem.canonical_key();
        let entry = memo.entry(key.clone()).or_insert_with(|| {
            *cells += problem.table_size() as u64;
            let sol = problem.solve(engine);
            let configs = (sol.opt != INFEASIBLE)
                .then(|| problem.extract_configs(&sol.values).map(Arc::new))
                .flatten();
            let entry = CachedDp {
                opt: sol.opt,
                configs,
            };
            keys.push((key, entry.clone()));
            entry
        });
        entry.opt != INFEASIBLE && entry.opt as usize <= inst.machines()
    };
    while lb < ub {
        let t = lb + (ub - lb) / 2;
        if probe(t, &mut cells) {
            ub = t;
        } else {
            lb = t + 1;
        }
    }
    probe(ub, &mut cells);
    cells
}

/// The requests of a server workload's first epoch, connection by
/// connection, in the order the untraced run keeps its replies.
fn first_epoch(w: Workload, seed: u64) -> Vec<Req> {
    let pool = e2e::setup_pool(w, seed);
    (0..w.connections())
        .flat_map(|c| (0..w.rounds()).map(move |r| (c, r)))
        .flat_map(|(c, r)| e2e::server_round(w, seed, 0, c, r, &pool))
        .collect()
}

/// Serving layers on serve-cold and serve-hot: reply fields from the
/// untraced runs, and timed replays of protocol, features, portfolio,
/// heuristics and cache calls.
fn serve_layers(rep: &mut Report, seed: u64, runs: &HashMap<&str, Outcome>) {
    let cold_run = &runs[Workload::ServeCold.name()];
    let hot_run = &runs[Workload::ServeHot.name()];
    let cold_seq = first_epoch(Workload::ServeCold, seed);
    let hot_seq = first_epoch(Workload::ServeHot, seed);

    // Reply fields.
    let wire = |o: &Op| latency_us(o) - (o.wait_us + o.solve_us) as f64;
    rep.put(
        "serve.wait_us_p50",
        p50_field_us(hot_run, |o| o.wait_us),
        "us",
    );
    rep.put(
        "serve.solve_us_p50",
        p50_field_us(cold_run, |o| o.solve_us),
        "us",
    );
    rep.put("serve.wire_us_p50", p50_us(hot_run, wire), "us");
    let cold_fixed: Vec<&Op> = cold_run.ops.iter().filter(|o| o.fixed).collect();
    let (hits, misses) = cold_fixed
        .iter()
        .fold((0, 0), |(h, m), o| (h + o.hits, m + o.misses));
    rep.put(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    rep.put(
        "cache.misses_per_op",
        misses as f64 / cold_fixed.len() as f64,
        "count",
    );

    // Protocol.
    let (mut parse, mut format, mut client_parse, mut bytes) = (vec![], vec![], vec![], 0u64);
    for (req, line) in hot_seq.iter().zip(&hot_run.replies) {
        let request = gen::solve_line(&req.instance);
        let (us, parsed) = timed(|| parse_request(&request));
        parse.push(us);
        if parsed.is_err() {
            rep.problems
                .push(format!("parse_request rejected `{request}`"));
        }
        let (us, reply) = timed(|| parse_response(line));
        client_parse.push(us);
        let Ok(reply) = reply else {
            rep.problems
                .push(format!("parse_response rejected `{line}`"));
            continue;
        };
        let response = SolveResponse {
            schedule: Schedule::new(reply.assignment.clone(), req.instance.machines()),
            makespan: reply.makespan,
            target: reply.target,
            machines_used: None,
            degraded: reply.degraded,
            stats: RequestStats {
                queue_wait_us: reply.queue_wait_us,
                solve_us: reply.solve_us,
                cache_hits: reply.cache_hits,
                cache_misses: reply.cache_misses,
                degraded: reply.degraded,
                engine: reply.engine,
                guarantee: reply.guarantee,
                gap_ppm: reply.gap_ppm,
                improve_us: 0,
            },
        };
        let (us, formatted) = timed(|| format_response(&response));
        format.push(us);
        if formatted != *line {
            rep.problems
                .push(format!("format_response gave `{formatted}` for `{line}`"));
        }
        bytes += line.len() as u64 + 1;
    }
    rep.put("proto.parse_us", med(&parse), "us");
    rep.put("proto.format_us", med(&format), "us");
    rep.put("proto.client_parse_us", med(&client_parse), "us");
    rep.put(
        "proto.reply_bytes",
        bytes as f64 / hot_seq.len() as f64,
        "bytes",
    );

    // Features and heuristics on the hot pool.
    let opts = serve_options();
    let pool = e2e::setup_pool(Workload::ServeHot, seed);
    let (mut features, mut lptrev, mut multifit) = (vec![], vec![], vec![]);
    let (mut lptrev_gap, mut multifit_gap) = (0, 0);
    for _ in 0..4 {
        for req in &pool {
            features.push(timed(|| probe_features(&req.instance, K, &opts)).0);
            let (us, rev) = timed(|| lpt_revisited(&req.instance));
            lptrev.push(us);
            let (us, (mf, _)) = timed(|| multifit_with_guarantee(&req.instance, MULTIFIT_ITERS));
            multifit.push(us);
            // The gap each heuristic reaches, as the benchmark computes it.
            let r = &req.reference;
            for (gap, schedule) in [(&mut lptrev_gap, &rev.schedule), (&mut multifit_gap, &mf)] {
                match r.makespan_of(schedule.assignment()) {
                    Some(ms) => *gap += r.gap_ppm(ms),
                    None => rep
                        .problems
                        .push(format!("invalid heuristic schedule on {r:?}")),
                }
            }
        }
    }
    let answers = 4.0 * pool.len() as f64;
    rep.put("portfolio.features_us", med(&features), "us");
    rep.put("heuristics.lptrev_us", med(&lptrev), "us");
    rep.put("heuristics.multifit_us", med(&multifit), "us");
    rep.put(
        "heuristics.lptrev_gap_ppm_mean",
        lptrev_gap as f64 / answers,
        "ppm",
    );
    rep.put(
        "heuristics.multifit_gap_ppm_mean",
        multifit_gap as f64 / answers,
        "ppm",
    );

    // Portfolio replays, each on a cache that saw what the server's did.
    let counters = PortfolioCounters::default();
    let mut arms = BTreeMap::new();
    let mut degraded = 0;
    let cache = serve_cache();
    for req in e2e::warm_reqs(Workload::ServeCold, seed, 0) {
        replay_portfolio(&req, &cache, &counters, &mut BTreeMap::new(), &mut 0);
    }
    let cold_us: Vec<f64> = cold_seq
        .iter()
        .map(|req| replay_portfolio(req, &cache, &counters, &mut arms, &mut degraded))
        .collect();
    let cache = serve_cache();
    for req in &pool {
        replay_portfolio(req, &cache, &counters, &mut BTreeMap::new(), &mut 0);
    }
    let hot_us: Vec<f64> = hot_seq
        .iter()
        .map(|req| replay_portfolio(req, &cache, &counters, &mut arms, &mut degraded))
        .collect();
    rep.put("portfolio.solve_us", med(&cold_us), "us");
    rep.put("portfolio.solve_us.hot", med(&hot_us), "us");
    for arm in ["lptrev", "multifit", "exact", "dense", "sparse"] {
        let n = arms.get(arm).copied().unwrap_or(0);
        rep.put(&format!("portfolio.answered.{arm}"), n as f64, "count");
    }
    rep.put("portfolio.degraded", degraded as f64, "count");

    // Cache keys: the serve-cold sequence's misses, replayed; they must
    // match what the server reported.
    let mut memo = HashMap::new();
    let mut cold_keys = vec![];
    for req in e2e::warm_reqs(Workload::ServeCold, seed, 0) {
        replay_keys(&req.instance, &mut memo, &mut vec![]);
    }
    let cells: u64 = cold_seq
        .iter()
        .map(|req| replay_keys(&req.instance, &mut memo, &mut cold_keys))
        .sum();
    if cold_keys.len() as u64 != misses {
        rep.problems.push(format!(
            "serve-cold replies report {misses} cache misses, the replay finds {}",
            cold_keys.len()
        ));
    }
    rep.put(
        "dp.cells_per_op",
        cells as f64 / cold_seq.len() as f64,
        "count",
    );
    let cache = serve_cache();
    let insert: Vec<f64> = cold_keys
        .iter()
        .map(|(key, entry)| {
            let cost = entry_cost(key, entry);
            let (k, v) = (key.clone(), entry.clone());
            timed(|| cache.insert(k, v, cost)).0
        })
        .collect();
    let mut hot_keys = vec![];
    let mut memo = HashMap::new();
    for req in &pool {
        replay_keys(&req.instance, &mut memo, &mut hot_keys);
    }
    for (key, entry) in &hot_keys {
        cache.insert(key.clone(), entry.clone(), entry_cost(key, entry));
    }
    let get: Vec<f64> = (0..4)
        .flat_map(|_| hot_keys.iter().map(|(key, _)| timed(|| cache.get(key)).0))
        .collect();
    rep.put("cache.get_us", med(&get), "us");
    rep.put("cache.insert_us", med(&insert), "us");

    // Breakdowns against the client-observed p50.
    for (w, run, solve) in [
        (Workload::ServeCold, cold_run, med(&cold_us)),
        (Workload::ServeHot, hot_run, med(&hot_us)),
    ] {
        let parts = [
            ("parse", med(&parse)),
            ("queue wait", p50_field_us(run, |o| o.wait_us)),
            ("solve (reply)", p50_field_us(run, |o| o.solve_us)),
            ("format", med(&format)),
            ("client parse", med(&client_parse)),
        ];
        breakdown(
            rep,
            w,
            &parts,
            p50_us(run, latency_us),
            " (TCP, thread hand-off)",
        );
        rep.say(
            w,
            format!("solve replayed in-process: portfolio {solve:.1} us"),
        );
    }
}

/// Cluster layers on cluster-mixed: routing, the coordinator hop, and
/// how requests spread over the two workers.
fn cluster_layers(rep: &mut Report, seed: u64, run: &Outcome) {
    let w = Workload::ClusterMixed;
    let ids = ["worker-0", "worker-1"];
    let route: Vec<f64> = first_epoch(w, seed)
        .iter()
        .map(|req| {
            timed(|| {
                let key = pcmax_cluster::RouteKey::of(&req.instance, K);
                pcmax_cluster::rank_ids(&ids, key.hash64()).len()
            })
            .0
        })
        .collect();
    let overhead = |o: &Op| latency_us(o) - (o.wait_us + o.solve_us) as f64;
    rep.put("cluster.overhead_us_p50", p50_us(run, overhead), "us");
    rep.put("cluster.route_us", med(&route), "us");
    let repeated: Vec<&Op> = run.ops.iter().filter(|o| o.fixed && o.repeated).collect();
    let affine = repeated.iter().filter(|o| o.misses == 0).count();
    rep.put(
        "cluster.affinity_hit_ratio",
        affine as f64 / repeated.len().max(1) as f64,
        "ratio",
    );
    let oks = run
        .cluster_stats
        .as_deref()
        .map(worker_ok_counts)
        .unwrap_or_default();
    let total: u64 = oks.iter().sum();
    if oks.len() != 2 || total == 0 {
        rep.problems
            .push(format!("cluster stats name workers' ok counts {oks:?}"));
    }
    let busiest = oks.iter().copied().max().unwrap_or(0) as f64 / total.max(1) as f64;
    rep.put("cluster.busiest_worker_share", busiest, "ratio");
    let parts = [
        ("route", med(&route)),
        ("worker queue wait", p50_field_us(run, |o| o.wait_us)),
        ("worker solve", p50_field_us(run, |o| o.solve_us)),
    ];
    breakdown(
        rep,
        w,
        &parts,
        p50_us(run, latency_us),
        " (coordinator hop: two TCP legs, re-encoding, pooled-connection lock)",
    );
}

/// The `ok` count of each entry of the `workers` array of a cluster
/// `stats` reply.
fn worker_ok_counts(stats: &str) -> Vec<u64> {
    let Some(workers) = stats.split("\"workers\":").nth(1) else {
        return vec![];
    };
    workers
        .split("\"ok\":")
        .skip(1)
        .filter_map(|s| {
            let digits: String = s.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_opt_small() {
        // Sizes 3 and 5, cap 8: (2,1) packs as {3,5} + {3} = 2 machines.
        assert_eq!(reference_opt(&[2, 1], &[3, 5], 8), 2);
        assert_eq!(reference_opt(&[0, 0], &[3, 5], 8), 0);
        assert_eq!(reference_opt(&[1], &[9], 8), u32::MAX);
    }

    #[test]
    fn ok_counts_from_stats() {
        let s =
            r#"{"routed":3,"workers":[{"id":"worker-0","ok":5,"x":1},{"id":"worker-1","ok":7}]}"#;
        assert_eq!(worker_ok_counts(s), vec![5, 7]);
    }
}
