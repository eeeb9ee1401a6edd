//! The service workloads: `pak-server` over one compiled mid-size model.
//!
//! One process makes all the load. An open loop sends at a fixed rate
//! and times each request from when it was due; a collector thread waits
//! for the answers in order. A closed loop of `nproc` clients, each
//! waiting for its reply, then gives the reported latency and capacity:
//! on a shared 2-core host the open loop's percentiles move by a quarter
//! or more between runs, with the time idle cores take to wake, while
//! the closed loop's keep within a tenth. Every answer is compared with
//! a direct `Evaluator` answer computed in set-up. The traced run replays
//! the open-loop stream on the benchmark thread through
//! `CachedUnfolder::pps_at` and the `Evaluator`, to split each served
//! latency into engine work and service overhead.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pak_core::fact::StateFact;
use pak_core::generator::SplitMix64;
use pak_core::ids::AgentId;
use pak_core::ids::Time;
use pak_core::state::SimpleState;
use pak_dsl::compile_str;
use pak_engine::{CacheBudget, CacheStats, CachedUnfolder, Evaluator, PpsCache};
use pak_logic::Formula;
use pak_num::Rational;
use pak_protocol::model::TableModel;
use pak_protocol::unfold::{unfold_with, UnfoldConfig};
use pak_server::{Answer, PakServer, Query, ServerConfig, ServiceError};

use crate::check::F;
use crate::gen;
use crate::trace::Tracer;
use crate::util::{median, ms, percentile, Digest};

type Model = TableModel<Rational>;
type Server = PakServer<Model, Rational>;
/// A closed-loop client's answers as (sent, answered, ok), in seconds
/// since the loop began, and its count of wrong answers.
type ClientLog = (Vec<(f64, f64, bool)>, u64);

/// The knobs that tell the two service workloads apart.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Horizons queries draw from.
    pub horizons: Vec<Time>,
    /// Cache byte budget as a share of the summed tree footprints of
    /// all horizons; `None` is unbounded.
    pub budget_share: Option<f64>,
    /// Offered rate of the open loop, in requests per second.
    pub rate_qps: f64,
    /// The fixed latency limit on the p99, in milliseconds.
    pub limit_ms: f64,
}

/// Formula shape `shape` of four, with seeded agents and values: what an
/// agent knows, believes or will see.
fn template(rng: &mut SplitMix64, shape: usize) -> F {
    let agent = AgentId(rng.below(2) as u32);
    let env = rng.below(gen::ENVS);
    let local = rng.below(2);
    let env_is = Formula::atom(StateFact::new(
        format!("env={env}"),
        move |g: &SimpleState| g.env == env,
    ));
    let idx = agent.index();
    let local_is = Formula::atom(StateFact::new(
        format!("l{idx}={local}"),
        move |g: &SimpleState| g.locals[idx] == local,
    ));
    match shape {
        0 => Formula::knows(agent, env_is),
        1 => Formula::believes_at_least(
            agent,
            local_is,
            Rational::from_ratio(1 + rng.below(3) as i64, 4),
        ),
        2 => env_is.and(local_is).eventually(),
        _ => Formula::knows(agent, env_is.eventually()),
    }
}

/// `serve_hot`: three horizons, the middle one drawn twice as often, all
/// cached after warm-up.
#[must_use]
pub fn hot() -> ServeSpec {
    ServeSpec {
        horizons: vec![5, 6, 6, 7],
        budget_share: None,
        rate_qps: 80.0,
        limit_ms: 50.0,
    }
}

/// `serve_churn`: every horizon, a byte budget below the working set.
#[must_use]
pub fn churn() -> ServeSpec {
    ServeSpec {
        horizons: (1..=7).collect(),
        budget_share: Some(0.5),
        rate_qps: 80.0,
        limit_ms: 200.0,
    }
}

/// Pool queries per horizon: 4 x 4 formula shape pairs, 3 of 4 as
/// verdict batches and 1 of 4 as measures.
const PER_HORIZON: usize = 64;
/// The served model is fixed, as a deployed service's would be; the
/// workload seed draws the query pool and the request stream.
const MODEL_SEED: u64 = 0;
/// Deadline of every request: a request still unanswered after it
/// counts as failed.
const DEADLINE: Duration = Duration::from_secs(2);

struct PoolQuery {
    query: Query<SimpleState, Rational>,
    expected: Answer<Rational>,
}

/// Everything set-up builds: the model, the query pool with its direct
/// answers, and the started, warmed server.
pub struct Setup {
    model: Arc<Model>,
    pool: Vec<PoolQuery>,
    budget: CacheBudget,
    server: Server,
    /// Tree footprint summed over every served horizon, in bytes.
    pub working_set: usize,
    /// Server counters after warm-up.
    pub warm: pak_server::ShutdownSummary,
}

fn unfold_config() -> UnfoldConfig {
    UnfoldConfig {
        max_nodes: 4 << 20,
        ..UnfoldConfig::default()
    }
}

fn answer(
    ev: &mut Evaluator<'_, SimpleState, Rational>,
    query: &Query<SimpleState, Rational>,
) -> Answer<Rational> {
    match query {
        Query::Verdicts { formulas, .. } => Answer::Verdicts(ev.evaluate_batch(formulas)),
        Query::Measure { time, formula, .. } => Answer::Exact(ev.measure_at_time(formula, *time)),
    }
}

fn horizon_of(query: &Query<SimpleState, Rational>) -> Time {
    match query {
        Query::Verdicts { horizon, .. } | Query::Measure { horizon, .. } => *horizon,
    }
}

/// Generates the inputs, compiles the model, computes the direct
/// answers, starts the server with `workers` workers and warms its
/// cache with one pass over the pool.
///
/// # Errors
///
/// A failed compile, unfold or warm-up answer, as text.
pub fn setup(spec: &ServeSpec, seed: u64, workers: usize) -> Result<Setup, String> {
    let compiled = compile_str::<Rational>(&gen::program(&gen::SERVICE, MODEL_SEED))
        .map_err(|e| format!("compile: {e}"))?;
    let model = Arc::new(compiled.into_model());
    // A stratified pool: every horizon gets every pair of formula shapes,
    // as batches and as measures, so the pool's cost mix is the same on
    // every seed. The seed draws the agents, values and thresholds.
    let mut rng = SplitMix64::new(seed ^ 0x7365_7276_6500_0001);
    let pool_len = PER_HORIZON * spec.horizons.len();
    let mut queries = Vec::with_capacity(pool_len);
    for i in 0..pool_len {
        let horizon = spec.horizons[i % spec.horizons.len()];
        let k = i / spec.horizons.len();
        let (f, g) = (template(&mut rng, k % 4), template(&mut rng, (k / 4) % 4));
        queries.push(if k / 16 == 3 {
            Query::Measure {
                horizon,
                time: rng.below(u64::from(horizon) + 1) as Time,
                formula: f.and(g),
            }
        } else {
            Query::Verdicts {
                horizon,
                formulas: vec![f, g],
            }
        });
    }
    // Direct answers, one from-scratch tree per horizon.
    let mut pool = Vec::with_capacity(pool_len);
    let mut expected: Vec<Option<Answer<Rational>>> = vec![None; pool_len];
    let mut working_set = 0;
    for &h in &spec.horizons {
        let pps = unfold_with(
            model.as_ref(),
            &UnfoldConfig {
                horizon: Some(h),
                ..unfold_config()
            },
        )
        .map_err(|e| format!("unfold: {e}"))?;
        working_set += pps.memory_footprint();
        for (i, q) in queries.iter().enumerate() {
            if horizon_of(q) == h {
                expected[i] = Some(answer(&mut Evaluator::new(&pps), q));
            }
        }
    }
    for (query, expected) in queries.into_iter().zip(expected) {
        pool.push(PoolQuery {
            query,
            expected: expected.expect("every pool horizon was unfolded"),
        });
    }
    let budget = CacheBudget {
        max_entries: None,
        max_bytes: spec.budget_share.map(|s| (working_set as f64 * s) as usize),
    };
    let server = Server::start(
        Arc::clone(&model),
        ServerConfig {
            workers,
            queue_capacity: 4096,
            default_deadline: Some(DEADLINE),
            unfold: unfold_config(),
            cache: budget,
            fallback: None,
        },
    );
    // The pool's first entries cover every horizon. They go one at a
    // time, so each horizon's tree is built once; misses racing in a bulk
    // warm-up would build some trees twice and move the peak memory from
    // run to run.
    let (first, rest) = pool.split_at(spec.horizons.len());
    for p in first {
        warm_up(&server, std::slice::from_ref(p))?;
    }
    warm_up(&server, rest)?;
    let warm = server.summary();
    Ok(Setup {
        model,
        pool,
        budget,
        server,
        working_set,
        warm,
    })
}

/// Submits `pool` at once and checks every answer.
fn warm_up(server: &Server, pool: &[PoolQuery]) -> Result<(), String> {
    let tickets: Vec<_> = pool
        .iter()
        .map(|p| server.submit(p.query.clone()))
        .collect();
    for (p, t) in pool.iter().zip(tickets) {
        let got = t.map_err(|e| format!("warm-up: {e}"))?.wait();
        if got.as_ref() != Ok(&p.expected) {
            return Err(format!(
                "warm-up answer differs from the direct answer: {got:?}"
            ));
        }
    }
    Ok(())
}

impl Setup {
    /// Feeds every pool query's direct answer, which every served answer
    /// must equal, into `digest`.
    pub fn digest_answers(&self, digest: &mut Digest) {
        for p in &self.pool {
            digest.feed(&format!("{:?}", p.expected));
        }
    }
}

/// One open-loop request as the collector saw it.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// Pool index of the query.
    pub query: usize,
    /// Milliseconds from when it was due to its answer.
    pub latency_ms: f64,
    /// Milliseconds the generator sent it late.
    pub late_ms: f64,
    /// Whether it was answered.
    pub ok: bool,
    /// Whether its submit was traced.
    pub traced: bool,
}

/// What a service run measured.
pub struct ServeRun {
    /// The open-loop requests, in send order.
    pub open: Vec<Served>,
    /// Closed-loop latencies, submit to answer, with failures counted
    /// at the limit, sorted.
    pub latencies: Vec<f64>,
    /// Open-loop latencies, due to answer, with failures counted at the
    /// limit, sorted.
    pub open_latencies: Vec<f64>,
    /// Closed-loop answers per second: the median over one-second
    /// windows.
    pub capacity_qps: f64,
    /// Operations attempted and failed, both loops.
    pub attempted: u64,
    /// Failed or refused operations.
    pub failed: u64,
    /// Answers that differed from the direct answer.
    pub wrong: u64,
    /// Server counters at shutdown.
    pub summary: pak_server::ShutdownSummary,
}

fn matches(got: &Result<Answer<Rational>, ServiceError>, p: &PoolQuery) -> Option<bool> {
    match got {
        Ok(a) => Some(*a == p.expected),
        Err(_) => None,
    }
}

/// Runs the open loop for `open_s` seconds and the closed loop for
/// `closed_s` seconds, then shuts the server down. With tracing, every
/// other `submit` is traced.
#[must_use]
pub fn run(
    setup: Setup,
    spec: &ServeSpec,
    seed: u64,
    open_s: f64,
    closed_s: f64,
    clients: usize,
    tr: &mut Tracer,
) -> (ServeRun, Replay) {
    let Setup {
        model,
        pool,
        budget,
        server,
        ..
    } = setup;
    let mut rng = SplitMix64::new(seed ^ 0x6f70_656e_0000_0001);
    let interval = Duration::from_secs_f64(1.0 / spec.rate_qps);
    let n_open = (open_s * spec.rate_qps) as usize;
    let stream: Vec<usize> = (0..n_open)
        .map(|_| rng.below(pool.len() as u64) as usize)
        .collect();
    let trace_on = tr.enabled();

    let (open, wrong_open) = std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(
            usize,
            Instant,
            f64,
            bool,
            Result<pak_server::Ticket<Rational>, ServiceError>,
        )>();
        let pool = &pool;
        let collector = s.spawn(move || {
            let mut served = Vec::new();
            let mut wrong = 0u64;
            for (q, due, late_ms, traced, sent) in rx {
                let got = sent.and_then(pak_server::Ticket::wait);
                let latency_ms = ms(due.elapsed());
                let ok = match matches(&got, &pool[q]) {
                    Some(true) => true,
                    Some(false) => {
                        wrong += 1;
                        true
                    }
                    None => false,
                };
                served.push(Served {
                    query: q,
                    latency_ms,
                    late_ms,
                    ok,
                    traced,
                });
            }
            (served, wrong)
        });
        let start = Instant::now();
        for (i, &q) in stream.iter().enumerate() {
            let due = start + interval * u32::try_from(i).expect("open-loop length fits u32");
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let late_ms = ms(Instant::now().saturating_duration_since(due));
            let traced = trace_on && i % 2 == 1;
            tr.set_enabled(traced);
            let query = pool[q].query.clone();
            let sent = tr.span("pak-server.submit", i as u64, || server.submit(query));
            tx.send((q, due, late_ms, traced, sent))
                .expect("the collector outlives the generator");
        }
        tr.set_enabled(trace_on);
        drop(tx);
        collector
            .join()
            .expect("the collector thread does not panic")
    });

    // Closed loop: `clients` threads, each waiting for its reply.
    let closed_start = Instant::now();
    let closed_end = closed_start + Duration::from_secs_f64(closed_s);
    let per_client: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (server, pool) = (&server, &pool);
                s.spawn(move || {
                    let mut rng = SplitMix64::new(seed ^ (0x636c_6f73_0000_0000 + c as u64));
                    let (mut log, mut wrong) = (Vec::new(), 0u64);
                    while Instant::now() < closed_end {
                        let p = &pool[rng.below(pool.len() as u64) as usize];
                        let sent = closed_start.elapsed().as_secs_f64();
                        let got = server
                            .submit(p.query.clone())
                            .and_then(pak_server::Ticket::wait);
                        let answered = closed_start.elapsed().as_secs_f64();
                        let ok = matches(&got, p);
                        wrong += u64::from(ok == Some(false));
                        log.push((sent, answered, ok.is_some()));
                    }
                    (log, wrong)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let summary = server.shutdown();
    let closed: Vec<(f64, f64, bool)> = per_client
        .iter()
        .flat_map(|c| c.0.iter().copied())
        .collect();

    // Capacity is the median of whole one-second windows' answer counts,
    // so a burst of host noise moves one window, not the figure.
    let windows = (closed_s.floor() as usize).max(1);
    let window_s = closed_s / windows as f64;
    let mut counts = vec![0.0; windows];
    for &(_, answered, ok) in &closed {
        if let Some(n) = counts
            .get_mut((answered / window_s) as usize)
            .filter(|_| ok)
        {
            *n += 1.0;
        }
    }
    let capacity_qps = median(&counts) / window_s;

    let wrong = wrong_open + per_client.iter().map(|c| c.1).sum::<u64>();
    let at_limit = |latency_ms: f64, ok: bool| {
        if ok {
            latency_ms
        } else {
            latency_ms.max(spec.limit_ms)
        }
    };
    let mut latencies: Vec<f64> = closed
        .iter()
        .map(|&(sent, answered, ok)| at_limit((answered - sent) * 1e3, ok))
        .collect();
    latencies.sort_by(f64::total_cmp);
    let mut open_latencies: Vec<f64> = open.iter().map(|r| at_limit(r.latency_ms, r.ok)).collect();
    open_latencies.sort_by(f64::total_cmp);
    let failed = open.iter().filter(|r| !r.ok).count() + closed.iter().filter(|c| !c.2).count();

    let replay = if trace_on {
        replay(&model, &pool, budget, &open, tr)
    } else {
        Replay::default()
    };
    (
        ServeRun {
            attempted: (open.len() + closed.len()) as u64,
            failed: failed as u64,
            wrong: wrong + replay.wrong,
            capacity_qps,
            open,
            latencies,
            open_latencies,
            summary,
        },
        replay,
    )
}

/// The direct replay of the open-loop stream on the benchmark thread.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Per open-loop request: milliseconds of `pps_at` plus evaluation.
    pub cost_ms: Vec<f64>,
    /// Summed `pps_at` milliseconds and calls, for hits and for misses.
    pub hit_ms: f64,
    /// Hits replayed.
    pub hits: u64,
    /// Summed miss milliseconds.
    pub miss_ms: f64,
    /// Misses replayed.
    pub misses: u64,
    /// Summed evaluation milliseconds.
    pub eval_ms: f64,
    /// Summed interned subformulas.
    pub subformulas: u64,
    /// Replayed answers that differed from the direct answer.
    pub wrong: u64,
}

fn replay(
    model: &Model,
    pool: &[PoolQuery],
    budget: CacheBudget,
    open: &[Served],
    tr: &mut Tracer,
) -> Replay {
    let cache = PpsCache::with_budget(budget);
    let mut session = CachedUnfolder::<_, Rational>::new(model, unfold_config())
        .expect("the service model unfolds");
    // Warm the replay's cache the way set-up warmed the server's.
    for p in pool {
        session
            .pps_at(&cache, horizon_of(&p.query))
            .expect("the service model unfolds");
    }
    let mut out = Replay::default();
    for (i, r) in open.iter().enumerate() {
        let p = &pool[r.query];
        let req = i as u64;
        let hits_before = cache.hits();
        let t0 = Instant::now();
        let tree = tr
            .span("pak-engine.pps_at", req, || {
                session.pps_at(&cache, horizon_of(&p.query))
            })
            .expect("the service model unfolds");
        let t1 = Instant::now();
        let mut ev = tr.span("pak-engine.Evaluator::new", req, || Evaluator::new(&tree));
        let got = match &p.query {
            Query::Verdicts { formulas, .. } => tr.span("pak-engine.evaluate_batch", req, || {
                Answer::Verdicts(ev.evaluate_batch(formulas))
            }),
            Query::Measure { time, formula, .. } => {
                tr.span("pak-engine.measure_at_time", req, || {
                    Answer::Exact(ev.measure_at_time(formula, *time))
                })
            }
        };
        let t2 = Instant::now();
        out.subformulas += ev.num_subformulas() as u64;
        if got != p.expected {
            out.wrong += 1;
        }
        let lookup = ms(t1 - t0);
        if cache.hits() > hits_before {
            out.hits += 1;
            out.hit_ms += lookup;
        } else {
            out.misses += 1;
            out.miss_ms += lookup;
        }
        out.eval_ms += ms(t2 - t1);
        out.cost_ms.push(ms(t2 - t0));
    }
    out
}

/// Cache counters over the measured loops: the shutdown summary minus
/// the warm-up snapshot.
#[must_use]
pub fn measured_cache(summary: &CacheStats, warm: &CacheStats) -> CacheStats {
    CacheStats {
        hits: summary.hits - warm.hits,
        misses: summary.misses - warm.misses,
        evictions: summary.evictions - warm.evictions,
        entries: summary.entries,
        bytes: summary.bytes,
    }
}

/// The p99 of the open loop's lateness, in milliseconds.
#[must_use]
pub fn late_p99_ms(open: &[Served]) -> f64 {
    let mut late: Vec<f64> = open.iter().map(|r| r.late_ms).collect();
    late.sort_by(f64::total_cmp);
    if late.is_empty() {
        0.0
    } else {
        percentile(&late, 0.99)
    }
}
