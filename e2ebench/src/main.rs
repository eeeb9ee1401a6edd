//! End-to-end benchmark of the pak pipeline, from DSL source text to a
//! checked report or a served verdict.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <check_corpus|check_deep|serve_hot|serve_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A wrong answer
//! prints `"correct": false` and exits with code 1; bad arguments exit
//! with code 2. See `README.md` for the workloads and metrics.

mod check;
mod gen;
mod serve;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use check::{Answers, CheckInput, Theorems, TreeStats};

type Reference = (Answers, Option<Theorems>);
use trace::Tracer;
use util::{median, metric, ms, percentile, Digest, Metric};

const WORKLOADS: [&str; 4] = ["check_corpus", "check_deep", "serve_hot", "serve_churn"];
/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Share of a service run spent in the open loop; the rest is the
/// closed loop. The end-to-end figures come from the closed loop, so an
/// untraced run gives it most of the run. Most per-layer figures come
/// from the open loop and its replay, so a traced run gives that most.
fn open_share(trace: bool) -> f64 {
    if trace {
        0.65
    } else {
        0.3
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload hands back for printing.
struct Outcome {
    wrong: Vec<String>,
    attempted: u64,
    failed: u64,
    setup_s: f64,
    /// End-to-end metrics other than `setup_s`, `peak_rss_mb` and
    /// `ok_rate`, which every workload reports the same way.
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    /// The end-to-end figures under their planning names (`check_p50_ms`,
    /// `serve_capacity_qps`, ...), for people.
    aliases: Vec<(String, f64)>,
    digest: Digest,
    tracer: Tracer,
}

/// Runs `f` `SETUP_REPS` times and keeps the last result; the median
/// time is `setup_s`.
fn repeat_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(f()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("set-up ran at least once"), median(&times)))
}

/// The per-layer metrics in `BENCHMARK.json` order. A workload that
/// never calls a layer reports 0 for it.
#[derive(Default)]
struct Layers {
    dsl_ms: f64,
    dsl_share: f64,
    unfold_ms: f64,
    nodes: f64,
    nodes_per_ms: f64,
    protocol_share: f64,
    analysis_ms: f64,
    tree_bytes: f64,
    runs: f64,
    cells: f64,
    core_share: f64,
    den_bits_max: f64,
    wide_share: f64,
    eval_ms: f64,
    subformulas: f64,
    hit_ratio: f64,
    evictions: f64,
    cache_bytes: f64,
    pps_at_hit_ms: f64,
    pps_at_miss_ms: f64,
    engine_share: f64,
    submit_us: f64,
    overhead_ms: f64,
    served: f64,
    rejected: f64,
    server_share: f64,
    late_ms: f64,
    trace_overhead: f64,
}

impl Layers {
    fn metrics(&self) -> Vec<Metric> {
        [
            ("pak-dsl.compile_ms", "ms", self.dsl_ms),
            ("pak-dsl.share", "ratio", self.dsl_share),
            ("pak-protocol.unfold_ms", "ms", self.unfold_ms),
            ("pak-protocol.nodes", "count", self.nodes),
            ("pak-protocol.nodes_per_ms", "1/ms", self.nodes_per_ms),
            ("pak-protocol.share", "ratio", self.protocol_share),
            ("pak-core.analysis_ms", "ms", self.analysis_ms),
            ("pak-core.tree_bytes", "bytes", self.tree_bytes),
            ("pak-core.runs", "count", self.runs),
            ("pak-core.cells", "count", self.cells),
            ("pak-core.share", "ratio", self.core_share),
            ("pak-num.den_bits_max", "bits", self.den_bits_max),
            ("pak-num.wide_share", "ratio", self.wide_share),
            ("pak-engine.eval_ms", "ms", self.eval_ms),
            ("pak-engine.subformulas", "count", self.subformulas),
            ("pak-engine.cache_hit_ratio", "ratio", self.hit_ratio),
            ("pak-engine.cache_evictions", "count", self.evictions),
            ("pak-engine.cache_bytes", "bytes", self.cache_bytes),
            ("pak-engine.pps_at_hit_ms", "ms", self.pps_at_hit_ms),
            ("pak-engine.pps_at_miss_ms", "ms", self.pps_at_miss_ms),
            ("pak-engine.share", "ratio", self.engine_share),
            ("pak-server.submit_us", "us", self.submit_us),
            ("pak-server.overhead_ms", "ms", self.overhead_ms),
            ("pak-server.served", "count", self.served),
            ("pak-server.rejected", "count", self.rejected),
            ("pak-server.share", "ratio", self.server_share),
            ("bench.late_ms", "ms", self.late_ms),
            ("bench.trace_overhead", "ratio", self.trace_overhead),
        ]
        .into_iter()
        .map(|(name, unit, value)| metric(name, unit, value))
        .collect()
    }
}

/// Samples a run needs for its p99 to have ten samples beyond it.
const TAIL_SAMPLES: usize = 1000;

/// Checks of each `check_deep` rung per pass. The top rung takes most of
/// a pass, so the lower rungs are checked more often, which gives the
/// median many samples spread over the run.
const DEEP_CHECKS_PER_PASS: [usize; 3] = [8, 8, 1];

/// One pass over the inputs: each input's index and how many samples its
/// wall time counts as in the percentiles. A `check_deep` check counts as
/// the top rung's repeats over its own rung's, so every rung weighs the
/// same, as if each were checked once per pass.
fn schedule(name: &str, inputs: usize) -> Vec<(usize, usize)> {
    if name != "check_deep" {
        return (0..inputs).map(|i| (i, 1)).collect();
    }
    let most = DEEP_CHECKS_PER_PASS.iter().copied().max().unwrap_or(1);
    (0..most)
        .flat_map(|k| {
            DEEP_CHECKS_PER_PASS
                .iter()
                .enumerate()
                .filter(move |&(_, &n)| k < n)
                .map(move |(i, &n)| (i, most / n))
        })
        .collect()
}

/// The p99 of `sorted` when `checks` are enough for it; otherwise the
/// median of the slowest third, which on `check_deep` is the top rung's
/// median check.
fn tail(sorted: &[f64], checks: usize) -> f64 {
    if checks >= TAIL_SAMPLES {
        percentile(sorted, 0.99)
    } else {
        median(&sorted[sorted.len() - sorted.len().div_ceil(3)..])
    }
}

fn per(total: f64, n: f64) -> f64 {
    if n > 0.0 {
        total / n
    } else {
        0.0
    }
}

fn check_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    epoch: Instant,
) -> Result<Outcome, String> {
    let build = || -> Result<(Vec<CheckInput>, Vec<Reference>), String> {
        let inputs: Vec<CheckInput> = if name == "check_corpus" {
            check::corpus_inputs(seed)
        } else {
            gen::LADDER
                .iter()
                .map(|r| check::ladder_input(r, seed))
                .collect()
        };
        let naive = name == "check_corpus";
        let refs = inputs
            .iter()
            .map(|i| check::reference(i, naive))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((inputs, refs))
    };
    let ((inputs, mut refs), setup_s) = repeat_setup(build)?;
    let mut wrong = Vec::new();
    for (i, (answers, theorems)) in refs.iter().enumerate() {
        if let Some(v) = theorems.as_ref().and_then(Theorems::violation) {
            wrong.push(format!("reference {i}: {v}"));
        }
        if name == "check_deep" {
            let rung = &gen::LADDER[i];
            let band = rung.band.0..=rung.band.1;
            if answers.nodes != rung.nodes() || !band.contains(&answers.nodes) {
                wrong.push(format!(
                    "rung {}: {} nodes, expected {}",
                    rung.name,
                    answers.nodes,
                    rung.nodes()
                ));
            }
        }
    }

    let mut tr = Tracer::new(false, epoch, "main");
    let mut stats = TreeStats::default();
    let (mut walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut timed_checks, mut traced_checks, mut traced_ms) = (0usize, 0usize, 0.0);
    let (mut attempted, mut failed, mut nodes) = (0u64, 0u64, 0u64);
    let min_passes = if trace { 2 } else { 1 };
    let pass_plan = schedule(name, inputs.len());
    let start = Instant::now();
    let mut pass = 0usize;
    let mut pass_rates = Vec::new();
    while wrong.is_empty() && (pass < min_passes || start.elapsed().as_secs_f64() < seconds) {
        let traced = trace && pass % 2 == 1;
        let (pass_start, nodes_before) = (Instant::now(), nodes);
        tr.set_enabled(traced);
        for &(i, copies) in &pass_plan {
            let req = attempted;
            attempted += 1;
            match check::check(&inputs[i], &mut tr, req, traced.then_some(&mut stats)) {
                Ok(c) => {
                    let (answers, theorems) = &mut refs[i];
                    let want = theorems.get_or_insert_with(|| c.report.theorems.clone());
                    if c.report.answers != *answers || c.report.theorems != *want {
                        wrong.push(format!(
                            "check {i}: report differs from the reference\n got {:?}\nwant {answers:?} {want:?}",
                            c.report
                        ));
                    } else if let Some(v) = c.report.theorems.violation() {
                        wrong.push(format!("check {i}: {v}"));
                    }
                    nodes += c.report.answers.nodes as u64;
                    let wall = ms(c.wall);
                    if traced {
                        traced_checks += 1;
                        traced_ms += wall;
                        traced_walls.extend(std::iter::repeat_n(wall, copies));
                    } else {
                        timed_checks += 1;
                        walls.extend(std::iter::repeat_n(wall, copies));
                    }
                }
                Err(e) => {
                    eprintln!("check {i} failed: {e}");
                    failed += 1;
                }
            }
        }
        if !traced {
            pass_rates.push((nodes - nodes_before) as f64 / pass_start.elapsed().as_secs_f64());
        }
        pass += 1;
    }
    let mut digest = Digest::default();
    for r in &refs {
        digest.feed(&format!("{r:?}"));
    }
    tr.set_enabled(false);
    walls.sort_by(f64::total_cmp);
    if walls.is_empty() {
        return Err("no untimed check finished".to_string());
    }
    let p50 = percentile(&walls, 0.5);
    let p99 = tail(&walls, timed_checks);
    // Work per second is the median over passes, so a burst of host
    // noise moves one pass, not the figure.
    let nodes_per_s = median(&pass_rates);

    let mut layers = Layers::default();
    if trace {
        let n = traced_checks as f64;
        let total = traced_ms;
        let trees = stats.trees as f64;
        let unfold =
            tr.self_ms("pak-protocol.Unfolder::new") + tr.self_ms("pak-protocol.extend_horizon");
        layers.dsl_ms = per(tr.self_ms("pak-dsl."), n);
        layers.dsl_share = per(tr.self_ms("pak-dsl."), total);
        layers.unfold_ms = per(unfold, n);
        layers.nodes = per(stats.nodes as f64, trees);
        layers.nodes_per_ms = per(stats.nodes as f64, unfold);
        layers.protocol_share = per(tr.self_ms("pak-protocol."), total);
        layers.analysis_ms = per(tr.self_ms("pak-core."), n);
        layers.tree_bytes = per(stats.tree_bytes as f64, trees);
        layers.runs = per(stats.runs as f64, trees);
        layers.cells = per(stats.cells as f64, trees);
        layers.core_share = per(tr.self_ms("pak-core."), total);
        layers.den_bits_max = stats.den_bits_max as f64;
        layers.wide_share = per(stats.wide_runs as f64, stats.runs as f64);
        layers.eval_ms = per(tr.self_ms("pak-engine."), n);
        layers.subformulas = per(stats.subformulas as f64, trees);
        layers.engine_share = per(tr.self_ms("pak-engine."), total);
        traced_walls.sort_by(f64::total_cmp);
        layers.trace_overhead = percentile(&traced_walls, 0.5) / p50 - 1.0;
    }
    Ok(Outcome {
        wrong,
        attempted,
        failed,
        setup_s,
        end_to_end: vec![
            metric("p50_ms", "ms", p50),
            metric("p99_ms", "ms", p99),
            metric("work_per_s", "1/s", nodes_per_s),
        ],
        per_layer: layers.metrics(),
        aliases: vec![
            (format!("check_p50_ms (n={timed_checks})"), p50),
            (
                if timed_checks >= TAIL_SAMPLES {
                    format!("check_p99_ms (n={timed_checks})")
                } else {
                    format!(
                        "check_p99_ms (n={timed_checks} < {TAIL_SAMPLES}: median of the slowest third)"
                    )
                },
                p99,
            ),
            ("check_nodes_per_s".to_string(), nodes_per_s),
        ],
        digest,
        tracer: tr,
    })
}

fn serve_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    epoch: Instant,
) -> Result<Outcome, String> {
    let spec = if name == "serve_hot" {
        serve::hot()
    } else {
        serve::churn()
    };
    let cores = util::nproc();
    let (setup, setup_s) = repeat_setup(|| serve::setup(&spec, seed, cores))?;
    let (warm, working_set) = (setup.warm, setup.working_set);
    let mut digest = Digest::default();
    setup.digest_answers(&mut digest);
    let mut tr = Tracer::new(trace, epoch, "main");
    let (run, replay) = serve::run(
        setup,
        &spec,
        seed,
        seconds * open_share(trace),
        seconds * (1.0 - open_share(trace)),
        cores,
        &mut tr,
    );
    let mut wrong = Vec::new();
    if run.wrong > 0 {
        wrong.push(format!(
            "{} served answers differ from the direct answers",
            run.wrong
        ));
    }
    let p50 = percentile(&run.latencies, 0.5);
    let p99 = percentile(&run.latencies, 0.99);
    let cache = serve::measured_cache(&run.summary.cache, &warm.cache);

    let mut layers = Layers::default();
    if trace {
        let lat = |traced: bool| {
            let mut v: Vec<f64> = run
                .open
                .iter()
                .filter(|r| r.ok && r.traced == traced)
                .map(|r| r.latency_ms)
                .collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let (traced, untraced) = (lat(true), lat(false));
        let n = replay.cost_ms.len() as f64;
        let served_total: f64 = run.open.iter().filter(|r| r.ok).map(|r| r.latency_ms).sum();
        let overhead: Vec<f64> = run
            .open
            .iter()
            .zip(&replay.cost_ms)
            .filter(|(r, _)| r.ok)
            .map(|(r, c)| r.latency_ms - c)
            .collect();
        let engine_total = replay.hit_ms + replay.miss_ms + replay.eval_ms;
        layers.eval_ms = per(replay.eval_ms, n);
        layers.subformulas = per(replay.subformulas as f64, n);
        layers.hit_ratio = per(cache.hits as f64, (cache.hits + cache.misses) as f64);
        layers.evictions = cache.evictions as f64;
        layers.cache_bytes = cache.bytes as f64;
        layers.pps_at_hit_ms = per(replay.hit_ms, replay.hits as f64);
        layers.pps_at_miss_ms = per(replay.miss_ms, replay.misses as f64);
        layers.engine_share = per(engine_total, served_total);
        layers.submit_us = per(
            tr.self_ms("pak-server.submit") * 1e3,
            tr.calls("pak-server.submit") as f64,
        );
        layers.overhead_ms = per(overhead.iter().sum(), overhead.len() as f64);
        layers.served = (run.summary.served - warm.served) as f64;
        layers.rejected = (run.summary.rejected - warm.rejected) as f64;
        layers.server_share = per(overhead.iter().sum(), served_total);
        layers.late_ms = serve::late_p99_ms(&run.open);
        if !traced.is_empty() && !untraced.is_empty() {
            layers.trace_overhead = percentile(&traced, 0.5) / percentile(&untraced, 0.5) - 1.0;
        }
    }
    let open_p50 = percentile(&run.open_latencies, 0.5);
    let open_p99 = percentile(&run.open_latencies, 0.99);
    let within = if open_p99 <= spec.limit_ms {
        "within"
    } else {
        "over"
    };
    Ok(Outcome {
        wrong,
        attempted: run.attempted,
        failed: run.failed,
        setup_s,
        end_to_end: vec![
            metric("p50_ms", "ms", p50),
            metric("p99_ms", "ms", p99),
            metric("work_per_s", "1/s", run.capacity_qps),
        ],
        per_layer: layers.metrics(),
        aliases: vec![
            (
                format!(
                    "serve_p50_ms (n={}, {cores} closed-loop clients)",
                    run.latencies.len()
                ),
                p50,
            ),
            ("serve_p99_ms".to_string(), p99),
            (
                format!(
                    "serve_open_p50_ms (n={}, open loop at {} qps)",
                    run.open_latencies.len(),
                    spec.rate_qps
                ),
                open_p50,
            ),
            (
                format!(
                    "serve_open_p99_ms ({within} the {} ms limit)",
                    spec.limit_ms
                ),
                open_p99,
            ),
            (
                format!("serve_capacity_qps ({cores} closed-loop clients)"),
                run.capacity_qps,
            ),
            (
                "cache_hit_ratio".to_string(),
                per(cache.hits as f64, (cache.hits + cache.misses) as f64),
            ),
            ("cache_evictions".to_string(), cache.evictions as f64),
            ("late_p99_ms".to_string(), serve::late_p99_ms(&run.open)),
            ("working_set_bytes".to_string(), working_set as f64),
        ],
        digest,
        tracer: tr,
    })
}

/// The directory the benchmark writes traces and digests to.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Compares the verdict digest with the one an earlier run of the same
/// workload and seed left, traced or not, and records it if new.
fn check_digest(workload: &str, seed: u64, digest: &Digest) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("digest-{workload}-{seed}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(old) if old.trim() != digest.hex() => Err(format!(
            "verdict digest {} differs from the earlier run's {}",
            digest.hex(),
            old.trim()
        )),
        Ok(_) => Ok(()),
        Err(_) => {
            std::fs::write(&path, digest.hex()).map_err(|e| format!("{}: {e}", path.display()))
        }
    }
}

fn write_trace(workload: &str, seed: u64, stamp: &str, tracer: &Tracer) -> Result<PathBuf, String> {
    let path = out_dir().join(format!("trace-{workload}-{seed}.tsv"));
    let mut text = format!("# {stamp}\n# thread\tspan\tparent\treq\tname\tstart_ns\tend_ns\n");
    tracer.write_spans(&mut text);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let epoch = Instant::now();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    let stamp = format!(
        "rev={} nproc={} profile={} workload={} seed={} seconds={} trace={}",
        util::git_rev(root),
        util::nproc(),
        util::profile(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# {stamp}");
    let result = if args.workload.starts_with("check_") {
        check_workload(&args.workload, args.seed, args.seconds, args.trace, epoch)
    } else {
        serve_workload(&args.workload, args.seed, args.seconds, args.trace, epoch)
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    if let Err(e) = check_digest(&args.workload, args.seed, &outcome.digest) {
        outcome.wrong.push(e);
    }
    for w in &outcome.wrong {
        eprintln!("wrong answer: {w}");
    }
    let correct = outcome.wrong.is_empty();
    for (name, value) in &outcome.aliases {
        println!("# {name} = {value}");
    }
    let ok_rate = 1.0 - per(outcome.failed as f64, outcome.attempted as f64);
    println!(
        "# error_rate = {} ({} of {} failed or refused)",
        1.0 - ok_rate,
        outcome.failed,
        outcome.attempted
    );
    println!("# verdict digest = {}", outcome.digest.hex());
    let metrics = if args.trace {
        match write_trace(&args.workload, args.seed, &stamp, &outcome.tracer) {
            Ok(path) => println!("# trace written to {}", path.display()),
            Err(e) => eprintln!("warning: trace not written: {e}"),
        }
        outcome.per_layer
    } else {
        let mut m = vec![metric("setup_s", "s", outcome.setup_s)];
        m.extend(outcome.end_to_end);
        m.push(metric("peak_rss_mb", "MB", util::peak_rss_mb()));
        m.push(metric("ok_rate", "ratio", ok_rate));
        m
    };
    println!(
        "{}",
        util::result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
