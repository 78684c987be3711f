//! End-to-end and per-layer benchmark of the learned query optimizer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_repeat|learned_wide|exec_large> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run sets up the catalog and server, trains MSCN, draws the
//! workload's distinct queries and their reference answers, serves every
//! query once untimed, then measures for `--seconds`. `--trace 0` prints
//! the end-to-end metrics; `--trace 1` adds a traced pass and prints the
//! per-layer metrics, writing spans and a layer table under
//! `perfbench/out/`. After the measurement, a probe on a server of its
//! own reports a known plan-cache defect (see `probe.rs`). The last stdout
//! line is one JSON object. The run exits non-zero on any wrong answer or
//! unexpected error. See `perfbench/README.md`.

mod check;
mod direct;
mod drive;
mod inputs;
mod probe;
mod spans;
mod summary;
mod workload;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use lqo_cache::{CacheStats, LqoCache};
use lqo_engine::datagen::stats_like;
use lqo_engine::{CardSource, Catalog, CatalogStats, TraditionalCardSource, TrueCardOracle};
use lqo_pilot::EngineInteractor;
use lqo_prof::ProfContext;
use lqo_serve::{LqoServer, QueryOutcome, ServeConfig};

use check::{judge, Tally};
use drive::{Client, Phase};
use spans::{Recorder, Tracing};
use summary::{mean, median, LatencySummary};
use workload::{Spec, Steer};

/// Share of `--seconds` given to each measured phase.
const CLOSED_SHARE: f64 = 0.3;
const OPEN_SHARE: f64 = 0.25;
const CAPACITY_SHARE: f64 = 0.2;

/// Each phase runs as this many interleaved slices, so a stretch of
/// machine noise spreads over every phase instead of landing on one.
const ROUNDS: usize = 5;

/// A phase's backlog grows when its last tenth of requests waits this many
/// times longer than its first tenth (median over slices).
const GROWING_BACKLOG: f64 = 2.0;

/// Distinct jobs the traced run also plans and executes step by step.
const DIRECT_JOBS: usize = 400;

/// Seed of every workload's database. The database is fixed; `--seed`
/// draws the queries, the training set and the arrival schedule, so runs
/// with different seeds differ in workload, not in data.
const CATALOG_SEED: u64 = 7;

/// Salt of the arrival schedule's stream.
const ARRIVAL_STREAM: u64 = 0xa771_0003;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing {k}"));
    let args = Args {
        workload: get("--workload")?.clone(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    };
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    if map.len() != 4 {
        return Err("expected exactly --workload --seed --seconds --trace".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!("perfbench: unknown workload '{}'", args.workload);
        std::process::exit(2);
    };
    std::process::exit(run(&spec, &args));
}

/// FNV-1a, for fingerprints.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of the statistics of every table, in catalog order.
fn stats_digest(catalog: &Catalog, stats: &CatalogStats) -> u64 {
    let mut h = Fnv::new();
    for t in catalog.tables() {
        h.bytes(t.name().as_bytes());
        h.bytes(format!("{:?}", stats.table(t.name())).as_bytes());
    }
    h.0
}

/// Digest of the served plans' deterministic traces: plan cost, step
/// count, answer and work bits of every distinct job.
fn plan_digest(outcomes: &[Option<QueryOutcome>]) -> u64 {
    let mut h = Fnv::new();
    for (i, o) in outcomes.iter().enumerate() {
        h.u64(i as u64);
        if let Some(o) = o {
            h.u64(o.plan_cost.to_bits());
            h.u64(o.steps);
            match &o.result {
                Ok(a) => {
                    h.u64(a.count);
                    h.u64(a.work.to_bits());
                }
                Err(e) => h.bytes(e.as_bytes()),
            }
        }
    }
    h.0
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// What set-up produced: the last of `spec.setups` repetitions, plus the
/// median timings.
struct Setup {
    catalog: Arc<Catalog>,
    server: LqoServer,
    cache: Arc<LqoCache>,
    setup_s: f64,
    catalog_ms: f64,
    start_ms: f64,
}

/// Catalog generation, then server start (the interactor builds its
/// statistics), repeated; reports medians.
fn setup(spec: &Spec) -> Setup {
    let (mut total, mut gen, mut start) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..spec.setups {
        drop(last.take());
        let t0 = Instant::now();
        let catalog = Arc::new(stats_like(spec.scale, CATALOG_SEED).expect("stats_like catalog"));
        let t1 = Instant::now();
        let cache = Arc::new(LqoCache::default());
        let interactor = Arc::new(EngineInteractor::new(catalog.clone()));
        let server = LqoServer::new(interactor, ServeConfig::default()).with_cache(cache.clone());
        let t2 = Instant::now();
        total.push(secs(t2 - t0));
        gen.push(secs(t1 - t0) * 1e3);
        start.push(secs(t2 - t1) * 1e3);
        last = Some((catalog, server, cache));
    }
    let (catalog, server, cache) = last.expect("at least one set-up");
    Setup {
        catalog,
        server,
        cache,
        setup_s: median(&mut total).expect("set-up ran"),
        catalog_ms: median(&mut gen).expect("set-up ran"),
        start_ms: median(&mut start).expect("set-up ran"),
    }
}

/// A metric value with its unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn cache_delta(before: &CacheStats, after: &CacheStats) -> CacheStats {
    CacheStats {
        card_hits: after.card_hits - before.card_hits,
        card_misses: after.card_misses - before.card_misses,
        plan_hits: after.plan_hits - before.plan_hits,
        plan_misses: after.plan_misses - before.plan_misses,
        plan_bypasses: after.plan_bypasses - before.plan_bypasses,
        ..CacheStats::default()
    }
}

fn print_latency(name: &str, lat: &mut [f64]) -> LatencySummary {
    let s = LatencySummary::of(lat).unwrap_or(LatencySummary {
        n: 0,
        p50: 0.0,
        tail_q: 0.5,
        tail: 0.0,
    });
    println!(
        "latency {name:<9} n={:<6} p50={:.4} ms  {}={:.4} ms",
        s.n,
        s.p50,
        s.tail_label(),
        s.tail
    );
    s
}

fn run(spec: &Spec, args: &Args) -> i32 {
    let started = Instant::now();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} cpus={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let Setup {
        catalog,
        server,
        cache,
        setup_s,
        catalog_ms,
        start_ms,
    } = setup(spec);

    let t = Instant::now();
    let stats = Arc::new(CatalogStats::build_default(&catalog));
    let stats_ms = secs(t.elapsed()) * 1e3;

    let trained = workload::train(spec, &catalog, &stats, args.seed);
    let train_s = secs(trained.label + trained.fit);
    println!(
        "training: label {:.4} s + fit {:.4} s = train_s {train_s:.4}",
        secs(trained.label),
        secs(trained.fit)
    );

    let oracle = TrueCardOracle::new(catalog.clone());
    let prep_deadline = Instant::now() + Duration::from_secs(60);
    let (jobs, vet_mismatches) =
        workload::build_jobs(spec, &catalog, &stats, &oracle, args.seed, prep_deadline);
    if jobs.is_empty() {
        eprintln!("perfbench: no query of the workload could be prepared");
        return 2;
    }
    let mut tally = Tally::default();
    for m in &vet_mismatches {
        tally.add(&check::Verdict::Mismatch(m.clone()), "");
    }
    println!(
        "prepared {} distinct queries ({} learned, {} scaled, {} budget trips) in {:.2} s",
        jobs.len(),
        jobs.iter().filter(|j| j.steer == Steer::Learned).count(),
        jobs.iter()
            .filter(|j| matches!(j.steer, Steer::Scaled(_)))
            .count(),
        jobs.iter().filter(|j| j.steer == Steer::Trip).count(),
        secs(started.elapsed())
    );

    let mut client = Client::new(&jobs, trained.model.as_ref());
    let warm = drive::sweep(&server, &client, &mut tally);
    let answered: Vec<f64> = warm
        .iter()
        .flatten()
        .filter_map(|o| o.result.as_ref().ok().map(|a| a.work))
        .collect();
    let work_units = mean(&answered);
    let budget_trips = tally.expected_errors;
    println!(
        "fingerprint stats={:016x} plans={:016x} work_units={work_units}",
        stats_digest(&catalog, &stats),
        plan_digest(&warm)
    );

    let mut rng = StdRng::seed_from_u64(args.seed ^ ARRIVAL_STREAM);
    let m = measure(spec, &server, &mut client, &cache, &mut rng, args.seconds);
    tally.merge(&m.tally);
    let metrics: Metrics = if !args.trace {
        vec![
            ("setup_s", setup_s, "s"),
            ("p50_ms", m.closed.p50, "ms"),
            ("qps", m.qps, "1/s"),
            ("capacity_qps", m.capacity_qps, "1/s"),
            ("work_units", work_units, "units"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    } else {
        let traced = traced_layers(
            spec,
            args,
            TracedInput {
                server,
                client: &mut client,
                cache: &cache,
                catalog: &catalog,
                stats: &stats,
                rng: &mut rng,
                untraced_p50: m.closed.p50,
            },
        );
        tally.merge(&traced.tally);
        let mut metrics = vec![
            ("train_s", train_s, "s"),
            ("p99_ms", m.closed.tail, "ms"),
            ("p50_ms.low", m.low.p50, "ms"),
            ("p99_ms.low", m.low.tail, "ms"),
            ("p50_ms.high", m.high.p50, "ms"),
            ("p99_ms.high", m.high.tail, "ms"),
            ("catalog.gen_ms", catalog_ms, "ms"),
            ("stats.build_ms", stats_ms, "ms"),
            ("serve.start_ms", start_ms, "ms"),
            ("card.fit_ms", secs(trained.fit) * 1e3, "ms"),
            ("label.ms", secs(trained.label) * 1e3, "ms"),
            ("label.subqueries", trained.subqueries as f64, "count"),
            ("label.cached_cards", trained.cached_cards as f64, "count"),
            ("exec.budget_trips", budget_trips as f64, "count"),
        ];
        metrics.extend(traced.metrics);
        metrics.push(("serve.rejected", tally.rejected as f64, "count"));
        metrics.push(("error_rate", tally.error_rate(), "ratio"));
        write_layer_table(spec, args, &metrics, &traced.spans);
        metrics
    };

    let probe = probe::twin_probe(&catalog, &jobs);
    println!(
        "defect probe: {} of {} queries sent again with the FROM list rotated failed \
         (the plan cache serves a cached positional plan to a reordered query){}",
        probe.failed,
        probe.probed,
        probe
            .example
            .map_or(String::new(), |e| format!("; first: {e}"))
    );

    for e in &tally.examples {
        eprintln!("perfbench: FAILED {e}");
    }
    println!(
        "answers: {} attempted, {} correct, {} expected budget trips, {} rejected, {} mismatched; \
         error_rate {:.6}; {:.1} s total",
        tally.attempted,
        tally.answers,
        tally.expected_errors,
        tally.rejected,
        tally.mismatches,
        tally.error_rate(),
        secs(started.elapsed())
    );
    for (name, value, unit) in &metrics {
        println!("metric {name:<20} {value:>14.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = tally.mismatches == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed(),
        body.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

/// The untraced measurement's results.
struct Measured {
    closed: LatencySummary,
    low: LatencySummary,
    high: LatencySummary,
    qps: f64,
    capacity_qps: f64,
    tally: Tally,
}

/// The untraced measurement: [`ROUNDS`] rounds, each a slice of the
/// closed loop, the open loop at the low rate, at the high rate, and the
/// capacity phase; every phase is pooled over its slices.
fn measure(
    spec: &Spec,
    server: &LqoServer,
    client: &mut Client<'_>,
    cache: &LqoCache,
    rng: &mut StdRng,
    seconds: f64,
) -> Measured {
    let cache0 = cache.stats();
    let (mut closed, mut low, mut high, mut cap) = (
        Phase::default(),
        Phase::default(),
        Phase::default(),
        Phase::default(),
    );
    let slice = |share: f64| seconds * share / ROUNDS as f64;
    for _ in 0..ROUNDS {
        closed.absorb(drive::closed(server, client, slice(CLOSED_SHARE), None));
        low.absorb(drive::open(
            server,
            client,
            spec.low_qps,
            slice(OPEN_SHARE),
            rng,
            None,
        ));
        high.absorb(drive::open(
            server,
            client,
            spec.high_qps,
            slice(OPEN_SHARE),
            rng,
            None,
        ));
        cap.absorb(drive::capacity(
            server,
            client,
            spec.outstanding,
            slice(CAPACITY_SHARE),
        ));
    }
    let c = cache_delta(&cache0, &cache.stats());
    let mut tally = Tally::default();
    for p in [&closed, &low, &high, &cap] {
        tally.merge(&p.tally);
    }
    let m = Measured {
        closed: print_latency("closed", &mut closed.lat_ms),
        low: print_latency("low", &mut low.lat_ms),
        high: print_latency("high", &mut high.lat_ms),
        qps: closed.qps(),
        capacity_qps: cap.qps(),
        tally,
    };
    let mut best = None;
    for (name, rate, lat, phase) in [
        ("low", spec.low_qps, &m.low, &mut low),
        ("high", spec.high_qps, &m.high, &mut high),
    ] {
        let backlog = median(&mut phase.backlogs).unwrap_or(1.0);
        let growing = backlog > GROWING_BACKLOG;
        let met = lat.tail <= spec.p99_limit_ms && phase.tally.failed() == 0;
        println!(
            "open loop {name} {rate} qps: {} {:.4} ms vs limit {} ms {}; late {:.3} ms; \
             last/first tenth latency x{backlog:.2}{}",
            lat.tail_label(),
            lat.tail,
            spec.p99_limit_ms,
            if met { "met" } else { "MISSED" },
            mean(&phase.late_ms),
            if growing { " GROWING BACKLOG" } else { "" }
        );
        if met && !growing {
            best = Some(rate);
        }
    }
    match best {
        Some(rate) => {
            println!("highest rate meeting the limit without a growing backlog: {rate} qps")
        }
        None => println!("no rate met the limit without a growing backlog"),
    }
    println!(
        "closed loop {:.1} qps; capacity {:.1} qps at {} outstanding; plan cache hit rate {:.3}, \
         {} bypasses, card cache hit rate {:.3}",
        m.qps,
        m.capacity_qps,
        spec.outstanding,
        c.plan_hit_rate(),
        c.plan_bypasses,
        c.card_hit_rate()
    );
    m
}

struct TracedInput<'a, 'j> {
    server: LqoServer,
    client: &'a mut Client<'j>,
    cache: &'a Arc<LqoCache>,
    catalog: &'a Arc<Catalog>,
    stats: &'a Arc<CatalogStats>,
    rng: &'a mut StdRng,
    untraced_p50: f64,
}

struct TracedOutput {
    metrics: Metrics,
    tally: Tally,
    spans: Vec<spans::Span>,
}

/// Step time of each served query, from the server's per-query profile:
/// the summed wall time of its top-level operator-step phases.
fn step_times(prof: &ProfContext) -> BTreeMap<usize, u64> {
    let mut out = BTreeMap::new();
    for q in prof.take_finished() {
        let Some(seq) = q.query.rsplit('#').next().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let ns = q
            .profile
            .frames
            .iter()
            .filter(|(path, _)| {
                matches!(
                    path.as_str(),
                    "Scan" | "HashJoin" | "NestedLoopJoin" | "MergeJoin"
                )
            })
            .map(|(_, stat)| stat.wall_ns)
            .sum();
        out.insert(seq, ns);
    }
    out
}

/// The traced part of a `--trace 1` run, after the untraced measurement:
/// the closed loop and the high-rate open loop again with spans and the
/// server's profiler on, then a direct pass that plans and executes each
/// distinct job step by step under spans.
fn traced_layers(spec: &Spec, args: &Args, input: TracedInput<'_, '_>) -> TracedOutput {
    let TracedInput {
        server,
        client,
        cache,
        catalog,
        stats,
        rng,
        untraced_p50,
    } = input;
    let s = args.seconds;
    let mut tally = Tally::default();
    let prof = ProfContext::enabled();
    let rec = Recorder::new();
    let cache0 = cache.stats();
    let (mut closed, mut high) = (Phase::default(), Phase::default());
    let server = server.with_prof(prof.clone());
    let r = ROUNDS as f64;
    for _ in 0..ROUNDS {
        closed.absorb(drive::closed(
            &server,
            client,
            s * CLOSED_SHARE / r,
            Some(&rec),
        ));
        high.absorb(drive::open(
            &server,
            client,
            spec.high_qps,
            s * OPEN_SHARE / r,
            rng,
            Some(&rec),
        ));
    }
    let c = cache_delta(&cache0, &cache.stats());
    for p in [&closed, &high] {
        tally.merge(&p.tally);
    }
    let steps = step_times(&prof);
    let queue_ms: Vec<f64> = high
        .served
        .iter()
        .filter_map(|(seq, wall_ns, _)| {
            steps
                .get(seq)
                .map(|ns| wall_ns.saturating_sub(*ns) as f64 / 1e6)
        })
        .collect();
    let (mut step_ns, mut nsteps, mut nqueries) = (0u64, 0u64, 0u64);
    for (seq, _, n) in closed.served.iter().chain(&high.served) {
        if let Some(ns) = steps.get(seq) {
            step_ns += ns;
            nsteps += n;
            nqueries += 1;
        }
    }
    let base: Arc<dyn CardSource> =
        Arc::new(TraditionalCardSource::new(catalog.clone(), stats.clone()));
    let direct = direct_pass(&server, client, cache, catalog, &base, &rec);
    tally.merge(&direct.tally);

    let spans = rec.snapshot();
    let totals = spans::totals(&spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let traced_p50 = median(&mut closed.lat_ms).unwrap_or(0.0);
    let estimates = closed.estimates + high.estimates + direct.estimates;
    let infer_ns = get("infer").total_ns;
    let optimize = get("optimize");
    let submit = get("submit");
    let metrics = vec![
        ("serve.submit_us", submit.mean_us(), "us"),
        ("serve.queue_ms", mean(&queue_ms), "ms"),
        (
            "serve.step_us",
            step_ns as f64 / 1e3 / nsteps.max(1) as f64,
            "us",
        ),
        (
            "serve.steps",
            nsteps as f64 / nqueries.max(1) as f64,
            "count",
        ),
        ("gen.late_ms", mean(&high.late_ms), "ms"),
        ("pilot.session_us", direct.session_us, "us"),
        ("cache.plan_hit_rate", c.plan_hit_rate(), "ratio"),
        ("cache.plan_bypasses", c.plan_bypasses as f64, "count"),
        ("cache.card_hit_rate", c.card_hit_rate(), "ratio"),
        ("plan.optimize_us", optimize.mean_us(), "us"),
        ("plan.self_us", optimize.mean_self_us(), "us"),
        ("plan.est_calls", direct.est_calls as f64, "count"),
        (
            "plan.est_us",
            get("estimate").total_ns as f64 / 1e3 / optimize.count.max(1) as f64,
            "us",
        ),
        (
            "card.infer_us",
            if estimates == 0 {
                0.0
            } else {
                infer_ns as f64 / 1e3 / estimates as f64
            },
            "us",
        ),
        ("card.estimates", direct.estimates as f64, "count"),
        ("exec.scan_us", get("exec.scan").mean_us(), "us"),
        ("exec.hash_join_us", get("exec.hash_join").mean_us(), "us"),
        ("exec.nl_join_us", get("exec.nl_join").mean_us(), "us"),
        ("exec.merge_join_us", get("exec.merge_join").mean_us(), "us"),
        (
            "exec.rows_out",
            direct.rows_out as f64 / direct.jobs.max(1) as f64,
            "rows",
        ),
        (
            "exec.work_units",
            direct.work / direct.jobs.max(1) as f64,
            "units",
        ),
        ("parse.us", get("parse").mean_us(), "us"),
        (
            "trace.overhead",
            if untraced_p50 > 0.0 {
                traced_p50 / untraced_p50 - 1.0
            } else {
                0.0
            },
            "ratio",
        ),
    ];
    TracedOutput {
        metrics,
        tally,
        spans,
    }
}

struct Direct {
    tally: Tally,
    jobs: u64,
    est_calls: u64,
    estimates: u64,
    rows_out: u64,
    work: f64,
    session_us: f64,
}

/// Per distinct job: build and submit it through the server, then plan
/// it with `Optimizer::optimize` under the session's card stack and run
/// the plan step by step, every call under a span. The server's plan
/// and the direct plan are made from the same inputs; the direct
/// execution's count is checked like a served answer.
fn direct_pass(
    server: &LqoServer,
    client: &Client<'_>,
    cache: &LqoCache,
    catalog: &Catalog,
    base: &Arc<dyn CardSource>,
    rec: &Recorder,
) -> Direct {
    let mut out = Direct {
        tally: Tally::default(),
        jobs: 0,
        est_calls: 0,
        estimates: 0,
        rows_out: 0,
        work: 0.0,
        session_us: 0.0,
    };
    let mut session = Vec::new();
    for i in 0..client.jobs.len().min(DIRECT_JOBS) {
        let job = &client.jobs[i];
        let qid = client.qid();
        let root = rec.begin("query", qid, None);
        let traced = Tracing {
            rec,
            qid,
            parent: root,
        };
        let built = match client.build(i, Some(traced)) {
            Ok(b) => b,
            Err(e) => {
                out.tally.add(&check::Verdict::Mismatch(e), &job.sql);
                rec.end(root);
                continue;
            }
        };
        out.estimates += built.estimates as u64;
        let query = built.req.query.clone();
        let injections = built.req.injections.clone();
        let before = cache.stats();
        let t0 = Instant::now();
        let outcome = traced.span("submit", || server.submit(built.req));
        let submit_ns = t0.elapsed().as_nanos() as u64;
        let after = cache.stats();
        let planned =
            after.plan_misses + after.plan_bypasses > before.plan_misses + before.plan_bypasses;
        let outcome = outcome.map(|t| traced.span("wait", || server.wait(t)));
        out.tally.add(&judge(&job.expected, &outcome), &job.sql);

        let card = workload::session_card(base.clone(), &query, job.steer, &injections);
        let opt = rec.begin("optimize", qid, Some(root));
        let t_opt = Instant::now();
        let planned_direct = direct::plan(
            catalog,
            &query,
            card.as_ref(),
            Some(Tracing {
                parent: opt,
                ..traced
            }),
        );
        rec.end(opt);
        let optimize_ns = t_opt.elapsed().as_nanos() as u64;
        session.push((submit_ns as f64 - if planned { optimize_ns as f64 } else { 0.0 }) / 1e3);
        let Ok(p) = planned_direct else {
            out.tally.add(
                &check::Verdict::Mismatch("direct planning failed".to_string()),
                &job.sql,
            );
            rec.end(root);
            continue;
        };
        out.est_calls += p.est_calls;
        let exec = rec.begin("execute", qid, Some(root));
        let executed = direct::execute(
            catalog,
            &query,
            &p.plan,
            job.max_work,
            Some(Tracing {
                parent: exec,
                ..traced
            }),
        );
        rec.end(exec);
        rec.end(root);
        let verdict = match (&job.expected, &executed) {
            (check::Expected::Count(want), Ok(e)) if e.count == *want => check::Verdict::Answer,
            (check::Expected::Error(want), Err(e)) if e.to_string() == *want => {
                check::Verdict::ExpectedError
            }
            (want, got) => {
                check::Verdict::Mismatch(format!("direct run: expected {want:?}, got {got:?}"))
            }
        };
        if let Ok(e) = &executed {
            out.rows_out += e.rows_out;
            out.work += e.work;
        }
        out.tally.add(&verdict, &job.sql);
        out.jobs += 1;
    }
    out.session_us = mean(&session);
    out
}

/// Write the span log and the per-layer table under `perfbench/out/`.
fn write_layer_table(spec: &Spec, args: &Args, metrics: &Metrics, spans: &[spans::Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-seed{}", spec.name, args.seed);
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("{stem}.spans.jsonl")),
        )?);
        spans::write_jsonl(spans, &mut f)?;
        std::io::Write::flush(&mut f)?;
        let mut table = String::from("layer metric                 value          unit\n");
        for (name, value, unit) in metrics {
            table.push_str(&format!("{name:<28} {value:>14.6} {unit}\n"));
        }
        table.push_str("\nspan                  count      mean_us   self_us\n");
        for (name, t) in spans::totals(spans) {
            table.push_str(&format!(
                "{name:<20} {:>7} {:>12.3} {:>9.3}\n",
                t.count,
                t.mean_us(),
                t.mean_self_us()
            ));
        }
        print!("{table}");
        std::fs::write(dir.join(format!("{stem}.layers.txt")), table)
    };
    if let Err(e) = write() {
        eprintln!(
            "perfbench: could not write the trace under {}: {e}",
            dir.display()
        );
    }
}
