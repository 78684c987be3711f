//! The three workloads, and everything built before the timed phase:
//! the catalog, the trained model and the distinct jobs with their
//! reference answers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use lqo_card::estimator::{label_workload, FitContext};
use lqo_card::{build_estimator, CardEstimator, EstimatorKind};
use lqo_engine::optimizer::{InjectedCardSource, ScaledCardSource};
use lqo_engine::query::{parse_query, JoinGraph};
use lqo_engine::{
    CardSource, Catalog, CatalogStats, SpjQuery, TraditionalCardSource, TrueCardOracle,
};

use crate::check::Expected;
use crate::direct;
use crate::inputs::{random_sql, Shape};

/// Budget of a deliberate budget trip: below the cost of any scan.
pub const TRIP_BUDGET: f64 = 0.5;

/// A workload's fixed parameters.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// `stats_like` scale (base users).
    pub scale: usize,
    /// Distinct queries served (cycled through every phase).
    pub distinct: usize,
    /// Served query size.
    pub shape: Shape,
    /// Tenants the sessions bill to, round robin.
    pub tenants: usize,
    /// Every n-th distinct query runs under [`TRIP_BUDGET`] (0 = never).
    pub trip_every: usize,
    /// Every n-th runs under join-cardinality scaling (0 = never).
    pub scale_every: usize,
    /// Every n-th carries the model's estimates as injections (0 = never).
    pub learned_every: usize,
    /// A candidate query is kept only when no connected sub-query has
    /// more rows than this.
    pub subset_cap: u64,
    /// … and its traditional plan finishes within this many work units.
    pub vet_work: f64,
    /// … and costs at least this many: a narrow band of per-query work
    /// keeps the mix, and so its latency quantiles, alike from seed to
    /// seed.
    pub min_work: f64,
    /// Places per size class: `(bound, places)` pairs, ascending, where a
    /// kept query belongs to the first class whose bound exceeds its
    /// [`Vetted::rows`]. A query whose class is full is dropped. The
    /// places sum to `distinct`; empty means no classes. Mean work per
    /// query is set by a few large queries, so fixed places keep it, and
    /// latency and throughput with it, alike from seed to seed.
    pub mix: &'static [(u64, usize)],
    /// Per-query budget of every served query that is not a deliberate
    /// trip: a bound on the execution tail, never reached by a kept query.
    pub max_work: f64,
    /// Training queries labeled for the model.
    pub train_queries: usize,
    /// Their size.
    pub train_shape: Shape,
    /// Largest labeled sub-query, in tables.
    pub train_subset: usize,
    /// Open-loop rates, queries per second.
    pub low_qps: f64,
    /// The higher rate, near this workload's capacity on a 2-CPU machine.
    pub high_qps: f64,
    /// The fixed p99 latency limit of the open-loop rates, ms.
    pub p99_limit_ms: f64,
    /// Requests kept outstanding while measuring capacity.
    pub outstanding: usize,
    /// Set-up repetitions whose median is `setup_s`.
    pub setups: usize,
}

/// The workloads by name.
pub fn spec(name: &str) -> Option<Spec> {
    let small = |min_tables, max_tables, min_preds, max_preds| Shape {
        min_tables,
        max_tables,
        min_preds,
        max_preds,
    };
    match name {
        // Repeated 2–3-table templates over five tenants on a small
        // catalog, with budget-trip, scaling-steered and learned-steered
        // sessions: the plan cache absorbs planning, so admission, queue
        // wait and many tiny step executions dominate.
        "serve_repeat" => Some(Spec {
            name: "serve_repeat",
            scale: 60,
            distinct: 600,
            shape: small(2, 3, 1, 3),
            tenants: 5,
            trip_every: 9,
            scale_every: 13,
            learned_every: 11,
            subset_cap: 20_000,
            vet_work: 2e4,
            min_work: 0.0,
            // The mean over seeds 1 and 2 of each class's share when
            // queries are drawn without classes.
            mix: &[
                (256, 14),
                (512, 100),
                (1024, 112),
                (2048, 191),
                (4096, 135),
                (8192, 28),
                (16384, 12),
                (u64::MAX, 8),
            ],
            max_work: 4e6,
            train_queries: 60,
            train_shape: small(3, 3, 1, 3),
            train_subset: 3,
            low_qps: 800.0,
            high_qps: 2000.0,
            p99_limit_ms: 25.0,
            outstanding: 8,
            setups: 15,
        }),
        // Unique 5–7-table queries, each steered by the model's estimates
        // for all its connected sub-queries: DP enumeration and model
        // inference dominate, the plan cache is bypassed.
        "learned_wide" => Some(Spec {
            name: "learned_wide",
            scale: 40,
            distinct: 1200,
            shape: small(5, 7, 2, 4),
            tenants: 1,
            trip_every: 0,
            scale_every: 0,
            learned_every: 1,
            subset_cap: 2_000,
            vet_work: 5e4,
            min_work: 0.0,
            mix: &[],
            max_work: 4e6,
            train_queries: 100,
            train_shape: small(4, 4, 1, 3),
            train_subset: 4,
            low_qps: 300.0,
            high_qps: 650.0,
            p99_limit_ms: 50.0,
            outstanding: 8,
            setups: 15,
        }),
        // Repeated 2–4-table templates on a large catalog: every query is
        // a plan-cache hit after the first pass, so scans, hash joins and
        // materialization over intermediates larger than L2 dominate.
        "exec_large" => Some(Spec {
            name: "exec_large",
            scale: 10_000,
            distinct: 96,
            shape: small(2, 4, 1, 2),
            tenants: 1,
            trip_every: 0,
            scale_every: 0,
            learned_every: 0,
            subset_cap: 2_000_000,
            vet_work: 4.5e5,
            min_work: 2e5,
            mix: &[],
            max_work: 6e7,
            train_queries: 120,
            train_shape: small(3, 3, 1, 2),
            train_subset: 2,
            low_qps: 80.0,
            high_qps: 160.0,
            p99_limit_ms: 100.0,
            outstanding: 8,
            setups: 5,
        }),
        _ => None,
    }
}

/// How a job's session is steered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Steer {
    /// Unsteered: eligible for the plan cache.
    Plain,
    /// A deliberate budget trip.
    Trip,
    /// Join-cardinality scaling by this factor.
    Scaled(f64),
    /// The model's estimates injected for every connected sub-query.
    Learned,
}

/// One distinct request and its reference outcome.
#[derive(Debug, Clone)]
pub struct Job {
    /// The SQL text the client sends.
    pub sql: String,
    /// Billing tenant.
    pub tenant: String,
    /// Session steering.
    pub steer: Steer,
    /// Work budget.
    pub max_work: f64,
    /// Reference outcome.
    pub expected: Expected,
}

/// Salts separating the seeded streams of one run.
const SERVED_STREAM: u64 = 0x5e4e_0001;
const TRAIN_STREAM: u64 = 0x7a1e_0002;

/// Draw the served queries: candidates distinct as queries (whatever the
/// order of their FROM list and predicates) that pass [`vet`], each
/// answered by `TrueCardOracle`. A vetting run whose count disagrees with
/// the oracle's is returned as a mismatch.
pub fn build_jobs(
    spec: &Spec,
    catalog: &Arc<Catalog>,
    stats: &Arc<CatalogStats>,
    oracle: &TrueCardOracle,
    seed: u64,
    deadline: Instant,
) -> (Vec<Job>, Vec<String>) {
    let mut rng = StdRng::seed_from_u64(seed ^ SERVED_STREAM);
    let base = TraditionalCardSource::new(catalog.clone(), stats.clone());
    let mut seen = std::collections::BTreeSet::new();
    let mut filled = vec![0; spec.mix.len()];
    let mut jobs = Vec::with_capacity(spec.distinct);
    let mut mismatches = Vec::new();
    let mut attempts = 0;
    while jobs.len() < spec.distinct && attempts < spec.distinct * 50 && Instant::now() < deadline {
        attempts += 1;
        let Some(sql) = random_sql(catalog, &spec.shape, &mut rng) else {
            continue;
        };
        // Distinct means distinct as a query, not as text: the same tables,
        // joins and predicates listed in another order are one query.
        let Ok(parsed) = parse_query(&sql) else {
            continue;
        };
        if !seen.insert(parsed.canonical_key(parsed.all_tables())) {
            continue;
        }
        let Some(Vetted {
            query,
            count: vetted,
            rows,
        }) = vet(spec, catalog, &sql, &base, spec.min_work)
        else {
            continue;
        };
        let class = spec.mix.iter().position(|&(bound, _)| rows < bound);
        if class.map_or(!spec.mix.is_empty(), |c| filled[c] == spec.mix[c].1) {
            continue;
        }
        let count = match oracle.true_card_full(&query) {
            Ok(count) => count,
            Err(e) => {
                mismatches.push(format!("oracle failed ({e}): {sql}"));
                continue;
            }
        };
        if count != vetted {
            mismatches.push(format!(
                "vetting run counted {vetted}, oracle {count}: {sql}"
            ));
        }
        if let Some(c) = class {
            filled[c] += 1;
        }
        // Steering goes by position in the whole list, like the tenant, so
        // a tenant's deliberate trips stay 45 queries apart and never trip
        // its breaker (three failures in a row).
        let i = jobs.len();
        let every = |n: usize| n > 0 && i % n == 0;
        let steer = if every(spec.trip_every) {
            Steer::Trip
        } else if every(spec.scale_every) {
            Steer::Scaled(1.0 + (i % 7) as f64)
        } else if every(spec.learned_every) {
            Steer::Learned
        } else {
            Steer::Plain
        };
        let (max_work, expected) = match steer {
            Steer::Trip => (TRIP_BUDGET, Expected::budget_trip(TRIP_BUDGET)),
            _ => (spec.max_work, Expected::Count(count)),
        };
        jobs.push(Job {
            sql,
            tenant: format!("tenant{}", i % spec.tenants),
            steer,
            max_work,
            expected,
        });
    }
    (jobs, mismatches)
}

/// A candidate that passed [`vet`].
struct Vetted {
    query: SpjQuery,
    /// The vetting run's count of the whole query.
    count: u64,
    /// The query's size: its tables' rows plus the rows of each
    /// connected sub-query, the whole included. It grows with the work of
    /// any plan, and it is made of exact counts, so unlike a plan's work
    /// it does not depend on the statistics that steer planning.
    rows: u64,
}

/// Vet candidate `sql`: it must parse and validate, and every connected
/// sub-query, run on its own with its traditional plan under a
/// `spec.vet_work` budget, must finish with at most `spec.subset_cap`
/// rows; the whole query's run must cost at least `min_work`.
///
/// Every plan the optimizer can choose for a connected join graph joins
/// connected sub-queries only, so the cap bounds the intermediates of
/// any plan, whatever the estimates steering it, and of the oracle's
/// reference run. The budget bounds each vetting run itself.
fn vet(
    spec: &Spec,
    catalog: &Catalog,
    sql: &str,
    base: &dyn CardSource,
    min_work: f64,
) -> Option<Vetted> {
    let query = parse_query(sql).ok()?;
    query.validate(catalog).ok()?;
    let run = |q: &SpjQuery| {
        let planned = direct::plan(catalog, q, base, None).ok()?;
        direct::execute(catalog, q, &planned.plan, spec.vet_work, None).ok()
    };
    let whole = run(&query)?;
    if whole.work < min_work || whole.count > spec.subset_cap {
        return None;
    }
    let mut rows = whole.count;
    for t in &query.tables {
        rows += catalog.table(&t.table).ok()?.nrows() as u64;
    }
    let mut subsets = JoinGraph::new(&query).connected_subsets(query.num_tables() - 1);
    subsets.sort_by_key(|s| s.len());
    for set in subsets {
        let part = run(&query.induced(set))?.count;
        if part > spec.subset_cap {
            return None;
        }
        rows += part;
    }
    Some(Vetted {
        query,
        count: whole.count,
        rows,
    })
}

/// The trained model and what training cost.
pub struct Trained {
    /// The fitted MSCN.
    pub model: Box<dyn CardEstimator>,
    /// Labeling time.
    pub label: Duration,
    /// Fitting time.
    pub fit: Duration,
    /// Labeled sub-queries.
    pub subqueries: usize,
    /// Sub-query cardinalities the oracle cached while labeling.
    pub cached_cards: usize,
}

/// Label a seeded training workload with a fresh `TrueCardOracle` and fit
/// MSCN on it. Training queries are vetted like served ones, so labeling
/// never executes an oversized sub-query.
pub fn train(spec: &Spec, catalog: &Arc<Catalog>, stats: &Arc<CatalogStats>, seed: u64) -> Trained {
    let mut rng = StdRng::seed_from_u64(seed ^ TRAIN_STREAM);
    let base = TraditionalCardSource::new(catalog.clone(), stats.clone());
    let mut queries = Vec::with_capacity(spec.train_queries);
    let mut attempts = 0;
    while queries.len() < spec.train_queries && attempts < spec.train_queries * 50 {
        attempts += 1;
        if let Some(sql) = random_sql(catalog, &spec.train_shape, &mut rng) {
            if let Some(v) = vet(spec, catalog, &sql, &base, 0.0) {
                queries.push(v.query);
            }
        }
    }
    let ctx = FitContext {
        catalog: catalog.clone(),
        stats: stats.clone(),
    };
    let oracle = Arc::new(TrueCardOracle::new(catalog.clone()));
    let t0 = Instant::now();
    let labeled =
        label_workload(&oracle, &queries, spec.train_subset).expect("labeling vetted queries");
    let label = t0.elapsed();
    let t1 = Instant::now();
    let model = build_estimator(EstimatorKind::Mscn, &ctx, &oracle, &labeled);
    Trained {
        model,
        label,
        fit: t1.elapsed(),
        subqueries: labeled.len(),
        cached_cards: oracle.cache_len(),
    }
}

/// The model's estimate for every connected sub-query of `query`.
pub fn learned_injections(
    model: &dyn CardEstimator,
    query: &SpjQuery,
) -> Vec<(lqo_engine::TableSet, f64)> {
    JoinGraph::new(query)
        .connected_subsets(query.num_tables())
        .into_iter()
        .map(|set| (set, model.estimate(query, set)))
        .collect()
}

/// The card source a served session of `steer` plans under: injections
/// over the traditional estimator, then scaling — the session stack the
/// serving layer builds, minus its cache.
pub fn session_card(
    base: Arc<dyn CardSource>,
    query: &SpjQuery,
    steer: Steer,
    injections: &[(lqo_engine::TableSet, f64)],
) -> Arc<dyn CardSource> {
    let injected = InjectedCardSource::new(base);
    for &(set, card) in injections {
        injected.inject(query, set, card);
    }
    let injected: Arc<dyn CardSource> = Arc::new(injected);
    match steer {
        Steer::Scaled(f) => Arc::new(ScaledCardSource::new(injected, f)),
        _ => injected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_ascend_and_fill_every_place() {
        for name in ["serve_repeat", "learned_wide", "exec_large"] {
            let spec = spec(name).unwrap();
            if spec.mix.is_empty() {
                continue;
            }
            assert!(spec.mix.windows(2).all(|w| w[0].0 < w[1].0), "{name}");
            assert_eq!(spec.mix.last().unwrap().0, u64::MAX, "{name}");
            let places: usize = spec.mix.iter().map(|&(_, n)| n).sum();
            assert_eq!(places, spec.distinct, "{name}");
        }
    }
}
