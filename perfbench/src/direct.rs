//! The runner's own planning and execution calls: `Optimizer::optimize`
//! under a counting card source, and a post-order walk over
//! `Executor::exec_scan_step`/`exec_join_step`. Used to vet candidate
//! queries before any timing, and in the traced run to time the
//! optimizer, estimator and executor layers one call at a time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use lqo_engine::{
    CardSource, Catalog, EngineError, ExecConfig, ExecMode, Executor, HintSet, JoinAlgo, Optimizer,
    PhysNode, Relation, SpjQuery, TableSet, WorkMeter,
};

use crate::spans::Tracing;

/// A card source that counts the calls reaching it and, when traced,
/// times each in an `estimate` span.
pub struct CountingCardSource<'a> {
    inner: &'a dyn CardSource,
    tracing: Option<Tracing<'a>>,
    calls: AtomicU64,
}

impl<'a> CountingCardSource<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a dyn CardSource, tracing: Option<Tracing<'a>>) -> Self {
        CountingCardSource {
            inner,
            tracing,
            calls: AtomicU64::new(0),
        }
    }

    /// Calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl CardSource for CountingCardSource<'_> {
    fn cardinality(&self, query: &SpjQuery, set: TableSet) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let Some(t) = self.tracing else {
            return self.inner.cardinality(query, set);
        };
        let t0 = Instant::now();
        let card = self.inner.cardinality(query, set);
        t.record("estimate", t0, Instant::now());
        card
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// One optimization: the plan and the estimator calls it made.
pub struct Planned {
    /// Chosen plan.
    pub plan: PhysNode,
    /// Estimator calls made.
    pub est_calls: u64,
}

/// Optimize `query` with default hints under `card`.
pub fn plan(
    catalog: &Catalog,
    query: &SpjQuery,
    card: &dyn CardSource,
    tracing: Option<Tracing<'_>>,
) -> Result<Planned, EngineError> {
    let counting = CountingCardSource::new(card, tracing);
    let choice =
        Optimizer::with_defaults(catalog).optimize(query, &counting, &HintSet::default())?;
    Ok(Planned {
        plan: choice.plan,
        est_calls: counting.calls(),
    })
}

/// Result of one stepwise execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Executed {
    /// COUNT(*).
    pub count: u64,
    /// Work units charged.
    pub work: f64,
    /// Rows produced, summed over every operator.
    pub rows_out: u64,
}

/// Span name of a join step.
pub fn join_span(algo: JoinAlgo) -> &'static str {
    match algo {
        JoinAlgo::Hash => "exec.hash_join",
        JoinAlgo::NestedLoop => "exec.nl_join",
        JoinAlgo::Merge => "exec.merge_join",
    }
}

/// Run `plan` one operator at a time in serial post-order under a
/// `max_work` budget — the step sequence the serving workers run.
pub fn execute(
    catalog: &Catalog,
    query: &SpjQuery,
    plan: &PhysNode,
    max_work: f64,
    tracing: Option<Tracing<'_>>,
) -> Result<Executed, EngineError> {
    let ex = Executor::new(
        catalog,
        ExecConfig {
            mode: ExecMode::Serial,
            max_work: Some(max_work),
            ..Default::default()
        },
    );
    let mut meter = WorkMeter::new(Some(max_work));
    let mut rows_out = 0;
    let rel = walk(&ex, query, plan, &mut meter, &mut rows_out, tracing)?;
    Ok(Executed {
        count: rel.len() as u64,
        work: meter.work(),
        rows_out,
    })
}

fn walk(
    ex: &Executor<'_>,
    query: &SpjQuery,
    node: &PhysNode,
    meter: &mut WorkMeter,
    rows_out: &mut u64,
    tracing: Option<Tracing<'_>>,
) -> Result<Relation, EngineError> {
    let t0;
    let (name, rel) = match node {
        PhysNode::Scan { pos } => {
            t0 = Instant::now();
            ("exec.scan", ex.exec_scan_step(query, *pos, meter))
        }
        PhysNode::Join { algo, left, right } => {
            let l = walk(ex, query, left, meter, rows_out, tracing)?;
            let r = walk(ex, query, right, meter, rows_out, tracing)?;
            t0 = Instant::now();
            (
                join_span(*algo),
                ex.exec_join_step(query, *algo, l, r, meter),
            )
        }
    };
    if let Some(t) = tracing {
        t.record(name, t0, Instant::now());
    }
    let rel = rel?;
    *rows_out += rel.len() as u64;
    Ok(rel)
}
