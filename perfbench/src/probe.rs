//! A probe that shows a defect of the plan cache on every run.
//!
//! The plan cache keys a plan by the query's canonical form, which does
//! not depend on the order of the FROM list, but a cached plan names
//! tables by their position in that list. The same query sent again with
//! its tables in another order is served the first order's plan, which
//! joins the wrong positions; where that puts two tables with no join
//! condition between them into a hash join, the engine refuses the plan
//! (`HashJoin requires at least one equi-join condition`). The served
//! workloads list each query once, in one order, so they do not meet the
//! defect. The probe meets it on purpose, on a server and cache of its
//! own, so the measured server is untouched, and reports what it finds
//! instead of failing the run.

use std::sync::Arc;

use lqo_cache::LqoCache;
use lqo_engine::query::parse_query;
use lqo_engine::Catalog;
use lqo_pilot::EngineInteractor;
use lqo_serve::{LqoServer, ServeConfig, SessionRequest};

use crate::check::{judge, Verdict};
use crate::inputs::rotate_from;
use crate::workload::{Job, Steer};

/// Cacheable jobs the probe sends twice.
const PROBE_JOBS: usize = 200;

/// What the probe found.
#[derive(Debug, Default)]
pub struct Report {
    /// Queries sent in their own order and then with the FROM list rotated.
    pub probed: usize,
    /// Rotated twins that did not get their query's reference outcome.
    pub failed: usize,
    /// The first failure.
    pub example: Option<String>,
}

/// For up to [`PROBE_JOBS`] unsteered jobs: serve the job, then its
/// rotated twin, and judge the twin against the job's reference.
pub fn twin_probe(catalog: &Arc<Catalog>, jobs: &[Job]) -> Report {
    let server = LqoServer::new(
        Arc::new(EngineInteractor::new(catalog.clone())),
        ServeConfig::default(),
    )
    .with_cache(Arc::new(LqoCache::default()));
    let serve = |sql: &str, job: &Job| match parse_query(sql) {
        Ok(query) => {
            let req = SessionRequest::new(job.tenant.clone(), query).with_max_work(job.max_work);
            judge(&job.expected, &server.submit(req).map(|t| server.wait(t)))
        }
        Err(e) => Verdict::Mismatch(format!("parse failed ({e})")),
    };
    let mut report = Report::default();
    for job in jobs
        .iter()
        .filter(|j| j.steer == Steer::Plain)
        .take(PROBE_JOBS)
    {
        let Some(twin) = rotate_from(&job.sql) else {
            continue;
        };
        // The job first, so its plan is cached under the twin's key too.
        serve(&job.sql, job);
        let verdict = serve(&twin, job);
        report.probed += 1;
        if verdict.is_failure() {
            report.failed += 1;
            report
                .example
                .get_or_insert_with(|| format!("{verdict:?}: {twin}"));
        }
    }
    report
}
