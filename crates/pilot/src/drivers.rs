//! Bundled drivers: the learned-cardinality driver and the Bao and Lero
//! end-to-end optimizer drivers the paper's demonstration walks through.

use std::sync::Arc;

use learned_qo::framework::{CandidatePlan, ExecutionSample, OptContext, RiskModel};
use learned_qo::risk::{PairwiseTcnnRisk, PointwiseTcnnRisk};
use lqo_card::CardEstimator;
use lqo_engine::query::JoinGraph;
use lqo_engine::{HintSet, Result, SpjQuery};

use crate::driver::{Driver, DriverDecision, ExecFeedback};
use crate::interactor::{DbInteractor, PullReply, PullRequest, PushAction, SessionId};

/// The learned-cardinality-estimator driver: one driver supports *any*
/// estimation method (exactly the paper's claim) by batch-injecting the
/// estimator's sub-query cardinalities and then delegating planning to
/// the database.
pub struct CardDriver {
    estimator: Arc<dyn CardEstimator>,
    /// Inject sub-queries up to this many tables.
    pub max_subquery: usize,
    injected: usize,
}

impl CardDriver {
    /// Wrap any estimator.
    pub fn new(estimator: Arc<dyn CardEstimator>) -> CardDriver {
        CardDriver {
            estimator,
            max_subquery: 6,
            injected: 0,
        }
    }

    /// Total injected sub-query estimates (reporting).
    pub fn injected(&self) -> usize {
        self.injected
    }
}

impl Driver for CardDriver {
    fn name(&self) -> &str {
        "learned-cardinality"
    }

    fn init(&mut self, _interactor: &dyn DbInteractor, _session: SessionId) -> Result<()> {
        Ok(())
    }

    fn algo(
        &mut self,
        interactor: &dyn DbInteractor,
        session: SessionId,
        query: &SpjQuery,
    ) -> Result<DriverDecision> {
        interactor.push(session, PushAction::ClearInjections)?;
        let cards: Vec<_> = JoinGraph::new(query)
            .connected_subsets(self.max_subquery)
            .into_iter()
            .map(|set| (set, self.estimator.estimate(query, set)))
            .collect();
        let n = cards.len();
        interactor.push(
            session,
            PushAction::InjectCardinalities {
                query: query.clone(),
                cards,
            },
        )?;
        self.injected += n;
        Ok(DriverDecision::Delegate)
    }
}

/// The Bao driver \[37\]: tunes hint sets through push/pull, collects the
/// candidate plans, and selects with its tree-convolution reward model.
pub struct BaoDriver {
    risk: PointwiseTcnnRisk,
    arms: Vec<HintSet>,
    history: Vec<ExecutionSample>,
}

impl BaoDriver {
    /// Build over the same context the interactor's engine uses.
    pub fn new(ctx: OptContext) -> BaoDriver {
        BaoDriver {
            risk: PointwiseTcnnRisk::new(ctx),
            arms: HintSet::standard_arms(),
            history: Vec::new(),
        }
    }

    /// Executions collected so far.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }
}

fn explore_with_steering(
    interactor: &dyn DbInteractor,
    session: SessionId,
    query: &SpjQuery,
    steer: impl Fn(usize) -> PushAction,
    labels: impl Fn(usize) -> String,
    n: usize,
) -> Result<Vec<CandidatePlan>> {
    let mut out: Vec<CandidatePlan> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for i in 0..n {
        interactor.push(session, steer(i))?;
        let Ok(PullReply::Plan { plan, .. }) =
            interactor.pull(session, PullRequest::Plan(query.clone()))
        else {
            continue;
        };
        if seen.insert(plan.fingerprint()) {
            out.push(CandidatePlan {
                plan,
                label: labels(i),
            });
        }
    }
    interactor.push(session, PushAction::ResetSteering)?;
    Ok(out)
}

impl Driver for BaoDriver {
    fn name(&self) -> &str {
        "bao"
    }

    fn init(&mut self, _interactor: &dyn DbInteractor, _session: SessionId) -> Result<()> {
        Ok(())
    }

    fn algo(
        &mut self,
        interactor: &dyn DbInteractor,
        session: SessionId,
        query: &SpjQuery,
    ) -> Result<DriverDecision> {
        let arms = self.arms.clone();
        let candidates = explore_with_steering(
            interactor,
            session,
            query,
            |i| PushAction::SetHints(arms[i].clone()),
            |i| arms[i].label(),
            arms.len(),
        )?;
        if candidates.is_empty() {
            return Ok(DriverDecision::Delegate);
        }
        let idx = self.risk.select(query, &candidates);
        Ok(DriverDecision::Plan(candidates[idx].plan.clone()))
    }

    fn collect(&mut self, feedback: &ExecFeedback) {
        self.history.push(ExecutionSample {
            query: Arc::new(feedback.query.clone()),
            plan: feedback.plan.clone(),
            work: feedback.work,
        });
    }

    fn update_models(&mut self) {
        self.risk.train(&self.history);
    }
}

/// The Lero driver \[79\]: tunes the cardinality-scaling knob through
/// push/pull and selects with its pairwise comparator.
pub struct LeroDriver {
    risk: PairwiseTcnnRisk,
    factors: Vec<f64>,
    history: Vec<ExecutionSample>,
}

impl LeroDriver {
    /// Build over the engine's context.
    pub fn new(ctx: OptContext) -> LeroDriver {
        LeroDriver {
            risk: PairwiseTcnnRisk::new(ctx),
            factors: vec![0.1, 0.5, 1.0, 2.0, 10.0],
            history: Vec::new(),
        }
    }
}

impl Driver for LeroDriver {
    fn name(&self) -> &str {
        "lero"
    }

    fn init(&mut self, _interactor: &dyn DbInteractor, _session: SessionId) -> Result<()> {
        Ok(())
    }

    fn algo(
        &mut self,
        interactor: &dyn DbInteractor,
        session: SessionId,
        query: &SpjQuery,
    ) -> Result<DriverDecision> {
        let factors = self.factors.clone();
        let candidates = explore_with_steering(
            interactor,
            session,
            query,
            |i| PushAction::SetCardScaling(factors[i]),
            |i| format!("scale={}", factors[i]),
            factors.len(),
        )?;
        if candidates.is_empty() {
            return Ok(DriverDecision::Delegate);
        }
        let idx = self.risk.select(query, &candidates);
        Ok(DriverDecision::Plan(candidates[idx].plan.clone()))
    }

    fn collect(&mut self, feedback: &ExecFeedback) {
        self.history.push(ExecutionSample {
            query: Arc::new(feedback.query.clone()),
            plan: feedback.plan.clone(),
            work: feedback.work,
        });
    }

    fn update_models(&mut self) {
        self.risk.train(&self.history);
    }
}
