//! The answer check: every served outcome against a reference fixed
//! before the timed phase.
//!
//! A query's reference is its COUNT(*) from `TrueCardOracle`, computed
//! once per distinct query. A deliberate budget trip's reference is the
//! exact error text the engine gives for its budget.

use lqo_engine::EngineError;
use lqo_serve::{QueryOutcome, ServeError};

/// What a submission must produce.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// An answer with this COUNT(*).
    Count(u64),
    /// This error, rendered.
    Error(String),
}

impl Expected {
    /// The error a query run under a `limit`-unit budget it cannot meet
    /// must report.
    pub fn budget_trip(limit: f64) -> Expected {
        Expected::Error(EngineError::WorkLimitExceeded { limit }.to_string())
    }
}

/// How one submission ended, judged against its reference.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The expected count.
    Answer,
    /// The expected error (a deliberate budget trip).
    ExpectedError,
    /// Admission refused the submission.
    Rejected(String),
    /// An answer with the wrong count, or an error where a count was due.
    Mismatch(String),
}

impl Verdict {
    /// Whether this verdict counts against `error_rate`.
    pub fn is_failure(&self) -> bool {
        matches!(self, Verdict::Rejected(_) | Verdict::Mismatch(_))
    }
}

/// Judge one submission.
pub fn judge(expected: &Expected, got: &Result<QueryOutcome, ServeError>) -> Verdict {
    let outcome = match got {
        Ok(o) => o,
        Err(e) => return Verdict::Rejected(e.to_string()),
    };
    match (expected, &outcome.result) {
        (Expected::Count(want), Ok(ans)) if ans.count == *want => Verdict::Answer,
        (Expected::Error(want), Err(msg)) if msg == want => Verdict::ExpectedError,
        (want, Ok(ans)) => Verdict::Mismatch(format!("expected {want:?}, got count {}", ans.count)),
        (want, Err(msg)) => Verdict::Mismatch(format!("expected {want:?}, got error '{msg}'")),
    }
}

/// Running tally of verdicts.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Submissions judged.
    pub attempted: u64,
    /// Answers matching their reference.
    pub answers: u64,
    /// Deliberate budget trips with the expected error.
    pub expected_errors: u64,
    /// Admission rejections.
    pub rejected: u64,
    /// Wrong answers and unexpected errors.
    pub mismatches: u64,
    /// The first few failure descriptions.
    pub examples: Vec<String>,
}

impl Tally {
    /// Record one verdict for the query rendered as `sql`.
    pub fn add(&mut self, verdict: &Verdict, sql: &str) {
        self.attempted += 1;
        match verdict {
            Verdict::Answer => self.answers += 1,
            Verdict::ExpectedError => self.expected_errors += 1,
            Verdict::Rejected(why) => {
                self.rejected += 1;
                self.note(format!("rejected ({why}): {sql}"));
            }
            Verdict::Mismatch(what) => {
                self.mismatches += 1;
                self.note(format!("{what}: {sql}"));
            }
        }
    }

    fn note(&mut self, example: String) {
        if self.examples.len() < 5 {
            self.examples.push(example);
        }
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.answers += other.answers;
        self.expected_errors += other.expected_errors;
        self.rejected += other.rejected;
        self.mismatches += other.mismatches;
        for e in &other.examples {
            self.note(e.clone());
        }
    }

    /// Rejections plus mismatches.
    pub fn failed(&self) -> u64 {
        self.rejected + self.mismatches
    }

    /// Failures over attempts.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqo_serve::QueryAnswer;

    fn outcome(result: Result<QueryAnswer, String>) -> Result<QueryOutcome, ServeError> {
        Ok(QueryOutcome {
            tenant: "t".to_string(),
            seq: 0,
            plan_cost: 1.0,
            result,
            steps: 3,
            wall_ns: 10,
        })
    }

    fn answer(count: u64) -> Result<QueryAnswer, String> {
        Ok(QueryAnswer {
            count,
            work: 12.5,
            digest: 9,
        })
    }

    #[test]
    fn a_corrupted_count_fails_the_check() {
        let want = Expected::Count(42);
        assert_eq!(judge(&want, &outcome(answer(42))), Verdict::Answer);
        let corrupted = judge(&want, &outcome(answer(43)));
        assert!(matches!(corrupted, Verdict::Mismatch(_)), "{corrupted:?}");
        let mut tally = Tally::default();
        tally.add(&corrupted, "SELECT COUNT(*) FROM users;");
        assert_eq!(
            (tally.attempted, tally.mismatches, tally.failed()),
            (1, 1, 1)
        );
        assert_eq!(tally.error_rate(), 1.0);
        assert!(tally.examples[0].contains("got count 43"));
    }

    #[test]
    fn a_budget_trip_must_carry_its_exact_error() {
        let want = Expected::budget_trip(0.5);
        let text = EngineError::WorkLimitExceeded { limit: 0.5 }.to_string();
        assert_eq!(judge(&want, &outcome(Err(text))), Verdict::ExpectedError);
        // A different budget, an answer, or any other error is a mismatch.
        let other = EngineError::WorkLimitExceeded { limit: 0.25 }.to_string();
        assert!(judge(&want, &outcome(Err(other))).is_failure());
        assert!(judge(&want, &outcome(answer(0))).is_failure());
        // An error where a count was due is a mismatch too.
        let err = Err("planning failed".to_string());
        assert!(judge(&Expected::Count(1), &outcome(err)).is_failure());
    }

    #[test]
    fn rejections_count_as_failures_but_not_mismatches() {
        let got = Err(ServeError::QueueFull { capacity: 4 });
        let v = judge(&Expected::Count(1), &got);
        assert!(matches!(v, Verdict::Rejected(_)));
        let mut tally = Tally::default();
        tally.add(&v, "q");
        tally.add(&Verdict::Answer, "q");
        assert_eq!(
            (tally.rejected, tally.mismatches, tally.failed()),
            (1, 0, 1)
        );
        assert_eq!(tally.error_rate(), 0.5);
    }
}
