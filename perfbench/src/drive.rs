//! Load generation against `LqoServer`: one submitter thread and, for
//! the open and capacity phases, one collector thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;

use lqo_card::CardEstimator;
use lqo_engine::query::parse_query;
use lqo_serve::{LqoServer, QueryOutcome, ServeError, SessionRequest, Ticket};

use crate::check::{judge, Tally, Verdict};
use crate::inputs::poisson_arrivals;
use crate::spans::{in_span, Recorder, Tracing};
use crate::summary::mean;
use crate::workload::{learned_injections, Job, Steer};

/// The client side of every request: turns a job into a submission the
/// way an application would, parsing its SQL and, for learned sessions,
/// running the model over every connected sub-query.
pub struct Client<'a> {
    /// The distinct jobs, cycled.
    pub jobs: &'a [Job],
    /// The trained model.
    pub model: &'a dyn CardEstimator,
    next: usize,
    qids: AtomicU64,
}

/// A built submission plus the client-side counts that went into it.
pub struct Built {
    /// The request.
    pub req: SessionRequest,
    /// Model estimates computed.
    pub estimates: usize,
}

impl<'a> Client<'a> {
    /// A client cycling through `jobs` from the first.
    pub fn new(jobs: &'a [Job], model: &'a dyn CardEstimator) -> Client<'a> {
        Client {
            jobs,
            model,
            next: 0,
            qids: AtomicU64::new(1),
        }
    }

    /// Index of the next job in the cycle.
    pub fn next_job(&mut self) -> usize {
        let i = self.next % self.jobs.len();
        self.next += 1;
        i
    }

    /// A fresh query id for spans.
    pub fn qid(&self) -> u64 {
        self.qids.fetch_add(1, Ordering::Relaxed)
    }

    /// Build the submission for job `i`.
    pub fn build(&self, i: usize, traced: Option<Tracing<'_>>) -> Result<Built, String> {
        let job = &self.jobs[i];
        let query = in_span(traced, "parse", || parse_query(&job.sql))
            .map_err(|e| format!("parse failed ({e}): {}", job.sql))?;
        let injections = if job.steer == Steer::Learned {
            in_span(traced, "infer", || learned_injections(self.model, &query))
        } else {
            Vec::new()
        };
        let estimates = injections.len();
        let mut req = SessionRequest::new(job.tenant.clone(), query).with_max_work(job.max_work);
        if let Steer::Scaled(f) = job.steer {
            req = req.with_scaling(f);
        }
        req.injections = injections;
        Ok(Built { req, estimates })
    }
}

/// What one load phase observed.
#[derive(Default)]
pub struct Phase {
    /// Latency of each answered request, ms, in send order.
    pub lat_ms: Vec<f64>,
    /// How late the generator sent each request, ms (open loop only).
    pub late_ms: Vec<f64>,
    /// Requests completed before the phase's deadline.
    pub completed: u64,
    /// Phase length, s.
    pub seconds: f64,
    /// Verdicts.
    pub tally: Tally,
    /// `(seq, wall_ns, steps)` of every admitted request.
    pub served: Vec<(usize, u64, u64)>,
    /// Model estimates computed client-side.
    pub estimates: u64,
    /// [`Phase::backlog_ratio`] of each slice absorbed.
    pub backlogs: Vec<f64>,
}

impl Phase {
    /// Completions per second.
    pub fn qps(&self) -> f64 {
        self.completed as f64 / self.seconds
    }

    /// Mean latency of the last tenth of requests over that of the first
    /// tenth: near 1 when the queue is steady, growing with a backlog.
    pub fn backlog_ratio(&self) -> f64 {
        let n = self.lat_ms.len() / 10;
        if n == 0 {
            return 1.0;
        }
        let first = mean(&self.lat_ms[..n]);
        let last = mean(&self.lat_ms[self.lat_ms.len() - n..]);
        last / first
    }

    /// Pool a slice of the same phase into this one.
    pub fn absorb(&mut self, slice: Phase) {
        self.backlogs.push(slice.backlog_ratio());
        self.lat_ms.extend(slice.lat_ms);
        self.late_ms.extend(slice.late_ms);
        self.completed += slice.completed;
        self.seconds += slice.seconds;
        self.tally.merge(&slice.tally);
        self.served.extend(slice.served);
        self.estimates += slice.estimates;
    }

    fn settle(
        &mut self,
        job: &Job,
        outcome: &Result<QueryOutcome, ServeError>,
        latency_ms: impl FnOnce(&QueryOutcome) -> f64,
    ) {
        let verdict = judge(&job.expected, outcome);
        if let Ok(o) = outcome {
            self.served.push((o.seq, o.wall_ns, o.steps));
            if !verdict.is_failure() {
                self.lat_ms.push(latency_ms(o));
            }
        }
        self.tally.add(&verdict, &job.sql);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Closed loop, one client: build, submit, wait, repeat, for `seconds`.
/// Latency runs from the start of building to the answer.
pub fn closed(
    server: &LqoServer,
    client: &mut Client<'_>,
    seconds: f64,
    rec: Option<&Recorder>,
) -> Phase {
    let mut phase = Phase {
        seconds,
        ..Phase::default()
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let i = client.next_job();
        let qid = client.qid();
        let root = rec.map(|r| r.begin("query", qid, None));
        let traced = rec
            .zip(root)
            .map(|(rec, parent)| Tracing { rec, qid, parent });
        let t0 = Instant::now();
        let outcome = match client.build(i, traced) {
            Ok(built) => {
                phase.estimates += built.estimates as u64;
                in_span(traced, "submit", || server.submit(built.req))
                    .map(|ticket| in_span(traced, "wait", || server.wait(ticket)))
            }
            Err(e) => {
                phase.tally.add(&Verdict::Mismatch(e), &client.jobs[i].sql);
                continue;
            }
        };
        let latency = ms(t0.elapsed());
        if let (Some(r), Some(root)) = (rec, root) {
            r.end(root);
        }
        if Instant::now() <= deadline && outcome.is_ok() {
            phase.completed += 1;
        }
        phase.settle(&client.jobs[i], &outcome, |_| latency);
    }
    phase
}

struct Sent {
    job: usize,
    due: Instant,
    submitted: Instant,
    ticket: Result<Ticket, ServeError>,
}

/// Open loop: requests are sent on a seeded Poisson schedule at `rate`
/// per second whatever the server's state. Latency is timed from each
/// request's due time: (submit return − due) + the server's
/// admission-to-completion time, so a stalled generator's delay counts.
pub fn open(
    server: &LqoServer,
    client: &mut Client<'_>,
    rate: f64,
    seconds: f64,
    rng: &mut StdRng,
    rec: Option<&Recorder>,
) -> Phase {
    let schedule = poisson_arrivals(rate, seconds, rng);
    let (tx, rx) = mpsc::channel::<Sent>();
    let jobs = client.jobs;
    let mut late_ms = Vec::with_capacity(schedule.len());
    let mut estimates = 0;
    let mut build_failures = Tally::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut phase = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut phase = Phase {
                seconds,
                ..Phase::default()
            };
            for sent in rx {
                let outcome = sent.ticket.map(|t| server.wait(t));
                if Instant::now() <= deadline && outcome.is_ok() {
                    phase.completed += 1;
                }
                phase.settle(&jobs[sent.job], &outcome, |o| {
                    ms(sent.submitted - sent.due) + o.wall_ns as f64 / 1e6
                });
            }
            phase
        });
        for offset in &schedule {
            let due = start + Duration::from_secs_f64(*offset);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            late_ms.push(ms(Instant::now().saturating_duration_since(due)));
            let i = client.next_job();
            let qid = client.qid();
            let root = rec.map(|r| r.begin("query", qid, None));
            let traced = rec
                .zip(root)
                .map(|(rec, parent)| Tracing { rec, qid, parent });
            let ticket = match client.build(i, traced) {
                Ok(built) => {
                    estimates += built.estimates as u64;
                    in_span(traced, "submit", || server.submit(built.req))
                }
                Err(e) => {
                    build_failures.add(&Verdict::Mismatch(e), &jobs[i].sql);
                    continue;
                }
            };
            if let (Some(r), Some(root)) = (rec, root) {
                r.end(root);
            }
            let sent = Sent {
                job: i,
                due,
                submitted: Instant::now(),
                ticket,
            };
            tx.send(sent).expect("collector outlives the schedule");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    phase.late_ms = late_ms;
    phase.estimates = estimates;
    phase.tally.merge(&build_failures);
    phase
}

/// Fixed concurrency: the submitter keeps about `outstanding` requests in
/// flight for `seconds`; completions before the deadline over its length
/// give the capacity.
pub fn capacity(
    server: &LqoServer,
    client: &mut Client<'_>,
    outstanding: usize,
    seconds: f64,
) -> Phase {
    // The channel holds all but the one the collector is waiting on.
    let (tx, rx) = mpsc::sync_channel::<(usize, Result<Ticket, ServeError>)>(outstanding - 1);
    let jobs = client.jobs;
    let mut build_failures = Tally::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut phase = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut phase = Phase {
                seconds,
                ..Phase::default()
            };
            for (job, ticket) in rx {
                let outcome = ticket.map(|t| server.wait(t));
                if Instant::now() <= deadline && outcome.is_ok() {
                    phase.completed += 1;
                }
                phase.settle(&jobs[job], &outcome, |o| o.wall_ns as f64 / 1e6);
            }
            phase
        });
        while Instant::now() < deadline {
            let i = client.next_job();
            match client.build(i, None) {
                Ok(built) => {
                    let ticket = server.submit(built.req);
                    tx.send((i, ticket))
                        .expect("collector outlives the submitter");
                }
                Err(e) => build_failures.add(&Verdict::Mismatch(e), &jobs[i].sql),
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    phase.tally.merge(&build_failures);
    phase
}

/// One pass over every distinct job, in order, closed loop: the untimed
/// warm-up that fills the plan cache and yields the deterministic
/// columns. Outcomes come back indexed like the jobs; `None` marks a
/// request that was never answered (judged into `tally` either way).
pub fn sweep(
    server: &LqoServer,
    client: &Client<'_>,
    tally: &mut Tally,
) -> Vec<Option<QueryOutcome>> {
    (0..client.jobs.len())
        .map(|i| {
            let job = &client.jobs[i];
            let outcome = match client.build(i, None) {
                Ok(built) => server.submit(built.req).map(|t| server.wait(t)),
                Err(e) => {
                    tally.add(&Verdict::Mismatch(e), &job.sql);
                    return None;
                }
            };
            tally.add(&judge(&job.expected, &outcome), &job.sql);
            outcome.ok()
        })
        .collect()
}
