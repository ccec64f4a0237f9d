//! The parallel batch executor.
//!
//! A batch is an ordered list of requests. Registrations take effect in
//! request order during a sequential resolution pass (each decision problem
//! snapshots `Arc` handles to the artifacts it references, so later
//! rebindings cannot affect earlier problems). The resolved problems are
//! then deduplicated on their [`WorkItem`] — the problem, the backend it
//! runs on, its effective limits and whether it is traced — and fanned out
//! over worker threads: each worker owns a long-lived [`Analyzer`] — its
//! own formula arena and BDD manager — and answers items through
//! [`Service::solve`], so all workers share the service's one memo cache.
//! Duplicate occurrences and problems already solved in previous batches
//! (or by the sequential front end) are served from the cache and reported
//! with `"cached":true`. `unknown` verdicts (exhausted budgets) and solver
//! failures become per-request responses and are **never** cached — a
//! retry with bigger limits must re-solve. Lint probes use the same
//! deduplicated fan-out.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use analyzer::Analyzer;

use crate::json::{obj, Value};
use crate::problem::duration_ms;
use crate::protocol::{error_response, is_error, Op, Request, RequestKind};
use crate::service::{register, Service, Solved, WorkItem};
use crate::workspace::Workspace;
use crate::Counters;

/// Aggregate measurements of one batch run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchStats {
    /// Requests in the batch (registrations + problems + errors).
    pub requests: usize,
    /// Decision problems among them.
    pub problems: usize,
    /// Distinct problems after canonical deduplication.
    pub unique_problems: usize,
    /// Problems answered from the memo cache (duplicates within the batch
    /// plus hits from earlier work).
    pub cache_hits: usize,
    /// Problems that actually ran a solve (including runs that came back
    /// `unknown` or failed): the complement of `cache_hits`
    /// over the decision problems that reached the executor.
    pub cache_misses: usize,
    /// Problems that came back `"status":"unknown"`: a resource budget ran
    /// out before the solve could decide. Never cached.
    pub unknown: usize,
    /// Requests that failed: parse or resolution errors, plus solver-level
    /// failures (rejected witnesses, contained panics).
    pub errors: usize,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall clock for the batch, in milliseconds.
    pub wall_ms: f64,
}

impl BatchStats {
    /// Solved problems per second of batch wall-clock.
    pub fn problems_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.problems as f64 / (self.wall_ms / 1000.0)
    }

    /// The stats as a JSON object (the batch summary line).
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("requests", Value::from(self.requests)),
            ("problems", Value::from(self.problems)),
            ("unique_problems", Value::from(self.unique_problems)),
            ("cache_hits", Value::from(self.cache_hits)),
            ("cache_misses", Value::from(self.cache_misses)),
            (
                "metrics",
                obj(vec![(
                    "memo",
                    obj(vec![
                        ("hits", Value::from(self.cache_hits)),
                        ("misses", Value::from(self.cache_misses)),
                    ]),
                )]),
            ),
            ("unknown", Value::from(self.unknown)),
            ("errors", Value::from(self.errors)),
            ("threads", Value::from(self.threads)),
            (
                "wall_ms",
                Value::Num((self.wall_ms * 1000.0).round() / 1000.0),
            ),
            (
                "problems_per_sec",
                Value::Num((self.problems_per_sec() * 10.0).round() / 10.0),
            ),
        ])
    }
}

/// The responses of a batch, in request order, plus aggregate stats.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One response per request, in the order the requests were given.
    pub responses: Vec<Value>,
    /// Aggregate measurements.
    pub stats: BatchStats,
}

/// The deduplicated work of one fan-out, in first-seen order.
#[derive(Default)]
pub(crate) struct WorkList {
    items: Vec<WorkItem>,
    index: HashMap<WorkItem, usize>,
}

impl WorkList {
    /// The position of `item` in the list, appending it when new, and
    /// whether it was already there.
    pub(crate) fn intern(&mut self, item: WorkItem) -> (usize, bool) {
        if let Some(&i) = self.index.get(&item) {
            return (i, true);
        }
        let i = self.items.len();
        self.index.insert(item.clone(), i);
        self.items.push(item);
        (i, false)
    }

    /// Solves the items in parallel: each worker thread owns one of the
    /// long-lived analyzers and claims items off a shared cursor. The
    /// queue-depth gauge tracks the unclaimed work remaining. Results come
    /// back in item order.
    pub(crate) fn solve(&self, service: &Service, workers: &mut [Analyzer]) -> Vec<Solved> {
        let work = &self.items;
        let results: Vec<OnceLock<Solved>> = work.iter().map(|_| OnceLock::new()).collect();
        let queue_depth = obs::metrics().gauge("xsat_executor_queue_depth", &[]);
        queue_depth.set(work.len() as u64);
        let cursor = AtomicUsize::new(0);
        let (results_ref, cursor_ref, queue_ref) = (&results, &cursor, &queue_depth);
        std::thread::scope(|scope| {
            for az in workers.iter_mut() {
                scope.spawn(move || loop {
                    let i = cursor_ref.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = work.get(i) else {
                        break;
                    };
                    queue_ref.sub(1);
                    // Each index is claimed exactly once, so this is the
                    // only write.
                    let _ = results_ref[i].set(service.solve(az, item));
                });
            }
        });
        // Every index below `work.len()` was claimed and answered: solves
        // run under containment, and a panic anywhere else in a worker
        // propagates out of the scope before this line.
        results
            .into_iter()
            .map(|r| r.into_inner().expect("every claimed item is answered"))
            .collect()
    }
}

/// A request's place in the batch: answered during resolution, or waiting
/// on a work item.
enum Slot {
    Answered(Value),
    Pending {
        op: Op,
        /// Index into the deduplicated work list.
        work: usize,
        /// Whether an earlier request of the batch maps to the same item.
        duplicate: bool,
    },
}

pub(crate) fn run_batch(
    service: &Service,
    workspace: &mut Workspace,
    workers: &mut [Analyzer],
    requests: &[Request],
) -> BatchOutcome {
    let started = Instant::now();

    // Pass 1 (sequential): apply registrations in order; resolve decision
    // problems against the workspace as it stood when they were posed.
    let mut work = WorkList::default();
    let slots: Vec<Slot> = requests
        .iter()
        .map(|req| {
            let id = req.id.as_ref();
            let response = match &req.kind {
                RequestKind::RegisterDtd { .. } | RequestKind::RegisterQuery { .. } => {
                    register(workspace, req)
                }
                RequestKind::Problem {
                    spec,
                    backend,
                    limits,
                    trace,
                } => match service.resolve(
                    workspace,
                    spec,
                    *backend,
                    limits.as_ref(),
                    *trace,
                    service.limits(),
                ) {
                    Ok(item) => {
                        let (work, duplicate) = work.intern(item);
                        return Slot::Pending {
                            op: spec.op(),
                            work,
                            duplicate,
                        };
                    }
                    Err(e) => error_response(id, &e),
                },
                RequestKind::Lint(_) => error_response(
                    id,
                    "`lint` runs on the sequential front end; \
                     it is not valid inside a batch",
                ),
                RequestKind::Stats
                | RequestKind::Metrics
                | RequestKind::SlowLog
                | RequestKind::Reset => error_response(
                    id,
                    "`stats`/`metrics`/`slowlog`/`reset` are service ops; \
                     they are not valid inside a batch",
                ),
            };
            Slot::Answered(response)
        })
        .collect();

    // Pass 2 (parallel): fan the deduplicated work out over the workers.
    let results = work.solve(service, workers);

    // Pass 3: fill problem responses in request order.
    let mut tally = Counters::default();
    let responses: Vec<Value> = slots
        .into_iter()
        .zip(requests)
        .map(|(slot, req)| match slot {
            Slot::Answered(response) => response,
            Slot::Pending {
                op,
                work,
                duplicate,
            } => {
                let solved = &results[work];
                tally.count(solved, duplicate);
                solved.respond(req.id.as_ref(), op.canonical(), duplicate)
            }
        })
        .collect();

    let stats = BatchStats {
        requests: requests.len(),
        problems: tally.problems as usize,
        unique_problems: results.len(),
        cache_hits: tally.cache_hits as usize,
        cache_misses: tally.cache_misses as usize,
        unknown: tally.unknown as usize,
        errors: responses.iter().filter(|r| is_error(r)).count(),
        threads: workers.len(),
        wall_ms: duration_ms(started.elapsed()),
    };
    BatchOutcome { responses, stats }
}
