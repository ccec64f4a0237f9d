//! The request core every front end shares: what a decision request
//! *means*, whatever transport it arrived on.
//!
//! A [`Service`] owns the analyzer options (with the default backend), the
//! default [`Limits`], the one verdict memo cache, the trace sink, the
//! slow-solve threshold and log, and the resolved worker count and line
//! cap. A request passes through four steps, each written once here:
//!
//! * [`register`] applies a `dtd` or `query` registration to a workspace;
//! * [`Service::resolve`] turns a [`ProblemSpec`] into a [`WorkItem`]
//!   against a workspace (the backend defaults, `limits` apply over a base
//!   the caller gives);
//! * [`Service::solve`] answers one item on the caller's analyzer: memo
//!   lookup, contained solve, slow-log capture and trace;
//! * [`Solved::respond`] renders the answer.
//!
//! The stdin loop and lint ([`Engine`](crate::Engine)), the batch
//! executor and the TCP tier of the `serve` crate differ only in how they
//! read requests and schedule the solves.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use analyzer::{Analyzer, AnalyzerOptions, BackendChoice, Limits};
use obs::{FieldValue, MemorySink, Recorder, Sink, SlowEntry, SlowLog};

use crate::json::Value;
use crate::problem::{outcome_status, run_job, Job, Problem, RunOutcome, Verdict};
use crate::protocol::{
    error_response, registration_response, trace_value, unknown_response, verdict_response,
    LimitsSpec, ProblemSpec, Request, RequestKind,
};
use crate::workspace::Workspace;
use crate::EngineConfig;

/// One resolved decision problem ready to solve: the memo key, the limits
/// that govern the solve if the cache misses, and whether the caller wants
/// the event trace back. A batch deduplicates on the whole item — two
/// requests for one problem under different budgets must not share one
/// (possibly `unknown`) run, and a traced request must not be served an
/// untraced run — while the memo cache is keyed by the [`Job`] alone: a
/// definite verdict is valid whatever budget produced it.
///
/// `Limits` carries a `CancelToken` with interior mutability, but the
/// token's `Eq`/`Hash` ignore it (all tokens compare equal), so an item is
/// a stable map key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkItem {
    /// The memo key: the structural problem and its backend.
    pub job: Job,
    /// The effective limits of the solve.
    pub limits: Limits,
    /// Whether the response carries the solve's event trace.
    pub trace: bool,
}

/// What [`Service::solve`] produced for one item.
#[derive(Debug, Clone)]
pub struct Solved {
    /// The verdict, `unknown` or error.
    pub outcome: RunOutcome,
    /// Whether the memo cache answered it.
    pub cached: bool,
    /// The serialized event trace, when the item asked for one.
    pub trace: Option<Value>,
}

impl Solved {
    /// Whether the answer counts as a memo hit: a definite verdict served
    /// from the cache, or from an earlier `duplicate` of the same item in
    /// one batch. Unknown and error outcomes always count as misses.
    pub fn hit(&self, duplicate: bool) -> bool {
        matches!(self.outcome, RunOutcome::Verdict(_)) && (self.cached || duplicate)
    }

    /// Renders the answer to request `id` of operation `op`: a verdict, an
    /// `unknown` or an error. A hit reports `"cached":true` and `wall_ms`
    /// 0 — the stored time describes the original run.
    pub fn respond(&self, id: Option<&Value>, op: &str, duplicate: bool) -> Value {
        let trace = self.trace.clone();
        match &self.outcome {
            RunOutcome::Verdict(v) => {
                let cached = self.hit(duplicate);
                let wall_ms = if cached { 0.0 } else { v.wall_ms };
                verdict_response(id, op, v, cached, wall_ms, trace)
            }
            RunOutcome::Unknown(u) => unknown_response(id, op, u, trace),
            RunOutcome::Error(e) => error_response(id, e),
        }
    }
}

/// The shared request core. See the [module docs](self).
#[derive(Debug)]
pub struct Service {
    options: AnalyzerOptions,
    /// Default limits; per-request `limits` objects override field-wise.
    limits: Limits,
    /// Verdict memo cache, keyed by the canonical problem *plus* the
    /// backend that answered it: a symbolic verdict must never be served
    /// for an explicit-backend request.
    cache: Mutex<HashMap<Job, Verdict>>,
    /// Every solve's events also stream here when set (`--trace-file`).
    trace_sink: Option<Arc<dyn Sink>>,
    /// Solves slower than this capture their full trace into `slow_log`.
    slow_ms: Option<u64>,
    slow_log: SlowLog,
    threads: usize,
    max_line_bytes: usize,
}

impl Service {
    /// A service with `config`'s options, defaults and observability; a
    /// `threads` or `max_line_bytes` of 0 picks the default.
    pub fn new(config: EngineConfig) -> Service {
        let threads = if config.threads == 0 {
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .min(16)
        } else {
            config.threads
        };
        let max_line_bytes = if config.max_line_bytes == 0 {
            crate::framing::DEFAULT_MAX_LINE_BYTES
        } else {
            config.max_line_bytes
        };
        Service {
            options: AnalyzerOptions {
                backend: config.backend,
                symbolic: config.options,
            },
            limits: config.limits,
            cache: Mutex::new(HashMap::new()),
            trace_sink: config.trace_sink,
            slow_ms: config.slow_solve_ms,
            slow_log: SlowLog::default(),
            threads,
            max_line_bytes,
        }
    }

    /// A fresh analyzer with the service's options.
    pub fn analyzer(&self) -> Analyzer {
        Analyzer::with_options(self.options.clone())
    }

    /// The backend of requests that do not name one.
    pub fn backend(&self) -> BackendChoice {
        self.options.backend
    }

    /// The default limits.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// Worker threads (`EngineConfig::threads`, resolved).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The per-line byte cap of the request readers.
    pub fn max_line_bytes(&self) -> usize {
        self.max_line_bytes
    }

    /// The slow-solve threshold, in milliseconds.
    pub fn slow_ms(&self) -> Option<u64> {
        self.slow_ms
    }

    /// The ring buffer of captured slow solves.
    pub fn slow_log(&self) -> &SlowLog {
        &self.slow_log
    }

    /// Number of memoized verdicts.
    pub fn cache_entries(&self) -> usize {
        lock(&self.cache).len()
    }

    /// Drops every memoized verdict and captured slow solve.
    pub fn clear(&self) {
        lock(&self.cache).clear();
        self.slow_log.clear();
    }

    /// Resolves a decision request against `ws` into a work item (see
    /// [`Service::item`]).
    pub fn resolve(
        &self,
        ws: &Workspace,
        spec: &ProblemSpec,
        backend: Option<BackendChoice>,
        limits: Option<&LimitsSpec>,
        trace: bool,
        base: &Limits,
    ) -> Result<WorkItem, String> {
        Ok(self.item(spec.resolve(ws)?, backend, limits, trace, base))
    }

    /// The work item of `problem`: the backend defaults to the service's,
    /// and `limits` override `base` field-wise (the service's
    /// [`limits`](Service::limits), or a TCP tenant's, which carry the
    /// drain token).
    pub fn item(
        &self,
        problem: Problem,
        backend: Option<BackendChoice>,
        limits: Option<&LimitsSpec>,
        trace: bool,
        base: &Limits,
    ) -> WorkItem {
        WorkItem {
            job: Job {
                problem,
                backend: backend.unwrap_or(self.options.backend),
            },
            limits: limits.map_or_else(|| base.clone(), |l| l.apply(base)),
            trace,
        }
    }

    /// Answers one item on `az` through the memo cache. A hit returns the
    /// cached verdict; a miss runs the job under [containment](Self::contain)
    /// and caches a definite verdict (`unknown` and `error` outcomes are
    /// never cached — a retry with bigger limits must re-solve). The
    /// lookup is a `memo` trace event and a hit or miss in the
    /// process-wide counters; a solve slower than the threshold is
    /// captured in the slow log.
    pub fn solve(&self, az: &mut Analyzer, item: &WorkItem) -> Solved {
        let mut sinks: Vec<Arc<dyn Sink>> = self.trace_sink.iter().cloned().collect();
        let capture = (item.trace || self.slow_ms.is_some()).then(|| Arc::new(MemorySink::new()));
        if let Some(mem) = &capture {
            sinks.push(mem.clone());
        }
        let rec = Recorder::with_sinks(sinks);

        let job = &item.job;
        let hit = lock(&self.cache).get(job).cloned();
        note_memo_lookup(&rec, job, hit.is_some());
        let (outcome, cached) = match hit {
            Some(v) => (RunOutcome::Verdict(v), true),
            None => {
                let outcome = self.contain(az, |az| run_job(az, job, &item.limits, &rec));
                if let RunOutcome::Verdict(v) = &outcome {
                    lock(&self.cache).insert(job.clone(), v.clone());
                }
                (outcome, false)
            }
        };

        let events = capture.map(|mem| mem.drain()).unwrap_or_default();
        let wall_ms = match &outcome {
            RunOutcome::Verdict(v) => v.wall_ms,
            RunOutcome::Unknown(u) => u.wall_ms,
            RunOutcome::Error(_) => 0.0,
        };
        if let Some(threshold) = self.slow_ms.filter(|&t| !cached && wall_ms > t as f64) {
            self.slow_log.push(SlowEntry {
                op: job.problem.op_name(),
                backend: job.backend.as_str(),
                status: outcome_status(&outcome),
                wall_ms,
                threshold_ms: threshold,
                cached: false,
                events: events.clone(),
            });
        }
        Solved {
            outcome,
            cached,
            trace: item.trace.then(|| trace_value(&events)),
        }
    }

    /// Runs `body` on `az` under panic containment: a panic degrades to one
    /// [`RunOutcome::Error`], rebuilds `az` (its arenas may be
    /// mid-mutation) and increments `xsat_worker_panics_total`, so one
    /// poisoned problem costs one response instead of the worker — and
    /// with it every other response the worker would have given.
    pub fn contain(
        &self,
        az: &mut Analyzer,
        body: impl FnOnce(&mut Analyzer) -> RunOutcome,
    ) -> RunOutcome {
        match std::panic::catch_unwind(AssertUnwindSafe(|| body(az))) {
            Ok(outcome) => outcome,
            Err(payload) => {
                *az = self.analyzer();
                obs::metrics()
                    .counter("xsat_worker_panics_total", &[])
                    .inc();
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    s
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s
                } else {
                    "non-string panic payload"
                };
                RunOutcome::Error(format!(
                    "solver panicked ({message}); the worker analyzer was rebuilt and \
                     this response degraded to an error"
                ))
            }
        }
    }
}

/// Applies a `dtd` or `query` registration to `ws` and renders its
/// response: the registration, or the error of a source that does not
/// parse. Any other request registers nothing and is answered with an
/// error.
pub fn register(ws: &mut Workspace, req: &Request) -> Value {
    let id = req.id.as_ref();
    let (kind, name, registered) = match &req.kind {
        RequestKind::RegisterDtd { name, source } => ("dtd", name, ws.register_dtd(name, source)),
        RequestKind::RegisterQuery { name, xpath } => {
            ("query", name, ws.register_query(name, xpath))
        }
        _ => return error_response(id, "not a `dtd` or `query` registration"),
    };
    match registered {
        Ok(()) => registration_response(id, kind, name),
        Err(e) => error_response(id, &e),
    }
}

/// One memo-cache lookup: the `memo` trace event plus the process-wide
/// hit/miss counters.
fn note_memo_lookup(rec: &Recorder, job: &Job, hit: bool) {
    rec.event(
        "memo",
        &[
            ("hit", FieldValue::Bool(hit)),
            ("op", FieldValue::Str(job.problem.op_name())),
            ("backend", FieldValue::Str(job.backend.as_str())),
        ],
    );
    let name = if hit {
        "xsat_memo_hits_total"
    } else {
        "xsat_memo_misses_total"
    };
    obs::metrics().counter(name, &[]).inc();
}

/// Locks ignoring poisoning: solves run under containment, and a poisoned
/// lock (on the memo cache, an admission queue, a tenant table) must not
/// wedge every later request. Every guarded structure is only ever
/// updated whole.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_body_costs_one_error_and_the_analyzer_keeps_solving() {
        let service = Service::new(EngineConfig::default());
        let mut az = service.analyzer();
        let panics = || {
            obs::metrics()
                .counter("xsat_worker_panics_total", &[])
                .get()
        };
        let before = panics();
        let outcome = service.contain(&mut az, |_| panic!("injected"));
        match outcome {
            RunOutcome::Error(e) => {
                assert!(e.contains("solver panicked (injected)"), "{e}");
                assert!(e.contains("the worker analyzer was rebuilt"), "{e}");
            }
            other => panic!("expected one error outcome, got {other:?}"),
        }
        assert_eq!(panics(), before + 1, "the contained panic is counted once");
        // The rebuilt analyzer answers the next solve correctly.
        let item = service.item(
            Problem::contains(
                Arc::new(xpath::parse("child::c/preceding-sibling::a[child::b]").unwrap()),
                None,
                Arc::new(xpath::parse("child::c[child::b]").unwrap()),
                None,
            ),
            None,
            None,
            false,
            service.limits(),
        );
        let solved = service.solve(&mut az, &item);
        let verdict = solved.outcome.verdict().expect("a definite verdict");
        assert!(!verdict.holds);
        assert_eq!(
            verdict.counter_example.as_deref(),
            Some("<_other s=\"1\"><a><b/></a><c/></_other>")
        );
        assert!(!solved.cached);
    }
}
