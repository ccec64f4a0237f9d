//! **engine** — a long-lived, concurrent batch-analysis service over the
//! `analyzer` crate (the paper's decision problems as a workload).
//!
//! The paper frames XPath/type analysis as many satisfiability calls over a
//! shared lean; this crate turns the per-call [`Analyzer`] into a session
//! service:
//!
//! * a **workspace** ([`Workspace`]) of named DTDs and named XPath queries,
//!   registered once and referenced by many decision problems;
//! * a **JSON-lines protocol** ([`protocol`]) — requests like
//!   `{"op":"contains","lhs":"q1","rhs":"q2","type":"dtd1"}` in, structured
//!   verdicts with counter-example XML, solver statistics and wall-clock
//!   timings out;
//! * one **request core** ([`Service`]) — resolve, memo lookup, contained
//!   solve, trace and slow-log capture, rendering — holding the shared
//!   **memo cache** of verdicts keyed by a canonical structural hash of
//!   the problem ([`Problem`]). Every front end goes through it: the
//!   `serve` crate's TCP tier as well as the [`Engine`] here;
//! * a **parallel batch executor** ([`Engine::run_batch`]) — independent
//!   problems fan out across worker threads, each worker holding its own
//!   formula arena and BDD manager;
//! * a **serve loop** ([`Engine::serve`]) reading JSONL from any reader and
//!   streaming verdicts to any writer, which is what the `xsat serve`
//!   daemon mode wraps around stdin/stdout.
//!
//! # Example
//!
//! ```
//! use engine::{Engine, Request};
//!
//! let mut engine = Engine::new();
//! let batch: Vec<Request> = [
//!     r#"{"op":"query","name":"q1","xpath":"a/b//d[prec-sibling::c]/e"}"#,
//!     r#"{"op":"query","name":"q2","xpath":"a/b//c/foll-sibling::d/e"}"#,
//!     r#"{"op":"contains","lhs":"q1","rhs":"q2"}"#,
//!     r#"{"op":"contains","lhs":"q1","rhs":"q2"}"#,
//! ]
//! .iter()
//! .map(|line| Request::parse(line))
//! .collect::<Result<_, _>>()?;
//! let outcome = engine.run_batch(&batch);
//! assert_eq!(outcome.responses[2].get("holds").and_then(|v| v.as_bool()), Some(true));
//! // The repeated problem is served from the memo cache.
//! assert_eq!(outcome.responses[3].get("cached").and_then(|v| v.as_bool()), Some(true));
//! assert_eq!(outcome.stats.cache_hits, 1);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod framing;
pub mod json;
pub mod problem;
pub mod protocol;
pub mod service;
pub mod workspace;

mod executor;

use std::io::{BufRead, Write};
use std::sync::Arc;

use analyzer::Analyzer;
use solver::SymbolicOptions;

pub use executor::{BatchOutcome, BatchStats};
pub use framing::{read_framed, Framed, DEFAULT_MAX_LINE_BYTES};
pub use json::Value;
pub use obs::{JsonlSink, MemorySink, Recorder, Sink, SlowEntry, SlowLog};
pub use problem::{
    run_job, CounterExample, Job, Problem, RunOutcome, UnknownVerdict, Verdict, VerdictStats,
};
pub use protocol::{
    counterexample_value, error_response, event_value, is_error, lint_response, metrics_response,
    registration_response, response, slowlog_response, trace_value, unknown_response,
    verdict_response, LimitsSpec, LintSpec, Op, ProblemSpec, Request, RequestKind, Status,
    PROTOCOL_VERSION,
};
pub use service::{lock, register, Service, Solved, WorkItem};
pub use solver::{BackendChoice, BddCounters, Limits, Resource, SolveError, Telemetry};
pub use workspace::Workspace;

/// Construction-time knobs of an [`Engine`] (and of the [`Service`] at
/// its core).
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Worker threads for batch execution; `0` picks the machine's
    /// available parallelism (capped at 16).
    pub threads: usize,
    /// Symbolic-solver options, cloned into every worker.
    pub options: SymbolicOptions,
    /// Default solver backend for requests that do not name one.
    pub backend: BackendChoice,
    /// Default resource limits for requests that do not carry a
    /// `"limits"` object; per-request limits override field-wise.
    pub limits: Limits,
    /// Every solve's trace events also stream to this sink when set —
    /// typically a [`JsonlSink`] behind `xsat --trace-file`. Per-request
    /// `"trace": true` works with or without it.
    pub trace_sink: Option<Arc<dyn Sink>>,
    /// Slow-solve threshold in milliseconds: any solve slower than this
    /// captures its full event trace into the engine's ring-buffered slow
    /// log (dumped by the `slowlog` op). `None` disables capture.
    pub slow_solve_ms: Option<u64>,
    /// Per-line byte cap of the serve loop; `0` picks
    /// [`framing::DEFAULT_MAX_LINE_BYTES`]. An oversized line is answered
    /// with one protocol error response and discarded — the stream keeps
    /// serving from the next line.
    pub max_line_bytes: usize,
}

/// Cumulative service counters, reported by the `stats` op.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Requests handled (sequential and batch).
    pub requests: u64,
    /// Decision problems posed.
    pub problems: u64,
    /// Problems answered from the memo cache.
    pub cache_hits: u64,
    /// Problems that went to a solver (the complement of `cache_hits`).
    pub cache_misses: u64,
    /// Problems answered `"status":"unknown"` (a budget ran out); never
    /// cached.
    pub unknown: u64,
    /// Requests rejected with an error.
    pub errors: u64,
    /// Batches executed.
    pub batches: u64,
}

impl Counters {
    /// Counts one answered decision problem — a request, a batch entry or
    /// a lint probe: a memo hit (see [`Solved::hit`]) or a miss, and an
    /// unknown when its budget ran out. Errors are counted by the
    /// responses they produce.
    pub fn count(&mut self, solved: &Solved, duplicate: bool) {
        self.problems += 1;
        if solved.hit(duplicate) {
            self.cache_hits += 1;
        } else {
            self.cache_misses += 1;
        }
        if let RunOutcome::Unknown(_) = solved.outcome {
            self.unknown += 1;
        }
    }
}

/// The long-lived analysis service: workspace + worker analyzers around
/// the shared request [`Service`].
///
/// One engine amortizes state across requests on three levels: the
/// workspace keeps parsed queries and grammars, each worker's [`Analyzer`]
/// keeps its formula arena and compiled type formulas across batches, and
/// the service's memo cache keeps final verdicts keyed by the canonical
/// structure of the problem.
#[derive(Debug)]
pub struct Engine {
    workspace: Workspace,
    /// Serves the sequential front end (`execute`) and plans lint runs:
    /// one more long-lived arena, independent of the batch workers.
    session: Analyzer,
    /// One analyzer per batch worker thread, kept alive across batches.
    workers: Vec<Analyzer>,
    service: Service,
    counters: Counters,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// An engine with default options and auto-detected parallelism.
    pub fn new() -> Engine {
        Engine::with_config(EngineConfig::default())
    }

    /// An engine with explicit options.
    pub fn with_config(config: EngineConfig) -> Engine {
        let service = Service::new(config);
        Engine {
            workspace: Workspace::new(),
            session: service.analyzer(),
            workers: (0..service.threads()).map(|_| service.analyzer()).collect(),
            service,
            counters: Counters::default(),
        }
    }

    /// The ring buffer of captured slow solves (empty unless
    /// [`EngineConfig::slow_solve_ms`] is set).
    pub fn slow_log(&self) -> &SlowLog {
        self.service.slow_log()
    }

    /// Number of batch worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// The default backend for requests that do not name one.
    pub fn default_backend(&self) -> BackendChoice {
        self.service.backend()
    }

    /// The workspace of named artifacts.
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// Cumulative service counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Number of memoized verdicts.
    pub fn cache_entries(&self) -> usize {
        self.service.cache_entries()
    }

    /// Handles one request on the sequential front end (the `serve` path).
    /// Decision problems share the memo cache with batch execution.
    pub fn execute(&mut self, req: &Request) -> Value {
        self.counters.requests += 1;
        let id = req.id.as_ref();
        let response = match &req.kind {
            RequestKind::RegisterDtd { .. } | RequestKind::RegisterQuery { .. } => {
                register(&mut self.workspace, req)
            }
            RequestKind::Problem {
                spec,
                backend,
                limits,
                trace,
            } => match self.service.resolve(
                &self.workspace,
                spec,
                *backend,
                limits.as_ref(),
                *trace,
                self.service.limits(),
            ) {
                Ok(item) => {
                    let solved = self.service.solve(&mut self.session, &item);
                    self.counters.count(&solved, false);
                    solved.respond(id, spec.op().canonical(), false)
                }
                Err(e) => error_response(id, &e),
            },
            RequestKind::Lint(spec) => self.run_lint(id, spec),
            RequestKind::Stats => self.stats_response(id),
            RequestKind::Metrics => metrics_response(id, &obs::metrics().snapshot()),
            RequestKind::SlowLog => slowlog_response(
                id,
                self.service.slow_ms(),
                &self.service.slow_log().entries(),
            ),
            RequestKind::Reset => {
                self.workspace.clear();
                self.service.clear();
                // Fresh arenas: a long-running service can shed the formula
                // and BDD state accumulated by previous workloads.
                self.session = self.service.analyzer();
                for w in &mut self.workers {
                    *w = self.service.analyzer();
                }
                registration_response(id, "reset", "engine")
            }
        };
        self.counters.errors += u64::from(is_error(&response));
        response
    }

    /// Parses and handles one JSONL request line.
    pub fn execute_line(&mut self, line: &str) -> Value {
        match parse_request(line) {
            Ok(req) => self.execute(&req),
            Err(response) => {
                self.counters.errors += 1;
                response
            }
        }
    }

    /// Runs a batch: registrations apply in order, decision problems are
    /// deduplicated and fanned out across the worker threads, and responses
    /// come back in request order. See [`BatchOutcome`] for the result
    /// shape.
    pub fn run_batch(&mut self, requests: &[Request]) -> BatchOutcome {
        let outcome = executor::run_batch(
            &self.service,
            &mut self.workspace,
            &mut self.workers,
            requests,
        );
        let s = &outcome.stats;
        self.counters.batches += 1;
        self.counters.requests += s.requests as u64;
        self.counters.problems += s.problems as u64;
        self.counters.cache_hits += s.cache_hits as u64;
        self.counters.cache_misses += s.cache_misses as u64;
        self.counters.unknown += s.unknown as u64;
        self.counters.errors += s.errors as u64;
        outcome
    }

    /// Parses a JSONL document (one request per non-empty, non-`#` line)
    /// and runs it as a batch. Lines that fail to parse become error
    /// responses in place.
    pub fn run_batch_lines(&mut self, input: &str) -> BatchOutcome {
        let mut requests = Vec::new();
        let mut parse_errors = Vec::new();
        for (i, line) in input
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .enumerate()
        {
            match parse_request(line) {
                Ok(r) => requests.push(r),
                Err(response) => {
                    // Hold the slot with a service op, which a batch
                    // answers with an error (so it is counted as one), then
                    // splice the parse error in afterwards.
                    parse_errors.push((i, response));
                    requests.push(Request {
                        id: None,
                        kind: RequestKind::Stats,
                    });
                }
            }
        }
        let mut outcome = self.run_batch(&requests);
        for (i, response) in parse_errors {
            outcome.responses[i] = response;
        }
        outcome
    }

    /// The daemon loop: reads one JSONL request per line, writes one JSON
    /// response per line, flushing after each so the engine is scriptable
    /// as a co-process. Returns when the reader is exhausted.
    ///
    /// The loop is hardened against hostile or broken peers: a line that
    /// fails to parse (including invalid UTF-8, decoded lossily) is
    /// answered with one `"status":"error"` response, a line longer than
    /// [`EngineConfig::max_line_bytes`] is answered with one error
    /// response and discarded without ever being buffered whole, and in
    /// both cases the loop keeps serving subsequent requests. Only a real
    /// I/O failure of the underlying reader or writer ends the loop.
    pub fn serve<R: BufRead, W: Write>(
        &mut self,
        mut input: R,
        mut output: W,
    ) -> std::io::Result<()> {
        loop {
            let response = match framing::read_framed(&mut input, self.service.max_line_bytes())? {
                Framed::Eof => return Ok(()),
                Framed::Oversized { limit } => {
                    self.counters.errors += 1;
                    error_response(
                        None,
                        &format!("request line exceeds the {limit}-byte cap and was discarded"),
                    )
                }
                Framed::Line(line) => {
                    let line = line.trim();
                    if line.is_empty() || line.starts_with('#') {
                        continue;
                    }
                    self.execute_line(line)
                }
            };
            writeln!(output, "{}", response.to_json())?;
            output.flush()?;
        }
    }

    /// Handles a `lint` request: plan on the sequential analyzer, fan the
    /// probes out over the batch workers (sharing the verdict memo cache,
    /// so a lint run warms the cache for later decision traffic and vice
    /// versa), then judge the outcomes into diagnostics.
    fn run_lint(&mut self, id: Option<&Value>, spec: &LintSpec) -> Value {
        let started = std::time::Instant::now();
        let queries: Vec<(String, Arc<xpath::Expr>)> = self
            .workspace
            .queries_sorted()
            .into_iter()
            .map(|(n, e)| (n.to_owned(), e))
            .collect();
        let dtds: Vec<(String, Arc<treetypes::Dtd>)> = self
            .workspace
            .dtds_sorted()
            .into_iter()
            .map(|(n, d)| (n.to_owned(), d))
            .collect();
        let plan = match lint::plan(&mut self.session, &queries, &dtds, &spec.config()) {
            Ok(plan) => plan,
            Err(e) => return error_response(id, &e),
        };
        // Distinct rules often pose the same problem (a step prefix shared
        // by dead-step and contradiction probes); each runs once.
        let mut work = executor::WorkList::default();
        let slots: Vec<(usize, bool)> = plan
            .probes
            .iter()
            .map(|probe| {
                work.intern(self.service.item(
                    probe.problem.clone(),
                    spec.backend,
                    spec.limits.as_ref(),
                    false,
                    self.service.limits(),
                ))
            })
            .collect();
        let results = work.solve(&self.service, &mut self.workers);
        let outcomes: Vec<lint::ProbeOutcome> = slots
            .into_iter()
            .map(|(i, duplicate)| {
                let solved = &results[i];
                self.counters.count(solved, duplicate);
                match &solved.outcome {
                    RunOutcome::Verdict(v) if v.holds => lint::ProbeOutcome::Holds {
                        witness: v.counter_example.clone(),
                    },
                    RunOutcome::Verdict(v) => lint::ProbeOutcome::Fails {
                        witness: v.counter_example.clone(),
                    },
                    RunOutcome::Unknown(u) => lint::ProbeOutcome::Unknown {
                        reason: u.reason.clone(),
                    },
                    RunOutcome::Error(e) => lint::ProbeOutcome::Error { reason: e.clone() },
                }
            })
            .collect();
        let diagnostics = lint::judge(&plan, &outcomes);
        lint_response(
            id,
            &diagnostics,
            plan.probes.len(),
            problem::duration_ms(started.elapsed()),
        )
    }

    fn stats_response(&self, id: Option<&Value>) -> Value {
        let c = &self.counters;
        response(
            id,
            vec![
                ("ok", Value::Bool(true)),
                ("op", Value::from("stats")),
                ("protocol", Value::from(PROTOCOL_VERSION as usize)),
                ("backend", Value::from(self.service.backend().as_str())),
                ("threads", Value::from(self.threads())),
                ("dtds", Value::from(self.workspace.dtd_count())),
                ("queries", Value::from(self.workspace.query_count())),
                ("cache_entries", Value::from(self.cache_entries())),
                ("requests", Value::from(c.requests as usize)),
                ("problems", Value::from(c.problems as usize)),
                ("cache_hits", Value::from(c.cache_hits as usize)),
                ("cache_misses", Value::from(c.cache_misses as usize)),
                ("unknown", Value::from(c.unknown as usize)),
                ("errors", Value::from(c.errors as usize)),
                ("batches", Value::from(c.batches as usize)),
            ],
        )
    }
}

/// Parses one request line. A line that is JSON but not a valid request
/// still gets its `id` echoed on the error response, as on every front
/// end.
fn parse_request(line: &str) -> Result<Request, Value> {
    let v = json::parse(line).map_err(|e| error_response(None, &e.to_string()))?;
    Request::from_value(&v).map_err(|e| error_response(v.get("id"), &e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(line: &str) -> Request {
        Request::parse(line).unwrap()
    }

    #[test]
    fn sequential_execute_caches() {
        let mut e = Engine::with_config(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let r = e.execute(&req(r#"{"op":"contains","lhs":"a/b","rhs":"a/*"}"#));
        assert_eq!(r.get("holds").and_then(Value::as_bool), Some(true));
        assert_eq!(r.get("cached").and_then(Value::as_bool), Some(false));
        let r2 = e.execute(&req(r#"{"op":"contains","lhs":"a/b","rhs":"a/*"}"#));
        assert_eq!(r2.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(e.counters().cache_hits, 1);
        assert_eq!(e.cache_entries(), 1);
    }

    #[test]
    fn batch_then_sequential_share_the_cache() {
        let mut e = Engine::with_config(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let out = e.run_batch(&[req(r#"{"op":"overlap","lhs":"child::a","rhs":"child::*"}"#)]);
        assert_eq!(out.stats.cache_hits, 0);
        let r = e.execute(&req(
            r#"{"op":"overlap","lhs":"child::a","rhs":"child::*"}"#,
        ));
        assert_eq!(r.get("cached").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn reset_clears_everything() {
        let mut e = Engine::new();
        e.execute(&req(r#"{"op":"query","name":"q","xpath":"a"}"#));
        e.execute(&req(r#"{"op":"sat","query":"q"}"#));
        assert_eq!(e.cache_entries(), 1);
        e.execute(&req(r#"{"op":"reset"}"#));
        assert_eq!(e.cache_entries(), 0);
        assert_eq!(e.workspace().query_count(), 0);
        let r = e.execute(&req(r#"{"op":"query","name":"q","xpath":"b"}"#));
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn serve_round_trip() {
        let mut e = Engine::new();
        let input = concat!(
            r#"{"op":"query","name":"q1","xpath":"child::a"}"#,
            "\n\n# comment line\n",
            r#"{"id":"r1","op":"sat","query":"q1"}"#,
            "\n",
            r#"{"op":"nonsense"}"#,
            "\n",
        );
        let mut out = Vec::new();
        e.serve(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let v1 = json::parse(lines[0]).unwrap();
        assert_eq!(v1.get("registered").and_then(Value::as_str), Some("q1"));
        let v2 = json::parse(lines[1]).unwrap();
        assert_eq!(v2.get("id").and_then(Value::as_str), Some("r1"));
        assert_eq!(v2.get("holds").and_then(Value::as_bool), Some(true));
        let v3 = json::parse(lines[2]).unwrap();
        assert_eq!(v3.get("ok").and_then(Value::as_bool), Some(false));
    }
}
