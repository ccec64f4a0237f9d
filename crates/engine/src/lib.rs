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
//! * a **parallel batch executor** ([`Engine::run_batch`]) — independent
//!   problems fan out across worker threads, each worker holding its own
//!   formula arena and BDD manager, with a shared **memo cache** of
//!   verdicts keyed by a canonical structural hash of the problem
//!   ([`Problem`]);
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
pub mod workspace;

mod executor;

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};

use analyzer::{Analyzer, AnalyzerOptions};
use solver::SymbolicOptions;

pub use executor::{run_job_memoized, BatchOutcome, BatchStats};
pub use framing::{read_framed, Framed, DEFAULT_MAX_LINE_BYTES};
pub use json::Value;
pub use obs::{JsonlSink, MemorySink, Recorder, Sink, SlowEntry, SlowLog};
pub use problem::{
    run_job, CounterExample, Job, Problem, RunOutcome, UnknownVerdict, Verdict, VerdictStats,
};
pub use protocol::{
    counterexample_value, error_response, event_value, lint_response, metrics_response,
    registration_response, slowlog_response, trace_value, unknown_response, verdict_response,
    LimitsSpec, LintSpec, Op, ProblemSpec, Request, RequestKind, Status, PROTOCOL_VERSION,
};
pub use solver::{BackendChoice, BddCounters, Limits, Resource, SolveError, Telemetry};
pub use workspace::Workspace;

use executor::{lock, ObsCtx};

/// Construction-time knobs of an [`Engine`].
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

/// The long-lived analysis service: workspace + worker analyzers + memo
/// cache.
///
/// One engine amortizes state across requests on three levels: the
/// workspace keeps parsed queries and grammars, each worker's [`Analyzer`]
/// keeps its formula arena and compiled type formulas across batches, and
/// the memo cache keeps final verdicts keyed by the canonical structure of
/// the problem.
#[derive(Debug)]
pub struct Engine {
    workspace: Workspace,
    /// Serves the sequential front end (`execute`): one more long-lived
    /// arena, independent of the batch workers.
    session: Analyzer,
    /// One analyzer per batch worker thread, kept alive across batches.
    workers: Vec<Analyzer>,
    /// Verdict memo cache, keyed by the canonical problem *plus* the
    /// backend that answered it: a symbolic verdict must never be served
    /// for an explicit-backend request.
    cache: Mutex<HashMap<Job, Verdict>>,
    counters: Counters,
    options: AnalyzerOptions,
    /// Engine-default resource limits; per-request `"limits"` objects
    /// override them field-wise.
    limits: Limits,
    /// Optional process-wide trace sink (`--trace-file`), cloned into
    /// every per-solve recorder.
    trace_sink: Option<Arc<dyn Sink>>,
    /// Slow-solve capture threshold; `None` disables the slow log.
    slow_solve_ms: Option<u64>,
    /// Ring buffer of captured slow solves, shared by the sequential
    /// front end and the batch workers.
    slow_log: SlowLog,
    /// Per-line byte cap of the serve loop.
    max_line_bytes: usize,
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
        let threads = if config.threads == 0 {
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .min(16)
        } else {
            config.threads
        };
        let options = AnalyzerOptions {
            backend: config.backend,
            symbolic: config.options,
        };
        Engine {
            workspace: Workspace::new(),
            session: Analyzer::with_options(options.clone()),
            workers: (0..threads)
                .map(|_| Analyzer::with_options(options.clone()))
                .collect(),
            cache: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            options,
            limits: config.limits,
            trace_sink: config.trace_sink,
            slow_solve_ms: config.slow_solve_ms,
            slow_log: SlowLog::default(),
            max_line_bytes: if config.max_line_bytes == 0 {
                framing::DEFAULT_MAX_LINE_BYTES
            } else {
                config.max_line_bytes
            },
        }
    }

    /// The ring buffer of captured slow solves (empty unless
    /// [`EngineConfig::slow_solve_ms`] is set).
    pub fn slow_log(&self) -> &SlowLog {
        &self.slow_log
    }

    /// The configured slow-solve threshold, in milliseconds.
    pub fn slow_solve_ms(&self) -> Option<u64> {
        self.slow_solve_ms
    }

    /// Number of batch worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// The default backend for requests that do not name one.
    pub fn default_backend(&self) -> BackendChoice {
        self.options.backend
    }

    /// The default resource limits for requests that do not carry a
    /// `"limits"` object.
    pub fn default_limits(&self) -> &Limits {
        &self.limits
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
        lock(&self.cache).len()
    }

    /// Handles one request on the sequential front end (the `serve` path).
    /// Decision problems share the memo cache with batch execution.
    pub fn execute(&mut self, req: &Request) -> Value {
        self.counters.requests += 1;
        match &req.kind {
            RequestKind::RegisterDtd { name, source } => {
                match self.workspace.register_dtd(name, source) {
                    Ok(()) => registration_response(req.id.as_ref(), "dtd", name),
                    Err(e) => self.error(req.id.as_ref(), &e),
                }
            }
            RequestKind::RegisterQuery { name, xpath } => {
                match self.workspace.register_query(name, xpath) {
                    Ok(()) => registration_response(req.id.as_ref(), "query", name),
                    Err(e) => self.error(req.id.as_ref(), &e),
                }
            }
            RequestKind::Problem {
                spec,
                backend,
                limits,
                trace,
            } => {
                let problem = match spec.resolve(&self.workspace) {
                    Ok(problem) => problem,
                    Err(e) => return self.error(req.id.as_ref(), &e),
                };
                self.counters.problems += 1;
                let job = Job {
                    problem,
                    backend: backend.unwrap_or(self.options.backend),
                };
                let effective = limits
                    .as_ref()
                    .map_or_else(|| self.limits.clone(), |l| l.apply(&self.limits));
                let obs_ctx = ObsCtx {
                    trace_sink: self.trace_sink.as_ref(),
                    slow_ms: self.slow_solve_ms,
                    slow_log: &self.slow_log,
                };
                let (rec, capture) = obs_ctx.recorder(*trace);
                let (outcome, cached) = run_job_memoized(
                    &mut self.session,
                    &self.options,
                    &self.cache,
                    &job,
                    &effective,
                    &rec,
                );
                let events = obs_ctx.finish(&job, &outcome, cached, capture);
                if cached {
                    self.counters.cache_hits += 1;
                } else {
                    self.counters.cache_misses += 1;
                }
                let tr = trace.then(|| protocol::trace_value(&events));
                match &outcome {
                    RunOutcome::Verdict(v) => {
                        let wall = if cached { 0.0 } else { v.wall_ms };
                        verdict_response(req.id.as_ref(), spec.op(), v, cached, wall, tr)
                    }
                    RunOutcome::Unknown(u) => {
                        // An exhausted budget is never cached: a retry
                        // with bigger limits must re-solve.
                        self.counters.unknown += 1;
                        unknown_response(req.id.as_ref(), spec.op(), u, tr)
                    }
                    RunOutcome::Error(e) => self.error(req.id.as_ref(), e),
                }
            }
            RequestKind::Lint(spec) => self.run_lint(req.id.as_ref(), spec),
            RequestKind::Stats => self.stats_response(req.id.as_ref()),
            RequestKind::Metrics => {
                protocol::metrics_response(req.id.as_ref(), &obs::metrics().snapshot())
            }
            RequestKind::SlowLog => protocol::slowlog_response(
                req.id.as_ref(),
                self.slow_solve_ms,
                &self.slow_log.entries(),
            ),
            RequestKind::Reset => {
                self.workspace.clear();
                lock(&self.cache).clear();
                self.slow_log.clear();
                // Fresh arenas: a long-running service can shed the formula
                // and BDD state accumulated by previous workloads.
                self.session = Analyzer::with_options(self.options.clone());
                for w in &mut self.workers {
                    *w = Analyzer::with_options(self.options.clone());
                }
                registration_response(req.id.as_ref(), "reset", "engine")
            }
        }
    }

    /// Parses and handles one JSONL request line.
    pub fn execute_line(&mut self, line: &str) -> Value {
        match Request::parse(line) {
            Ok(req) => self.execute(&req),
            Err(e) => self.error(None, &e),
        }
    }

    /// Runs a batch: registrations apply in order, decision problems are
    /// deduplicated and fanned out across the worker threads, and responses
    /// come back in request order. See [`BatchOutcome`] for the result
    /// shape.
    pub fn run_batch(&mut self, requests: &[Request]) -> BatchOutcome {
        let obs_ctx = ObsCtx {
            trace_sink: self.trace_sink.as_ref(),
            slow_ms: self.slow_solve_ms,
            slow_log: &self.slow_log,
        };
        let outcome = executor::run_batch(
            &mut self.workspace,
            &mut self.workers,
            &self.options,
            &self.cache,
            self.options.backend,
            &self.limits,
            &obs_ctx,
            requests,
        );
        self.counters.batches += 1;
        self.counters.requests += outcome.stats.requests as u64;
        self.counters.problems += outcome.stats.problems as u64;
        self.counters.cache_hits += outcome.stats.cache_hits as u64;
        self.counters.cache_misses += outcome.stats.cache_misses as u64;
        self.counters.unknown += outcome.stats.unknown as u64;
        self.counters.errors += outcome.stats.errors as u64;
        outcome
    }

    /// Parses a JSONL document (one request per non-empty, non-`#` line)
    /// and runs it as a batch. Lines that fail to parse become error
    /// responses in place.
    pub fn run_batch_lines(&mut self, input: &str) -> BatchOutcome {
        let mut requests = Vec::new();
        let mut parse_errors: Vec<(usize, String)> = Vec::new();
        for (i, line) in input
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .enumerate()
        {
            match Request::parse(line) {
                Ok(r) => requests.push(r),
                Err(e) => {
                    // Hold the slot with a harmless placeholder so response
                    // positions keep corresponding to input lines, then
                    // splice the parse error in afterwards.
                    parse_errors.push((i, e));
                    requests.push(Request {
                        id: None,
                        kind: RequestKind::Stats,
                    });
                }
            }
        }
        let mut outcome = self.run_batch(&requests);
        // The placeholder already counted as an error in the executor, so
        // only the response text needs replacing.
        for (i, e) in parse_errors {
            outcome.responses[i] = error_response(None, &e);
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
            let line = match framing::read_framed(&mut input, self.max_line_bytes)? {
                Framed::Eof => return Ok(()),
                Framed::Oversized { limit } => {
                    self.counters.errors += 1;
                    let response = error_response(
                        None,
                        &format!("request line exceeds the {limit}-byte cap and was discarded"),
                    );
                    writeln!(output, "{}", response.to_json())?;
                    output.flush()?;
                    continue;
                }
                Framed::Line(line) => line,
            };
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let response = self.execute_line(line);
            writeln!(output, "{}", response.to_json())?;
            output.flush()?;
        }
    }

    /// Handles a `lint` request: plan on the sequential analyzer, fan the
    /// probes out over the batch workers (sharing the verdict memo cache,
    /// so a lint run warms the cache for later decision traffic and vice
    /// versa), then judge the outcomes into diagnostics.
    fn run_lint(&mut self, id: Option<&Value>, spec: &protocol::LintSpec) -> Value {
        let started = std::time::Instant::now();
        let config = spec.config();
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
        let plan = match lint::plan(&mut self.session, &queries, &dtds, &config) {
            Ok(plan) => plan,
            Err(e) => return self.error(id, &e),
        };
        let backend = spec.backend.unwrap_or(self.options.backend);
        let effective = spec
            .limits
            .as_ref()
            .map_or_else(|| self.limits.clone(), |l| l.apply(&self.limits));
        let obs_ctx = ObsCtx {
            trace_sink: self.trace_sink.as_ref(),
            slow_ms: self.slow_solve_ms,
            slow_log: &self.slow_log,
        };
        let (outcomes, probe_stats) = executor::solve_probes(
            &mut self.workers,
            &self.options,
            &self.cache,
            backend,
            &effective,
            &obs_ctx,
            &plan.probes,
        );
        self.counters.problems += plan.probes.len() as u64;
        self.counters.cache_hits += probe_stats.hits as u64;
        self.counters.cache_misses += probe_stats.misses as u64;
        self.counters.unknown += probe_stats.unknown as u64;
        let diagnostics = lint::judge(&plan, &outcomes);
        protocol::lint_response(
            id,
            &diagnostics,
            plan.probes.len(),
            problem::duration_ms(started.elapsed()),
        )
    }

    fn error(&mut self, id: Option<&Value>, message: &str) -> Value {
        self.counters.errors += 1;
        error_response(id, message)
    }

    fn stats_response(&self, id: Option<&Value>) -> Value {
        let mut fields = Vec::new();
        if let Some(id) = id {
            fields.push(("id", id.clone()));
        }
        fields.extend([
            ("ok", Value::Bool(true)),
            ("op", Value::from("stats")),
            ("protocol", Value::from(protocol::PROTOCOL_VERSION as usize)),
            ("backend", Value::from(self.options.backend.as_str())),
            ("threads", Value::from(self.threads())),
            ("dtds", Value::from(self.workspace.dtd_count())),
            ("queries", Value::from(self.workspace.query_count())),
            ("cache_entries", Value::from(self.cache_entries())),
            ("requests", Value::from(self.counters.requests as usize)),
            ("problems", Value::from(self.counters.problems as usize)),
            ("cache_hits", Value::from(self.counters.cache_hits as usize)),
            (
                "cache_misses",
                Value::from(self.counters.cache_misses as usize),
            ),
            ("unknown", Value::from(self.counters.unknown as usize)),
            ("errors", Value::from(self.counters.errors as usize)),
            ("batches", Value::from(self.counters.batches as usize)),
        ]);
        json::obj(fields)
    }
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
