//! Executor jobs, their canonical memo keys, and wire-friendly verdicts.
//!
//! The typed decision problem itself is [`analyzer::Problem`] — fully
//! structural, holding parsed query ASTs and DTDs behind [`Arc`](std::sync::Arc),
//! so its derived `Hash`/`Eq` give a *canonical key*: the same logical
//! problem posed twice (under different names, or inline vs. registered)
//! memoizes to one cache entry, and two distinct problems can never alias
//! the way rendered-string keys could. The memo key proper is a [`Job`]:
//! the problem *plus* the backend it runs on — a cached symbolic verdict
//! must never answer an explicit-backend request.
//!
//! Running a job yields a [`RunOutcome`] with three shapes, mirroring the
//! protocol's `status` field: a definite [`Verdict`] (`holds` / `fails`),
//! an [`UnknownVerdict`] when a resource budget ran out (never cached — a
//! retry with bigger limits must re-solve), or an error string (an
//! oracle-rejected witness or a contained panic; never cached either).
//!
//! Because the memo cache stores whole [`Verdict`]s, the attached
//! [`CounterExample`] evidence survives cache hits for free: a repeated
//! `fails` problem answers with the same verified witness document.

use std::time::Instant;

use analyzer::{Analysis, Analyzer, BackendChoice, Limits, SolveError, Telemetry};
use obs::Recorder;

pub use analyzer::Problem;

/// The memo-cache key and unit of executor work: a canonical problem plus
/// the backend that must answer it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Job {
    /// The structural problem.
    pub problem: Problem,
    /// The backend it runs on.
    pub backend: BackendChoice,
}

/// Solver statistics snapshot carried by every verdict (and preserved on
/// cache hits, where they describe the original solving run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerdictStats {
    /// `|Lean(ψ)|` of the goal formula (max over sub-problems).
    pub lean_size: usize,
    /// `|cl(ψ)|` (max over sub-problems).
    pub closure_size: usize,
    /// Fixpoint iterations (summed over sub-problems).
    pub iterations: usize,
    /// Wall-clock of the satisfiability loop(s), in milliseconds.
    pub solve_ms: f64,
    /// Typed per-backend counters (summed over sub-problems).
    pub telemetry: Telemetry,
}

impl VerdictStats {
    fn from_solver(stats: &solver::Stats) -> VerdictStats {
        VerdictStats {
            lean_size: stats.lean_size,
            closure_size: stats.closure_size,
            iterations: stats.iterations,
            solve_ms: duration_ms(stats.duration),
            telemetry: stats.telemetry.clone(),
        }
    }
}

/// A verified counter-example document, the evidence attached to a `fails`
/// verdict of a refutable operation (containment, emptiness, coverage,
/// type-checking, equivalence).
///
/// Both renderings serialize the same tree; `pretty` is the indented
/// multi-line form `--explain` prints. The analyzer re-checks every model
/// through the [`mulogic::model_check`] oracle (and the governing DTDs)
/// before it gets here — a rejected witness is a [`SolveError::WitnessInvalid`]
/// error response, never a silently unverified counter-example — so
/// `verified` is always `true` on emitted verdicts; the field pins that
/// guarantee on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterExample {
    /// Compact single-line XML (identical to the legacy `counter_example`
    /// string field).
    pub xml: String,
    /// Indented multi-line XML for human-facing output.
    pub pretty: String,
    /// Node count of the witness document.
    pub size: usize,
    /// Whether the witness passed the model-checking and DTD oracles
    /// (always `true`; failures become error responses instead).
    pub verified: bool,
}

/// The outcome of one decision problem, in wire-friendly form.
///
/// Counter-examples are rendered to XML eagerly: solver models hold
/// `Rc`-based trees that cannot cross threads, while a `Verdict` must
/// travel from executor workers back to the caller and live in the shared
/// memo cache.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Whether the queried property holds.
    pub holds: bool,
    /// Witness XML: against the property for refutable ops (containment,
    /// emptiness, coverage, type-checking, equivalence), for it on
    /// satisfiability and overlap.
    pub counter_example: Option<String>,
    /// The verified counter-example document, present exactly when the
    /// verdict is `fails` and a witness was reconstructed. `holds`
    /// verdicts of satisfiability/overlap keep their supporting model in
    /// `counter_example` only — that model is evidence *for* the property,
    /// not a counter-example.
    pub counterexample: Option<CounterExample>,
    /// The backend that produced the verdict, echoed on every response.
    pub backend: BackendChoice,
    /// Solver measurements.
    pub stats: VerdictStats,
    /// End-to-end time for this problem (translation + solving), in
    /// milliseconds. Zero-ish on cache hits.
    pub wall_ms: f64,
}

impl Verdict {
    fn from_analysis(a: Analysis, wall_ms: f64) -> Verdict {
        let counterexample = if a.holds {
            None
        } else {
            a.counter_example.as_ref().map(|m| CounterExample {
                xml: m.xml(),
                pretty: m.xml_pretty(),
                size: m.size(),
                verified: true,
            })
        };
        Verdict {
            holds: a.holds,
            counter_example: a.counter_example.map(|m| m.xml()),
            counterexample,
            backend: a.backend,
            stats: VerdictStats::from_solver(&a.stats),
            wall_ms,
        }
    }
}

/// The third verdict: a resource budget ran out before the solve could
/// decide. Reaches JSONL clients as `"status":"unknown"` with the
/// exhausted resource named, and is never memo-cached — a retry with
/// bigger limits re-solves.
#[derive(Debug, Clone, PartialEq)]
pub struct UnknownVerdict {
    /// Protocol name of the exhausted resource (`wall_clock_ms`,
    /// `bdd_nodes`, `iterations`, `lean_diamonds`).
    pub resource: &'static str,
    /// How much was spent when the budget check fired.
    pub spent: u64,
    /// The configured budget.
    pub limit: u64,
    /// Human-readable exhaustion report.
    pub reason: String,
    /// The backend that ran out.
    pub backend: BackendChoice,
    /// End-to-end time until the budget fired, in milliseconds.
    pub wall_ms: f64,
}

/// What one executed job produced — the three protocol statuses beyond a
/// plain `holds`/`fails` split.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// A definite verdict (cacheable).
    Verdict(Verdict),
    /// A budget ran out: `"status":"unknown"`, never cached.
    Unknown(UnknownVerdict),
    /// A solver-level failure (a witness the verification oracles
    /// rejected, or a contained panic): an error response, never cached.
    Error(String),
}

impl RunOutcome {
    /// The definite verdict, when there is one.
    pub fn verdict(&self) -> Option<&Verdict> {
        match self {
            RunOutcome::Verdict(v) => Some(v),
            _ => None,
        }
    }
}

/// Solves a job on the given analyzer under the given limits, folding the
/// typed [`SolveError`] into the protocol's three-way outcome.
///
/// Phase and step events of the solve are recorded on `rec` (pass
/// [`Recorder::noop`] to run silently), and every run updates the
/// process-wide [`obs::metrics`] registry: `xsat_solves_total` and the
/// `xsat_solve_latency_ms` histogram by operation × backend × status,
/// `xsat_unknown_total` by exhausted resource, and the
/// `xsat_bdd_peak_nodes` high-water gauge.
pub fn run_job(az: &mut Analyzer, job: &Job, limits: &Limits, rec: &Recorder) -> RunOutcome {
    let started = Instant::now();
    az.set_backend(job.backend);
    let outcome = match az.solve_traced(&job.problem, limits, rec) {
        Ok(analysis) => RunOutcome::Verdict(Verdict::from_analysis(
            analysis,
            duration_ms(started.elapsed()),
        )),
        Err(e @ SolveError::ResourceExhausted { .. }) => {
            let x = e.exhausted().expect("exhausted variant");
            RunOutcome::Unknown(UnknownVerdict {
                resource: x.resource.as_str(),
                spent: x.spent,
                limit: x.limit,
                reason: e.to_string(),
                backend: job.backend,
                wall_ms: duration_ms(started.elapsed()),
            })
        }
        Err(e @ SolveError::WitnessInvalid { .. }) => RunOutcome::Error(e.to_string()),
    };
    record_metrics(job, &outcome, duration_ms(started.elapsed()));
    outcome
}

/// The protocol status of an outcome, as the wire string.
pub(crate) fn outcome_status(outcome: &RunOutcome) -> &'static str {
    match outcome {
        RunOutcome::Verdict(v) if v.holds => "holds",
        RunOutcome::Verdict(_) => "fails",
        RunOutcome::Unknown(_) => "unknown",
        RunOutcome::Error(_) => "error",
    }
}

fn record_metrics(job: &Job, outcome: &RunOutcome, wall_ms: f64) {
    let m = obs::metrics();
    let labels = [
        ("op", job.problem.op_name()),
        ("backend", job.backend.as_str()),
        ("status", outcome_status(outcome)),
    ];
    m.counter("xsat_solves_total", &labels).inc();
    m.histogram("xsat_solve_latency_ms", &labels)
        .observe_ms(wall_ms);
    match outcome {
        RunOutcome::Unknown(u) => {
            m.counter("xsat_unknown_total", &[("resource", u.resource)])
                .inc();
        }
        RunOutcome::Verdict(v) => {
            if let Some(c) = v.stats.telemetry.bdd_counters() {
                m.gauge("xsat_bdd_peak_nodes", &[])
                    .record_max(c.peak_nodes as u64);
            }
        }
        RunOutcome::Error(_) => {}
    }
}

pub(crate) fn duration_ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xpath::Expr;

    fn q(src: &str) -> Arc<Expr> {
        Arc::new(xpath::parse(src).unwrap())
    }

    fn job(problem: Problem, backend: BackendChoice) -> Job {
        Job { problem, backend }
    }

    #[test]
    fn run_produces_counter_example() {
        let mut az = Analyzer::new();
        let p = Problem::contains(
            q("child::c/preceding-sibling::a[child::b]"),
            None,
            q("child::c[child::b]"),
            None,
        );
        let out = run_job(
            &mut az,
            &job(p, BackendChoice::Symbolic),
            &Limits::default(),
            &Recorder::noop(),
        );
        let v = out.verdict().expect("definite verdict");
        assert!(!v.holds);
        let xml = v.counter_example.as_ref().expect("witness expected");
        assert!(xml.contains("<a>"), "{xml}");
        assert!(v.stats.lean_size > 0);
        assert!(v.wall_ms >= 0.0);
        assert_eq!(v.backend, BackendChoice::Symbolic);
        assert_eq!(v.stats.telemetry.backend_name(), "symbolic");
    }

    #[test]
    fn equivalence_merges_stats() {
        let mut az = Analyzer::new();
        let p = Problem::equiv(q("a/b[c]"), None, q("a/b[c]"), None);
        let out = run_job(
            &mut az,
            &job(p, BackendChoice::Symbolic),
            &Limits::default(),
            &Recorder::noop(),
        );
        let v = out.verdict().expect("definite verdict");
        assert!(v.holds);
        assert!(v.counter_example.is_none());
        assert!(v.stats.iterations > 0);
    }

    #[test]
    fn backends_are_distinct_jobs() {
        use std::collections::HashMap;
        let p = Problem::contains(q("a/b"), None, q("a/*"), None);
        let mut m = HashMap::new();
        m.insert(job(p.clone(), BackendChoice::Symbolic), 1);
        // The same problem under another backend is a different cache key.
        assert!(!m.contains_key(&job(p.clone(), BackendChoice::Explicit)));
        assert!(m.contains_key(&job(p, BackendChoice::Symbolic)));
    }

    #[test]
    fn run_on_reference_backends() {
        let p = Problem::overlap(q("child::a"), None, q("child::*"), None);
        for backend in [BackendChoice::Explicit, BackendChoice::Witnessed] {
            let mut az = Analyzer::new();
            let out = run_job(
                &mut az,
                &job(p.clone(), backend),
                &Limits::default(),
                &Recorder::noop(),
            );
            let v = out.verdict().unwrap_or_else(|| panic!("{backend}"));
            assert!(v.holds, "{backend}");
            assert_eq!(v.backend, backend);
            assert_eq!(v.stats.telemetry.backend_name(), backend.as_str());
        }
    }

    #[test]
    fn exhausted_jobs_come_back_unknown() {
        let mut az = Analyzer::new();
        let p = Problem::sat(q("a/b[c]"), None);
        let starved = Limits {
            max_iterations: Some(1),
            ..Limits::default()
        };
        let out = run_job(
            &mut az,
            &job(p, BackendChoice::Symbolic),
            &starved,
            &Recorder::noop(),
        );
        match out {
            RunOutcome::Unknown(u) => {
                assert_eq!(u.resource, "iterations");
                assert_eq!((u.spent, u.limit), (1, 1));
                assert!(u.reason.contains("resource exhausted"), "{}", u.reason);
                assert_eq!(u.backend, BackendChoice::Symbolic);
            }
            other => panic!("expected unknown, got {other:?}"),
        }
    }
}
