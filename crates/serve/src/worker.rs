//! The shared worker pool: long-lived analyzers solving admitted work.
//!
//! Each worker thread owns one [`Analyzer`] (its own formula arena and
//! warm BDD manager) and loops on the admission queue. All workers share
//! one structural memo cache. Every solve goes through
//! [`engine::run_job_memoized`], which runs a cache miss under panic
//! containment: a panicking solve degrades to one `error` response and
//! rebuilds that worker's analyzer — the thread, and every other in-flight
//! request, survives.

use std::collections::HashMap;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use analyzer::{Analyzer, AnalyzerOptions};
use engine::{
    error_response, run_job_memoized, trace_value, unknown_response, verdict_response, Job, Op,
    Recorder, RunOutcome, UnknownVerdict, Value, Verdict,
};
use obs::MemorySink;
use solver::Limits;

use crate::queue::Queue;
use crate::tenant::InflightGuard;

/// One admitted decision problem, resolved against its tenant's
/// workspace and awaiting a worker.
pub(crate) struct SolveUnit {
    /// The structural memo key (resolved problem + backend).
    pub job: Job,
    /// Effective limits (tenant defaults, per-request overrides applied,
    /// the server's drain token as cancel).
    pub limits: Limits,
    /// Whether the response carries the solve's event trace.
    pub trace: bool,
    /// Echoed client id.
    pub id: Option<Value>,
    /// The operation, echoed canonically.
    pub op: Op,
    /// Position in the connection's response order.
    pub seq: u64,
    /// The connection's reorder channel.
    pub reply: Sender<(u64, Value)>,
    /// The tenant in-flight slot, released when the response is sent.
    pub guard: InflightGuard,
}

/// A fault-injection work item (`ServerConfig::fault_injection` only):
/// deterministic worker-side failure modes for the test harness.
pub(crate) struct FaultUnit {
    /// What to inject.
    pub kind: FaultKind,
    /// Echoed client id.
    pub id: Option<Value>,
    /// Position in the connection's response order.
    pub seq: u64,
    /// The connection's reorder channel.
    pub reply: Sender<(u64, Value)>,
    /// The tenant in-flight slot.
    pub guard: InflightGuard,
}

/// The injectable faults.
pub(crate) enum FaultKind {
    /// Panic inside the worker (must degrade to an `error` response).
    Panic,
    /// Hold a worker slot for `ms`, polling the drain token — the
    /// deterministic way to saturate the queue and to test cancellation.
    Sleep {
        /// How long to hold the slot.
        ms: u64,
    },
}

/// One unit of admitted work.
pub(crate) enum WorkUnit {
    /// A decision problem.
    Solve(Box<SolveUnit>),
    /// An injected fault.
    Fault(FaultUnit),
}

/// The worker loop: pops until the queue closes and drains, answering
/// every unit through its connection's reorder channel.
pub(crate) fn worker_loop(
    queue: &Queue<WorkUnit>,
    cache: &Mutex<HashMap<Job, Verdict>>,
    options: &AnalyzerOptions,
) {
    let mut az = Analyzer::with_options(options.clone());
    while let Some(unit) = queue.pop() {
        match unit {
            WorkUnit::Solve(unit) => solve(&mut az, options, cache, *unit),
            WorkUnit::Fault(unit) => fault(unit),
        }
    }
}

fn solve(
    az: &mut Analyzer,
    options: &AnalyzerOptions,
    cache: &Mutex<HashMap<Job, Verdict>>,
    unit: SolveUnit,
) {
    let started = Instant::now();
    let capture = unit.trace.then(|| Arc::new(MemorySink::new()));
    let rec = match &capture {
        Some(mem) => Recorder::with_sinks(vec![mem.clone() as Arc<dyn obs::Sink>]),
        None => Recorder::noop(),
    };
    let (outcome, cached) = run_job_memoized(az, options, cache, &unit.job, &unit.limits, &rec);
    let trace = capture.map(|mem| trace_value(&mem.drain()));
    let response = match &outcome {
        RunOutcome::Verdict(v) => {
            let wall_ms = if cached { 0.0 } else { v.wall_ms };
            verdict_response(unit.id.as_ref(), unit.op, v, cached, wall_ms, trace)
        }
        RunOutcome::Unknown(u) => unknown_response(unit.id.as_ref(), unit.op, u, trace),
        RunOutcome::Error(e) => error_response(unit.id.as_ref(), e),
    };
    obs::metrics()
        .histogram("xsat_serve_solve_ms", &[])
        .observe_ms(duration_ms(started.elapsed()));
    // A send error means the connection died mid-request; the verdict is
    // simply dropped (it is already memo-cached if definite).
    let _ = unit.reply.send((unit.seq, response));
    drop(unit.guard);
}

fn fault(unit: FaultUnit) {
    let response = match unit.kind {
        FaultKind::Panic => {
            // The same containment boundary a real solve runs under:
            // the panic degrades to one error response and a metric.
            let err = std::panic::catch_unwind(|| -> () {
                panic!("injected panic (fault-injection op)");
            })
            .expect_err("the injected closure always panics");
            obs::metrics()
                .counter("xsat_worker_panics_total", &[])
                .inc();
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("non-string panic payload");
            error_response(
                unit.id.as_ref(),
                &format!("solver panicked ({msg}); the worker survived and this response degraded to an error"),
            )
        }
        FaultKind::Sleep { ms } => {
            let cancel = unit.guard.tenant().limits.cancel.clone();
            let deadline = Instant::now() + Duration::from_millis(ms);
            let mut cancelled = false;
            while Instant::now() < deadline {
                if cancel.is_cancelled() {
                    cancelled = true;
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            let mut fields = Vec::new();
            if let Some(id) = &unit.id {
                fields.push(("id".to_owned(), id.clone()));
            }
            fields.extend([
                ("ok".to_owned(), Value::Bool(true)),
                ("op".to_owned(), Value::from("sleep")),
                ("cancelled".to_owned(), Value::Bool(cancelled)),
            ]);
            Value::Obj(fields)
        }
    };
    let _ = unit.reply.send((unit.seq, response));
    drop(unit.guard);
}

/// A shed verdict: the typed `unknown` an over-admitted request gets
/// instead of unbounded queueing. `scope` names which bound fired
/// (`queue`, `tenant`, or `drain`); `spent`/`limit` report that bound.
/// Sheds are never memo-cached and are counted in `xsat_shed_total`.
pub(crate) fn shed_response(
    id: Option<&Value>,
    op: Op,
    backend: engine::BackendChoice,
    scope: &'static str,
    spent: u64,
    limit: u64,
) -> Value {
    obs::metrics()
        .counter("xsat_shed_total", &[("scope", scope)])
        .inc();
    let unknown = UnknownVerdict {
        resource: "shed",
        spent,
        limit,
        reason: format!(
            "request shed by admission control ({scope} bound {limit} reached); \
             retry against a less loaded server"
        ),
        backend,
        wall_ms: 0.0,
    };
    unknown_response(id, op, &unknown, None)
}

/// Milliseconds of a duration, as f64.
pub(crate) fn duration_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}
